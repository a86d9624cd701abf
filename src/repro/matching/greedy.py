"""Greedy maximal matchings -- the textbook Theta(1)-approximate oracles.

A maximal matching is a 2-approximate maximum matching; this is the canonical
instantiation of the ``Amatching`` oracle of Definition 5.1 (``c = 2``) and of
the baseline the framework boosts.  Both a deterministic edge-order greedy and
a random-order greedy (used when an oblivious/adaptive adversary matters) are
provided, plus a degree-bounded variant used by some weak-oracle constructions.

Determinism and the fast path
-----------------------------
* The random-order variants take either a ``seed`` or an explicit
  ``random.Random`` instance (``rng=``); callers that run sweeps thread one
  ``rng`` through every call so whole benchmark runs replay bit-for-bit.
  The edge list is sorted canonically before shuffling, so a fixed seed
  produces the *same* matching whatever order the graph stores its edges in.
* When the edge list is large, the sequential scan is replaced by a
  vectorized round-based selection that provably returns the exact same
  matching (an edge is greedy-selected iff it is the earliest-remaining
  edge at both endpoints; repeatedly selecting all such edges at once
  reproduces the sequential order).  A round cap guards the
  adversarial case (e.g. a path scanned end-to-end needs Theta(n) rounds);
  leftovers fall back to the sequential scan.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.backends import edge_endpoint_arrays
from repro.graph.graph import Graph
from repro.matching.matching import Matching

Edge = Tuple[int, int]

#: below this many edges the plain Python scan wins over array set-up costs
_VECTORIZE_MIN_EDGES = 2048

#: rounds of vectorized selection before falling back to the sequential scan
_MAX_VECTOR_ROUNDS = 32


def _resolve_rng(rng: Optional[random.Random], seed: Optional[int]) -> random.Random:
    """An explicit ``rng`` wins; otherwise derive one from ``seed``."""
    return rng if rng is not None else random.Random(seed)


def _greedy_select_vectorized(edges: Sequence[Edge], n: int,
                              blocked: Optional[set]) -> List[Edge]:
    """The edges sequential greedy would pick from ``edges``, in that order.

    Round-based equivalent of the sequential scan: every round selects the
    edges that are the earliest remaining edge at both endpoints (those are
    exactly the edges sequential greedy commits to before any conflicting
    edge), drops everything touching a matched vertex, and repeats.
    Returns the picked edges in sequential pick order.
    """
    orig_u, orig_v = edge_endpoint_arrays(edges)
    us, vs = orig_u, orig_v
    pos = np.arange(us.size, dtype=np.int64)
    if blocked:
        blocked_mask = np.zeros(n, dtype=bool)
        blocked_mask[sorted(blocked)] = True
        keep = ~(blocked_mask[us] | blocked_mask[vs])
        us, vs, pos = us[keep], vs[keep], pos[keep]
    matched = np.zeros(n, dtype=bool)
    winner_pos: List[int] = []
    rounds = 0
    while pos.size and rounds < _MAX_VECTOR_ROUNDS:
        rounds += 1
        rank = np.arange(pos.size, dtype=np.int64)
        # Scatter-min of rank per endpoint: fancy assignment keeps the *last*
        # write per index, so assigning in reverse rank order leaves the
        # minimum (ranks ascend).  Far faster than np.minimum.at.
        first_u = np.full(n, pos.size, dtype=np.int64)
        first_u[us[::-1]] = rank[::-1]
        first_v = np.full(n, pos.size, dtype=np.int64)
        first_v[vs[::-1]] = rank[::-1]
        first = np.minimum(first_u, first_v)
        win = (first[us] == rank) & (first[vs] == rank)
        wu, wv = us[win], vs[win]
        matched[wu] = True
        matched[wv] = True
        winner_pos.extend(pos[win].tolist())
        keep = ~(matched[us] | matched[vs])
        us, vs, pos = us[keep], vs[keep], pos[keep]
    wp = np.asarray(sorted(winner_pos), dtype=np.int64)
    out = list(zip(orig_u[wp].tolist(), orig_v[wp].tolist()))
    if pos.size:  # round cap hit: finish the tail sequentially
        taken = matched
        for u, v in zip(orig_u[pos].tolist(), orig_v[pos].tolist()):
            if not taken[u] and not taken[v]:
                taken[u] = True
                taken[v] = True
                out.append((u, v))
    return out


def greedy_maximal_matching(graph: Graph,
                            edge_order: Optional[Sequence[Edge]] = None,
                            forbidden: Optional[Iterable[int]] = None) -> Matching:
    """Deterministic greedy maximal matching.

    Parameters
    ----------
    graph:
        Input graph.
    edge_order:
        Optional explicit edge order; defaults to the graph's iteration order.
    forbidden:
        Vertices that must remain unmatched (used when peeling already-matched
        vertices, Lemma 5.3 / Lemma 6.7).
    """
    matching = Matching(graph.n)
    blocked = set(forbidden) if forbidden is not None else None
    if edge_order is None:
        edges: Sequence[Edge] = graph.edge_list()
    elif isinstance(edge_order, (list, tuple)):
        edges = edge_order
    else:
        edges = list(edge_order)

    if len(edges) >= _VECTORIZE_MIN_EDGES:
        matching.add_disjoint_edges(
            _greedy_select_vectorized(edges, graph.n, blocked))
        return matching

    mate = matching._mate
    for u, v in edges:
        if blocked is not None and (u in blocked or v in blocked):
            continue
        if mate[u] is None and mate[v] is None:
            matching.add(u, v)
    return matching


def random_greedy_matching(graph: Graph, seed: Optional[int] = None,
                           forbidden: Optional[Iterable[int]] = None,
                           rng: Optional[random.Random] = None) -> Matching:
    """Greedy maximal matching over a uniformly random edge order.

    Pass ``rng`` to thread one explicit :class:`random.Random` through a whole
    run (reproducible benchmarks); ``seed`` builds a private generator.  The
    edge list is canonically sorted before shuffling, so the result for a
    fixed seed does not depend on the graph's edge storage order.
    """
    rng = _resolve_rng(rng, seed)
    edges = sorted(graph.edge_list())
    rng.shuffle(edges)
    return greedy_maximal_matching(graph, edge_order=edges, forbidden=forbidden)


def greedy_on_vertex_subset(graph: Graph, subset: Sequence[int],
                            seed: Optional[int] = None,
                            rng: Optional[random.Random] = None) -> List[Edge]:
    """Greedy maximal matching of the induced subgraph ``G[S]``.

    Returns the matched edges in the *original* labelling.  This is the
    work-horse behind several ``Aweak`` implementations (Definition 6.1): it
    touches only edges with both endpoints in ``S`` (fetched in one bulk
    ``subgraph_edges`` call).
    """
    rng = _resolve_rng(rng, seed)
    s = set(subset)
    sub_edges = sorted(graph.subgraph_edges(s))
    rng.shuffle(sub_edges)
    if len(sub_edges) >= _VECTORIZE_MIN_EDGES:
        return _greedy_select_vectorized(sub_edges, graph.n, None)
    used = set()
    out: List[Edge] = []
    for u, v in sub_edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            out.append((u, v))
    return out


def maximal_matching_is_maximal(graph: Graph, matching: Matching) -> bool:
    """Check maximality: no graph edge has both endpoints free."""
    for u, v in graph.edges():
        if matching.is_free(u) and matching.is_free(v):
            return False
    return True
