"""Greedy maximal matchings -- the textbook Theta(1)-approximate oracles.

A maximal matching is a 2-approximate maximum matching; this is the canonical
instantiation of the ``Amatching`` oracle of Definition 5.1 (``c = 2``) and of
the baseline the framework boosts.  Both a deterministic edge-order greedy and
a random-order greedy (used when an oblivious/adaptive adversary matters) are
provided, plus a degree-bounded variant used by some weak-oracle constructions.

Determinism
-----------
The random-order variants take either a ``seed`` or an explicit
``random.Random`` instance (``rng=``); callers that run sweeps thread one
``rng`` through every call so whole benchmark runs replay bit-for-bit.  The
edge list is sorted canonically before shuffling, so a fixed seed produces
the *same* matching whatever order the graph stores its edges in.
:func:`greedy_scan` and :func:`shuffled_greedy` take ``(n, edges)`` for the
``Amatching`` oracles, which are handed edge lists, not graphs.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching

Edge = Tuple[int, int]


def _resolve_rng(rng: Optional[random.Random], seed: Optional[int]) -> random.Random:
    """An explicit ``rng`` wins; otherwise derive one from ``seed``."""
    return rng if rng is not None else random.Random(seed)


def greedy_scan(n: int, edges: Iterable[Edge],
                forbidden: Optional[Iterable[int]] = None) -> Matching:
    """Greedy maximal matching of the edges on ``0..n-1``, scanned in the
    order given: an edge goes in when both its endpoints are still free.

    ``forbidden`` vertices stay unmatched.
    """
    matching = Matching(n)
    blocked = set(forbidden) if forbidden is not None else None
    mate = matching._mate
    for u, v in edges:
        if blocked is not None and (u in blocked or v in blocked):
            continue
        if mate[u] is None and mate[v] is None:
            matching.add(u, v)
    return matching


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
    edges = graph.edge_list() if edge_order is None else edge_order
    return greedy_scan(graph.n, edges, forbidden)


def shuffled_greedy(n: int, edges: Iterable[Edge], rng: random.Random,
                    forbidden: Optional[Iterable[int]] = None) -> Matching:
    """:func:`greedy_scan` over the canonically sorted ``edges`` shuffled by
    ``rng``, so the result does not depend on the order they come in.
    ``edges`` are canonical ``(u, v)`` pairs, ``u < v``, each edge once."""
    order = sorted(edges)
    rng.shuffle(order)
    return greedy_scan(n, order, forbidden)


def random_greedy_matching(graph: Graph, seed: Optional[int] = None,
                           forbidden: Optional[Iterable[int]] = None,
                           rng: Optional[random.Random] = None) -> Matching:
    """Greedy maximal matching over a uniformly random edge order.

    Pass ``rng`` to thread one explicit :class:`random.Random` through a whole
    run (reproducible benchmarks); ``seed`` builds a private generator.  The
    edge list is canonically sorted before shuffling, so the result for a
    fixed seed does not depend on the graph's edge storage order.
    """
    return shuffled_greedy(graph.n, graph.edge_list(), _resolve_rng(rng, seed),
                           forbidden)


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
