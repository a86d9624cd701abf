"""Synthetic graph generators used as workloads for tests and benchmarks.

The paper does not evaluate on data sets (it is a theory paper), so the
benchmark harness exercises the algorithms on synthetic families that stress
the relevant behaviours:

* Erdős–Rényi graphs (generic dense/sparse inputs),
* random bipartite graphs (for the Hopcroft–Karp substrate and the OMv path),
* graphs with a *planted perfect matching* plus noise (so the optimum is known
  by construction and approximation ratios can be checked cheaply),
* long paths/cycles (worst cases for augmenting-path length),
* blossom gadgets (odd cycles hanging off paths; stress the Contract logic),
* ORS-style layered induced-matching graphs (Definition 7.2 workloads).

All generators take an explicit seed and return plain :class:`Graph` objects;
the main families build the graph through the bulk :meth:`Graph.add_edges`
API in one call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
# the single repo-wide seed convention (named substreams live there too)
from repro.utils.seeding import rng as _rng


# ---------------------------------------------------------------------------
# classic random families
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """G(n, p) random graph."""
    rng = _rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_graph_m(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """Uniform random graph with exactly ``min(m, n choose 2)`` edges."""
    return Graph(n, random_edge_list(n, m, seed=seed))


def random_edge_list(n: int, m: int, seed: Optional[int] = None) -> List[Tuple[int, int]]:
    """``m`` distinct random edges on ``n`` vertices as a plain list.

    The bulk-construction workload: feed the result to :meth:`Graph.add_edges`
    (or ``Graph(n, edges)``) to time graph construction without entangling
    generation cost.
    """
    rng = _rng(seed)
    max_m = n * (n - 1) // 2
    target = min(m, max_m)
    seen = set()
    out: List[Tuple[int, int]] = []
    while len(out) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in seen:
            continue
        seen.add(e)
        out.append(e)
    return out


def random_bipartite(n_left: int, n_right: int, p: float,
                     seed: Optional[int] = None) -> Tuple[Graph, List[int], List[int]]:
    """Random bipartite graph; returns ``(graph, left_ids, right_ids)``."""
    rng = _rng(seed)
    n = n_left + n_right
    left = list(range(n_left))
    right = list(range(n_left, n))
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return Graph(n, edges), left, right


def random_regular_like(n: int, d: int, seed: Optional[int] = None) -> Graph:
    """Approximately d-regular graph via d random perfect-matching overlays."""
    rng = _rng(seed)
    edges: List[Tuple[int, int]] = []
    for _ in range(d):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(0, n - 1, 2):
            u, v = perm[i], perm[i + 1]
            if u != v:
                edges.append((u, v))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# structured families with known optimum
# ---------------------------------------------------------------------------

def planted_matching(n_pairs: int, extra_edge_prob: float = 0.0,
                     seed: Optional[int] = None) -> Tuple[Graph, List[Tuple[int, int]]]:
    """Graph on ``2 * n_pairs`` vertices containing a planted perfect matching.

    Returns the graph and the planted matching, which certifies
    ``mu(G) = n_pairs``.  ``extra_edge_prob`` adds random noise edges.
    """
    rng = _rng(seed)
    n = 2 * n_pairs
    perm = list(range(n))
    rng.shuffle(perm)
    planted = []
    for i in range(0, n, 2):
        u, v = perm[i], perm[i + 1]
        planted.append((u, v) if u < v else (v, u))
    edges = list(planted)
    if extra_edge_prob > 0:
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < extra_edge_prob:
                    edges.append((u, v))
    return Graph(n, edges), planted


def path_graph(n: int) -> Graph:
    """Simple path on ``n`` vertices (maximum matching = floor(n/2))."""
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Simple cycle on ``n >= 3`` vertices (maximum matching = floor(n/2))."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def disjoint_paths(num_paths: int, path_len: int) -> Graph:
    """``num_paths`` vertex-disjoint paths each with ``path_len`` edges.

    With a greedy matching that picks the "wrong" edges these are the
    canonical graphs requiring augmenting paths of length up to ``path_len``.
    """
    n = num_paths * (path_len + 1)
    g = Graph(n)
    for p in range(num_paths):
        base = p * (path_len + 1)
        for i in range(path_len):
            g.add_edge(base + i, base + i + 1)
    return g


def blossom_gadget(num_gadgets: int = 1, stem_len: int = 2) -> Graph:
    """Disjoint copies of a triangle with a pendant path ("flower" gadget).

    Each gadget is an odd cycle (triangle) with a path of ``stem_len`` edges
    attached; finding a maximum matching requires recognising the blossom.
    """
    per = 3 + stem_len
    g = Graph(num_gadgets * per)
    for k in range(num_gadgets):
        b = k * per
        # triangle b, b+1, b+2
        g.add_edge(b, b + 1)
        g.add_edge(b + 1, b + 2)
        g.add_edge(b + 2, b)
        # stem attached at b
        prev = b
        for i in range(stem_len):
            g.add_edge(prev, b + 3 + i)
            prev = b + 3 + i
    return g


def nested_blossom_gadget() -> Graph:
    """A small graph whose maximum matching requires a nested blossom.

    9-vertex construction: a pentagon with a triangle sharing a vertex plus
    connecting pendant vertices, a classic stress test for blossom handling.
    """
    g = Graph(10)
    # pentagon 0-1-2-3-4-0
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]:
        g.add_edge(u, v)
    # triangle 4-5-6-4 nested off the pentagon
    g.add_edge(4, 5)
    g.add_edge(5, 6)
    g.add_edge(6, 4)
    # pendant path
    g.add_edge(6, 7)
    g.add_edge(7, 8)
    g.add_edge(8, 9)
    return g


# ---------------------------------------------------------------------------
# ORS-style graphs (Definition 7.2)
# ---------------------------------------------------------------------------

def ors_layered_graph(n: int, matching_size: int, num_matchings: int,
                      seed: Optional[int] = None) -> Tuple[Graph, List[List[Tuple[int, int]]]]:
    """An (r, t)-ORS-style graph: an ordered list of ``t`` induced matchings.

    We use the simple layered construction: split the vertices into ``t``
    consecutive blocks of left endpoints matched to a shared pool of right
    endpoints chosen so that matching ``M_i`` is induced within
    ``M_i ∪ ... ∪ M_t``.  The construction is not extremal (the true value of
    ORS(n, r) is an open problem, as the paper notes) but produces valid
    ordered-RS instances used as dynamic workloads.

    Returns the graph and the ordered matchings ``[M_1, ..., M_t]``.
    """
    rng = _rng(seed)
    r = matching_size
    t = num_matchings
    if 2 * r > n:
        raise ValueError("matching_size too large for n")
    g = Graph(n)
    matchings: List[List[Tuple[int, int]]] = []
    vertices = list(range(n))
    for i in range(t):
        rng.shuffle(vertices)
        chosen = vertices[: 2 * r]
        mi: List[Tuple[int, int]] = []
        for j in range(r):
            u, v = chosen[2 * j], chosen[2 * j + 1]
            mi.append((u, v) if u < v else (v, u))
        matchings.append(mi)
    # Add matchings in *reverse* order, dropping any M_i edge whose endpoints
    # already touch a later matching edge that would violate inducedness.
    accepted: List[List[Tuple[int, int]]] = []
    later_vertices: set = set()
    for mi in reversed(matchings):
        kept = []
        for (u, v) in mi:
            # M_i must be induced in M_i ∪ ... ∪ M_t: adding (u,v) is fine as
            # long as neither endpoint is already adjacent (in g) to a vertex
            # of a later matching other than through (u, v) itself.  The
            # simplest sufficient condition: u and v are not in later_vertices.
            if u not in later_vertices and v not in later_vertices:
                kept.append((u, v))
        for (u, v) in kept:
            g.add_edge(u, v)
        for (u, v) in kept:
            later_vertices.add(u)
            later_vertices.add(v)
        accepted.append(kept)
    accepted.reverse()
    return g, accepted


def verify_ors(graph: Graph, matchings: Sequence[Sequence[Tuple[int, int]]]) -> bool:
    """Check the ordered Ruzsa–Szemerédi property of Definition 7.2.

    Every ``M_i`` must be an *induced* matching in the subgraph of ``G`` on the
    vertices of ``M_i ∪ M_{i+1} ∪ ... ∪ M_t``.
    """
    t = len(matchings)
    suffix_vertices: List[set] = [set() for _ in range(t + 1)]
    for i in range(t - 1, -1, -1):
        s = set(suffix_vertices[i + 1])
        for u, v in matchings[i]:
            s.add(u)
            s.add(v)
        suffix_vertices[i] = s
    for i, mi in enumerate(matchings):
        mi_vertices = set()
        for u, v in mi:
            if not graph.has_edge(u, v):
                return False
            if u in mi_vertices or v in mi_vertices:
                return False  # not a matching
            mi_vertices.add(u)
            mi_vertices.add(v)
        # induced in G[suffix]: no edge of G between two M_i-vertices other
        # than the matching edges themselves, and no M_i vertex adjacent to
        # another M_i vertex via the suffix subgraph.
        mi_edges = {(min(u, v), max(u, v)) for u, v in mi}
        for u in sorted(mi_vertices):
            for w in graph.neighbors(u):
                if w in mi_vertices and (min(u, w), max(u, w)) not in mi_edges:
                    return False
    return True
