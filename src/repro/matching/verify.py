"""Verification and certification utilities for matchings.

Used throughout the test-suite to certify that a returned matching is (a) a
valid matching of the input graph, (b) within the advertised approximation
factor of the optimum, and (c) (for the (1+eps) analysis) free of short
augmenting paths -- the classical certificate that a matching is a
(1 + 2/(k+1))-approximation when no augmenting path of length <= k exists.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.matching.blossom import maximum_matching_size


def is_valid_matching(graph: Graph, matching: Matching) -> bool:
    """Whether ``matching`` is a matching of ``graph`` (disjoint graph edges)."""
    try:
        matching.validate(graph)
    except AssertionError:
        return False
    return True


def approximation_ratio(graph: Graph, matching: Matching,
                        optimum: Optional[int] = None) -> float:
    """``mu(G) / |M|`` (>= 1); ``inf`` if the matching is empty but mu > 0.

    The paper's "alpha-approximate" matching has ``|M| >= mu(G)/alpha``; this
    function returns that alpha so tests can assert ``ratio <= 1 + eps``.
    """
    opt = maximum_matching_size(graph) if optimum is None else optimum
    if opt == 0:
        return 1.0
    if matching.size == 0:
        return float("inf")
    return opt / matching.size


def is_maximal(graph: Graph, matching: Matching) -> bool:
    """No edge of the graph has both endpoints free."""
    for u, v in graph.edges():
        if matching.is_free(u) and matching.is_free(v):
            return False
    return True


def has_short_augmenting_path(graph: Graph, matching: Matching,
                              max_length: int) -> bool:
    """Whether an augmenting path with at most ``max_length`` edges exists.

    Exhaustive alternating-simple-path DFS from every free vertex.  Exponential
    in ``max_length`` in the worst case; intended for small test graphs and
    small bounds (the certificates needed are for ``max_length ~ 2/eps + 1``).
    """
    if max_length < 1:
        return False
    free = matching.free_vertices()
    free_set = set(free)

    def dfs(v: int, need_matched: bool, depth: int, visited: Set[int]) -> bool:
        if depth > max_length:
            return False
        for w in graph.neighbors(v):
            if w in visited:
                continue
            edge_matched = matching.contains_edge(v, w)
            if edge_matched != need_matched:
                continue
            if not need_matched and w in free_set:
                return True  # completed an augmenting path
            if need_matched or matching.is_matched(w):
                visited.add(w)
                if dfs(w, not need_matched, depth + 1, visited):
                    return True
                visited.remove(w)
        return False

    for alpha in free:
        if dfs(alpha, need_matched=False, depth=1, visited={alpha}):
            return True
    return False


def count_disjoint_augmenting_paths_upper_bound(graph: Graph,
                                                matching: Matching) -> int:
    """``mu(G) - |M|``: the number of vertex-disjoint augmenting paths (Berge)."""
    return maximum_matching_size(graph) - matching.size


def certify_approximation(graph: Graph, matching: Matching, eps: float,
                          optimum: Optional[int] = None) -> Tuple[bool, float]:
    """Return ``(ok, ratio)`` where ok means ``|M| >= mu(G) / (1 + eps)``."""
    ratio = approximation_ratio(graph, matching, optimum=optimum)
    return ratio <= 1.0 + eps + 1e-12, ratio
