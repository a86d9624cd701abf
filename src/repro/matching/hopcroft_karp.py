"""Hopcroft–Karp exact maximum matching for bipartite graphs.

Several tests work on bipartite graphs (the OMv matching tests among them),
where Hopcroft–Karp gives an exact maximum matching in ``O(E * sqrt(V))``
time -- much faster than the general blossom algorithm, so it serves as the
exact reference on bipartite inputs.  The OMv path of Section 7.4 does not
call it: its matchings come from OMv queries and row probes.  Given no
sides, :func:`hopcroft_karp` two-colours the graph with :func:`bipartition`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching

_INF = float("inf")


def bipartition(graph: Graph) -> Optional[Tuple[List[int], List[int]]]:
    """Return a bipartition ``(L, R)`` or ``None`` if the graph is not bipartite."""
    colour = [-1] * graph.n
    for start in graph.vertices():
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in graph.neighbor_list(u):
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    left = [v for v in graph.vertices() if colour[v] == 0]
    right = [v for v in graph.vertices() if colour[v] == 1]
    return left, right


def hopcroft_karp(graph: Graph,
                  left: Optional[Sequence[int]] = None,
                  right: Optional[Sequence[int]] = None) -> Matching:
    """Exact maximum matching of a bipartite graph.

    Parameters
    ----------
    graph:
        A bipartite graph.
    left, right:
        Optional explicit bipartition.  When omitted it is computed by BFS;
        a ``ValueError`` is raised if the graph is not bipartite.
    """
    if left is None or right is None:
        parts = bipartition(graph)
        if parts is None:
            raise ValueError("graph is not bipartite")
        left, right = parts
    left = list(left)
    left_set = set(left)

    # Materialise left-side adjacency once: the BFS/DFS layers below touch
    # these rows many times per phase, and holding direct references to the
    # adjacency sets beats a per-visit neighbors() call.
    adj: Dict[int, Sequence[int]] = {u: graph.neighbor_list(u) for u in left}

    pair_u: Dict[int, Optional[int]] = {u: None for u in left}
    pair_v: Dict[int, Optional[int]] = {}
    for u in left:
        for v in adj[u]:
            pair_v.setdefault(v, None)
    dist: Dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if pair_u[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_v.get(v)
                if w is None:
                    found = True
                elif dist.get(w, _INF) == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_v.get(v)
            if w is None or (dist.get(w, _INF) == dist[u] + 1 and dfs(w)):
                pair_u[u] = v
                pair_v[v] = u
                return True
        dist[u] = _INF
        return False

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, graph.n * 2 + 100))
    try:
        while bfs():
            for u in left:
                if pair_u[u] is None:
                    dfs(u)
    finally:
        sys.setrecursionlimit(old_limit)

    matching = Matching(graph.n)
    for u, v in pair_u.items():
        if v is not None:
            matching.add(u, v)
    return matching


def maximum_bipartite_matching_size(graph: Graph) -> int:
    """Size of a maximum matching of a bipartite graph."""
    return hopcroft_karp(graph).size
