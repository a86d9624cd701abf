"""Bipartite helpers and the bipartite double cover of Definition 6.3.

Section 6 of the paper works with a bipartite auxiliary graph ``B`` obtained
by splitting each vertex ``v`` of ``G`` into an *outer copy* ``v+`` and an
*inner copy* ``v-``; every edge ``{u, v}`` of ``G`` yields the two edges
``(u+, v-)`` and ``(v+, u-)`` in ``B``.  The dynamic boosting framework invokes
the weak oracle on vertex-induced subgraphs of ``B`` so that the returned
matching never contains inner-inner edges.

The cover is intentionally *implicit*: constructing ``B`` explicitly costs
Omega(m) which the dynamic algorithm cannot afford, so :class:`BipartiteDoubleCover`
answers adjacency queries by delegating to ``G`` (the paper makes exactly this
point below Definition 6.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Graph


def is_bipartite(graph: Graph) -> bool:
    """Whether the graph is bipartite (2-colourable), by BFS."""
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
                    return False
    return True


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


class BipartiteDoubleCover:
    """The implicit bipartite graph ``B`` of Definition 6.3.

    Vertex numbering: outer copy of ``v`` is ``v`` itself (``0..n-1``), the
    inner copy is ``v + n`` (``n..2n-1``).  Adjacency queries are answered from
    the underlying graph, so updates to ``G`` are reflected immediately.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    # ------------------------------------------------------------------ sizes
    @property
    def base(self) -> Graph:
        return self._graph

    @property
    def n(self) -> int:
        """Number of vertices of ``B`` (twice the base graph)."""
        return 2 * self._graph.n

    # ------------------------------------------------------------- id mapping
    def outer_copy(self, v: int) -> int:
        """Id of ``v+`` in ``B``."""
        return v

    def inner_copy(self, v: int) -> int:
        """Id of ``v-`` in ``B``."""
        return v + self._graph.n

    def is_outer_copy(self, b_vertex: int) -> bool:
        return b_vertex < self._graph.n

    def base_vertex(self, b_vertex: int) -> int:
        """The vertex of ``G`` a cover vertex corresponds to."""
        n = self._graph.n
        return b_vertex if b_vertex < n else b_vertex - n

    # -------------------------------------------------------------- adjacency
    def has_edge(self, x: int, y: int) -> bool:
        """Whether ``{x, y}`` is an edge of ``B``.

        An edge exists iff one endpoint is an outer copy, the other an inner
        copy, and the underlying vertices are adjacent in ``G``.
        """
        if self.is_outer_copy(x) == self.is_outer_copy(y):
            return False
        return self._graph.has_edge(self.base_vertex(x), self.base_vertex(y))

    def induced_subgraph(self, b_vertices: Sequence[int]) -> Tuple[Graph, Dict[int, int]]:
        """Materialise ``B[S]`` (relabelled densely) for a *small* subset ``S``.

        Only the edges among the chosen cover-vertices are enumerated, so the
        cost is O(|S| * avg-degree), never Omega(m).
        """
        uniq = list(dict.fromkeys(b_vertices))
        index = {b: i for i, b in enumerate(uniq)}
        sub = Graph(len(uniq))
        outer = [b for b in uniq if self.is_outer_copy(b)]
        inner_set: Set[int] = {b for b in uniq if not self.is_outer_copy(b)}
        sub_edges = []
        for b_out in outer:
            u = self.base_vertex(b_out)
            for w in self._graph.neighbor_list(u):
                b_in = self.inner_copy(w)
                if b_in in inner_set:
                    sub_edges.append((index[b_out], index[b_in]))
        sub.add_edges(sub_edges)
        return sub, {i: b for b, i in index.items()}

    def project_matching(self, b_matching: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """Project a matching of ``B`` down to a *matching* of ``G`` (Lemma 7.8).

        A matching of ``B`` maps to a degree-<=2 subgraph of ``G`` (each vertex
        of ``G`` has two copies).  We pick every other edge on each resulting
        path/cycle, which loses at most a constant factor (the paper proves a
        factor 6; on typical inputs the loss is far smaller).
        """
        edges: Set[Tuple[int, int]] = set()
        for x, y in b_matching:
            u, v = self.base_vertex(x), self.base_vertex(y)
            if u == v:
                continue
            edges.add((u, v) if u < v else (v, u))
        # Greedily pick an independent edge set from the degree-<=2 subgraph.
        used: Set[int] = set()
        result: List[Tuple[int, int]] = []
        for u, v in sorted(edges):
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                result.append((u, v))
        return result
