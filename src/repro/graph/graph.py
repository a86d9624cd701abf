"""Undirected simple graph container used throughout the library.

The paper (Section 3) works with an undirected simple graph ``G`` on vertices
``0..n-1``.  All static algorithms in this reproduction -- the semi-streaming
algorithm of [MMSS25], the boosting framework of Section 5, the MPC/CONGEST
substrates and the baselines -- operate on instances of :class:`Graph`.

Design notes
------------
* Storage is one adjacency set per vertex
  (:class:`~repro.graph.backends.AdjacencySetBackend`): O(1) membership
  tests, which dominate the pointer-chasing access pattern of the
  combinatorial algorithms.  See "Graph storage" in ARCHITECTURE.md.
* Vertices are dense integers ``0..n-1``.  Induced subgraphs relabel to a dense
  range and keep a mapping back to the parent graph, because the exact blossom
  matcher and the oracles expect dense vertex ids.
* Hot paths should prefer the bulk APIs (:meth:`Graph.add_edges`,
  :meth:`Graph.edge_list`, :meth:`Graph.subgraph_edges`,
  :meth:`Graph.neighbor_list`): one call through the container per batch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graph.backends import AdjacencySetBackend

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """A mutable undirected simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Optional iterable of ``(u, v)`` pairs to insert.  Self-loops are
        rejected; parallel edges are silently deduplicated (the graph is
        simple).
    backend:
        ``None`` or ``"adjset"``, the one storage layout; anything else
        raises :class:`ValueError`.
    """

    __slots__ = ("_backend",)

    def __init__(self, n: int, edges: Optional[Iterable[Edge]] = None,
                 backend: Optional[str] = None) -> None:
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        if backend not in (None, "adjset"):
            raise ValueError(f"unknown graph backend {backend!r}; "
                             "the only one is 'adjset'")
        self._backend = AdjacencySetBackend(n)
        if edges is not None:
            self._backend.add_edges(edges)

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._backend.n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._backend.m

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._backend.n)

    def __len__(self) -> int:
        return self._backend.n

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self._backend.has_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``.  Returns ``True`` if the edge is new."""
        return self._backend.add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}``.  Returns ``True`` if the edge existed."""
        return self._backend.remove_edge(u, v)

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges in one call; returns how many were new."""
        return self._backend.add_edges(edges)

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Delete many edges in one call; returns how many existed."""
        return self._backend.remove_edges(edges)

    def load_canonical(self, eu, ev) -> None:
        """Load canonical key-sorted edge arrays into this edgeless graph in
        one call (see :meth:`AdjacencySetBackend.load_canonical`)."""
        self._backend.load_canonical(eu, ev)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is present."""
        return self._backend.has_edge(u, v)

    def neighbors(self, v: int) -> Set[int]:
        """The adjacency set of ``v`` (do not mutate)."""
        return self._backend.neighbors(v)

    def neighbor_list(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` as a cheap-to-iterate sequence.

        Prefer this over :meth:`neighbors` in iteration-only hot loops.
        """
        return self._backend.neighbor_list(v)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return self._backend.degree(v)

    def max_degree(self) -> int:
        """Maximum degree over all vertices (0 for an empty graph)."""
        return self._backend.max_degree()

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as canonical ``(u, v)`` pairs with ``u < v``."""
        return self._backend.edges()

    def edge_list(self) -> List[Edge]:
        """Materialise :meth:`edges` into a list."""
        return self._backend.edge_list()

    def arcs(self) -> Iterator[Edge]:
        """Iterate over both orientations of every edge (Section 3.3 arcs)."""
        return self._backend.arcs()

    def arc_list(self) -> List[Edge]:
        """Materialise :meth:`arcs` into a list."""
        return self._backend.arc_list()

    # ----------------------------------------------------------------- derived
    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        g = Graph.__new__(Graph)
        g._backend = self._backend.copy()
        return g

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Return ``G[S]`` relabelled to ``0..|S|-1`` plus the new->old map.

        The subgraph is materialised through the storage's bulk
        :meth:`~repro.graph.backends.AdjacencySetBackend.induced_edges`
        primitive.

        Parameters
        ----------
        vertices:
            The vertex subset ``S`` (duplicates are ignored).

        Returns
        -------
        (subgraph, back_map):
            ``back_map[new_id] = old_id``.
        """
        uniq = list(dict.fromkeys(vertices))
        for v in uniq:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range [0, {self.n})")
        index = {old: new for new, old in enumerate(uniq)}
        sub = Graph(len(uniq))
        sub._backend.add_edges(
            (index[u], index[v]) for u, v in self._backend.induced_edges(uniq))
        return sub, {new: old for old, new in index.items()}

    def subgraph_edges(self, vertices: Iterable[int]) -> List[Edge]:
        """Edges of ``G[S]`` in the *original* labelling."""
        s = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        return self._backend.induced_edges(s)

    def connected_components(self) -> List[List[int]]:
        """Connected components as lists of vertices (iterative DFS)."""
        n = self.n
        neighbor_list = self._backend.neighbor_list
        seen = [False] * n
        comps: List[List[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in neighbor_list(u):
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(comp)
        return comps

    def arboricity_upper_bound(self) -> int:
        """A cheap upper bound on arboricity: ``ceil(max_degeneracy ... )``.

        We use the degeneracy (computed by repeated minimum-degree peeling),
        which upper bounds arboricity within a factor of 2 and is what
        Remark 1 of the paper cares about qualitatively.
        """
        if self.m == 0:
            return 0
        n = self.n
        adj = [set(self._backend.neighbor_list(v)) for v in range(n)]
        degree = [len(a) for a in adj]
        import heapq

        heap = [(degree[v], v) for v in range(n)]
        heapq.heapify(heap)
        degeneracy = 0
        removed = [False] * n
        while heap:
            d, v = heapq.heappop(heap)
            if removed[v] or d != degree[v]:
                continue
            removed[v] = True
            degeneracy = max(degeneracy, d)
            for w in adj[v]:
                if not removed[w]:
                    adj[w].discard(v)
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], w))
        return degeneracy

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """Construct a graph from an edge iterable (convenience alias)."""
        return cls(n, edges)
