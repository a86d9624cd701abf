"""Undirected simple graph container used throughout the library.

The paper (Section 3) works with an undirected simple graph ``G`` on vertices
``0..n-1``.  All static algorithms in this reproduction -- the semi-streaming
algorithm of [MMSS25], the boosting framework of Section 5, the MPC/CONGEST
substrates and the baselines -- operate on instances of :class:`Graph`.

Design notes
------------
* :class:`Graph` is its own storage: one adjacency set per vertex, allocated
  on the vertex's first edge (or, after :meth:`Graph.load_canonical`, on its
  first touch).  Membership tests and single-edge mutations are O(1), which
  the pointer-chasing access pattern of the combinatorial algorithms needs;
  iteration follows each row's set order, a pure function of the update
  sequence.  See "Graph storage" in ARCHITECTURE.md.
* Vertices are dense integers ``0..n-1``.  Induced subgraphs relabel to a dense
  range and keep a mapping back to the parent graph, because the exact blossom
  matcher and the oracles expect dense vertex ids.
* Hot paths should prefer the bulk APIs (:meth:`Graph.add_edges`,
  :meth:`Graph.edge_list`, :meth:`Graph.subgraph_edges`,
  :meth:`Graph.neighbor_list`): one call through the container per batch.

The module-level helpers turn edge sets into NumPy arrays for the code that
works on whole graphs at once: :func:`edge_endpoint_arrays` (bulk edge
consumers), :func:`canonical_edges_error` (checkpoint loading, repair view
seeding, :meth:`Graph.load_canonical`) and :func:`compile_csr` (the phase
engine's and the repair context's adjacency arrays, the base of loaded rows).
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

Edge = Tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def edge_endpoint_arrays(edges: Iterable[Edge]):
    """Flatten an edge iterable into endpoint arrays ``(u, v)`` (int64).

    The shared fast path for bulk edge consumers (the vectorized greedy and
    the maintainer's checkpointed edge columns): ``np.fromiter`` over a
    flattened chain converts a 100k-pair list several times faster than
    ``np.asarray`` on the list of tuples; array-likes pass through
    ``asarray`` with a shape check.
    """
    if hasattr(edges, "__array__"):
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        flat = pairs.reshape(-1)
    else:
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                           count=2 * len(edges))
    return flat[0::2], flat[1::2]


def canonical_edges_error(eu, ev, n: int) -> Optional[str]:
    """Why ``eu``/``ev`` are not canonical key-sorted edge arrays, or ``None``.

    Canonical means equal-length 1-D int arrays, ``0 <= u < v < n`` for
    every edge, and strictly increasing keys ``u * n + v`` (so no edge
    twice) -- the sorted edge set the phase views use.  The checkpoint
    loader, the repair context's view seeding and
    :meth:`Graph.load_canonical` check it.
    """
    if eu.dtype.kind not in "iu" or ev.dtype.kind not in "iu":
        return "edge arrays are not integer arrays"
    if eu.ndim != 1 or eu.shape != ev.shape:
        return (f"edge arrays are not 1-D of equal length "
                f"({eu.shape} vs {ev.shape})")
    if not ((eu >= 0) & (eu < ev) & (ev < n)).all():
        return "an edge is out of range or not canonical (need 0 <= u < v < n)"
    keys = eu * n + ev
    if not (keys[1:] > keys[:-1]).all():
        return "edges are not in strictly increasing key order"
    return None


def compile_csr(eu, ev, n: int):
    """Build CSR ``(indptr, indices)`` over both orientations of an edge set.

    ``eu``/``ev`` are canonical endpoint int64 arrays; neighbours come out in
    ascending order per vertex.  Shared by the phase engine's adjacency view
    and the repair context's recompilation, so the two can never drift.
    """
    if n == 0 or eu.size == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.lexsort((dst, src))
    counts = np.bincount(src[order], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst[order]


#: the adjacency row of every vertex without an edge; immutable, so a row
#: is always replaced by its own set on the vertex's first edge
_NO_NEIGHBOURS: AbstractSet[int] = frozenset()


class _Unloaded:
    """The row of a vertex whose neighbours still sit in the CSR base that
    :meth:`Graph.load_canonical` built.  Like the empty row it is told
    apart by type, so pickled and deep-copied graphs keep it."""

    __slots__ = ()


_UNLOADED = _Unloaded()


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

    The graph validates every edge (range checks, self-loop rejection) and
    every mutator reports whether (or how many) edges actually changed.

    A vertex's set is allocated on its first edge; until then its row is one
    shared empty ``frozenset``.  The derived graphs of Section 5 have far
    more vertices than edges, and allocating one set per vertex dominated
    their construction.  A set emptied by removals is kept, so every row
    grows and iterates exactly like a set allocated up front.

    :meth:`load_canonical` adds a third row state, *unloaded*: the row's
    neighbours sit in a CSR base until the first per-row access
    (``add_edge``, ``remove_edge``, ``has_edge``, ``neighbors``,
    ``neighbor_list``, ``degree``) turns it into its set.  The bulk readers
    (``edges``/``edge_list``, ``induced_subgraph``/``subgraph_edges``,
    ``max_degree``) first load every remaining row and drop the base.
    """

    __slots__ = ("_n", "_adj", "_m", "_base")

    def __init__(self, n: int, edges: Optional[Iterable[Edge]] = None,
                 backend: Optional[str] = None) -> None:
        if n < 0:
            raise ValueError(f"number of vertices must be non-negative, got {n}")
        if backend not in (None, "adjset"):
            raise ValueError(f"unknown graph backend {backend!r}; "
                             "the only one is 'adjset'")
        self._n = n
        self._adj: List[AbstractSet[int]] = [_NO_NEIGHBOURS] * n
        self._m = 0
        #: ``(indptr, indices)`` of the unloaded rows, or ``None``
        self._base: Optional[Tuple[array, array]] = None
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._n)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``.  Returns ``True`` if the edge is new."""
        n = self._n
        if not (0 <= u < n and 0 <= v < n) or u == v:
            self._check_edge(u, v)  # raises the matching error
        # rows are told apart by type, not identity: pickling or
        # deep-copying a graph rebuilds the shared empty row as a new
        # frozenset (and the unloaded marker as a new instance)
        adj = self._adj
        row = adj[u]
        if type(row) is set:
            if v in row:
                return False
            row.add(v)
        elif type(row) is frozenset:
            adj[u] = {v}  # the empty row holds no v
        else:
            row = self._load_row(u)
            if v in row:
                return False
            row.add(v)
        row = adj[v]
        if type(row) is set:
            row.add(u)
        elif type(row) is frozenset:
            adj[v] = {u}
        else:
            self._load_row(v).add(u)
        self._m += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete edge ``{u, v}``.  Returns ``True`` if the edge existed."""
        self._check_vertex(u)
        self._check_vertex(v)
        adj = self._adj
        row = adj[u]
        if type(row) is _Unloaded:
            row = self._load_row(u)
        if v not in row:
            return False
        row.discard(v)
        row = adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        row.discard(u)
        self._m -= 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges in one call; returns how many were new.  A bad
        edge raises after the edges before it went in."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def load_canonical(self, eu, ev) -> None:
        """Load canonical key-sorted edge arrays into this edgeless graph.

        ``eu``/``ev`` must pass :func:`canonical_edges_error`; other arrays,
        or a graph that has an edge, raise before any state changes.
        Every row is replaced: vertices without an edge get the empty row,
        the others an unloaded row over a CSR base (:func:`compile_csr`),
        which its first per-row access turns into
        ``set(ascending neighbours)``.  That is the set inserting the edges
        one by one in key order builds: in key order a vertex receives its
        neighbours in ascending order (the smaller ones, from the edges
        keyed by them, then the larger ones, from its own edges), and
        ``set(list)`` inserts in list order into a fresh table, exactly
        like ``{first}`` followed by ``.add()``.
        """
        eu = np.asarray(eu)
        ev = np.asarray(ev)
        if self._m:
            raise ValueError(f"load_canonical needs an edgeless graph, "
                             f"this one has {self._m} edges")
        problem = canonical_edges_error(eu, ev, self._n)
        if problem is not None:
            raise ValueError(f"load_canonical: {problem}")
        indptr, indices = compile_csr(eu.astype(np.int64, copy=False),
                                      ev.astype(np.int64, copy=False), self._n)
        self._adj = np.where(np.diff(indptr) > 0, _UNLOADED,
                             _NO_NEIGHBOURS).tolist()
        # array slices turn into sets about twice as fast as NumPy slices
        self._base = (array("q", indptr.tobytes()),
                      array("q", indices.tobytes()))
        self._m = int(eu.size)

    def _load_row(self, v: int) -> Set[int]:
        """Turn ``v``'s unloaded row into its set (see :meth:`load_canonical`)."""
        indptr, indices = self._base
        row = self._adj[v] = set(indices[indptr[v]:indptr[v + 1]])
        return row

    def _load_all(self) -> None:
        """Load every unloaded row, then drop the CSR base (bulk readers)."""
        if self._base is None:
            return
        for v, row in enumerate(self._adj):
            if type(row) is _Unloaded:
                self._load_row(v)
        self._base = None

    # every per-row accessor tests for an unloaded row inline: a shared
    # helper would add a method call to each read (20-40% on a row read)
    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        row = self._adj[u]
        if type(row) is _Unloaded:
            row = self._load_row(u)
        return v in row

    def neighbors(self, v: int) -> Set[int]:
        """The adjacency set of ``v`` (do not mutate)."""
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return row

    def neighbor_list(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` as a cheap-to-iterate sequence.

        Prefer this over :meth:`neighbors` in iteration-only hot loops.
        """
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return row

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return len(row)

    def max_degree(self) -> int:
        """Maximum degree over all vertices (0 for an empty graph)."""
        if self._n == 0:
            return 0
        self._load_all()
        return max(len(a) for a in self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as canonical ``(u, v)`` pairs with ``u < v``."""
        self._load_all()
        # compress steps over edgeless vertices at C speed
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED; sorting would slow the baseline's hot path and shift its trace-pinned historical order
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """Materialise :meth:`edges` into a list."""
        return list(self.edges())

    # ----------------------------------------------------------------- derived
    def _induced_edges(self, vertices) -> List[Edge]:
        """Edges ``(u, v)``, ``u < v``, of ``G[vertices]`` in the original
        labelling, walked in ``vertices``' own order.

        ``vertices`` is a set, or a dict keyed by vertex; membership is
        tested on it.  An id outside ``[0, n)`` raises ``ValueError``.
        """
        if vertices:
            # distinct ints have no ties, so min/max read no iteration order
            low, high = min(vertices), max(vertices)
            if low < 0 or high >= self._n:
                self._check_vertex(low)
                self._check_vertex(high)
        self._load_all()
        out: List[Edge] = []
        for u in vertices:
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                if u < v and v in vertices:
                    out.append((u, v))
        return out

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Return ``G[S]`` relabelled to ``0..|S|-1`` plus the new->old map.

        Parameters
        ----------
        vertices:
            The vertex subset ``S`` (duplicates are ignored).

        Returns
        -------
        (subgraph, back_map):
            ``back_map[new_id] = old_id``.
        """
        index = {old: new for new, old in enumerate(dict.fromkeys(vertices))}
        sub = Graph(len(index), ((index[u], index[v])
                                 for u, v in self._induced_edges(index)))
        return sub, dict(enumerate(index))

    def subgraph_edges(self, vertices: Iterable[int]) -> List[Edge]:
        """Edges of ``G[S]`` in the *original* labelling."""
        s = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        return self._induced_edges(s)

    def connected_components(self) -> List[List[int]]:
        """Connected components as lists of vertices (iterative DFS)."""
        n = self.n
        neighbor_list = self.neighbor_list
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
        adj = [set(self.neighbor_list(v)) for v in range(n)]
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

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    def _check_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
