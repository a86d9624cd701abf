"""Graph storage behind :class:`~repro.graph.graph.Graph`, plus the edge-array
helpers the array code shares.

Every layer of the reproduction -- the semi-streaming pass, the Section 5/6
boosting frameworks, the MPC/CONGEST substrates and the dynamic algorithms --
funnels through one graph container.  :class:`AdjacencySetBackend` is its
storage: one adjacency set per vertex, allocated on the vertex's first edge
(or, after :meth:`AdjacencySetBackend.load_canonical`, on its first touch).
Membership tests and single-edge mutations are O(1); iteration follows each
row's set order, a pure function of the update sequence.

The module-level helpers turn edge sets into NumPy arrays for the code that
works on whole graphs at once: :func:`edge_endpoint_arrays` (bulk edge
consumers), :func:`canonical_edges_error` (checkpoint loading, repair view
seeding, :meth:`AdjacencySetBackend.load_canonical`) and :func:`compile_csr`
(the phase engine's and the repair context's adjacency arrays, the base of
loaded rows).
"""

from __future__ import annotations

from array import array
from itertools import chain, compress
from typing import (AbstractSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

Edge = Tuple[int, int]


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
    loader, the repair context's view seeding and the storage's
    :meth:`~AdjacencySetBackend.load_canonical` check it.
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
    :meth:`AdjacencySetBackend.load_canonical` built.  Like the empty row
    it is told apart by type, so pickled and deep-copied graphs keep it."""

    __slots__ = ()


_UNLOADED = _Unloaded()


class AdjacencySetBackend:
    """Adjacency-set-per-vertex storage for an undirected simple graph.

    The storage owns the edge-level validation (range checks, self-loop
    rejection).  Every mutator reports whether (or how many) edges actually
    changed, mirroring :meth:`Graph.add_edge`'s boolean.

    A vertex's set is allocated on its first edge; until then its row is one
    shared empty ``frozenset``.  The derived graphs of Section 5 have far
    more vertices than edges, and allocating one set per vertex dominated
    their construction.  A set emptied by removals is kept, so every row
    grows and iterates exactly like a set allocated up front.

    :meth:`load_canonical` adds a third row state, *unloaded*: the row's
    neighbours sit in a CSR base until the first per-row access
    (``add_edge``, ``remove_edge``, ``has_edge``, ``neighbors``,
    ``neighbor_list``, ``degree``) turns it into its set.  The bulk readers
    (``edges``/``edge_list``, ``arcs``/``arc_list``, ``induced_edges``,
    ``max_degree``, ``copy``) first load every remaining row and drop the
    base.
    """

    __slots__ = ("_n", "_adj", "_m", "_base")

    def __init__(self, n: int) -> None:
        self._n = n
        self._adj: List[AbstractSet[int]] = [_NO_NEIGHBOURS] * n
        self._m = 0
        #: ``(indptr, indices)`` of the unloaded rows, or ``None``
        self._base: Optional[Tuple[array, array]] = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def add_edge(self, u: int, v: int) -> bool:
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

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        row = self._adj[u]
        if type(row) is _Unloaded:
            row = self._load_row(u)
        return v in row

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges; return how many were new.  A bad edge raises
        after the edges before it went in."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Delete many edges; return how many existed."""
        return sum(1 for u, v in edges if self.remove_edge(u, v))

    def load_canonical(self, eu, ev) -> None:
        """Load canonical key-sorted edge arrays into this edgeless backend.

        ``eu``/``ev`` must pass :func:`canonical_edges_error`; other arrays,
        or a backend that has an edge, raise before any state changes.
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
            raise ValueError(f"load_canonical needs an edgeless backend, "
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
    def neighbors(self, v: int) -> Set[int]:
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return row

    def neighbor_list(self, v: int) -> Sequence[int]:
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return row

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        row = self._adj[v]
        if type(row) is _Unloaded:
            row = self._load_row(v)
        return len(row)

    def max_degree(self) -> int:
        if self._n == 0:
            return 0
        self._load_all()
        return max(len(a) for a in self._adj)

    def edges(self) -> Iterator[Edge]:
        self._load_all()
        # compress steps over edgeless vertices at C speed
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED; sorting would slow the baseline's hot path and shift its trace-pinned historical order
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def arcs(self) -> Iterator[Edge]:
        self._load_all()
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                yield (u, v)

    def arc_list(self) -> List[Edge]:
        return list(self.arcs())

    def induced_edges(self, vertices) -> List[Edge]:
        self._load_all()
        index = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        out: List[Edge] = []
        for u in vertices:
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                if u < v and v in index:
                    out.append((u, v))
        return out

    def copy(self) -> "AdjacencySetBackend":
        self._load_all()
        clone = AdjacencySetBackend.__new__(AdjacencySetBackend)
        clone._n = self._n
        clone._adj = [set(a) if a else _NO_NEIGHBOURS for a in self._adj]
        clone._m = self._m
        clone._base = None
        return clone

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    def _check_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
