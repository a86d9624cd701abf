"""Graph storage behind :class:`~repro.graph.graph.Graph`, plus the edge-array
helpers the array code shares.

Every layer of the reproduction -- the semi-streaming pass, the Section 5/6
boosting frameworks, the MPC/CONGEST substrates and the dynamic algorithms --
funnels through one graph container.  :class:`AdjacencySetBackend` is its
storage: one adjacency set per vertex, allocated on the vertex's first edge.
Membership tests and single-edge mutations are O(1); iteration follows each
row's set order, a pure function of the update sequence.

The module-level helpers turn edge sets into NumPy arrays for the code that
works on whole graphs at once: :func:`edge_endpoint_arrays` (bulk edge
consumers), :func:`canonical_edges_error` (checkpoint loading, repair view
seeding) and :func:`compile_csr` (the phase engine's and the repair
context's adjacency arrays).
"""

from __future__ import annotations

from itertools import chain, compress
from typing import (AbstractSet, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

import numpy as np

Edge = Tuple[int, int]


def edge_endpoint_arrays(edges: Iterable[Edge]):
    """Flatten an edge iterable into endpoint arrays ``(u, v)`` (int64).

    The shared fast path for bulk edge consumers (the vectorized greedy, the
    OMv matrix load, checkpoints): ``np.fromiter`` over a
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
    loader and the repair context's view seeding check it.
    """
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
    """

    __slots__ = ("_n", "_adj", "_m")

    def __init__(self, n: int) -> None:
        self._n = n
        self._adj: List[AbstractSet[int]] = [_NO_NEIGHBOURS] * n
        self._m = 0

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
        adj = self._adj
        row = adj[u]
        if v in row:
            return False
        # the empty row is told apart by type, not identity: pickling or
        # deep-copying a graph rebuilds it as a new frozenset
        if type(row) is frozenset:
            adj[u] = {v}
        else:
            row.add(v)
        row = adj[v]
        if type(row) is frozenset:
            adj[v] = {u}
        else:
            row.add(u)
        self._m += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        return True

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges; return how many were new.  A bad edge raises
        after the edges before it went in."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Delete many edges; return how many existed."""
        return sum(1 for u, v in edges if self.remove_edge(u, v))

    def neighbors(self, v: int) -> Set[int]:
        self._check_vertex(v)
        return self._adj[v]

    def neighbor_list(self, v: int) -> Sequence[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        if self._n == 0:
            return 0
        return max(len(a) for a in self._adj)

    def edges(self) -> Iterator[Edge]:
        # compress steps over edgeless vertices at C speed
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED; sorting would slow the baseline's hot path and shift its trace-pinned historical order
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def arcs(self) -> Iterator[Edge]:
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                yield (u, v)

    def arc_list(self) -> List[Edge]:
        return list(self.arcs())

    def induced_edges(self, vertices) -> List[Edge]:
        index = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        out: List[Edge] = []
        for u in vertices:
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                if u < v and v in index:
                    out.append((u, v))
        return out

    def adjacency_matrix(self):
        """Dense boolean adjacency matrix."""
        mat = np.zeros((self._n, self._n), dtype=bool)
        for u, v in self.edges():
            mat[u, v] = True
            mat[v, u] = True
        return mat

    def copy(self) -> "AdjacencySetBackend":
        clone = AdjacencySetBackend.__new__(AdjacencySetBackend)
        clone._n = self._n
        clone._adj = [set(a) if a else _NO_NEIGHBOURS for a in self._adj]
        clone._m = self._m
        return clone

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    def _check_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
