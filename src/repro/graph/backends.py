"""Pluggable storage backends for :class:`~repro.graph.graph.Graph`.

Every layer of the reproduction -- the semi-streaming pass, the Section 5/6
boosting frameworks, the MPC/CONGEST substrates and the dynamic algorithms --
funnels through one graph container, so its storage layout is the throughput
ceiling of the whole system.  This module splits the *storage* out of
:class:`Graph` behind a small :class:`GraphBackend` protocol with two
implementations:

* :class:`AdjacencySetBackend` (``"adjset"``, the default) -- the original
  adjacency-set-per-vertex layout.  O(1) membership tests, cheap single-edge
  mutation, no third-party dependencies; behaviour (including iteration
  orders) is identical to the pre-backend code.
* :class:`CSRBackend` (``"csr"``) -- a NumPy-backed layout: a hash index of
  canonical edge keys for O(1) membership plus a lazily compiled CSR
  (``indptr``/``indices``) view used for vectorized neighbour iteration,
  degree queries, bulk edge insertion/removal, edge-array export and the
  boolean adjacency-matrix export consumed by the OMv substrate.  It wins on
  bulk construction and whole-graph scans (edge lists, induced subgraphs,
  matrix export); see ARCHITECTURE.md for guidance.

Backends are selected by name (``Graph(n, backend="csr")``); algorithm code
stays representation-agnostic and talks to :class:`Graph`, which delegates.
The bulk primitives (:meth:`GraphBackend.add_edges`,
:meth:`GraphBackend.remove_edges`, :meth:`GraphBackend.induced_edges`,
:meth:`GraphBackend.edge_list`) are the hooks the hot paths use; they have
straightforward per-edge reference implementations on the adjacency-set
backend and vectorized ones on CSR.

"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, compress
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Type, Union)

import numpy as np

from repro.utils.contracts import invalidates

Edge = Tuple[int, int]


def edge_endpoint_arrays(edges: Iterable[Edge]):
    """Flatten an edge iterable into endpoint arrays ``(u, v)`` (int64).

    The shared fast path for bulk edge consumers (CSR key canonicalisation,
    the vectorized greedy, the OMv matrix load): ``np.fromiter`` over a
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

    Canonical means what :meth:`CSRBackend.edge_arrays` returns:
    equal-length 1-D int arrays, ``0 <= u < v < n`` for every edge, and
    strictly increasing keys ``u * n + v`` (so no edge twice).  The
    checkpoint loader and the repair context's view seeding check it.
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
    ascending order per vertex.  Shared by :class:`CSRBackend` and the phase
    engine's backend-independent adjacency view, so the two can never drift.
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


class GraphBackend(ABC):
    """Storage protocol for an undirected simple graph on ``0..n-1``.

    Backends own the representation *and* the edge-level validation (range
    checks, self-loop rejection) so that bulk operations can validate
    vectorized instead of per edge.  All mutators report how many edges
    actually changed, mirroring :meth:`Graph.add_edge`'s boolean.
    """

    #: registry name, e.g. ``"adjset"`` / ``"csr"``
    name: str = "backend"

    # ------------------------------------------------------------------ sizes
    @property
    @abstractmethod
    def n(self) -> int:
        """Number of vertices."""

    @property
    @abstractmethod
    def m(self) -> int:
        """Number of edges."""

    # ------------------------------------------------------------ single edge
    @abstractmethod
    def add_edge(self, u: int, v: int) -> bool:
        """Insert ``{u, v}``; return whether the edge is new."""

    @abstractmethod
    def remove_edge(self, u: int, v: int) -> bool:
        """Delete ``{u, v}``; return whether the edge existed."""

    @abstractmethod
    def has_edge(self, u: int, v: int) -> bool:
        """Membership test (``False`` for out-of-range endpoints)."""

    # ------------------------------------------------------------------ reads
    @abstractmethod
    def neighbors(self, v: int) -> Set[int]:
        """The adjacency set of ``v`` (treat as read-only)."""

    @abstractmethod
    def neighbor_list(self, v: int) -> Sequence[int]:
        """Neighbours of ``v`` as a cheap-to-iterate sequence (fast path)."""

    @abstractmethod
    def degree(self, v: int) -> int:
        """Degree of ``v``."""

    @abstractmethod
    def max_degree(self) -> int:
        """Maximum degree (0 for an empty graph)."""

    @abstractmethod
    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v)`` pairs with ``u < v``."""

    def edge_list(self) -> List[Edge]:
        """Materialised :meth:`edges` (vectorized on array backends)."""
        return list(self.edges())

    def arcs(self) -> Iterator[Edge]:
        """Both orientations of every edge."""
        for u, v in self.edges():
            yield (u, v)
            yield (v, u)

    def arc_list(self) -> List[Edge]:
        """Materialised :meth:`arcs`."""
        return list(self.arcs())

    # ------------------------------------------------------------------- bulk
    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert many edges in one call; return how many were new."""
        return sum(1 for u, v in edges if self.add_edge(u, v))

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Delete many edges in one call; return how many existed."""
        return sum(1 for u, v in edges if self.remove_edge(u, v))

    @abstractmethod
    def induced_edges(self, vertices) -> List[Edge]:
        """Edges of ``G[S]`` in the original labelling.

        ``S`` is a duplicate-free collection of valid vertex ids (a sequence
        or a set; implementations must not assume an order beyond iterating
        it once)."""

    def edge_mask(self, u, v):
        """Vectorized :meth:`has_edge` over endpoint arrays.

        ``u``/``v`` are equal-length int sequences; returns a boolean array
        with ``False`` (never an exception) for out-of-range endpoints and
        self-loops, mirroring :meth:`has_edge`.  The reference implementation
        loops; CSR answers whole batches with a few array passes -- this is
        the hook the CONGEST message-exchange fast path validates against.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays must have the same length")
        return np.fromiter(
            (self.has_edge(int(a), int(b)) for a, b in zip(u, v)),
            dtype=bool, count=u.size)

    # --------------------------------------------------------------- numerics
    def adjacency_matrix(self):
        """Dense boolean adjacency matrix."""
        mat = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges():
            mat[u, v] = True
            mat[v, u] = True
        return mat

    @abstractmethod
    def copy(self) -> "GraphBackend":
        """Independent deep copy."""

    # ------------------------------------------------------------- validation
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def _check_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")


#: the adjacency row of every vertex without an edge; immutable, so a row
#: is always replaced by its own set on the vertex's first edge
_NO_NEIGHBOURS: AbstractSet[int] = frozenset()


class AdjacencySetBackend(GraphBackend):
    """The original adjacency-set-per-vertex storage (default backend).

    Kept byte-for-byte behaviour compatible with the pre-backend ``Graph``:
    same validation messages, same edge iteration order (per-vertex set
    order), so seeded downstream algorithms are unaffected by the refactor.

    A vertex's set is allocated on its first edge; until then its row is one
    shared empty ``frozenset``.  The derived graphs of Section 5 have far
    more vertices than edges, and allocating one set per vertex dominated
    their construction.  A set emptied by removals is kept, so every row
    grows and iterates exactly like a set allocated up front.
    """

    name = "adjset"
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

    def arcs(self) -> Iterator[Edge]:
        for u in compress(range(self._n), self._adj):
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                yield (u, v)

    def induced_edges(self, vertices) -> List[Edge]:
        index = vertices if isinstance(vertices, (set, frozenset)) else set(vertices)
        out: List[Edge] = []
        for u in vertices:
            for v in self._adj[u]:  # repro: allow[set-iteration] -- int keys hash to themselves: order is a pure function of the update sequence, independent of PYTHONHASHSEED (see edges())
                if u < v and v in index:
                    out.append((u, v))
        return out

    def copy(self) -> "AdjacencySetBackend":
        clone = AdjacencySetBackend.__new__(AdjacencySetBackend)
        clone._n = self._n
        clone._adj = [set(a) if a else _NO_NEIGHBOURS for a in self._adj]
        clone._m = self._m
        return clone


class CSRBackend(GraphBackend):
    """CSR/NumPy storage: hash index of edge keys + lazily compiled CSR view.

    * Mutations update a plain Python set of canonical edge keys
      ``u * n + v`` (``u < v``), giving exact O(1) membership/dedup semantics.
    * Reads that benefit from contiguity (neighbour iteration, degrees, edge
      arrays, induced subgraphs, the adjacency matrix) compile the key set
      into sorted CSR arrays on demand; the compiled view is cached until the
      next mutation.

    Bulk mutation (:meth:`add_edges` / :meth:`remove_edges`) is vectorized:
    canonicalisation, validation and deduplication happen on int64 arrays, so
    constructing a 100k-edge graph costs a few numpy passes instead of 100k
    Python-level ``add_edge`` calls.
    """

    name = "csr"
    __slots__ = ("_n", "_keys", "_dirty", "_indptr", "_indices", "_sorted_keys",
                 "_nbr_cache")

    def __init__(self, n: int) -> None:
        self._n = n
        self._keys: Set[int] = set()
        self._dirty = True
        self._indptr = None
        self._indices = None
        self._sorted_keys = None
        self._nbr_cache: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------ sizes
    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------- keys
    def _key(self, u: int, v: int) -> int:
        return u * self._n + v if u < v else v * self._n + u

    def _compile_keys(self):
        """Sorted canonical-key array (cheap; no CSR build)."""
        if self._dirty or self._sorted_keys is None:
            keys = np.fromiter(self._keys, dtype=np.int64, count=len(self._keys))
            keys.sort()
            self._sorted_keys = keys
            self._indptr = None  # CSR view is stale; rebuilt on demand
            self._indices = None
            self._nbr_cache = None
            self._dirty = False
        return self._sorted_keys

    def _compile(self) -> None:
        """Rebuild the CSR arrays (both edge orientations) from the key set."""
        keys = self._compile_keys()
        if self._indptr is not None:
            return
        n = self._n
        if n == 0 or keys.size == 0:
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            self._indices = np.zeros(0, dtype=np.int64)
            return
        self._indptr, self._indices = compile_csr(keys // n, keys % n, n)

    def _edge_arrays(self):
        """Canonical ``(u, v)`` arrays with ``u < v``, sorted by key."""
        keys = self._compile_keys()
        if self._n == 0 or keys.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return keys // self._n, keys % self._n

    # ------------------------------------------------------------ single edge
    @invalidates("_dirty")
    def add_edge(self, u: int, v: int) -> bool:
        self._check_edge(u, v)
        key = self._key(u, v)
        if key in self._keys:
            return False
        self._keys.add(key)
        self._dirty = True
        return True

    @invalidates("_dirty")
    def remove_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        key = self._key(u, v)
        if key not in self._keys:
            return False
        self._keys.discard(key)
        self._dirty = True
        return True

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        return self._key(u, v) in self._keys

    # ------------------------------------------------------------------- bulk
    def _canonical_keys(self, edges: Iterable[Edge]):
        """Validate and canonicalise an edge iterable into an int64 key array."""
        u, v = edge_endpoint_arrays(edges)
        if u.size == 0:
            return np.zeros(0, dtype=np.int64)
        bad = (u < 0) | (u >= self._n) | (v < 0) | (v >= self._n)
        if bad.any():
            i = int(np.argmax(bad))
            w = int(u[i]) if not 0 <= u[i] < self._n else int(v[i])
            raise ValueError(f"vertex {w} out of range [0, {self._n})")
        loops = u == v
        if loops.any():
            i = int(np.argmax(loops))
            raise ValueError(
                f"self-loop ({int(u[i])}, {int(v[i])}) not allowed in a simple graph")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        return lo * self._n + hi

    @invalidates("_dirty")
    def add_edges(self, edges: Iterable[Edge]) -> int:
        keys = self._canonical_keys(edges)
        if keys.size == 0:
            return 0
        before = len(self._keys)
        self._keys.update(np.unique(keys).tolist())
        added = len(self._keys) - before
        if added:
            self._dirty = True
        return added

    @invalidates("_dirty")
    def remove_edges(self, edges: Iterable[Edge]) -> int:
        keys = self._canonical_keys(edges)
        if keys.size == 0:
            return 0
        before = len(self._keys)
        self._keys.difference_update(np.unique(keys).tolist())
        removed = before - len(self._keys)
        if removed:
            self._dirty = True
        return removed

    # ------------------------------------------------------------------ reads
    def neighbors(self, v: int) -> Set[int]:
        return set(self.neighbor_list(v))

    def neighbor_list(self, v: int) -> Sequence[int]:
        # Memoised per compiled view: the combinatorial layers ask for the
        # same vertex's neighbours many times between mutations, and paying a
        # fresh slice + ``tolist`` per call made CSR lose to adjset on
        # pointer-chasing workloads (the PR 4 smoke regression).
        self._check_vertex(v)
        cache = self._nbr_cache
        if cache is None or self._dirty:
            self._compile()
            cache = self._nbr_cache = {}
        nbrs = cache.get(v)
        if nbrs is None:
            nbrs = cache[v] = (
                self._indices[self._indptr[v]:self._indptr[v + 1]].tolist())
        return nbrs

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        self._compile()
        return int(self._indptr[v + 1] - self._indptr[v])

    def degree_array(self):
        """All degrees as an int64 array (CSR-only vectorized read)."""
        self._compile()
        return np.diff(self._indptr)

    def csr_arrays(self):
        """The compiled ``(indptr, indices)`` view (treat as read-only).

        This is the bulk hook the array-native phase engine uses: one call
        hands the whole adjacency structure over without per-vertex slicing.
        The arrays are replaced wholesale on recompilation, never mutated in
        place, so callers may hold them for the duration of a phase (the
        phase graph is frozen while a phase runs).
        """
        self._compile()
        return self._indptr, self._indices

    def edge_arrays(self):
        """Canonical ``(u, v)`` endpoint arrays with ``u < v``, key-sorted."""
        return self._edge_arrays()

    def max_degree(self) -> int:
        if self._n == 0 or not self._keys:
            return 0
        return int(self.degree_array().max())

    def edges(self) -> Iterator[Edge]:
        return iter(self.edge_list())

    def edge_list(self) -> List[Edge]:
        u, v = self._edge_arrays()
        return list(zip(u.tolist(), v.tolist()))

    def arcs(self) -> Iterator[Edge]:
        return iter(self.arc_list())

    def arc_list(self) -> List[Edge]:
        self._compile()
        src = np.repeat(np.arange(self._n, dtype=np.int64),
                        np.diff(self._indptr))
        return list(zip(src.tolist(), self._indices.tolist()))

    def induced_edges(self, vertices) -> List[Edge]:
        u, v = self._edge_arrays()
        if u.size == 0:
            return []
        mask = np.zeros(self._n, dtype=bool)
        mask[list(vertices)] = True
        sel = mask[u] & mask[v]
        return list(zip(u[sel].tolist(), v[sel].tolist()))

    def edge_mask(self, u, v):
        """Batch membership against the sorted key array (a few numpy passes).

        Canonicalises each pair to its ``u*n+v`` key and binary-searches the
        compiled sorted key array; invalid pairs (range / self-loop) are
        masked ``False`` before the search so their keys never alias a real
        edge's key.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("endpoint arrays must have the same length")
        if u.size == 0:
            return np.zeros(0, dtype=bool)
        keys = self._compile_keys()
        valid = ((u >= 0) & (u < self._n) & (v >= 0) & (v < self._n)
                 & (u != v))
        if keys.size == 0 or not valid.any():
            return valid & False
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        cand = np.where(valid, lo * self._n + hi, keys[0])
        pos = np.searchsorted(keys, cand)
        pos = np.minimum(pos, keys.size - 1)
        return valid & (keys[pos] == cand)

    # --------------------------------------------------------------- numerics
    def adjacency_matrix(self):
        mat = np.zeros((self._n, self._n), dtype=bool)
        u, v = self._edge_arrays()
        mat[u, v] = True
        mat[v, u] = True
        return mat

    def copy(self) -> "CSRBackend":
        clone = CSRBackend.__new__(CSRBackend)
        clone._n = self._n
        clone._keys = set(self._keys)
        clone._dirty = self._dirty
        # compiled arrays are only ever replaced wholesale, never mutated in
        # place, so the clone can share them until either side recompiles
        clone._indptr = self._indptr
        clone._indices = self._indices
        clone._sorted_keys = self._sorted_keys
        clone._nbr_cache = None  # per-instance; rebuilt on demand
        return clone


#: registry of selectable backends
BACKENDS: Dict[str, Type[GraphBackend]] = {
    AdjacencySetBackend.name: AdjacencySetBackend,
    CSRBackend.name: CSRBackend,
}

#: the default backend used when none is requested
DEFAULT_BACKEND = AdjacencySetBackend.name

BackendSpec = Union[None, str, GraphBackend]


def make_backend(spec: BackendSpec, n: int) -> GraphBackend:
    """Resolve a backend spec (name, instance or ``None``) for ``n`` vertices.

    A :class:`GraphBackend` instance is *copied*: two graphs constructed from
    the same instance must not silently alias mutable storage.
    """
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, GraphBackend):
        if spec.n != n:
            raise ValueError(
                f"backend instance is sized for n={spec.n}, graph wants n={n}")
        return spec.copy()
    try:
        cls = BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown graph backend {spec!r}; available: {sorted(BACKENDS)}") from None
    return cls(n)
