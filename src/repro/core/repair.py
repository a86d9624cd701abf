"""Incremental epoch repair: persistent per-phase state for the dynamic stack.

The dynamic maintainers (Theorem 7.1 online / Theorem 7.15 offline) rebuild
their matching every ``Theta(eps * |M|)`` updates with the Section 6
weak-oracle framework.  PR 4's warm start already skips the coarse scales,
but every remaining :func:`~repro.core.phase.run_phase` call still paid a
fresh O(n) :class:`~repro.core.structures.PhaseState` allocation, an O(n)
free-vertex scan, an O(m) ``restricted_to`` sweep and a wholesale
recomputation of the frozen-graph views (sorted edge arrays, CSR adjacency,
per-vertex neighbour memo) -- all of it to revisit state that a handful of
edge updates barely perturbed.

:class:`RepairContext` makes that cost proportional to what actually changed:

* **dirty-vertex tracking** -- the per-vertex scalar state and array mirrors
  (``node_of``/``removed``/``vlabel`` and their NumPy twins) live on the
  context and are *lent* to each phase (:meth:`attach`).  The PhaseState
  mutation funnel journals every vertex it touches; :meth:`detach` (called
  by ``run_phase`` on the way out) resets exactly the journalled entries to
  the clean baseline, so a phase that touched ``k`` vertices costs ``O(k)``
  to undo instead of ``O(n)`` to reallocate.
* **a mirrored matching** -- :meth:`bind_matching` returns a
  :class:`MirroredMatching` whose mutations keep the context's
  ``mate``/``matched``/``vlabel`` baselines fresh in O(1) per change, which
  in turn makes :meth:`free_vertices` a single ``flatnonzero`` instead of an
  O(n) Python scan and lets the maintainers skip ``restricted_to`` and
  ``initial.copy()`` entirely (both are provably the identity here: a
  deleted matched edge leaves the matching at update time, so every matched
  edge is always a live graph edge).
* **incrementally patched frozen views** -- the maintainer reports every
  effective edge change via :meth:`note_update`; at the next phase the
  sorted canonical-key array and the compiled CSR adjacency are *patched*
  (``searchsorted`` + ``delete``/``insert``, O(m + k)) instead of recompiled
  (O(m log m)), and only the touched vertices' entries of the neighbour
  memo are evicted.  When the dirty set exceeds
  ``profile.repair_patch_cap`` the views fall back to a wholesale
  recompilation -- patching a near-total rewrite would be slower and is not
  what the incremental path is for.

Parity guarantee
----------------
``repair="incremental"`` executes the *identical* algorithm: the same rng
stream, the same counters, the same matchings, the same epoch boundaries as
``repair="rebuild"``.  All savings come from overheads that are neither
counter-charged nor rng-consuming (allocations, scans, view compilation).
The repair parity suite pins this byte-for-byte, exactly like the
``engine="array"``/``"reference"`` seam it mirrors; the context keeps its own
bookkeeping in :attr:`RepairContext.stats` rather than in
:class:`~repro.instrumentation.counters.Counters` for the same reason.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph, canonical_edges_error, compile_csr
from repro.matching.matching import Matching
from repro.core.config import ParameterProfile
from repro.utils.contracts import hot_path

Edge = Tuple[int, int]


class MirroredMatching(Matching):
    """A :class:`Matching` that mirrors every mutation into a RepairContext.

    The context's ``mate_arr``/``matched_arr``/``vlabel`` baselines must stay
    fresh between phases so that :meth:`RepairContext.attach` is a pure
    handoff; routing the three mutation primitives through the context makes
    that O(1) per matching change.  Mutations are only legal while no phase
    is attached (the matching is frozen for the duration of a phase --
    augmentations are recorded and applied afterwards).
    """

    # the context holds its matching by weakref (see RepairContext.matching)
    __slots__ = ("_ctx", "__weakref__")

    def __init__(self, ctx: "RepairContext") -> None:
        super().__init__(ctx.n)
        self._ctx = ctx

    @hot_path
    def add(self, u: int, v: int) -> None:
        super().add(u, v)
        self._ctx._on_match(u, v)

    @hot_path
    def add_disjoint_edges(self, edges: Iterable[Edge]) -> int:
        edges = list(edges)  # repro: allow[hot-path-alloc] -- bounded by one phase's augmenting set, and the iterable is consumed twice (base class + mirror)
        count = super().add_disjoint_edges(edges)
        for u, v in edges:
            self._ctx._on_match(u, v)
        return count

    @hot_path
    def remove(self, u: int, v: int) -> None:
        super().remove(u, v)
        self._ctx._on_unmatch(u, v)

    def load_mate_array(self, mate) -> None:
        mate = np.asarray(mate, dtype=np.int64)
        super().load_mate_array(mate)
        self._ctx._on_load(mate)


class RepairContext:
    """Persistent phase state + patchable frozen views for one dynamic graph.

    Construct one per maintainer (``profile.repair == "incremental"``), bind
    the maintained matching with :meth:`bind_matching`, report every
    effective edge change via :meth:`note_update`, and pass the context down
    ``framework.run(...) -> run_phase(...)``; everything else is automatic.
    """

    def __init__(self, graph: Graph, profile: ParameterProfile) -> None:
        self.graph = graph
        self.n = graph.n
        self.label_default = profile.label_default
        self.patch_cap = max(1, profile.repair_patch_cap)
        n = self.n

        # clean-baseline per-vertex state, lent to each phase via attach()
        self.node_of: List[Optional[object]] = [None] * n
        self.removed: List[bool] = [False] * n
        self.vlabel: List[int] = [0] * n
        self.mate_arr = np.full(n, -1, dtype=np.int64)
        self.matched_arr = np.zeros(n, dtype=bool)
        self.removed_arr = np.zeros(n, dtype=bool)
        self.vlabel_arr = np.zeros(n, dtype=np.int64)
        self.outer_arr = np.zeros(n, dtype=bool)
        self.sid_arr = np.full(n, -1, dtype=np.int64)
        self.nid_arr = np.full(n, -1, dtype=np.int64)

        # dirty-vertex journals appended by the PhaseState mutation funnel
        self._touched: List[int] = []
        self._label_touched: List[int] = []
        self._attached = False

        # patchable frozen-graph views (compiled lazily at first use)
        self._keys = None          # sorted canonical edge keys (u*n+v, u<v)
        self._eu = None
        self._ev = None
        self._indptr = None        # CSR over both arc orientations
        self._indices = None
        self._edge_pairs: Optional[List[Edge]] = None
        self._nbrs: Dict[int, List[int]] = {}
        # pending[key] = True (insert) / False (delete) relative to the
        # synced views; a change that toggles an edge back to its synced
        # state removes the entry, so len(_pending) is the true dirty count
        self._pending: Dict[int, bool] = {}

        self._matching_ref: Optional[weakref.ref] = None
        self.stats = {
            "attaches": 0,
            "incremental_patches": 0,
            "wholesale_compiles": 0,
            "patched_edges": 0,
        }

    # -------------------------------------------------------------- matching
    @property
    def matching(self) -> Optional[MirroredMatching]:
        """The bound mirrored matching, or ``None``.

        Held by weakref: the matching holds the context strongly (its
        mirror path), and a strong reference back would make every dropped
        maintainer a reference cycle -- its graph, views and matching alive
        until a full collection.  Every read of it is on a cold path.
        """
        ref = self._matching_ref
        return None if ref is None else ref()

    def bind_matching(self) -> MirroredMatching:
        """Create (once) and return the mirrored matching this context
        repairs.  The caller keeps it alive; once it is dropped, binding
        again starts a new, empty matching from reset baselines."""
        matching = self.matching
        if matching is None:
            if self._matching_ref is not None:
                self._on_load(np.full(self.n, -1, dtype=np.int64))
            matching = MirroredMatching(self)
            self._matching_ref = weakref.ref(matching)
        return matching

    @hot_path
    def _on_match(self, u: int, v: int) -> None:
        assert not self._attached, "the matching is frozen while a phase runs"
        default = self.label_default
        self.mate_arr[u] = v
        self.mate_arr[v] = u
        self.matched_arr[u] = True
        self.matched_arr[v] = True
        self.vlabel[u] = default
        self.vlabel[v] = default
        self.vlabel_arr[u] = default
        self.vlabel_arr[v] = default

    @hot_path
    def _on_unmatch(self, u: int, v: int) -> None:
        assert not self._attached, "the matching is frozen while a phase runs"
        self.mate_arr[u] = -1
        self.mate_arr[v] = -1
        self.matched_arr[u] = False
        self.matched_arr[v] = False
        self.vlabel[u] = 0
        self.vlabel[v] = 0
        self.vlabel_arr[u] = 0
        self.vlabel_arr[v] = 0

    def _on_load(self, mate) -> None:
        """Reset every mate/label baseline from a whole mate array at once."""
        assert not self._attached, "the matching is frozen while a phase runs"
        matched = mate >= 0
        labels = np.where(matched, self.label_default, 0)
        self.mate_arr[:] = mate
        self.matched_arr[:] = matched
        self.vlabel_arr[:] = labels
        self.vlabel[:] = labels.tolist()

    def free_vertices(self) -> List[int]:
        """Ascending free vertices (same order as ``Matching.free_vertices``)."""
        return np.flatnonzero(self.mate_arr < 0).tolist()

    # ------------------------------------------------------------ dirty edges
    @hot_path
    def note_update(self, u: int, v: int, inserted: bool) -> None:
        """Record one *effective* edge change (the graph actually mutated)."""
        if self._keys is None:
            return  # views not compiled yet; the next sync compiles fresh
        if u > v:
            u, v = v, u
        key = u * self.n + v
        pending = self._pending
        prev = pending.pop(key, None)
        if prev is None:
            pending[key] = inserted
            if len(pending) > self.patch_cap:
                self._drop_views()
        else:
            # effective changes on one edge strictly alternate, so a second
            # entry can only toggle the edge back to its synced state
            assert prev is not inserted

    def _drop_views(self) -> None:
        self._keys = None
        self._eu = None
        self._ev = None
        self._indptr = None
        self._indices = None
        self._edge_pairs = None
        self._nbrs.clear()
        self._pending.clear()

    def seed_views(self, eu, ev) -> None:
        """Start the views synced from the graph's canonical edge arrays.

        ``eu``/``ev`` must be what a wholesale compile reads: every live
        edge once, ``u < v``, in ascending ``u * n + v`` order (a
        checkpoint's edge section is exactly that).  A restored maintainer
        seeds its fresh context this way, so its first sync patches these
        views instead of sorting the whole edge list.  Raises
        ``ValueError`` on arrays of another shape or order.
        """
        eu = np.ascontiguousarray(eu, dtype=np.int64)
        ev = np.ascontiguousarray(ev, dtype=np.int64)
        problem = canonical_edges_error(eu, ev, self.n)
        if problem is None and eu.size != self.graph.m:
            problem = f"{eu.size} edges for a graph with {self.graph.m}"
        if problem is not None:
            raise ValueError(f"seed_views: {problem}")
        self._drop_views()
        self._eu, self._ev, self._keys = eu, ev, eu * self.n + ev

    # ------------------------------------------------------------ view syncing
    def _sync_views(self) -> None:
        if self._keys is None:
            self._compile_views()
        elif self._pending:
            self._patch_views()

    def _compile_views(self) -> None:
        pairs = sorted(self.graph.edge_list())
        eu = np.fromiter((u for u, _ in pairs), dtype=np.int64,
                         count=len(pairs))
        ev = np.fromiter((v for _, v in pairs), dtype=np.int64,
                         count=len(pairs))
        self._eu, self._ev = eu, ev
        self._keys = eu * self.n + ev
        self._indptr = None  # CSR recompiled lazily on first adjacency() use
        self._indices = None
        self._edge_pairs = None
        self._nbrs.clear()
        self._pending.clear()
        self.stats["wholesale_compiles"] += 1

    def _patch_views(self) -> None:
        pending = self._pending
        ins = sorted(k for k, p in pending.items() if p)
        dele = sorted(k for k, p in pending.items() if not p)
        keys = self._keys
        if dele:
            darr = np.asarray(dele, dtype=np.int64)
            pos = np.searchsorted(keys, darr)
            assert pos.size == 0 or (int(pos.max()) < keys.size
                                     and np.array_equal(keys[pos], darr)), \
                "pending delete of an edge absent from the synced views"
            keys = np.delete(keys, pos)
        if ins:
            iarr = np.asarray(ins, dtype=np.int64)
            pos = np.searchsorted(keys, iarr)
            # np.insert positions are relative to the pre-insert array and
            # equal positions insert in sequence order, so sorted keys stay
            # sorted
            keys = np.insert(keys, pos, iarr)
        self._keys = keys
        self._eu = keys // self.n
        self._ev = keys % self.n
        self._edge_pairs = None
        if self._indptr is not None:
            self._patch_csr(dele, ins)
        touched = set()
        for k in pending:
            touched.add(k // self.n)
            touched.add(k % self.n)
        for v in sorted(touched):
            self._nbrs.pop(v, None)
        self.stats["incremental_patches"] += 1
        self.stats["patched_edges"] += len(dele) + len(ins)
        pending.clear()

    def _patch_csr(self, dele: List[int], ins: List[int]) -> None:
        """Patch the compiled CSR arrays in two passes (deletes, then inserts).

        Positions are computed per arc with a binary search inside the
        endpoint's row; the batches are tiny (at most ``patch_cap`` edges),
        so the Python loop over arcs is dwarfed by the two array rewrites.
        """
        n = self.n
        indptr, indices = self._indptr, self._indices
        if dele:
            srcs: List[int] = []
            positions: List[int] = []
            for k in dele:
                u, v = divmod(k, n)
                for s, d in ((u, v), (v, u)):
                    lo, hi = int(indptr[s]), int(indptr[s + 1])
                    p = lo + int(np.searchsorted(indices[lo:hi], d))
                    assert p < hi and indices[p] == d, \
                        "CSR patch: deleted arc missing from the row"
                    srcs.append(s)
                    positions.append(p)
            indices = np.delete(indices, positions)
            indptr = indptr.copy()
            indptr[1:] -= np.cumsum(np.bincount(srcs, minlength=n))
        if ins:
            arcs: List[Edge] = []
            for k in ins:
                u, v = divmod(k, n)
                arcs.append((u, v))
                arcs.append((v, u))
            arcs.sort()  # keeps equal insert positions in ascending-dst order
            positions = []
            vals: List[int] = []
            for s, d in arcs:
                lo, hi = int(indptr[s]), int(indptr[s + 1])
                positions.append(lo + int(np.searchsorted(indices[lo:hi], d)))
                vals.append(d)
            indices = np.insert(indices, positions, vals)
            indptr = indptr.copy()
            indptr[1:] += np.cumsum(
                np.bincount([s for s, _ in arcs], minlength=n))
        self._indptr, self._indices = indptr, indices

    # ------------------------------------------------------------ frozen views
    # Same contracts as the PhaseState originals; PhaseState delegates here
    # when a context is attached.
    def edge_arrays(self):
        self._sync_views()
        return self._eu, self._ev

    def edge_pairs(self) -> List[Edge]:
        self._sync_views()
        if self._edge_pairs is None:
            self._edge_pairs = list(zip(self._eu.tolist(), self._ev.tolist()))
        return self._edge_pairs

    def adjacency(self):
        self._sync_views()
        if self._indptr is None:
            self._indptr, self._indices = compile_csr(self._eu, self._ev,
                                                      self.n)
        return self._indptr, self._indices

    def sorted_neighbors(self, v: int) -> List[int]:
        self._sync_views()
        nbrs = self._nbrs.get(v)
        if nbrs is None:
            indptr, indices = self.adjacency()
            nbrs = self._nbrs[v] = indices[indptr[v]:indptr[v + 1]].tolist()
        return nbrs

    # ------------------------------------------------------------ attach cycle
    def attach(self, state) -> None:
        """Lend the persistent per-vertex state to ``state`` (one phase)."""
        if self._attached:
            raise RuntimeError("RepairContext is already attached to a phase")
        if state.graph is not self.graph:
            raise ValueError("RepairContext is bound to a different graph")
        if self.matching is None or state.matching is not self.matching:
            raise ValueError(
                "incremental repair runs on the context's mirrored matching "
                "(bind_matching()) only")
        if state.label_default != self.label_default:
            raise ValueError("profile ell_max diverged from the RepairContext")
        state.node_of = self.node_of
        state.removed = self.removed
        state.vlabel = self.vlabel
        state.mate_arr = self.mate_arr
        state.matched_arr = self.matched_arr
        state.removed_arr = self.removed_arr
        state.vlabel_arr = self.vlabel_arr
        state.outer_arr = self.outer_arr
        state.sid_arr = self.sid_arr
        state.nid_arr = self.nid_arr
        self._attached = True
        self.stats["attaches"] += 1

    def detach(self) -> None:
        """Reset the journalled dirty vertices to the clean baseline."""
        assert self._attached, "detach without a matching attach"
        touched = self._touched
        if touched:
            node_of = self.node_of
            removed = self.removed
            for v in touched:
                node_of[v] = None
                removed[v] = False
            idx = np.asarray(touched, dtype=np.int64)
            self.removed_arr[idx] = False
            self.outer_arr[idx] = False
            self.sid_arr[idx] = -1
            self.nid_arr[idx] = -1
            self._touched = []
        label_touched = self._label_touched
        if label_touched:
            default = self.label_default
            matched_arr = self.matched_arr
            vlabel = self.vlabel
            vlabel_arr = self.vlabel_arr
            # the matching is frozen during a phase, so matched_arr still
            # holds the baseline the labels must return to
            for v in label_touched:
                base = default if matched_arr[v] else 0
                vlabel[v] = base
                vlabel_arr[v] = base
            self._label_touched = []
        self._attached = False

    # ------------------------------------------------------------- validation
    def verify_views(self) -> None:
        """Test helper: synced views must equal a from-scratch recompute."""
        self._sync_views()
        pairs = sorted(self.graph.edge_list())
        expect = np.fromiter((u * self.n + v for u, v in pairs),
                             dtype=np.int64, count=len(pairs))
        assert np.array_equal(self._keys, expect), "patched key array diverged"
        assert np.array_equal(self._eu, self._keys // self.n)
        assert np.array_equal(self._ev, self._keys % self.n)
        if self._indptr is not None:
            indptr, indices = compile_csr(self._eu, self._ev, self.n)
            assert np.array_equal(self._indptr, indptr), "patched indptr diverged"
            assert np.array_equal(self._indices, indices), "patched indices diverged"
        if self._nbrs:
            indptr, indices = self.adjacency()
            for v, nbrs in self._nbrs.items():
                assert nbrs == indices[indptr[v]:indptr[v + 1]].tolist(), \
                    f"stale neighbour memo for vertex {v}"

    def verify_baseline(self) -> None:
        """Test helper: the per-vertex state must be at the clean baseline."""
        assert not self._attached
        assert not self._touched and not self._label_touched
        n = self.n
        assert all(x is None for x in self.node_of)
        assert not any(self.removed)
        assert not self.removed_arr.any()
        assert not self.outer_arr.any()
        assert (self.sid_arr == -1).all() and (self.nid_arr == -1).all()
        matching = self.matching
        for v in range(n):
            mate = matching.mate(v) if matching is not None else None
            assert int(self.mate_arr[v]) == (-1 if mate is None else mate)
            assert bool(self.matched_arr[v]) == (mate is not None)
            base = self.label_default if mate is not None else 0
            assert self.vlabel[v] == base and int(self.vlabel_arr[v]) == base
