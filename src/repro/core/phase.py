"""``Alg-Phase``: pass-bundles, the two streaming passes, and backtracking.

This module implements Algorithm 2 of the paper, parameterised by a *driver*
object that supplies the two expensive procedures of each pass-bundle:

* ``extend_active_path(state)``  -- Algorithm 3 in the streaming algorithm, or
  its oracle-driven simulation (Algorithm 5 / Section 6.6);
* ``contract_and_augment(state)`` -- Section 4.7 in the streaming algorithm, or
  its simulation (Algorithm 4 / Section 6.5).

The schedule around the driver (per-bundle initialisation of the on-hold /
modified / extended marks, the backtracking of stuck structures, the recording
and end-of-phase application of augmentations) is shared by every mode, which
is exactly the point of the paper's framework: only the two procedures need a
model-specific implementation.
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.structures import AugmentationRecord, PhaseState, Structure
from repro.core.operations import augment_op, contract_op, overtake_op

Edge = Tuple[int, int]


class PhaseDriver(Protocol):
    """The two model-specific procedures of a pass-bundle."""

    def extend_active_path(self, state: PhaseState) -> None:  # pragma: no cover
        ...

    def contract_and_augment(self, state: PhaseState) -> None:  # pragma: no cover
        ...


# ---------------------------------------------------------------------------
# shared passes
# ---------------------------------------------------------------------------

def try_extend_arc(state: PhaseState, u: int, v: int) -> Optional[str]:
    """Apply Algorithm 3's per-arc logic to the arc ``(u, v)``.

    Returns the name of the operation performed (``"contract"``, ``"augment"``,
    ``"overtake"``) or ``None`` if the arc was skipped.  A structure that is on
    hold or already extended in this pass is never extended again (Section 4.6).
    """
    if state.removed[u] or state.removed[v]:
        return None
    nu = state.omega(u)
    nv = state.omega(v)
    if nu is None or nv is nu:
        return None
    structure = nu.structure
    if structure.working is not nu:
        return None
    if state.matching.contains_edge(u, v):
        return None
    if structure.on_hold or structure.extended:
        return None

    if nv is not None and nv.outer:
        if nv.structure is structure:
            contract_op(state, u, v)
            return "contract"
        augment_op(state, u, v)
        return "augment"

    # Omega(v) is inner or unvisited: candidate Overtake (case 3 of Section 4.6)
    if state.matching.is_free(v):
        return None
    if nv is not None and nv.structure is structure and nv.is_ancestor_of(nu):
        return None
    k = state.distance(nu) + 1
    mate = state.matching.mate(v)
    assert mate is not None
    if k < state.label_of_edge(v, mate):
        overtake_op(state, u, v, k)
        return "overtake"
    return None


def _find_type1_arc(state: PhaseState, structure: Structure) -> Optional[Edge]:
    """First type-1 arc out of the structure's working node, or ``None``.

    Candidate order is the working node's vertex order crossed with sorted
    neighbour order -- identical for both engines, so the vectorized mask
    scan below picks exactly the arc the scalar reference loop would.
    """
    w = structure.working
    assert w is not None
    # Bulk mask scan only pays off on non-trivial blossoms, over the arcs
    # memoised on the node; a trivial working node (the overwhelmingly
    # common case) walks its memoised sorted neighbour list scalar-wise.
    # All paths scan the identical candidate order, so the engines stay
    # byte-identical either way.
    if state.engine == "array" and not w.is_trivial:
        xs, ys = state.node_arcs(w)
        mask = (state.outer_arr[ys] & (state.sid_arr[ys] == structure.alpha)
                & (state.nid_arr[ys] != w.id) & (state.mate_arr[xs] != ys))
        hit = np.flatnonzero(mask)
        if hit.size == 0:
            return None
        k = int(hit[0])
        return int(xs[k]), int(ys[k])
    for x in w.vertices:
        for y in state.sorted_neighbors(x):
            if state.removed[y]:
                continue
            ny = state.node_of[y]
            if (ny is not None and ny is not w and ny.outer
                    and ny.structure is structure
                    and not state.matching.contains_edge(x, y)):
                return (x, y)
    return None


def contract_pass(state: PhaseState) -> int:
    """Step 1 of Contract-and-Augment: exhaust type-1 arcs (Section 4.7).

    For every structure, repeatedly contract blossoms containing the working
    vertex until no edge connects the working node to another outer node of
    the same structure.  Contraction is local to a structure, so one sweep over
    the structures suffices.  Returns the number of contractions performed.
    """
    total = 0
    for structure in state.live_structures():
        if not structure.root.children:
            # a lone root is the structure's only outer node, so no type-1
            # arc can leave it
            continue
        while structure.working is not None:
            found = _find_type1_arc(state, structure)
            if found is None:
                break
            contract_op(state, *found)
            total += 1
    return total


def _type2_candidates(state: PhaseState):
    """Index array (into the key-sorted edge arrays) of candidate type-2 arcs.

    The mask is computed against the state *before* any augmentation; that is
    sound because augmenting only removes structures, so it can invalidate a
    candidate (the per-candidate re-check catches that) but never create one.
    """
    eu, ev = state.edge_arrays()
    if eu.size == 0:
        return np.zeros(0, dtype=np.int64)
    # few vertices are outer: narrow to edges with an outer first endpoint,
    # then test the other conditions on those alone (same ascending indices)
    outer = state.outer_arr
    idx = np.flatnonzero(outer[eu])
    u, v = eu[idx], ev[idx]
    sid = state.sid_arr
    return idx[outer[v] & (sid[u] != sid[v]) & (state.mate_arr[u] != v)]


def augment_pass(state: PhaseState) -> int:
    """Step 2 of Contract-and-Augment, exact version: exhaust type-2 arcs.

    A single sweep suffices because augmenting only removes structures and can
    never create a new outer-outer arc between surviving structures.
    Returns the number of augmentations performed.
    """
    total = 0
    if state.engine == "array":
        eu, ev = state.edge_arrays()
        idx = _type2_candidates(state)
        candidates = zip(eu[idx].tolist(), ev[idx].tolist())
    else:
        candidates = iter(state.edge_pairs())
    for u, v in candidates:
        if state.removed[u] or state.removed[v]:
            continue
        nu, nv = state.node_of[u], state.node_of[v]
        if nu is None or nv is None or not (nu.outer and nv.outer):
            continue
        if nu.structure is nv.structure:
            continue
        if state.matching.contains_edge(u, v):
            continue
        augment_op(state, u, v)
        total += 1
    return total


def backtrack_pass(state: PhaseState) -> int:
    """``Backtrack-Stuck-Structures`` (Section 4.8).

    Every structure that is active, not on hold and not modified in this
    pass-bundle retreats its working vertex by one matched step (to the parent
    of its parent) or becomes inactive if the working vertex is the root.
    Returns the number of backtracks performed.
    """
    total = 0
    for structure in state.live_structures():
        if structure.on_hold or structure.modified:
            continue
        w = structure.working
        if w is None:
            continue
        parent = w.parent
        structure.working = None if parent is None else parent.parent
        total += 1
    if total:
        state.counters.add("backtracks", total)
    return total


# ---------------------------------------------------------------------------
# the streaming (exact) driver
# ---------------------------------------------------------------------------

class DirectDriver:
    """The semi-streaming driver: both procedures scan the edge stream directly.

    ``shuffle`` controls whether the stream order is re-randomised for every
    pass (the model allows an arbitrary order per pass; randomising avoids
    adversarial orderings on the synthetic workloads).
    """

    def __init__(self, rng: Optional[random.Random] = None, shuffle: bool = True) -> None:
        self.rng = rng if rng is not None else random.Random(0)
        self.shuffle = shuffle

    def _arc_stream(self, state: PhaseState) -> List[Edge]:
        # one bulk pull of both arc orientations from the frozen phase view
        # (vectorized zip on the CSR arrays) instead of per-edge iteration
        arcs = list(state.arc_pairs())
        if self.shuffle:
            self.rng.shuffle(arcs)
        return arcs

    def extend_active_path(self, state: PhaseState) -> None:
        state.counters.add("passes")
        for u, v in self._arc_stream(state):
            try_extend_arc(state, u, v)

    def contract_and_augment(self, state: PhaseState) -> None:
        state.counters.add("passes")
        contract_pass(state)
        augment_pass(state)


# ---------------------------------------------------------------------------
# running a phase
# ---------------------------------------------------------------------------

def run_phase(graph: Graph, matching: Matching, profile: ParameterProfile,
              h: float, driver: PhaseDriver,
              counters: Optional[Counters] = None,
              check_invariants: bool = False,
              context=None, shared_views=None) -> List[AugmentationRecord]:
    """Execute one phase (Algorithm 2) and return the recorded augmentations.

    The matching is *not* modified; apply the returned records with
    :func:`repro.core.operations.apply_augmentations` (Algorithm 1, line 6).

    ``context`` (a :class:`~repro.core.repair.RepairContext`) switches the
    phase to incremental repair: the per-vertex state and frozen views are
    borrowed from the context instead of built from scratch, and returned to
    the clean baseline on the way out (even on error).  The executed
    algorithm is byte-identical either way.

    ``shared_views`` (a :class:`~repro.core.structures.FrozenViews`) lets a
    framework running many phases over one fixed graph share the frozen
    derived views (CSR, sorted neighbours, packed rows) across them instead
    of rematerialising per phase; ignored under ``context``.
    """
    counters = counters if counters is not None else Counters()
    state = PhaseState(graph, matching, profile.ell_max, counters,
                       engine=profile.engine, context=context,
                       shared_views=shared_views)
    try:
        state.init_structures()
        if not state.structures:
            # no free vertices -> no structures -> no operation can ever
            # fire; skip the pass-bundle schedule outright (warm-started
            # rebuilds hit this constantly)
            return state.records
        limit = profile.structure_limit(h)
        tau_max = profile.pass_bundles(h)

        progress_keys = ("augmentations", "contractions", "overtakes")
        for _tau in range(tau_max):
            counters.add("pass_bundles")
            for structure in state.live_structures():
                structure.reset_marks(limit)
            # only the three progress counters gate early exit; reading them
            # directly avoids copying the whole counter dict every bundle
            before = [counters.get(key) for key in progress_keys]

            driver.extend_active_path(state)
            driver.contract_and_augment(state)
            backtrack_pass(state)

            if check_invariants:
                state.check_invariants()

            if not state.structures:
                break  # every structure augmented away; later bundles no-op

            if profile.early_exit:
                progress = sum(counters.get(key) - prev
                               for key, prev in zip(progress_keys, before))
                any_active = any(s.active for s in state.live_structures())
                if progress == 0 and not any_active:
                    break

        return state.records
    finally:
        if context is not None:
            context.detach()
        state.release()
