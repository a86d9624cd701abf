"""Stage eligibility for the Extend-Active-Path simulations.

Both oracle drivers simulate Extend-Active-Path stage by stage: Algorithm 5
(Section 5.5) hands ``Amatching`` the derived graph ``H'_s`` of every stage
``s``, and the Section 6.6 sampler queries ``Aweak`` on sampled vertex sets
of every stage.  At a stage, only the working vertices of structures whose
distance equals ``s`` can extend, and only towards the right side returned by
:func:`stage_right_vertices`.  Most structures are eligible at no stage or at
one stage only, so both drivers keep one :class:`EligibilityIndex` per call
and skip a stage nobody can extend at by a count lookup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.operations import overtake_op
from repro.core.structures import PhaseState, Structure


def stage_right_mask(state: PhaseState, stage: int) -> np.ndarray:
    """``bool[n]`` membership mask of :func:`stage_right_vertices`, read
    from the array mirrors."""
    return (state.matched_arr & ~state.removed_arr & ~state.outer_arr
            & (state.vlabel_arr > stage + 1))


def stage_right_vertices(state: PhaseState, stage: int) -> List[int]:
    """Right part of ``H'_s``: matched, not removed, inner-or-unvisited
    vertices with label > ``stage + 1``, ascending.

    The array engine answers with one boolean-mask pass
    (:func:`stage_right_mask`); the reference engine scans ``range(n)`` in
    the same ascending order.  Its unvisited part is
    :meth:`PhaseState.unvisited_right`.
    """
    if state.engine == "array":
        return np.flatnonzero(stage_right_mask(state, stage)).tolist()
    out: List[int] = []
    for v in range(state.graph.n):
        if state.removed[v] or state.matching.is_free(v):
            continue
        node = state.node_of[v]
        if node is not None and node.outer:
            continue
        if state.label_of_vertex(v) > stage + 1:
            out.append(v)
    return out


class EligibilityIndex:
    """Which structure can extend at which stage, for one Extend-Active-Path
    call (Sections 5.5 and 6.6).

    Built in O(S) at the start of the call: ``stage_of[i]`` is
    :meth:`PhaseState.eligible_stage` of ``order[i]`` and ``counts[s]`` the
    number of structures eligible at stage ``s``, so skipping a stage no
    structure can extend at is a count lookup.  The call neither creates nor
    removes structures, and only its own overtakes change eligibility: an
    overtake touches the overtaking structure and, across structures, the
    victim -- whose working vertex may move to an earlier node, making it
    eligible at a new stage.  :meth:`overtake` therefore re-derives just
    those two entries.  The Section 6.6 sampler classifies each draw
    against these stages and the live phase state.
    """

    def __init__(self, state: PhaseState) -> None:
        self.state = state
        self.order: List[Structure] = list(state.structures.values())
        self._position: Optional[Dict[Structure, int]] = None
        eligible_stage = state.eligible_stage
        self.stage_of: List[Optional[int]] = [eligible_stage(s)
                                              for s in self.order]
        counts: Dict[int, int] = {}
        for stage in self.stage_of:
            if stage is not None:
                counts[stage] = counts.get(stage, 0) + 1
        self.counts = counts

    def eligible(self, stage: int) -> List[Structure]:
        """Structures eligible at ``stage``, in structure order."""
        return [s for s, at in zip(self.order, self.stage_of) if at == stage]

    def overtake(self, x: int, y: int, stage: int) -> None:
        """``overtake_op(state, x, y, stage + 1)``, then patch what it
        touched."""
        state = self.state
        sa = state.node_of[x].structure
        nv = state.node_of[y]
        sb = None if nv is None else nv.structure
        overtake_op(state, x, y, stage + 1)
        self._refresh(sa)
        if sb is not None and sb is not sa:
            self._refresh(sb)

    def _refresh(self, structure: Structure) -> None:
        position = self._position
        if position is None:
            position = self._position = {s: i for i, s in enumerate(self.order)}
        i = position[structure]
        old = self.stage_of[i]
        new = self.state.eligible_stage(structure)
        if new != old:
            counts = self.counts
            if old is not None:
                counts[old] -= 1
            if new is not None:
                counts[new] = counts.get(new, 0) + 1
            self.stage_of[i] = new

    def verify(self, stages: Sequence[int]) -> None:
        """Test helper: the index, and the phase's unvisited right side once
        built, must equal a fresh scan of the state."""
        state = self.state
        assert self.order == list(state.structures.values()), \
            "the structure set changed inside Extend-Active-Path"
        for i, structure in enumerate(self.order):
            stage = self.stage_of[i]
            assert stage == state.eligible_stage(structure), \
                f"stale eligible stage for structure {structure.alpha}"
        for stage in stages:
            fresh = [s for s in self.order if state.eligible_working(s, stage)]
            assert self.counts.get(stage, 0) == len(fresh), \
                f"stale eligibility count at stage {stage}"
            assert fresh == self.eligible(stage)
        if state.unvisited is not None:
            node_of = state.node_of
            for stage in stages:
                fresh = [v for v in stage_right_vertices(state, stage)
                         if node_of[v] is None]
                assert state.unvisited_right(stage) == fresh, \
                    f"stale unvisited right side at stage {stage}"
