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


def stage_right_vertices(state: PhaseState, stage: int,
                         unvisited_only: bool = False) -> List[int]:
    """Right part of ``H'_s``: matched, not removed, inner-or-unvisited
    vertices with label > ``stage + 1``, ascending.

    With ``unvisited_only`` the in-structure (inner) vertices are excluded --
    the sampling driver of Section 6.6 covers those by per-structure sampling
    and only needs the unvisited remainder in bulk.  The array engine answers
    with one boolean-mask pass; the reference engine scans ``range(n)`` in
    the same ascending order.
    """
    if state.engine == "array":
        mask = (state.matched_arr & ~state.removed_arr
                & (state.vlabel_arr > stage + 1))
        if unvisited_only:
            mask &= state.sid_arr == -1
        else:
            mask &= ~state.outer_arr
        return np.flatnonzero(mask).tolist()
    out: List[int] = []
    for v in range(state.graph.n):
        if state.removed[v] or state.matching.is_free(v):
            continue
        node = state.node_of[v]
        if unvisited_only:
            if node is not None:
                continue
        elif node is not None and node.outer:
            continue
        if state.label_of_vertex(v) > stage + 1:
            out.append(v)
    return out


class EligibilityIndex:
    """Which structure can extend at which stage, for one Extend-Active-Path
    call (Sections 5.5 and 6.6), plus the per-structure sample tables of the
    Section 6.6 sampler.

    Built in O(S) at the start of the call: ``stage_of[i]`` is
    :meth:`PhaseState.eligible_stage` of ``order[i]`` and ``counts[s]`` the
    number of structures eligible at stage ``s``, so skipping a stage no
    structure can extend at is a count lookup.  The call neither creates nor
    removes structures, and only its own overtakes change eligibility: an
    overtake touches the overtaking structure and, across structures, the
    victim -- whose working vertex may move to an earlier node, making it
    eligible at a new stage.  :meth:`overtake` therefore re-derives just
    those two entries.

    A structure's *sample table* is its sorted vertex list with one code per
    vertex: the label for an inner vertex (a draw joins the right side iff
    the label exceeds ``stage + 1``), ``-(s + 2)`` for a vertex of the
    working node when the structure is eligible at stage ``s`` (a draw joins
    the left side at stage ``s``), and ``-1`` for every other vertex.  A
    table reads only its own structure's nodes and labels, so an overtake
    invalidates the tables of the (at most two) structures it touched; the
    unvisited right-side vertices, taken in bulk, change only when an
    overtake pulls an unvisited vertex into a structure.
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
        self._tables: Optional[List[tuple]] = None
        self._dirty: Dict[int, None] = {}
        self._unvisited: Optional[List[int]] = None
        self._unvisited_stage: Optional[int] = None

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
        if sb is None:
            # y and its mate joined sa.  Both were in this stage's unvisited
            # bulk: their label exceeded stage + 1 (precondition P3).
            if self._unvisited_stage == stage:
                self._unvisited.remove(y)
                self._unvisited.remove(state.matching.mate(y))
            else:
                self._unvisited_stage = None
        elif sb is not sa:
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
        self._dirty[i] = None

    def _table(self, structure: Structure, stage: Optional[int]) -> tuple:
        working_code = -1 if stage is None else -stage - 2
        verts = structure.sorted_vertices()
        node_of = self.state.node_of
        vlabel = self.state.vlabel
        working = structure.working
        codes = [vlabel[v] if not (node := node_of[v]).outer
                 else working_code if node is working else -1
                 for v in verts]
        n = len(verts)
        return verts, n, n.bit_length(), codes

    def sample_tables(self) -> List[tuple]:
        """``(sorted vertices, their count, its bit length, codes)`` per
        structure, in structure order; rebuilt only where an overtake
        invalidated them."""
        tables = self._tables
        table = self._table
        if tables is None:
            # most structures are a lone root vertex: its one vertex is the
            # working node whenever the structure is eligible
            tables = self._tables = [
                (s.root.vertices, 1, 1, [-1 if stage is None else -stage - 2])
                if len(s.g_vertices) == 1 else table(s, stage)
                for s, stage in zip(self.order, self.stage_of)]
            self._dirty.clear()
        elif self._dirty:
            for i in self._dirty:
                tables[i] = table(self.order[i], self.stage_of[i])
            self._dirty.clear()
        return tables

    def unvisited_right(self, stage: int) -> List[int]:
        """The unvisited part of the right side at ``stage`` (see
        :func:`stage_right_vertices`), cached until an overtake visits one
        of its vertices."""
        if self._unvisited_stage != stage:
            self._unvisited = stage_right_vertices(self.state, stage,
                                                   unvisited_only=True)
            self._unvisited_stage = stage
        return self._unvisited

    def verify(self, stages: Sequence[int]) -> None:
        """Test helper: the index must equal a fresh scan of the state."""
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
        if self._tables is not None:
            for i, table in enumerate(self._tables):
                if i not in self._dirty:
                    assert table == self._table(self.order[i],
                                                self.stage_of[i]), \
                        f"stale sample table for structure {self.order[i].alpha}"
        if self._unvisited_stage is not None:
            assert self._unvisited == stage_right_vertices(
                state, self._unvisited_stage, unvisited_only=True), \
                "stale unvisited right side"
