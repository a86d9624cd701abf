"""Tests for Alg-Phase: passes, drivers, backtracking (repro.core.phase)."""

import dataclasses
import random

from repro.graph.generators import (
    cycle_graph,
    disjoint_paths,
    erdos_renyi,
    path_graph,
)
from repro.graph.graph import Graph
from repro.matching.greedy import greedy_maximal_matching
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.operations import apply_augmentations, overtake_op
from repro.core.repair import RepairContext
from repro.core.phase import (
    DirectDriver,
    augment_pass,
    backtrack_pass,
    contract_pass,
    run_phase,
    try_extend_arc,
)
from repro.core.structures import PhaseState


def make_state(graph, matching, ell_max=8):
    state = PhaseState(graph, matching, ell_max)
    state.init_structures()
    return state


class TestTryExtendArc:
    def test_extends_once_per_structure_per_pass(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        assert try_extend_arc(state, 0, 1) == "overtake"
        # second extension of the same structure in the same pass is skipped
        assert try_extend_arc(state, 0, 3) is None

    def test_skips_on_hold_structures(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        state.structures[0].on_hold = True
        assert try_extend_arc(state, 0, 1) is None

    def test_augment_via_arc(self):
        g = path_graph(2)
        m = Matching(2)
        state = make_state(g, m)
        assert try_extend_arc(state, 0, 1) == "augment"
        assert len(state.records) == 1

    def test_contract_via_arc(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        state.structures[0].extended = False  # allow another extension
        assert try_extend_arc(state, 4, 0) == "contract"


class TestSharedPasses:
    def test_contract_pass_finds_blossoms(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        assert contract_pass(state) == 1
        assert len(state.structures[0].working.vertices) == 5
        # second invocation has nothing left to do
        assert contract_pass(state) == 0

    def test_augment_pass_exhausts_type2_arcs(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        assert augment_pass(state) == 1
        assert augment_pass(state) == 0

    def test_backtrack_retreats_unmodified_structures(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        s = state.structures[0]
        s.modified = False
        assert backtrack_pass(state) >= 1
        assert s.working is s.root
        s.modified = False
        backtrack_pass(state)
        assert s.working is None  # becomes inactive at the root

    def test_backtrack_skips_modified_and_on_hold(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        s = state.structures[0]
        s.modified = True
        assert backtrack_pass(state) <= 1  # only the structure of vertex 3 moves
        assert s.working is s.root


class TestRunPhase:
    def test_phase_does_not_mutate_matching(self):
        g = disjoint_paths(3, 3)
        m = greedy_maximal_matching(g, edge_order=[(1, 2), (5, 6), (9, 10)])
        before = m.copy()
        profile = ParameterProfile.practical(0.25)
        records = run_phase(g, m, profile, 0.5, DirectDriver(random.Random(0)),
                            check_invariants=True)
        assert m == before
        assert len(records) >= 1

    def test_phase_records_apply_cleanly(self):
        g = erdos_renyi(30, 0.15, seed=3)
        m = greedy_maximal_matching(g)
        profile = ParameterProfile.practical(0.25)
        counters = Counters()
        records = run_phase(g, m, profile, 0.5, DirectDriver(random.Random(1)),
                            counters=counters, check_invariants=True)
        gained = apply_augmentations(m, records)
        assert gained == len(records)
        m.validate(g)
        assert counters.get("pass_bundles") >= 1

    def test_phase_on_optimal_matching_finds_nothing(self):
        from repro.matching.blossom import maximum_matching

        g = erdos_renyi(20, 0.2, seed=4)
        m = maximum_matching(g)
        profile = ParameterProfile.practical(0.25)
        records = run_phase(g, m, profile, 0.5, DirectDriver(random.Random(2)),
                            check_invariants=True)
        assert records == []

        class RootRecorder(DirectDriver):
            """Records the structure roots the first pass sees."""

            roots = None

            def extend_active_path(self, state):
                if self.roots is None:
                    self.roots = sorted(state.structures)
                super().extend_active_path(state)

        # a perfect matching has no free vertex: the phase returns before
        # any pass and charges nothing; an odd path's maximum matching leaves
        # one vertex free, whose structure is still built
        for g, free in ((cycle_graph(20), []), (path_graph(9), [8])):
            for engine in ("array", "reference"):
                for incremental in (False, True):
                    profile = dataclasses.replace(
                        ParameterProfile.practical(0.25), engine=engine)
                    m = maximum_matching(g)
                    ctx = None
                    if incremental:
                        ctx = RepairContext(g, profile)
                        mirrored = ctx.bind_matching()
                        mirrored.load_mate_array(
                            [-1 if x is None else x for x in m.mate_list()])
                        m = mirrored
                    assert m.free_vertices() == free
                    counters = Counters()
                    driver = RootRecorder(random.Random(2))
                    records = run_phase(g, m, profile, 0.5, driver,
                                        counters=counters,
                                        check_invariants=True, context=ctx)
                    case = (g.n, engine, incremental)
                    assert records == [], case
                    if free:
                        assert driver.roots == free, case
                        assert counters.get("pass_bundles") >= 1, case
                    else:
                        assert driver.roots is None, case
                        assert counters.as_dict() == {}, case
                    if ctx is not None:
                        ctx.verify_baseline()

    def test_counters_progress(self):
        g = disjoint_paths(2, 5)
        m = greedy_maximal_matching(g, edge_order=[(1, 2), (3, 4), (7, 8), (9, 10)])
        profile = ParameterProfile.practical(0.25)
        counters = Counters()
        run_phase(g, m, profile, 0.5, DirectDriver(random.Random(3)),
                  counters=counters, check_invariants=True)
        assert counters.get("passes") >= 2  # extend + contract&augment per bundle
        assert counters.get("overtakes") >= 1
