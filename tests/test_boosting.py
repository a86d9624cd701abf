"""Tests for the static boosting framework (Section 5 / Theorem 1.1)."""

import dataclasses

import pytest

from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi
from repro.graph.graph import Graph, edge_list_of
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.core import boosting
from repro.core.boosting import (
    BoostingFramework,
    boost_matching,
    build_stage_graph,
    build_structure_graph,
)
from repro.core.config import ParameterProfile
from repro.core.eligibility import EligibilityIndex, stage_right_vertices
from repro.core.oracles import GreedyMatchingOracle, RandomGreedyMatchingOracle
from repro.core.operations import overtake_op
from repro.core.structures import PhaseState
from repro.mpc.boost_mpc import mpc_boosted_matching

from conftest import table1_graph


def eligible_working_nodes(state, stage):
    """The left part of ``H'_s``: eligible working nodes, structure order."""
    return [structure.working for structure in state.structures.values()
            if state.eligible_stage(structure) == stage]


def rows(graph):
    """Every row of ``graph`` in its iteration order."""
    return [list(graph.neighbor_list(v)) for v in range(graph.n)]


def reference_stage_graph(state, stage):
    """Reference ``H'_s`` builder, scalar and index-free.

    It scans every structure for the left part, indexes the whole right
    side in a dict and a set, and classifies each candidate arc with the
    full :meth:`PhaseState.arc_type`.
    """
    left_nodes = eligible_working_nodes(state, stage)
    if not left_nodes:
        return Graph(0), {}, 0
    right_vertices = stage_right_vertices(state, stage)
    left_index = {id(node): i for i, node in enumerate(left_nodes)}
    right_index = {v: len(left_nodes) + i for i, v in enumerate(right_vertices)}
    hs = Graph(len(left_nodes) + len(right_vertices))
    witness = {}
    right_set = set(right_vertices)
    for node in left_nodes:
        i = left_index[id(node)]
        for x in node.vertices:
            candidates = [y for y in state.sorted_neighbors(x)
                          if y in right_set]
            for y in candidates:
                if state.arc_type(x, y) != 3:
                    continue
                j = right_index[y]
                if hs.add_edge(i, j):
                    witness[(i, j)] = (x, y)
    return hs, witness, len(left_nodes)


class TestInitialMatching:
    def test_lemma53_constant_approximation(self):
        counters = Counters()
        framework = BoostingFramework(0.25, counters=counters, seed=0)
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            m = framework.initial_matching(g)
            m.validate(g)
            assert 4 * m.size >= maximum_matching_size(g)

    def test_lemma53_call_budget(self):
        counters = Counters()
        framework = BoostingFramework(0.25, counters=counters, seed=0)
        g = erdos_renyi(40, 0.1, seed=9)
        framework.initial_matching(g)
        # at most 2c + 1 calls with the greedy (c = 2) oracle
        assert counters.get("oracle_calls") <= 2 * 2 + 1

    def test_empty_graph(self):
        framework = BoostingFramework(0.25, seed=0)
        assert framework.initial_matching(Graph(4)).size == 0


class TestDerivedGraphs:
    def _grown_state(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        state = PhaseState(g, m, ell_max=8)
        state.init_structures()
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 5, 4, 1)
        return state

    def test_structure_graph_h_prime(self):
        state = self._grown_state()
        n, witness = build_structure_graph(state)
        assert n == 2                  # two structures
        # connected by the type-2 arc (2, 3)
        ((key, (u, v)),) = witness.items()
        assert key == (0, 1) and state.arc_type(u, v) == 2

    def test_stage_graph_h_s(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching(4, [(1, 2)])
        state = PhaseState(g, m, ell_max=8)
        state.init_structures()
        n, witness, num_left = build_stage_graph(
            state, 0, eligible_working_nodes(state, 0))
        # left: the two singleton structures 0 and 3; right: vertices 1 and 2
        assert (n, num_left) == (4, 2)
        # (0,1) and (3,2) are both 0-feasible
        assert list(witness) == [(0, 2), (1, 3)]
        for key, (x, y) in witness.items():
            assert state.arc_type(x, y) == 3
        ref, ref_witness, ref_left = reference_stage_graph(state, 0)
        assert rows(Graph(n, witness)) == rows(ref)

    def test_stage_graph_excludes_wrong_stage(self):
        state = self._grown_state()
        n, witness, num_left = build_stage_graph(
            state, 5, eligible_working_nodes(state, 5))
        assert witness == {}

    def test_stage_graph_skips_the_working_nodes_ancestors(self):
        """P2: an inner ancestor on the right side gets no edge."""
        # structure 0 - 1 = 2 - 3 = 4 with working vertex 4 at distance 2;
        # 4 is adjacent to its inner ancestor 1 and to the unvisited
        # matched vertex 5
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5),
                      (5, 6)])
        m = Matching(7, [(1, 2), (3, 4), (5, 6)])
        state = PhaseState(g, m, ell_max=8)
        state.init_structures()
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        structure = state.structures[0]
        structure.reset_marks(limit=100)  # a new pass-bundle
        assert structure.working.vertices == [4]
        # relabel the ancestor's matched edge beyond the stage by hand, so
        # that only P2 keeps vertex 1 out of H'_s
        state.set_label(1, 2, 5)
        left = eligible_working_nodes(state, 2)
        assert left == [structure.working]
        assert 1 in stage_right_vertices(state, 2)
        n, witness, num_left = build_stage_graph(state, 2, left)
        ref, ref_witness, ref_left = reference_stage_graph(state, 2)
        assert (n, rows(Graph(n, witness)), witness, num_left) == (
            ref.n, rows(ref), ref_witness, ref_left)
        assert [y for _, y in witness.values()] == [5]


class TestStageGraphReference:
    """The stage-indexed driver against :func:`reference_stage_graph`.

    At every ``H'_s`` build of seeded Section 5 runs, the new builder (fed
    by the eligibility index) must return the reference's vertex count,
    edge insertion order, witness map and left size: the graph its edge
    list stands for, ``Graph(n, edges)``, has the reference graph's rows in
    the same order, and the order the MPC and greedy oracles scan is the
    reference's ``edge_list()``.  After every overtake the index must equal
    a fresh :meth:`PhaseState.eligible_stage` scan.
    """

    @pytest.fixture
    def checked(self, monkeypatch):
        tally = {"builds": 0, "blossom_builds": 0, "edges": 0,
                 "overtakes": 0}
        build = boosting.build_stage_graph
        overtake = EligibilityIndex.overtake
        stages = ParameterProfile.practical(0.25).stages()

        def checked_build(state, stage, left_nodes):
            n, witness, num_left = build(state, stage, left_nodes)
            ref, ref_witness, ref_left = reference_stage_graph(state, stage)
            assert n == ref.n
            assert rows(Graph(n, witness)) == rows(ref)
            assert edge_list_of(n, list(witness)) == ref.edge_list()
            assert list(witness.items()) == list(ref_witness.items())
            assert num_left == ref_left
            tally["builds"] += 1
            if not all(node.is_trivial for node in left_nodes):
                tally["blossom_builds"] += 1
            tally["edges"] += len(witness)
            return n, witness, num_left

        def checked_overtake(self, x, y, stage):
            overtake(self, x, y, stage)
            self.verify(stages)
            tally["overtakes"] += 1

        monkeypatch.setattr(boosting, "build_stage_graph", checked_build)
        monkeypatch.setattr(EligibilityIndex, "overtake", checked_overtake)
        return tally

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_seeded_runs(self, checked, engine):
        profile = dataclasses.replace(ParameterProfile.practical(0.25),
                                      engine=engine)
        for seed in range(3):
            graph = table1_graph(40, 2, seed)
            boost_matching(graph, 0.25, profile=profile, seed=seed,
                           check_invariants=True).validate(graph)
            matching, _ = mpc_boosted_matching(graph, 0.25, profile=profile,
                                               seed=seed)
            matching.validate(graph)
        # the golden graph: about half of its builds have a blossom in the
        # left part, which the array engine scans with one mask
        graph = table1_graph(96, 4, seed=0)
        mpc_boosted_matching(graph, 0.25, profile=profile,
                             seed=0)[0].validate(graph)
        boost_matching(graph, 0.25, profile=profile, seed=0,
                       check_invariants=True).validate(graph)
        assert checked["builds"] > 0 and checked["edges"] > 0
        assert checked["blossom_builds"] > 0
        assert checked["overtakes"] > 0


class TestEndToEnd:
    def test_quality_with_greedy_oracle(self, medium_graphs):
        eps = 0.25
        for name, g in medium_graphs:
            counters = Counters()
            m = boost_matching(g, eps, seed=1, counters=counters)
            m.validate(g)
            ok, ratio = certify_approximation(g, m, eps)
            assert ok, f"{name}: ratio {ratio}"
            assert counters.get("oracle_calls") > 0

    def test_quality_with_random_greedy_oracle(self):
        g = blossom_gadget(6, 4)
        m = boost_matching(g, 1 / 8, oracle=RandomGreedyMatchingOracle(seed=5), seed=2)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_oracle_calls_grow_with_precision(self):
        g = disjoint_paths(6, 9)
        calls = []
        for eps in (0.5, 0.25, 0.125):
            counters = Counters()
            boost_matching(g, eps, seed=3, counters=counters)
            calls.append(counters.get("oracle_calls"))
        assert calls[0] <= calls[-1]

    def test_warm_start_from_given_matching(self):
        g = erdos_renyi(40, 0.1, seed=4)
        framework = BoostingFramework(0.25, seed=0)
        initial = framework.initial_matching(g)
        m = framework.run(g, initial=initial)
        assert m.size >= initial.size
        m.validate(g)

    def test_invariants_hold_throughout(self):
        g = erdos_renyi(30, 0.15, seed=5)
        m = boost_matching(g, 0.25, seed=6, check_invariants=True)
        m.validate(g)

    def test_counters_record_schedule(self):
        g = erdos_renyi(30, 0.1, seed=6)
        counters = Counters()
        boost_matching(g, 0.25, seed=7, counters=counters)
        assert counters.get("phases") >= 1
        assert counters.get("stages") >= 1
        assert counters.get("oracle_vertices_seen") >= 0
