"""The Section 6.6 sampling driver's eligibility index and sample tables.

:class:`~repro.core.eligibility.EligibilityIndex` is built once per
Extend-Active-Path call and patched after every overtake instead of
re-scanned.  These tests check, after every single overtake of seeded cold
runs and churn streams, that the patched index (per-structure stages,
per-stage counts, cached sample tables, the cached unvisited right side)
equals a fresh :meth:`PhaseState.eligible_working` scan -- including the one
case that makes a structure eligible at a new stage in the middle of a call:
a cross-structure overtake that takes the victim's working vertex.
"""

import dataclasses
import random

import pytest

from repro.core.config import ParameterProfile
from repro.core.dynamic_boosting import (SamplingOracleDriver,
                                         WeakOracleBoostingFramework)
from repro.core.eligibility import EligibilityIndex
from repro.core.operations import overtake_op
from repro.core.structures import PhaseState
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.matching.matching import Matching
from repro.workloads import planted_matching_churn

EPS = 0.25
PROFILE = ParameterProfile.practical(EPS)


@pytest.fixture
def checked_overtakes(monkeypatch):
    """Verify the index after every overtake; tally what the overtakes did."""
    stages = PROFILE.stages()
    tally = {"overtakes": 0, "victim_restaged": 0}
    original = EligibilityIndex.overtake

    def overtake(self, x, y, stage):
        nv = self.state.node_of[y]
        victim = None
        if nv is not None and nv.structure is not self.state.node_of[x].structure:
            victim = nv.structure
            before = self.state.eligible_stage(victim)
        original(self, x, y, stage)
        self.verify(stages)
        tally["overtakes"] += 1
        if victim is not None and self.state.eligible_stage(victim) != before:
            tally["victim_restaged"] += 1

    monkeypatch.setattr(EligibilityIndex, "overtake", overtake)
    return tally


def _victim_state():
    """Structure A (root 0) next to structure B (root 1 - inner 2 - outer 3,
    working vertex 3 at distance 2); the edge (0, 2) lets A overtake B's
    inner vertex 2 at stage 0, taking B's working vertex with it."""
    graph = Graph(4, [(0, 2), (1, 2), (2, 3)])
    matching = Matching(4)
    matching.add(2, 3)
    state = PhaseState(graph, matching, PROFILE.ell_max)
    state.init_structures()
    overtake_op(state, 1, 2, 2)
    for structure in state.structures.values():
        structure.reset_marks(limit=100)  # a new pass-bundle
    return state


class TestEligibilityIndex:
    def test_cross_structure_overtake_restages_the_victim(self):
        state = _victim_state()
        a, b = state.structures[0], state.structures[1]
        index = EligibilityIndex(state)
        assert index.stage_of == [0, 2]
        assert index.counts == {0: 1, 2: 1}
        before = index.sample_tables()
        assert before[1][3] == [-1, 2, -4]  # 1 outer, 2 inner, 3 working

        index.overtake(0, 2, 0)

        # A extended; B's working vertex moved back to its root (distance 0)
        assert a.extended and b.working is b.root
        assert index.stage_of == [None, 0]
        assert index.counts.get(2, 0) == 0 and index.counts[0] == 1
        assert index.eligible(0) == [b]
        index.verify(PROFILE.stages())
        tables = index.sample_tables()
        assert tables[1] == ([1], 1, 1, [-2])
        assert tables[0][3] == [-1, 1, -1]  # A: root, inner 2, working 3
        index.verify(PROFILE.stages())

    def test_unvisited_bulk_loses_overtaken_pair(self):
        graph = Graph(6, [(0, 2), (2, 3), (0, 4), (4, 5)])
        matching = Matching(6)
        matching.add(2, 3)
        matching.add(4, 5)
        state = PhaseState(graph, matching, PROFILE.ell_max)
        state.init_structures()
        index = EligibilityIndex(state)
        assert index.unvisited_right(0) == [2, 3, 4, 5]
        index.overtake(0, 4, 0)
        assert index.unvisited_right(0) == [2, 3]
        index.verify(PROFILE.stages())

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_runs(self, checked_overtakes, seed):
        graph = erdos_renyi(40, 0.12, seed=seed)
        framework = WeakOracleBoostingFramework(
            EPS, GreedyInducedWeakOracle(graph, seed=seed), seed=seed,
            check_invariants=True)
        framework.run(graph).validate(graph)
        assert checked_overtakes["overtakes"] > 0

    @pytest.mark.parametrize("repair", ["rebuild", "incremental"])
    def test_churn_streams(self, checked_overtakes, repair):
        profile = dataclasses.replace(PROFILE, repair=repair)
        # (24, 3) is a stream whose rebuilds contain cross-structure
        # overtakes that move the victim's working vertex
        for pairs, seed in [(12, 0), (12, 1), (24, 3)]:
            stream = planted_matching_churn(pairs, rounds=3, seed=seed)
            alg = FullyDynamicMatching(stream.n, EPS, profile=profile,
                                       counters=Counters(), seed=seed)
            alg._framework.check_invariants = True
            for update in stream:
                alg.update(update)
        assert checked_overtakes["overtakes"] > 0
        assert checked_overtakes["victim_restaged"] > 0, \
            "no stream restaged a victim any more; pick one that does"


class TestDraws:
    def test_refuses_an_rng_that_draws_differently(self):
        class Other(random.Random):
            def _randbelow(self, n):  # pragma: no cover - never drawn
                return 0

        graph = Graph(2, [(0, 1)])
        oracle = GreedyInducedWeakOracle(graph)
        SamplingOracleDriver(oracle, PROFILE, rng=random.Random(1))
        with pytest.raises(TypeError):
            SamplingOracleDriver(oracle, PROFILE, rng=Other(1))

    def test_inline_draw_matches_randbelow(self):
        """The drivers' inlined draw consumes exactly random.choice's draws."""
        a, b = random.Random(7), random.Random(7)
        for n in [1, 2, 3, 5, 8, 13, 64, 100, 1] * 50:
            k = n.bit_length()
            r = a.getrandbits(k)
            while r >= n:
                r = a.getrandbits(k)
            assert r == b._randbelow(n)
        assert a.getstate() == b.getstate()
