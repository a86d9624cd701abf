"""Tests for the weak-oracle boosting framework (Section 6 / Theorem 6.2)."""

import pytest

from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.core.dynamic_boosting import WeakOracleBoostingFramework, boost_matching_weak
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle


class TestInitialMatching:
    def test_lemma67_constant_approximation(self):
        for seed in range(3):
            g = erdos_renyi(40, 0.1, seed=seed)
            counters = Counters()
            framework = WeakOracleBoostingFramework(
                0.25, GreedyInducedWeakOracle(g, seed=seed), counters=counters, seed=0)
            m = framework.initial_matching(g)
            m.validate(g)
            assert 3 * m.size >= maximum_matching_size(g)
            assert counters.get("weak_oracle_calls") >= 1


class TestEndToEnd:
    def test_quality_with_greedy_induced_oracle(self, medium_graphs):
        eps = 0.25
        for name, g in medium_graphs:
            m = boost_matching_weak(g, eps, GreedyInducedWeakOracle(g, seed=1), seed=1)
            m.validate(g)
            ok, ratio = certify_approximation(g, m, eps)
            assert ok, f"{name}: ratio {ratio}"

    def test_quality_on_long_paths(self):
        g = disjoint_paths(4, 7)
        m = boost_matching_weak(g, 1 / 8, GreedyInducedWeakOracle(g, seed=2),
                                seed=2)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_quality_with_six_sampling_rounds(self):
        g = erdos_renyi(50, 0.12, seed=3)
        oracle = GreedyInducedWeakOracle(g, seed=3)
        m = boost_matching_weak(g, 0.25, oracle, seed=3, sampling_rounds=6)
        m.validate(g)
        ok, ratio = certify_approximation(g, m, 0.25)
        assert ok, ratio

    def test_blossom_instances(self):
        g = blossom_gadget(5, 4)
        m = boost_matching_weak(g, 1 / 8, GreedyInducedWeakOracle(g, seed=4), seed=4)
        ok, ratio = certify_approximation(g, m, 1 / 8)
        assert ok, ratio

    def test_counts_weak_oracle_calls(self):
        g = erdos_renyi(40, 0.1, seed=5)
        counters = Counters()
        boost_matching_weak(g, 0.25, GreedyInducedWeakOracle(g, seed=5),
                            counters=counters, seed=5)
        assert counters.get("weak_oracle_calls") > 0

    def test_oracle_must_be_bound_to_input_graph(self):
        g1 = erdos_renyi(20, 0.2, seed=6)
        g2 = erdos_renyi(20, 0.2, seed=7)
        framework = WeakOracleBoostingFramework(0.25, GreedyInducedWeakOracle(g1))
        with pytest.raises(ValueError):
            framework.run(g2)

    def test_invariants_hold(self):
        g = erdos_renyi(30, 0.15, seed=8)
        m = boost_matching_weak(g, 0.25, GreedyInducedWeakOracle(g, seed=8),
                                seed=8, check_invariants=True)
        m.validate(g)
