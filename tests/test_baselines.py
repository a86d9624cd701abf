"""Tests for the prior-framework comparators (McGregor-style, FMU22-style)."""

import pytest

from repro.graph.generators import disjoint_paths, erdos_renyi, random_bipartite
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.baselines.fmu22 import fmu22_boost, fmu22_scheduled_calls
from repro.baselines.mcgregor import mcgregor_boost


class TestMcGregor:
    def test_improves_over_greedy_on_bipartite(self):
        g, _, _ = random_bipartite(20, 20, 0.15, seed=1)
        counters = Counters()
        m = mcgregor_boost(g, 0.25, counters=counters, seed=1)
        m.validate(g)
        opt = maximum_matching_size(g)
        assert 2 * m.size >= opt            # never worse than maximal
        assert counters.get("oracle_calls") > 0
        assert counters.get("mcgregor_repetitions") > 0

    def test_quality_on_paths(self):
        g = disjoint_paths(5, 5)
        m = mcgregor_boost(g, 0.25, seed=2)
        m.validate(g)
        ok, ratio = certify_approximation(g, m, 0.34)
        assert ok, ratio


class TestFMU22:
    def test_quality_matches_new_framework(self, medium_graphs):
        eps = 0.25
        for name, g in medium_graphs[:4]:
            m = fmu22_boost(g, eps, seed=3)
            m.validate(g)
            ok, ratio = certify_approximation(g, m, eps)
            assert ok, f"{name}: {ratio}"

    def test_scheduled_calls_table1(self):
        assert fmu22_scheduled_calls(0.25, "mpc") == pytest.approx(4 ** 52)
        assert fmu22_scheduled_calls(0.25, "congest") == pytest.approx(4 ** 63)
        assert fmu22_scheduled_calls(0.25, "mpc+mmss25") == pytest.approx(4 ** 39)
        with pytest.raises(ValueError):
            fmu22_scheduled_calls(0.25, "bogus")

    def test_counts_oracle_calls(self):
        g = erdos_renyi(40, 0.1, seed=4)
        counters = Counters()
        fmu22_boost(g, 0.25, seed=4, counters=counters)
        assert counters.get("oracle_calls") > 0
