"""Cross-module integration tests: every framework on the same workloads."""

import pytest

from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi, planted_matching
from repro.workloads import planted_matching_churn
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.core.streaming import semi_streaming_matching
from repro.core.boosting import boost_matching
from repro.core.dynamic_boosting import boost_matching_weak
from repro.core.oracles import GreedyMatchingOracle
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle, OMvWeakOracle
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.baselines.fmu22 import fmu22_boost
from repro.mpc.boost_mpc import mpc_boosted_matching
from repro.congest.boost_congest import congest_boosted_matching


EPS = 0.25


def _workloads():
    yield "er", erdos_renyi(50, 0.08, seed=21)
    yield "paths", disjoint_paths(4, 7)
    yield "blossoms", blossom_gadget(4, 3)
    g, _ = planted_matching(25, 0.02, seed=22)
    yield "planted", g


class TestAllFrameworksAgreeOnQuality:
    @pytest.mark.parametrize("name,graph", list(_workloads()))
    def test_static_frameworks(self, name, graph):
        opt = maximum_matching_size(graph)
        runs = {
            "streaming": semi_streaming_matching(graph, EPS, seed=1),
            "boost-greedy": boost_matching(graph, EPS, seed=1),
            "weak-greedy": boost_matching_weak(graph, EPS, GreedyInducedWeakOracle(graph, seed=1), seed=1),
            "fmu22": fmu22_boost(graph, EPS, seed=1),
        }
        for algo, matching in runs.items():
            matching.validate(graph)
            ok, ratio = certify_approximation(graph, matching, EPS, optimum=opt)
            assert ok, f"{algo} on {name}: ratio {ratio}"

    @pytest.mark.parametrize("name,graph", list(_workloads())[:2])
    def test_model_instantiations(self, name, graph):
        opt = maximum_matching_size(graph)
        m_mpc, c_mpc = mpc_boosted_matching(graph, EPS, seed=2)
        m_con, c_con = congest_boosted_matching(graph, EPS, seed=2)
        for algo, matching in (("mpc", m_mpc), ("congest", m_con)):
            matching.validate(graph)
            ok, ratio = certify_approximation(graph, matching, EPS, optimum=opt)
            assert ok, f"{algo} on {name}: ratio {ratio}"
        assert c_mpc.get("mpc_total_rounds") > 0
        assert c_con.get("congest_rounds") > 0


class TestOracleCallAccountingConsistency:
    def test_same_counters_compose_across_components(self):
        graph = erdos_renyi(40, 0.1, seed=30)
        counters = Counters()
        boost_matching(graph, EPS, oracle=GreedyMatchingOracle(), counters=counters, seed=3)
        calls_static = counters.get("oracle_calls")
        assert calls_static > 0
        # the same bag can keep accumulating across runs
        boost_matching(graph, EPS, oracle=GreedyMatchingOracle(), counters=counters, seed=4)
        assert counters.get("oracle_calls") > calls_static


class TestDynamicEndToEnd:
    def test_dynamic_with_omv_oracle_stays_approximate(self):
        updates = planted_matching_churn(8, rounds=2, seed=31)
        counters = Counters()
        alg = FullyDynamicMatching(
            updates.n, EPS, counters=counters, seed=31,
            oracle_factory=lambda g: OMvWeakOracle(g, counters=counters))
        for upd in updates:
            alg.update(upd)
        alg.current_matching().validate(alg.graph)
        ok, ratio = certify_approximation(alg.graph, alg.current_matching(), EPS)
        assert ok, ratio
        assert counters.get("omv_queries") > 0
        assert counters.get("weak_oracle_calls") > 0

    def test_dynamic_matches_static_on_final_graph(self):
        updates = planted_matching_churn(10, rounds=3, seed=32)
        alg = FullyDynamicMatching(updates.n, EPS, seed=32)
        for upd in updates:
            alg.update(upd)
        static = boost_matching(alg.graph, EPS, seed=32)
        dynamic_size = alg.current_matching().size
        # both are (1+eps)-approximate, so they are within (1+eps) of each other
        assert dynamic_size >= static.size / (1 + EPS) - 1
        assert static.size >= dynamic_size / (1 + EPS) - 1
