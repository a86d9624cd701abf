"""Tests for the dynamic baseline used in the Table 2 benchmarks."""

from repro.workloads import planted_matching_churn
from repro.matching.blossom import maximum_matching_size
from repro.instrumentation.counters import Counters
from repro.dynamic.baselines import ExponentialBoostingDynamic
from repro.dynamic.fully_dynamic import FullyDynamicMatching


class TestExponentialBaseline:
    def test_valid_and_reasonable(self):
        updates = planted_matching_churn(8, rounds=2, seed=5)
        counters = Counters()
        alg = ExponentialBoostingDynamic(updates.n, 0.25, counters=counters, seed=5)
        for upd in updates:
            alg.update(upd)
            alg.current_matching().validate(alg.dynamic_graph.graph)
        assert counters.get("dyn_rebuilds") >= 1
        assert counters.get("oracle_calls") > 0
        # it maintains at least a 2-approximation (its rebuilds start maximal)
        assert 2 * alg.current_matching().size >= maximum_matching_size(
            alg.dynamic_graph.graph) - 1


class TestEmptyUpdateConvention:
    """Every maintainer shares the Table 2 EMPTY-padding convention."""

    def test_empty_excluded_from_both_sides_everywhere(self):
        from repro.graph.dynamic_graph import Update

        for make in (lambda c: FullyDynamicMatching(8, 0.25, counters=c,
                                                    seed=3),
                     lambda c: ExponentialBoostingDynamic(8, 0.25, counters=c,
                                                          seed=3)):
            counters = Counters()
            alg = make(counters)
            alg.update(Update.insert(0, 1))
            work_after_real = counters.get("update_work")
            for _ in range(10):
                alg.update(Update.empty())
            assert counters.get("dyn_updates") == 1
            assert counters.get("dyn_empty_updates") == 10
            assert counters.get("update_work") == work_after_real
