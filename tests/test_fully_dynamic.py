"""Tests for the fully dynamic maintainer (Theorem 7.1 framework)."""

import pytest

from repro.graph.dynamic_graph import Update
from repro.workloads import insertion_only, planted_matching_churn, sliding_window
from repro.matching.blossom import maximum_matching_size
from repro.matching.verify import certify_approximation
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.weak_oracles import OMvWeakOracle


EPS = 0.25


class TestMaintenance:
    def test_matching_always_valid(self):
        updates = planted_matching_churn(10, rounds=3, seed=1)
        alg = FullyDynamicMatching(updates.n, EPS, seed=1)
        for upd in updates:
            alg.update(upd)
            alg.current_matching().validate(alg.graph)

    def test_approximation_at_checkpoints(self):
        updates = planted_matching_churn(12, rounds=4, seed=2)
        alg = FullyDynamicMatching(updates.n, EPS, seed=2)
        for idx, upd in enumerate(updates):
            alg.update(upd)
            if idx % 25 == 0 or idx == updates.length - 1:
                m = alg.current_matching()
                ok, ratio = certify_approximation(alg.graph, m, EPS)
                assert ok, f"update {idx}: ratio {ratio}"

    def test_insertion_only_reaches_near_optimum(self):
        updates = insertion_only(30, 80, seed=3)
        alg = FullyDynamicMatching(30, EPS, seed=3)
        for upd in updates:
            alg.update(upd)
        ok, ratio = certify_approximation(alg.graph, alg.current_matching(), EPS)
        assert ok, ratio

    def test_sliding_window(self):
        updates = sliding_window(24, 150, window=30, seed=4)
        alg = FullyDynamicMatching(24, EPS, seed=4)
        for upd in updates:
            alg.update(upd)
            alg.current_matching().validate(alg.graph)
        ok, ratio = certify_approximation(alg.graph, alg.current_matching(), EPS)
        assert ok, ratio

    def test_deleting_matched_edge_is_handled(self):
        alg = FullyDynamicMatching(4, EPS, seed=5)
        alg.insert(0, 1)
        assert alg.current_matching().contains_edge(0, 1)
        alg.delete(0, 1)
        assert alg.current_matching().size == 0
        alg.current_matching().validate(alg.graph)

    def test_empty_updates_are_cheap(self):
        alg = FullyDynamicMatching(4, EPS, seed=6)
        rebuilds_before = alg.counters.get("dyn_rebuilds")
        for _ in range(10):
            alg.update(Update.empty())
        assert alg.counters.get("dyn_rebuilds") == rebuilds_before


class TestWarmStartEdgeCases:
    """Regression tests for warm-start rebuilds in degenerate regimes.

    A rebuild with ``_size_at_rebuild > 0`` skips the coarse scales
    (``warm_start``); these pin that the skipped-scales path survives the
    graph emptying out completely and delete-only streams that cross a
    rebuild (epoch) boundary -- in both repair modes, with identical results.
    """

    def _profiles(self):
        import dataclasses

        rebuild = ParameterProfile.practical(EPS)
        return (rebuild, dataclasses.replace(rebuild, repair="incremental"))

    def test_rebuild_after_graph_empties(self):
        for profile in self._profiles():
            alg = FullyDynamicMatching(12, EPS, profile=profile, seed=7)
            edges = [(i, i + 6) for i in range(6)]
            for u, v in edges:
                alg.insert(u, v)
            assert alg.counters.get("dyn_rebuilds") > 0  # warm start armed
            for u, v in edges:
                alg.delete(u, v)
            assert alg.graph.m == 0
            # the deletes crossed rebuild boundaries, so warm-start rebuilds
            # already ran against a shrinking -- eventually empty -- graph
            alg.rebuild()  # explicit warm rebuild on the fully empty graph
            assert alg.current_matching().size == 0
            alg.current_matching().validate(alg.graph)
            alg.insert(0, 1)  # the maintainer must still be serviceable
            assert alg.current_matching().size == 1

    def test_delete_only_stream_crosses_rebuild_boundary(self):
        results = []
        for profile in self._profiles():
            counters = Counters()
            alg = FullyDynamicMatching(20, EPS, profile=profile,
                                       counters=counters, seed=8,
                                       rebuild_slack=1e9)
            edges = [(i, i + 10) for i in range(10)]
            for u, v in edges:
                alg.insert(u, v)
            alg.rebuild_slack = 0.125
            alg.rebuild()
            rebuilds_before = counters.get("dyn_rebuilds")
            for u, v in edges:  # delete-only tail, no compensating inserts
                alg.delete(u, v)
                alg.current_matching().validate(alg.graph)
            assert counters.get("dyn_rebuilds") > rebuilds_before
            assert alg.current_matching().size == 0
            results.append([alg.current_matching().mate(v)
                            for v in range(20)] + [counters.as_dict()])
        assert results[0] == results[1]  # repair-mode parity on the edge case


class TestAccounting:
    def test_empty_and_noop_accounting_invariant(self):
        """EMPTY padding is excluded from *both* sides of the amortization.

        The Table 2 convention: EMPTY updates charge nothing and do not
        advance the rebuild schedule (they are tallied as
        ``dyn_empty_updates``), while non-empty no-ops are charged and
        scheduled like any other update.  The invariant tying the two sides
        together: every counted update charges exactly one ``update_work``
        unit plus ``n`` per rebuild.
        """
        n = 8
        counters = Counters()
        alg = FullyDynamicMatching(n, EPS, counters=counters, seed=10)
        updates = [Update.insert(0, 1), Update.empty(), Update.insert(2, 3),
                   Update.empty(), Update.insert(0, 1),  # a no-op re-insert
                   Update.delete(4, 5)]                  # a no-op delete
        for upd in updates:
            alg.update(upd)
        assert counters.get("dyn_updates") == 4       # no-ops count...
        assert counters.get("dyn_empty_updates") == 2  # ...EMPTY does not
        assert counters.get("update_work") == (
            counters.get("dyn_updates")
            + counters.get("dyn_rebuilds") * n)

        # EMPTY padding changes neither the work nor the amortized quotient
        work_before = counters.get("update_work")
        amortized_before = alg.amortized_update_work()
        for _ in range(50):
            alg.update(Update.empty())
        assert counters.get("update_work") == work_before
        assert counters.get("dyn_updates") == 4
        assert alg.amortized_update_work() == amortized_before

    def test_counters_and_amortized_work(self):
        updates = planted_matching_churn(8, rounds=2, seed=7)
        counters = Counters()
        alg = FullyDynamicMatching(updates.n, EPS, counters=counters, seed=7)
        for upd in updates:
            alg.update(upd)
        assert counters.get("dyn_updates") == updates.length
        assert counters.get("dyn_rebuilds") >= 1
        assert counters.get("weak_oracle_calls") > 0
        assert alg.amortized_update_work() > 0

    def test_omv_oracle_factory_counts_queries(self):
        counters = Counters()
        updates = insertion_only(16, 30, seed=9)
        alg = FullyDynamicMatching(
            16, EPS, counters=counters, seed=9,
            oracle_factory=lambda g: OMvWeakOracle(g, counters=counters))
        for upd in updates:
            alg.update(upd)
        alg.current_matching().validate(alg.graph)
        assert counters.get("omv_updates") > 0
