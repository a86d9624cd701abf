"""Parity suite: incremental epoch repair vs the rebuild path.

``repair="incremental"`` (persistent :class:`~repro.core.repair.RepairContext`
state, patched frozen views, in-place warm starts) must be *byte-identical*
to ``repair="rebuild"``: same matchings, same counters, same epoch
boundaries, same rng stream.  These tests pin that equivalence across both
phase engines on the Table 2 workload families,
mirroring ``tests/test_engine_parity.py`` (the seam this one is modelled
on).  The view-patching property tests drive :meth:`RepairContext.verify_views`
through randomized insert/delete mixes, including the wholesale-recompile
fallback at tiny ``repair_patch_cap``.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core.config import ParameterProfile
from repro.core.repair import RepairContext
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.offline import OfflineDynamicMatching
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.workloads import planted_matching_churn, sliding_window

EPS = 0.25

REBUILD = ParameterProfile.practical(EPS)
INCREMENTAL = dataclasses.replace(REBUILD, repair="incremental")
PROFILES = (REBUILD, INCREMENTAL)

ENGINES = ("array", "reference")


def mates(matching):
    return [matching.mate(v) for v in range(matching.n)]


def run_fully_dynamic(profile, stream, seed, check_invariants=False):
    counters = Counters()
    alg = FullyDynamicMatching(stream.n, EPS, profile=profile,
                               counters=counters, seed=seed)
    if check_invariants:
        alg._framework.check_invariants = True
    for upd in stream:
        alg.update(upd)
    return alg, (mates(alg.current_matching()), counters.as_dict())


class TestFullyDynamicParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_churn_stream(self, seed):
        stream = planted_matching_churn(8, rounds=2, seed=seed)
        results = []
        for profile in PROFILES:
            alg, result = run_fully_dynamic(profile, stream, seed)
            results.append(result)
        assert results[0] == results[1]
        assert alg.repair_context is not None
        assert alg.repair_context.stats["attaches"] > 0
        alg.repair_context.verify_views()
        alg.repair_context.verify_baseline()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_both_engines(self, engine):
        stream = planted_matching_churn(8, rounds=2, seed=1)
        results = []
        for profile in PROFILES:
            profile = dataclasses.replace(profile, engine=engine)
            _, result = run_fully_dynamic(profile, stream, 1)
            results.append(result)
        assert results[0] == results[1]

    def test_sliding_window_with_invariants(self):
        """Cross-checked state (scalar vs mirrors) stays clean every bundle."""
        stream = sliding_window(18, 60, window=16, seed=2)
        results = []
        for profile in PROFILES:
            _, result = run_fully_dynamic(profile, stream, 2,
                                          check_invariants=True)
            results.append(result)
        assert results[0] == results[1]

    def test_small_patch_cap_falls_back_wholesale(self):
        """A tiny cap forces the wholesale view recompile; results unchanged."""
        stream = planted_matching_churn(8, rounds=2, seed=0)
        tiny = dataclasses.replace(INCREMENTAL, repair_patch_cap=1)
        _, reference = run_fully_dynamic(REBUILD, stream, 0)
        alg, result = run_fully_dynamic(tiny, stream, 0)
        assert result == reference
        alg.repair_context.verify_views()


class TestOfflineParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_sizes_and_epochs(self, seed):
        updates = sliding_window(18, 60, window=16, seed=seed)
        results = []
        for profile in PROFILES:
            counters = Counters()
            alg = OfflineDynamicMatching(18, EPS, profile=profile,
                                         counters=counters, seed=seed)
            sizes = alg.run(updates)
            results.append((sizes, alg.plan_epochs(updates),
                            counters.as_dict()))
        assert results[0] == results[1]

    def test_churn_stream(self):
        updates = planted_matching_churn(10, rounds=3, seed=4)
        results = []
        for profile in PROFILES:
            counters = Counters()
            alg = OfflineDynamicMatching(updates.n, EPS, profile=profile,
                                         counters=counters, seed=4)
            sizes = alg.run(updates)
            results.append((sizes, counters.as_dict()))
        assert results[0] == results[1]


class TestRepairModeValidation:
    def test_unknown_repair_mode_rejected(self):
        bad = dataclasses.replace(REBUILD, repair="magic")
        with pytest.raises(ValueError, match="repair mode"):
            FullyDynamicMatching(4, EPS, profile=bad)
        with pytest.raises(ValueError, match="repair mode"):
            OfflineDynamicMatching(4, EPS, profile=bad).run([])

    def test_run_requires_the_mirrored_matching(self):
        from repro.matching.matching import Matching

        alg = FullyDynamicMatching(6, EPS, profile=INCREMENTAL, seed=0)
        ctx = alg.repair_context
        with pytest.raises(ValueError, match="mirrored matching"):
            alg._framework.run(alg.graph, initial=Matching(6), context=ctx)


class TestViewPatching:
    """The patched frozen views must equal a from-scratch recompute."""

    def _context(self, graph, patch_cap=2048):
        profile = dataclasses.replace(INCREMENTAL, repair_patch_cap=patch_cap)
        ctx = RepairContext(graph, profile)
        ctx.bind_matching()
        return ctx

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mutation_mix(self, seed):
        rng = random.Random(seed)
        n = 14
        graph = Graph(n)
        ctx = self._context(graph)
        # compile the views once so note_update has something to patch
        ctx.edge_arrays()
        ctx.adjacency()
        for step in range(120):
            u, v = rng.sample(range(n), 2)
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
                ctx.note_update(u, v, inserted=False)
            else:
                graph.add_edge(u, v)
                ctx.note_update(u, v, inserted=True)
            if step % 7 == 0:
                ctx.sorted_neighbors(rng.randrange(n))  # grow the memo
            if step % 11 == 0:
                ctx.verify_views()
        ctx.verify_views()

    def test_toggle_back_cancels_pending(self):
        graph = Graph(6, [(0, 1), (2, 3)])
        ctx = self._context(graph)
        ctx.edge_arrays()
        graph.add_edge(4, 5)
        ctx.note_update(4, 5, inserted=True)
        assert len(ctx._pending) == 1
        graph.remove_edge(4, 5)
        ctx.note_update(4, 5, inserted=False)
        assert not ctx._pending  # toggled back to the synced state
        ctx.verify_views()

    def test_patch_cap_overflow_drops_views(self):
        graph = Graph(20, [(0, 1)])
        ctx = self._context(graph, patch_cap=2)
        ctx.edge_arrays()
        for i in range(3):
            graph.add_edge(2 * i + 2, 2 * i + 3)
            ctx.note_update(2 * i + 2, 2 * i + 3, inserted=True)
        assert ctx._keys is None and not ctx._pending  # wholesale fallback
        ctx.verify_views()
        assert ctx.stats["wholesale_compiles"] >= 2

    def test_empty_graph_views(self):
        graph = Graph(5)
        ctx = self._context(graph)
        eu, ev = ctx.edge_arrays()
        assert eu.size == 0 and ev.size == 0
        indptr, _ = ctx.adjacency()
        assert indptr.tolist() == [0] * 6
        graph.add_edge(1, 3)
        ctx.note_update(1, 3, inserted=True)
        ctx.verify_views()
        assert ctx.sorted_neighbors(1) == [3]
