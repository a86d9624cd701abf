"""Unit tests for repro.graph.dynamic_graph."""

import numpy as np
import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update


class TestUpdate:
    def test_insert_normalises(self):
        upd = Update.insert(5, 2)
        assert (upd.u, upd.v) == (2, 5)
        assert upd.kind == Update.INSERT

    def test_empty_update(self):
        upd = Update.empty()
        assert upd.kind == Update.EMPTY

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Update("bogus", 0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Update.insert(3, 3)


class TestDynamicGraph:
    def test_starts_empty(self):
        dg = DynamicGraph(5)
        assert dg.m == 0 and dg.n == 5
        assert dg.max_edges_seen == 0

    def test_insert_delete_cycle(self):
        dg = DynamicGraph(4)
        assert dg.insert(0, 1)
        assert not dg.insert(0, 1)  # duplicate insert does not change graph
        assert dg.insert(2, 3)
        assert dg.max_edges_seen == 2
        assert dg.delete(0, 1)
        assert not dg.delete(0, 1)
        assert dg.m == 1
        assert dg.max_edges_seen == 2  # max is sticky
        assert dg.num_updates == 5

    def test_empty_updates_counted_but_noop(self):
        dg = DynamicGraph(3)
        dg.apply(Update.empty())
        assert dg.num_updates == 1 and dg.m == 0

    def test_apply_all(self):
        dg = DynamicGraph(4)
        changed = dg.apply_all([Update.insert(0, 1), Update.insert(0, 1),
                                Update.delete(0, 1)])
        assert changed == 2

    def test_replay(self):
        dg = DynamicGraph(4)
        dg.insert(0, 1)
        dg.insert(1, 2)
        dg.delete(0, 1)
        snapshot = dg.replay(upto=2)
        assert snapshot.has_edge(0, 1) and snapshot.has_edge(1, 2)
        final = dg.replay()
        assert not final.has_edge(0, 1) and final.has_edge(1, 2)

    def test_chunking_pads_with_empty(self):
        updates = [Update.insert(0, 1), Update.insert(1, 2), Update.insert(2, 3)]
        chunks = DynamicGraph.chunk_updates(updates, 2)
        assert len(chunks) == 2
        assert all(len(c) == 2 for c in chunks)
        assert chunks[1][1].kind == Update.EMPTY

    def test_chunking_rejects_bad_size(self):
        with pytest.raises(ValueError):
            DynamicGraph.chunk_updates([], 0)


class TestLogFreeMode:
    def test_counts_without_log(self):
        dg = DynamicGraph(6, log_updates=False)
        assert not dg.logs_updates
        dg.insert(0, 1)
        dg.insert(1, 2)
        dg.delete(0, 1)
        assert dg.num_updates == 3
        assert dg.m == 1 and dg.max_edges_seen == 2

    def test_log_and_replay_raise(self):
        dg = DynamicGraph(4, log_updates=False)
        dg.insert(0, 1)
        with pytest.raises(RuntimeError, match="log disabled"):
            dg.log()
        with pytest.raises(RuntimeError, match="log disabled"):
            dg.replay()

    def test_apply_all_generator_input(self):
        updates = [Update.insert(i, i + 1) for i in range(5)]
        dg = DynamicGraph(6)
        assert dg.apply_all(iter(updates)) == 5  # lazy input, same result
        assert dg.log() == tuple(updates)
        assert sorted(dg.replay().edges()) == sorted(dg.graph.edges())

    def test_streamed_apply_all_validates_per_run(self):
        bad = [Update.insert(0, 1), Update.insert(2, 9)]  # 9 out of range
        dg = DynamicGraph(4)
        with pytest.raises(ValueError, match="out of range"):
            dg.apply_all(iter(bad))  # lazy: validated run-by-run
        eager = DynamicGraph(4)
        with pytest.raises(ValueError, match="out of range"):
            eager.apply_all(bad)  # eager: validated up front, nothing applied
        assert eager.m == 0 and eager.num_updates == 0

    def test_restore_snapshot_matches_key_order_inserts(self):
        edges = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 5)]  # key order
        per_edge = DynamicGraph(6, log_updates=False)
        assert per_edge.apply_all([Update.insert(u, v) for u, v in edges]) == 6
        restored = DynamicGraph(6, log_updates=False)
        restored.restore_snapshot(np.array([u for u, _ in edges]),
                                  np.array([v for _, v in edges]),
                                  num_updates=40, max_edges_seen=9)
        # the accounting is the snapshot's, not one insert per edge
        assert restored.num_updates == 40 and restored.max_edges_seen == 9
        assert restored.m == 6
        # every adjset row iterates as inserting the edges in key order left it
        assert [list(restored.graph.neighbors(v)) for v in range(6)] == \
            [list(per_edge.graph.neighbors(v)) for v in range(6)]
        assert restored.graph.edge_list() == per_edge.graph.edge_list()
        restored.delete(1, 4)
        assert restored.num_updates == 41 and restored.max_edges_seen == 9

    @pytest.mark.parametrize("log_updates, columns, accounting, reason", [
        (True, ([0], [1]), (5, 1), "update log"),
        (False, ([0, 2], [1, 9]), (5, 2), "out of range"),
        (False, ([-1, 0], [2, 1]), (5, 2), "out of range"),
        (False, ([3], [3]), (5, 1), "not canonical"),
        (False, ([1, 0], [2, 1]), (5, 2), "increasing key order"),
        (False, ([0, 1], [1, 2]), (5, 1), "inconsistent accounting"),
        (False, ([0, 1], [1, 2]), (-1, 2), "inconsistent accounting"),
    ], ids=["logged", "out-of-range", "negative", "self-loop", "unsorted",
            "max-edges-short", "negative-updates"])
    def test_restore_snapshot_validates_first(
            self, log_updates, columns, accounting, reason):
        dg = DynamicGraph(4, log_updates=log_updates)
        with pytest.raises((ValueError, RuntimeError), match=reason):
            dg.restore_snapshot(*map(np.array, columns), *accounting)
        assert dg.m == 0 and dg.num_updates == 0 and dg.max_edges_seen == 0
        assert dg.graph.edge_list() == []
        if log_updates:
            assert dg.log() == ()

    def test_restore_snapshot_needs_an_edgeless_graph(self):
        dg = DynamicGraph(4, log_updates=False)
        dg.insert(0, 1)
        with pytest.raises(ValueError, match="edgeless"):
            dg.restore_snapshot(np.array([2]), np.array([3]), 5, 1)
        assert dg.graph.edge_list() == [(0, 1)] and dg.num_updates == 1
