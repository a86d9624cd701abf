"""Unit tests for repro.graph.dynamic_graph."""

import numpy as np
import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph


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


class TestLogFreeMode:
    """A dynamic graph keeps no update log: the accounting stays exact, and
    the graph the updates build is the oracle."""

    def test_counts_without_log(self):
        dg = DynamicGraph(6)
        dg.insert(0, 1)
        dg.insert(1, 2)
        dg.delete(0, 1)
        assert dg.num_updates == 3
        assert dg.m == 1 and dg.max_edges_seen == 2

    def test_apply_all_generator_input(self):
        updates = [Update.insert(i, i + 1) for i in range(5)]
        dg = DynamicGraph(6)
        assert dg.apply_all(iter(updates)) == 5  # lazy input, same result
        assert dg.num_updates == 5
        built = Graph(6, [(upd.u, upd.v) for upd in updates])
        assert dg.graph.edge_list() == built.edge_list()

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
        per_edge = DynamicGraph(6)
        assert per_edge.apply_all([Update.insert(u, v) for u, v in edges]) == 6
        restored = DynamicGraph(6)
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

    @pytest.mark.parametrize("columns, accounting, reason", [
        (([0, 2], [1, 9]), (5, 2), "out of range"),
        (([-1, 0], [2, 1]), (5, 2), "out of range"),
        (([3], [3]), (5, 1), "not canonical"),
        (([1, 0], [2, 1]), (5, 2), "increasing key order"),
        (([0, 1], [1, 2]), (5, 1), "inconsistent accounting"),
        (([0, 1], [1, 2]), (-1, 2), "inconsistent accounting"),
    ], ids=["out-of-range", "negative", "self-loop", "unsorted",
            "max-edges-short", "negative-updates"])
    def test_restore_snapshot_validates_first(self, columns, accounting, reason):
        dg = DynamicGraph(4)
        with pytest.raises(ValueError, match=reason):
            dg.restore_snapshot(*map(np.array, columns), *accounting)
        assert dg.m == 0 and dg.num_updates == 0 and dg.max_edges_seen == 0
        assert dg.graph.edge_list() == []

    def test_restore_snapshot_needs_an_edgeless_graph(self):
        dg = DynamicGraph(4)
        dg.insert(0, 1)
        with pytest.raises(ValueError, match="edgeless"):
            dg.restore_snapshot(np.array([2]), np.array([3]), 5, 1)
        assert dg.graph.edge_list() == [(0, 1)] and dg.num_updates == 1
