"""Tests for the lazy update-stream layer (``repro.workloads.streams``)."""

import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph
from repro.workloads import (
    UpdateStream,
    interleave,
    planted_matching_churn,
    sliding_window,
)


class TestUpdateStream:
    def test_reiterable(self):
        stream = sliding_window(12, 40, window=8, seed=1)
        assert list(stream) == list(stream)

    def test_interleave_round_robin(self):
        first = [Update.insert(0, 1), Update.insert(2, 3)]
        second = [Update.insert(4, 5), Update.insert(6, 7),
                  Update.insert(7, 8)]
        a = UpdateStream(9, lambda: iter(first), length=2)
        b = UpdateStream(9, lambda: iter(second), length=3)
        merged = interleave(a, b).materialize()
        assert merged == [Update.insert(0, 1), Update.insert(4, 5),
                          Update.insert(2, 3), Update.insert(6, 7),
                          Update.insert(7, 8)]


class TestSourceLaziness:
    def test_sources_return_without_generating(self):
        # constructing a huge stream must be O(1); only iteration pays
        stream = sliding_window(10 ** 6, 10 ** 9, window=64, seed=8)
        assert stream.length == 10 ** 9
        head = [u for _, u in zip(range(100), iter(stream))]
        assert len(head) == 100

    def test_validation_is_eager(self):
        with pytest.raises(ValueError, match="window"):
            sliding_window(10, 100, window=0)
        with pytest.raises(ValueError, match="churn_fraction"):
            planted_matching_churn(5, rounds=1, churn_fraction=2.0)
        with pytest.raises(ValueError, match="n_pairs"):
            planted_matching_churn(0, rounds=1)

    def test_apply_all_consumes_stream_without_log(self):
        stream = sliding_window(16, 500, window=12, seed=9)
        dg = DynamicGraph(16)
        dg.apply_all(stream)
        assert dg.num_updates == 500
        assert dg.m <= 12
        built = Graph(16)
        for upd in stream:
            if upd.kind == Update.INSERT:
                built.add_edge(upd.u, upd.v)
            elif upd.kind == Update.DELETE:
                built.remove_edge(upd.u, upd.v)
        assert dg.graph.edge_list() == built.edge_list()

    def test_apply_all_stream_matches_eager(self):
        stream = sliding_window(16, 200, window=12, seed=10)
        lazy = DynamicGraph(16)
        eager = DynamicGraph(16)
        assert lazy.apply_all(stream) == eager.apply_all(stream.materialize())
        assert sorted(lazy.graph.edges()) == sorted(eager.graph.edges())
        assert lazy.max_edges_seen == eager.max_edges_seen
        assert lazy.num_updates == eager.num_updates
