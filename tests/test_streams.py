"""Tests for the lazy update-stream layer (``repro.workloads.streams``)."""

import itertools

import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.workloads import (
    UpdateStream,
    concat,
    insertion_only,
    interleave,
    planted_matching_churn,
    sliding_window,
    stream_of,
)


def _ins(k):
    return [Update.insert(i, i + 1) for i in range(k)]


class TestUpdateStream:
    def test_reiterable(self):
        stream = sliding_window(12, 40, window=8, seed=1)
        assert list(stream) == list(stream)

    def test_from_updates_and_length(self):
        stream = UpdateStream.from_updates(5, _ins(3))
        assert stream.n == 5 and stream.length == 3
        assert stream.materialize() == _ins(3)

    def test_take(self):
        stream = insertion_only(20, 30, seed=2)
        head = stream.take(7)
        assert head.length == 7
        assert head.materialize() == stream.materialize()[:7]
        # taking beyond the end is the whole stream
        assert stream.take(10 ** 6).count() == 30

    def test_take_is_lazy(self):
        # an endless producer: only laziness lets take() terminate
        endless = UpdateStream(
            4, lambda: (Update.insert(0, 1) for _ in itertools.count()))
        assert endless.take(5).count() == 5

    def test_concat(self):
        a = UpdateStream.from_updates(3, _ins(2))
        b = UpdateStream.from_updates(7, _ins(1))
        joined = concat(a, b)
        assert joined.n == 7  # max of the parts
        assert joined.length == 3
        assert joined.materialize() == _ins(2) + _ins(1)
        assert a.concat(b).materialize() == joined.materialize()

    def test_interleave_round_robin(self):
        a = UpdateStream.from_updates(9, [Update.insert(0, 1),
                                          Update.insert(2, 3)])
        b = UpdateStream.from_updates(9, [Update.insert(4, 5),
                                          Update.insert(6, 7),
                                          Update.insert(7, 8)])
        merged = interleave(a, b).materialize()
        assert merged == [Update.insert(0, 1), Update.insert(4, 5),
                          Update.insert(2, 3), Update.insert(6, 7),
                          Update.insert(7, 8)]

    def test_stream_of(self):
        stream = stream_of(_ins(4), n=6)
        assert stream.n == 6 and stream.materialize() == _ins(4)
        passthrough = insertion_only(5, 4, seed=0)
        assert stream_of(passthrough) is passthrough
        with pytest.raises(ValueError, match="explicit n"):
            stream_of(_ins(2))

    def test_empty(self):
        assert UpdateStream.empty(4).count() == 0


class TestChunkDiscipline:
    """The combinators must preserve the exact Problem 1 chunk/padding rules."""

    def test_chunks_exact_size_and_padding(self):
        stream = UpdateStream.from_updates(10, _ins(7))
        chunks = list(stream.chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 3]
        assert chunks[-1][1:] == [Update.empty(), Update.empty()]
        # non-padded mode leaves the short tail
        assert [len(c) for c in stream.chunks(3, pad=False)] == [3, 3, 1]

    def test_chunks_match_eager_chunk_updates(self):
        stream = sliding_window(14, 50, window=9, seed=3)
        for size in (1, 7, 50, 64):
            lazy = list(stream.chunks(size))
            eager = DynamicGraph.chunk_updates(stream.materialize(), size,
                                               pad=True)
            assert lazy == eager, f"chunk_size={size}"

    def test_chunked_flat_stream(self):
        stream = UpdateStream.from_updates(10, _ins(5))
        flat = stream.chunked(4).materialize()
        assert len(flat) == 8  # padded up to a multiple of the chunk size
        assert flat[:5] == _ins(5)
        assert all(u.kind == Update.EMPTY for u in flat[5:])

    def test_chunks_rejects_bad_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            list(UpdateStream.empty(3).chunks(0))

    def test_rate_limit_density(self):
        stream = insertion_only(30, 12, seed=4).rate_limit(3, 5)
        flat = stream.materialize()
        # 12 real updates in windows of 5 slots holding 3 real each
        assert len(flat) == 20
        for start in range(0, 20, 5):
            window = flat[start:start + 5]
            assert sum(1 for u in window if u.kind != Update.EMPTY) == 3
            assert [u.kind for u in window[3:]] == [Update.EMPTY] * 2
        # real updates come through unchanged and in order
        real = [u for u in flat if u.kind != Update.EMPTY]
        assert real == insertion_only(30, 12, seed=4).materialize()

    def test_rate_limit_short_tail_not_padded(self):
        flat = insertion_only(30, 7, seed=5).rate_limit(3, 5).materialize()
        # two full windows of 5 slots + a final short burst of 1 real update
        assert len(flat) == 11
        assert flat[-1].kind != Update.EMPTY

    def test_rate_limit_rejects_bad_window(self):
        stream = insertion_only(10, 5, seed=6)
        for bad in ((0, 5), (6, 5), (-1, 5)):
            with pytest.raises(ValueError):
                stream.rate_limit(*bad)

    def test_problem1_iter_chunks_lazy_parity(self):
        from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
        from repro.dynamic.interfaces import Problem1Instance

        def make():
            return Problem1Instance(
                20, lambda g: GreedyInducedWeakOracle(g, seed=0),
                q=2, lam=0.5, delta=0.1, alpha=0.1)

        stream = insertion_only(20, 13, seed=7)
        lazy_inst, eager_inst = make(), make()
        lazy_chunks = list(lazy_inst.iter_chunks(stream))
        eager_chunks = eager_inst.chunks_from(stream.materialize())
        assert lazy_chunks == eager_chunks
        assert lazy_inst.run_stream(stream) == len(lazy_chunks)
        assert lazy_inst.graph.m == 13
        assert lazy_inst.counters.get("p1_updates") == \
            len(lazy_chunks) * lazy_inst.chunk_size


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
        dg = DynamicGraph(16, log_updates=False)
        dg.apply_all(stream)
        assert dg.num_updates == 500
        assert dg.m <= 12
        with pytest.raises(RuntimeError, match="log disabled"):
            dg.log()
        with pytest.raises(RuntimeError, match="log disabled"):
            dg.replay()

    def test_apply_all_stream_matches_eager(self):
        stream = sliding_window(16, 200, window=12, seed=10)
        lazy = DynamicGraph(16, log_updates=False)
        eager = DynamicGraph(16)
        assert lazy.apply_all(stream) == eager.apply_all(stream.materialize())
        assert sorted(lazy.graph.edges()) == sorted(eager.graph.edges())
        assert lazy.max_edges_seen == eager.max_edges_seen
        assert lazy.num_updates == eager.num_updates
