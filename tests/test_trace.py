"""Tests for trace record/replay and real-graph ingestion.

The load-bearing guarantees:

* a recorded trace round-trips through save -> load byte-identically and
  replays the exact update sequence it recorded;
* replaying one trace through the bench runner produces byte-identical
  records with ``--jobs 1`` vs ``--jobs 2``;
* long generated streams replay in O(1) extra memory (peak independent of
  stream length).
"""

import os
import sys

import numpy as np
import pytest

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.instrumentation.counters import Counters
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.workloads import (
    Trace,
    insertion_only,
    load_edge_list,
    planted_matching_churn,
    resolve_workload,
    sliding_window,
    temporal_insertions,
    temporal_sliding_window,
    workload_names,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
KARATE_EDGES = os.path.join(REPO_ROOT, "benchmarks", "data", "karate.txt")
KARATE_TRACE = os.path.join(REPO_ROOT, "benchmarks", "data", "karate_w40.npz")


class TestTraceRoundTrip:
    def test_record_save_load_identical(self, tmp_path):
        stream = sliding_window(18, 120, window=14, seed=1)
        trace = Trace.record(stream)
        path = trace.save(tmp_path / "t.npz")
        loaded = Trace.load(path)
        assert loaded == trace
        assert np.array_equal(loaded.kind, trace.kind)
        assert np.array_equal(loaded.u, trace.u)
        assert np.array_equal(loaded.v, trace.v)
        assert loaded.n == trace.n == 18

    def test_replay_reproduces_updates_exactly(self, tmp_path):
        stream = planted_matching_churn(9, rounds=3, seed=2)
        trace = Trace.load(Trace.record(stream).save(tmp_path / "t"))
        assert trace.updates() == stream.materialize()
        # replay is itself re-iterable
        replay = trace.stream()
        assert list(replay) == list(replay)

    def test_empty_stream_and_plain_iterable(self, tmp_path):
        empty = Trace.record([], n=5)
        assert len(empty) == 0 and empty.n == 5
        loaded = Trace.load(empty.save(tmp_path / "e"))
        assert loaded == empty and loaded.updates() == []
        with pytest.raises(ValueError, match="explicit n"):
            Trace.record(iter([Update.insert(0, 1)]))

    def test_load_rejects_non_trace_and_bad_version(self, tmp_path):
        from repro.workloads.trace import FORMAT_VERSION, TraceFormatError

        bad = tmp_path / "bad.npz"
        np.savez(bad, foo=np.zeros(3))
        with pytest.raises(TraceFormatError, match="not a trace") as excinfo:
            Trace.load(bad)
        assert excinfo.value.path == str(bad)
        worse = tmp_path / "worse.npz"
        np.savez(worse, version=np.int64(99), n=np.int64(1),
                 kind=np.zeros(0, dtype=np.int64),
                 u=np.zeros(0, dtype=np.int64),
                 v=np.zeros(0, dtype=np.int64))
        with pytest.raises(TraceFormatError, match="file is v99") as excinfo:
            Trace.load(worse)
        # the typed error carries both versions for "re-record vs wrong file"
        assert excinfo.value.expected_version == FORMAT_VERSION
        assert excinfo.value.found_version == 99
        # TraceFormatError subclasses ValueError: pre-hardening callers that
        # caught ValueError keep working
        assert isinstance(excinfo.value, ValueError)

    def test_load_truncated_file_raises_typed_error(self, tmp_path):
        from repro.workloads.trace import TraceFormatError

        trace = Trace.record(sliding_window(8, 30, window=6, seed=0))
        path = trace.save(tmp_path / "whole.npz")
        blob = open(path, "rb").read()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceFormatError, match="corrupt") as excinfo:
            Trace.load(truncated)
        assert excinfo.value.path == str(truncated)

    def test_load_garbage_bytes_raises_typed_error(self, tmp_path):
        from repro.workloads.trace import TraceFormatError

        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"definitely not a zip container")
        with pytest.raises(TraceFormatError, match="corrupt"):
            Trace.load(garbage)

    def test_load_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(tmp_path / "absent.npz")

    def test_rejects_unknown_kind_codes(self):
        with pytest.raises(ValueError, match="kind codes"):
            Trace(4, np.array([7], dtype=np.int64),
                  np.array([0], dtype=np.int64),
                  np.array([1], dtype=np.int64))


class TestTraceReplay:
    def _replay(self, trace, collect=True):
        counters = Counters()
        alg = FullyDynamicMatching(trace.n, 0.25, counters=counters, seed=0)
        sizes = alg.process(trace.stream(), collect_sizes=collect)
        return (counters.as_dict(), sorted(alg.current_matching().edges()),
                None if sizes is None else list(sizes))

    def test_collect_sizes_false_returns_none(self):
        trace = Trace.record(insertion_only(10, 15, seed=5))
        counters, matching, sizes = self._replay(trace, collect=False)
        assert sizes is None
        with_sizes = self._replay(trace, collect=True)
        assert (counters, matching) == with_sizes[:2]


class TestJobsParity:
    def test_jobs_1_vs_2_identical_records(self):
        """The realgraph trace scenario emits identical records under the
        serial and the pooled runner (modulo wall-clock/timestamp)."""
        from repro.bench import discovery, registry, runner

        discovery.load_benchmark_modules()
        scenario = registry.get_scenario("table2_realgraph")

        def run(jobs):
            records = runner.run_scenarios([scenario], jobs=jobs, smoke=True)
            for record in records:
                record.pop("wall_s")
                record.pop("timestamp")
            return records

        assert run(1) == run(2)


class TestIngestion:
    def test_karate_parse_and_remap(self):
        data = load_edge_list(KARATE_EDGES)
        assert data.n == 34 and data.m == 78
        assert data.timestamps is None
        # 1-indexed labels remapped to contiguous 0-based ids, first-seen order
        assert data.labels[0] == "1"
        assert all(0 <= u < 34 and 0 <= v < 34 for u, v in data.edges)

    def test_timestamped_file(self, tmp_path):
        path = tmp_path / "temporal.txt"
        path.write_text("# t graph\nb c 30\na b 10\na c 20\n")
        data = load_edge_list(path)
        assert data.n == 3 and data.timestamps == [30, 10, 20]
        stream = temporal_insertions(data)
        # replayed in timestamp order: (a,b) then (a,c) then (b,c)
        kinds = [(u.kind, u.u, u.v) for u in stream]
        ab = (data.labels.index("a"), data.labels.index("b"))
        assert kinds[0] == (Update.INSERT, min(ab), max(ab))
        assert len(kinds) == 3

    def test_mixed_timestamp_lines_rejected(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text("a b 10\nb c\n")
        with pytest.raises(ValueError, match="mixed"):
            load_edge_list(path)

    def test_self_loops_and_comments_skipped(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("# header\n\nx x\nx y\n")
        data = load_edge_list(path)
        assert data.m == 1

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b c d\n")
        with pytest.raises(ValueError, match="expected"):
            load_edge_list(path)

    def test_no_remap_mode(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("0 2\n2 5\n")
        data = load_edge_list(path, remap=False)
        assert data.n == 6 and data.edges == [(0, 2), (2, 5)]

    def test_sliding_window_expiry(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("a b\nb c\nc d\nd e\n")
        data = load_edge_list(path)
        updates = list(temporal_sliding_window(data, window=2))
        dg = DynamicGraph(data.n)
        for upd in updates:
            dg.apply(upd)
            assert dg.m <= 2  # never more than `window` live edges
        deletes = [u for u in updates if u.kind == Update.DELETE]
        assert len(deletes) == 2  # the two oldest edges aged out

    def test_rearrival_refreshes_instead_of_reinserting(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("a b 1\na b 2\nb c 3\n")
        data = load_edge_list(path)
        updates = list(temporal_sliding_window(data, window=10))
        # the duplicate arrival emits nothing; only two inserts appear
        assert [u.kind for u in updates] == [Update.INSERT, Update.INSERT]

    def test_window_validation(self):
        data = load_edge_list(KARATE_EDGES)
        with pytest.raises(ValueError, match="window"):
            temporal_sliding_window(data, window=0)

    def test_committed_fixture_matches_ingestion(self):
        """Record/replay parity of the committed karate trace (fixture
        drift in either the ingestion code or the file fails here and in
        the smoke gate's table2_realgraph scenario)."""
        data = load_edge_list(KARATE_EDGES)
        fresh = Trace.record(temporal_sliding_window(data, window=40))
        assert fresh == Trace.load(KARATE_TRACE)


class TestWorkloadRegistry:
    def test_builtin_names_resolve(self):
        assert {"churn", "sliding_window", "insertion_only",
                "ors_reveal"} <= set(workload_names())
        stream = resolve_workload("churn", smoke=True, seed=3)
        assert stream.n > 0 and stream.count() > 0

    def test_trace_spec_resolves(self):
        stream = resolve_workload("trace:" + KARATE_TRACE)
        assert stream.n == 34 and stream.count() == 116

    def test_unknown_name_and_empty_trace_path(self):
        with pytest.raises(KeyError, match="unknown workload"):
            resolve_workload("_no_such_workload")
        with pytest.raises(ValueError, match="needs a path"):
            resolve_workload("trace:")


def test_long_stream_replay_is_memory_flat():
    """Peak extra memory of a stream replay is independent of its length.

    Replays a short and a 10x longer sliding-window stream through the
    maintainer (log-free graph, ``collect_sizes=False``) and requires the
    peak traced allocation of the long run to stay within a constant factor
    of the short run -- with an eagerly materialized list the long run
    would allocate ~10x more.
    """
    import tracemalloc

    def replay(num_updates):
        stream = sliding_window(64, num_updates, window=24, seed=11)
        alg = FullyDynamicMatching(64, 0.5, seed=11, min_rebuild_gap=2000)
        tracemalloc.start()
        alg.process(stream, collect_sizes=False)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert alg.dynamic_graph.num_updates == num_updates
        return peak

    short_peak = replay(2_000)
    long_peak = replay(20_000)
    assert long_peak < 3 * short_peak + 1_000_000, (
        f"peak grew with stream length: {short_peak} -> {long_peak}")
