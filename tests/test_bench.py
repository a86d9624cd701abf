"""Tests for the unified benchmark harness (``repro.bench``).

Covers the registry, the timing runner and its JSON record schema, emission
round-trips, the compare mode's exit codes, benchmark-module discovery, the
``--eps`` sweep and asserted paper bounds, and the tier-1 smoke gate:
``REPRO_BENCH_SMOKE=1 python -m repro.bench run --all --smoke`` must keep
every registered scenario runnable in seconds and every asserted bound
holding.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.bench import (
    RECORD_KEYS,
    RunSpec,
    compare_records,
    get_scenario,
    load_benchmark_modules,
    load_records,
    register,
    regressions,
    run_scenario,
    scenarios,
    suite_label,
    suite_names,
    unregister,
    validate_record,
    write_suite,
)
from repro.bench import cli
from repro.bench.compare import record_key
from repro.instrumentation.counters import Counters

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

ALL_SCENARIOS = (
    "ablation_schedule", "fig1_structures", "fig2_overtake",
    "fig3_hprime_decay", "fig4_sampling", "lemma53_initial_matching",
    "quality_vs_eps", "scaling_n", "table1_congest", "table1_mpc",
    "table2_chaos", "table2_dynamic", "table2_latency", "table2_offline",
    "table2_omv", "table2_realgraph",
)


@pytest.fixture
def toy_scenario():
    calls = []

    @register("_toy", suite="_toysuite", description="test-only")
    def _toy(spec, counters):
        calls.append(spec)
        counters.add("work", 3)
        return {"derived": 1.5}

    yield get_scenario("_toy"), calls
    unregister("_toy")


class TestRegistry:
    def test_register_and_get(self, toy_scenario):
        scenario, _ = toy_scenario
        assert scenario.suite == "_toysuite"
        assert "_toysuite" in suite_names()
        assert [s.name for s in scenarios("_toysuite")] == ["_toy"]

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("_no_such_scenario")

    def test_reregistration_overwrites(self, toy_scenario):
        @register("_toy", suite="_othersuite")
        def _toy2(spec, counters):
            return None

        assert get_scenario("_toy").suite == "_othersuite"


class TestRunner:
    def test_record_schema_and_counter_merge(self, toy_scenario):
        scenario, _ = toy_scenario
        spec = RunSpec(scenario="_toy", suite="_toysuite", eps=0.5, seed=7,
                       smoke=True)
        record = validate_record(run_scenario(scenario, spec))
        assert set(RECORD_KEYS) <= set(record)
        assert record["scenario"] == "_toy"
        assert record["wall_s"] >= 0
        assert record["counters"] == {"work": 3.0, "derived": 1.5}
        params = record["params"]
        assert params["eps"] == 0.5
        assert params["seed"] == 7
        assert params["smoke"] is True

    def test_warmup_and_repeats_execute(self, toy_scenario):
        scenario, calls = toy_scenario
        spec = RunSpec(scenario="_toy", suite="_toysuite", repeats=3, warmup=2)
        run_scenario(scenario, spec)
        assert len(calls) == 5  # 2 warmup + 3 timed

    def test_resolved_eps_default(self):
        assert RunSpec(scenario="x", suite="y").resolved_eps() == 0.25
        assert RunSpec(scenario="x", suite="y", eps=0.5).resolved_eps() == 0.5


class TestLatency:
    """Per-update latency capture: recorder, record lifting, compare path."""

    def test_summarize_nearest_rank(self):
        from repro.bench import summarize_ns

        # nearest-rank: p50 of 1..10 is the 5th sample, p99 the 10th
        samples = [i * 1_000_000 for i in range(10, 0, -1)]
        summary = summarize_ns(samples)
        assert summary["p50"] == pytest.approx(0.005)
        assert summary["p99"] == pytest.approx(0.010)
        assert summary["max"] == pytest.approx(0.010)
        assert summary["count"] == 10.0

    def test_summarize_rejects_empty(self):
        from repro.bench import summarize_ns

        with pytest.raises(ValueError, match="no latency samples"):
            summarize_ns([])

    def test_recorder_measures_calls(self):
        from repro.bench import LatencyRecorder

        recorder = LatencyRecorder()
        for _ in range(4):
            recorder.measure(lambda: sum(range(100)))
        summary = recorder.summary()
        assert summary["count"] == 4.0
        assert 0 < summary["p50"] <= summary["p99"] <= summary["max"]

    def test_run_scenario_lifts_latency_section(self):
        @register("_lat", suite="_toysuite", description="test-only")
        def _lat(spec, counters):
            counters.add("work", 1)
            return {"latency": {"p50": 0.001, "p99": 0.002, "max": 0.003,
                                "count": 5},
                    "speedup": 7.0}

        try:
            scenario = get_scenario("_lat")
            spec = RunSpec(scenario="_lat", suite="_toysuite", smoke=True)
            record = validate_record(run_scenario(scenario, spec))
        finally:
            unregister("_lat")
        # the reserved "latency" mapping becomes a top-level record section;
        # the scalar extras still merge into the counter bag
        assert record["latency"] == {"p50": 0.001, "p99": 0.002,
                                     "max": 0.003, "count": 5.0}
        assert record["counters"] == {"work": 1.0, "speedup": 7.0}
        assert "latency" not in record["counters"]

    def test_validate_rejects_non_mapping_latency(self):
        record = {"scenario": "s", "params": {}, "wall_s": 0.1,
                  "counters": {}, "python": "3", "timestamp": "t",
                  "latency": 0.002}
        with pytest.raises(ValueError, match="latency"):
            validate_record(record)

    def _record_with_latency(self, p99):
        return [{"scenario": "s", "params": {},
                 "wall_s": 1.0, "counters": {"p99": 123.0},
                 "latency": {"p50": p99 / 2, "p99": p99},
                 "python": "3", "timestamp": "t"}]

    def test_compare_dotted_latency_metric(self):
        from repro.bench.compare import metric_value

        old = self._record_with_latency(0.001)
        new = self._record_with_latency(0.004)
        # dotted path reads the nested section, not the "p99" counter
        assert metric_value(old[0], "latency.p99") == pytest.approx(0.001)
        rows = compare_records(old, new, fail_over=3.0, metric="latency.p99")
        assert regressions(rows) and rows[0]["ratio"] == pytest.approx(4.0)

    def test_dotted_metric_missing_section_falls_back_to_counters(self):
        from repro.bench.compare import metric_value

        record = {"scenario": "s", "params": {}, "wall_s": 1.0,
                  "counters": {"latency.p99": 9.0}, "python": "3",
                  "timestamp": "t"}
        assert metric_value(record, "latency.p99") == pytest.approx(9.0)


class TestResults:
    def _record(self, scenario="s1", wall=0.5):
        return {"scenario": scenario,
                "params": {"suite": "t", "workload": "default",
                           "algorithm": "default", "eps": None,
                           "seed": 0, "repeats": 1, "warmup": 0,
                           "smoke": True},
                "wall_s": wall, "counters": {"work": 1.0},
                "python": "3", "timestamp": "2026-07-29T00:00:00+00:00"}

    def test_json_round_trip(self, tmp_path):
        records = [self._record("s1"), self._record("s2")]
        path = write_suite(records, "tsuite", root=tmp_path)
        assert path == tmp_path / "BENCH_tsuite.json"
        loaded = load_records(path)
        assert loaded == records
        # the suite file is the one output of a run
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_tsuite.json"]

    def test_validate_rejects_missing_keys(self):
        bad = self._record()
        del bad["counters"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_record(bad)

    def test_load_rejects_non_record_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_records(path)


class TestCompare:
    def _records(self, wall):
        return [{"scenario": "s", "params": {"eps": None},
                 "wall_s": wall, "counters": {"oracle_calls": 10.0},
                 "python": "3", "timestamp": "t"}]

    def test_regression_flagged(self):
        rows = compare_records(self._records(1.0), self._records(1.3),
                               fail_over=1.2)
        assert regressions(rows) and rows[0]["ratio"] == pytest.approx(1.3)

    def test_within_threshold_passes(self):
        rows = compare_records(self._records(1.0), self._records(1.1),
                               fail_over=1.2)
        assert not regressions(rows)

    def test_counter_metric(self):
        old, new = self._records(1.0), self._records(1.0)
        new[0]["counters"]["oracle_calls"] = 30.0
        rows = compare_records(old, new, fail_over=1.2, metric="oracle_calls")
        assert regressions(rows) and rows[0]["ratio"] == pytest.approx(3.0)

    def test_unmatched_records_never_regress(self):
        extra = {"scenario": "other", "params": {"eps": None},
                 "wall_s": 9.0, "counters": {}, "python": "3", "timestamp": "t"}
        rows = compare_records(self._records(1.0),
                               self._records(1.0) + [extra])
        assert not regressions(rows)
        assert {"compared", "added"} == {row["status"] for row in rows}

    def test_duplicate_keys_are_rejected(self, tmp_path, capsys):
        # a key occurring twice would keep only its last record and compare
        # against that one silently; both sides must be one record per key
        twice = self._records(1.0) + self._records(5.0)
        for old, new, side in ((twice, self._records(1.0), "old"),
                               (self._records(1.0), twice, "new")):
            with pytest.raises(ValueError, match=f"{side} records share"):
                compare_records(old, new)
        old = write_suite(self._records(1.0), "old", root=tmp_path / "a")
        new = write_suite(twice, "new", root=tmp_path / "b")
        assert cli.main(["compare", str(old), str(new)]) == 2
        assert "share the key" in capsys.readouterr().err

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = write_suite(self._records(1.0), "old", root=tmp_path / "a")
        new = write_suite(self._records(1.3), "new", root=tmp_path / "b")
        assert cli.main(["compare", str(old), str(new),
                         "--fail-over", "1.2"]) == 1
        assert cli.main(["compare", str(old), str(new),
                         "--fail-over", "1.5"]) == 0
        assert cli.main(["compare", str(old),
                         str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()


class TestDiscovery:
    def test_all_benchmark_modules_register(self):
        load_benchmark_modules()
        registered = {s.name for s in scenarios()}
        missing = set(ALL_SCENARIOS) - registered
        assert not missing, f"scenarios not registered: {sorted(missing)}"
        assert {"table1", "table2", "figures"} <= set(suite_names())

    def test_run_cli_requires_a_selection(self, capsys):
        assert cli.main(["run"]) == 2
        assert cli.main(["run", "--suite", "_no_such_suite"]) == 2
        capsys.readouterr()

    def test_run_list_enumerates_without_running(self, toy_scenario, capsys):
        _, calls = toy_scenario
        # bare --list enumerates everything; with a selection, just that
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in out
        assert "selectors" in out and "workload" in out
        assert cli.main(["run", "--suite", "_toysuite", "--list"]) == 0
        out = capsys.readouterr().out
        assert "_toy" in out and "table2_dynamic" not in out
        assert not calls  # nothing was executed

    def test_single_scenario_run_does_not_clobber_suite_file(
            self, toy_scenario, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert cli.main(["run", "--scenario", "_toy", "--smoke"]) == 0
        # labeled by scenario name, so BENCH_<suite>.json stays intact --
        # also when --suite is passed alongside --scenario
        assert (tmp_path / "BENCH__toy.json").exists()
        assert cli.main(["run", "--suite", "_toysuite",
                         "--scenario", "_toy", "--smoke"]) == 0
        assert not (tmp_path / "BENCH__toysuite.json").exists()
        capsys.readouterr()

    def test_run_cli_rejects_unknown_workload(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        # the scenario itself raises on the unknown value; that is an
        # isolated per-scenario failure (exit 1), and nothing gets written
        assert cli.main(["run", "--scenario", "table2_dynamic", "--smoke",
                         "--workload", "Churn"]) == 1  # wrong case
        assert "unknown workload" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_table2_dynamic.json").exists()

    def test_run_cli_rejects_undeclared_selectors(self, toy_scenario,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        # _toy declares no selectors: any non-default workload/algorithm
        # would be recorded verbatim without influencing the run
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert cli.main(["run", "--scenario", "_toy", "--smoke",
                         "--workload", "bogus"]) == 2
        assert cli.main(["run", "--scenario", "_toy", "--smoke",
                         "--algorithm", "bogus"]) == 2
        assert "does not interpret" in capsys.readouterr().err
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_profile_flag_writes_hotspot_reports(self, toy_scenario,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert cli.main(["run", "--scenario", "_toy", "--smoke",
                        "--profile"]) == 0
        reports = sorted(p.name for p in (tmp_path / "results").glob(
            "profile_*.txt"))
        assert reports == ["profile__toy.txt"]
        text = (tmp_path / "results" / "profile__toy.txt").read_text()
        assert "cumulative" in text  # pstats output, sorted by cumtime
        # the top hotspots are also echoed to stdout so CI logs show them
        # without fishing the report files out of the artefacts
        out = capsys.readouterr().out
        assert "-- hotspots: _toy, top 10 by cumulative time --" in out
        assert "cumulative" in out

    def test_run_cli_resilience_flags_off_by_default(
            self, toy_scenario, tmp_path, monkeypatch, capsys):
        """A run records only how it was parallelised and how long it
        took; no execution-policy keys ride along in ``meta``."""
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert cli.main(["run", "--scenario", "_toy", "--smoke"]) == 0
        with open(tmp_path / "BENCH__toy.json") as handle:
            meta = json.load(handle)["meta"]
        assert set(meta) == {"jobs", "suite_wall_s"}
        assert meta["jobs"] == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [
        ("--timeout-s", "5"), ("--retries", "1"), ("--backoff-s", "1"),
        ("--faults", "seed=3")])
    def test_run_cli_rejects_deleted_resilience_flags(
            self, toy_scenario, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        _scenario, calls = toy_scenario
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--scenario", "_toy", "--smoke", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert calls == [] and not list(tmp_path.iterdir())


#: scenarios for the one-harness tests, loaded through
#: REPRO_BENCH_EXTRA_MODULES so --jobs workers register them too; discovery
#: puts benchmarks/ on sys.path first, so they use the benchmarks' own
#: bound helper
SWEEP_MODULE = textwrap.dedent(
    """
    from _common import check_bound
    from repro.bench import register

    @register("_sweep_a", suite="_sweepsuite")
    def _sweep_a(spec, counters):
        return {"eps_seen": spec.resolved_eps()}

    @register("_sweep_b", suite="_sweepsuite")
    def _sweep_b(spec, counters):
        return {"eps_seen": spec.resolved_eps()}

    @register("_broken_bound", suite="_claimsuite")
    def _broken_bound(spec, counters):
        values = {"size_over_opt": 0.5}
        check_bound(spec, values, "size_over_opt",
                    1 / (1 + spec.resolved_eps()))
        return values
    """
)


@pytest.fixture
def sweep_scenarios(tmp_path, monkeypatch):
    module_path = tmp_path / "sweep_scenarios.py"
    module_path.write_text(SWEEP_MODULE)
    monkeypatch.setenv("REPRO_BENCH_EXTRA_MODULES", str(module_path))
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
    yield tmp_path
    for name in ("_sweep_a", "_sweep_b", "_broken_bound"):
        unregister(name)


class TestOneHarness:
    def test_eps_sweep_is_one_record_per_scenario_and_eps(
            self, sweep_scenarios, capsys):
        assert cli.main(["run", "--suite", "_sweepsuite", "--smoke",
                         "--jobs", "2", "--eps", "0.5", "0.25"]) == 0
        records = load_records(sweep_scenarios / "BENCH__sweepsuite.json")
        assert [(r["scenario"], r["params"]["eps"]) for r in records] == [
            ("_sweep_a", 0.5), ("_sweep_a", 0.25),
            ("_sweep_b", 0.5), ("_sweep_b", 0.25)]
        assert [r["counters"]["eps_seen"] for r in records] == [
            0.5, 0.25, 0.5, 0.25]
        # one suite file holds the whole sweep: compare keys stay distinct
        assert len({record_key(r) for r in records}) == 4
        rows = compare_records(records, records)
        assert [row["status"] for row in rows] == ["compared"] * 4

        # without --eps a run is one record per scenario at its own eps
        assert cli.main(["run", "--suite", "_sweepsuite", "--smoke"]) == 0
        records = load_records(sweep_scenarios / "BENCH__sweepsuite.json")
        assert [(r["scenario"], r["params"]["eps"]) for r in records] == [
            ("_sweep_a", None), ("_sweep_b", None)]
        assert [r["counters"]["eps_seen"] for r in records] == [0.25, 0.25]
        capsys.readouterr()

    def test_profile_expands_the_eps_sweep(self, sweep_scenarios, capsys):
        assert cli.main(["run", "--scenario", "_sweep_a", "--smoke",
                         "--eps", "0.5", "0.25", "--profile"]) == 0
        reports = sorted(p.name for p in
                         (sweep_scenarios / "results").glob("profile_*"))
        assert reports == ["profile__sweep_a_eps0.25.txt",
                           "profile__sweep_a_eps0.5.txt"]
        capsys.readouterr()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_broken_bound_fails_the_run(self, sweep_scenarios, capsys, jobs):
        # two specs, so --jobs 2 takes the pooled path
        assert cli.main(["run", "--scenario", "_sweep_a",
                         "--scenario", "_broken_bound", "--smoke",
                         "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert "FAILED _broken_bound" in err
        assert ("scenario _broken_bound: size_over_opt = 0.5 breaks the "
                "bound size_over_opt >= 0.8") in err
        records = load_records(sweep_scenarios / "BENCH_custom.json")
        assert [r["scenario"] for r in records] == ["_sweep_a"]

    def test_empty_final_graph_meets_the_quality_bound(
            self, tmp_path, monkeypatch, capsys):
        # ors_reveal deletes every edge it reveals: the empty matching is
        # optimal on the final graph, so the asserted bound must hold
        monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
        assert cli.main(["run", "--scenario", "table2_dynamic",
                         "--scenario", "table2_offline", "--smoke",
                         "--workload", "ors_reveal"]) == 0
        records = load_records(tmp_path / "BENCH_custom.json")
        assert [r["counters"]["size_over_opt"] for r in records] == [1.0, 1.0]
        capsys.readouterr()

    def test_check_bound_records_the_bound(self):
        load_benchmark_modules()
        from _common import BoundViolation, check_bound

        spec = RunSpec(scenario="s", suite="t", eps=0.5)
        values = {"approx_factor": 3.0}
        check_bound(spec, values, "approx_factor", 4.0, at_most=True)
        assert values == {"approx_factor": 3.0, "approx_factor_bound": 4.0}
        values = {"worst": 1.6}
        with pytest.raises(BoundViolation, match=r"scenario s: worst = 1.6 "
                                                 r"breaks the bound worst "
                                                 r"<= 1.5"):
            check_bound(spec, values, "worst", 1.5, at_most=True,
                        bound_key="target")
        assert values["target"] == 1.5

    def test_all_run_is_named_by_mode(self):
        # a full-size run of every scenario must not overwrite the committed
        # smoke baseline BENCH_all.json that the smoke gate compares against
        assert suite_label("all", smoke=True) == "all"
        assert suite_label("all", smoke=False) == "paper"
        assert suite_label("table1", smoke=False) == "table1"
        assert suite_label("_toy", smoke=True) == "_toy"
        # a smoke sweep keys its records by eps, so it must not overwrite
        # the baseline either
        assert suite_label("all", smoke=True, eps=[0.25]) == "all_eps"
        assert suite_label("all", smoke=False, eps=[0.5, 0.25]) == "paper"
        assert suite_label("_toy", smoke=True, eps=[0.25]) == "_toy"


# --------------------------------------------------------------- smoke gate
def test_smoke_gate_all_scenarios(tmp_path):
    """Every registered scenario stays runnable in seconds (CI smoke gate).

    Runs with ``--jobs 2`` so the multi-process execution path (worker spec
    dispatch, record merge-back, counter snapshots) is exercised on every
    tier-1 run, not just in its unit tests.
    """
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    env["REPRO_BENCH_OUT"] = str(tmp_path)
    # pin the hash seed: the gate compares records against the committed
    # baseline, and an unpinned subprocess would silently retest under
    # whatever seed the host chose -- failures must reproduce byte-for-byte
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "run", "--all", "--smoke",
         "--jobs", "2"],
        capture_output=True, text=True, timeout=240, env=env, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stderr + result.stdout
    records = load_records(tmp_path / "BENCH_all.json")
    by_scenario = {record["scenario"] for record in records}
    assert set(ALL_SCENARIOS) <= by_scenario
    for record in records:
        assert record["params"]["smoke"] is True
        assert record["wall_s"] >= 0
    by_name = {record["scenario"]: record for record in records}
    assert len(by_name) == len(records)  # one record per scenario

    # trace record/replay parity: table2_realgraph re-records the karate
    # stream from the raw edge list and fails if it drifts from the
    # committed trace fixture (benchmarks/data/karate_w40.npz) before
    # replaying it
    assert by_name["table2_realgraph"]["counters"]["trace_updates"] == 116.0

    # the latency scenario must emit its per-update latency section, with a
    # sane tail ordering (acceptance criterion)
    latency = by_name["table2_latency"]["latency"]
    assert {"p50", "p99", "max"} <= set(latency)
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
    assert by_name["table2_latency"]["counters"][
        "p99_speedup_vs_rebuild"] >= 5.0

    # the chaos drill must recover to a byte-identical end state under its
    # fixed fault plan, and report recovery latency percentiles (acceptance
    # criterion)
    chaos = by_name["table2_chaos"]
    assert chaos["counters"]["end_state_equal"] == 1.0
    assert chaos["counters"]["chaos_crashes"] >= 2.0
    assert chaos["counters"]["chaos_restores"] >= 2.0
    latency = chaos["latency"]
    assert {"p50", "p99", "max"} <= set(latency)
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
    # snapshot overhead must be reported (acceptance criterion)
    assert chaos["counters"]["chaos_checkpoint_overhead_s"] > 0

    # ---- perf gate: wall-time regressions vs the committed baseline fail
    # loudly.  The threshold is generous (hosts differ, smoke runs are
    # seconds-scale and jobs=2 adds contention noise) -- it exists to catch
    # the 5x-class regressions a bad hot-path change introduces, not 20%
    # jitter.  Override with REPRO_BENCH_FAIL_OVER, or set it to "0" to
    # skip the gate entirely (e.g. on a known-slow CI host).
    fail_over = float(os.environ.get("REPRO_BENCH_FAIL_OVER", "3.0"))
    if fail_over > 0:
        baseline = load_records(os.path.join(REPO_ROOT, "BENCH_all.json"))
        rows = compare_records(baseline, records, fail_over=fail_over)
        # every baseline row must find its record: an unmatched baseline
        # row is reported "removed" and never counts as a regression, so a
        # key mismatch would pass this gate without comparing anything
        unmatched = [r["scenario"] for r in rows if r["status"] == "removed"]
        assert not unmatched, (
            f"committed BENCH_all.json rows with no smoke record: "
            f"{unmatched}")
        # ratio alone drowns in noise on milliseconds-scale rows (a 10ms
        # scenario jitters 3x under jobs=2 contention); require the
        # regression to also be absolutely large before failing
        min_delta_s = 0.15
        bad = [r for r in regressions(rows)
               if r["new"] - r["old"] >= min_delta_s]
        assert not bad, (
            f"wall-time regression(s) vs committed BENCH_all.json "
            f"(fail-over {fail_over:g}x): "
            + ", ".join(f"{r['scenario']} "
                        f"{r['old']:.3f}s -> {r['new']:.3f}s "
                        f"({r['ratio']:.2f}x)" for r in bad))

        # ---- latency gate: the per-update latency tail (latency.p99,
        # currently only table2_latency emits it) regresses against the
        # same committed baseline.  Same ratio threshold; the absolute
        # floor is microseconds-scale because the metric is -- a p99 that
        # triples from 20us to 60us is scheduler noise, one that jumps
        # past 2ms means an O(n) cost leaked back into the update path.
        latency_rows = compare_records(baseline, records,
                                       fail_over=fail_over,
                                       metric="latency.p99")
        min_latency_delta_s = 0.002
        bad_latency = [r for r in regressions(latency_rows)
                       if r["new"] - r["old"] >= min_latency_delta_s]
        assert not bad_latency, (
            f"latency.p99 regression(s) vs committed BENCH_all.json "
            f"(fail-over {fail_over:g}x): "
            + ", ".join(f"{r['scenario']} "
                        f"{r['old'] * 1e3:.3f}ms -> {r['new'] * 1e3:.3f}ms "
                        f"({r['ratio']:.2f}x)" for r in bad_latency))

        # ---- checkpoint-overhead gate: the chaos drill's snapshot cost
        # (capture + encode + disk write, summed over the run) regresses
        # against the committed baseline.  Same ratio threshold; the floor
        # is 10ms because smoke runs take a handful of snapshots each
        # costing about a millisecond -- a breach means snapshots picked up
        # a real cost, not jitter.  Baselines predating the metric are
        # skipped by compare_records.
        ckpt_rows = compare_records(baseline, records,
                                    fail_over=fail_over,
                                    metric="chaos_checkpoint_overhead_s")
        min_ckpt_delta_s = 0.01
        bad_ckpt = [r for r in regressions(ckpt_rows)
                    if r["new"] - r["old"] >= min_ckpt_delta_s]
        assert not bad_ckpt, (
            f"chaos checkpoint-overhead regression(s) vs committed "
            f"BENCH_all.json (fail-over {fail_over:g}x): "
            + ", ".join(f"{r['scenario']} "
                        f"{r['old'] * 1e3:.3f}ms -> {r['new'] * 1e3:.3f}ms "
                        f"({r['ratio']:.2f}x)" for r in bad_ckpt))


# -------------------------------------------------- static analysis gate
def test_static_analysis_gate():
    """``python -m repro.analysis --check src/repro`` stays clean.

    The determinism & contract linter (hash-order, word-accounting,
    memo-contract, repair-journal families) gates every tier-1 run; new
    algorithm code must either satisfy the rules or carry a justified
    ``# repro: allow[...]`` pragma.  The committed baseline is empty by
    policy, so any exit 1 here is a *new* finding.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--check",
         os.path.join(REPO_ROOT, "src", "repro")],
        capture_output=True, text=True, timeout=120, env=env, cwd=REPO_ROOT)
    assert result.returncode == 0, (
        "repro.analysis --check found new violations:\n"
        + result.stdout + result.stderr)


# ------------------------------------------------ determinism sanitizer
@pytest.mark.parametrize("scenario",
                         ["table1_mpc", "table1_congest", "table2_dynamic",
                          "table2_latency", "table2_omv"])
def test_hash_seed_and_jobs_sanitizer(scenario):
    """BENCH records are byte-identical across PYTHONHASHSEED and --jobs.

    Runs the smoke scenario three times in subprocesses -- baseline
    (PYTHONHASHSEED=0, --jobs 1), a hash-seed variant (PYTHONHASHSEED=1)
    and a worker-count variant (--jobs 2) -- and byte-compares the records
    minus the honest wall-clock fields.  This is the runtime complement of
    the static hash-order rules: it checks the determinism *property*, not
    just the patterns that broke it before.  ``table1_mpc`` and
    ``table1_congest`` run the Section 5 framework, whose oracles are
    handed the derived graphs as edge lists (the MPC oracle scans their
    row order, the CONGEST oracle builds its network from them);
    ``table2_dynamic`` runs the full dynamic stack; ``table2_latency`` adds
    a ``latency`` section and a wall-clock ratio counter, which
    normalization must drop; ``table2_omv`` runs the maintainer on the
    OMv-backed weak oracle.
    """
    from repro.analysis.sanitizer import run_sanitizer

    result = run_sanitizer(scenario, seed=0, repo_root=REPO_ROOT,
                           timeout=240.0)
    assert result.ok, result.render()
    # both axes were actually compared against the baseline
    assert len(result.compared) == 2, result.render()
