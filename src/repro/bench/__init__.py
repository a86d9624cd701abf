"""Unified benchmark harness (``python -m repro.bench``).

The paper's quantitative claims are counts and trajectories (Table 1 oracle
invocations, Table 2 amortized update work), so every benchmark module is
one :class:`~repro.bench.registry.Scenario` registered here, which records
the paper's bound beside its measurement and fails when a guarantee does
not hold.  One runner executes any scenario with warmup/repeat timing and
:class:`~repro.instrumentation.counters.Counters` capture, once per value
of an ``--eps`` sweep; it emits the shared JSON record schema into one
``BENCH_<suite>.json`` at the repo root (``BENCH_all.json`` for the smoke
baseline, ``BENCH_paper.json`` for the full-size sweep), and a compare mode
diffs two runs so perf regressions fail loudly.  See the "Benchmark
harness" section of ARCHITECTURE.md.
"""

from repro.bench.registry import (
    RunSpec,
    Scenario,
    get_scenario,
    register,
    scenarios,
    suite_names,
    unregister,
)
from repro.bench.runner import (
    expand_all,
    run_scenario,
    run_scenarios,
    suite_label,
)
from repro.bench.results import (
    RECORD_KEYS,
    find_repo_root,
    load_records,
    validate_record,
    write_suite,
)
from repro.bench.compare import compare_records, regressions
from repro.bench.discovery import load_benchmark_modules
from repro.bench.latency import LatencyRecorder, summarize_ns

__all__ = [
    "LatencyRecorder",
    "RECORD_KEYS",
    "RunSpec",
    "Scenario",
    "compare_records",
    "expand_all",
    "find_repo_root",
    "get_scenario",
    "load_benchmark_modules",
    "load_records",
    "register",
    "regressions",
    "run_scenario",
    "run_scenarios",
    "scenarios",
    "suite_label",
    "suite_names",
    "summarize_ns",
    "unregister",
    "validate_record",
    "write_suite",
]
