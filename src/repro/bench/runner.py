"""Timing runner: executes scenarios and produces JSON-ready records.

A record is the schema every emitter/consumer agrees on::

    {"scenario": str, "params": {...}, "wall_s": float,
     "counters": {...}, "python": str, "timestamp": str}

``wall_s`` is the best (minimum) wall-clock over ``repeats`` timed executions
after ``warmup`` untimed ones -- minimum, not mean, because scheduling noise
only ever adds time.  ``counters`` merges the :class:`Counters` bag the
scenario charged during the fastest repeat with whatever derived values the
scenario function returned.

Independent specs have no shared state (each run charges a fresh
:class:`Counters` bag), so ``run_scenarios(jobs=N)`` fans them out over a
``ProcessPoolExecutor``.  The determinism contract: records come back merged
in *spec order* -- the exact order the serial loop would produce -- so the
emitted JSON is identical regardless of ``jobs`` except for ``wall_s`` and
``timestamp``.  When the caller opts in by passing a ``failures`` list, a
failing scenario is isolated into a failure entry instead of aborting the
suite, in both the serial and the pooled path; without it the first failure
raises.
"""

from __future__ import annotations

import platform
import time
import traceback
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.pool import ERROR, OK, run_spec_task
from repro.instrumentation.counters import Counters
from repro.bench.registry import RunSpec, Scenario


def run_scenario(scenario: Scenario, spec: RunSpec) -> Dict[str, object]:
    """Execute one spec (warmup + repeats) and return its record."""
    for _ in range(spec.warmup):
        scenario.fn(spec, Counters())

    best_wall: Optional[float] = None
    best_counters: Dict[str, float] = {}
    best_latency: Optional[Dict[str, float]] = None
    for _ in range(spec.repeats):
        counters = Counters()
        start = time.perf_counter()
        values = scenario.fn(spec, counters)
        wall = time.perf_counter() - start
        merged = counters.as_dict()
        latency: Optional[Dict[str, float]] = None
        if values:
            values = dict(values)
            # reserved key: a {"p50", "p99", "max", ...} mapping of per-update
            # latencies (seconds) lands as a top-level record section rather
            # than being flattened into the scalar counter bag
            raw_latency = values.pop("latency", None)
            if raw_latency is not None:
                latency = {str(k): float(v) for k, v in raw_latency.items()}
            for key, value in values.items():
                merged[str(key)] = float(value)
        if best_wall is None or wall < best_wall:
            best_wall, best_counters, best_latency = wall, merged, latency

    record: Dict[str, object] = {
        "scenario": scenario.name,
        "params": spec.params(),
        "wall_s": best_wall,
        "counters": best_counters,
        "python": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if best_latency is not None:
        record["latency"] = best_latency
    return record


def expand_all(scens: Iterable[Scenario],
               eps: Optional[Sequence[float]] = None,
               **spec_kwargs) -> List[Tuple[Scenario, RunSpec]]:
    """The deterministic (scenario, spec) work list of a suite run.

    One spec per scenario and value of ``eps``: scenarios in the order
    given, each swept over ``eps`` in the order given.  Without ``eps``
    every scenario gets one spec with ``eps=None`` (its own default).  This
    order is the merge order of every run mode: serial execution walks it
    directly, and a pooled run reassembles worker results back into it.
    ``spec_kwargs`` are the other :class:`RunSpec` fields; a ``RunSpec``
    raises :class:`ValueError` for ``repeats < 1`` or ``warmup < 0``.
    """
    sweep = [None] if eps is None else list(eps)
    return [(scenario, RunSpec(scenario=scenario.name, suite=scenario.suite,
                               eps=value, **spec_kwargs))
            for scenario in scens for value in sweep]


def suite_label(selection: str, smoke: bool,
                eps: Optional[Sequence[float]] = None) -> str:
    """The ``<label>`` of the ``BENCH_<label>.json`` a run writes.

    A run of every scenario (``selection == "all"``) is named by its mode:
    a smoke run writes ``BENCH_all.json``, the committed baseline the smoke
    gate compares against, and a full-size run writes the paper-regime
    records ``BENCH_paper.json``, so it never overwrites that baseline.  A
    smoke run with ``eps`` values keys its records by those values, so it
    writes ``BENCH_all_eps.json`` and leaves the baseline alone too.  Any
    other selection keeps its own label.
    """
    if selection != "all":
        return selection
    if not smoke:
        return "paper"
    return "all_eps" if eps else "all"


def profile_specs(work: Iterable[Tuple[Scenario, RunSpec]], out_dir,
                  top: int = 30, echo_top: int = 10) -> List[str]:
    """cProfile one execution of each (scenario, spec); write text reports.

    One ``profile_<scenario>.txt`` per spec (with an ``_eps<eps>`` suffix
    when the spec pins eps) lands in ``out_dir`` (created on demand),
    holding the top-``top`` cumulative-time rows --
    the artefact future perf PRs cite instead of guessing at hotspots.
    The top-``echo_top`` rows are also echoed to stdout so a CI log shows
    the hotspots without fishing the report file out of the artefacts
    (``echo_top=0`` silences the echo).  Profiled executions are separate
    from the timed repeats, so ``wall_s`` in the emitted records is never
    polluted by profiler overhead.  Returns the written paths.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: List[str] = []
    for scenario, spec in work:
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            scenario.fn(spec, Counters())
        finally:
            profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        suffix = "" if spec.eps is None else f"_eps{spec.eps:g}"
        path = out / f"profile_{scenario.name}{suffix}.txt"
        path.write_text(
            f"# cProfile of scenario {scenario.name!r} "
            f"(smoke={spec.smoke}, eps={spec.eps}, seed={spec.seed}); "
            f"top {top} by cumulative time\n" + buffer.getvalue(),
            encoding="utf-8")
        paths.append(str(path))
        if echo_top > 0:
            echo = io.StringIO()
            pstats.Stats(profiler, stream=echo).sort_stats(
                "cumulative").print_stats(echo_top)
            print(f"-- hotspots: {scenario.name}, "
                  f"top {echo_top} by cumulative time --")
            print(echo.getvalue().rstrip())
    return paths


def run_scenarios(scens: Iterable[Scenario], progress=None, jobs: int = 1,
                  totals: Optional[Counters] = None,
                  failures: Optional[List[Dict[str, str]]] = None,
                  **spec_kwargs) -> List[Dict[str, object]]:
    """Run every scenario over its expanded specs; returns all records.

    ``spec_kwargs`` are :func:`expand_all`'s: ``eps`` (a sequence of values
    to sweep) and the other :class:`RunSpec` fields.

    ``jobs`` > 1 executes the expanded specs in a ``ProcessPoolExecutor``
    (each worker returns its record with the spec's ``Counters`` snapshot
    inside); records are merged back in spec order, so output is
    byte-identical to a serial run modulo ``wall_s``/``timestamp``.

    ``progress`` (optional) is called with each finished record in spec
    order, as results become available -- the CLI uses it to stream one
    line per run.  ``totals`` (optional) accumulates every record's
    counters into one suite-level bag.

    Failure handling: pass ``failures`` (a list) to isolate a spec whose
    execution raises into an entry (``{"scenario", "error"}``)
    while the rest of the suite completes.  Without it, the first failure
    raises; scenarios must never go missing from the result silently.
    Spec *expansion* errors (``repeats < 1``, ``warmup < 0``) always
    raise: they are usage errors, not scenario failures.

    A worker that dies outright (``os._exit``, a segfault) breaks its
    pool.  Specs that finished before the break keep their records; every
    other spec of that pool re-runs alone in a one-worker pool, so a second
    death is blamed on exactly the spec that caused it (a ``worker died``
    failure) and the other specs still produce records.
    """
    work = expand_all(scens, **spec_kwargs)
    records: List[Dict[str, object]] = []

    def handle(scenario: Scenario, tag: str, payload) -> None:
        if tag != OK:
            if failures is None:
                raise RuntimeError(
                    f"scenario {scenario.name!r} failed:\n{payload}")
            failures.append({"scenario": scenario.name,
                             "error": str(payload)})
            return
        if totals is not None:
            totals.merge(payload["counters"])
        records.append(payload)
        if progress is not None:
            progress(payload)

    if jobs <= 1 or len(work) <= 1:
        for scenario, spec in work:
            try:
                outcome = (OK, run_scenario(scenario, spec))
            except Exception:  # noqa: BLE001 - isolate per scenario
                if failures is None:
                    raise
                # full traceback, matching what pooled workers ship back
                outcome = (ERROR, traceback.format_exc())
            handle(scenario, *outcome)
        return records

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.bench.results import find_repo_root

    root = str(find_repo_root())
    outcomes: Dict[int, Tuple[str, object]] = {}
    emitted = 0

    def emit_ready() -> None:
        # hand outcomes to handle() in spec order as they become available
        nonlocal emitted
        while emitted in outcomes:
            handle(work[emitted][0], *outcomes.pop(emitted))
            emitted += 1

    def run_pool(indices: List[int]) -> List[int]:
        """Run ``indices`` in one pool; returns those a worker death left
        without an outcome."""
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(indices)))
        try:
            futures = [pool.submit(run_spec_task,
                                   (work[i][0].name, work[i][1], root))
                       for i in indices]
            lost: List[int] = []
            for i, future in zip(indices, futures):
                try:
                    outcomes[i] = future.result()
                except BrokenProcessPool:
                    lost.append(i)
                emit_ready()
            return lost
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    for i in run_pool(list(range(len(work)))):
        if run_pool([i]):
            # alone in its pool, the worker death is this spec's own
            outcomes[i] = (ERROR, "worker died running scenario "
                                  f"{work[i][0].name!r}")
            emit_ready()
    return records
