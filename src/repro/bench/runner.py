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
raises (the historical contract).
"""

from __future__ import annotations

import platform
import time
import traceback
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.pool import ERROR, OK, TIMEOUT, run_spec_task
from repro.instrumentation.counters import Counters
from repro.bench.registry import RunSpec, Scenario
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.resilience.timeouts import TaskTimeout, deadline

#: extra wall-clock a pooled worker gets beyond ``timeout_s`` before the
#: parent declares it hung and terminates the pool (the worker's own SIGALRM
#: should have fired well within this window)
HUNG_WORKER_GRACE_S = 5.0


class InjectedCrash(RuntimeError):
    """A :class:`FaultPlan` crash landing in the serial runner.

    A pool worker models a planned crash as ``os._exit`` (a real process
    death); the serial runner cannot kill itself, so the same fault surfaces
    as this exception and goes through the identical retry path.
    """




def make_spec(scenario: Scenario, *, eps: Optional[float] = None,
              seed: int = 0, repeats: int = 1, warmup: int = 0,
              smoke: bool = False, workload: str = "default",
              algorithm: str = "default") -> RunSpec:
    """The :class:`RunSpec` of one scenario run.

    Raises :class:`ValueError` for a non-default selector the scenario does
    not interpret.
    """
    for selector, value in (("workload", workload), ("algorithm", algorithm)):
        if value != "default" and selector not in scenario.selectors:
            raise ValueError(
                f"scenario {scenario.name!r} does not interpret the "
                f"{selector} selector (got {value!r}); the emitted record "
                "would mislabel what actually ran")
    return RunSpec(scenario=scenario.name, suite=scenario.suite,
                   workload=workload, algorithm=algorithm, eps=eps,
                   seed=seed, repeats=repeats, warmup=warmup, smoke=smoke)


_runtime_primed = False


def _prime_runtime() -> None:
    """Exercise the lazily initialised library fast paths once per process.

    The first NumPy bulk call a process makes (``fromiter``/``unique``/ufunc
    dispatch set-up) costs tens of milliseconds.  Untamed, that one-time cost
    lands inside whichever spec a (pooled or serial) run happens to execute
    first and skews its ``wall_s``.  Priming is cheap (<2 ms warm), uniform
    across jobs settings, and keeps records measuring the algorithm rather
    than library initialisation.
    """
    global _runtime_primed
    if _runtime_primed:
        return
    _runtime_primed = True
    try:
        from repro.graph.graph import Graph

        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g.edge_list()
        g.arc_list()
        g.adjacency_matrix()
        g.induced_subgraph([0, 1, 2])
    except Exception:  # pragma: no cover  # repro: allow[swallowed-exception] -- best-effort cache warmup: a priming failure must not fail the run, and the real scenario will surface any genuine breakage
        pass


def run_scenario(scenario: Scenario, spec: RunSpec) -> Dict[str, object]:
    """Execute one spec (warmup + repeats) and return its record."""
    _prime_runtime()
    for _ in range(max(0, spec.warmup)):
        scenario.fn(spec, Counters())

    best_wall: Optional[float] = None
    best_counters: Dict[str, float] = {}
    best_latency: Optional[Dict[str, float]] = None
    for _ in range(max(1, spec.repeats)):
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
    """
    sweep = [None] if eps is None else list(eps)
    return [(scenario, make_spec(scenario, eps=value, **spec_kwargs))
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

    Packed-bitset kernel timing (:mod:`repro.core.kernels`) is enabled for
    the profiled execution; any kernels the scenario hit are appended to the
    report as a per-kernel ``calls / total / per-call`` table.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    from repro.core import kernels

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: List[str] = []
    for scenario, spec in work:
        kernels.reset_timings()
        kernels.enable_timing(True)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            scenario.fn(spec, Counters())
        finally:
            profiler.disable()
            kernels.enable_timing(False)
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        kernel_rows = kernels.timing_table()
        if kernel_rows:
            buffer.write("\n# packed-bitset kernels, "
                         "descending by total time\n")
            buffer.write(f"{'kernel':<24}{'calls':>10}{'total_ms':>12}"
                         f"{'per_call_us':>14}\n")
            for name, calls, total_ns in kernel_rows:
                buffer.write(f"{name:<24}{calls:>10}{total_ns / 1e6:>12.3f}"
                             f"{total_ns / max(1, calls) / 1e3:>14.3f}\n")
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


def _terminate_pool(pool) -> None:
    """Tear down a pool whose workers cannot be trusted to exit on their own.

    ``shutdown(wait=True)`` on a pool with a hung worker never returns, so
    the workers are terminated first.  Reaching into ``_processes`` is the
    only way the stdlib pool exposes its children; the attribute has been
    stable since 3.3 and the fallback (plain non-waiting shutdown) merely
    leaks the hung process until interpreter exit.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # noqa: BLE001  # repro: allow[swallowed-exception] -- terminating an already-dead child raises; the pool is being torn down for a failure that is recorded by the caller
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_serial_spec(scenario: Scenario, spec: RunSpec,
                     timeout_s: Optional[float], faults: Optional[FaultPlan],
                     policy: RetryPolicy, bump) -> Tuple[str, object]:
    """One spec through the serial path's fault/timeout/retry pipeline."""
    site = scenario.name  # the fault-plan site, as in pooled workers
    failures_seen = 0
    while True:
        try:
            if faults is not None:
                if faults.crashes_task(site, failures_seen):
                    raise InjectedCrash(
                        f"fault plan crashed {site} "
                        f"(attempt {failures_seen})")
                delay = faults.task_delay(site)
                if delay > 0:
                    time.sleep(delay)
            with deadline(timeout_s, label=f"scenario {scenario.name}"):
                return (OK, run_scenario(scenario, spec))
        except (TaskTimeout, InjectedCrash) as exc:
            bump("timeouts" if isinstance(exc, TaskTimeout)
                 else "worker_crashes")
            failures_seen += 1
            if not policy.retryable(failures_seen):
                return (ERROR, str(exc))
            bump("retries")
            backoff = policy.backoff_s(failures_seen)
            if backoff > 0:
                time.sleep(backoff)


def run_scenarios(scens: Iterable[Scenario], progress=None, jobs: int = 1,
                  totals: Optional[Counters] = None,
                  failures: Optional[List[Dict[str, str]]] = None,
                  timeout_s: Optional[float] = None,
                  retry: Optional[RetryPolicy] = None,
                  faults: Optional[FaultPlan] = None,
                  resilience: Optional[Dict[str, int]] = None,
                  **spec_kwargs) -> List[Dict[str, object]]:
    """Run every scenario over its expanded specs; returns all records.

    ``spec_kwargs`` are :func:`expand_all`'s: ``eps`` (a sequence of values
    to sweep) and the :func:`make_spec` fields.

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
    raises -- the historical contract; scenarios must never go missing from
    the result silently.  Spec *expansion* errors (unknown selectors)
    always raise: they are usage errors, not scenario failures.

    Resilience (see ARCHITECTURE.md "Fault model & recovery"):

    * ``timeout_s`` bounds each spec's wall clock.  Serially (and inside
      every pool worker) the deadline is a SIGALRM; pooled, the parent
      additionally enforces ``timeout_s`` plus a queueing allowance plus
      :data:`HUNG_WORKER_GRACE_S` from outside, terminating a wedged
      worker the signal could not interrupt.
    * ``retry`` bounds how often a crashed/timed-out spec is re-attempted
      (default: never) with the policy's deterministic backoff between
      attempts.  Only crashes and timeouts retry; a scenario that raises
      is a bug and fails fast as before.
    * A hard worker death (``BrokenProcessPool``) no longer aborts the
      suite: already-finished futures are harvested, the pool is rebuilt,
      and every unfinished spec re-runs in *isolation* (one single-worker
      pool at a time) so the breakage is blamed on exactly the spec that
      caused it -- that spec degrades to an error record, innocent
      bystanders just re-run.
    * ``faults`` injects a deterministic
      :class:`~repro.resilience.faults.FaultPlan` (worker crashes via
      ``os._exit`` in pool workers, :class:`InjectedCrash` serially, plus
      straggler delays) -- the chaos path the resilience tests drive.
    * ``resilience`` (a dict) accumulates event counts: ``worker_crashes``,
      ``hung_workers``, ``timeouts``, ``retries``, ``pool_rebuilds``,
      ``isolated_specs``.
    """
    work = expand_all(scens, **spec_kwargs)
    records: List[Dict[str, object]] = []
    policy = retry if retry is not None else RetryPolicy()
    stats: Dict[str, int] = resilience if resilience is not None else {}

    def bump(key: str, amount: int = 1) -> None:
        stats[key] = stats.get(key, 0) + amount

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
            if failures is None and faults is None and timeout_s is None:
                # historical raise-on-error contract: let it propagate as-is
                handle(scenario, OK, run_scenario(scenario, spec))
                continue
            try:
                outcome = _run_serial_spec(scenario, spec, timeout_s, faults,
                                           policy, bump)
            except Exception:  # noqa: BLE001 - isolate per scenario
                if failures is None:
                    # historical raise-on-error contract
                    raise
                # full traceback, matching what pooled workers ship back
                outcome = (ERROR, traceback.format_exc())
            handle(scenario, *outcome)
        return records

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FuturesTimeout

    from repro.bench.results import find_repo_root

    root = str(find_repo_root())
    completed: Dict[int, Tuple[str, object]] = {}
    emitted = 0

    def emit_ready() -> None:
        # stream results to handle() in spec order as they become available
        nonlocal emitted
        while emitted < len(work) and emitted in completed:
            scenario = work[emitted][0]
            outcome = completed[emitted]
            emitted += 1
            handle(scenario, *outcome)

    failures_seen = [0] * len(work)

    def make_task(index: int):
        scenario, spec = work[index]
        return (scenario.name, spec, root, timeout_s, faults,
                failures_seen[index])

    pending = list(range(len(work)))
    isolate = False  # after a pool breakage: one spec per pool, exact blame
    while pending:
        batch, remainder = (pending[:1], pending[1:]) if isolate \
            else (pending, [])
        workers = min(jobs, len(batch))
        pool = ProcessPoolExecutor(max_workers=workers)
        started = time.monotonic()
        futures = {i: pool.submit(run_spec_task, make_task(i))
                   for i in batch}
        broken = False
        survivors: List[int] = []

        def note_failure(index: int, kind: str, error: str) -> None:
            # one definitive failure of spec ``index``: retry or record
            bump(kind)
            failures_seen[index] += 1
            if policy.retryable(failures_seen[index]):
                bump("retries")
                survivors.append(index)
            else:
                completed[index] = (ERROR, error)

        def walk_one(position: int, i: int) -> bool:
            """Resolve one future; returns whether the pool broke under it."""
            scenario = work[i][0]
            if broken:
                # the pool is gone; harvest finished results, requeue the rest
                if futures[i].done():
                    try:
                        completed[i] = futures[i].result(timeout=0)
                        return True
                    except Exception:  # noqa: BLE001  # repro: allow[swallowed-exception] -- a done-but-raising future in a broken pool means this spec died mid-run; it is requeued in survivors and the crash is re-observed and blamed on the isolated retry
                        pass
                survivors.append(i)
                return True
            wait: Optional[float] = None
            if timeout_s is not None:
                # a queued task waits for up to position // workers
                # predecessors on its worker, each bounded by timeout_s
                budget = HUNG_WORKER_GRACE_S + \
                    timeout_s * (position // workers + 1)
                wait = max(0.1, started + budget - time.monotonic())
            try:
                tag, payload = futures[i].result(timeout=wait)
            except FuturesTimeout:
                # the worker's own SIGALRM never fired: it is wedged beyond
                # signals; only killing the pool reclaims the worker
                note_failure(i, "hung_workers",
                             f"scenario {scenario.name!r} exceeded the "
                             f"{timeout_s:g}s timeout and its worker had to "
                             "be terminated")
                return True
            except Exception as exc:  # noqa: BLE001 - BrokenProcessPool
                if isolate:
                    # this spec was alone in the pool: definitively guilty
                    note_failure(
                        i, "worker_crashes",
                        f"worker died running scenario {scenario.name!r}: "
                        f"{type(exc).__name__}: {exc}")
                else:
                    # breakage in a shared pool implicates every unfinished
                    # spec; blame is resolved by the isolation re-runs
                    bump("worker_crashes")
                    survivors.append(i)
                return True
            if tag == TIMEOUT:
                note_failure(i, "timeouts", str(payload))
            else:
                completed[i] = (tag, payload)
            emit_ready()
            return False

        try:
            for position, i in enumerate(batch):
                broken = walk_one(position, i) or broken
        except BaseException:
            # handle() raised (failures=None contract) or Ctrl-C: don't
            # leak live workers behind the propagating exception
            _terminate_pool(pool)
            raise
        if broken:
            _terminate_pool(pool)
            bump("pool_rebuilds")
            if not isolate:
                bump("isolated_specs", len(survivors) + len(remainder))
            isolate = True
        else:
            pool.shutdown(wait=True)
        pending = survivors + remainder
        if pending and survivors:
            backoff = policy.backoff_s(
                max(max(failures_seen[i] for i in survivors), 1))
            if backoff > 0:
                time.sleep(backoff)
    emit_ready()
    return records
