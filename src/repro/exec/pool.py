"""Process-pool worker: the picklable task body the bench runner executes.

:func:`run_spec_task` lives at module top level so it pickles by reference
under every start method (fork *and* spawn).  It runs one benchmark
:class:`~repro.bench.registry.RunSpec` in a pool worker: the worker
re-populates the scenario registry itself
(``discovery.load_benchmark_modules``), resolves the scenario by name, and
returns either ``("ok", record)`` or ``("error", traceback_text)`` --
scenario failures are *data*, not exceptions, so one crashing scenario never
aborts the suite.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Tuple

#: result tags of :func:`run_spec_task`
OK, ERROR, TIMEOUT = "ok", "error", "timeout"


def run_spec_task(task) -> Tuple[str, object]:
    """Execute one ``(scenario_name, spec, root[, timeout_s, faults, attempt])``
    bench task.

    ``root`` (a string path or ``None``) tells the worker where to discover
    the benchmark modules; extra modules from ``REPRO_BENCH_EXTRA_MODULES``
    are loaded by discovery as well, so test-only scenarios resolve in
    workers too.  The optional trailing fields carry the resilience knobs:

    * ``timeout_s`` arms a SIGALRM deadline around the scenario (each pool
      worker runs one task at a time on its main thread, so the signal is
      deliverable); an overrun returns ``(TIMEOUT, message)`` -- the runner
      decides whether to retry or record it.
    * ``faults``/``attempt`` thread a :class:`~repro.resilience.faults.FaultPlan`
      into the worker: a planned crash hard-exits the process (``os._exit``,
      modelling a segfault -- the parent sees a broken pool, not a result)
      and a planned straggler delay sleeps before the scenario runs.
    """
    scenario_name, spec, root = task[:3]
    timeout_s = task[3] if len(task) > 3 else None
    faults = task[4] if len(task) > 4 else None
    attempt = task[5] if len(task) > 5 else 0
    try:
        from pathlib import Path

        from repro.bench import discovery, registry, runner
        from repro.resilience.timeouts import TaskTimeout, deadline

        if faults is not None:
            # the fault-plan site is the scenario name: stable across runs
            # and --jobs settings, so a plan injects the same faults
            # serially and pooled
            if faults.crashes_task(scenario_name, attempt):
                os._exit(1)  # injected hard crash: no teardown, no result
            delay = faults.task_delay(scenario_name)
            if delay > 0:
                time.sleep(delay)
        discovery.load_benchmark_modules(Path(root) if root else None)
        scenario = registry.get_scenario(scenario_name)
        try:
            with deadline(timeout_s, label=f"scenario {scenario_name}"):
                return (OK, runner.run_scenario(scenario, spec))
        except TaskTimeout as exc:
            return (TIMEOUT, str(exc))
    except Exception:  # noqa: BLE001 - shipped back as a failure record
        # KeyboardInterrupt/SystemExit propagate: Ctrl-C must still abort
        # the pool instead of becoming a per-scenario failure entry
        return (ERROR, traceback.format_exc())

