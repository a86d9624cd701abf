"""Process-pool worker: the picklable task body the bench runner executes.

:func:`run_spec_task` lives at module top level so it pickles by reference
under every start method (fork *and* spawn).  It runs one benchmark
:class:`~repro.bench.registry.RunSpec` in a pool worker: the worker
re-populates the scenario registry itself
(``discovery.load_benchmark_modules``), resolves the scenario by name, and
returns either ``("ok", record)`` or ``("error", traceback_text)`` --
scenario failures are *data*, not exceptions, so one crashing scenario never
aborts the suite.  A worker that dies outright returns nothing; the runner
sees its pool break and re-runs the unfinished specs one per pool.
"""

from __future__ import annotations

import traceback
from typing import Tuple

#: result tags of :func:`run_spec_task`
OK, ERROR = "ok", "error"


def run_spec_task(task) -> Tuple[str, object]:
    """Execute one ``(scenario_name, spec, root)`` bench task.

    ``root`` (a string path or ``None``) tells the worker where to discover
    the benchmark modules; extra modules from ``REPRO_BENCH_EXTRA_MODULES``
    are loaded by discovery as well, so test-only scenarios resolve in
    workers too.
    """
    scenario_name, spec, root = task
    try:
        from pathlib import Path

        from repro.bench import discovery, registry, runner

        discovery.load_benchmark_modules(Path(root) if root else None)
        scenario = registry.get_scenario(scenario_name)
        return (OK, runner.run_scenario(scenario, spec))
    except Exception:  # noqa: BLE001 - shipped back as a failure record
        # KeyboardInterrupt/SystemExit propagate: Ctrl-C must still abort
        # the pool instead of becoming a per-scenario failure entry
        return (ERROR, traceback.format_exc())
