"""Shared helpers for the benchmark modules.

Every benchmark module regenerates one table or figure of the paper: it
sweeps the relevant parameter, prints the resulting rows/series, and persists
them as text under ``benchmarks/results/``.  Each module also registers its
sweep as a ``repro.bench`` scenario (see the "Benchmark harness" section of
ARCHITECTURE.md), which is what gives every suite ``--smoke``, seed
control and JSON emission through the single
``python -m repro.bench`` CLI; the text tables are a rendering of the same
measured quantities.  The pytest-benchmark fixture times one representative
unit of work per module so that ``pytest benchmarks/ --benchmark-only`` also
produces wall-clock numbers.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

# Re-exported so modules (and their callers) keep one definition of smoke.
from repro.bench import smoke_mode  # noqa: F401
from repro.instrumentation.reporting import Table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: epsilon sweep used by most benchmarks (1/eps a power of two, Section 3)
EPS_SWEEP = (0.5, 0.25, 0.125)

#: smaller sweep for the more expensive dynamic benchmarks
EPS_SWEEP_SMALL = (0.5, 0.25)


def scenario_main(name: str, argv: Optional[Sequence[str]] = None) -> int:
    """Run one registered scenario through the unified CLI.

    Every ``bench_*.py`` module's ``main()`` delegates here, so
    ``python benchmarks/bench_x.py --smoke --seed 1`` is the
    same run as ``python -m repro.bench run --scenario x ...``.
    """
    from repro.bench.cli import main as bench_main

    args = list(sys.argv[1:] if argv is None else argv)
    return bench_main(["run", "--scenario", name, *args])


def boosting_workload(seed: int = 0, er_n: int = 80, er_p: float = 0.05,
                      num_paths: int = 4, path_len: int = 9):
    """The standard Table 1 workload: a sparse random graph plus disjoint long
    paths (the paths force augmenting paths of length up to ``path_len``, the
    regime where boosting beyond a maximal matching actually matters).
    """
    from repro.graph.generators import disjoint_paths, erdos_renyi
    from repro.graph.graph import Graph

    er = erdos_renyi(er_n, er_p, seed=seed)
    paths = disjoint_paths(num_paths, path_len)
    g = Graph(er.n + paths.n)
    g.add_edges(er.edges())
    g.add_edges((er.n + u, er.n + v) for u, v in paths.edges())
    return g


def emit(table: Table, filename: str) -> str:
    """Print a result table and persist it under benchmarks/results/."""
    text = table.render()
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return text
