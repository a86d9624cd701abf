"""Shared helpers for the benchmark modules.

Every ``benchmarks/bench_*.py`` module is one ``repro.bench`` scenario plus a
``main()`` (see the "Benchmark harness" section of ARCHITECTURE.md): the
single ``python -m repro.bench`` CLI gives each of them ``--smoke``, seed
control, the ``--eps`` sweep and JSON emission.  A scenario records the
paper's bound next to what it measured with :func:`check_bound`, so every
record carries the claim it reproduces and a run fails when a guarantee
does not hold.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Sequence

from repro.bench import RunSpec


class BoundViolation(AssertionError):
    """A measured value broke a bound the paper guarantees on every run."""


def check_bound(spec: RunSpec, values: Dict[str, float], key: str,
                bound: float, *, at_most: bool = False,
                bound_key: Optional[str] = None) -> None:
    """Record ``bound`` beside ``values[key]``; raise if the value breaks it.

    The bound lands in ``values`` under ``bound_key`` (default
    ``<key>_bound``), so the record carries the claim next to the
    measurement.  ``values[key]`` must be at least ``bound`` (at most, with
    ``at_most``), else :class:`BoundViolation` names the scenario, the value
    and the bound.  Assert only bounds that hold on every run; a
    probabilistic or expected bound goes into ``values`` as plain data.
    """
    values[bound_key or f"{key}_bound"] = bound
    value = values[key]
    if value > bound if at_most else value < bound:
        relation = "<=" if at_most else ">="
        raise BoundViolation(
            f"scenario {spec.scenario}: {key} = {value!r} breaks the bound "
            f"{key} {relation} {bound!r} (eps={spec.resolved_eps()}, "
            f"seed={spec.seed}, smoke={spec.smoke})")


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
