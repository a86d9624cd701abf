"""Scaling with n: runtime and oracle calls at fixed eps.

Theorem 1.1's oracle-call bound is independent of n (it only depends on eps);
the per-call cost and the bookkeeping scale with the instance.  This benchmark
sweeps n at fixed eps = 1/4 and reports wall-clock time, oracle calls and
oracle work (vertices handed to the oracle) for the static boosting framework,
plus a log-log fit of the time against n.  The oracle-call count is bounded by
the eps-schedule, not by n, but with early exit enabled it does grow on
instances whose random structure leaves more long augmenting paths at larger
n; the wall-clock column (dominated by the Python-level derived-graph
construction, which is O(m) per oracle call) is the honest cost to report.
"""

from __future__ import annotations

import time

import pytest

from repro.graph.generators import erdos_renyi
from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table, geometric_fit
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import boost_matching

from repro.bench import register

from _common import emit, scenario_main


SIZES = (40, 80, 160, 320)


def run_scaling(eps: float = 0.25, seed: int = 0) -> Table:
    table = Table(
        "Scaling with n at eps = 1/4 (static boosting, greedy oracle)",
        ["n", "m", "time (s)", "oracle calls", "oracle vertices seen", "size/opt"])
    ns, times = [], []
    for n in SIZES:
        g = erdos_renyi(n, 4.0 / n, seed=seed)
        counters = Counters()
        start = time.perf_counter()
        m = boost_matching(g, eps, counters=counters, seed=seed)
        elapsed = time.perf_counter() - start
        opt = maximum_matching_size(g)
        table.add_row(n, g.m, elapsed, counters.get("oracle_calls"),
                      counters.get("oracle_vertices_seen"),
                      m.size / max(1, opt))
        ns.append(n)
        times.append(elapsed)
    _, exponent = geometric_fit(ns, times)
    table.add_row("fit", "-", f"time ~ n^{exponent:.2f}", "-", "-", "-")
    return table


def test_scaling_n(benchmark):
    """Regenerate the n-scaling series; time the n = 160 instance."""
    g = erdos_renyi(160, 4.0 / 160, seed=0)
    benchmark(lambda: boost_matching(g, 0.25, seed=0))
    emit(run_scaling(), "scaling_n.txt")


# ------------------------------------------------------------ repro.bench
@register("scaling_n", suite="scaling",
          description="static boosting at the largest sweep size: wall-clock "
                      "and oracle work vs n")
def _scaling_scenario(spec, counters):
    eps = spec.resolved_eps()
    n = 80 if spec.smoke else SIZES[-1]
    g = erdos_renyi(n, 4.0 / n, seed=spec.seed)
    matching = boost_matching(g, eps, counters=counters, seed=spec.seed)
    opt = maximum_matching_size(g)
    return {"n": n, "m": g.m, "size_over_opt": matching.size / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("scaling_n", argv)


if __name__ == "__main__":
    raise SystemExit(main())
