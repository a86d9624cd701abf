"""Scaling with n: oracle calls and oracle work of static boosting.

Theorem 1.1's oracle-call bound is independent of n (it only depends on eps);
the per-call cost and the bookkeeping scale with the instance.  This
scenario runs the static boosting framework on a sparse random graph of
n = 320 vertices (80 in smoke mode) and records the oracle calls, the oracle
work (vertices handed to the oracle) and ``size_over_opt``, asserted
>= 1/(1+eps).  The oracle-call count is bounded by the eps-schedule, not by
n, but with early exit enabled it does grow on instances whose random
structure leaves more long augmenting paths at larger n; the wall clock
(dominated by the Python-level derived-graph construction, which is O(m)
per oracle call) is the honest cost to report.
"""

from __future__ import annotations

from repro.graph.generators import erdos_renyi
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import boost_matching

from repro.bench import register

from _common import check_bound, scenario_main


@register("scaling_n", suite="scaling",
          description="static boosting on a sparse random graph of n=320: "
                      "wall-clock and oracle work")
def _scaling_scenario(spec, counters):
    eps = spec.resolved_eps()
    n = 80 if spec.smoke else 320
    g = erdos_renyi(n, 4.0 / n, seed=spec.seed)
    matching = boost_matching(g, eps, counters=counters, seed=spec.seed)
    opt = maximum_matching_size(g)
    values = {"n": n, "m": g.m, "size_over_opt": matching.size / max(1, opt)}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("scaling_n", argv)


if __name__ == "__main__":
    raise SystemExit(main())
