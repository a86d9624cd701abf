"""Table 2 (Theorem 7.4): fully dynamic matching trade-offs.

Table 2 compares fully dynamic (1+eps)-approximate matching algorithms built
on the [McG05]-style boosting reduction.  The headline of this paper's row is
that the 1/eps dependence of the amortized update time drops from exponential
((1/eps)^{O(1/eps)}, [BG24]/[AKK25]) to polynomial, while the n- and
ORS-dependence is unchanged.

The scenario runs the periodic-rebuild maintainer with this paper's
weak-oracle framework on a planted-matching churn workload and asserts
``size_over_opt`` >= 1/(1+eps) at the end of the stream.  Beside it, on its
own counters, runs the same maintainer with the McGregor-style
rebuild engine (exponential schedule, executed capped) on the same stream:
``mcgregor_oracle_calls`` and ``mcgregor_amortized_update_work``.

Measured, the polynomial-vs-exponential gap does not show at these sizes.
On the full-size churn workload (15 pairs, 4 rounds, seed 0) the
McGregor-style engine issues *fewer* oracle calls than this work's weak
oracle calls -- 2,060 vs 3,622 at eps = 1/2, 2,612 vs 3,615 at eps = 1/4
and 2,668 vs 3,821 at eps = 1/8 -- and both maintainers charge 31.0 work
per update.  The gap is
in the schedules the engines are capped below, not in the calls the capped
runs make.
"""

from __future__ import annotations

from repro.workloads import planted_matching_churn
from repro.instrumentation.counters import Counters
from repro.matching.blossom import maximum_matching_size
from repro.dynamic.baselines import ExponentialBoostingDynamic
from repro.dynamic.fully_dynamic import FullyDynamicMatching

from repro.bench import register

from _common import check_bound, scenario_main


@register("table2_dynamic", suite="table2",
          description="fully dynamic maintainer on planted churn: amortized "
                      "work, rebuilds, oracle calls, beside the "
                      "McGregor-style engine")
def _table2_dynamic_scenario(spec, counters):
    eps = spec.resolved_eps()
    pairs, rounds = (8, 2) if spec.smoke else (15, 4)
    stream = planted_matching_churn(pairs, rounds=rounds, seed=spec.seed)
    alg = FullyDynamicMatching(stream.n, eps, counters=counters,
                               seed=spec.seed)
    alg.process(stream, collect_sizes=False)
    opt = maximum_matching_size(alg.graph)
    # the comparison charges its own bag: the scenario's counters are this
    # work's alone
    mcg_counters = Counters()
    mcgregor = ExponentialBoostingDynamic(stream.n, eps, counters=mcg_counters,
                                          seed=spec.seed)
    mcgregor.process(stream, collect_sizes=False)
    # a stream may end on an empty graph: its optimum is the empty matching
    values = {"amortized_update_work": alg.amortized_update_work(),
              "size_over_opt":
                  alg.current_matching().size / opt if opt else 1.0,
              "mcgregor_oracle_calls": mcg_counters.get("oracle_calls"),
              "mcgregor_amortized_update_work":
                  mcg_counters.get("update_work")
                  / max(1, mcg_counters.get("dyn_updates"))}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("table2_dynamic", argv)


if __name__ == "__main__":
    raise SystemExit(main())
