"""Ablation: the two schedule refinements behind Theorem 1.1.

Two changes turn the [FMU22] schedule into this
paper's: (1) only O(log 1/eps) oracle iterations per simulated procedure
(justified by the exponential decay of the derived graphs, Lemma 5.5), and
(2) splitting the Overtake simulation into l_max label stages (Algorithm 5).

This ablation runs the same framework on the same workload/oracle/seed with

* the full refined schedule (stages + log iterations)      -- "ours",
* no stages and poly(1/eps) iterations (FMU22-style driver)  -- ``fmu22_*``,

and reports oracle calls and achieved quality for each, isolating what the
refinements buy.  Both frameworks must reach ``size_over_opt`` >= 1/(1+eps);
the scenario asserts it for each.
"""

from __future__ import annotations

from repro.instrumentation.counters import Counters
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import boost_matching
from repro.core.oracles import RandomGreedyMatchingOracle
from repro.baselines.fmu22 import fmu22_boost

from repro.bench import register

from _common import boosting_workload, check_bound, scenario_main


@register("ablation_schedule", suite="ablation",
          description="refined schedule vs FMU22-style driver: oracle calls "
                      "and quality on the same workload/oracle/seed")
def _ablation_scenario(spec, counters):
    eps = spec.resolved_eps()
    if spec.smoke:
        g = boosting_workload(spec.seed, er_n=40, er_p=0.06, num_paths=3,
                              path_len=7)
    else:
        g = boosting_workload(spec.seed, er_n=80, er_p=0.05, num_paths=5,
                              path_len=9)
    opt = maximum_matching_size(g)
    ours = boost_matching(g, eps, oracle=RandomGreedyMatchingOracle(seed=spec.seed),
                          counters=counters, seed=spec.seed)
    fmu_counters = Counters()
    fmu = fmu22_boost(g, eps, oracle=RandomGreedyMatchingOracle(seed=spec.seed),
                      counters=fmu_counters, seed=spec.seed)
    values = {"size_over_opt": ours.size / max(1, opt),
              "fmu22_oracle_calls": fmu_counters.get("oracle_calls"),
              "fmu22_size_over_opt": fmu.size / max(1, opt)}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    check_bound(spec, values, "fmu22_size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("ablation_schedule", argv)


if __name__ == "__main__":
    raise SystemExit(main())
