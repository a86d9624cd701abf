"""Table 1 (CONGEST rows): oracle invocations and rounds in CONGEST.

The CONGEST rows of Table 1 quote

    [FMU22]                O(1/eps^63)
    [FMU22] + [MMSS25]     O(1/eps^42)
    this work (Cor. A.2)   O(1/eps^10 * log(1/eps))

The extra 1/eps^3 factor over the MPC rows is the per-pass-bundle Aprocess
cost: aggregating a structure of poly(1/eps) vertices at a representative
takes Theta(structure size) CONGEST rounds.  This scenario measures, at one
eps, the oracle invocations, the total CONGEST rounds (oracle rounds +
aggregation rounds), and the fraction of rounds spent on aggregation -- the
quantity that grows as eps shrinks and produces the eps^-10 vs eps^-7
separation between the two corollaries.  Beside them it records the
scheduled bounds (``scheduled_oracle_calls`` = log(1/eps)/eps^10 and
``fmu22_scheduled_calls`` = 1/eps^63) as data, and asserts
``size_over_opt`` >= 1/(1+eps).
"""

from __future__ import annotations

from repro.matching.blossom import maximum_matching_size
from repro.core.config import ParameterProfile
from repro.baselines.fmu22 import fmu22_scheduled_calls
from repro.congest.boost_congest import congest_boosted_matching

from repro.bench import register

from _common import boosting_workload, check_bound, scenario_main


@register("table1_congest", suite="table1",
          description="CONGEST boosting: oracle calls, rounds and "
                      "aggregation share at one eps")
def _table1_congest_scenario(spec, counters):
    eps = spec.resolved_eps()
    er_n = 36 if spec.smoke else 60
    g = boosting_workload(spec.seed, er_n=er_n, er_p=0.06,
                          num_paths=2 if spec.smoke else 4,
                          path_len=5 if spec.smoke else 9)
    matching, _ = congest_boosted_matching(g, eps, counters=counters,
                                           seed=spec.seed)
    opt = maximum_matching_size(g)
    rounds = counters.get("congest_rounds")
    agg = counters.get("congest_aggregation_rounds")
    values = {"size_over_opt": matching.size / max(1, opt),
              "aggregation_share": (agg / rounds) if rounds else 0.0,
              "scheduled_oracle_calls":
                  ParameterProfile.paper(eps).paper_invocation_bound()
                  / eps ** 3,
              "fmu22_scheduled_calls": fmu22_scheduled_calls(eps, "congest")}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("table1_congest", argv)


if __name__ == "__main__":
    raise SystemExit(main())
