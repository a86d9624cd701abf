"""Table 1 (MPC rows): oracle invocations of the boosting frameworks in MPC.

The paper's Table 1 compares, for the MPC setting, the number of invocations
of a Theta(1)-approximate maximum-matching oracle needed to reach a (1+eps)
approximation:

    [FMU22]                O(1/eps^52)
    [FMU22] + [MMSS25]     O(1/eps^39)
    this work (Thm 1.1)    O(1/eps^7 * log(1/eps))

The scenario runs, at one eps on the Table 1 workload, this paper's
framework through ``mpc_boosted_matching``, whose oracle is the simulated
MPC proposal algorithm (``MPCMatchingOracle``); its counters hold the
oracle calls and the MPC rounds of the full Corollary A.1 instantiation.
Beside them it records the FMU22-style schedule with the sequential greedy
oracle (``GreedyMatchingOracle``) on the same graph and seed
(``fmu22_oracle_calls``, ``fmu22_size_over_opt``) and the scheduled bounds
the table states (``scheduled_oracle_calls`` = log(1/eps)/eps^7 and
``fmu22_scheduled_calls`` = 1/eps^52), which separate by dozens of orders of
magnitude.  ``size_over_opt`` >= 1/(1+eps) is asserted.

The measured calls do not separate, and they move with the seed far more
than with eps: at seed 0 this work issues 14 oracle calls against the
FMU22-style schedule's 9 at each eps in {1/2, 1/4, 1/8}; at seed 1, 277 vs
276, 359 vs 362 and 447 vs 448 (the two-seed means, 145.5 vs 142.5, 186.5
vs 185.5 and 230.5 vs 228.5, put this work 1-2% *above*); both reach
size/opt 1.000.  Both run with early exit on: a procedure stops at its
first oracle iteration that changes nothing and a scale at its first phase
that gains nothing, so neither schedule comes near its iteration cap.  What
the measured calls compare is therefore the stage split -- one oracle call
per label-class stage here, one over all type-3 arcs in the FMU22-style
driver -- not the bounds of Table 1.  The constant-free scheduled bound is
no cap on the measured calls either (277 vs 88.7 at eps = 1/2, seed 1), so
it is recorded, not asserted.
"""

from __future__ import annotations

from repro.instrumentation.counters import Counters
from repro.matching.blossom import maximum_matching_size
from repro.core.config import ParameterProfile
from repro.core.oracles import GreedyMatchingOracle
from repro.baselines.fmu22 import fmu22_boost, fmu22_scheduled_calls
from repro.mpc.boost_mpc import mpc_boosted_matching

from repro.bench import register

from _common import boosting_workload, check_bound, scenario_main


@register("table1_mpc", suite="table1",
          description="MPC boosting: oracle calls, rounds and quality at one "
                      "eps on the Table 1 workload, beside the FMU22-style "
                      "schedule and both scheduled bounds")
def _table1_mpc_scenario(spec, counters):
    eps = spec.resolved_eps()
    if spec.smoke:
        g = boosting_workload(spec.seed, er_n=40, er_p=0.06, num_paths=2,
                              path_len=5)
    else:
        g = boosting_workload(spec.seed)
    matching, _ = mpc_boosted_matching(g, eps, counters=counters, seed=spec.seed)
    opt = maximum_matching_size(g)
    # the comparison charges its own bag: the scenario's counters are this
    # work's alone
    fmu_counters = Counters()
    fmu = fmu22_boost(g, eps, oracle=GreedyMatchingOracle(),
                      counters=fmu_counters, seed=spec.seed)
    values = {"size_over_opt": matching.size / max(1, opt),
              "fmu22_oracle_calls": fmu_counters.get("oracle_calls"),
              "fmu22_size_over_opt": fmu.size / max(1, opt),
              "scheduled_oracle_calls":
                  ParameterProfile.paper(eps).paper_invocation_bound(),
              "fmu22_scheduled_calls": fmu22_scheduled_calls(eps, "mpc")}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("table1_mpc", argv)


if __name__ == "__main__":
    raise SystemExit(main())
