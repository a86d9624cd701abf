"""Table 1 (MPC rows): oracle invocations of the boosting frameworks in MPC.

The paper's Table 1 compares, for the MPC setting, the number of invocations
of a Theta(1)-approximate maximum-matching oracle needed to reach a (1+eps)
approximation:

    [FMU22]                O(1/eps^52)
    [FMU22] + [MMSS25]     O(1/eps^39)
    this work (Thm 1.1)    O(1/eps^7 * log(1/eps))

This benchmark regenerates the comparison on executable instances: for each
eps it runs (a) this paper's framework and (b) the FMU22-style schedule on the
same workload with the same greedy oracle, and reports measured oracle calls,
measured MPC rounds of the full Corollary A.1 instantiation, and the paper's
scheduled bounds (the quantities the table actually states).  The scheduled
columns separate by dozens of orders of magnitude.

The measured columns do not: on seeds 0-1 this work issues 1-2% *more*
oracle calls than the FMU22-style schedule (145.5 vs 142.5, 186.5 vs 185.5
and 230.5 vs 228.5 at eps = 1/2, 1/4, 1/8), and both reach size/opt 1.000.
Both run with early exit on: a procedure stops at its first oracle
iteration that changes nothing and a scale at its first phase that gains
nothing, so neither schedule comes near its iteration cap.  What the
measured calls compare is therefore the stage split -- one oracle call per
label-class stage here, one over all type-3 arcs in the FMU22-style driver
-- not the bounds of Table 1.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import disjoint_paths, erdos_renyi
from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import boost_matching
from repro.core.config import ParameterProfile
from repro.core.oracles import GreedyMatchingOracle
from repro.baselines.fmu22 import fmu22_boost, fmu22_scheduled_calls
from repro.mpc.boost_mpc import mpc_boosted_matching

from repro.bench import register

from _common import EPS_SWEEP, boosting_workload, emit, scenario_main


def _workload(seed: int = 0):
    # a workload with long augmenting paths (where boosting actually works)
    # plus random structure
    return boosting_workload(seed)


def run_table1_mpc(seeds=(0, 1)) -> Table:
    table = Table(
        "Table 1 (MPC): oracle invocations to reach (1+eps), ours vs FMU22-style",
        ["eps", "ours calls", "fmu22-style calls", "ours rounds (Cor A.1)",
         "ours size/opt", "fmu22 size/opt",
         "scheduled ours O(eps^-7 log)", "scheduled FMU22 O(eps^-52)"])
    for eps in EPS_SWEEP:
        ours_calls = fmu_calls = rounds = 0.0
        ours_ratio = fmu_ratio = 0.0
        for seed in seeds:
            g = _workload(seed)
            opt = maximum_matching_size(g)

            ours_counters = Counters()
            m_ours, _ = mpc_boosted_matching(g, eps, counters=ours_counters, seed=seed)
            ours_calls += ours_counters.get("oracle_calls")
            rounds += ours_counters.get("mpc_total_rounds")
            ours_ratio += m_ours.size / max(1, opt)

            fmu_counters = Counters()
            m_fmu = fmu22_boost(g, eps, oracle=GreedyMatchingOracle(),
                                counters=fmu_counters, seed=seed)
            fmu_calls += fmu_counters.get("oracle_calls")
            fmu_ratio += m_fmu.size / max(1, opt)

        k = len(seeds)
        profile = ParameterProfile.paper(eps)
        table.add_row(eps, ours_calls / k, fmu_calls / k, rounds / k,
                      ours_ratio / k, fmu_ratio / k,
                      profile.paper_invocation_bound(),
                      fmu22_scheduled_calls(eps, "mpc"))
    return table


def test_table1_mpc(benchmark):
    """Regenerate Table 1 (MPC) and time one framework run at eps = 1/4."""
    g = _workload(0)
    benchmark(lambda: boost_matching(g, 0.25, oracle=GreedyMatchingOracle(), seed=0))
    emit(run_table1_mpc(), "table1_mpc.txt")


# ------------------------------------------------------------ repro.bench
@register("table1_mpc", suite="table1",
          description="MPC boosting: oracle calls, rounds and quality at one "
                      "eps on the Table 1 workload")
def _table1_mpc_scenario(spec, counters):
    eps = spec.resolved_eps()
    if spec.smoke:
        g = boosting_workload(spec.seed, er_n=40, er_p=0.06, num_paths=2,
                              path_len=5)
    else:
        g = boosting_workload(spec.seed)
    matching, _ = mpc_boosted_matching(g, eps, counters=counters, seed=spec.seed)
    opt = maximum_matching_size(g)
    return {"size_over_opt": matching.size / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("table1_mpc", argv)


if __name__ == "__main__":
    raise SystemExit(main())
