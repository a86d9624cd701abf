"""Table 1 (CONGEST rows): oracle invocations and rounds in CONGEST.

The CONGEST rows of Table 1 quote

    [FMU22]                O(1/eps^63)
    [FMU22] + [MMSS25]     O(1/eps^42)
    this work (Cor. A.2)   O(1/eps^10 * log(1/eps))

The extra 1/eps^3 factor over the MPC rows is the per-pass-bundle Aprocess
cost: aggregating a structure of poly(1/eps) vertices at a representative
takes Theta(structure size) CONGEST rounds.  This benchmark measures, per eps,
the oracle invocations, the total CONGEST rounds (oracle rounds + aggregation
rounds), and the fraction of rounds spent on aggregation -- the quantity that
grows as eps shrinks and produces the eps^-10 vs eps^-7 separation between the
two corollaries.
"""

from __future__ import annotations

import pytest

from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.core.config import ParameterProfile
from repro.baselines.fmu22 import fmu22_scheduled_calls
from repro.congest.boost_congest import congest_boosted_matching

from repro.bench import register

from _common import EPS_SWEEP, boosting_workload, emit, scenario_main


def run_table1_congest(seeds=(0, 1)) -> Table:
    table = Table(
        "Table 1 (CONGEST): oracle invocations and rounds (Corollary A.2)",
        ["eps", "oracle calls", "congest rounds", "aggregation rounds",
         "aggregation share", "size/opt",
         "scheduled ours O(eps^-10 log)", "scheduled FMU22 O(eps^-63)"])
    for eps in EPS_SWEEP:
        calls = rounds = agg = ratio = 0.0
        for seed in seeds:
            g = boosting_workload(seed, er_n=60, er_p=0.06)
            opt = maximum_matching_size(g)
            counters = Counters()
            matching, _ = congest_boosted_matching(g, eps, counters=counters, seed=seed)
            calls += counters.get("oracle_calls")
            rounds += counters.get("congest_rounds")
            agg += counters.get("congest_aggregation_rounds")
            ratio += matching.size / max(1, opt)
        k = len(seeds)
        profile = ParameterProfile.paper(eps)
        scheduled_ours = profile.paper_invocation_bound() / (eps ** 3)
        table.add_row(eps, calls / k, rounds / k, agg / k,
                      (agg / rounds) if rounds else 0.0, ratio / k,
                      scheduled_ours, fmu22_scheduled_calls(eps, "congest"))
    return table


def test_table1_congest(benchmark):
    """Regenerate Table 1 (CONGEST) and time one instantiation at eps = 1/4."""
    g = boosting_workload(0, er_n=60, er_p=0.06)
    benchmark(lambda: congest_boosted_matching(g, 0.25, seed=0))
    emit(run_table1_congest(), "table1_congest.txt")


# ------------------------------------------------------------ repro.bench
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
    return {"size_over_opt": matching.size / max(1, opt),
            "aggregation_share": (agg / rounds) if rounds else 0.0}


def main(argv=None) -> int:
    return scenario_main("table1_congest", argv)


if __name__ == "__main__":
    raise SystemExit(main())
