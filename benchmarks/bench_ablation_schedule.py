"""Ablation: the two schedule refinements behind Theorem 1.1.

Two changes turn the [FMU22] schedule into this
paper's: (1) only O(log 1/eps) oracle iterations per simulated procedure
(justified by the exponential decay of the derived graphs, Lemma 5.5), and
(2) splitting the Overtake simulation into l_max label stages (Algorithm 5).

This ablation runs the same framework on the same workload/oracle/seed with

* the full refined schedule (stages + log iterations)      -- "ours",
* stages but a single oracle iteration per stage            -- "ours, 1 iter"
  (does the log factor matter at all in practice?),
* no stages and poly(1/eps) iterations (FMU22-style driver)  -- "no stages",

and reports oracle calls and achieved quality for each, isolating what each
refinement buys.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import boost_matching
from repro.core.config import ParameterProfile
from repro.core.oracles import RandomGreedyMatchingOracle
from repro.baselines.fmu22 import fmu22_boost

from repro.bench import register

from _common import EPS_SWEEP, boosting_workload, emit, scenario_main


def run_ablation(seed: int = 0) -> Table:
    table = Table(
        "Ablation: schedule refinements (stages, log-iterations) at fixed workload",
        ["eps", "variant", "oracle calls", "size/opt"])
    g = boosting_workload(seed, er_n=80, er_p=0.05, num_paths=5, path_len=9)
    opt = maximum_matching_size(g)
    for eps in EPS_SWEEP:
        base_profile = ParameterProfile.practical(eps)
        variants = [
            ("ours (stages + log iters)", base_profile, "ours"),
            ("ours, 1 iteration/stage",
             dataclasses.replace(base_profile, sim_iterations=1), "ours"),
            ("no stages, poly iters (FMU22-style)", base_profile, "fmu22"),
        ]
        for label, profile, kind in variants:
            counters = Counters()
            oracle = RandomGreedyMatchingOracle(seed=seed)
            if kind == "ours":
                m = boost_matching(g, eps, oracle=oracle, profile=profile,
                                   counters=counters, seed=seed)
            else:
                m = fmu22_boost(g, eps, oracle=oracle, profile=profile,
                                counters=counters, seed=seed)
            table.add_row(eps, label, counters.get("oracle_calls"),
                          m.size / max(1, opt))
    return table


def test_ablation_schedule(benchmark):
    """Regenerate the ablation table; time the refined schedule at eps=1/4."""
    g = boosting_workload(0, er_n=80, er_p=0.05, num_paths=5, path_len=9)
    benchmark(lambda: boost_matching(g, 0.25, seed=0))
    emit(run_ablation(), "ablation_schedule.txt")


# ------------------------------------------------------------ repro.bench
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
    return {"size_over_opt": ours.size / max(1, opt),
            "fmu22_oracle_calls": fmu_counters.get("oracle_calls"),
            "fmu22_size_over_opt": fmu.size / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("ablation_schedule", argv)


if __name__ == "__main__":
    raise SystemExit(main())
