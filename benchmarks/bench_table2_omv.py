"""Table 2 (OMv rows / Theorems 7.10 & 7.12): the OMv-backed dynamic algorithm.

Theorem 7.12 maintains a (1+eps)-approximate matching in amortized
``poly(1/eps) * n / 2^{Omega(sqrt(log n))}`` time by routing the weak-oracle
queries through a dynamic approximate OMv data structure over the bipartite
double cover (Theorem 7.10 / Lemma 7.9); the improvement of this paper is that
the reduction's 1/eps factor is polynomial for general (not only bipartite)
graphs.

Measured here, per eps: the OMv query / row-probe / update counts and the
amortized update work of the maintainer when its weak oracle is OMv-backed,
side by side with the greedy-induced oracle (which touches edges directly).
The poly(1/eps) growth of the OMv query count -- rather than exponential -- is
the reproduced quantity; the 2^{Omega(sqrt(log n))} substrate factor is
substituted by the simulator.
"""

from __future__ import annotations

import pytest

from repro.core.config import ParameterProfile
from repro.workloads import planted_matching_churn
from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle, OMvWeakOracle

from repro.bench import register

from _common import EPS_SWEEP_SMALL, emit, scenario_main


def run_table2_omv(seed: int = 0) -> Table:
    updates = planted_matching_churn(12, rounds=3, seed=seed)
    n = updates.n
    table = Table(
        "Table 2 (OMv rows): OMv-backed vs direct weak oracle",
        ["eps", "oracle", "amortized work/update", "weak-oracle calls",
         "omv queries", "omv row probes", "omv updates", "final size/opt"])
    for eps in EPS_SWEEP_SMALL:
        for label, factory in (
                ("OMv-backed (Thm 7.12)", lambda g, c: OMvWeakOracle(g, counters=c)),
                ("greedy-induced (direct)", lambda g, c: GreedyInducedWeakOracle(g, seed=seed))):
            counters = Counters()
            alg = FullyDynamicMatching(
                n, eps, counters=counters, seed=seed,
                oracle_factory=lambda g, c=counters, f=factory: f(g, c))
            for upd in updates:
                alg.update(upd)
            opt = maximum_matching_size(alg.graph)
            table.add_row(
                eps, label,
                counters.get("update_work") / max(1, counters.get("dyn_updates")),
                counters.get("weak_oracle_calls"),
                counters.get("omv_queries"),
                counters.get("omv_row_probes"),
                counters.get("omv_updates"),
                alg.current_matching().size / max(1, opt))
    return table


def test_table2_omv(benchmark):
    """Regenerate the OMv rows and time one OMv-backed maintainer run."""
    stream = planted_matching_churn(12, rounds=2, seed=0)
    n, updates = stream.n, stream

    def run():
        counters = Counters()
        alg = FullyDynamicMatching(n, 0.25, counters=counters, seed=0,
                                   oracle_factory=lambda g: OMvWeakOracle(g, counters=counters))
        for upd in updates:
            alg.update(upd)
        return alg.current_matching().size

    benchmark(run)
    emit(run_table2_omv(), "table2_omv.txt")


# ------------------------------------------------------------ repro.bench
@register("table2_omv", suite="table2",
          description="OMv-backed weak oracle inside the dynamic maintainer: "
                      "query/probe/update counts")
def _table2_omv_scenario(spec, counters):
    eps = spec.resolved_eps()
    pairs, rounds = (8, 2) if spec.smoke else (12, 3)
    updates = planted_matching_churn(pairs, rounds=rounds, seed=spec.seed)
    profile = ParameterProfile.practical(eps)
    alg = FullyDynamicMatching(
        updates.n, eps, counters=counters, seed=spec.seed, profile=profile,
        oracle_factory=lambda g: OMvWeakOracle(g, counters=counters))
    alg.process(updates, collect_sizes=False)
    opt = maximum_matching_size(alg.graph)
    return {"amortized_update_work": alg.amortized_update_work(),
            "size_over_opt": alg.current_matching().size / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("table2_omv", argv)


if __name__ == "__main__":
    raise SystemExit(main())
