"""Table 2 (ORS row / Theorem 7.4): fully dynamic matching trade-offs.

Table 2 compares fully dynamic (1+eps)-approximate matching algorithms built
on the [McG05]-style boosting reduction.  The headline of this paper's row is
that the 1/eps dependence of the amortized update time drops from exponential
((1/eps)^{O(1/eps)}, [BG24]/[AKK25]) to polynomial, while the n- and
ORS-dependence is unchanged.

Measured part: the periodic-rebuild maintainer with this paper's weak-oracle
framework (polynomial 1/eps) versus the same maintainer with the
McGregor-style rebuild engine (exponential schedule, executed capped), plus a
lazy-greedy 2-approximation and exact recomputation as the two walls, all on
the same churn workload.  Reported per algorithm: amortized update work,
weak-oracle / matching-oracle calls per rebuild, and final approximation
ratio.

Formula part: the Theorem 7.4 vs [AKK25] update-time expressions evaluated on
the constructed ORS instances (both depend on the same unknown ORS(n, r); the
table shows the 1/eps gap at fixed n, k, ORS).
"""

from __future__ import annotations

import pytest

from repro.workloads import planted_matching_churn, resolve_workload
from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.dynamic.baselines import ExponentialBoostingDynamic, LazyGreedyDynamic, RecomputeFromScratchDynamic
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.ors import akk25_update_time, ors_lower_bound_construction, thm74_update_time
from repro.baselines.mcgregor import mcgregor_scheduled_calls

from repro.bench import register

from _common import EPS_SWEEP_SMALL, emit, scenario_main


def _run_maintainer(alg, updates):
    for upd in updates:
        alg.update(upd)
    return alg


def run_table2_measured(seed: int = 0) -> Table:
    stream = planted_matching_churn(15, rounds=4, seed=seed)
    n, updates = stream.n, stream.materialize()
    table = Table(
        "Table 2 (measured): fully dynamic maintainers on a churn workload",
        ["eps", "algorithm", "amortized work/update", "rebuilds",
         "oracle calls", "final size/opt", "scheduled 1/eps dependence"])
    for eps in EPS_SWEEP_SMALL:
        rows = []

        counters = Counters()
        ours = _run_maintainer(
            FullyDynamicMatching(n, eps, counters=counters, seed=seed), updates)
        opt = maximum_matching_size(ours.graph)
        rows.append(("this work (Thm 7.1 + Thm 6.2)",
                     counters.get("update_work") / max(1, counters.get("dyn_updates")),
                     counters.get("dyn_rebuilds"),
                     counters.get("weak_oracle_calls"),
                     ours.current_matching().size / max(1, opt),
                     f"poly: ~{(1/eps)**7:.3g}"))

        counters = Counters()
        expo = _run_maintainer(
            ExponentialBoostingDynamic(n, eps, counters=counters, seed=seed), updates)
        rows.append(("McGregor-style rebuild [BKS23/AKK25]",
                     counters.get("update_work") / max(1, counters.get("dyn_updates")),
                     counters.get("dyn_rebuilds"),
                     counters.get("oracle_calls"),
                     expo.current_matching().size / max(1, opt),
                     f"exp: ~{mcgregor_scheduled_calls(eps):.3g}"))

        counters = Counters()
        lazy = _run_maintainer(LazyGreedyDynamic(n, counters=counters), updates)
        rows.append(("lazy greedy (2-approx wall)",
                     counters.get("update_work") / max(1, counters.get("dyn_updates")),
                     0, 0,
                     lazy.current_matching().size / max(1, opt), "-"))

        counters = Counters()
        exact = _run_maintainer(RecomputeFromScratchDynamic(n, counters=counters),
                                updates)
        rows.append(("exact recompute (quality wall)",
                     counters.get("update_work") / max(1, counters.get("dyn_updates")),
                     0, 0,
                     exact.current_matching().size / max(1, opt), "-"))

        for name, work, rebuilds, calls, ratio, sched in rows:
            table.add_row(eps, name, work, rebuilds, calls, ratio, sched)
    return table


def run_table2_formulas(n: int = 10 ** 5, k: int = 2) -> Table:
    graph, matchings = ors_lower_bound_construction(200, 5)
    ors_value = float(len(matchings))
    table = Table(
        f"Table 2 (formulas): amortized update time at n={n}, k={k}, "
        f"ORS={ors_value:g} (constructed instance)",
        ["eps", "this work (Thm 7.4)", "[AKK25]", "gap factor"])
    for eps in (0.5, 0.25, 0.125, 0.0625):
        ours = thm74_update_time(n, eps, k, ors_value)
        theirs = akk25_update_time(n, eps, k, ors_value)
        table.add_row(eps, ours, theirs,
                      theirs / ours if ours and theirs != float("inf") else float("inf"))
    return table


def test_table2_dynamic(benchmark):
    """Regenerate Table 2 (dynamic) and time this work's maintainer at eps=1/4."""
    stream = planted_matching_churn(15, rounds=4, seed=0)
    n, updates = stream.n, stream

    def run():
        alg = FullyDynamicMatching(n, 0.25, seed=0)
        for upd in updates:
            alg.update(upd)
        return alg.current_matching().size

    benchmark(run)
    emit(run_table2_measured(), "table2_dynamic_measured.txt")
    emit(run_table2_formulas(), "table2_dynamic_formulas.txt")


# ------------------------------------------------------------ repro.bench
@register("table2_dynamic", suite="table2", selectors=("workload",),
          description="fully dynamic maintainer on a selectable workload "
                      "(default: planted churn): amortized work, rebuilds, "
                      "oracle calls")
def _table2_dynamic_scenario(spec, counters):
    eps = spec.resolved_eps()
    if spec.workload == "default":
        pairs, rounds = (8, 2) if spec.smoke else (15, 4)
        stream = planted_matching_churn(pairs, rounds=rounds, seed=spec.seed)
    else:
        # any registered workload name or a "trace:<path>" spec
        stream = resolve_workload(spec.workload, smoke=spec.smoke,
                                  seed=spec.seed)
    alg = FullyDynamicMatching(stream.n, eps, counters=counters,
                               seed=spec.seed)
    alg.process(stream, collect_sizes=False)
    opt = maximum_matching_size(alg.graph)
    return {"amortized_update_work": alg.amortized_update_work(),
            "size_over_opt": alg.current_matching().size / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("table2_dynamic", argv)


if __name__ == "__main__":
    raise SystemExit(main())
