"""Table 2 (offline row / Theorem 7.15): offline dynamic matching.

Theorem 7.15 processes a known-in-advance update sequence with amortized
``poly(1/eps) * n^{0.58}`` work by batching the per-snapshot computations
(Lemma 7.13/7.14).  The reproduction keeps the batching/epoch structure and
substitutes the shared-query machinery; what is reproduced here is
the *shape*: the offline algorithm's amortized work per update stays well
below both the online maintainer run on the same sequence (which cannot plan
epochs ahead) and exact recomputation, while delivering the same (1+eps)
quality, and its 1/eps dependence is polynomial.
"""

from __future__ import annotations

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads import resolve_workload, sliding_window
from repro.instrumentation.counters import Counters
from repro.instrumentation.reporting import Table
from repro.matching.blossom import maximum_matching_size
from repro.dynamic.baselines import RecomputeFromScratchDynamic
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.offline import OfflineDynamicMatching

from repro.bench import register

from _common import EPS_SWEEP_SMALL, emit, scenario_main


def run_table2_offline(seed: int = 0) -> Table:
    n = 30
    updates = sliding_window(n, 240, window=45, seed=seed).materialize()
    final_graph = DynamicGraph(n)
    final_graph.apply_all(updates)
    opt = maximum_matching_size(final_graph.graph)

    table = Table(
        "Table 2 (offline row): amortized work per update, offline vs online vs exact",
        ["eps", "algorithm", "amortized work/update", "epochs/rebuilds",
         "weak-oracle calls", "final size/opt"])
    for eps in EPS_SWEEP_SMALL:
        counters = Counters()
        offline = OfflineDynamicMatching(n, eps, counters=counters, seed=seed)
        sizes = offline.run(updates)
        table.add_row(eps, "offline (Thm 7.15 flavour)",
                      offline.amortized_update_work(),
                      counters.get("offline_epochs"),
                      counters.get("weak_oracle_calls"),
                      sizes[-1] / max(1, opt))

        counters = Counters()
        online = FullyDynamicMatching(n, eps, counters=counters, seed=seed)
        for upd in updates:
            online.update(upd)
        table.add_row(eps, "online (Thm 7.1)",
                      online.amortized_update_work(),
                      counters.get("dyn_rebuilds"),
                      counters.get("weak_oracle_calls"),
                      online.current_matching().size / max(1, opt))

    counters = Counters()
    exact = RecomputeFromScratchDynamic(n, counters=counters)
    for upd in updates:
        exact.update(upd)
    table.add_row("-", "exact recompute (reference)",
                  counters.get("update_work") / max(1, counters.get("dyn_updates")),
                  0, 0, exact.current_matching().size / max(1, opt))
    return table


def test_table2_offline(benchmark):
    """Regenerate the offline row and time one offline run at eps = 1/4."""
    updates = sliding_window(30, 160, window=40, seed=0).materialize()
    benchmark(lambda: OfflineDynamicMatching(30, 0.25, seed=0).run(updates))
    emit(run_table2_offline(), "table2_offline.txt")


# ------------------------------------------------------------ repro.bench
@register("table2_offline", suite="table2", selectors=("workload",),
          description="offline dynamic matching on a selectable workload "
                      "(default: sliding window): amortized work and epochs")
def _table2_offline_scenario(spec, counters):
    eps = spec.resolved_eps()
    if spec.workload == "default":
        n, num_updates, window = (20, 80, 20) if spec.smoke else (30, 240, 45)
        stream = sliding_window(n, num_updates, window=window, seed=spec.seed)
    else:
        stream = resolve_workload(spec.workload, smoke=spec.smoke,
                                  seed=spec.seed)
    n = stream.n
    updates = stream.materialize()  # run() and opt both need it; once
    offline = OfflineDynamicMatching(n, eps, counters=counters,
                                     seed=spec.seed)
    sizes = offline.run(updates)
    final_graph = DynamicGraph(n, log_updates=False)
    final_graph.apply_all(updates)
    opt = maximum_matching_size(final_graph.graph)
    return {"amortized_update_work": offline.amortized_update_work(),
            "size_over_opt": int(sizes[-1]) / max(1, opt)}


def main(argv=None) -> int:
    return scenario_main("table2_offline", argv)


if __name__ == "__main__":
    raise SystemExit(main())
