"""Table 2 (offline row / Theorem 7.15): offline dynamic matching.

Theorem 7.15 processes a known-in-advance update sequence with amortized
``poly(1/eps) * n^{0.58}`` work by batching the per-snapshot computations
(Lemma 7.13/7.14).  The reproduction keeps the batching/epoch structure and
substitutes the shared-query machinery.  The scenario records the offline
algorithm's amortized work per update and asserts ``size_over_opt`` >=
1/(1+eps) at the end of the sequence.

Measured, planning epochs ahead buys almost no work: on the default sliding
window (n = 30, 240 updates, window 45, seed 0) the offline algorithm
charges 30.875 work per update against 31.0 for the online maintainer
(Theorem 7.1) on the same sequence, at eps = 1/2 and 1/4, and exact
recomputation charges 70.5.
"""

from __future__ import annotations

from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads import resolve_workload, sliding_window
from repro.matching.blossom import maximum_matching_size
from repro.dynamic.offline import OfflineDynamicMatching

from repro.bench import register

from _common import check_bound, scenario_main


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
    final_graph = DynamicGraph(n)
    final_graph.apply_all(updates)
    opt = maximum_matching_size(final_graph.graph)
    # a workload may end on an empty graph (ors_reveal deletes everything),
    # whose optimum the empty matching is
    values = {"amortized_update_work": offline.amortized_update_work(),
              "size_over_opt": int(sizes[-1]) / opt if opt else 1.0}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("table2_offline", argv)


if __name__ == "__main__":
    raise SystemExit(main())
