"""Figure 2: the Overtake operation (label decreases, cross-structure steals).

Figure 2 illustrates Case 2.2 of Overtake: one structure re-parents an inner
vertex of another structure, moving the whole subtree.  This scenario runs
one boosted run on long disjoint paths with a random-order greedy oracle,
which leaves the initial matching misaligned, and records its Overtake
activity (``overtakes``, ``cross_structure_overtakes`` when any occur), the
augmentations it finds and ``size_over_opt``, asserted >= 1/(1+eps).

Measured, this workload shows no steal: it makes 0 cross-structure
overtakes at every eps in {1/2, 1/4, 1/8}, seeds 0-2, smoke and full size
(16 overtakes and 5 augmentations per full run at seed 0), so every
overtake stays inside its structure.  The golden ``static-greedy-table1``
case of ``tests/test_golden_stream.py`` (greedy ``boost_matching`` on a
Table-1-shaped graph) makes 2.
"""

from __future__ import annotations

from repro.graph.generators import disjoint_paths
from repro.core.boosting import boost_matching
from repro.core.oracles import RandomGreedyMatchingOracle
from repro.matching.blossom import maximum_matching_size

from repro.bench import register

from _common import check_bound, scenario_main


@register("fig2_overtake", suite="figures",
          description="Overtake activity (total / cross-structure) of one "
                      "boosted run on the misaligned-paths workload")
def _fig2_scenario(spec, counters):
    eps = spec.resolved_eps()
    g = disjoint_paths(4, 7) if spec.smoke else disjoint_paths(8, 11)
    opt = maximum_matching_size(g)
    matching = boost_matching(
        g, eps, oracle=RandomGreedyMatchingOracle(seed=spec.seed + 2),
        counters=counters, seed=spec.seed + 1)
    values = {"size_over_opt": matching.size / max(1, opt)}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("fig2_overtake", argv)


if __name__ == "__main__":
    raise SystemExit(main())
