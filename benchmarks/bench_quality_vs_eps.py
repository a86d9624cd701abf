"""Theorem 1.1 / 6.2 end-to-end: approximation quality versus eps.

The theorems promise a (1+eps)-approximate matching.  This scenario runs,
at one eps over the workload suite, the semi-streaming algorithm, static
boosting with a greedy oracle and weak-oracle boosting, and records each
framework's worst measured approximation factor (``worst_*``) beside the
``target`` 1+eps; each must sit at or below it, and the scenario asserts so.
"""

from __future__ import annotations

from repro.graph.generators import blossom_gadget, disjoint_paths, erdos_renyi, planted_matching
from repro.matching.blossom import maximum_matching_size
from repro.core.streaming import semi_streaming_matching
from repro.core.boosting import boost_matching
from repro.core.dynamic_boosting import boost_matching_weak
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle

from repro.bench import register

from _common import check_bound, scenario_main


def _suite(seed: int = 0):
    yield "er", erdos_renyi(60, 0.08, seed=seed)
    yield "paths", disjoint_paths(5, 9)
    yield "blossoms", blossom_gadget(5, 4)
    g, _ = planted_matching(30, 0.02, seed=seed)
    yield "planted", g


@register("quality_vs_eps", suite="quality",
          description="worst approximation factor of every framework at one "
                      "eps over the workload suite")
def _quality_scenario(spec, counters):
    eps = spec.resolved_eps()
    suite = list(_suite(spec.seed))
    if spec.smoke:
        suite = suite[:2]  # er + paths keep the run seconds-scale
    worst = {"stream": 1.0, "boost": 1.0, "weak": 1.0}
    for _, g in suite:
        opt = maximum_matching_size(g)
        if opt == 0:
            continue
        runs = {
            "stream": semi_streaming_matching(g, eps, seed=spec.seed + 1,
                                              counters=counters),
            "boost": boost_matching(g, eps, counters=counters,
                                    seed=spec.seed + 1),
            "weak": boost_matching_weak(
                g, eps, GreedyInducedWeakOracle(g, seed=spec.seed + 1),
                counters=counters, seed=spec.seed + 1),
        }
        for key, matching in runs.items():
            worst[key] = max(worst[key], opt / max(1, matching.size))
    values = {"worst_streaming": worst["stream"],
              "worst_boosting": worst["boost"],
              "worst_weak_oracle": worst["weak"]}
    for key in ("worst_streaming", "worst_boosting", "worst_weak_oracle"):
        check_bound(spec, values, key, 1 + eps, at_most=True,
                    bound_key="target")
    return values


def main(argv=None) -> int:
    return scenario_main("quality_vs_eps", argv)


if __name__ == "__main__":
    raise SystemExit(main())
