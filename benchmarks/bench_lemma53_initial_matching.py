"""Lemma 5.3: the constant-approximate initial matching.

The static framework starts by peeling: repeatedly invoke the oracle on the
still-unmatched vertices and keep everything it returns.  Lemma 5.3 proves 2c
invocations of a c-approximate oracle yield a 4-approximation.

This scenario peels a random graph with the greedy oracle (c = 2) and
records the invocations actually used (``oracle_calls``) beside the lemma's
budget int(2c) + 1 (``oracle_call_budget``, as data), and the approximation
factor actually achieved (``approx_factor``), asserted <= 4.
"""

from __future__ import annotations

from repro.graph.generators import erdos_renyi
from repro.matching.blossom import maximum_matching_size
from repro.core.boosting import BoostingFramework
from repro.core.oracles import GreedyMatchingOracle

from repro.bench import register

from _common import check_bound, scenario_main


@register("lemma53_initial_matching", suite="lemmas",
          description="initial-matching peeling: oracle calls used and "
                      "approximation achieved (Lemma 5.3)")
def _lemma53_scenario(spec, counters):
    eps = spec.resolved_eps()
    n = 40 if spec.smoke else 80
    g = erdos_renyi(n, 0.06, seed=spec.seed)
    oracle = GreedyMatchingOracle()
    framework = BoostingFramework(eps, oracle=oracle,
                                  counters=counters, seed=spec.seed)
    matching = framework.initial_matching(g)
    opt = maximum_matching_size(g)
    values = {"approx_factor": opt / max(1, matching.size),
              "oracle_call_budget": int(2 * oracle.c) + 1}
    check_bound(spec, values, "approx_factor", 4.0, at_most=True)
    return values


def main(argv=None) -> int:
    return scenario_main("lemma53_initial_matching", argv)


if __name__ == "__main__":
    raise SystemExit(main())
