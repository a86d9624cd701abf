"""Figure 3 / Lemma 5.5: the derived graph H' and its exponential decay.

Figure 3 illustrates the structure-level graph H' used by the
Contract-and-Augment simulation (Definition 5.4); Lemma 5.5 proves that
mu(H') decays by a factor (1 - 1/c) per oracle iteration, which is why
O(log 1/eps) iterations suffice -- the central quantitative insight behind
Theorem 1.1's eps^-7 (vs eps^-52 before).

This scenario constructs H' on a workload with many pending augmentations
and runs the Algorithm 4 iteration loop, computing mu(H') after every oracle
call.  It records the first and last mu(H'), their ratio
(``overall_decay``) and the per-iteration bound 1 - 1/c of Lemma 5.5
(``decay_per_iteration_bound``) as data: the scenario measures the decay
over the whole series, not per iteration.
"""

from __future__ import annotations

import random

from repro.graph.graph import Graph
from repro.matching.blossom import maximum_matching_size
from repro.matching.greedy import greedy_maximal_matching
from repro.core.boosting import build_structure_graph
from repro.core.config import ParameterProfile
from repro.core.oracles import GreedyMatchingOracle
from repro.core.operations import augment_op
from repro.core.structures import PhaseState
from repro.core.operations import overtake_op

from repro.bench import register

from _common import boosting_workload, scenario_main


def hprime_decay_series(seed: int = 0, eps: float = 0.25, er_n: int = 120,
                        num_paths: int = 6, path_len: int = 7):
    """Grow structures one overtake each, then iterate Algorithm 4 on H'."""
    g = boosting_workload(seed, er_n=er_n, er_p=0.05, num_paths=num_paths,
                          path_len=path_len)
    matching = greedy_maximal_matching(g)
    profile = ParameterProfile.practical(eps)
    state = PhaseState(g, matching, profile.ell_max)
    state.init_structures()

    # one round of direct extension so structures are one matched edge deep
    rng = random.Random(seed)
    for alpha, structure in list(state.structures.items()):
        w = structure.working
        if w is None:
            continue
        for x in w.vertices:
            extended = False
            for y in g.neighbors(x):
                if state.arc_type(x, y) == 3:
                    overtake_op(state, x, y, state.distance(w) + 1)
                    extended = True
                    break
            if extended:
                break

    oracle = GreedyMatchingOracle()
    series = []
    for iteration in range(10):
        n, witness = build_structure_graph(state)
        # mu(H') is the figure's measurement; the oracle gets the edge list
        mu = maximum_matching_size(Graph(n, witness))
        series.append((iteration, n, len(witness), mu))
        if not witness:
            break
        matched = oracle.find_matching(n, list(witness))
        for a, b in matched:
            key = (a, b) if a < b else (b, a)
            if key in witness:
                u, v = witness[key]
                if state.arc_type(u, v) == 2:
                    augment_op(state, u, v)
    return series


@register("fig3_hprime_decay", suite="figures",
          description="mu(H') decay across Algorithm 4 oracle iterations "
                      "(Lemma 5.5)")
def _fig3_scenario(spec, counters):
    eps = spec.resolved_eps()
    er_n, num_paths = (48, 3) if spec.smoke else (120, 6)
    series = hprime_decay_series(seed=spec.seed, eps=eps, er_n=er_n,
                                 num_paths=num_paths)
    values = {"iterations": len(series),
              "initial_mu": series[0][3] if series else 0,
              "final_mu": series[-1][3] if series else 0,
              "decay_per_iteration_bound": 1 - 1 / GreedyMatchingOracle().c}
    if len(series) >= 2 and series[0][3]:
        values["overall_decay"] = series[-1][3] / series[0][3]
    return values


def main(argv=None) -> int:
    return scenario_main("fig3_hprime_decay", argv)


if __name__ == "__main__":
    raise SystemExit(main())
