"""Figure 4 / Lemma 6.8: per-structure vertex sampling preserves H' edges.

Figure 4 illustrates the Section 6 sampling step: one vertex is sampled from
each structure, and an edge between two structures survives into G[S] with
probability at least 1/Delta^2 (each endpoint is picked with probability at
least 1/|structure|).  Lemma 6.8/6.11 turn this into the oracle guarantee.

This scenario measures the preservation probability empirically: two
structures of 3 matched edges each are built, the sampling step is repeated
many times, and the fraction of trials in which a fixed cross-structure edge
survives is recorded beside the 1/Delta^2 lower bound.  The bound is data,
not asserted: the fraction estimates a probability from a finite sample.
"""

from __future__ import annotations

import random

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.core.structures import PhaseState
from repro.core.operations import overtake_op

from repro.bench import register

from _common import scenario_main


def _two_structures_of_size(size_edges: int):
    """Two path structures of `size_edges` matched edges each, joined by one
    cross edge between their working (outer) endpoints."""
    per = 1 + 2 * size_edges          # free vertex + matched pairs
    n = 2 * per
    g = Graph(n)
    matching = Matching(n)
    for base in (0, per):
        for i in range(size_edges):
            a = base + 1 + 2 * i
            b = a + 1
            g.add_edge(base + 2 * i, a)   # unmatched tree edge
            g.add_edge(a, b)
            matching.add(a, b)
    tip_left = per - 1
    tip_right = 2 * per - 1
    g.add_edge(tip_left, tip_right)       # the cross (type-2) edge
    state = PhaseState(g, matching, ell_max=4 * size_edges + 4)
    state.init_structures()
    for base in (0, per):
        structure = state.structures[base]
        for i in range(size_edges):
            w = structure.working
            a = base + 1 + 2 * i
            overtake_op(state, w.base, a, state.distance(w) + 1)
    return state, (tip_left, tip_right)


def preservation_probability(size_edges: int, trials: int = 3000,
                             seed: int = 0) -> float:
    state, (x, y) = _two_structures_of_size(size_edges)
    rng = random.Random(seed)
    structures = state.live_structures()
    hits = 0
    for _ in range(trials):
        sampled = set()
        for s in structures:
            outs = s.outer_vertices()
            sampled.add(rng.choice(outs))
        if x in sampled and y in sampled:
            hits += 1
    return hits / trials


@register("fig4_sampling", suite="figures",
          description="per-structure vertex-sampling preservation "
                      "probability vs the 1/Delta^2 bound (Lemma 6.8)")
def _fig4_scenario(spec, counters):
    size_edges = 3
    trials = 300 if spec.smoke else 3000
    measured = preservation_probability(size_edges, trials=trials,
                                        seed=spec.seed)
    bound = 1.0 / (2 * size_edges + 1) ** 2
    return {"trials": trials, "preservation_prob": measured,
            "lower_bound": bound}


def main(argv=None) -> int:
    return scenario_main("fig4_sampling", argv)


if __name__ == "__main__":
    raise SystemExit(main())
