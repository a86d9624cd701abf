"""Figure 1 / Lemma 4.5: structure anatomy during a phase.

Figure 1 of the paper illustrates a structure S_alpha: an alternating tree of
contracted blossoms with a working vertex and an active path.  There is no
measured data behind the figure, so this benchmark reports the corresponding
*statistics* of the reproduction: over one phase on a blossom-rich workload,
the number of structures, their maximum size (which Lemma 4.5 bounds by
Delta_h = 36 h / eps), the number of non-trivial blossom nodes, and the active
path lengths -- i.e. everything the figure depicts, measured.

The Lemma 4.5 bound Delta_h rides along as ``max_structure_size_bound``, as
data: no code path caps a structure at Delta_h (a structure is put on hold
only at a pass-bundle start, and a cross-structure Overtake moves a whole
subtree into it), so the run does not assert it.  At eps = 1/4 the bound is
72 and the largest structure measured is 11.
"""

from __future__ import annotations

import random

from repro.graph.generators import blossom_gadget, erdos_renyi
from repro.graph.graph import Graph
from repro.matching.greedy import greedy_maximal_matching
from repro.core.config import ParameterProfile
from repro.core.phase import DirectDriver, backtrack_pass
from repro.core.structures import PhaseState

from repro.bench import register

from _common import scenario_main


def _workload(seed: int = 0, er_n: int = 60, num_gadgets: int = 6) -> Graph:
    er = erdos_renyi(er_n, 0.06, seed=seed)
    gadgets = blossom_gadget(num_gadgets, 4)
    g = Graph(er.n + gadgets.n)
    for u, v in er.edges():
        g.add_edge(u, v)
    for u, v in gadgets.edges():
        g.add_edge(er.n + u, er.n + v)
    return g


def structure_statistics(eps: float, seed: int = 0, er_n: int = 60,
                         num_gadgets: int = 6):
    g = _workload(seed, er_n=er_n, num_gadgets=num_gadgets)
    matching = greedy_maximal_matching(g)
    profile = ParameterProfile.practical(eps)
    h = 0.5
    state = PhaseState(g, matching, profile.ell_max)
    state.init_structures()
    driver = DirectDriver(random.Random(seed))
    limit = profile.structure_limit(h)

    # run a few pass-bundles manually so intermediate statistics can be read
    stats = []
    for bundle in range(6):
        for s in state.live_structures():
            s.reset_marks(limit)
        driver.extend_active_path(state)
        driver.contract_and_augment(state)
        backtrack_pass(state)
        structures = state.live_structures()
        sizes = [s.size for s in structures] or [0]
        blossoms = sum(1 for s in structures for node in s.nodes
                       if node.outer and not node.is_trivial)
        active_paths = [len(s.active_path()) for s in structures if s.active] or [0]
        stats.append((bundle + 1, len(structures), max(sizes), blossoms,
                      max(active_paths), profile.structure_size_bound(h)))
        state.check_invariants()
    return stats


@register("fig1_structures", suite="figures",
          description="structure anatomy across pass-bundles (Lemma 4.5 "
                      "size bound)")
def _fig1_scenario(spec, counters):
    eps = spec.resolved_eps()
    er_n, num_gadgets = (30, 3) if spec.smoke else (60, 6)
    stats = structure_statistics(eps, seed=spec.seed, er_n=er_n,
                                 num_gadgets=num_gadgets)
    return {"pass_bundles": len(stats),
            "max_structures": max(row[1] for row in stats),
            "max_structure_size": max(row[2] for row in stats),
            "max_blossoms": max(row[3] for row in stats),
            "max_active_path": max(row[4] for row in stats),
            "max_structure_size_bound": stats[-1][5]}


def main(argv=None) -> int:
    return scenario_main("fig1_structures", argv)


if __name__ == "__main__":
    raise SystemExit(main())
