"""A McGregor-style layered boosting framework ([McG05]), the exponential
comparator.

McGregor's semi-streaming algorithm repeatedly finds vertex-disjoint
augmenting paths of length up to ``2k + 1`` (with ``k ~ 1/eps``) by growing
*layered* path collections: in each repetition, path heads are matched against
unused matched edges layer by layer, each layer using one invocation of a
Theta(1)-approximate matching oracle.  Because a repetition only succeeds with
probability exponentially small in ``k``, the framework schedules
``(1/eps)^{Theta(1/eps)}`` repetitions -- the exponential dependence this
paper's framework removes.

This reproduction implements the layered repetition faithfully but *caps* the
executed repetitions (running the literal schedule is impossible for any
eps < 1/4); the scheduled count is exposed via
:func:`mcgregor_scheduled_calls` so that the Table 2 benchmark can report both
the theoretical schedule (exponential) and the measured executed calls.
Blossoms are not handled inside a repetition (McGregor's general-graph version
pays extra repetitions for that instead), so on non-bipartite inputs the
capped baseline may also stop short of (1+eps) -- which is exactly the
qualitative behaviour being compared against.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.matching.greedy import greedy_maximal_matching
from repro.instrumentation.counters import Counters
from repro.core.oracles import GreedyMatchingOracle, MatchingOracle, ensure_counting

Edge = Tuple[int, int]


def mcgregor_scheduled_calls(eps: float) -> float:
    """The oracle-call schedule of [McG05]: ``(1/eps)^{Theta(1/eps)}``."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    k = math.ceil(1.0 / eps)
    return float(k) ** k


def _layered_repetition(graph: Graph, matching: Matching, k: int,
                        oracle: MatchingOracle, rng: random.Random) -> List[List[int]]:
    """One layered repetition: grow alternating paths from free vertices and
    return the vertex-disjoint augmenting paths completed."""
    free = matching.free_vertices()
    rng.shuffle(free)
    # each sampled free vertex starts a path; the head is its last vertex
    starters = [alpha for alpha in free if rng.random() < 0.5]
    used: Set[int] = set(starters)
    paths: Dict[int, List[int]] = {alpha: [alpha] for alpha in starters}
    completed: List[List[int]] = []
    free_set = set(free)

    for _layer in range(k):
        if not paths:
            break
        heads = {paths[alpha][-1]: alpha for alpha in paths}
        # try to finish paths first: head adjacent to an unused free vertex
        for head, alpha in list(heads.items()):
            for w in graph.neighbors(head):
                if w in free_set and w not in used and not matching.contains_edge(head, w):
                    path = paths.pop(alpha) + [w]
                    used.add(w)
                    completed.append(path)
                    heads.pop(head, None)
                    break
        if not paths:
            break
        # layer graph: heads on the left, unused matched vertices on the right
        heads = {paths[alpha][-1]: alpha for alpha in paths}
        head_list = list(heads.keys())
        right_candidates = [v for v in range(graph.n)
                            if matching.is_matched(v) and v not in used
                            and matching.mate(v) not in used]
        right_index = {v: len(head_list) + i for i, v in enumerate(right_candidates)}
        witness: Dict[Edge, Edge] = {}
        for i, head in enumerate(head_list):
            for w in graph.neighbors(head):
                if w in right_index and not matching.contains_edge(head, w):
                    key = (i, right_index[w])
                    if key not in witness:
                        witness[key] = (head, w)
        if not witness:
            break
        found = oracle.find_matching(len(head_list) + len(right_candidates),
                                     list(witness))
        extended = 0
        for a, b in found:
            key = (a, b) if a < b else (b, a)
            if key not in witness:
                continue
            head, w = witness[key]
            alpha = heads.get(head)
            if alpha is None or w in used:
                continue
            mate = matching.mate(w)
            if mate is None or mate in used:
                continue
            paths[alpha].extend([w, mate])
            used.add(w)
            used.add(mate)
            extended += 1
        if extended == 0:
            break

    # final completion attempt for paths that reached their last layer
    for alpha in list(paths):
        head = paths[alpha][-1]
        for w in graph.neighbors(head):
            if w in free_set and w not in used and not matching.contains_edge(head, w):
                completed.append(paths.pop(alpha) + [w])
                used.add(w)
                break
    return completed


def mcgregor_boost(graph: Graph, eps: float,
                   oracle: Optional[MatchingOracle] = None,
                   counters: Optional[Counters] = None,
                   seed: Optional[int] = None,
                   max_repetitions_per_phase: int = 24,
                   max_phases: int = 48) -> Matching:
    """Boost a maximal matching towards (1+eps) with the layered framework.

    ``max_repetitions_per_phase`` caps the executed repetitions (the scheduled
    count, reported by :func:`mcgregor_scheduled_calls`, is exponential in
    1/eps and cannot be executed); counters record the executed
    ``oracle_calls`` and the per-run ``mcgregor_repetitions``.
    """
    counters = counters if counters is not None else Counters()
    oracle = ensure_counting(oracle if oracle is not None else GreedyMatchingOracle(),
                             counters)
    rng = random.Random(seed)
    k = max(1, math.ceil(1.0 / eps))

    matching = greedy_maximal_matching(graph)
    phases = min(max_phases, max(1, math.ceil(2.0 / eps)))
    for _phase in range(phases):
        gained_in_phase = 0
        for _rep in range(max_repetitions_per_phase):
            counters.add("mcgregor_repetitions")
            paths = _layered_repetition(graph, matching, k, oracle, rng)
            applied = 0
            for path in paths:
                try:
                    matching.augment_along(path)
                    applied += 1
                except ValueError:
                    # a path invalidated by an earlier augmentation in this
                    # repetition (shared vertex); skip it
                    continue
            gained_in_phase += applied
        counters.add("phases")
        if gained_in_phase == 0:
            break
    return matching
