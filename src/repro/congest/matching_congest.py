"""A distributed Theta(1)-approximate matching algorithm in CONGEST.

Israeli–Itai-style randomized maximal matching: in each iteration every
unmatched vertex picks a random unmatched neighbour and proposes to it
(1 round); a vertex receiving proposals accepts exactly one, and a proposal is
realised as a matched edge if it is accepted (1 round back).  Matched vertices
announce their status to their neighbours (1 round).  A constant fraction of
the remaining edges disappears per iteration in expectation, so O(log n)
iterations suffice w.h.p.; the result is a maximal, hence 2-approximate,
matching.

In the boosting framework the oracle is invoked on *derived* graphs (``H'``,
``H'_s``).  Conceptually these are virtual graphs simulated on top of the real
network; the reproduction runs the CONGEST algorithm directly on the derived
graph's topology and charges its rounds, which is exactly the per-invocation
cost ``T_matching`` of Corollary A.2.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.core.oracles import MatchingOracle
from repro.congest.simulator import CongestSimulator

Edge = Tuple[int, int]


def congest_approx_matching(graph: Graph, simulator: CongestSimulator,
                            seed: Optional[int] = None,
                            max_iterations: Optional[int] = None) -> List[Edge]:
    """Randomized maximal matching on ``simulator`` (which wraps ``graph``).

    Every round is one bulk exchange whose messages carry only the round's
    tag (``"propose"``, ``"accept"``, ``"matched"``).  ``proposed_to[v]``
    and ``accepted[v]`` hold what vertex ``v`` sent in this iteration.
    """
    rng = random.Random(seed)
    n = graph.n
    iterations = max_iterations if max_iterations is not None else 4 * max(1, n).bit_length() + 8

    matched: List[Optional[int]] = [None] * n
    for _it in range(iterations):
        # round 1: every unmatched vertex proposes to a random unmatched
        # neighbour
        proposed_to: List[Optional[int]] = [None] * n
        proposals: List[Optional[Tuple[List[int]]]] = [None] * n
        for v in range(n):
            if matched[v] is not None:
                continue
            candidates = [w for w in graph.neighbors(v) if matched[w] is None]
            if not candidates:
                continue
            target = rng.choice(candidates)
            proposed_to[v] = target
            proposals[v] = ([target],)
        delivered = simulator.round(proposals, "propose")

        # round 2: accept the smallest proposer and notify it
        accepted: List[Optional[int]] = [None] * n
        acceptances: List[Optional[Tuple[List[int]]]] = [None] * n
        for v in range(n):
            proposers = delivered[v][0]
            if matched[v] is not None or not proposers:
                continue
            chosen = min(proposers)
            accepted[v] = chosen
            acceptances[v] = ([chosen],)
        simulator.round(acceptances, "accept")

        # resolve locally: an edge (u, v) is matched if v accepted u's
        # proposal.  Each vertex's own turn clears its proposed_to, so a
        # proposal accepted by a vertex of larger index than its proposer
        # is dropped (the proposer's turn came first); changing that moves
        # the pinned round and message counts.
        for v in range(n):
            u = accepted[v]
            if u is None:
                proposed_to[v] = None
                continue
            if matched[u] is None and matched[v] is None:
                proposed, proposed_to[u] = proposed_to[u], None
                if proposed == v:
                    matched[u] = v
                    matched[v] = u
            proposed_to[v] = None

        # round 3: matched vertices announce their status
        simulator.round([None if matched[v] is None
                         else (graph.neighbor_list(v),)
                         for v in range(n)], "matched")

        remaining = any(matched[u] is None and matched[v] is None
                        for u, v in graph.edges())
        if not remaining:
            break

    return [(u, v) for u, v in
            ((u, matched[u]) for u in range(n) if matched[u] is not None)
            if v is not None and u < v]


class CongestMatchingOracle(MatchingOracle):
    """``Amatching`` backed by the simulated CONGEST matching algorithm."""

    c = 2.0
    name = "congest-israeli-itai"

    def __init__(self, counters: Optional[Counters] = None,
                 seed: Optional[int] = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._rng = random.Random(seed)

    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        # the network is the derived graph itself, rows in its insertion
        # order: the draws walk them
        graph = Graph(n, edges)
        simulator = CongestSimulator(graph, counters=self.counters, strict=True)
        return congest_approx_matching(graph, simulator,
                                       seed=self._rng.randrange(2 ** 31))
