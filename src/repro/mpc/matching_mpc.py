"""A Theta(1)-approximate maximum matching algorithm in the MPC model.

The paper instantiates ``Amatching`` in MPC with [GU19], which computes an
O(1)-approximate matching in O(sqrt(log n)) rounds.  [GU19] is itself a deep
result (round compression of LOCAL algorithms); per substitution 4 we
use a simpler randomized proposal algorithm with the same interface and a
Theta(log n) round bound:

    repeat until no edge remains among unmatched vertices:
        every unmatched vertex picks one incident candidate edge at random
        and "proposes" along it; an edge proposed from both sides (or whose
        proposal is accepted by a free partner choosing it back) is added to
        the matching; matched vertices drop out.

Each repetition is two MPC rounds (propose + resolve) executed on the
:class:`~repro.mpc.simulator.MPCSimulator` with the edges distributed across
machines: the proposals of all machines cross one bulk exchange as int
columns ``(x, u, v)`` under the tag ``"cand"`` (4 words each), and the
resolve round is charged as a settle round.  A constant fraction of edges is
removed per repetition in expectation, giving O(log n) rounds w.h.p. and a
maximal (hence 2-approximate) matching on termination.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import edge_list_of
from repro.instrumentation.counters import Counters
from repro.core.oracles import MatchingOracle
from repro.mpc.simulator import MPCSimulator

Edge = Tuple[int, int]


def mpc_approx_matching(n: int, edges: List[Edge], simulator: MPCSimulator,
                        seed: Optional[int] = None,
                        max_repetitions: Optional[int] = None) -> List[Edge]:
    """Compute a maximal (2-approximate) matching on ``simulator`` of the
    graph on ``0..n-1`` with the edges ``edges``.

    ``edges`` holds each edge once, in the order it is scattered across the
    machines: the draws depend on it.  Returns the matched edges; rounds are
    charged to the simulator's counters.
    """
    rng = random.Random(seed)
    draw = rng.random
    simulator.scatter(edges)

    matched: Set[int] = set()
    matching: List[Edge] = []
    reps = max_repetitions if max_repetitions is not None else 4 * max(1, n).bit_length() + 8

    for _rep in range(reps):
        # ---- round 1: every machine proposes one candidate edge per vertex
        # it sees and sends ("cand", x, u, v) to x's home machine
        candidates = []
        for items in simulator.storage:
            local_best: Dict[int, Edge] = {}
            for edge in items:
                u, v = edge
                if u in matched or v in matched:
                    continue
                if u not in local_best or draw() < 0.5:
                    local_best[u] = edge
                if v not in local_best or draw() < 0.5:
                    local_best[v] = edge
            picked = local_best.values()
            candidates.append((simulator.machines_for_vertices(local_best),
                               list(local_best),
                               list(map(itemgetter(0), picked)),
                               list(map(itemgetter(1), picked))))
        delivered = simulator.round(candidates, "cand")

        # gather at the home machines: a vertex's first candidate stands
        # and each repeat replaces it on a coin flip (an inbox without
        # repeats, such as a single sender's, draws nothing)
        proposals: Dict[int, Edge] = {}
        for xs, us, vs in delivered:
            batch = dict(zip(xs, zip(us, vs)))
            if len(batch) == len(xs):
                proposals.update(batch)
                continue
            for x, u, v in zip(xs, us, vs):
                if x not in proposals or draw() < 0.5:
                    proposals[x] = (u, v)

        # ---- round 2: resolve proposals (home machines agree on mutual
        # picks).  Every proposed edge had two free endpoints when it was
        # proposed, so only this round's picks can block it.
        taken: Set[int] = set()
        for x in sorted(proposals):
            u, v = proposals[x]
            if u in taken or v in taken:
                continue
            # the edge is accepted if either endpoint proposed it; both
            # endpoints are then matched.
            taken.add(u)
            taken.add(v)
            matching.append((u, v) if u < v else (v, u))
        simulator.counters.add("mpc_rounds")  # the resolve/settle round
        matched |= taken

        # stop once no edge between free vertices remains (the scattered
        # edge list, not a walk over all n vertices of the graph)
        if not any(u not in matched and v not in matched for u, v in edges):
            break

    return matching


class MPCMatchingOracle(MatchingOracle):
    """``Amatching`` backed by the simulated MPC matching algorithm.

    Every invocation spins up a simulator sized for the instance (machines of
    memory ``memory_per_machine``), runs :func:`mpc_approx_matching`, and
    charges the rounds to the shared counter bag -- this is how the Table 1
    MPC benchmark obtains total round counts for the boosted algorithm
    (Corollary A.1).
    """

    c = 2.0
    name = "mpc-proposal"

    def __init__(self, counters: Optional[Counters] = None,
                 memory_per_machine: int = 4096,
                 seed: Optional[int] = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self.memory_per_machine = memory_per_machine
        self._rng = random.Random(seed)

    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        # scatter the edges in the order Graph(n, edges) lists them
        edges = edge_list_of(n, edges)
        machines = MPCSimulator.default_machine_count(
            n, len(edges), self.memory_per_machine)
        simulator = MPCSimulator(machines, memory_per_machine=None,
                                 counters=self.counters, strict=False)
        return mpc_approx_matching(n, edges, simulator,
                                   seed=self._rng.randrange(2 ** 31))
