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
machines; a constant fraction of edges is removed per repetition in
expectation, giving O(log n) rounds w.h.p. and a maximal (hence 2-approximate)
matching on termination.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.core.oracles import MatchingOracle
from repro.mpc.simulator import MPCSimulator

Edge = Tuple[int, int]


def mpc_approx_matching(graph: Graph, simulator: MPCSimulator,
                        seed: Optional[int] = None,
                        max_repetitions: Optional[int] = None) -> List[Edge]:
    """Compute a maximal (2-approximate) matching of ``graph`` on ``simulator``.

    Returns the matched edges; rounds are charged to the simulator's counters.
    """
    rng = random.Random(seed)
    edges = graph.edge_list()
    simulator.scatter(edges)

    matched: Set[int] = set()
    matching: List[Edge] = []
    n = graph.n
    reps = max_repetitions if max_repetitions is not None else 4 * max(1, n).bit_length() + 8

    for _rep in range(reps):
        # ---- round 1: every machine proposes one candidate edge per vertex it sees
        proposals: Dict[int, Edge] = {}

        def propose(machine_id: int, items: List[object]):
            local_best: Dict[int, Edge] = {}
            for item in items:
                u, v = item  # an edge
                if u in matched or v in matched:
                    continue
                for x in (u, v):
                    if x not in local_best or rng.random() < 0.5:
                        local_best[x] = (u, v)
            # send each vertex's candidate to the vertex's home machine
            return [(simulator.machine_for_vertex(x), ("cand", x, e))
                    for x, e in local_best.items()]

        simulator.round(propose)

        # gather candidates (the simulator appended them to machine storage);
        # pull them back out so storage keeps only edges.
        for machine_id in range(simulator.num_machines):
            keep = []
            for item in simulator.storage[machine_id]:
                if isinstance(item, tuple) and len(item) == 3 and item[0] == "cand":
                    _tag, x, e = item
                    if x not in proposals or rng.random() < 0.5:
                        proposals[x] = e
                else:
                    keep.append(item)
            simulator.storage[machine_id] = keep  # repro: allow[word-accounting-bypass] -- shrinks the machine's own storage in place; no words cross machines, nothing new to size

        # ---- round 2: resolve proposals (home machines agree on mutual picks)
        new_edges: List[Edge] = []
        taken: Set[int] = set()
        for x in sorted(proposals):
            u, v = proposals[x]
            if u in matched or v in matched or u in taken or v in taken:
                continue
            # the edge is accepted if either endpoint proposed it; both
            # endpoints are then matched.
            taken.add(u)
            taken.add(v)
            new_edges.append((u, v) if u < v else (v, u))
        simulator.counters.add("mpc_rounds")  # the resolve/settle round

        for u, v in new_edges:
            matched.add(u)
            matched.add(v)
            matching.append((u, v))

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

    def find_matching(self, graph: Graph) -> List[Edge]:
        machines = MPCSimulator.default_machine_count(
            graph.n, graph.m, self.memory_per_machine)
        simulator = MPCSimulator(machines, memory_per_machine=None,
                                 counters=self.counters, strict=False)
        return mpc_approx_matching(graph, simulator,
                                   seed=self._rng.randrange(2 ** 31))
