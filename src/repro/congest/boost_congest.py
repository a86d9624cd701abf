"""Corollary A.2: the boosting framework instantiated in CONGEST.

The boosted algorithm costs ``O(T(n, m) * log(1/eps) / eps^10)`` CONGEST
rounds: the extra ``1/eps^3`` factor over MPC comes from ``Aprocess`` -- in
CONGEST, aggregating the state of a structure of size ``k`` at a representative
vertex takes Theta(k) rounds, and structures can have ``poly(1/eps)`` vertices
(Appendix A).  The reproduction charges exactly that: after every pass-bundle
the largest live structure's size is charged as aggregation rounds.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.boosting import BoostingFramework, OracleDriver
from repro.core.structures import PhaseState
from repro.congest.matching_congest import CongestMatchingOracle


class _AggregationChargingDriver(OracleDriver):
    """Oracle driver that additionally charges Aprocess aggregation rounds.

    Both per-bundle procedures require the vertices of each structure to learn
    the outcome (new working vertex, new labels, removals); in CONGEST this is
    a convergecast + broadcast inside the structure, i.e. Theta(structure
    size) rounds, executed for all structures in parallel -- so the charge per
    procedure is twice the size of the *largest* live structure.
    """

    def __init__(self, oracle, profile, counters: Counters,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__(oracle, profile, rng=rng)
        self.counters = counters

    def _charge_aggregation(self, state: PhaseState) -> None:
        largest = max((s.size for s in state.live_structures()), default=1)
        self.counters.add("congest_rounds", 2 * largest)
        self.counters.add("congest_aggregation_rounds", 2 * largest)

    def extend_active_path(self, state: PhaseState) -> None:
        super().extend_active_path(state)
        self._charge_aggregation(state)

    def contract_and_augment(self, state: PhaseState) -> None:
        super().contract_and_augment(state)
        self._charge_aggregation(state)


def congest_boosted_matching(graph: Graph, eps: float,
                             profile: Optional[ParameterProfile] = None,
                             counters: Optional[Counters] = None,
                             seed: Optional[int] = None) -> Tuple[Matching, Counters]:
    """Run the framework with the CONGEST oracle and return (matching, counters).

    Counters afterwards: ``oracle_calls`` (Theorem 1.1 quantity),
    ``congest_rounds`` (oracle rounds + Aprocess aggregation rounds,
    the Corollary A.2 quantity) and ``congest_aggregation_rounds``.
    """
    counters = counters if counters is not None else Counters()
    oracle = CongestMatchingOracle(counters=counters, seed=seed)
    framework = BoostingFramework(eps, oracle=oracle, profile=profile,
                                  counters=counters, seed=seed)
    driver = _AggregationChargingDriver(framework.oracle, framework.profile,
                                        counters, rng=framework.rng)
    return framework.run(graph, driver=driver), counters
