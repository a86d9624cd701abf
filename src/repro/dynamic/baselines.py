"""The dynamic baseline of the Table 2 benchmark.

:class:`ExponentialBoostingDynamic` is the prior-framework comparator: the
same periodic-rebuild skeleton as
:class:`~repro.dynamic.fully_dynamic.FullyDynamicMatching`, but the rebuild
engine is the McGregor-style boosting framework whose oracle-call count is
exponential in 1/eps ([McG05] as adapted to the dynamic setting by
[BKS23]/[AKK25]); Table 2's headline is precisely the gap between this
baseline's 1/eps dependence and the polynomial dependence of this paper.
``table2_dynamic`` runs it on the same stream as the maintainer.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.dynamic.interfaces import DynamicMatchingAlgorithm
from repro.baselines.mcgregor import mcgregor_boost
from repro.core.oracles import GreedyMatchingOracle


class ExponentialBoostingDynamic(DynamicMatchingAlgorithm):
    """Periodic-rebuild maintainer whose rebuild engine is the McGregor-style
    framework (exponential 1/eps dependence in oracle calls)."""

    def __init__(self, n: int, eps: float,
                 rebuild_slack: float = 0.125,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None) -> None:
        self.eps = eps
        self.counters = counters if counters is not None else Counters()
        self.dynamic_graph = DynamicGraph(n)
        self.rebuild_slack = rebuild_slack
        self.rng = random.Random(seed)
        self._matching = Matching(n)
        self._updates_since_rebuild = 0
        self._size_at_rebuild = 0

    def update(self, update: Update) -> None:
        changed = self.dynamic_graph.apply(update)
        if not self.charge_update(update):
            return
        self.counters.add("update_work", 1)
        if update.kind == Update.DELETE and changed:
            if self._matching.contains_edge(update.u, update.v):
                self._matching.remove(update.u, update.v)
        elif update.kind == Update.INSERT and changed:
            if self._matching.is_free(update.u) and self._matching.is_free(update.v):
                self._matching.add(update.u, update.v)
        self._updates_since_rebuild += 1
        threshold = max(1, int(self.rebuild_slack * self.eps
                               * max(1, self._size_at_rebuild)))
        if self._updates_since_rebuild >= threshold:
            self._rebuild()

    def _rebuild(self) -> None:
        self.counters.add("dyn_rebuilds")
        graph = self.dynamic_graph.graph
        self._matching = mcgregor_boost(graph, self.eps,
                                        oracle=GreedyMatchingOracle(),
                                        counters=self.counters,
                                        seed=self.rng.randrange(2 ** 31))
        self.counters.add("update_work", graph.n)
        self._updates_since_rebuild = 0
        self._size_at_rebuild = self._matching.size

    def current_matching(self) -> Matching:
        return self._matching
