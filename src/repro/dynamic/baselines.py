"""Dynamic baselines used by the Table 2 benchmarks.

Like :class:`~repro.dynamic.fully_dynamic.FullyDynamicMatching`, every
baseline builds its :class:`DynamicGraph` log-free by default (pass
``log_updates=True`` to keep ``dynamic_graph.log()``/``replay()`` usable).

* :class:`RecomputeFromScratchDynamic` -- exact blossom recomputation after
  every update: the (1)-approximation gold standard with Theta(m * n) update
  cost; the "upper wall" every dynamic algorithm must beat.
* :class:`LazyGreedyDynamic` -- maintain a maximal (2-approximate) matching
  with O(degree) work per update: the "lower wall" that is fast but far from
  (1+eps).
* :class:`ExponentialBoostingDynamic` -- the prior-framework comparator: the
  same periodic-rebuild skeleton as
  :class:`~repro.dynamic.fully_dynamic.FullyDynamicMatching`, but the rebuild
  engine is the McGregor-style boosting framework whose oracle-call count is
  exponential in 1/eps ([McG05] as adapted to the dynamic setting by
  [BKS23]/[AKK25]); Table 2's headline is precisely the gap between this
  baseline's 1/eps dependence and the polynomial dependence of this paper.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.matching.blossom import maximum_matching
from repro.instrumentation.counters import Counters
from repro.dynamic.interfaces import DynamicMatchingAlgorithm
from repro.baselines.mcgregor import mcgregor_boost
from repro.core.oracles import GreedyMatchingOracle


class RecomputeFromScratchDynamic(DynamicMatchingAlgorithm):
    """Exact maximum matching recomputed after every update."""

    def __init__(self, n: int, counters: Optional[Counters] = None,
                 log_updates: bool = False) -> None:
        self.dynamic_graph = DynamicGraph(n, log_updates=log_updates)
        self.counters = counters if counters is not None else Counters()
        self._matching = Matching(n)

    def update(self, update: Update) -> None:
        self.dynamic_graph.apply(update)
        if not self.charge_update(update):
            return
        graph = self.dynamic_graph.graph
        self._matching = maximum_matching(graph)
        # charge Theta(n + m) work for the recomputation pass
        self.counters.add("update_work", graph.n + graph.m)

    def current_matching(self) -> Matching:
        return self._matching


class LazyGreedyDynamic(DynamicMatchingAlgorithm):
    """Maintain a maximal matching with O(degree) work per update (2-approx)."""

    def __init__(self, n: int, counters: Optional[Counters] = None,
                 log_updates: bool = False) -> None:
        self.dynamic_graph = DynamicGraph(n, log_updates=log_updates)
        self.counters = counters if counters is not None else Counters()
        self._matching = Matching(n)

    def update(self, update: Update) -> None:
        changed = self.dynamic_graph.apply(update)
        if not self.charge_update(update):
            return
        graph = self.dynamic_graph.graph
        if update.kind == Update.INSERT and changed:
            self.counters.add("update_work", 1)
            if self._matching.is_free(update.u) and self._matching.is_free(update.v):
                self._matching.add(update.u, update.v)
        elif update.kind == Update.DELETE and changed:
            if self._matching.contains_edge(update.u, update.v):
                self._matching.remove(update.u, update.v)
                # try to re-match both exposed endpoints greedily
                for x in (update.u, update.v):
                    self.counters.add("update_work", graph.degree(x) + 1)
                    if not self._matching.is_free(x):
                        continue
                    for y in graph.neighbor_list(x):
                        if self._matching.is_free(y):
                            self._matching.add(x, y)
                            break
            else:
                self.counters.add("update_work", 1)
        else:
            self.counters.add("update_work", 1)

    def current_matching(self) -> Matching:
        return self._matching


class ExponentialBoostingDynamic(DynamicMatchingAlgorithm):
    """Periodic-rebuild maintainer whose rebuild engine is the McGregor-style
    framework (exponential 1/eps dependence in oracle calls)."""

    def __init__(self, n: int, eps: float,
                 rebuild_slack: float = 0.125,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 log_updates: bool = False) -> None:
        self.eps = eps
        self.counters = counters if counters is not None else Counters()
        self.dynamic_graph = DynamicGraph(n, log_updates=log_updates)
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
