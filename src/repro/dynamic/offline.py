"""Offline dynamic (1+eps)-approximate matching (Theorem 7.15 flavour).

In the offline problem the entire update sequence is known in advance.  The
paper (following [Liu24]) exploits this by batching: the computation for many
consecutive graph snapshots ``G_1, ..., G_t`` is performed together, sharing
work across snapshots whose edge sets differ in at most ``Gamma`` edges
(Lemma 7.13/7.14).

This reproduction keeps the batching structure (the source of the
``n^{0.58}``-type savings) while substituting the shared-query machinery with
explicit shared rebuilds:

* the update sequence is cut into *epochs* of ``Theta(eps * mu)`` updates;
* one (1+eps/2)-approximate matching is computed per epoch (with the Section 6
  framework, the same engine the online maintainer uses) at the epoch's start;
* inside the epoch the matching is only patched (deleted matched edges are
  dropped; a fresh edge between free vertices is taken), which preserves
  (1+eps)-approximation by the stability argument;
* because the sequence is known offline, epoch boundaries are chosen from the
  *future* update density rather than reactively, and the per-epoch rebuilds
  are independent, so they can be batched/parallelised -- the quantity we
  report is the amortized work per update, matching the Table 2 row's shape.

Warm-start amortization (PR 4).  Lemma 7.13/7.14 license *sharing* the
computation across consecutive snapshots whose edge sets differ in at most
``Gamma`` edges instead of recomputing each from scratch.  The reproduction's
analogue: consecutive epochs differ by ``Theta(eps * mu)`` updates, so the
previous epoch's patched matching is still (1+O(eps))-approximate at the next
boundary (the same stability argument that makes intra-epoch patching sound).
Each rebuild after the first therefore (a) seeds the framework with the
surviving matching and (b) runs only the finest scales
(``warm_start=True`` in :meth:`~repro.core.dynamic_boosting.
WeakOracleBoostingFramework.run`), because the coarse scales exist to erase
large deficits a warm start cannot have.  One framework/oracle pair is built
per ``run`` and reused across every epoch -- the oracle is bound to the
in-place mutated snapshot, exactly like the online maintainer.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.oracles import WeakOracle
from repro.core.dynamic_boosting import WeakOracleBoostingFramework
from repro.core.repair import RepairContext
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle

OracleFactory = Callable[[Graph], WeakOracle]


class OfflineDynamicMatching:
    """Process a known-in-advance update sequence and report per-update sizes.

    ``oracle_factory`` builds one ``Aweak`` oracle per :meth:`run`, bound to
    the run's snapshot graph and shared by every epoch rebuild.  The oracle
    must follow the weak-oracle contract (see ``repro.dynamic.weak_oracles``):
    answer from the live graph object it was bound to, or -- if it snapshots
    state at construction, like :class:`~repro.dynamic.weak_oracles.
    OMvWeakOracle` -- expose ``notify_update(u, v, present)``, which this
    runner (like the online maintainer) calls on every effective edge change.
    """

    def __init__(self, n: int, eps: float,
                 oracle_factory: Optional[OracleFactory] = None,
                 profile: Optional[ParameterProfile] = None,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None) -> None:
        self.n = n
        self.eps = eps
        self.profile = profile if profile is not None else ParameterProfile.practical(eps)
        self.counters = counters if counters is not None else Counters()
        self.oracle_factory = oracle_factory if oracle_factory is not None else (
            lambda g: GreedyInducedWeakOracle(g, seed=seed))
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ epochs
    def plan_epochs(self, updates: Iterable[Update]) -> List[int]:
        """Choose epoch boundaries (indices into ``updates``) offline.

        An epoch ends after ``max(1, eps/8 * current matching-size estimate)``
        real (non-empty) updates; the estimate used is a cheap lower bound
        (half the number of live edges capped by n/2), which is available
        offline without running any matching algorithm.  Lazy inputs are
        materialized (the offline model assumes the whole sequence is known).
        """
        if not isinstance(updates, Sequence):
            updates = list(updates)
        boundaries: List[int] = [0]
        live_edges = 0
        real_updates_in_epoch = 0
        for idx, upd in enumerate(updates):
            if upd.kind == Update.INSERT:
                live_edges += 1
            elif upd.kind == Update.DELETE:
                live_edges = max(0, live_edges - 1)
            if upd.kind != Update.EMPTY:
                real_updates_in_epoch += 1
            matching_estimate = max(1, min(self.n // 2, live_edges) // 2)
            threshold = max(1, int(self.eps / 8.0 * matching_estimate))
            if real_updates_in_epoch >= threshold:
                boundaries.append(idx + 1)
                real_updates_in_epoch = 0
        if boundaries[-1] != len(updates):
            boundaries.append(len(updates))
        return boundaries

    # --------------------------------------------------------------- processing
    def run(self, updates: Iterable[Update]) -> List[int]:
        """Process the whole sequence; returns the matching size after each update.

        Accepts any iterable (including a lazy
        :class:`~repro.workloads.streams.UpdateStream`); the *offline* model
        is precisely that the entire sequence is known in advance, so a lazy
        input is materialized once here -- epoch planning reads the future.
        """
        if not isinstance(updates, Sequence):
            updates = list(updates)
        boundaries = self.plan_epochs(updates)
        dynamic = DynamicGraph(self.n, log_updates=False)
        if self.profile.repair not in ("rebuild", "incremental"):
            raise ValueError(f"unknown repair mode {self.profile.repair!r}")
        context: Optional[RepairContext] = None
        if self.profile.repair == "incremental":
            context = RepairContext(dynamic.graph, self.profile)
            matching: Matching = context.bind_matching()
        else:
            matching = Matching(self.n)
        sizes: List[int] = []
        # one oracle/framework pair shared by every epoch of this run
        # (Lemma 7.13/7.14 flavour; see the module docstring)
        oracle = self.oracle_factory(dynamic.graph)
        framework = WeakOracleBoostingFramework(
            self.eps, oracle, profile=self.profile, counters=self.counters,
            seed=self.rng.randrange(2 ** 31))
        rebuilt_before = False

        for epoch_idx in range(len(boundaries) - 1):
            start, end = boundaries[epoch_idx], boundaries[epoch_idx + 1]
            # one shared rebuild at the epoch boundary
            if dynamic.graph.m > 0:
                matching = self._rebuild(framework, dynamic.graph, matching,
                                         warm_start=rebuilt_before,
                                         context=context)
                rebuilt_before = True
            self.counters.add("offline_epochs")

            for upd in updates[start:end]:
                changed = dynamic.apply(upd)
                if changed and context is not None:
                    context.note_update(upd.u, upd.v,
                                        upd.kind == Update.INSERT)
                if changed and hasattr(oracle, "notify_update"):
                    # snapshotting oracles (OMv) must see every edge change,
                    # exactly as the online maintainer keeps them informed
                    oracle.notify_update(upd.u, upd.v,
                                         upd.kind == Update.INSERT)
                if upd.kind == Update.EMPTY:
                    # the shared Table 2 convention: EMPTY padding is excluded
                    # from both sides of the amortization
                    self.counters.add("dyn_empty_updates")
                    sizes.append(matching.size)
                    continue
                self.counters.add("dyn_updates")
                self.counters.add("update_work", 1)
                if upd.kind == Update.DELETE and changed:
                    if matching.contains_edge(upd.u, upd.v):
                        matching.remove(upd.u, upd.v)
                elif upd.kind == Update.INSERT and changed:
                    if matching.is_free(upd.u) and matching.is_free(upd.v):
                        matching.add(upd.u, upd.v)
                sizes.append(matching.size)
        return sizes

    def _rebuild(self, framework: WeakOracleBoostingFramework, graph: Graph,
                 previous: Matching, warm_start: bool,
                 context: Optional[RepairContext] = None) -> Matching:
        self.counters.add("offline_rebuilds")
        self.counters.add("update_work", graph.n)
        if context is not None:
            # restricted_to is the identity (deleted matched edges left the
            # matching at update time); augment in place on the mirror
            return framework.run(graph, initial=previous,
                                 warm_start=warm_start, context=context)
        warm = previous.restricted_to(graph)
        return framework.run(graph, initial=warm, warm_start=warm_start)

    # ------------------------------------------------------------- accounting
    def amortized_update_work(self) -> float:
        updates = max(1.0, self.counters.get("dyn_updates"))
        return self.counters.get("update_work") / updates
