"""Fully dynamic (1+eps)-approximate matching (Theorem 7.1 framework).

The reduction behind Theorem 7.1 ([BKS23]/[AKK25], with this paper's
Theorem 6.2 plugged in as the static rebuild engine) rests on the classical
*stability* of approximate matchings:

    if ``M`` is a (1+eps/2)-approximate matching of ``G`` and at most
    ``(eps/8) * |M|`` edge updates are applied (dropping any deleted matched
    edge from ``M``), the surviving matching is still (1+eps)-approximate.

So the maintainer keeps a matching, serves queries in O(1), pays O(1) work per
update, and every ``Theta(eps * |M|)`` updates rebuilds the matching with the
Section 6 weak-oracle framework (whose cost is ``n * poly(1/eps)`` plus
``poly(1/eps)`` weak-oracle calls -- the polynomial dependence on ``1/eps``
that Table 2 contrasts with the exponential dependence of the prior
reductions).  Rebuild cost is charged to the counters and amortized over the
updates since the previous rebuild.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph, edge_endpoint_arrays
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.oracles import WeakOracle
from repro.core.dynamic_boosting import WeakOracleBoostingFramework
from repro.core.repair import RepairContext
from repro.dynamic.interfaces import DynamicMatchingAlgorithm
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle, OMvWeakOracle
from repro.utils.contracts import hot_path

OracleFactory = Callable[[Graph], WeakOracle]


class FullyDynamicMatching(DynamicMatchingAlgorithm):
    """Maintain a (1+eps)-approximate matching under edge insertions/deletions.

    Parameters
    ----------
    n:
        Number of vertices; the graph starts empty.
    eps:
        Target approximation parameter.
    oracle_factory:
        Builds the ``Aweak`` oracle bound to the maintained graph; defaults to
        the greedy induced-subgraph oracle.  If the produced oracle exposes
        ``notify_update`` (like :class:`~repro.dynamic.weak_oracles.OMvWeakOracle`)
        it is kept informed of every edge change.
    rebuild_slack:
        Rebuild after ``rebuild_slack * eps * |M|`` updates (default 1/8, the
        stability constant above), but at least ``min_rebuild_gap`` updates.
    counters:
        Work accounting: ``dyn_updates``, ``dyn_rebuilds``, ``update_work``
        (the amortized-update-time proxy: vertices touched per update),
        plus everything the rebuild framework charges (``weak_oracle_calls``...).
    backend:
        ``None`` or ``"adjset"``, the one graph storage layout; anything
        else raises :class:`ValueError`.

    Accounting convention (Table 2): EMPTY updates are the padding Problem 1
    allows in an update sequence; they change nothing, so they are excluded
    from *both* sides of the amortization -- no ``dyn_updates``/``update_work``
    charge and no advance of the rebuild schedule -- and tallied separately as
    ``dyn_empty_updates``.  Non-empty no-ops (re-inserting a present edge,
    deleting an absent one) are genuine adversarial updates: they are charged
    and they advance the rebuild schedule like any other update.
    """

    def __init__(self, n: int, eps: float,
                 oracle_factory: Optional[OracleFactory] = None,
                 profile: Optional[ParameterProfile] = None,
                 rebuild_slack: float = 0.125,
                 min_rebuild_gap: int = 1,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 backend: Optional[str] = None) -> None:
        self.eps = eps
        self._seed = seed
        self.counters = counters if counters is not None else Counters()
        self.profile = profile if profile is not None else ParameterProfile.practical(eps)
        self.dynamic_graph = DynamicGraph(n, backend=backend)
        factory = oracle_factory if oracle_factory is not None else (
            lambda g: GreedyInducedWeakOracle(g, seed=seed))
        self.oracle = factory(self.dynamic_graph.graph)
        self.rebuild_slack = rebuild_slack
        self.min_rebuild_gap = max(1, min_rebuild_gap)
        self.rng = random.Random(seed)
        # One framework for the lifetime of the maintainer: the oracle is
        # bound to the (in-place mutated) graph anyway, and reusing the
        # framework lets consecutive rebuilds share its rng/profile instead
        # of reconstructing both per rebuild.
        self._framework = WeakOracleBoostingFramework(
            self.eps, self.oracle, profile=self.profile,
            counters=self.counters, seed=self.rng.randrange(2 ** 31))

        if self.profile.repair not in ("rebuild", "incremental"):
            raise ValueError(f"unknown repair mode {self.profile.repair!r}")
        if self.profile.repair == "incremental":
            # persistent per-phase state + patchable frozen views; the
            # mirrored matching keeps the context's baselines fresh so every
            # rebuild costs O(touched) setup instead of O(n) (byte-identical
            # results either way -- see repro.core.repair)
            self.repair_context: Optional[RepairContext] = RepairContext(
                self.dynamic_graph.graph, self.profile)
            self._matching: Matching = self.repair_context.bind_matching()
        else:
            self.repair_context = None
            self._matching = Matching(n)
        self._updates_since_rebuild = 0
        self._size_at_rebuild = 0
        self._profile_dict: Optional[dict] = None

    # ------------------------------------------------------------------ state
    @property
    def graph(self) -> Graph:
        return self.dynamic_graph.graph

    def current_matching(self) -> Matching:
        return self._matching

    # ---------------------------------------------------------------- updates
    @hot_path
    def update(self, update: Update) -> None:
        changed = self.dynamic_graph.apply(update)  # logs EMPTY padding too
        if changed and self.repair_context is not None:
            self.repair_context.note_update(update.u, update.v,
                                           update.kind == Update.INSERT)
        if not self.charge_update(update):
            return
        self.counters.add("update_work", 1)

        if changed and hasattr(self.oracle, "notify_update"):
            self.oracle.notify_update(update.u, update.v,
                                      update.kind == Update.INSERT)

        if update.kind == Update.DELETE and changed:
            # a deleted matched edge leaves the matching immediately
            if self._matching.contains_edge(update.u, update.v):
                self._matching.remove(update.u, update.v)
                self.counters.add("matched_edge_deletions")
        elif update.kind == Update.INSERT and changed:
            # opportunistic O(1) improvement: match the new edge if both free
            if self._matching.is_free(update.u) and self._matching.is_free(update.v):
                self._matching.add(update.u, update.v)

        self._updates_since_rebuild += 1
        if self._needs_rebuild():
            self.rebuild()

    def insert(self, u: int, v: int) -> None:
        self.update(Update.insert(u, v))

    def delete(self, u: int, v: int) -> None:
        self.update(Update.delete(u, v))

    # ---------------------------------------------------------------- rebuild
    def _needs_rebuild(self) -> bool:
        threshold = max(self.min_rebuild_gap,
                        int(self.rebuild_slack * self.eps * max(1, self._size_at_rebuild)))
        return self._updates_since_rebuild >= threshold

    def rebuild(self) -> None:
        """Recompute the matching with the Section 6 weak-oracle framework."""
        self.counters.add("dyn_rebuilds")
        graph = self.dynamic_graph.graph
        # Warm start from the surviving matching (restricted to live edges);
        # the framework only augments, so the size never decreases.  Once a
        # previous rebuild has established (1+eps/2)-approximation, the
        # stability argument keeps the patched matching (1+eps)-close, so
        # the framework may skip its coarse scales (``warm_start``).
        if self.repair_context is not None:
            # restricted_to is the identity here (a deleted matched edge
            # leaves the matching at update time, so every matched edge is
            # live); augment the mirrored matching in place
            self._matching = self._framework.run(
                graph, initial=self._matching,
                warm_start=self._size_at_rebuild > 0,
                context=self.repair_context)
        else:
            warm = self._matching.restricted_to(graph)
            self._matching = self._framework.run(
                graph, initial=warm, warm_start=self._size_at_rebuild > 0)
        self.counters.add("update_work", graph.n)  # the n*poly(1/eps) term
        self._updates_since_rebuild = 0
        self._size_at_rebuild = self._matching.size

    # ------------------------------------------------------------- checkpoint
    def _edge_columns(self) -> Tuple[List[int], List[int]]:
        """The live edges as canonical key-sorted endpoint columns (the
        checkpointed edge section).

        When incremental repair is active the context's synced edge arrays
        already hold exactly these, kept sorted in O(k) per sync; otherwise
        the edge list is sorted once.
        """
        if self.repair_context is not None:
            eu, ev = self.repair_context.edge_arrays()
        else:
            eu, ev = edge_endpoint_arrays(
                sorted(self.dynamic_graph.graph.edge_list()))
        return eu.tolist(), ev.tolist()

    def checkpoint_state(self) -> dict:
        """Everything a byte-identical resume needs, as plain Python values.

        The packed form (``repro.resilience.checkpoint``) round-trips this
        dict through a versioned ``.npz``; capturing it is also a deep
        snapshot (fresh lists/dicts/state tuples), so an in-memory checkpoint
        stays valid while the live maintainer keeps mutating.

        What is captured -- and, as importantly, what is not: the live edge
        set (two int columns ``edge_u``/``edge_v``, canonically sorted; the
        *history* that produced it is not needed, only the accounting it
        left behind), the mate array, the
        counter bag, the three RNG streams that evolve during a run (the
        maintainer's, the boosting framework's, and the weak oracle's when it
        has one), and the rebuild schedule.  The repair context's patchable
        views are deliberately *not* captured: they are a cache over the
        graph, and a restore seeds them from the edge section, which is
        exactly what a wholesale compile produces (see ``repro.core.repair``).
        """
        import dataclasses as _dc

        mate = [(-1 if m is None else m) for m in self._matching.mate_list()]
        edge_u, edge_v = self._edge_columns()
        oracle_rng = getattr(self.oracle, "_rng", None)
        # the profile is a frozen dataclass; flatten it once per maintainer
        # (asdict deep-copies every field and dominates frequent-snapshot
        # capture cost otherwise)
        profile_dict = self._profile_dict
        if profile_dict is None:
            profile_dict = self._profile_dict = _dc.asdict(self.profile)
        return {
            "n": self.dynamic_graph.n,
            "eps": self.eps,
            "seed": self._seed,
            "profile": profile_dict,
            "rebuild_slack": self.rebuild_slack,
            "min_rebuild_gap": self.min_rebuild_gap,
            "edge_u": edge_u,
            "edge_v": edge_v,
            "mate": mate,
            "counters": self.counters.as_dict(),
            "updates_since_rebuild": self._updates_since_rebuild,
            "size_at_rebuild": self._size_at_rebuild,
            "num_updates": self.dynamic_graph.num_updates,
            "max_edges_seen": self.dynamic_graph.max_edges_seen,
            "rng": self.rng.getstate(),
            "framework_rng": self._framework.rng.getstate(),
            "oracle_rng": None if oracle_rng is None else oracle_rng.getstate(),
        }

    @classmethod
    def from_checkpoint_state(cls, state: dict,
                              oracle_factory: Optional[OracleFactory] = None,
                              counters: Optional[Counters] = None,
                              ) -> "FullyDynamicMatching":
        """Reconstruct a maintainer whose observable behaviour -- mates,
        counters, epoch boundaries, every future random draw -- is
        byte-identical to the one that produced ``state``.

        ``oracle_factory`` must be the factory the original run used (the
        checkpoint cannot serialize a callable); ``counters`` lets the caller
        resume into a shared bag -- it is reset to the checkpointed totals,
        wiping anything the restore itself charged.
        """
        profile = ParameterProfile(**state["profile"])
        alg = cls(int(state["n"]), float(state["eps"]),
                  oracle_factory=oracle_factory, profile=profile,
                  rebuild_slack=float(state["rebuild_slack"]),
                  min_rebuild_gap=int(state["min_rebuild_gap"]),
                  counters=counters, seed=state["seed"])
        # The edge columns go into the graph in one call, with the original
        # run's accounting; each adjset row is loaded on first touch as the
        # set inserting the edges in key order builds.  An OMv-style oracle
        # is refreshed wholesale afterwards instead of being notified per
        # edge.
        edge_u = np.asarray(state["edge_u"], dtype=np.int64)
        edge_v = np.asarray(state["edge_v"], dtype=np.int64)
        alg.dynamic_graph.restore_snapshot(edge_u, edge_v,
                                           int(state["num_updates"]),
                                           int(state["max_edges_seen"]))
        if hasattr(alg.oracle, "rebuild"):
            alg.oracle.rebuild()
        # one vectorized load; a mirrored matching resets the repair
        # baselines with it
        alg._matching.load_mate_array(state["mate"])
        if alg.repair_context is not None:
            # the same canonical key-sorted columns are exactly what the
            # context's first sync would compile
            alg.repair_context.seed_views(edge_u, edge_v)
        # Counters last: reconstruction above may have charged the bag.
        alg.counters.reset()
        alg.counters.merge(state["counters"])
        alg.rng.setstate(state["rng"])
        alg._framework.rng.setstate(state["framework_rng"])
        oracle_rng = getattr(alg.oracle, "_rng", None)
        if state["oracle_rng"] is not None and oracle_rng is not None:
            oracle_rng.setstate(state["oracle_rng"])
        alg._updates_since_rebuild = int(state["updates_since_rebuild"])
        alg._size_at_rebuild = int(state["size_at_rebuild"])
        return alg

    # ------------------------------------------------------------- accounting
    def amortized_update_work(self) -> float:
        """Total charged work divided by the number of updates processed.

        EMPTY padding updates are excluded from both the numerator (they are
        never charged ``update_work``) and the denominator, keeping the
        Table 2 quantity consistent; see the class docstring.
        """
        updates = max(1.0, self.counters.get("dyn_updates"))
        return self.counters.get("update_work") / updates
