"""The weak-oracle boosting framework of Section 6 (Theorem 6.2).

The static framework of Section 5 needs a matching oracle for *adaptively
derived* graphs (``H'``, ``H'_s``).  A dynamic-matching data structure can only
afford a much weaker oracle ``Aweak`` (Definition 6.1): given a vertex subset
``S`` of the *fixed* graph ``G``, it returns a Theta(1)-approximate matching of
``G[S]`` provided ``G[S]`` has a large matching.

Section 6 shows the simulation still goes through by *sampling* one vertex per
structure and invoking ``Aweak`` on the sampled set:

* ``Contract-and-Augment`` (Section 6.5): sample one outer vertex per
  structure; any edge of ``G[S]`` then connects outer vertices of two distinct
  structures, i.e. is a type-2 arc, and each returned matched edge yields an
  ``Augment``.
* ``Extend-Active-Path`` (Section 6.6): per stage ``s``, first perform the
  in-structure s-feasible overtakes directly (Invariant 6.10), then repeatedly
  sample one vertex per structure and query the bipartite double cover
  ``B[S]`` so that returned edges are outer-to-inner, i.e. type-3 arcs, and
  each yields an ``Overtake``.

Deviation from the paper: unvisited matched vertices belong to no
structure, so sampling "one per structure" never proposes them; we add the
inner copies of all unvisited matched vertices to the query set, which only
enlarges the preserved subgraph and keeps the oracle calls intact.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.eligibility import EligibilityIndex
from repro.core.oracles import CountingWeakOracle, WeakOracle, ensure_counting_weak
from repro.core.operations import apply_augmentations, augment_op
from repro.core.phase import contract_pass, run_phase
from repro.core.structures import FrozenViews, PhaseState

Edge = Tuple[int, int]


class SamplingOracleDriver:
    """Phase driver that simulates the streaming passes with ``Aweak`` sampling.

    Every structure consumes one uniform draw per sampling iteration, in
    structure order, whether or not its draw can be used -- the draws *are*
    the random stream.  A draw is classified against the live phase state
    (the structure's stage in :class:`EligibilityIndex`, its working node
    and the drawn vertex's node and label), so no per-iteration table is
    built and the bookkeeping never decides which draws are made.  The
    samplers read a structure's vertex memos directly, calling the method
    that fills one only when it is empty.

    A uniform index below ``n`` is drawn the way ``random.Random`` draws it
    for ``random.choice``: ``getrandbits(n.bit_length())`` until the value is
    below ``n``.  The samplers inline that loop (with the bit length cached)
    instead of calling ``_randbelow`` once per structure per iteration; an
    rng whose ``_randbelow`` works differently is refused rather than
    silently sampled on another stream.
    """

    def __init__(self, weak_oracle: WeakOracle, profile: ParameterProfile,
                 rng: Optional[random.Random] = None,
                 sampling_rounds: int = 4,
                 patience: int = 3) -> None:
        self.weak_oracle = weak_oracle
        self.profile = profile
        self.rng = rng if rng is not None else random.Random(0)
        if (getattr(type(self.rng), "_randbelow", None)
                is not random.Random._randbelow_with_getrandbits):
            raise TypeError("the sampling driver needs an rng that draws "
                            "indices like random.Random")
        # The paper uses Theta(1/(lambda * delta)) sampling iterations; we run
        # ``sampling_rounds`` times the deterministic iteration count and stop
        # early after ``patience`` consecutive unproductive samples.
        self.iterations = max(1, sampling_rounds * profile.sim_iterations)
        self.patience = patience

    # -- Section 6.6 ---------------------------------------------------------
    def extend_active_path(self, state: PhaseState) -> None:
        stages = self.profile.stages()
        state.counters.add("stages", len(stages))
        index = EligibilityIndex(state)
        counts = index.counts
        iterations = 0
        for stage in stages:
            # a stage no working vertex is eligible at is a guaranteed no-op
            # (the in-structure sweep and the sampler both need one)
            if not counts.get(stage):
                continue
            self._in_structure_overtakes(state, index, stage)
            misses = 0
            for _it in range(self.iterations):
                left, right = self._stage_sample(index, stage)
                if not left or not right:
                    break
                iterations += 1
                result = self.weak_oracle.query_bipartite(left, right,
                                                          self.profile.delta)
                performed = 0
                if result:
                    left_set = set(left)
                    for x, y in result:
                        # orient the arc: x must be the outer/working endpoint
                        if x not in left_set:
                            x, y = y, x
                        nu = state.omega(x)
                        if (state.arc_type(x, y) == 3 and nu is not None
                                and state.distance(nu) == stage):
                            index.overtake(x, y, stage)
                            performed += 1
                if performed == 0:
                    misses += 1
                    if misses >= self.patience:
                        break
                else:
                    misses = 0
        # charged once per call: nothing reads the counter inside it
        if iterations:
            state.counters.add("iterations", iterations)

    def _in_structure_overtakes(self, state: PhaseState,
                                index: EligibilityIndex, stage: int) -> None:
        """Maintain Invariant 6.10: no s-feasible arc stays inside a structure.

        An in-structure overtake changes only its own structure, so the
        structures eligible when the sweep starts are exactly the ones it
        must visit.
        """
        node_of = state.node_of
        vlabel = state.vlabel
        beyond = stage + 1
        for structure in index.eligible(stage):
            if not structure.root.children:
                continue  # a lone root has no inner vertex to overtake
            w = structure.working
            done = False
            for x in list(w.vertices):
                if done:
                    break
                # inner members labelled beyond the stage: every other
                # neighbour fails the arc_type test below anyway
                candidates = [y for y in state.sorted_neighbors(x)
                              if (node_y := node_of[y]) is not None
                              and node_y.structure is structure
                              and not node_y.outer
                              and vlabel[y] > beyond]
                for y in candidates:
                    if state.arc_type(x, y) == 3:
                        index.overtake(x, y, stage)
                        state.counters.add("in_structure_overtakes")
                        done = True
                        break

    def _stage_sample(self, index: EligibilityIndex,
                      stage: int) -> Tuple[List[int], List[int]]:
        """Build the sampled query sets (outer side, inner side) for a stage.

        One uniform vertex per structure, drawn from its sorted vertices and
        classified against the live phase state: an inner vertex labelled
        beyond ``stage + 1`` joins the right side, a vertex of the working
        node of a structure eligible at ``stage`` the left side.
        """
        state = index.state
        getrandbits = self.rng.getrandbits
        node_of = state.node_of
        vlabel = state.vlabel
        beyond = stage + 1
        left: List[int] = []
        right: List[int] = []
        for structure, at in zip(index.order, index.stage_of):
            verts = structure._sorted_cache or structure.sorted_vertices()
            n = len(verts)
            if n == 1:
                # a lone root, eligible exactly when its root is working;
                # the loop consumes what _randbelow(1) does
                while getrandbits(1):
                    pass
                if at == stage:
                    left.append(verts[0])
                continue
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            v = verts[r]
            node = node_of[v]
            if node.outer:
                if at == stage and node is structure.working:
                    left.append(v)
            elif vlabel[v] > beyond:
                right.append(v)
        if not left:
            # the caller stops on an empty side; skip the bulk below
            return left, right
        # unvisited matched vertices are not covered by per-structure
        # sampling; they join the right side in bulk
        right.extend(state.unvisited_right(stage))
        return left, right

    # -- Section 6.5 ---------------------------------------------------------
    def contract_and_augment(self, state: PhaseState) -> None:
        contract_pass(state)
        getrandbits = self.rng.getrandbits
        structures = state.live_structures()
        misses = 0
        iterations = 0
        for _it in range(self.iterations):
            # one uniform outer vertex per structure
            sampled = []
            for structure in structures:
                outs = structure._outer_cache or structure.outer_vertices()
                n = len(outs)
                if n == 1:
                    while getrandbits(1):
                        pass
                    sampled.append(outs[0])
                    continue
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                sampled.append(outs[r])
            if len(sampled) < 2:
                break
            iterations += 1
            result = self.weak_oracle.query(sampled, self.profile.delta)
            performed = 0
            if result:
                for u, v in result:
                    if state.arc_type(u, v) == 2:
                        augment_op(state, u, v)
                        performed += 1
                    elif state.arc_type(v, u) == 2:
                        augment_op(state, v, u)
                        performed += 1
            if performed == 0:
                misses += 1
                if misses >= self.patience:
                    break
            else:
                misses = 0
                # Augment removed the two structures of every augmentation
                # and touched no other
                structures = state.live_structures()
        if iterations:
            state.counters.add("iterations", iterations)
        # No closing contract pass: the one above exhausted every type-1 arc,
        # and Augment only deletes whole structures, which cannot create one.


class WeakOracleBoostingFramework:
    """The Section 6 framework: (1+eps)-approximation from ``Aweak`` only.

    Parameters mirror :class:`~repro.core.boosting.BoostingFramework`; the
    oracle is a :class:`~repro.core.oracles.WeakOracle` bound to the input
    graph.  ``weak_oracle_calls`` accumulates the Theorem 6.2 quantity.
    """

    def __init__(self, eps: float, weak_oracle: WeakOracle,
                 profile: Optional[ParameterProfile] = None,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 sampling_rounds: int = 4,
                 check_invariants: bool = False) -> None:
        self.counters = counters if counters is not None else Counters()
        self.weak_oracle: CountingWeakOracle = ensure_counting_weak(
            weak_oracle, self.counters)
        self.profile = profile if profile is not None else ParameterProfile.practical(eps)
        self.eps = self.profile.eps
        self.rng = random.Random(seed)
        self.sampling_rounds = sampling_rounds
        self.check_invariants = check_invariants

    # -- Lemma 6.7 -----------------------------------------------------------
    def initial_matching(self, graph: Graph) -> Matching:
        """Iterated ``Aweak`` peeling yields a Theta(1)-approximate matching."""
        matching = Matching(graph.n)
        # at most ~1/(lambda*delta) productive iterations; cap generously
        max_rounds = max(4, 4 * self.profile.sim_iterations)
        for _ in range(max_rounds):
            free = matching.free_vertices()
            if len(free) < 2:
                break
            result = self.weak_oracle.query(free, self.profile.delta)
            if not result:
                break
            added = 0
            for u, v in result:
                if matching.is_free(u) and matching.is_free(v):
                    matching.add(u, v)
                    added += 1
            if added == 0:
                break
        return matching

    # -- Theorem 6.2 ---------------------------------------------------------
    def run(self, graph: Graph, initial: Optional[Matching] = None,
            warm_start: bool = False, context=None) -> Matching:
        """Compute a (1+eps)-approximate maximum matching of ``graph``.

        ``warm_start`` declares that ``initial`` is already (1+O(eps))-close
        to optimal -- the dynamic maintainers guarantee exactly that by the
        stability argument (at most ``eps/8 * |M|`` updates since the last
        rebuild).  The coarse scales of Algorithm 1 exist to erase large
        deficits, which a warm start cannot have, so the run short-circuits
        to the finest scales (whose structure-size limit and phase budget
        dominate the coarser ones); quality is unchanged, the per-rebuild
        work drops by the skipped scales' phase schedules.

        ``context`` (a :class:`~repro.core.repair.RepairContext`) enables
        incremental repair: ``initial`` must be the context's mirrored
        matching and is augmented *in place* (no copy), and every phase
        borrows the context's persistent state.  Byte-identical to a
        context-free run -- see ``repro.core.repair``.
        """
        if self.weak_oracle.graph is not graph:
            # Definition 6.1 binds the oracle to a fixed graph; verify the
            # caller handed the matching one (same object identity).
            raise ValueError("the weak oracle must be bound to the input graph")
        if context is not None:
            if initial is None or initial is not context.matching:
                raise ValueError("incremental repair must run on the "
                                 "RepairContext's mirrored matching")
            matching = initial
        else:
            matching = (initial.copy() if initial is not None
                        else self.initial_matching(graph))
        driver = SamplingOracleDriver(self.weak_oracle, self.profile,
                                      rng=self.rng,
                                      sampling_rounds=self.sampling_rounds)
        scales = self.profile.scales
        if warm_start and initial is not None and initial.size > 0:
            scales = scales[-2:]
            self.counters.add("warm_rebuilds")
        # the graph is fixed for the whole rebuild: share the frozen derived
        # views across its phases (run_phase ignores this under ``context``,
        # whose patched copies already persist between phases)
        views = FrozenViews() if context is None else None
        for h in scales:
            stagnant = 0
            for _t in range(self.profile.phases(h)):
                self.counters.add("phases")
                records = run_phase(graph, matching, self.profile, h, driver,
                                    counters=self.counters,
                                    check_invariants=self.check_invariants,
                                    context=context, shared_views=views)
                gained = apply_augmentations(matching, records)
                self.counters.add("matching_gain", gained)
                if self.profile.early_exit:
                    stagnant = stagnant + 1 if gained == 0 else 0
                    # sampling is randomised, so allow one unproductive retry
                    if stagnant >= 2:
                        break
        return matching


def boost_matching_weak(graph: Graph, eps: float, weak_oracle: WeakOracle,
                        profile: Optional[ParameterProfile] = None,
                        counters: Optional[Counters] = None,
                        seed: Optional[int] = None,
                        sampling_rounds: int = 4,
                        check_invariants: bool = False) -> Matching:
    """Convenience wrapper around :class:`WeakOracleBoostingFramework`."""
    framework = WeakOracleBoostingFramework(
        eps, weak_oracle, profile=profile, counters=counters, seed=seed,
        sampling_rounds=sampling_rounds, check_invariants=check_invariants)
    return framework.run(graph)
