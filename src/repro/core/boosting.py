"""The static boosting framework of Section 5 (Theorem 1.1).

Given oracle access to an algorithm ``Amatching`` that returns a
``c``-approximate maximum matching of any graph it is handed, the framework
computes a (1+eps)-approximate maximum matching of ``G`` by simulating the
semi-streaming algorithm:

* the initial matching is obtained by iterated peeling with ``Amatching``
  (Lemma 5.3);
* ``Contract-and-Augment`` is simulated by Algorithm 4: the structure-level
  graph ``H'`` (Definition 5.4) is built, ``Amatching`` is invoked on it for
  O(log 1/eps) iterations, and every matched pair of structures is augmented;
* ``Extend-Active-Path`` is simulated by Algorithm 5: for every stage
  ``s = 0..l_max`` the bipartite graph ``H'_s`` of s-feasible arcs
  (Definition 5.8) is built and ``Amatching`` is invoked on it for
  O(log 1/eps) iterations, performing ``Overtake`` on every matched arc.

Every oracle invocation is charged to the ``oracle_calls`` counter -- the
quantity Theorem 1.1 bounds by O(eps^-7 log(1/eps)) per run and Table 1
compares across frameworks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import repeat
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.config import ParameterProfile
from repro.core.oracles import (
    CountingOracle,
    GreedyMatchingOracle,
    MatchingOracle,
    ensure_counting,
)
from repro.core.eligibility import (
    EligibilityIndex,
    stage_right_mask,
    stage_right_vertices,
)
from repro.core.operations import apply_augmentations, augment_op
from repro.core.phase import _type2_candidates, contract_pass, run_phase
from repro.core.structures import FrozenViews, PhaseState, StructNode

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# derived graphs H' and H'_s
# ---------------------------------------------------------------------------

def build_structure_graph(state: PhaseState) -> Tuple[Graph, Dict[Edge, Edge]]:
    """Build ``H'`` (Definition 5.4): one vertex per structure, an edge between
    two structures iff some G-edge connects outer vertices of both.

    Returns ``(H', witness)`` where ``witness[(i, j)]`` is a G-edge realising
    the H'-edge ``{i, j}`` (i < j in H' labelling).  The array engine pulls
    the candidate type-2 arcs with one boolean-mask pass over the key-sorted
    edge arrays; the reference engine walks the same edge order scalar-wise,
    so both build the identical graph and witness map.
    """
    structures = state.live_structures()
    index = {id(s): i for i, s in enumerate(structures)}
    witness: Dict[Edge, Edge] = {}
    if state.engine == "array":
        eu, ev = state.edge_arrays()
        idx = _type2_candidates(state)
        candidates = list(zip(eu[idx].tolist(), ev[idx].tolist()))
    else:
        candidates = state.edge_pairs()
    for u, v in candidates:
        if state.removed[u] or state.removed[v]:
            continue
        nu, nv = state.node_of[u], state.node_of[v]
        if nu is None or nv is None or not (nu.outer and nv.outer):
            continue
        if nu.structure is nv.structure:
            continue
        if state.matching.contains_edge(u, v):
            continue
        i, j = index[id(nu.structure)], index[id(nv.structure)]
        key = (i, j) if i < j else (j, i)
        if key not in witness:
            witness[key] = (u, v) if i < j else (v, u)
    hprime = Graph(len(structures))
    hprime.add_edges(witness)
    return hprime, witness


def build_stage_graph(state: PhaseState, stage: int,
                      left_nodes: Sequence[StructNode]
                      ) -> Tuple[Graph, Dict[Edge, Edge], int]:
    """Build ``H'_s`` (Definition 5.8) for stage ``s``.

    Left part: ``left_nodes``, the working nodes of the structures eligible
    at ``s`` (active, not on hold, not yet extended, distance ``s``) in
    structure order.  Right part: inner or unvisited matched G-vertices with
    label > s+1, ascending (:func:`stage_right_vertices`).  Returns
    ``(H'_s, witness, num_left)`` where the first ``num_left`` vertices of
    the returned graph are the left part.

    Every right vertex stays a vertex of ``H'_s`` although few get an edge:
    the oracle is charged for the vertex count (``oracle_vertices_seen``),
    and it sizes the MPC oracle's machines and repetition cap.  The edges
    are found from the left side alone.  For a working vertex ``x``,
    ``arc_type(x, y) == 3`` holds exactly when the neighbour ``y`` is on the
    right side and its node is not an ancestor of ``x``'s node
    (precondition P2): the eligibility of ``x``'s structure covers every
    other clause.  A hit is numbered by bisecting the ascending right list,
    and the first witness of each pair is kept, in the order the pairs are
    first seen -- the order the edges are inserted in.  On the array engine
    a non-trivial left node is scanned in bulk instead
    (:func:`_blossom_stage_arcs`), in the same order.
    """
    if not left_nodes:
        return Graph(0), {}, 0
    array = state.engine == "array"
    if array:
        right_mask = stage_right_mask(state, stage)
        right_arr = np.flatnonzero(right_mask)
        right = right_arr.tolist()
    else:
        right = stage_right_vertices(state, stage)
    num_left = len(left_nodes)
    witness: Dict[Edge, Edge] = {}
    node_of = state.node_of
    removed = state.removed
    vlabel = state.vlabel
    sorted_neighbors = state.sorted_neighbors
    beyond = stage + 1
    for i, node in enumerate(left_nodes):
        if array and not node.is_trivial:
            js, xs, ys = _blossom_stage_arcs(state, node, right_mask,
                                             right_arr)
            witness.update(zip(zip(repeat(i), (js + num_left).tolist()),
                               zip(xs.tolist(), ys.tolist())))
            continue
        structure = node.structure
        for x in node.vertices:
            for y in sorted_neighbors(x):
                # the right side, tested in place (a free vertex keeps label
                # 0, so the label test also rules out unmatched neighbours),
                # then P2
                if vlabel[y] <= beyond or removed[y]:
                    continue
                ny = node_of[y]
                if ny is not None and (ny.outer or (
                        ny.structure is structure and ny.is_ancestor_of(node))):
                    continue
                key = (i, num_left + bisect_left(right, y))
                if key not in witness:
                    witness[key] = (x, y)
    hs = Graph(num_left + len(right))
    hs.add_edges(witness)
    return hs, witness, num_left


def _blossom_stage_arcs(state: PhaseState, node: StructNode,
                        right_mask: np.ndarray, right_arr: np.ndarray):
    """The ``H'_s`` arcs of a non-trivial left node, by one mask over its
    memoised arcs (:meth:`PhaseState.node_arcs`).

    An arc is kept when its head is on the right side (``right_mask``) and
    not in an inner ancestor of ``node`` (P2: one comparison per ancestor).
    Returns ``(right index, tail, head)`` arrays of the first arc per right
    index, in arc order -- the scalar loop's order.
    """
    xs, ys = state.node_arcs(node)
    hit = np.flatnonzero(right_mask[ys])
    heads = ys[hit]
    inner = node.parent
    if inner is not None and heads.size:
        nid = state.nid_arr[heads]
        keep = nid != inner.id
        inner = inner.parent.parent
        while inner is not None:
            keep &= nid != inner.id
            inner = inner.parent.parent
        hit, heads = hit[keep], heads[keep]
    js = right_arr.searchsorted(heads)
    # first hit per right index: fancy assignment keeps the last write per
    # index, so scattering the ranks in reverse leaves the smallest
    rank = np.arange(js.size)
    first = np.empty(right_arr.size, dtype=np.int64)
    first[js[::-1]] = rank[::-1]
    first_hit = first[js] == rank
    return js[first_hit], xs[hit[first_hit]], heads[first_hit]


# ---------------------------------------------------------------------------
# the oracle-driven phase driver (Algorithms 4 and 5)
# ---------------------------------------------------------------------------

class OracleDriver:
    """Phase driver that simulates the two streaming passes with ``Amatching``."""

    def __init__(self, oracle: MatchingOracle, profile: ParameterProfile,
                 rng: Optional[random.Random] = None) -> None:
        self.oracle = oracle
        self.profile = profile
        self.rng = rng if rng is not None else random.Random(0)

    # -- Algorithm 5 --------------------------------------------------------
    def extend_active_path(self, state: PhaseState) -> None:
        stages = self.profile.stages()
        state.counters.add("stages", len(stages))
        index = EligibilityIndex(state)
        counts = index.counts
        for stage in stages:
            for _it in range(self.profile.sim_iterations):
                # with no eligible working vertex H'_s has no edge: skip
                # the stage without building it
                if not counts.get(stage):
                    break
                left = [s.working for s in index.eligible(stage)]
                hs, witness, num_left = build_stage_graph(state, stage, left)
                if hs.m == 0:
                    break
                state.counters.add("iterations")
                matched = self.oracle.find_matching(hs)
                performed = 0
                for a, b in matched:
                    key = (a, b) if a < num_left else (b, a)
                    if key not in witness:
                        continue
                    x, y = witness[key]
                    # conditions may have been invalidated by an earlier
                    # overtake in this batch; re-check before acting.
                    nu = state.omega(x)
                    if (state.arc_type(x, y) == 3 and nu is not None
                            and state.distance(nu) == stage):
                        index.overtake(x, y, stage)
                        performed += 1
                if performed == 0:
                    break
        # Algorithm 5, line 9 would now run the Contract-and-Augment simulation
        # a second time; Remark 2 observes it can be skipped because the phase
        # driver (Algorithm 2) invokes contract_and_augment immediately after
        # this procedure anyway.  Skipping it halves the oracle calls.

    # -- Algorithm 4 --------------------------------------------------------
    def contract_and_augment(self, state: PhaseState) -> None:
        contract_pass(state)
        for _it in range(self.profile.sim_iterations):
            hprime, witness = build_structure_graph(state)
            if hprime.m == 0:
                break
            state.counters.add("iterations")
            matched = self.oracle.find_matching(hprime)
            performed = 0
            for a, b in matched:
                key = (a, b) if a < b else (b, a)
                if key not in witness:
                    continue
                u, v = witness[key]
                if state.arc_type(u, v) == 2:
                    augment_op(state, u, v)
                    performed += 1
            if performed == 0:
                break
        # No closing contract pass: the one above exhausted every type-1 arc,
        # and Augment only deletes whole structures, which cannot create one.


# ---------------------------------------------------------------------------
# the framework (Theorem 1.1)
# ---------------------------------------------------------------------------

class BoostingFramework:
    """The boosting framework of Theorem 1.1.

    Parameters
    ----------
    eps:
        Target approximation parameter.
    oracle:
        A :class:`MatchingOracle`; defaults to the greedy 2-approximation.
    profile:
        Parameter schedule; defaults to the practical profile for ``eps``.
    counters:
        Counter bag; ``oracle_calls`` accumulates the Theorem 1.1 quantity.
    seed:
        Randomness for stream orders / tie-breaking.
    check_invariants:
        Validate structure invariants after every pass-bundle (slow).
    """

    def __init__(self, eps: float, oracle: Optional[MatchingOracle] = None,
                 profile: Optional[ParameterProfile] = None,
                 counters: Optional[Counters] = None,
                 seed: Optional[int] = None,
                 check_invariants: bool = False) -> None:
        self.counters = counters if counters is not None else Counters()
        base_oracle = oracle if oracle is not None else GreedyMatchingOracle()
        self.oracle: CountingOracle = ensure_counting(base_oracle, self.counters)
        self.profile = profile if profile is not None else ParameterProfile.practical(
            eps, c=base_oracle.c)
        self.eps = self.profile.eps
        self.rng = random.Random(seed)
        self.check_invariants = check_invariants

    # -- Lemma 5.3 -----------------------------------------------------------
    def initial_matching(self, graph: Graph) -> Matching:
        """Compute a Theta(1)-approximate initial matching by iterated peeling.

        Lemma 5.3: after ``2c`` iterations of "find a c-approximate matching
        among the still-unmatched vertices and keep it", the union is a
        4-approximate matching.
        """
        matching = Matching(graph.n)
        rounds = max(1, int(2 * self.oracle.c) + 1)
        for _ in range(rounds):
            free = matching.free_vertices()
            sub, back = graph.induced_subgraph(free)
            if sub.m == 0:
                break
            found = self.oracle.find_matching(sub)
            if not found:
                break
            for x, y in found:
                matching.add(back[x], back[y])
        return matching

    # -- Theorem 1.1 ---------------------------------------------------------
    def run(self, graph: Graph, initial: Optional[Matching] = None,
            driver: Optional[OracleDriver] = None) -> Matching:
        """Boost to a (1+eps)-approximate maximum matching of ``graph``.

        ``driver`` simulates the two passes of every phase; the default is
        an :class:`OracleDriver` on this framework's oracle, profile and
        rng.  The CONGEST instantiation passes one that also charges
        Aprocess rounds.
        """
        matching = initial.copy() if initial is not None else self.initial_matching(graph)
        if driver is None:
            driver = OracleDriver(self.oracle, self.profile, rng=self.rng)
        # the graph is fixed for the whole run: share the frozen derived
        # views (CSR / sorted neighbours / packed rows) across its phases
        views = FrozenViews()
        for h in self.profile.scales:
            for _t in range(self.profile.phases(h)):
                self.counters.add("phases")
                records = run_phase(graph, matching, self.profile, h, driver,
                                    counters=self.counters,
                                    check_invariants=self.check_invariants,
                                    shared_views=views)
                gained = apply_augmentations(matching, records)
                self.counters.add("matching_gain", gained)
                if self.profile.early_exit and gained == 0:
                    break
        return matching


def boost_matching(graph: Graph, eps: float,
                   oracle: Optional[MatchingOracle] = None,
                   profile: Optional[ParameterProfile] = None,
                   counters: Optional[Counters] = None,
                   seed: Optional[int] = None,
                   check_invariants: bool = False) -> Matching:
    """Convenience wrapper: build a :class:`BoostingFramework` and run it."""
    framework = BoostingFramework(eps, oracle=oracle, profile=profile,
                                  counters=counters, seed=seed,
                                  check_invariants=check_invariants)
    return framework.run(graph)
