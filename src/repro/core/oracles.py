"""Oracle protocols and concrete Theta(1)-approximate matching oracles.

Two oracle interfaces appear in the paper:

* ``Amatching`` (Definition 5.1) -- given an arbitrary graph ``H``, return a
  ``c``-approximate maximum matching of ``H``.  The static boosting framework
  (Section 5) invokes it on adaptively derived graphs ``H'`` and ``H'_s``.
* ``Aweak`` (Definition 6.1) -- bound to a fixed (possibly dynamic) graph
  ``G``; given a vertex subset ``S`` and a threshold ``delta``, return a
  matching of ``G[S]`` of size at least ``lambda * delta * n`` or ``bottom``;
  it must not return ``bottom`` whenever ``mu(G[S]) >= delta * n``.

This module defines both protocols, the stock implementations used in tests
and benchmarks (greedy, random-greedy), and :class:`CountingOracle` /
:class:`CountingWeakOracle` wrappers that charge every invocation to a
:class:`~repro.instrumentation.counters.Counters` bag -- the quantity Table 1
and Table 2 are about.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, edge_list_of
from repro.instrumentation.counters import Counters
from repro.matching.greedy import greedy_scan, shuffled_greedy

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# Amatching (Definition 5.1)
# ---------------------------------------------------------------------------

class MatchingOracle(ABC):
    """A Theta(1)-approximate maximum-matching oracle (``Amatching``).

    An oracle is handed a graph as ``(n, edges)``: its vertex count and its
    edges as ``(a, b)`` pairs, each edge once, in the order the caller found
    them.  The graph they stand for is ``Graph(n, edges)``, rows and row
    order included, so an oracle that scans edges scans
    :func:`~repro.graph.graph.edge_list_of` order, and one that needs a
    network (CONGEST) or adjacency (exact blossom) builds that graph.
    """

    #: approximation factor guaranteed by the oracle (``c`` in the paper)
    c: float = 2.0
    name: str = "oracle"

    @abstractmethod
    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        """Return a ``c``-approximate maximum matching of ``Graph(n, edges)``."""


class GreedyMatchingOracle(MatchingOracle):
    """Deterministic greedy maximal matching: the textbook 2-approximation."""

    c = 2.0
    name = "greedy"

    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        return greedy_scan(n, edge_list_of(n, edges)).edge_list()


class RandomGreedyMatchingOracle(MatchingOracle):
    """Greedy maximal matching over a random edge order (2-approximation)."""

    c = 2.0
    name = "random-greedy"

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        # Thread the oracle's own Random instance through: one seed at
        # construction reproduces the whole invocation sequence.
        return shuffled_greedy(n, edge_list_of(n, edges),
                               self._rng).edge_list()


class CountingOracle(MatchingOracle):
    """Wrap any :class:`MatchingOracle` and charge its invocations to counters.

    Counters charged per call: ``oracle_calls``, ``oracle_vertices_seen``,
    ``oracle_edges_seen``; the largest instance seen is kept in
    ``oracle_max_vertices``.
    """

    def __init__(self, inner: MatchingOracle, counters: Counters) -> None:
        self.inner = inner
        self.counters = counters
        self.c = inner.c
        self.name = f"counting({inner.name})"

    def find_matching(self, n: int, edges: Sequence[Edge]) -> List[Edge]:
        self.counters.add("oracle_calls")
        self.counters.add("oracle_vertices_seen", n)
        self.counters.add("oracle_edges_seen", len(edges))
        if n > self.counters.get("oracle_max_vertices"):
            self.counters.reset("oracle_max_vertices")
            self.counters.add("oracle_max_vertices", n)
        return self.inner.find_matching(n, edges)


def ensure_counting(oracle: MatchingOracle, counters: Counters) -> "CountingOracle":
    """Wrap ``oracle`` in a :class:`CountingOracle` unless it already is one
    charging the same counter bag."""
    if isinstance(oracle, CountingOracle) and oracle.counters is counters:
        return oracle
    return CountingOracle(oracle, counters)


# ---------------------------------------------------------------------------
# Aweak (Definition 6.1)
# ---------------------------------------------------------------------------

class WeakOracle(ABC):
    """The weak induced-subgraph oracle ``Aweak`` bound to a graph ``G``.

    ``query(S, delta)`` must return a matching of ``G[S]`` of size at least
    ``lam * delta * n`` or ``None`` (the paper's ``bottom``); it must not
    return ``None`` when ``mu(G[S]) >= delta * n``.

    ``query_bipartite(left, right, delta)`` is the same contract on the
    induced subgraph of the bipartite double cover ``B[left+ ∪ right-]``
    (Definition 6.3): only edges with one endpoint in ``left`` and the other in
    ``right`` may be used, and the returned matching never contains an
    inner-inner edge.  The default implementation restricts ``query``'s search
    to such edges; specialised oracles (e.g. the OMv-backed one) override it.
    """

    #: the constant ``lambda`` of Definition 6.1
    lam: float = 0.5
    name: str = "weak-oracle"

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    @abstractmethod
    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        """Matching in ``G[subset]`` of size >= lam*delta*n, or ``None``."""

    def query_bipartite(self, left: Sequence[int], right: Sequence[int],
                        delta: float) -> Optional[List[Edge]]:
        # Default implementation: emulate querying the bipartite double cover
        # B[left+ ∪ right-] by greedily matching the *cross* edges only (an
        # edge of G with one endpoint in ``left`` and the other in ``right``).
        # Restricting to cross edges is essential: a matching of G[left ∪
        # right] could spend right-right edges and starve the outer-inner
        # pairs the framework needs.  Subclasses with their own machinery
        # (e.g. the OMv-backed oracle) override this.
        #
        # The scan runs in canonical (sorted) order on both axes: neighbor
        # iteration follows each adjacency set's internal order, which
        # depends on the graph's update history, so an order-sensitive greedy
        # here would tie seeded runs to how the graph was built -- the same
        # kind of determinism contract violation as iterating in
        # address-hash order (see "Execution layer" in ARCHITECTURE.md).
        #
        # Each left vertex takes its smallest free right neighbour -- what
        # an ascending scan of its row would pick -- found by one set
        # intersection; only the (few) hits are sorted, not the row.
        neighbor_list = self.graph.neighbor_list
        free = set(right)
        free.difference_update(left)
        result: List[Edge] = []
        for u in sorted(set(left)):
            hits = free.intersection(neighbor_list(u))
            if hits:
                v = sorted(hits)[0]
                free.remove(v)
                result.append((u, v))
        return result if result else None


class CountingWeakOracle(WeakOracle):
    """Charge every ``Aweak`` invocation to a counter bag.

    Counters: ``weak_oracle_calls``, ``weak_oracle_vertices_seen``,
    ``weak_oracle_bottom`` (number of ``None`` answers).
    """

    def __init__(self, inner: WeakOracle, counters: Counters) -> None:
        super().__init__(inner.graph)
        self.inner = inner
        self.counters = counters
        self.lam = inner.lam
        self.name = f"counting({inner.name})"

    def query(self, subset: Sequence[int], delta: float) -> Optional[List[Edge]]:
        self.counters.add("weak_oracle_calls")
        self.counters.add("weak_oracle_vertices_seen", len(subset))
        result = self.inner.query(subset, delta)
        if result is None:
            self.counters.add("weak_oracle_bottom")
        return result

    def query_bipartite(self, left: Sequence[int], right: Sequence[int],
                        delta: float) -> Optional[List[Edge]]:
        self.counters.add("weak_oracle_calls")
        self.counters.add("weak_oracle_vertices_seen", len(left) + len(right))
        result = self.inner.query_bipartite(left, right, delta)
        if result is None:
            self.counters.add("weak_oracle_bottom")
        return result


def ensure_counting_weak(oracle: WeakOracle, counters: Counters) -> CountingWeakOracle:
    if isinstance(oracle, CountingWeakOracle) and oracle.counters is counters:
        return oracle
    return CountingWeakOracle(oracle, counters)
