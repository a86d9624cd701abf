"""Tests for the oracle protocols (Amatching / Aweak) and counting wrappers."""

import random

import pytest

from repro.congest.matching_congest import (CongestMatchingOracle,
                                            congest_approx_matching)
from repro.congest.simulator import CongestSimulator
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.graph import Graph
from repro.matching.blossom import maximum_matching_size
from repro.matching.greedy import (greedy_maximal_matching,
                                   random_greedy_matching)
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.mpc.matching_mpc import MPCMatchingOracle, mpc_approx_matching
from repro.mpc.simulator import MPCSimulator
from repro.core.oracles import (
    CountingOracle,
    CountingWeakOracle,
    GreedyMatchingOracle,
    RandomGreedyMatchingOracle,
    WeakOracle,
    ensure_counting,
    ensure_counting_weak,
)
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle


class TestMatchingOracles:
    def test_greedy_oracle_c_approximation(self):
        oracle = GreedyMatchingOracle()
        for seed in range(3):
            g = erdos_renyi(30, 0.15, seed=seed)
            edges = oracle.find_matching(g.n, g.edge_list())
            m = Matching(g.n, edges)
            m.validate(g)
            assert oracle.c * m.size >= maximum_matching_size(g)

    def test_random_greedy_oracle(self):
        oracle = RandomGreedyMatchingOracle(seed=1)
        g = erdos_renyi(30, 0.15, seed=1)
        edges = oracle.find_matching(g.n, g.edge_list())
        m = Matching(g.n, edges)
        m.validate(g)
        assert 2 * m.size >= maximum_matching_size(g)

    def test_counting_wrapper_charges_calls(self):
        counters = Counters()
        oracle = CountingOracle(GreedyMatchingOracle(), counters)
        g = path_graph(6)
        oracle.find_matching(g.n, g.edge_list())
        oracle.find_matching(g.n, g.edge_list())
        assert counters.get("oracle_calls") == 2
        assert counters.get("oracle_vertices_seen") == 12
        assert counters.get("oracle_edges_seen") == 10
        assert counters.get("oracle_max_vertices") == 6

    def test_ensure_counting_idempotent(self):
        counters = Counters()
        inner = GreedyMatchingOracle()
        counted = ensure_counting(inner, counters)
        assert ensure_counting(counted, counters) is counted
        other = Counters()
        assert ensure_counting(counted, other) is not counted


def _graph_oracles(seed):
    """Each stock oracle beside what it computes on the graph its edge list
    stands for: a function of that ``Graph`` and a counter bag."""

    def mpc_on_graph(graph, counters):
        machines = MPCSimulator.default_machine_count(graph.n, graph.m, 4096)
        simulator = MPCSimulator(machines, memory_per_machine=None,
                                 counters=counters, strict=False)
        return mpc_approx_matching(
            graph.n, graph.edge_list(), simulator,
            seed=random.Random(seed).randrange(2 ** 31))

    def congest_on_graph(graph, counters):
        return congest_approx_matching(
            graph, CongestSimulator(graph, counters=counters, strict=True),
            seed=random.Random(seed).randrange(2 ** 31))

    def counted_greedy_on_graph(graph, counters):
        counters.add("oracle_calls")
        counters.add("oracle_vertices_seen", graph.n)
        counters.add("oracle_edges_seen", graph.m)
        counters.add("oracle_max_vertices", graph.n)
        return greedy_maximal_matching(graph).edge_list()

    return [
        (lambda c: GreedyMatchingOracle(),
         lambda g, c: greedy_maximal_matching(g).edge_list()),
        (lambda c: RandomGreedyMatchingOracle(seed=seed),
         lambda g, c: random_greedy_matching(
             g, rng=random.Random(seed)).edge_list()),
        (lambda c: CountingOracle(GreedyMatchingOracle(), c),
         counted_greedy_on_graph),
        (lambda c: MPCMatchingOracle(counters=c, seed=seed), mpc_on_graph),
        (lambda c: CongestMatchingOracle(counters=c, seed=seed),
         congest_on_graph),
    ]


@pytest.mark.parametrize("which", range(5))
def test_oracle_sees_the_graph_its_edges_stand_for(which):
    """An oracle handed ``(n, edges)`` returns, and charges, what it
    computes on ``Graph(n, edges)``: edges in builder order (either
    orientation, any order) reach the same draws as the graph would."""
    for seed in range(6):
        g = erdos_renyi(40, 0.12, seed=seed)
        edges = g.edge_list()
        rng = random.Random(seed)
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        make, on_graph = _graph_oracles(seed)[which]
        handed, built = Counters(), Counters()
        got = make(handed).find_matching(g.n, edges)
        assert got == on_graph(Graph(g.n, edges), built)
        assert handed.as_dict() == built.as_dict()


class TestWeakOracles:
    def test_default_query_bipartite_uses_cross_edges_only(self):
        g = path_graph(6)
        oracle = GreedyInducedWeakOracle(g, seed=0)
        result = oracle.query_bipartite([0, 2, 4], [1, 3, 5], delta=0.1)
        assert result
        left, right = {0, 2, 4}, {1, 3, 5}
        for u, v in result:
            assert (u in left and v in right) or (v in left and u in right)
            assert g.has_edge(u, v)

    def test_query_bipartite_returns_none_when_no_cross_edges(self):
        g = path_graph(6)
        oracle = GreedyInducedWeakOracle(g, seed=0)
        assert oracle.query_bipartite([0, 2, 4], [], delta=0.1) is None
        assert oracle.query_bipartite([0], [4], delta=0.1) is None

    def test_counting_weak_oracle(self):
        g = path_graph(6)
        counters = Counters()
        oracle = CountingWeakOracle(GreedyInducedWeakOracle(g, seed=0), counters)
        oracle.query([0, 1, 2], 0.1)
        oracle.query_bipartite([0], [1], 0.1)
        oracle.query([0], 0.1)  # returns None -> counted as bottom
        assert counters.get("weak_oracle_calls") == 3
        assert counters.get("weak_oracle_bottom") == 1

    def test_ensure_counting_weak(self):
        g = path_graph(4)
        counters = Counters()
        inner = GreedyInducedWeakOracle(g, seed=0)
        counted = ensure_counting_weak(inner, counters)
        assert ensure_counting_weak(counted, counters) is counted
