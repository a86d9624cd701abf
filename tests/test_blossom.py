"""Tests for the exact blossom matcher (the ground-truth substrate)."""

import pytest

from conftest import brute_force_maximum_matching_size

from repro.graph.generators import (
    blossom_gadget,
    cycle_graph,
    erdos_renyi,
    nested_blossom_gadget,
    path_graph,
    planted_matching,
    random_bipartite,
)
from repro.graph.graph import Graph
from repro.matching.blossom import (
    find_augmenting_path,
    maximum_matching,
    maximum_matching_size,
)
from repro.matching.greedy import greedy_maximal_matching
from repro.matching.matching import Matching


class TestExactness:
    def test_matches_brute_force_on_small_graphs(self, small_graphs):
        for name, g in small_graphs:
            if g.n > 16 or g.m > 24:
                continue
            assert maximum_matching_size(g) == brute_force_maximum_matching_size(g), name

    def test_matches_brute_force_on_random_small(self):
        for seed in range(10):
            g = erdos_renyi(9, 0.35, seed=seed)
            assert maximum_matching_size(g) == brute_force_maximum_matching_size(g)

    def test_matches_networkx_on_random(self):
        nx = pytest.importorskip("networkx")
        for seed in range(5):
            g = erdos_renyi(40, 0.1, seed=seed)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            nx_size = len(nx.max_weight_matching(nxg, maxcardinality=True))
            assert maximum_matching_size(g) == nx_size

    def test_known_structures(self):
        assert maximum_matching_size(path_graph(9)) == 4
        assert maximum_matching_size(cycle_graph(9)) == 4
        assert maximum_matching_size(blossom_gadget(2, 3)) == 6
        assert maximum_matching_size(nested_blossom_gadget()) == 5

    def test_planted_matching_found(self):
        g, planted = planted_matching(25, 0.03, seed=1)
        m = maximum_matching(g)
        m.validate(g)
        assert m.size == 25

    def test_bipartite_agrees_with_hopcroft_karp(self):
        from repro.matching.hopcroft_karp import hopcroft_karp

        for seed in range(4):
            g, _, _ = random_bipartite(12, 15, 0.2, seed=seed)
            assert maximum_matching_size(g) == hopcroft_karp(g).size

    def test_output_is_valid_matching(self, small_graphs):
        for name, g in small_graphs:
            maximum_matching(g).validate(g)


class TestWarmStartAndIncremental:
    def test_warm_start_respects_initial(self):
        g = path_graph(6)
        initial = Matching(6, [(1, 2)])
        m = maximum_matching(g, initial=initial)
        m.validate(g)
        assert m.size == 3

    def test_find_augmenting_path_increases_by_one(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        assert find_augmenting_path(g, m)
        assert m.size == 2
        m.validate(g)
        assert not find_augmenting_path(g, m)

    def test_find_augmenting_path_through_blossom(self):
        # triangle 0-1-2 with stems 0-3 and 1-4: maximum matching is 2 but a
        # greedy matching on the triangle edge (0,1) must go through a blossom
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        m = Matching(5, [(0, 1)])
        assert find_augmenting_path(g, m)
        m.validate(g)
        assert m.size == 2

    def test_greedy_then_augment_reaches_optimum(self, medium_graphs):
        for name, g in medium_graphs:
            m = greedy_maximal_matching(g)
            while find_augmenting_path(g, m):
                pass
            assert m.size == maximum_matching_size(g), name
            m.validate(g)
