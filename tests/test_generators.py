"""Unit tests for the workload generators."""

import pytest

from repro.graph.generators import (
    blossom_gadget,
    cycle_graph,
    disjoint_paths,
    erdos_renyi,
    nested_blossom_gadget,
    path_graph,
    planted_matching,
    random_bipartite,
)
from repro.matching.hopcroft_karp import bipartition
from repro.matching.blossom import maximum_matching_size
from repro.matching.matching import Matching


class TestRandomFamilies:
    def test_erdos_renyi_edge_count_reasonable(self):
        g = erdos_renyi(50, 0.1, seed=1)
        assert g.n == 50
        expected = 0.1 * 50 * 49 / 2
        assert 0.3 * expected < g.m < 2.0 * expected

    def test_erdos_renyi_deterministic_given_seed(self):
        a = erdos_renyi(30, 0.2, seed=42)
        b = erdos_renyi(30, 0.2, seed=42)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_random_bipartite_is_bipartite(self):
        g, left, right = random_bipartite(10, 12, 0.3, seed=4)
        assert bipartition(g) is not None
        left_set = set(left)
        for u, v in g.edges():
            assert (u in left_set) != (v in left_set)

class TestStructuredFamilies:
    def test_planted_matching_is_certificate(self):
        g, planted = planted_matching(15, extra_edge_prob=0.05, seed=3)
        matching = Matching(g.n, planted)
        matching.validate(g)
        assert matching.size == 15
        assert maximum_matching_size(g) == 15

    def test_path_and_cycle_optimum(self):
        assert maximum_matching_size(path_graph(7)) == 3
        assert maximum_matching_size(path_graph(8)) == 4
        assert maximum_matching_size(cycle_graph(7)) == 3
        assert maximum_matching_size(cycle_graph(8)) == 4

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_disjoint_paths_optimum(self):
        g = disjoint_paths(4, 5)
        assert g.n == 4 * 6
        # each path with 5 edges has a maximum matching of 3
        assert maximum_matching_size(g) == 12

    def test_blossom_gadget_optimum(self):
        # one triangle + stem of 2: 5 vertices, maximum matching 2
        g = blossom_gadget(1, 2)
        assert maximum_matching_size(g) == 2
        g = blossom_gadget(4, 2)
        assert maximum_matching_size(g) == 8

    def test_nested_blossom_gadget(self):
        g = nested_blossom_gadget()
        assert g.n == 10
        assert maximum_matching_size(g) == 5
