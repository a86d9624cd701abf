"""Unit tests for repro.graph.graph."""

import copy

import pytest

from repro.graph.graph import Graph, normalize_edge


class TestBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert list(g.edges()) == []
        assert g.max_degree() == 0

    def test_add_and_query_edges(self):
        g = Graph(4)
        assert g.add_edge(0, 1)
        assert not g.add_edge(1, 0)  # duplicate (either orientation)
        assert g.add_edge(2, 3)
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert (0, 1) in g

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.remove_edge(0, 1)
        assert not g.remove_edge(0, 1)
        assert g.m == 1
        assert not g.has_edge(0, 1)

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_vertex_out_of_range(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            g.neighbors(-1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_degrees(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.max_degree() == 3

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 1), (2, 0)])
        edges = sorted(g.edges())
        assert edges == [(0, 2), (1, 3)]
        assert sorted(g.edge_list()) == edges

    def test_normalize_edge(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)


class TestDerived:
    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = copy.deepcopy(g)
        h.add_edge(1, 2)
        assert g.m == 1 and h.m == 2
        assert g.degree(1) == 1 and h.degree(1) == 2

    def test_induced_subgraph(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, back = g.induced_subgraph([1, 2, 3])
        assert sub.n == 3 and sub.m == 2
        original_edges = {tuple(sorted((back[u], back[v]))) for u, v in sub.edges()}
        assert original_edges == {(1, 2), (2, 3)}

    def test_induced_subgraph_deduplicates(self):
        g = Graph(3, [(0, 1)])
        sub, back = g.induced_subgraph([0, 1, 1, 0])
        assert sub.n == 2 and sub.m == 1

    def test_subgraph_edges(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        assert sorted(g.subgraph_edges([0, 1, 3])) == [(0, 1)]

    @pytest.mark.parametrize("vertices", [[-1, 3], [7]],
                             ids=["negative", "past-n"])
    def test_induced_walk_checks_vertex_ids(self, vertices):
        # a negative id must not index a row from the end
        g = Graph(5, [(0, 1), (3, 4), (1, 2)])
        with pytest.raises(ValueError, match="out of range"):
            g.subgraph_edges(vertices)
        with pytest.raises(ValueError, match="out of range"):
            g.induced_subgraph(vertices)
        assert g.subgraph_edges([]) == [] and g.induced_subgraph([])[0].n == 0

    def test_connected_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[0, 1, 2], [3, 4], [5]]

    def test_arboricity_upper_bound(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # a path: degeneracy 1
        assert g.arboricity_upper_bound() == 1
        k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert k4.arboricity_upper_bound() == 3
