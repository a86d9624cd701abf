"""Unit tests for the BFS two-colouring that Hopcroft--Karp runs when it is
given no sides (``repro.matching.hopcroft_karp.bipartition``)."""

from repro.graph.graph import Graph
from repro.graph.generators import cycle_graph, random_bipartite
from repro.matching.hopcroft_karp import bipartition


class TestBipartitenessChecks:
    def test_even_cycle_bipartite(self):
        assert bipartition(cycle_graph(6)) is not None

    def test_odd_cycle_not_bipartite(self):
        assert bipartition(cycle_graph(5)) is None

    def test_bipartition_is_proper(self):
        g, left, right = random_bipartite(6, 7, 0.4, seed=1)
        parts = bipartition(g)
        assert parts is not None
        l, r = map(set, parts)
        for u, v in g.edges():
            assert (u in l) != (v in l)

    def test_empty_graph_bipartite(self):
        assert bipartition(Graph(4)) is not None
