"""Unit tests for the Matching container."""

import pytest

from repro.graph.graph import Graph
from repro.matching.matching import Matching


class TestBasics:
    def test_empty(self):
        m = Matching(5)
        assert len(m) == 0
        assert m.free_vertices() == list(range(5))
        assert m.matched_vertices() == []

    def test_add_and_mate(self):
        m = Matching(4)
        m.add(0, 2)
        assert m.size == 1
        assert m.mate(0) == 2 and m.mate(2) == 0
        assert m.is_matched(0) and m.is_free(1)
        assert m.contains_edge(0, 2) and m.contains_edge(2, 0)
        assert not m.contains_edge(0, 1)

    def test_add_conflicts_rejected(self):
        m = Matching(4, [(0, 1)])
        with pytest.raises(ValueError):
            m.add(1, 2)
        with pytest.raises(ValueError):
            m.add(3, 3)

    def test_remove(self):
        m = Matching(4, [(0, 1), (2, 3)])
        m.remove(0, 1)
        assert m.size == 1 and m.is_free(0) and m.is_free(1)
        with pytest.raises(ValueError):
            m.remove(0, 1)

    def test_edges_canonical(self):
        m = Matching(4, [(3, 2), (1, 0)])
        assert sorted(m.edges()) == [(0, 1), (2, 3)]

    def test_copy_and_eq(self):
        m = Matching(4, [(0, 1)])
        c = m.copy()
        assert c == m
        c.add(2, 3)
        assert c != m and m.size == 1

    def test_load_mate_array_equals_adding_each_pair(self):
        m = Matching(6, [(4, 5)])
        m.load_mate_array([3, -1, -1, 0, 5, 4])
        assert m == Matching(6, [(0, 3), (4, 5)]) and m.size == 2
        m.validate()

    @pytest.mark.parametrize("mate", [
        [1, 0, -1], [1, 0, -1, -1, -1], [1, 0, -1, 4], [1, 0, 2, -1],
        [1, -1, -1, -1], [-2, -1, -1, -1]])
    def test_load_mate_array_rejects_inconsistent_arrays(self, mate):
        m = Matching(4, [(2, 3)])
        with pytest.raises(ValueError):
            m.load_mate_array(mate)
        assert m == Matching(4, [(2, 3)])


class TestAugmentation:
    def test_augment_length_one(self):
        m = Matching(2)
        m.augment_along([0, 1])
        assert m.contains_edge(0, 1)

    def test_augment_length_three(self):
        # path 0-1-2-3 with (1,2) matched: augmenting to (0,1),(2,3)
        m = Matching(4, [(1, 2)])
        m.augment_along([0, 1, 2, 3])
        assert m.size == 2
        assert m.contains_edge(0, 1) and m.contains_edge(2, 3)

    def test_augment_rejects_odd_vertex_count(self):
        m = Matching(3)
        with pytest.raises(ValueError):
            m.augment_along([0, 1, 2])

    def test_augment_rejects_matched_endpoint(self):
        m = Matching(4, [(0, 1)])
        with pytest.raises(ValueError):
            m.augment_along([0, 2])

    def test_augment_rejects_non_alternating(self):
        m = Matching(4)
        with pytest.raises(ValueError):
            m.augment_along([0, 1, 2, 3])  # (1,2) is not matched

    def test_augment_rejects_repeated_vertex(self):
        m = Matching(4, [(1, 2)])
        with pytest.raises(ValueError):
            m.augment_along([0, 1, 1, 3])

    def test_failed_augment_leaves_matching_unchanged(self):
        m = Matching(4, [(1, 2)])
        before = m.copy()
        with pytest.raises(ValueError):
            m.augment_along([0, 1, 2, 2])
        assert m == before


class TestValidation:
    def test_validate_against_graph(self):
        g = Graph(4, [(0, 1)])
        m = Matching(4, [(0, 1)])
        m.validate(g)
        bad = Matching(4, [(2, 3)])
        with pytest.raises(AssertionError):
            bad.validate(g)

    def test_restricted_to(self):
        g = Graph(4, [(0, 1)])
        m = Matching(4, [(0, 1), (2, 3)])
        r = m.restricted_to(g)
        assert r.size == 1 and r.contains_edge(0, 1)
