"""Tests for the structure / blossom-node data model (Section 4.1)."""

import sys

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.graph import Graph
from repro.matching.greedy import greedy_maximal_matching
from repro.matching.matching import Matching
from repro.core.structures import PhaseState, Structure, StructNode
from repro.core.operations import overtake_op, contract_op


def make_state(graph, matching, ell_max=6):
    state = PhaseState(graph, matching, ell_max)
    state.init_structures()
    return state


class TestInitialisation:
    def test_one_structure_per_free_vertex(self):
        g = path_graph(5)
        m = Matching(5, [(1, 2)])
        state = make_state(g, m)
        assert set(state.structures) == {0, 3, 4}
        for alpha, s in state.structures.items():
            assert s.alpha == alpha
            assert s.root.vertices == [alpha]
            assert s.working is s.root
            assert s.size == 1
        state.check_invariants()

    def test_matched_vertices_start_unvisited(self):
        g = path_graph(5)
        m = Matching(5, [(1, 2)])
        state = make_state(g, m)
        assert state.is_unvisited(1) and state.is_unvisited(2)
        assert state.is_outer(0) and not state.is_inner(0)

    def test_labels_default_to_lmax_plus_one(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m, ell_max=6)
        assert state.label_of_edge(1, 2) == 7
        assert state.label_of_vertex(1) == 7
        assert state.label_of_vertex(0) == 0  # free vertex


class TestStructureAccessors:
    def test_active_path_and_distance(self):
        g = path_graph(6)
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        s0 = state.structures[0]
        overtake_op(state, 0, 1, 1)  # structure 0 absorbs matched pair (1,2)
        assert s0.size == 3
        path = s0.active_path()
        assert [n.base for n in path] == [0, 1, 2]
        assert state.distance(s0.working) == 1
        state.check_invariants()

    def test_outer_vertices(self):
        g = path_graph(6)
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        s0 = state.structures[0]
        assert sorted(s0.outer_vertices()) == [0, 2]

    def test_reset_marks_and_on_hold(self):
        g = path_graph(6)
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        s0 = state.structures[0]
        s0.reset_marks(limit=3)
        assert s0.on_hold  # size 3 >= limit 3
        s0.reset_marks(limit=10)
        assert not s0.on_hold and not s0.modified and not s0.extended


class TestArcTypes:
    def test_type3_for_unvisited_matched_head(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        assert state.arc_type(0, 1) == 3
        # reverse direction: 1 is not an outer vertex
        assert state.arc_type(1, 0) == 0

    def test_type2_between_structures(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)   # S_0 = {0,1,2}
        overtake_op(state, 5, 4, 1)   # S_5 = {5,4,3}
        assert state.arc_type(2, 3) == 2
        assert state.arc_type(3, 2) == 2

    def test_type1_within_structure(self):
        # 5-cycle 0-1-2-3-4-0 with (1,2) and (3,4) matched and 0 free: after
        # the structure of 0 grows around the cycle, the edge (4, 0) connects
        # two outer vertices of the same structure (a blossom / Contract
        # opportunity), i.e. a type-1 arc.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)   # structure of 0 absorbs (1, 2)
        overtake_op(state, 2, 3, 2)   # ...then absorbs (3, 4) from its new head
        state.check_invariants()
        assert state.arc_type(4, 0) == 1
        assert state.arc_type(0, 4) == 1

    def test_matched_arc_is_type0(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        assert state.arc_type(1, 2) == 0

    def test_removed_vertices_are_type0(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        state.removed[1] = True
        assert state.arc_type(0, 1) == 0


class TestInvariantChecker:
    def test_detects_corrupted_node_of(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        state.node_of[1] = state.structures[0].root  # vertex 1 is not in that node
        with pytest.raises(AssertionError):
            state.check_invariants()

    def test_clean_state_passes(self):
        g = erdos_renyi(20, 0.2, seed=1)
        m = greedy_maximal_matching(g)
        state = make_state(g, m)
        state.check_invariants()

    def test_detects_labelled_pair_inside_a_blossom(self):
        state, blossom = _cycle_blossom()
        state.check_invariants()
        state.set_label(1, 2, 3)
        with pytest.raises(AssertionError, match="inside a blossom"):
            state.check_invariants()

    def test_detects_stale_node_arcs(self):
        state, blossom = _cycle_blossom()
        xs, ys = state.node_arcs(blossom)
        state.check_invariants()
        blossom.arcs = (xs[:-1], ys[:-1])
        with pytest.raises(AssertionError, match="node-arcs memo"):
            state.check_invariants()


def _cycle_blossom():
    """The 5-cycle 0 - 1 = 2 - 3 = 4 - 0 contracted into one blossom."""
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)])
    m = Matching(6, [(1, 2), (3, 4)])
    state = make_state(g, m)
    overtake_op(state, 0, 1, 1)
    overtake_op(state, 2, 3, 2)
    return state, contract_op(state, 4, 0)


class TestNodeArcs:
    def _fresh(self, state, node):
        return [(x, y) for x in node.vertices
                for y in state.sorted_neighbors(x)]

    def test_trivial_node_arcs_follow_sorted_neighbours(self):
        g = erdos_renyi(20, 0.3, seed=2)
        state = make_state(g, Matching(20))
        root = state.structures[5].root
        xs, ys = state.node_arcs(root)
        assert xs.dtype == ys.dtype == np.int64
        assert list(zip(xs.tolist(), ys.tolist())) == self._fresh(state, root)
        assert state.node_arcs(root) is root.arcs  # memoised

    def test_deep_unscanned_chain_gathers_without_recursion(self):
        """Nested contractions with no scan between them, deeper than the
        interpreter's recursion limit: vertex 0 takes the matched pair
        (2i - 1, 2i) at level i and closes it into a blossom by (2i, 0)."""
        levels = sys.getrecursionlimit() + 10
        n = 2 * levels + 1
        edges = []
        for i in range(1, levels + 1):
            edges += [(0, 2 * i - 1), (2 * i - 1, 2 * i), (2 * i, 0)]
        m = Matching(n, [(2 * i - 1, 2 * i) for i in range(1, levels + 1)])
        state = make_state(Graph(n, edges), m)
        blossoms = []
        for i in range(1, levels + 1):
            overtake_op(state, 0, 2 * i - 1, 1)
            blossoms.append(contract_op(state, 2 * i, 0))
        top = blossoms[-1]
        xs, ys = state.node_arcs(top)
        assert list(zip(xs.tolist(), ys.tolist())) == self._fresh(state, top)
        assert all(b.arcs is None and b.absorbed is None
                   for b in blossoms[:-1])
