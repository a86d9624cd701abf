"""Tests for the three basic operations: Augment, Contract, Overtake (§4.5)."""

import pytest

from repro.graph.graph import Graph
from repro.graph.generators import path_graph
from repro.matching.matching import Matching
from repro.core.structures import PhaseState
from repro.core.operations import (
    apply_augmentations,
    augment_op,
    contract_op,
    overtake_op,
)


def make_state(graph, matching, ell_max=8):
    state = PhaseState(graph, matching, ell_max)
    state.init_structures()
    return state


class TestOvertake:
    def test_unvisited_pair_joins_structure(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        s = state.structures[0]
        assert s.size == 3
        assert state.is_inner(1) and state.is_outer(2)
        assert state.label_of_edge(1, 2) == 1
        assert s.working.base == 2
        assert s.modified and s.extended
        state.check_invariants()

    def test_precondition_k_less_than_label(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        # re-overtaking with a non-smaller label must be rejected
        with pytest.raises(ValueError):
            overtake_op(state, 0, 1, 5)

    def test_requires_working_tail(self):
        g = path_graph(5)
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)  # working vertex of S_0 is now Omega(2)
        with pytest.raises(ValueError):
            overtake_op(state, 0, 1, 1)

    def test_requires_matched_head(self):
        g = path_graph(3)
        m = Matching(3, [(1, 2)])
        state = make_state(g, m)
        with pytest.raises(ValueError):
            overtake_op(state, 1, 0, 1)

    def test_cross_structure_overtake_moves_subtree(self):
        # 0 - 1=2 - 3 ... and 4 - 1 (4 free, adjacent to inner vertex 1 of S_0)
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 5), (4, 1)])
        m = Matching(6, [(1, 2), (3, 5)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 3)        # S_0 takes (1,2) with a high label
        s0, s4 = state.structures[0], state.structures[4]
        assert s0.size == 3 and s4.size == 1
        # S_4 can now steal (1,2) because it offers a smaller label
        overtake_op(state, 4, 1, 1)
        assert s4.size == 3 and s0.size == 1
        assert state.structure_of(1) is s4 and state.structure_of(2) is s4
        assert state.label_of_edge(1, 2) == 1
        assert s4.working.base == 2
        assert s4.extended and s4.modified and s0.modified
        state.check_invariants()

    def test_cross_structure_overtake_updates_victims_working_vertex(self):
        # S_0 grows a path of two matched edges; S_6 then steals the first
        # matched pair, so S_0's working vertex must retreat to Omega(0).
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (6, 1)])
        m = Matching(7, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 3)
        overtake_op(state, 2, 3, 4)
        s0 = state.structures[0]
        assert s0.size == 5 and s0.working.base == 4
        overtake_op(state, 6, 1, 1)
        s6 = state.structures[6]
        assert s6.size == 5          # took the whole subtree below vertex 1
        assert s0.size == 1
        assert s0.working is s0.root  # victim's working vertex retreats
        assert s6.working.base == 4   # stolen working vertex travels along
        state.check_invariants()

    def test_ancestor_overtake_rejected(self):
        # path 0-1=2-3=4 plus the chord (4, 1): once the structure of 0 has
        # grown to working vertex Omega(4), vertex 1 is an inner *ancestor*,
        # and overtaking it (precondition P2) must be refused even though the
        # label check would allow it.
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 3)
        overtake_op(state, 2, 3, 4)
        assert state.arc_type(4, 1) == 0  # P2 exclusion reflected in the type
        with pytest.raises(ValueError):
            overtake_op(state, 4, 1, 1)


class TestContract:
    def _grow_cycle_structure(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        return g, m, state

    def test_contract_builds_blossom(self):
        g, m, state = self._grow_cycle_structure()
        s = state.structures[0]
        node = contract_op(state, 4, 0)
        assert node.outer and len(node.vertices) == 5
        assert node.base == 0
        assert s.working is node
        assert s.root is node
        # labels of matched edges inside the blossom drop to 0
        assert state.label_of_edge(1, 2) == 0
        assert state.label_of_edge(3, 4) == 0
        state.check_invariants()

    def test_nested_contraction_relabels_the_path(self):
        """A blossom absorbed through a path with inner nodes.

        The tree 0 - 1 = 2 - 3 = 4 - 5 = 6 plus the chord (6, 4) makes the
        blossom {6, 5, 4}, based at 4 and matched to the inner vertex 3.
        Growing it by 7 = 8 and contracting (8, 2) absorbs it through the
        inner nodes 7 and 3.  Only those two matched edges are relabelled
        (the pair 5 = 6 is 0 since the first contraction).
        """
        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4),
                      (6, 7), (7, 8), (8, 2)])
        m = Matching(9, [(1, 2), (3, 4), (5, 6), (7, 8)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        overtake_op(state, 4, 5, 3)
        inner_blossom = contract_op(state, 6, 4)
        assert inner_blossom.base == 4
        state.node_arcs(inner_blossom)  # scanned, as the contract pass does
        overtake_op(state, 6, 7, 4)
        node = contract_op(state, 8, 2)
        assert node.vertices == [8, 7, 6, 5, 4, 3, 2] and node.base == 2
        # its arcs are gathered from the absorbed nodes', releasing theirs
        # (check_invariants compares the memo with a fresh gather)
        state.node_arcs(node)
        assert inner_blossom.arcs is None and node.absorbed is None
        # every matched pair inside is labelled 0, in both label views
        for x, y in [(3, 4), (5, 6), (7, 8)]:
            assert state.label_of_edge(x, y) == 0
            assert state.vlabel_arr[x] == state.vlabel_arr[y] == 0
        # the base's matched edge leaves the blossom and keeps its label
        assert state.label_of_edge(1, 2) == 1
        assert state.vlabel_arr[1] == state.vlabel_arr[2] == 1
        state.check_invariants()

    def test_contract_requires_same_structure(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 5, 4, 1)
        with pytest.raises(ValueError):
            contract_op(state, 2, 3)

    def test_contract_requires_working_vertex(self):
        g, m, state = self._grow_cycle_structure()
        # (0, 4): Omega(0) is not the working vertex (Omega(4) is)
        with pytest.raises(ValueError):
            contract_op(state, 0, 4)


class TestAugment:
    def test_simple_augmentation_between_structures(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        record = augment_op(state, 2, 3)
        assert sorted(record.vertices) == [0, 1, 2, 3]
        # structures removed, vertices marked removed
        assert not state.structures
        assert all(state.removed[v] for v in range(4))
        # applying the record increases the matching size by one
        gained = apply_augmentations(m, [record])
        assert gained == 1 and m.size == 2
        m.validate(g)

    def test_augment_through_blossom(self):
        # 5-cycle structure of 0 contracted into a blossom, plus a pendant free
        # vertex 5 attached to cycle vertex 3: augmenting must route through
        # the blossom.
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 5)])
        m = Matching(6, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        contract_op(state, 4, 0)
        record = augment_op(state, 3, 5)
        gained = apply_augmentations(m, [record])
        assert gained == 1 and m.size == 3
        m.validate(g)

    def test_augment_requires_different_structures(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        m = Matching(5, [(1, 2), (3, 4)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 2, 3, 2)
        with pytest.raises(ValueError):
            augment_op(state, 4, 0)

    def test_augment_requires_graph_edge(self):
        g = path_graph(4)
        m = Matching(4, [(1, 2)])
        state = make_state(g, m)
        with pytest.raises(ValueError):
            augment_op(state, 0, 3)

    def test_records_apply_disjointly(self):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        m = Matching(8, [(1, 2), (5, 6)])
        state = make_state(g, m)
        overtake_op(state, 0, 1, 1)
        overtake_op(state, 4, 5, 1)
        r1 = augment_op(state, 2, 3)
        r2 = augment_op(state, 6, 7)
        gained = apply_augmentations(m, [r1, r2])
        assert gained == 2 and m.size == 4
        m.validate(g)
