"""Graph storage suite: the lazily allocated adjacency rows must reproduce
eagerly allocated sets, bulk mutation must equal per-edge mutation, and the
vectorized greedy fast path must reproduce the sequential scan exactly.

Property-based (hypothesis) over random edge/removal scripts.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.graph.backends import AdjacencySetBackend
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.generators import random_edge_list
from repro.graph.graph import Graph
from repro.matching.greedy import _greedy_select_vectorized


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def edge_scripts(draw, max_n=12, max_ops=40):
    """A vertex count plus a script of edge insertions/removals."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    ops = []
    if n >= 2:
        num_ops = draw(st.integers(min_value=0, max_value=max_ops))
        for _ in range(num_ops):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            v = draw(st.integers(min_value=0, max_value=n - 1))
            if u == v:
                continue
            ops.append((draw(st.booleans()), u, v))
    return n, ops


# ---------------------------------------------------------------------------
# bulk API parity
# ---------------------------------------------------------------------------

class TestBulkParity:
    @given(edge_scripts())
    @settings(max_examples=60, deadline=None)
    def test_bulk_equals_sequential(self, script):
        n, ops = script
        inserts = [(u, v) for ins, u, v in ops if ins]
        removes = [(u, v) for ins, u, v in ops if not ins]
        seq = Graph(n)
        added_seq = sum(1 for u, v in inserts if seq.add_edge(u, v))
        bulk = Graph(n)
        assert bulk.add_edges(inserts) == added_seq
        assert bulk.edge_list() == seq.edge_list()
        removed_seq = sum(1 for u, v in removes if seq.remove_edge(u, v))
        assert bulk.remove_edges(removes) == removed_seq
        assert bulk.edge_list() == seq.edge_list()

    def test_bulk_validation_messages(self):
        g = Graph(3)
        with pytest.raises(ValueError, match="out of range"):
            g.add_edges([(0, 1), (0, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edges([(0, 1), (2, 2)])

    def test_apply_all_invalid_update_mutates_nothing(self):
        dg = DynamicGraph(5)
        dg.insert(0, 1)
        with pytest.raises(ValueError, match="out of range"):
            dg.apply_all([Update.insert(2, 3), Update.insert(0, 99)])
        # the failed batch must not have touched snapshot, log or max
        assert dg.m == 1 and dg.num_updates == 1
        assert dg.max_edges_seen == 1
        assert dg.replay().edge_list() == dg.graph.edge_list()

    @given(edge_scripts(max_n=10, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_dynamic_graph_batched_replay_agrees(self, script):
        n, ops = script
        updates = [Update.insert(u, v) if ins else Update.delete(u, v)
                   for ins, u, v in ops]
        # per-update reference
        ref = DynamicGraph(n)
        ref_changed = sum(1 for upd in updates if ref.apply(upd))
        # a materialized batch, and a lazy stream of the same updates
        for batch in (updates, iter(updates)):
            dg = DynamicGraph(n)
            assert dg.apply_all(batch) == ref_changed
            assert dg.m == ref.m and dg.num_updates == ref.num_updates
            assert dg.max_edges_seen == ref.max_edges_seen
            assert dg.graph.edge_list() == ref.graph.edge_list()
            assert dg.replay().edge_list() == ref.replay().edge_list()


# ---------------------------------------------------------------------------
# adjset: rows allocated on the first edge, bulk insert
# ---------------------------------------------------------------------------

class EagerAdjacencySets:
    """The adjacency-set layout with one set per vertex allocated up front
    and per-edge inserts: the model the lazy rows must reproduce."""

    def __init__(self, n):
        self.n = n
        self.adj = [set() for _ in range(n)]
        self.m = 0

    def add_edge(self, u, v):
        if v in self.adj[u]:
            return False
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.m += 1
        return True

    def remove_edge(self, u, v):
        if v not in self.adj[u]:
            return False
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.m -= 1
        return True

    def copy(self):
        clone = EagerAdjacencySets(self.n)
        clone.adj = [set(a) for a in self.adj]
        clone.m = self.m
        return clone

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def arcs(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u]]


@st.composite
def adjset_scripts(draw, max_n=24, max_ops=60):
    """Single and bulk inserts/removals plus copies.  Up to 24 vertices, so
    rows grow past a set's first resize and empty out again."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    op = st.one_of(
        st.tuples(st.sampled_from(["add", "remove"]), pair),
        st.tuples(st.sampled_from(["add_edges", "remove_edges"]),
                  st.lists(pair, max_size=12)),
        st.just(("copy", None)))
    return n, draw(st.lists(op, max_size=max_ops))


class TestLazyAdjacencyRows:
    @given(adjset_scripts())
    @settings(max_examples=80, deadline=None)
    def test_matches_eager_sets(self, script):
        n, ops = script
        lazy, model = AdjacencySetBackend(n), EagerAdjacencySets(n)
        for kind, arg in ops:
            if kind == "copy":
                lazy, model = lazy.copy(), model.copy()
            elif kind in ("add", "remove"):
                method = model.add_edge if kind == "add" else model.remove_edge
                assert getattr(lazy, kind + "_edge")(*arg) == method(*arg)
            else:
                method = model.add_edge if kind == "add_edges" else model.remove_edge
                expected = sum(1 for u, v in arg if method(u, v))
                assert getattr(lazy, kind)(arg) == expected
            assert lazy.m == model.m
        assert list(lazy.edges()) == model.edges()
        assert lazy.edge_list() == model.edges()
        assert list(lazy.arcs()) == model.arcs()
        assert lazy.max_degree() == max(len(a) for a in model.adj)
        for v in range(n):
            assert list(lazy.neighbors(v)) == list(model.adj[v])
            assert list(lazy.neighbor_list(v)) == list(model.adj[v])
            assert lazy.degree(v) == len(model.adj[v])

    def test_emptied_row_iterates_like_the_eager_set(self):
        """A row that grew and emptied keeps its set: re-added neighbours
        then iterate in the grown table's order, not a fresh set's."""
        lazy, model = AdjacencySetBackend(12), EagerAdjacencySets(12)
        for backend in (lazy, model):
            for v in range(1, 8):
                backend.add_edge(0, v)
            for v in range(1, 8):
                backend.remove_edge(0, v)
            backend.add_edge(0, 9)
            backend.add_edge(0, 2)
        assert list(model.adj[0]) == [2, 9]  # a fresh set gives [9, 2]
        assert list(lazy.neighbors(0)) == list(model.adj[0])
        assert list(lazy.edges()) == model.edges()

    def test_isolated_vertex_has_no_neighbours(self):
        g = Graph(3, [(0, 1)])
        assert set(g.neighbors(2)) == set() and list(g.neighbor_list(2)) == []
        assert g.degree(2) == 0 and g.max_degree() == 1
        clone = g.copy()
        clone.add_edge(1, 2)
        assert g.degree(2) == 0 and clone.degree(2) == 1

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_empty_rows_growable(self, clone):
        """Both rebuild the shared empty row as a new frozenset; a vertex
        that was isolated must still take its first edge."""
        g = clone(Graph(4, [(0, 1)]))
        assert g.add_edge(2, 3) and g.add_edge(1, 2)
        assert g.m == 3
        assert g.edge_list() == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("bad", [(1, 1), (0, 5)])
    def test_bulk_error_keeps_the_edges_before_it(self, bad):
        with pytest.raises(ValueError) as single:
            Graph(3).add_edge(*bad)
        g = Graph(3)
        with pytest.raises(ValueError) as bulk:
            g.add_edges([(0, 1), bad])
        assert str(bulk.value) == str(single.value)
        assert g.has_edge(0, 1)
        assert g.m == len(g.edge_list()) == 1


# ---------------------------------------------------------------------------
# matching parity
# ---------------------------------------------------------------------------

class TestMatchingParity:
    def test_vectorized_greedy_equals_sequential(self):
        # adversarial-for-the-round-cap orders (paths scanned end to end)
        # and random orders, well past the vectorization threshold
        cases = []
        n = 6000
        cases.append((n, [(i, i + 1) for i in range(n - 1)]))  # path order
        cases.append((n, sorted(random_edge_list(n, 3 * n, seed=1))))
        cases.append((n, random_edge_list(n, 3 * n, seed=2)))  # random order
        for n, edges in cases:
            sequential = []
            used = set()
            for u, v in edges:
                if u not in used and v not in used:
                    used.add(u)
                    used.add(v)
                    sequential.append((u, v))
            assert _greedy_select_vectorized(edges, n, None) == sequential

    def test_vectorized_greedy_respects_forbidden(self):
        n = 5000
        edges = random_edge_list(n, 3 * n, seed=3)
        blocked = set(range(0, n, 7))
        sequential = []
        used = set(blocked)
        for u, v in edges:
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                sequential.append((u, v))
        assert _greedy_select_vectorized(edges, n, blocked) == sequential


# ---------------------------------------------------------------------------
# backend selection / error handling
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        # "adjset" is the one storage layout; the retired "csr" is unknown
        for name in ("nope", "csr"):
            with pytest.raises(ValueError, match="unknown graph backend"):
                Graph(3, backend=name)
            with pytest.raises(ValueError, match="unknown graph backend"):
                FullyDynamicMatching(3, 0.25, backend=name)
        assert Graph(3, [(0, 1)], backend="adjset").m == 1


# ---------------------------------------------------------------------------
# DynamicGraph memo contract
# ---------------------------------------------------------------------------

class TestDynamicGraphMemoContract:
    """The ``@invalidates`` declarations of :class:`DynamicGraph` match its
    mutation API.  The static checker (repro.analysis, memo-contract family)
    reads the same declarations; ``TestBulkParity`` checks the guarded
    accounting (``num_updates``/``max_edges_seen``) behaviourally."""

    def test_declared_mutator_set_is_exact(self):
        """The declared mutator set is exactly the mutation API.

        If a new mutator is declared, the behavioural tests must learn to
        drive it -- directly or through a declared method it delegates to.
        """
        from repro.utils.contracts import declared_mutators

        # insert/delete delegate to apply, delete_edges to apply_all;
        # restore_accounting overwrites the guarded scalars on checkpoint
        # restore, which the checkpoint resume-parity tests cover
        assert set(declared_mutators(DynamicGraph)) == {
            "apply", "insert", "delete", "apply_all", "insert_edges",
            "delete_edges", "restore_accounting"}

    def test_declared_guards_exist_on_instances(self):
        """Every declared guard attribute is a real attribute (no typos)."""
        from repro.utils.contracts import declared_mutators

        dyn = DynamicGraph(4)
        for attrs in declared_mutators(DynamicGraph).values():
            for attr in attrs:
                assert hasattr(dyn, attr), attr
