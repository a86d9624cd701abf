"""Graph storage suite: :class:`Graph`'s lazily allocated adjacency rows
must reproduce eagerly allocated sets, rows loaded from canonical edge
columns must reproduce key-order insertion, bulk insertion must equal
per-edge insertion, and the vectorized greedy fast path must reproduce the
sequential scan exactly.

Property-based (hypothesis) over random edge/removal scripts.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.generators import random_edge_list
from repro.graph.graph import Graph
from repro.matching.greedy import (_greedy_select_vectorized,
                                  greedy_maximal_matching)


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
        seq = Graph(n)
        added_seq = sum(1 for u, v in inserts if seq.add_edge(u, v))
        bulk = Graph(n)
        assert bulk.add_edges(inserts) == added_seq
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
        # the failed batch must not have touched snapshot or accounting
        assert dg.m == 1 and dg.num_updates == 1
        assert dg.max_edges_seen == 1
        assert dg.graph.edge_list() == Graph(5, [(0, 1)]).edge_list()

    @given(edge_scripts(max_n=10, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_dynamic_graph_batched_replay_agrees(self, script):
        n, ops = script
        updates = [Update.insert(u, v) if ins else Update.delete(u, v)
                   for ins, u, v in ops]
        # per-update reference, and the graph the updates build
        ref = DynamicGraph(n)
        ref_changed = sum(1 for upd in updates if ref.apply(upd))
        built = Graph(n)
        for upd in updates:
            if upd.kind == Update.INSERT:
                built.add_edge(upd.u, upd.v)
            else:
                built.remove_edge(upd.u, upd.v)
        # a materialized batch, and a lazy stream of the same updates
        for batch in (updates, iter(updates)):
            dg = DynamicGraph(n)
            assert dg.apply_all(batch) == ref_changed
            assert dg.m == ref.m and dg.num_updates == ref.num_updates
            assert dg.max_edges_seen == ref.max_edges_seen
            assert dg.graph.edge_list() == ref.graph.edge_list()
            assert dg.graph.edge_list() == built.edge_list()


# ---------------------------------------------------------------------------
# adjset: rows allocated on the first edge or loaded on first touch
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

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


@st.composite
def adjset_scripts(draw, max_n=24, max_ops=60):
    """Single inserts/removals and bulk inserts.  Up to 24 vertices, so rows
    grow past a set's first resize and empty out again."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    op = st.one_of(
        st.tuples(st.sampled_from(["add", "remove"]), pair),
        st.tuples(st.just("add_edges"), st.lists(pair, max_size=12)))
    return n, draw(st.lists(op, max_size=max_ops))


def canonical_columns(edges):
    """Key-sorted ``(u, v)`` pairs with ``u < v`` as two int64 arrays."""
    return (np.array([u for u, _ in edges], dtype=np.int64),
            np.array([v for _, v in edges], dtype=np.int64))


@st.composite
def loaded_scripts(draw, max_n=24):
    """A random edge set to load, a script to run on it, and whether the
    per-row reads come before the bulk ones."""
    n, ops = draw(adjset_scripts(max_n=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p)))
    edges = sorted(draw(st.sets(pair, max_size=3 * n)))
    return n, edges, ops, draw(st.booleans())


def drive_script(lazy, model, ops):
    """Run one script on the graph and on the model."""
    for kind, arg in ops:
        if kind in ("add", "remove"):
            method = model.add_edge if kind == "add" else model.remove_edge
            assert getattr(lazy, kind + "_edge")(*arg) == method(*arg)
        else:
            expected = sum(1 for u, v in arg if model.add_edge(u, v))
            assert lazy.add_edges(arg) == expected
        assert lazy.m == model.m


def assert_reads_match(lazy, model, per_row_first=False):
    """Every read, per-row iteration order included.  With
    ``per_row_first`` each unloaded row is loaded by its own per-row read;
    otherwise the first bulk read loads them all."""
    def per_row():
        for v in range(model.n):
            assert [lazy.has_edge(v, w) for w in range(model.n)] == \
                [w in model.adj[v] for w in range(model.n)]
            assert list(lazy.neighbors(v)) == list(model.adj[v])
            assert list(lazy.neighbor_list(v)) == list(model.adj[v])
            assert lazy.degree(v) == len(model.adj[v])

    if per_row_first:
        per_row()
    assert list(lazy.edges()) == model.edges()
    assert lazy.edge_list() == model.edges()
    # set(range(n)) iterates in ascending order, so the induced-edge walk
    # visits the rows in the order edges() does
    assert lazy.subgraph_edges(range(model.n)) == model.edges()
    assert lazy.max_degree() == max(len(a) for a in model.adj)
    per_row()


class TestLazyAdjacencyRows:
    @given(adjset_scripts())
    @settings(max_examples=80, deadline=None)
    def test_matches_eager_sets(self, script):
        n, ops = script
        lazy, model = Graph(n), EagerAdjacencySets(n)
        drive_script(lazy, model, ops)
        assert_reads_match(lazy, model)

    @given(loaded_scripts())
    @settings(max_examples=80, deadline=None)
    def test_loaded_rows_match_key_order_insertion(self, case):
        """Rows loaded from canonical columns, touched one by one, iterate
        exactly like sets built by inserting the edges in key order."""
        n, edges, ops, per_row_first = case
        lazy, model = Graph(n), EagerAdjacencySets(n)
        lazy.load_canonical(*canonical_columns(edges))
        for u, v in edges:
            model.add_edge(u, v)
        assert lazy.m == model.m
        drive_script(lazy, model, ops)
        assert_reads_match(lazy, model, per_row_first)

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_round_trip_keeps_unloaded_rows_loadable(self, clone):
        edges = [(0, 1), (0, 5), (1, 2), (2, 5), (3, 4), (4, 5)]
        lazy, model = Graph(7), EagerAdjacencySets(7)
        lazy.load_canonical(*canonical_columns(edges))
        for u, v in edges:
            model.add_edge(u, v)
        assert lazy.add_edge(1, 6) and model.add_edge(1, 6)  # rows 1, 6 owned
        lazy = clone(lazy)
        assert lazy.add_edge(4, 0) and model.add_edge(4, 0)  # loads 4 and 0
        assert_reads_match(lazy, model, per_row_first=True)

    @pytest.mark.parametrize("columns, reason", [
        (([1, 0], [2, 1]), "increasing key order"),   # unsorted
        (([0, 0], [1, 1]), "increasing key order"),   # duplicate
        (([1], [1]), "not canonical"),                # u == v
        (([2], [1]), "not canonical"),                # u > v
        (([0], [4]), "out of range"),
        (([-1], [2]), "out of range"),
        (([0, 1], [2]), "equal length"),
        (([0.0], [1.0]), "integer"),
    ])
    def test_load_rejects_non_canonical_columns(self, columns, reason):
        lazy = Graph(4)
        with pytest.raises(ValueError, match=reason):
            lazy.load_canonical(*map(np.array, columns))
        assert lazy.m == 0 and lazy.edge_list() == []
        assert lazy.add_edge(0, 1) and lazy.edge_list() == [(0, 1)]

    @pytest.mark.parametrize("loaded", [False, True])
    def test_load_into_a_backend_with_edges_raises(self, loaded):
        lazy = Graph(4)
        if loaded:
            lazy.load_canonical(*canonical_columns([(0, 1), (1, 3)]))
        else:
            lazy.add_edges([(0, 1), (1, 3)])
        with pytest.raises(ValueError, match="edgeless"):
            lazy.load_canonical(*canonical_columns([(2, 3)]))
        assert [sorted(lazy.neighbors(v)) for v in range(4)] == \
            [[1], [0, 3], [], [1]]
        assert lazy.m == 2 and lazy.edge_list() == [(0, 1), (1, 3)]

    def test_emptied_row_iterates_like_the_eager_set(self):
        """A row that grew and emptied keeps its set: re-added neighbours
        then iterate in the grown table's order, not a fresh set's."""
        lazy, model = Graph(12), EagerAdjacencySets(12)
        for store in (lazy, model):
            for v in range(1, 8):
                store.add_edge(0, v)
            for v in range(1, 8):
                store.remove_edge(0, v)
            store.add_edge(0, 9)
            store.add_edge(0, 2)
        assert list(model.adj[0]) == [2, 9]  # a fresh set gives [9, 2]
        assert list(lazy.neighbors(0)) == list(model.adj[0])
        assert list(lazy.edges()) == model.edges()

    @pytest.mark.parametrize("clone", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_round_trip_rebuilds_a_shrunk_row(self, clone):
        """Pickle and deepcopy rebuild every row as a fresh set, so a row
        that grew and emptied may iterate in another order after one, and
        an order-reading algorithm may then answer differently."""
        g = Graph(12)
        for v in range(1, 8):
            g.add_edge(0, v)
        for v in range(1, 8):
            g.remove_edge(0, v)
        g.add_edges([(0, 9), (0, 2), (2, 5), (9, 11)])
        copied = clone(g)
        assert list(g.neighbors(0)) == [2, 9]
        assert list(copied.neighbors(0)) == [9, 2]
        assert sorted(copied.edge_list()) == sorted(g.edge_list())
        assert sorted(greedy_maximal_matching(g).edges()) == [(0, 2), (9, 11)]
        assert sorted(greedy_maximal_matching(copied).edges()) == \
            [(0, 9), (2, 5)]

    def test_isolated_vertex_has_no_neighbours(self):
        g = Graph(3, [(0, 1)])
        assert set(g.neighbors(2)) == set() and list(g.neighbor_list(2)) == []
        assert g.degree(2) == 0 and g.max_degree() == 1

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

        # insert/delete delegate to apply; restore_snapshot sets the
        # guarded scalars on checkpoint restore, which
        # tests/test_dynamic_graph.py::TestLogFreeMode and the checkpoint
        # resume-parity tests cover
        assert set(declared_mutators(DynamicGraph)) == {
            "apply", "insert", "delete", "apply_all", "restore_snapshot"}

    def test_declared_guards_exist_on_instances(self):
        """Every declared guard attribute is a real attribute (no typos)."""
        from repro.utils.contracts import declared_mutators

        dyn = DynamicGraph(4)
        for attrs in declared_mutators(DynamicGraph).values():
            for attr in attrs:
                assert hasattr(dyn, attr), attr
