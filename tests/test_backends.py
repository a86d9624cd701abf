"""Backend parity suite: the CSR/NumPy backend must agree with the
adjacency-set backend on every observable, and the vectorized greedy fast
path must reproduce the sequential scan exactly.

Property-based (hypothesis) over random edge/removal scripts, plus seeded
end-to-end checks on the generator workloads and a smoke run of
``benchmarks/bench_backends.py`` so tier-1 exercises the benchmark harness.
"""

from __future__ import annotations

import copy
import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.backends import (BACKENDS, AdjacencySetBackend, CSRBackend,
                                  make_backend)
from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.generators import erdos_renyi, random_edge_list
from repro.graph.graph import Graph
from repro.matching.greedy import (
    _greedy_select_vectorized,
    greedy_maximal_matching,
    greedy_on_vertex_subset,
    random_greedy_matching,
)

BACKEND_NAMES = sorted(BACKENDS)


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


def build_pair(n, ops):
    """Apply one script to a graph on every backend."""
    graphs = {name: Graph(n, backend=name) for name in BACKEND_NAMES}
    for insert, u, v in ops:
        results = set()
        for g in graphs.values():
            results.add(g.add_edge(u, v) if insert else g.remove_edge(u, v))
        assert len(results) == 1, "backends disagree on mutation result"
    return graphs


# ---------------------------------------------------------------------------
# structural parity
# ---------------------------------------------------------------------------

class TestStructuralParity:
    @given(edge_scripts())
    @settings(max_examples=80, deadline=None)
    def test_edges_degrees_neighbors_agree(self, script):
        n, ops = script
        graphs = build_pair(n, ops)
        ref = graphs["adjset"]
        for name, g in graphs.items():
            assert g.n == ref.n and g.m == ref.m, name
            assert sorted(g.edges()) == sorted(ref.edges()), name
            assert sorted(g.edge_list()) == sorted(ref.edge_list()), name
            assert sorted(g.arc_list()) == sorted(ref.arc_list()), name
            assert g.max_degree() == ref.max_degree(), name
            for v in range(n):
                assert set(g.neighbors(v)) == set(ref.neighbors(v)), (name, v)
                assert sorted(g.neighbor_list(v)) == sorted(ref.neighbor_list(v))
                assert g.degree(v) == ref.degree(v), (name, v)
            for u in range(-1, n + 1):
                for v in range(-1, n + 1):
                    assert g.has_edge(u, v) == ref.has_edge(u, v), (name, u, v)

    @given(edge_scripts(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraphs_agree(self, script, rnd):
        n, ops = script
        graphs = build_pair(n, ops)
        ref = graphs["adjset"]
        subset = [v for v in range(n) if rnd.random() < 0.5]
        ref_edges = sorted(ref.subgraph_edges(subset))
        ref_sub, ref_back = ref.induced_subgraph(subset)
        for name, g in graphs.items():
            assert sorted(g.subgraph_edges(subset)) == ref_edges, name
            sub, back = g.induced_subgraph(subset)
            assert sub.n == ref_sub.n and sub.m == ref_sub.m, name
            relabelled = sorted(tuple(sorted((back[u], back[v])))
                                for u, v in sub.edges())
            ref_relabelled = sorted(tuple(sorted((ref_back[u], ref_back[v])))
                                    for u, v in ref_sub.edges())
            assert relabelled == ref_relabelled, name

    @given(edge_scripts())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_matrix_and_components_agree(self, script):
        n, ops = script
        graphs = build_pair(n, ops)
        ref = graphs["adjset"]
        ref_mat = ref.adjacency_matrix()
        ref_comps = sorted(sorted(c) for c in ref.connected_components())
        for name, g in graphs.items():
            assert np.array_equal(g.adjacency_matrix(), ref_mat), name
            assert sorted(sorted(c) for c in g.connected_components()) == ref_comps

    @given(edge_scripts())
    @settings(max_examples=40, deadline=None)
    def test_copy_is_independent_on_all_backends(self, script):
        n, ops = script
        for name, g in build_pair(n, ops).items():
            clone = g.copy()
            assert clone.backend_name == g.backend_name
            assert sorted(clone.edges()) == sorted(g.edges())
            if n >= 2:
                # mutate the clone; the original must not change
                before = g.m
                if clone.has_edge(0, 1):
                    clone.remove_edge(0, 1)
                else:
                    clone.add_edge(0, 1)
                assert g.m == before, name


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
        for name in BACKEND_NAMES:
            seq = Graph(n, backend=name)
            added_seq = sum(1 for u, v in inserts if seq.add_edge(u, v))
            bulk = Graph(n, backend=name)
            assert bulk.add_edges(inserts) == added_seq, name
            assert sorted(bulk.edges()) == sorted(seq.edges()), name
            removed_seq = sum(1 for u, v in removes if seq.remove_edge(u, v))
            assert bulk.remove_edges(removes) == removed_seq, name
            assert sorted(bulk.edges()) == sorted(seq.edges()), name

    def test_bulk_validation_messages(self):
        for name in BACKEND_NAMES:
            g = Graph(3, backend=name)
            with pytest.raises(ValueError, match="out of range"):
                g.add_edges([(0, 1), (0, 3)])
            with pytest.raises(ValueError, match="self-loop"):
                g.add_edges([(0, 1), (2, 2)])

    def test_apply_all_invalid_update_mutates_nothing(self):
        for name in BACKEND_NAMES:
            dg = DynamicGraph(5, backend=name)
            dg.insert(0, 1)
            with pytest.raises(ValueError, match="out of range"):
                dg.apply_all([Update.insert(2, 3), Update.insert(0, 99)])
            # the failed batch must not have touched snapshot, log or max
            assert dg.m == 1 and dg.num_updates == 1, name
            assert dg.max_edges_seen == 1, name
            assert sorted(dg.replay().edges()) == sorted(dg.graph.edges()), name

    @given(edge_scripts(max_n=10, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_dynamic_graph_batched_replay_agrees(self, script):
        n, ops = script
        updates = [Update.insert(u, v) if ins else Update.delete(u, v)
                   for ins, u, v in ops]
        # sequential reference on the default backend
        ref = DynamicGraph(n)
        ref_changed = sum(1 for upd in updates if ref.apply(upd))
        for name in BACKEND_NAMES:
            dg = DynamicGraph(n, backend=name)
            changed = dg.apply_all(updates)
            assert changed == ref_changed, name
            assert dg.m == ref.m and dg.num_updates == ref.num_updates, name
            assert dg.max_edges_seen == ref.max_edges_seen, name
            assert sorted(dg.graph.edges()) == sorted(ref.graph.edges()), name
            assert sorted(dg.replay().edges()) == sorted(ref.replay().edges())


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
    @given(edge_scripts(max_n=14, max_ops=50),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_greedy_identical_across_backends(self, script, seed):
        n, ops = script
        graphs = build_pair(n, ops)
        ref = random_greedy_matching(graphs["adjset"], seed=seed)
        for name, g in graphs.items():
            assert random_greedy_matching(g, seed=seed) == ref, name

    @given(edge_scripts(max_n=14, max_ops=50),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_subset_greedy_identical_across_backends(self, script, seed):
        n, ops = script
        graphs = build_pair(n, ops)
        subset = list(range(0, n, 2))
        ref = greedy_on_vertex_subset(graphs["adjset"], subset, seed=seed)
        for name, g in graphs.items():
            assert greedy_on_vertex_subset(g, subset, seed=seed) == ref, name

    @given(edge_scripts(max_n=14, max_ops=50))
    @settings(max_examples=40, deadline=None)
    def test_explicit_order_greedy_identical_across_backends(self, script):
        n, ops = script
        graphs = build_pair(n, ops)
        order = sorted(graphs["adjset"].edge_list())
        ref = greedy_maximal_matching(graphs["adjset"], edge_order=order)
        for name, g in graphs.items():
            assert greedy_maximal_matching(g, edge_order=order) == ref, name

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

    def test_generator_workload_greedy_is_valid_on_both_backends(self):
        for name in BACKEND_NAMES:
            g = erdos_renyi(120, 0.08, seed=5, backend=name)
            m = greedy_maximal_matching(g)
            m.validate(g)


# ---------------------------------------------------------------------------
# backend selection / error handling
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown graph backend"):
            Graph(3, backend="nope")

    def test_backend_instance_size_checked(self):
        with pytest.raises(ValueError, match="sized for"):
            Graph(3, backend=make_backend("adjset", 5))

    def test_backend_instance_is_copied_not_aliased(self):
        for name in BACKEND_NAMES:
            inst = make_backend(name, 4)
            g1 = Graph(4, [(0, 1)], backend=inst)
            g2 = Graph(4, backend=inst)
            assert inst.m == 0, name      # caller's instance untouched
            g2.add_edge(2, 3)
            assert g1.m == 1 and not g1.has_edge(2, 3), name

    def test_with_backend_round_trip(self):
        g = erdos_renyi(40, 0.2, seed=9)
        h = g.with_backend("csr")
        assert h.backend_name == "csr"
        assert sorted(h.edges()) == sorted(g.edges())
        back = h.with_backend("adjset")
        assert back.backend_name == "adjset"
        assert sorted(back.edges()) == sorted(g.edges())

    def test_default_profile_keeps_input_backend(self):
        # the frameworks run on the input graph's backend: an explicitly
        # CSR-built graph must not be silently converted back to adjset by
        # the framework entry points
        from repro.core.streaming import semi_streaming_matching

        g = erdos_renyi(25, 0.15, seed=13, backend="csr")
        m = semi_streaming_matching(g, 0.25, seed=0)
        m.validate(g)

    def test_csr_backend_is_registered(self):
        assert isinstance(Graph(4, backend="csr").backend, CSRBackend)


# ---------------------------------------------------------------------------
# CSR memoisation invalidation
# ---------------------------------------------------------------------------

@st.composite
def mutation_scripts(draw, max_n=10, max_ops=25):
    """A script mixing every mutation API: single, bulk, and DynamicGraph."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    ops = draw(st.lists(st.tuples(
        st.sampled_from(("add_edge", "remove_edge", "add_edges",
                         "remove_edges", "apply_all")),
        st.lists(pair, min_size=1, max_size=4)), max_size=max_ops))
    return n, ops


class TestCSRMemoInvalidation:
    """Every mutation API must invalidate the compiled-view memos.

    ``neighbor_list`` and ``csr_arrays`` cache the compiled CSR view between
    mutations; a mutation path that forgets to mark the backend dirty would
    serve stale neighbours.  The property: after *any* interleaving of the
    mutation APIs, reads through the memoised paths equal a from-scratch
    backend holding the same edge set -- with the memos deliberately kept hot
    (read after every single mutation).
    """

    @staticmethod
    def _apply(dyn, backend, op, edges):
        if op == "add_edge":
            backend.add_edge(*edges[0])
        elif op == "remove_edge":
            backend.remove_edge(*edges[0])
        elif op == "add_edges":
            backend.add_edges(edges)
        elif op == "remove_edges":
            backend.remove_edges(edges)
        else:  # apply_all through the DynamicGraph layer (bulk-run grouping)
            updates = [Update.insert(u, v) if not dyn.graph.has_edge(u, v)
                       else Update.delete(u, v) for u, v in edges]
            dyn.apply_all(updates)

    @given(script=mutation_scripts())
    @settings(max_examples=60, deadline=None)
    def test_every_mutation_api_invalidates_memos(self, script):
        n, ops = script
        dyn = DynamicGraph(n, backend="csr", log_updates=False)
        backend = dyn.graph.backend
        for op, edges in ops:
            # warm the memos so the mutation has something stale to kill
            backend.neighbor_list(edges[0][0])
            backend.csr_arrays()
            self._apply(dyn, backend, op, edges)
            fresh = make_backend("csr", n)
            fresh.add_edges(backend.edge_list())
            for v in range(n):
                assert backend.neighbor_list(v) == fresh.neighbor_list(v), op
            got_ptr, got_idx = backend.csr_arrays()
            want_ptr, want_idx = fresh.csr_arrays()
            assert got_ptr.tolist() == want_ptr.tolist(), op
            assert got_idx.tolist() == want_idx.tolist(), op

    def test_noop_mutations_keep_compiled_view(self):
        """Failed mutations (dup add, missing remove) need no recompile."""
        backend = make_backend("csr", 6)
        backend.add_edges([(0, 1), (2, 3)])
        ptr, idx = backend.csr_arrays()
        assert backend.add_edge(0, 1) is False
        assert backend.remove_edge(4, 5) is False
        assert backend.add_edges([(1, 0)]) == 0
        assert backend.remove_edges([(4, 5)]) == 0
        ptr2, idx2 = backend.csr_arrays()
        assert ptr2 is ptr and idx2 is idx  # cache untouched by no-ops

    def test_property_covers_every_declared_mutator(self):
        """The hypothesis script exercises the full @invalidates registry.

        The static checker (repro.analysis, memo-contract family) reads the
        same declarations; this test is the completeness oracle keeping the
        runtime property and the static contract in sync.  If a new mutator
        is declared, the script above must learn to drive it -- directly or
        through a declared method it delegates to.
        """
        from repro.utils.contracts import declared_mutators

        assert set(declared_mutators(CSRBackend)) == {
            "add_edge", "remove_edge", "add_edges", "remove_edges"}
        # the script drives apply_all; insert/delete/delete_edges are
        # declared delegates of apply/apply_all, and insert_edges hands its
        # batch to the backend's add_edges, which the script drives
        dg_declared = set(declared_mutators(DynamicGraph))
        assert {"apply", "apply_all"} <= dg_declared
        # restore_accounting guards the update/edge bookkeeping scalars, not
        # a compiled view -- nothing memoised to stale, so the script has no
        # business driving it; checkpoint resume-parity tests cover it
        assert dg_declared == {"apply", "insert", "delete", "apply_all",
                               "insert_edges", "delete_edges",
                               "restore_accounting"}
        script_ops = {"add_edge", "remove_edge", "add_edges", "remove_edges",
                      "apply_all"}
        assert script_ops <= (set(declared_mutators(CSRBackend)) | dg_declared)

    def test_declared_guards_exist_on_instances(self):
        """Every declared guard attribute is a real attribute (no typos)."""
        from repro.utils.contracts import declared_mutators

        csr = make_backend("csr", 4)
        for attrs in declared_mutators(CSRBackend).values():
            for attr in attrs:
                assert hasattr(csr, attr), attr
        dyn = DynamicGraph(4, backend="csr")
        for attrs in declared_mutators(DynamicGraph).values():
            for attr in attrs:
                assert hasattr(dyn, attr), attr


# ---------------------------------------------------------------------------
# benchmark smoke (tier-1 runs the harness in seconds)
# ---------------------------------------------------------------------------

def test_bench_backends_smoke(tmp_path, monkeypatch, capsys):
    bench_dir = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    monkeypatch.syspath_prepend(os.path.abspath(bench_dir))
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    import bench_backends

    speedups = bench_backends.emit_comparison(smoke=True)
    out = capsys.readouterr().out
    assert "csr" in out and "adjset" in out
    assert speedups  # at least one workload produced a speedup figure
