"""Shared test helpers: brute-force reference matcher and workload suites."""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.graph.graph import Graph
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

Edge = Tuple[int, int]


def brute_force_maximum_matching_size(graph: Graph) -> int:
    """Exact maximum matching size by exhaustive search (tiny graphs only)."""
    edges = graph.edge_list()
    best = 0
    n_edges = len(edges)

    def extend(start: int, used_vertices: set, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + (n_edges - start) <= best:
            return
        for i in range(start, n_edges):
            u, v = edges[i]
            if u in used_vertices or v in used_vertices:
                continue
            used_vertices.add(u)
            used_vertices.add(v)
            extend(i + 1, used_vertices, size + 1)
            used_vertices.discard(u)
            used_vertices.discard(v)

    extend(0, set(), 0)
    return best


@st.composite
def random_graphs(draw, max_n: int = 60, max_pairs: int = 150) -> Graph:
    """A hypothesis strategy: a graph on 1..``max_n`` vertices with up to
    ``max_pairs`` random edges (self-loops and repeats dropped)."""
    n = draw(st.integers(1, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=max_pairs))
    graph = Graph(n)
    for u, v in pairs:
        if u != v:
            graph.add_edge(u, v)
    return graph


def small_graph_suite() -> List[Tuple[str, Graph]]:
    """A deterministic suite of small graphs exercising varied structure."""
    suite: List[Tuple[str, Graph]] = [
        ("empty", Graph(5)),
        ("single_edge", Graph(2, [(0, 1)])),
        ("path5", path_graph(5)),
        ("path8", path_graph(8)),
        ("cycle5", cycle_graph(5)),
        ("cycle6", cycle_graph(6)),
        ("triangle_plus_stem", blossom_gadget(1, 2)),
        ("blossoms", blossom_gadget(3, 3)),
        ("nested_blossom", nested_blossom_gadget()),
        ("disjoint_paths", disjoint_paths(3, 5)),
    ]
    for seed in range(3):
        suite.append((f"er20_{seed}", erdos_renyi(20, 0.15, seed=seed)))
    g, _, _ = random_bipartite(8, 10, 0.3, seed=7)
    suite.append(("bipartite", g))
    g, _ = planted_matching(10, 0.05, seed=11)
    suite.append(("planted", g))
    return suite


def medium_graph_suite() -> List[Tuple[str, Graph]]:
    """Larger graphs for approximation-quality tests (exact optimum still fast)."""
    suite: List[Tuple[str, Graph]] = [
        ("paths_long", disjoint_paths(5, 9)),
        ("blossoms_many", blossom_gadget(6, 4)),
    ]
    for seed in range(3):
        suite.append((f"er60_{seed}", erdos_renyi(60, 0.08, seed=seed)))
    for seed in range(2):
        g, _ = planted_matching(30, 0.02, seed=seed)
        suite.append((f"planted60_{seed}", g))
    g, _, _ = random_bipartite(25, 25, 0.1, seed=3)
    suite.append(("bipartite50", g))
    return suite


def table1_graph(n: int, num_paths: int, seed: int) -> Graph:
    """G(n, p) with average degree 4 plus ``num_paths`` disjoint 9-edge
    paths: the shape of the Table 1 instances."""
    er = erdos_renyi(n, 4 / (n - 1), seed=seed)
    paths = disjoint_paths(num_paths, 9)
    graph = Graph(er.n + paths.n)
    graph.add_edges(er.edges())
    graph.add_edges((er.n + u, er.n + v) for u, v in paths.edges())
    return graph


@pytest.fixture(scope="session")
def small_graphs() -> List[Tuple[str, Graph]]:
    return small_graph_suite()


@pytest.fixture(scope="session")
def medium_graphs() -> List[Tuple[str, Graph]]:
    return medium_graph_suite()
