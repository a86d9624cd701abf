"""Edmonds' blossom algorithm: exact maximum matching in general graphs.

This is the exact substrate of the reproduction.  It serves three purposes:

1. ground truth -- every approximation test compares the framework's output to
   the exact optimum computed here;
2. the local augmenting step -- the ``Augment`` operation of Section 4.5.1 is
   implemented by running a single augmentation of this algorithm restricted to
   the (small) union of the two structures involved, instead of the recursive
   blossom-path expansion of Lemma 3.5 (substitution 3);
3. a "perfect" oracle -- an exact ``Amatching``/``Aweak`` used to separate
   framework behaviour from oracle quality in experiments.

The implementation is the classic O(V^3) formulation with ``base``/``parent``
arrays and LCA-based blossom contraction (Edmonds 1965; see also [MV80] for
the asymptotically faster variant which we do not need at these sizes).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

from repro.graph.graph import Graph
from repro.matching.matching import Matching

_NONE = -1


class _BlossomSolver:
    """One augmentation-at-a-time Edmonds search over a fixed graph."""

    def __init__(self, graph: Graph, mate: Optional[List[int]] = None) -> None:
        self.graph = graph
        self.n = graph.n
        self.match: List[int] = list(mate) if mate is not None else [_NONE] * self.n
        self.parent: List[int] = [_NONE] * self.n
        self.base: List[int] = list(range(self.n))
        self.in_queue: List[bool] = [False] * self.n
        self.in_blossom: List[bool] = [False] * self.n

    # -- blossom helpers ----------------------------------------------------
    def _lca(self, a: int, b: int) -> int:
        used = [False] * self.n
        # walk up from a marking bases
        v = a
        while True:
            v = self.base[v]
            used[v] = True
            if self.match[v] == _NONE:
                break
            v = self.parent[self.match[v]]
        # walk up from b until a marked base is hit
        v = b
        while True:
            v = self.base[v]
            if used[v]:
                return v
            v = self.parent[self.match[v]]

    def _mark_path(self, v: int, b: int, child: int) -> None:
        while self.base[v] != b:
            self.in_blossom[self.base[v]] = True
            self.in_blossom[self.base[self.match[v]]] = True
            self.parent[v] = child
            child = self.match[v]
            v = self.parent[self.match[v]]

    # -- one phase: try to find an augmenting path from `root` --------------
    def try_augment(self, root: int) -> bool:
        self.parent = [_NONE] * self.n
        self.base = list(range(self.n))
        self.in_queue = [False] * self.n
        self.in_queue[root] = True
        queue = deque([root])

        while queue:
            v = queue.popleft()
            for to in self.graph.neighbors(v):
                if self.base[v] == self.base[to] or self.match[v] == to:
                    continue
                if to == root or (self.match[to] != _NONE
                                  and self.parent[self.match[to]] != _NONE):
                    # odd cycle: contract the blossom
                    cur_base = self._lca(v, to)
                    self.in_blossom = [False] * self.n
                    self._mark_path(v, cur_base, to)
                    self._mark_path(to, cur_base, v)
                    for i in range(self.n):
                        if self.in_blossom[self.base[i]]:
                            self.base[i] = cur_base
                            if not self.in_queue[i]:
                                self.in_queue[i] = True
                                queue.append(i)
                elif self.parent[to] == _NONE:
                    self.parent[to] = v
                    if self.match[to] == _NONE:
                        # augmenting path found: flip along parent pointers
                        u = to
                        while u != _NONE:
                            pv = self.parent[u]
                            ppv = self.match[pv]
                            self.match[u] = pv
                            self.match[pv] = u
                            u = ppv
                        return True
                    else:
                        w = self.match[to]
                        if not self.in_queue[w]:
                            self.in_queue[w] = True
                            queue.append(w)
        return False

    def solve(self) -> List[int]:
        """Run to optimality; returns the mate array."""
        # cheap greedy warm start (only for vertices still free)
        for v in range(self.n):
            if self.match[v] == _NONE:
                for to in self.graph.neighbors(v):
                    if self.match[to] == _NONE:
                        self.match[v] = to
                        self.match[to] = v
                        break
        for v in range(self.n):
            if self.match[v] == _NONE:
                self.try_augment(v)
        return self.match


def _mate_list(matching: Optional[Matching], n: int) -> List[int]:
    mate = [_NONE] * n
    if matching is not None:
        for u, v in matching.edges():
            mate[u] = v
            mate[v] = u
    return mate


def maximum_matching(graph: Graph, initial: Optional[Matching] = None) -> Matching:
    """Exact maximum matching of ``graph`` (optionally warm-started)."""
    solver = _BlossomSolver(graph, _mate_list(initial, graph.n))
    matching = Matching(graph.n)
    matching.load_mate_array(solver.solve())  # _NONE is load_mate_array's -1
    return matching


def maximum_matching_size(graph: Graph) -> int:
    """mu(G): the size of a maximum matching."""
    return maximum_matching(graph).size


def find_augmenting_path(graph: Graph, matching: Matching) -> bool:
    """Perform at most one augmentation of ``matching`` with respect to ``graph``.

    Returns ``True`` (and mutates ``matching`` in place, increasing its size by
    one) if an augmenting path exists, ``False`` otherwise.  This is the local
    step the framework's ``Augment`` operation delegates to on the union of two
    structures.
    """
    solver = _BlossomSolver(graph, _mate_list(matching, graph.n))
    for v in range(graph.n):
        if solver.match[v] == _NONE:
            if solver.try_augment(v):
                # rebuild matching from the solver's mate array
                new_edges = [(u, w) for u, w in enumerate(solver.match)
                             if w != _NONE and u < w]
                # mutate in place
                for u, w in matching.edge_list():
                    matching.remove(u, w)
                for u, w in new_edges:
                    matching.add(u, w)
                return True
    return False
