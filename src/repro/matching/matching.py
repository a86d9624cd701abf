"""The :class:`Matching` container.

A matching is stored as a ``mate`` array (``mate[v]`` is the matched partner of
``v`` or ``None``), the representation every algorithm in the paper implicitly
uses: free-vertex tests, matched-arc lookups and path augmentation are all
O(1)/O(length).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Graph, normalize_edge

Edge = Tuple[int, int]


def mate_array_error(mate, n: int) -> Optional[str]:
    """Why ``mate`` does not describe a matching on ``n`` vertices, or ``None``.

    ``mate`` is a 1-D int64 array with ``mate[v]`` the partner of ``v`` and
    ``-1`` for a free vertex (the checkpoint layout).  Checked vectorized:
    the length is ``n``, every entry is ``-1`` or a vertex, no vertex is
    matched to itself, and ``mate[mate[u]] == u`` for every matched ``u``.
    """
    if mate.shape != (n,):
        return f"mate array has shape {mate.shape}, expected ({n},)"
    if ((mate < -1) | (mate >= n)).any():
        return "mate entry out of range"
    matched = np.flatnonzero(mate >= 0)
    partners = mate[matched]
    if (partners == matched).any():
        return "a vertex is matched to itself"
    if (mate[partners] != matched).any():
        return "mate array is not symmetric (mate[mate[u]] != u)"
    return None


class Matching:
    """A mutable matching of a graph on ``n`` vertices.

    The container does not keep a reference to the graph; validity with respect
    to a particular graph is checked by :meth:`validate`.
    """

    __slots__ = ("_n", "_mate", "_size")

    def __init__(self, n: int, edges: Optional[Iterable[Edge]] = None) -> None:
        self._n = n
        self._mate: List[Optional[int]] = [None] * n
        self._size = 0
        if edges is not None:
            for u, v in edges:
                self.add(u, v)

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        """Number of matched edges."""
        return self._size

    @property
    def size(self) -> int:
        return self._size

    def mate(self, v: int) -> Optional[int]:
        """The matched partner of ``v`` or ``None`` if ``v`` is free."""
        return self._mate[v]

    def is_matched(self, v: int) -> bool:
        return self._mate[v] is not None

    def is_free(self, v: int) -> bool:
        """Whether ``v`` is a free vertex (Definition 3.1)."""
        return self._mate[v] is None

    def contains_edge(self, u: int, v: int) -> bool:
        return self._mate[u] == v and self._mate[v] == u

    def free_vertices(self) -> List[int]:
        """All free vertices."""
        return [v for v in range(self._n) if self._mate[v] is None]

    def matched_vertices(self) -> List[int]:
        return [v for v in range(self._n) if self._mate[v] is not None]

    def edges(self) -> Iterator[Edge]:
        """Iterate over matched edges as canonical ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            v = self._mate[u]
            if v is not None and u < v:
                yield (u, v)

    def edge_list(self) -> List[Edge]:
        return list(self.edges())

    def mate_list(self) -> Sequence[Optional[int]]:
        """The internal mate array (read-only view; do not mutate).

        The array-native phase engine snapshots this once per phase to build
        its vectorized mate/matched masks instead of issuing n ``mate()``
        calls.
        """
        return self._mate

    def copy(self) -> "Matching":
        m = Matching(self._n)
        m._mate = list(self._mate)
        m._size = self._size
        return m

    def __repr__(self) -> str:  # pragma: no cover
        return f"Matching(n={self._n}, size={self._size})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._n == other._n and self._mate == other._mate

    # -------------------------------------------------------------- mutation
    def add(self, u: int, v: int) -> None:
        """Add matched edge ``{u, v}``; both endpoints must currently be free."""
        if u == v:
            raise ValueError("cannot match a vertex to itself")
        if self._mate[u] is not None or self._mate[v] is not None:
            raise ValueError(
                f"cannot add ({u}, {v}): an endpoint is already matched")
        self._mate[u] = v
        self._mate[v] = u
        self._size += 1

    def load_mate_array(self, mate) -> None:
        """Replace the matching with the one ``mate`` describes, in one pass.

        ``mate`` holds ``n`` ints (a list or an int64 array), ``-1`` marking a
        free vertex; it is validated by :func:`mate_array_error` first, and a
        bad array raises ``ValueError`` leaving the matching unchanged.  The
        bulk counterpart of one :meth:`add` per pair, used by checkpoint
        restore and the exact matchers.
        """
        arr = np.asarray(mate, dtype=np.int64)
        problem = mate_array_error(arr, self._n)
        if problem is not None:
            raise ValueError(problem)
        table: List[Optional[int]] = arr.tolist()
        free = np.flatnonzero(arr < 0)
        for v in free.tolist():
            table[v] = None
        self._mate = table
        self._size = (self._n - free.size) // 2

    def remove(self, u: int, v: int) -> None:
        """Remove matched edge ``{u, v}``."""
        if self._mate[u] != v or self._mate[v] != u:
            raise ValueError(f"({u}, {v}) is not a matched edge")
        self._mate[u] = None
        self._mate[v] = None
        self._size -= 1

    def remove_vertex_edge(self, v: int) -> Optional[Edge]:
        """If ``v`` is matched, remove its matched edge; return the edge removed."""
        w = self._mate[v]
        if w is None:
            return None
        self.remove(v, w)
        return normalize_edge(v, w)

    # ---------------------------------------------------------- augmentation
    def augment_along(self, path: Sequence[int]) -> None:
        """Augment along an augmenting path given as a vertex sequence.

        The path must start and end at free vertices and alternate
        unmatched/matched/.../unmatched edges (Definition 3.2).  Raises
        ``ValueError`` if the path is not a valid augmenting path for the
        current matching; the matching is left unchanged in that case.
        """
        if len(path) < 2 or len(path) % 2 != 0:
            raise ValueError("an augmenting path has an even number of vertices")
        if len(set(path)) != len(path):
            raise ValueError("augmenting path must be simple")
        if not (self.is_free(path[0]) and self.is_free(path[-1])):
            raise ValueError("augmenting path endpoints must be free")
        # check alternation: edges at odd indices (0-based pairs) are matched
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            if i % 2 == 0:
                if self.contains_edge(u, v):
                    raise ValueError("expected unmatched edge on the path")
            else:
                if not self.contains_edge(u, v):
                    raise ValueError("expected matched edge on the path")
        # flip: remove matched edges then add unmatched ones
        for i in range(1, len(path) - 1, 2):
            self.remove(path[i], path[i + 1])
        for i in range(0, len(path) - 1, 2):
            self.add(path[i], path[i + 1])

    def augment_all(self, paths: Iterable[Sequence[int]]) -> int:
        """Augment along a collection of vertex-disjoint augmenting paths.

        Returns the number of paths applied (= increase in matching size).
        """
        count = 0
        for p in paths:
            self.augment_along(p)
            count += 1
        return count

    # ------------------------------------------------------------ validation
    def validate(self, graph: Optional[Graph] = None) -> None:
        """Raise ``AssertionError`` if the internal state is inconsistent or,
        when ``graph`` is given, if a matched edge is not a graph edge."""
        size = 0
        for u in range(self._n):
            v = self._mate[u]
            if v is None:
                continue
            assert 0 <= v < self._n, f"mate of {u} out of range"
            assert self._mate[v] == u, f"mate pointers of {u},{v} inconsistent"
            assert v != u, "self-matched vertex"
            if u < v:
                size += 1
                if graph is not None:
                    assert graph.has_edge(u, v), f"matched edge ({u},{v}) not in graph"
        assert size == self._size, "cached size out of date"

    def restricted_to(self, graph: Graph) -> "Matching":
        """A copy with every matched edge absent from ``graph`` dropped.

        Used by the dynamic maintainer after edge deletions: deleting a matched
        edge removes it from the matching.
        """
        m = Matching(self._n)
        for u, v in self.edges():
            if graph.has_edge(u, v):
                m.add(u, v)
        return m

    @classmethod
    def from_mate_array(cls, mate: Sequence[Optional[int]]) -> "Matching":
        """Build a matching from a ``mate`` array, ``None`` marking a free vertex.

        A thin wrapper over :meth:`load_mate_array` (which takes ``-1``).
        """
        m = cls(len(mate))
        m.load_mate_array([-1 if v is None else v for v in mate])
        return m
