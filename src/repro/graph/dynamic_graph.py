"""Fully dynamic graph (Section 7 substrate).

The dynamic algorithms of Section 7 operate on a graph that *starts empty* and
receives an online sequence of edge insertions and deletions, grouped into
chunks of ``alpha * n`` updates (Problem 1).  :class:`DynamicGraph` is that
container: a :class:`~repro.graph.graph.Graph` plus the update accounting
(``num_updates``, ``max_edges_seen``).  Chunking is
:meth:`~repro.workloads.streams.UpdateStream.chunks`; a sequence that must be
kept is recorded as a :class:`~repro.workloads.trace.Trace`.

"Empty updates" (Problem 1 allows updates that do not change the graph, used
when chunk sizes must be padded) are represented by :data:`Update.EMPTY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.graph.graph import Graph, normalize_edge
from repro.utils.contracts import invalidates


@dataclass(frozen=True)
class Update:
    """A single edge update.

    Attributes
    ----------
    kind:
        ``"insert"``, ``"delete"`` or ``"empty"``.
    u, v:
        Edge endpoints (``-1`` for empty updates).
    """

    kind: str
    u: int = -1
    v: int = -1

    INSERT = "insert"
    DELETE = "delete"
    EMPTY = "empty"

    def __post_init__(self) -> None:
        if self.kind not in (Update.INSERT, Update.DELETE, Update.EMPTY):
            raise ValueError(f"unknown update kind {self.kind!r}")
        if self.kind != Update.EMPTY and self.u == self.v:
            raise ValueError("self-loop updates are not allowed")

    @staticmethod
    def insert(u: int, v: int) -> "Update":
        return Update(Update.INSERT, *normalize_edge(u, v))

    @staticmethod
    def delete(u: int, v: int) -> "Update":
        return Update(Update.DELETE, *normalize_edge(u, v))

    @staticmethod
    def empty() -> "Update":
        return Update(Update.EMPTY)


class DynamicGraph:
    """A fully dynamic graph: the current snapshot and its update accounting.

    The graph starts empty (Problem 1).  ``apply`` mutates the snapshot and
    counts the update; ``max_edges_seen`` tracks the parameter ``m`` of the
    paper (the maximum number of edges ever present).  Nothing else of the
    sequence is kept, so a stream of any length replays in O(live edges)
    memory: :meth:`apply_all` consumes arbitrary (lazy) iterables without
    materializing them.

    ``backend`` is handed to :class:`Graph`, which accepts only ``None`` or
    ``"adjset"``.
    """

    def __init__(self, n: int, backend: Optional[str] = None) -> None:
        self._graph = Graph(n, backend=backend)
        self._num_updates = 0
        self._max_edges = 0

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        return self._graph.n

    @property
    def m(self) -> int:
        """Current number of edges."""
        return self._graph.m

    @property
    def max_edges_seen(self) -> int:
        """The parameter ``m`` of Problem 1: max #edges at any point so far."""
        return self._max_edges

    @property
    def num_updates(self) -> int:
        return self._num_updates

    @property
    def graph(self) -> Graph:
        """The current snapshot (treat as read-only; mutate via :meth:`apply`)."""
        return self._graph

    # ---------------------------------------------------------------- updates
    @invalidates("_num_updates", "_max_edges")
    def apply(self, update: Update) -> bool:
        """Apply one update.  Returns whether the snapshot actually changed."""
        changed = False
        if update.kind == Update.INSERT:
            changed = self._graph.add_edge(update.u, update.v)
        elif update.kind == Update.DELETE:
            changed = self._graph.remove_edge(update.u, update.v)
        self._num_updates += 1
        self._max_edges = max(self._max_edges, self._graph.m)
        return changed

    @invalidates("_num_updates", "_max_edges")
    def insert(self, u: int, v: int) -> bool:
        return self.apply(Update.insert(u, v))

    @invalidates("_num_updates", "_max_edges")
    def delete(self, u: int, v: int) -> bool:
        return self.apply(Update.delete(u, v))

    def _check_updates(self, updates: Sequence[Update]) -> None:
        """Validate every endpoint up front, so a bad update in a sequence
        raises before any update of it is applied."""
        n = self.n
        for upd in updates:
            if upd.kind != Update.EMPTY and not (0 <= upd.u < n and 0 <= upd.v < n):
                w = upd.u if not 0 <= upd.u < n else upd.v
                raise ValueError(f"vertex {w} out of range [0, {n})")

    @invalidates("_num_updates", "_max_edges")
    def apply_all(self, updates: Iterable[Update]) -> int:
        """Apply a sequence/stream of updates; returns how many changed the graph.

        Each update goes through :meth:`apply`.  A materialized ``Sequence``
        is validated in full first, so a malformed update raises without
        mutating the snapshot or the accounting.  Lazy inputs
        (:class:`~repro.workloads.streams.UpdateStream`, generators) are
        consumed one update at a time in O(1) extra memory; a malformed
        update raises before it is applied, leaving the earlier ones applied
        and ``num_updates``/``max_edges_seen`` consistent with them.
        """
        if isinstance(updates, Sequence):
            self._check_updates(updates)
        changed = 0
        for upd in updates:
            changed += self.apply(upd)
        return changed

    @invalidates("_num_updates", "_max_edges")
    def restore_snapshot(self, edge_u, edge_v, num_updates: int,
                         max_edges_seen: int) -> None:
        """Load a checkpoint's edge columns and accounting (restore only).

        ``edge_u``/``edge_v`` are canonical key-sorted endpoint arrays
        (:func:`~repro.graph.graph.canonical_edges_error`); they go into
        the edgeless graph in one call, each adjset row loaded on first
        touch (:meth:`~repro.graph.graph.Graph.load_canonical`).
        ``num_updates``/``max_edges_seen`` are the figures of the run that
        produced them, so a resumed maintainer is byte-identical to the
        uninterrupted one.  Every check runs before any state changes.
        """
        if num_updates < 0 or max_edges_seen < len(edge_u):
            raise ValueError(
                f"inconsistent accounting: num_updates={num_updates}, "
                f"max_edges_seen={max_edges_seen} with {len(edge_u)} "
                f"live edges")
        self._graph.load_canonical(edge_u, edge_v)
        self._num_updates = int(num_updates)
        self._max_edges = int(max_edges_seen)
