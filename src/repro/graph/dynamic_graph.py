"""Fully dynamic graph with an explicit update log (Section 7 substrate).

The dynamic algorithms of Section 7 operate on a graph that *starts empty* and
receives an online sequence of edge insertions and deletions, grouped into
chunks of ``alpha * n`` updates (Problem 1).  :class:`DynamicGraph` is that
container: a :class:`~repro.graph.graph.Graph` plus an append-only update log
and chunking helpers.

"Empty updates" (Problem 1 allows updates that do not change the graph, used
when chunk sizes must be padded) are represented by :data:`Update.EMPTY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.backends import edge_endpoint_arrays
from repro.graph.graph import Graph, normalize_edge
from repro.utils.contracts import invalidates

Edge = Tuple[int, int]


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
    """A fully dynamic graph: current snapshot + append-only update log.

    The graph starts empty (Problem 1).  ``apply`` mutates the snapshot and
    records the update; ``max_edges_seen`` tracks the parameter ``m`` of the
    paper (the maximum number of edges ever present).

    ``backend`` is handed to :class:`Graph`, which accepts only ``None`` or
    ``"adjset"``.

    ``log_updates=False`` disables the append-only log: ``num_updates`` and
    ``max_edges_seen`` stay exact, but :meth:`log` and :meth:`replay` raise.
    This is how long streams replay in O(live edges) memory -- the dynamic
    maintainers construct their graphs log-free by default, and
    :meth:`apply_all` consumes arbitrary (lazy) iterables without
    materializing them (record a :class:`~repro.workloads.trace.Trace` when
    the sequence itself must be kept).
    """

    def __init__(self, n: int, backend: Optional[str] = None,
                 log_updates: bool = True) -> None:
        self._graph = Graph(n, backend=backend)
        self._log: Optional[List[Update]] = [] if log_updates else None
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
    def logs_updates(self) -> bool:
        """Whether the append-only update log is kept."""
        return self._log is not None

    @property
    def graph(self) -> Graph:
        """The current snapshot (treat as read-only; mutate via :meth:`apply`)."""
        return self._graph

    def log(self) -> Sequence[Update]:
        """The full update log (requires ``log_updates=True``)."""
        if self._log is None:
            raise RuntimeError(
                "update log disabled (log_updates=False); record the stream "
                "to a repro.workloads.Trace if it must be kept")
        return tuple(self._log)

    # ---------------------------------------------------------------- updates
    @invalidates("_num_updates", "_max_edges")
    def apply(self, update: Update) -> bool:
        """Apply one update.  Returns whether the snapshot actually changed."""
        changed = False
        if update.kind == Update.INSERT:
            changed = self._graph.add_edge(update.u, update.v)
        elif update.kind == Update.DELETE:
            changed = self._graph.remove_edge(update.u, update.v)
        if self._log is not None:
            self._log.append(update)
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
        mutating the snapshot or the log.  Lazy inputs
        (:class:`~repro.workloads.streams.UpdateStream`, generators) are
        consumed one update at a time in O(1) extra memory; a malformed
        update raises before it is applied, leaving the earlier ones applied
        and the log and ``max_edges_seen`` consistent with them.
        """
        if isinstance(updates, Sequence):
            self._check_updates(updates)
        changed = 0
        for upd in updates:
            changed += self.apply(upd)
        return changed

    @invalidates("_num_updates", "_max_edges")
    def insert_edges(self, edges: Iterable[Edge]) -> int:
        """Batched insert: every edge counts as one insert update.

        The whole batch is validated up front (a bad edge raises before
        anything changes) and handed to the graph's bulk ``add_edges`` in
        one call, in the given order; the log, when kept, records one
        :class:`Update` per edge.
        """
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        us, vs = edge_endpoint_arrays(edges)
        n = self.n
        bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
        if bad.any():
            i = int(np.argmax(bad))
            w = int(us[i]) if not 0 <= us[i] < n else int(vs[i])
            raise ValueError(f"vertex {w} out of range [0, {n})")
        if (us == vs).any():
            raise ValueError("self-loop updates are not allowed")
        changed = self._graph.add_edges(edges)
        if self._log is not None:
            self._log.extend(Update.insert(u, v) for u, v in edges)
        self._num_updates += len(edges)
        self._max_edges = max(self._max_edges, self._graph.m)
        return changed

    @invalidates("_num_updates", "_max_edges")
    def delete_edges(self, edges: Iterable[Edge]) -> int:
        """Batched delete: one :class:`Update` per edge through :meth:`apply_all`."""
        return self.apply_all(Update.delete(u, v) for u, v in edges)

    @invalidates("_num_updates", "_max_edges")
    def restore_accounting(self, num_updates: int, max_edges_seen: int) -> None:
        """Overwrite the update/edge accounting (checkpoint restore only).

        Rebuilding a snapshot from a checkpoint bulk-inserts the live edges,
        which charges ``num_updates``/``max_edges_seen`` as if the history
        were a single insert run; this puts back the figures of the original
        run so a resumed maintainer is byte-identical to the uninterrupted
        one.  Never call it outside a restore path.
        """
        if num_updates < 0 or max_edges_seen < self._graph.m:
            raise ValueError(
                f"inconsistent accounting: num_updates={num_updates}, "
                f"max_edges_seen={max_edges_seen} with {self._graph.m} live edges")
        self._num_updates = int(num_updates)
        self._max_edges = int(max_edges_seen)

    # ----------------------------------------------------------------- chunks
    @staticmethod
    def chunk_updates(updates: Sequence[Update], chunk_size: int,
                      pad: bool = True) -> List[List[Update]]:
        """Split an update sequence into chunks of exactly ``chunk_size``.

        Problem 1 requires every chunk to contain exactly ``alpha * n`` updates;
        when ``pad`` is true the final chunk is padded with empty updates.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        chunks: List[List[Update]] = []
        for start in range(0, len(updates), chunk_size):
            chunk = list(updates[start:start + chunk_size])
            if pad and len(chunk) < chunk_size:
                chunk.extend(Update.empty() for _ in range(chunk_size - len(chunk)))
            chunks.append(chunk)
        return chunks

    def replay(self, upto: Optional[int] = None) -> Graph:
        """Rebuild the snapshot after the first ``upto`` updates (offline use).

        Requires the update log (``log_updates=True``).
        """
        if self._log is None:
            raise RuntimeError(
                "update log disabled (log_updates=False); replay from a "
                "recorded repro.workloads.Trace instead")
        upto = len(self._log) if upto is None else upto
        g = Graph(self.n)
        for upd in self._log[:upto]:
            if upd.kind == Update.INSERT:
                g.add_edge(upd.u, upd.v)
            elif upd.kind == Update.DELETE:
                g.remove_edge(upd.u, upd.v)
        return g
