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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.backends import BackendSpec, edge_endpoint_arrays
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

    ``backend`` selects the snapshot's storage backend (``"adjset"`` /
    ``"csr"``); batched entry points (:meth:`apply_all`, :meth:`insert_edges`,
    :meth:`delete_edges`) group consecutive same-kind updates and hand each
    run to the backend's bulk primitive in one call, so array-backed backends
    do not pay per-edge Python overhead for workload replay.

    ``log_updates=False`` disables the append-only log: ``num_updates`` and
    ``max_edges_seen`` stay exact, but :meth:`log` and :meth:`replay` raise.
    This is how long streams replay in O(live edges) memory -- the dynamic
    maintainers construct their graphs log-free by default, and
    :meth:`apply_all` consumes arbitrary (lazy) iterables without
    materializing them (record a :class:`~repro.workloads.trace.Trace` when
    the sequence itself must be kept).
    """

    #: bulk runs are applied in slices of at most this many updates, so a
    #: lazy million-insert stream never materializes as one giant run
    BULK_RUN_CAP = 4096

    def __init__(self, n: int, backend: BackendSpec = None,
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

    @classmethod
    def _grouped_runs(cls, updates: Iterable[Update]) -> Iterator[Tuple[str, List[Update]]]:
        """Yield runs of consecutive same-kind updates, lazily.

        Consumes any iterable one update at a time; a run is cut at a kind
        change or at :data:`BULK_RUN_CAP` updates, so peak buffering is
        O(cap) no matter how long the input stream is.
        """
        run: List[Update] = []
        kind: Optional[str] = None
        for upd in updates:
            if run and (upd.kind != kind or len(run) >= cls.BULK_RUN_CAP):
                yield kind, run
                run = []
            kind = upd.kind
            run.append(upd)
        if run:
            yield kind, run

    def _check_updates(self, updates: Sequence[Update]) -> None:
        """Validate every endpoint up front so a bad update cannot leave the
        snapshot, log and ``max_edges_seen`` mutually inconsistent after a
        partially applied bulk run."""
        n = self.n
        for upd in updates:
            if upd.kind != Update.EMPTY and not (0 <= upd.u < n and 0 <= upd.v < n):
                w = upd.u if not 0 <= upd.u < n else upd.v
                raise ValueError(f"vertex {w} out of range [0, {n})")

    @invalidates("_num_updates", "_max_edges")
    def apply_all(self, updates: Iterable[Update]) -> int:
        """Apply a sequence/stream of updates; returns how many changed the graph.

        Consecutive updates of the same kind are applied through the
        backend's bulk ``add_edges`` / ``remove_edges`` (in slices of at most
        :data:`BULK_RUN_CAP`).  ``max_edges_seen`` is still tracked exactly:
        within a run of insertions the edge count is maximal at the end of
        the run, and within a run of deletions at its start, so checking
        after each run observes every intermediate maximum.

        Lazy inputs (:class:`~repro.workloads.streams.UpdateStream`,
        generators) are consumed one run at a time -- peak extra memory is
        O(``BULK_RUN_CAP``), independent of the stream length.  Validation
        matches the input shape: a materialized ``Sequence`` is validated in
        full before anything is applied (a malformed update raises without
        mutating the snapshot or the log, the historical contract); for a
        lazy stream each run is validated before *that run* is applied, so
        a malformed update can leave earlier runs applied but never a
        half-applied run or an inconsistent log/``max_edges_seen``.
        """
        if isinstance(updates, Sequence):
            self._check_updates(updates)
            pre_validated = True
        else:
            pre_validated = False
        changed = 0
        for kind, run in self._grouped_runs(updates):
            if not pre_validated:
                self._check_updates(run)
            if kind == Update.INSERT:
                changed += self._graph.add_edges((upd.u, upd.v) for upd in run)
            elif kind == Update.DELETE:
                changed += self._graph.remove_edges((upd.u, upd.v) for upd in run)
            if self._log is not None:
                self._log.extend(run)
            self._num_updates += len(run)
            self._max_edges = max(self._max_edges, self._graph.m)
        return changed

    @invalidates("_num_updates", "_max_edges")
    def insert_edges(self, edges: Iterable[Edge]) -> int:
        """Batched insert: every edge counts as one insert update.

        The whole batch is validated up front (a bad edge raises before
        anything changes) and handed to the backend's bulk ``add_edges`` in
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
        """Batched delete: log one :class:`Update` per edge, mutate in bulk."""
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

        Replays run-by-run through the bulk mutation API on the same backend
        as the live snapshot.  Requires the update log
        (``log_updates=True``).
        """
        if self._log is None:
            raise RuntimeError(
                "update log disabled (log_updates=False); replay from a "
                "recorded repro.workloads.Trace instead")
        upto = len(self._log) if upto is None else upto
        g = Graph(self.n, backend=self._graph.backend_name)
        for kind, run in self._grouped_runs(self._log[:upto]):
            if kind == Update.INSERT:
                g.add_edges((upd.u, upd.v) for upd in run)
            elif kind == Update.DELETE:
                g.remove_edges((upd.u, upd.v) for upd in run)
        return g
