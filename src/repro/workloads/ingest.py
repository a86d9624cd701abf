"""Real-graph ingestion: edge lists in, dynamic update streams out.

The paper evaluates nothing on data (it is a theory paper), but the
ROADMAP's scenario axis wants the dynamic stack exercised on real graphs.
This module turns a static edge-list file (the SNAP convention: one
``u v [timestamp]`` pair per line, ``#`` comments) into the repo's dynamic
workloads:

* :func:`load_edge_list` parses and *remaps* arbitrary vertex labels
  (sparse ids, strings) onto the contiguous ``0..n-1`` range every
  algorithm here assumes, dropping self-loops and keeping the original
  labels for reverse lookup;
* :func:`temporal_sliding_window` replays the edges in timestamp order
  (file order when no timestamps; ties keep file order -- the sort is
  stable, so ingestion is deterministic) and adds expiry: an edge inserted
  at time ``t`` is deleted once the stream reaches time ``t + window``,
  turning a static graph with timestamps into a genuinely fully dynamic
  scenario whose live size is bounded by the window.

Together with :class:`~repro.workloads.trace.Trace` this is the
record-once/replay-forever path: ingest a public graph, record the stream,
commit the trace, and every future bench run replays the identical
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.graph.dynamic_graph import Update
from repro.workloads.streams import UpdateStream


@dataclass
class EdgeListData:
    """A parsed edge-list file, remapped to contiguous vertex ids.

    ``edges[i]`` is the i-th non-comment, non-self-loop line as a
    ``(u, v)`` pair of remapped ids; ``timestamps[i]`` its timestamp when
    the file carries one (``None`` otherwise -- then file order is the
    temporal order); ``labels[j]`` the original label of vertex ``j``.
    Duplicate edges are kept: they are real occurrences in temporal data
    (repeated contacts) and the stream adapters give them meaning.
    """

    n: int
    edges: List[Tuple[int, int]]
    timestamps: Optional[List[int]] = None
    labels: List[str] = field(default_factory=list)
    path: str = ""

    @property
    def m(self) -> int:
        return len(self.edges)


def load_edge_list(path) -> EdgeListData:
    """Parse a SNAP-style edge list: ``u v [timestamp]`` per line.

    Vertex labels may be arbitrary tokens; they are assigned contiguous ids
    in first-seen order.  Self-loops are dropped (the update protocol
    rejects them); blank lines and ``#``-prefixed lines are ignored.
    Timestamps must be integers and either every edge line has one or none
    does.
    """
    ids = {}
    labels: List[str] = []
    edges: List[Tuple[int, int]] = []
    timestamps: List[int] = []
    saw_timestamps: Optional[bool] = None

    def vertex(token: str) -> int:
        vid = ids.get(token)
        if vid is None:
            vid = len(ids)
            ids[token] = vid
            labels.append(token)
        return vid

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v [timestamp]', "
                    f"got {line!r}")
            has_ts = len(fields) == 3
            if saw_timestamps is None:
                saw_timestamps = has_ts
            elif saw_timestamps != has_ts:
                raise ValueError(
                    f"{path}:{lineno}: mixed timestamped and plain edge "
                    "lines")
            if fields[0] == fields[1]:
                continue  # self-loop: the update protocol rejects them
            edges.append((vertex(fields[0]), vertex(fields[1])))
            if has_ts:
                timestamps.append(int(fields[2]))

    return EdgeListData(n=len(ids), edges=edges,
                        timestamps=timestamps if saw_timestamps else None,
                        labels=labels, path=str(path))


def _temporal_order(data: EdgeListData) -> List[int]:
    """Edge indices in replay order: stable sort by timestamp, else file
    order (so ingestion is deterministic either way)."""
    if data.timestamps is None:
        return list(range(data.m))
    return sorted(range(data.m), key=lambda i: data.timestamps[i])


def _time_of(data: EdgeListData, index: int) -> int:
    return index if data.timestamps is None else data.timestamps[index]


def temporal_sliding_window(data: EdgeListData, window: int) -> UpdateStream:
    """Temporal replay with expiry: an edge arriving at time ``t`` is
    deleted when the stream reaches time ``t + window``.

    ``window`` is measured in the file's time unit (timestamps when
    present, arrival index otherwise).  A re-arrival of a live edge
    refreshes its expiry without emitting anything (the edge simply stays);
    expiries due at the same step are emitted in the arrival order of the
    arrival that last refreshed them.  Edges still live after the last
    arrival remain in the graph -- the stream ends with a non-trivial
    snapshot, which is what the matching maintainers want to be measured
    on.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    order = _temporal_order(data)

    def produce() -> Iterator[Update]:
        # Amortized O(1) expiry: arrivals come in nondecreasing time, so a
        # FIFO of (edge, born) events scanned by one pointer finds every due
        # expiry without rescanning the live set (an O(live) scan per
        # arrival would make large SNAP ingests O(m * window)).  A refresh
        # appends a new event and leaves the old one behind as *stale*;
        # stale events are recognised (born no longer matches the live
        # entry) and skipped when the pointer reaches them.
        live = {}  # edge -> born time of its latest arrival
        events: List[Tuple[Tuple[int, int], int]] = []
        first = 0
        for i in order:
            now = _time_of(data, i)
            while first < len(events):
                e, born = events[first]
                if born + window > now:
                    break
                first += 1
                if live.get(e) == born:  # not refreshed since: really due
                    del live[e]
                    yield Update.delete(*e)
            if first > 4096:  # compact consumed prefix; keeps buffer bounded
                del events[:first]
                first = 0
            u, v = data.edges[i]
            e = (min(u, v), max(u, v))
            refresh = e in live
            live[e] = now
            events.append((e, now))
            if not refresh:
                yield Update.insert(u, v)

    name = f"temporal_sliding_window({data.path or 'edges'}, window={window})"
    return UpdateStream(data.n, produce, length=None, name=name)
