"""Workload subsystem: lazy update streams, traces, and real-graph ingestion.

The dynamic algorithms of Section 7 consume *update sequences*; this package
is where those sequences come from:

* :mod:`~repro.workloads.streams` -- the :class:`UpdateStream` abstraction
  (lazy, re-iterable) and the round-robin :func:`interleave` merge;
* :mod:`~repro.workloads.sources` -- the synthetic workload families as
  stream sources;
* :mod:`~repro.workloads.trace` -- packed int64 ``(kind, u, v)`` traces
  with save/load, for stable shareable workloads;
* :mod:`~repro.workloads.ingest` -- SNAP-style edge-list loading and the
  temporal sliding-window adapter turning a real static graph into a
  dynamic scenario.

See the "Workload & trace layer" section of ARCHITECTURE.md.
"""

from repro.workloads.streams import UpdateStream, interleave
from repro.workloads.sources import (
    insertion_only,
    planted_matching_churn,
    sliding_window,
)
from repro.workloads.trace import Trace
from repro.workloads.ingest import (
    EdgeListData,
    load_edge_list,
    temporal_sliding_window,
)

__all__ = [
    "EdgeListData",
    "Trace",
    "UpdateStream",
    "insertion_only",
    "interleave",
    "load_edge_list",
    "planted_matching_churn",
    "sliding_window",
    "temporal_sliding_window",
]
