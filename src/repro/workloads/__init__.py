"""Workload subsystem: lazy update streams, traces, and real-graph ingestion.

The dynamic algorithms of Section 7 consume *update sequences*; this package
is where those sequences come from:

* :mod:`~repro.workloads.streams` -- the :class:`UpdateStream` abstraction
  (lazy, re-iterable, composable) and its combinators;
* :mod:`~repro.workloads.sources` -- the synthetic workload families as
  stream sources;
* :mod:`~repro.workloads.trace` -- packed int64 ``(kind, u, v)`` traces
  with save/load, for stable shareable workloads;
* :mod:`~repro.workloads.ingest` -- SNAP-style edge-list loading and
  temporal adapters turning real static graphs into dynamic scenarios;
* :mod:`~repro.workloads.registry` -- named workload specs backing the
  bench CLI's ``--workload`` selector.

See the "Workload & trace layer" section of ARCHITECTURE.md.
"""

from repro.workloads.streams import UpdateStream, concat, interleave, stream_of
from repro.workloads.sources import (
    adversarial_matched_edge_deletions,
    insertion_only,
    ors_reveal,
    planted_matching_churn,
    sliding_window,
)
from repro.workloads.trace import Trace
from repro.workloads.ingest import (
    EdgeListData,
    load_edge_list,
    temporal_insertions,
    temporal_sliding_window,
)
from repro.workloads.registry import (
    get_workload,
    register_workload,
    resolve_workload,
    workload_names,
)

__all__ = [
    "EdgeListData",
    "Trace",
    "UpdateStream",
    "adversarial_matched_edge_deletions",
    "concat",
    "get_workload",
    "insertion_only",
    "interleave",
    "load_edge_list",
    "ors_reveal",
    "planted_matching_churn",
    "register_workload",
    "resolve_workload",
    "sliding_window",
    "stream_of",
    "temporal_insertions",
    "temporal_sliding_window",
    "workload_names",
]
