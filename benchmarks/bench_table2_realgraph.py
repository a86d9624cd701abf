"""Table 2 (real-graph row): the dynamic maintainer on an ingested real graph.

The paper evaluates on synthetic constructions only; this row exercises the
same fully dynamic maintainer on a *real* graph turned dynamic by the
workload subsystem's ingestion path: Zachary's karate club
(``benchmarks/data/karate.txt``, the classic 34-vertex/78-edge social
network) is replayed in arrival order with sliding-window expiry
(``repro.workloads.temporal_sliding_window``), so edges age out and the
maintainer must survive genuine deletions, not just churn it chose itself.

The workload ships as a committed trace (``benchmarks/data/karate_w40.npz``)
so every run -- any host, any ``--jobs`` -- replays the exact
same update sequence.  The scenario first *re-records* the stream from the
raw edge list and verifies it matches the committed trace byte-for-byte
(record/replay parity: drift in the ingestion code or the fixture fails the
smoke gate loudly), then replays the trace through
:class:`~repro.dynamic.fully_dynamic.FullyDynamicMatching`.

Reported: amortized update work, rebuilds, weak-oracle calls, and the final
size against the exact optimum of the end-of-stream snapshot
(``size_over_opt``, asserted >= 1/(1+eps)).
"""

from __future__ import annotations

from pathlib import Path

from repro.matching.blossom import maximum_matching_size
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.workloads import Trace, load_edge_list, temporal_sliding_window

from repro.bench import register

from _common import check_bound, scenario_main

DATA_DIR = Path(__file__).resolve().parent / "data"
KARATE_EDGES = DATA_DIR / "karate.txt"
KARATE_TRACE = DATA_DIR / "karate_w40.npz"
#: expiry window (in arrival index units; karate.txt carries no timestamps)
WINDOW = 40


def karate_window_stream():
    """The karate-club sliding-window stream, rebuilt from the raw edge list."""
    return temporal_sliding_window(load_edge_list(KARATE_EDGES), window=WINDOW)


_VERIFIED_TRACE = None  # per-process cache of the parity-checked trace


def check_trace_parity() -> Trace:
    """Re-record the stream and require byte-identity with the committed trace.

    Returns the committed trace (the workload every run replays).  A
    mismatch means the ingestion/stream code or the fixture drifted; the
    fix is deliberate regeneration via ``karate_window_stream()`` --
    silently measuring a different workload is the failure mode this
    guards against.  The check runs once per process and is cached, so
    warmup/repeat executions of the bench scenario time only the maintainer
    replay, not fixture parsing and re-recording.
    """
    global _VERIFIED_TRACE
    if _VERIFIED_TRACE is not None:
        return _VERIFIED_TRACE
    committed = Trace.load(KARATE_TRACE)
    fresh = Trace.record(karate_window_stream())
    if fresh != committed:
        raise RuntimeError(
            f"record/replay parity violated: re-recorded karate stream "
            f"({len(fresh)} updates) differs from committed trace "
            f"{KARATE_TRACE.name} ({len(committed)} updates); regenerate "
            "the fixture only if the ingestion change is intentional")
    _VERIFIED_TRACE = committed
    return committed


@register("table2_realgraph", suite="table2",
          description="dynamic maintainer replaying the committed "
                      "karate-club trace; record/replay parity enforced")
def _table2_realgraph_scenario(spec, counters):
    eps = spec.resolved_eps()
    trace = check_trace_parity()
    alg = FullyDynamicMatching(trace.n, eps, counters=counters,
                               seed=spec.seed)
    alg.process(trace.stream(), collect_sizes=False)
    opt = maximum_matching_size(alg.graph)
    values = {"amortized_update_work": alg.amortized_update_work(),
              "size_over_opt": alg.current_matching().size / max(1, opt),
              "trace_updates": float(len(trace))}
    check_bound(spec, values, "size_over_opt", 1 / (1 + eps))
    return values


def main(argv=None) -> int:
    return scenario_main("table2_realgraph", argv)


if __name__ == "__main__":
    raise SystemExit(main())
