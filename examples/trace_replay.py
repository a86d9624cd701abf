#!/usr/bin/env python3
"""Workload subsystem quickstart: streams, traces, and real-graph replay.

Walks the record-once/replay-forever path of ``repro.workloads``:

1. build a *lazy* update stream (no list is ever materialized),
2. record it to a packed int64 trace and round-trip it through disk,
3. replay the trace through the fully dynamic maintainer,
4. ingest a real graph (Zachary's karate club) and replay it with
   sliding-window expiry.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro import Counters
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.workloads import (
    Trace,
    interleave,
    load_edge_list,
    planted_matching_churn,
    sliding_window,
    temporal_sliding_window,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "data")


def replay(trace):
    counters = Counters()
    alg = FullyDynamicMatching(trace.n, eps=0.25, counters=counters, seed=0)
    alg.process(trace.stream(), collect_sizes=False)
    return alg, counters


def main() -> None:
    # 1. compose a lazy stream: churn workload interleaved with a turnstile
    #    stream -- combinators make new scenarios one-liners, and nothing
    #    is generated until an algorithm pulls updates.
    churn = planted_matching_churn(12, rounds=3, seed=7)
    turnstile = sliding_window(churn.n, 120, window=20, seed=7)
    stream = interleave(churn, turnstile)
    print(f"stream: {stream.name}")
    print(f"  n={stream.n}, declared length={stream.length}")

    # 2. record -> save -> load: a trace is the stream's bytes; replays are
    #    identical on every host, which is what makes benchmarks shareable.
    trace = Trace.record(stream)
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(os.path.join(tmp, "workload"))
        loaded = Trace.load(path)
    print(f"  recorded {len(trace)} updates, round-trips byte-identically: "
          f"{loaded == trace}")

    # 3. replay through the maintainer
    alg, counters = replay(loaded)
    print(f"  final matching {alg.current_matching().size}, "
          f"rebuilds {int(counters['dyn_rebuilds'])}, "
          f"amortized work/update {alg.amortized_update_work():.1f}")

    # 4. real-graph ingestion: karate club, replayed with expiry so edges
    #    age out and the maintainer faces real deletions.
    data = load_edge_list(os.path.join(DATA, "karate.txt"))
    real = Trace.record(temporal_sliding_window(data, window=40))
    alg, counters = replay(real)
    print(f"\nreal graph: karate club (n={data.n}, {data.m} arrivals, "
          f"window 40 -> {len(real)} updates)")
    print(f"  final matching {alg.current_matching().size}, "
          f"rebuilds {int(counters['dyn_rebuilds'])}, "
          f"weak-oracle calls {int(counters['weak_oracle_calls'])}")
    print("trace replay quickstart done.")


if __name__ == "__main__":
    main()
