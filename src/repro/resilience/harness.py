"""Chaos driver: run a dynamic maintainer under injected crashes.

:func:`run_with_recovery` replays a workload through a
:class:`~repro.dynamic.fully_dynamic.FullyDynamicMatching`, consulting a
:class:`~repro.resilience.faults.FaultPlan` before every update.  A planned
crash discards the live maintainer -- modelling a hard process death -- and
recovery restores the most recent :class:`MaintainerCheckpoint` (optionally
through a full disk round-trip) and replays the updates since it.

Because the checkpoint captures every RNG substream and the counters bag,
the recovered run is *byte-identical* to the fault-free one: same mates,
same counters, same epoch boundaries.  That equality is asserted by the
``table2_chaos`` scenario and pinned across engines x repair modes in the
checkpoint test suite; the harness itself only guarantees
determinism and reports what happened in :class:`RecoveryStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dynamic.fully_dynamic import FullyDynamicMatching, OracleFactory
from repro.graph.dynamic_graph import Update
from repro.instrumentation.counters import Counters
from repro.resilience.checkpoint import MaintainerCheckpoint
from repro.resilience.faults import FaultPlan


@dataclass
class RecoveryStats:
    """What the chaos driver observed during one run."""

    crashes: int = 0
    restores: int = 0
    checkpoints: int = 0
    replayed_updates: int = 0
    #: wall time spent capturing + persisting snapshots, in nanoseconds
    #: (reported as ``chaos_checkpoint_overhead_s``)
    checkpoint_ns: int = 0
    #: per-crash update index, for debugging chaotic runs
    crash_positions: List[int] = field(default_factory=list)

    def as_counters(self) -> Dict[str, float]:
        return {"chaos_crashes": float(self.crashes),
                "chaos_restores": float(self.restores),
                "chaos_checkpoints": float(self.checkpoints),
                "chaos_replayed_updates": float(self.replayed_updates),
                "chaos_checkpoint_overhead_s": self.checkpoint_ns / 1e9}


def run_with_recovery(alg: FullyDynamicMatching,
                      updates,
                      plan: Optional[FaultPlan] = None,
                      checkpoint_every: int = 0,
                      checkpoint_path=None,
                      oracle_factory: Optional[OracleFactory] = None,
                      recorder=None,
                      ) -> Tuple[FullyDynamicMatching, RecoveryStats]:
    """Drive ``alg`` over ``updates`` with crash injection and recovery.

    Parameters
    ----------
    alg:
        A freshly constructed maintainer (zero updates applied); the zeroth
        checkpoint -- the empty prefix -- is captured from it before any
        update runs, so a crash on the very first update is recoverable.
    updates:
        The workload: a :class:`~repro.workloads.trace.Trace`, an
        :class:`~repro.workloads.streams.UpdateStream`, or any iterable of
        :class:`Update`.  It is materialized once (recovery must be able to
        replay an arbitrary suffix).
    plan:
        Fault schedule; ``plan.crashes_update(i, attempt)`` is consulted
        before applying update ``i``, where ``attempt`` counts crashes
        already injected at that index (bounded by the plan, so the run
        always terminates).  ``None`` disables injection.
    checkpoint_every:
        Snapshot period in updates (0 = only the zeroth checkpoint).
    checkpoint_path:
        When given, every snapshot is written there (``.npz`` is appended
        when missing) and recovery reloads it from disk -- the measured
        recovery latency then includes the full ``.npz`` round-trip, and the
        path exercises the versioned loader.
    oracle_factory:
        Must match the factory ``alg`` was built with (restores construct a
        fresh maintainer); ``None`` for the default greedy oracle.
    recorder:
        Optional :class:`repro.bench.latency.LatencyRecorder`; each
        *recovery* (checkpoint load + state reconstruction, not the replay)
        is measured through it.

    Returns the surviving maintainer and the :class:`RecoveryStats`; the
    time spent inside snapshotting (capture plus the optional disk write) is
    accumulated in ``stats.checkpoint_ns``.
    """
    if checkpoint_every < 0:
        raise ValueError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}")
    stream = updates.stream() if hasattr(updates, "stream") else updates
    workload: List[Update] = list(stream)
    counters: Counters = alg.counters
    stats = RecoveryStats()
    # the file save() actually wrote: NumPy appends ``.npz`` when missing
    saved_path: Optional[str] = None

    def take_checkpoint(position: int) -> MaintainerCheckpoint:
        nonlocal saved_path
        start = time.perf_counter_ns()
        snapshot = MaintainerCheckpoint.capture(alg, position)
        if checkpoint_path is not None:
            saved_path = snapshot.save(checkpoint_path)
        stats.checkpoint_ns += time.perf_counter_ns() - start
        stats.checkpoints += 1
        return snapshot

    def recover() -> FullyDynamicMatching:
        source = (MaintainerCheckpoint.load(saved_path)
                  if saved_path is not None else latest)
        return source.restore(oracle_factory=oracle_factory,
                              counters=counters)

    latest = take_checkpoint(0)
    crash_counts: Dict[int, int] = {}
    index = 0
    while index < len(workload):
        if plan is not None and plan.crashes_update(
                index, crash_counts.get(index, 0)):
            crash_counts[index] = crash_counts.get(index, 0) + 1
            stats.crashes += 1
            stats.crash_positions.append(index)
            # the live maintainer is gone: drop it before its successor is
            # built, then restore and replay the suffix
            del alg
            alg = (recorder.measure(recover) if recorder is not None
                   else recover())
            stats.restores += 1
            stats.replayed_updates += index - latest.position
            index = latest.position
            continue
        alg.update(workload[index])
        index += 1
        if checkpoint_every and index % checkpoint_every == 0:
            latest = take_checkpoint(index)
    return alg, stats
