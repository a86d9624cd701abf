"""Table 2 (chaos row): crash/recovery resilience of the dynamic maintainer.

The other Table 2 rows measure the maintainer's *cost*; this row measures
whether those numbers survive the maintainer being killed.  A planted-
matching churn workload is recorded to a :class:`~repro.workloads.trace.Trace`
and replayed twice on the same seed:

* **fault-free**: every update applied in order -- the reference end state;
* **chaos**: :func:`~repro.resilience.harness.run_with_recovery` drives the
  same trace under a :class:`~repro.resilience.faults.FaultPlan` that kills
  the maintainer at two pinned positions (one third and two thirds through
  the workload) plus a seeded background crash rate.  Recovery restores the
  latest periodic checkpoint through a full ``.npz`` disk round-trip and
  replays the suffix.

Because checkpoints capture every RNG substream, the packed matching/graph
state and the counters bag, the chaos run must land on the *byte-identical*
end state: same mates, same counters, same epoch schedule.  The scenario
asserts that equality (a divergence fails the run, it is not a data point)
and reports ``end_state_equal`` alongside the chaos bookkeeping.

Reported: the ``latency`` record section {p50, p99, max, count} (seconds)
of *recovery* -- checkpoint load plus state reconstruction, not the replay
-- which is the committed baseline the smoke gate regresses against, plus
``chaos_crashes`` / ``chaos_restores`` / ``chaos_checkpoints`` /
``chaos_replayed_updates`` and the workload size.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

from repro.bench import LatencyRecorder, register
from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.instrumentation.counters import Counters
from repro.resilience import FaultPlan
from repro.resilience.harness import run_with_recovery
from repro.workloads.sources import planted_matching_churn
from repro.workloads.trace import Trace

from _common import scenario_main

#: workload size, snapshot period, and background crash rate per mode
FULL = {"pairs": 200, "rounds": 3, "checkpoint_every": 80,
        "crash_rate": 0.005}
SMOKE = {"pairs": 64, "rounds": 2, "checkpoint_every": 40,
         "crash_rate": 0.01}


def _build(n: int, eps: float, profile: ParameterProfile, seed: int,
           counters: Counters) -> FullyDynamicMatching:
    return FullyDynamicMatching(n, eps, profile=profile, counters=counters,
                                seed=seed)


def _run_chaos(cfg: dict, eps: float, seed: int, counters: Counters):
    """Record the trace, run fault-free and chaotic replays, compare."""
    profile = dataclasses.replace(ParameterProfile.practical(eps),
                                  repair="incremental")
    trace = Trace.record(planted_matching_churn(cfg["pairs"],
                                                rounds=cfg["rounds"],
                                                seed=seed))

    baseline = Counters()
    reference = _build(trace.n, eps, profile, seed, baseline)
    for upd in trace.stream():
        reference.update(upd)

    survivor = _build(trace.n, eps, profile, seed, counters)
    plan = FaultPlan(seed=seed, update_crash_rate=cfg["crash_rate"],
                     crash_updates=(len(trace) // 3, 2 * len(trace) // 3))
    recorder = LatencyRecorder()
    with tempfile.TemporaryDirectory() as tmp:
        # a real path: every restore pays the full .npz disk round-trip and
        # exercises the versioned checkpoint loader
        survivor, stats = run_with_recovery(
            survivor, trace, plan=plan,
            checkpoint_every=cfg["checkpoint_every"],
            checkpoint_path=os.path.join(tmp, "checkpoint.npz"),
            recorder=recorder)

    ref_matching = reference.current_matching()
    got_matching = survivor.current_matching()
    mates_equal = ([ref_matching.mate(v) for v in range(trace.n)]
                   == [got_matching.mate(v) for v in range(trace.n)])
    counters_equal = baseline.as_dict() == counters.as_dict()
    return trace, stats, recorder, mates_equal, counters_equal


@register("table2_chaos", suite="table2",
          description="crash/recovery drill for the dynamic maintainer: "
                      "replay a recorded churn trace under injected crashes "
                      "with periodic on-disk checkpoints, assert the "
                      "recovered end state is byte-identical to the "
                      "fault-free run, and report recovery latency")
def _table2_chaos_scenario(spec, counters):
    cfg = SMOKE if spec.smoke else FULL
    trace, stats, recorder, mates_equal, counters_equal = _run_chaos(
        cfg, spec.resolved_eps(), spec.seed, counters)

    # equality is the whole point of the drill: a divergent end state is a
    # scenario failure, not a measurement
    assert mates_equal, "chaos run diverged from fault-free run in mates"
    assert counters_equal, "chaos run diverged from fault-free run in counters"
    assert stats.crashes >= 2, "fault plan injected no pinned crashes"

    return {
        "latency": recorder.summary(),
        **stats.as_counters(),
        "end_state_equal": 1.0,
        "workload_updates": float(len(trace)),
    }


def test_table2_chaos(benchmark):
    """Time one smoke chaos drill (record/crash/recover/verify) for pytest."""

    def run():
        _, stats, _, mates_equal, counters_equal = _run_chaos(
            SMOKE, 0.25, seed=0, counters=Counters())
        assert mates_equal and counters_equal
        return stats.crashes

    benchmark(run)


def main(argv=None) -> int:
    return scenario_main("table2_chaos", argv)


if __name__ == "__main__":
    raise SystemExit(main())
