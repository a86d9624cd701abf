"""Table 2 (latency row): per-update latency of the dynamic maintainer.

``table2_dynamic`` reports *amortized* update work -- the quantity Theorem
7.1 bounds -- but a dynamic data structure's operational story is the
latency *distribution*: almost every update is an O(1) patch, and the tail
is the periodic epoch rebuild.  This scenario pins that tail on a
100k-vertex churn workload (10k in smoke mode) and measures the incremental
epoch-repair path (``profile.repair="incremental"``, see
``repro.core.repair``) against the warm-start rebuild path it replaces, on
the identical update sequence and seed.

Workload: a perfect planted matching is loaded edge by edge (the
opportunistic insert rule matches each pair on arrival), one untimed cold
rebuild establishes the epoch schedule, then the timed phase repeatedly
deletes a random matched pair-edge and reinserts it.  The rebuild gap is
pinned to an even number of updates so epoch boundaries land on reinsert
updates (matching perfect again); rebuild-path epochs then pay the full
warm-start overhead -- per-phase O(n) state allocation, the O(n) free-vertex
scan, ``restricted_to`` and the matching copy -- while the incremental path
pays only for what the updates dirtied.  Both paths execute byte-identical
algorithms (asserted at the end of the run).

Reported: the ``latency`` record section {p50, p99, max, count} (seconds)
for the incremental path -- the committed baseline the smoke gate regresses
against -- plus the rebuild path's percentiles and the p99 speedup as plain
counters.
"""

from __future__ import annotations

import dataclasses
import random

from repro.bench import LatencyRecorder, register
from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.graph.dynamic_graph import Update
from repro.instrumentation.counters import Counters

from _common import scenario_main

#: timed churn updates and the (even) rebuild gap per mode
FULL = {"pairs": 50_000, "timed": 2_000, "gap": 24}
SMOKE = {"pairs": 5_000, "timed": 400, "gap": 12}


def _churn_sequence(pairs: int, timed: int, seed: int):
    """Deterministic delete/reinsert pairs over the planted matching."""
    rng = random.Random(seed)
    updates = []
    for _ in range(timed // 2):
        i = rng.randrange(pairs)
        updates.append(Update.delete(2 * i, 2 * i + 1))
        updates.append(Update.insert(2 * i, 2 * i + 1))
    return updates


def _run_mode(profile: ParameterProfile, cfg: dict, seed: int,
              counters: Counters):
    """Load the planted matching, pin the epoch schedule, time the churn."""
    pairs, timed, gap = cfg["pairs"], cfg["timed"], cfg["gap"]
    n = 2 * pairs
    eps = profile.eps
    # load phase: huge slack so no rebuild fires while the matching fills up
    alg = FullyDynamicMatching(n, eps, profile=profile, counters=counters,
                               seed=seed, rebuild_slack=1e9)
    for i in range(pairs):
        alg.insert(2 * i, 2 * i + 1)
    assert alg.current_matching().size == pairs, "load phase must match all"
    # pin the rebuild threshold to exactly `gap` updates (int() truncation of
    # (gap + 0.5) at size == pairs), then take the cold rebuild untimed
    alg.rebuild_slack = (gap + 0.5) / (eps * pairs)
    alg.rebuild()

    recorder = LatencyRecorder()
    for upd in _churn_sequence(pairs, timed, seed):
        recorder.measure(lambda u=upd: alg.update(u))
    return alg, recorder


@register("table2_latency", suite="table2",
          description="per-update latency distribution (p50/p99/max) of the "
                      "dynamic maintainer on a planted-matching churn "
                      "workload: incremental epoch repair vs the warm-start "
                      "rebuild path on the identical update sequence")
def _table2_latency_scenario(spec, counters):
    cfg = SMOKE if spec.smoke else FULL
    eps = spec.resolved_eps()
    rebuild_profile = ParameterProfile.practical(eps)
    incremental_profile = dataclasses.replace(rebuild_profile,
                                              repair="incremental")

    baseline = Counters()
    reb_alg, reb_rec = _run_mode(rebuild_profile, cfg, spec.seed, baseline)
    inc_alg, inc_rec = _run_mode(incremental_profile, cfg, spec.seed,
                                 counters)

    # the two repair modes are pinned byte-identical (see the repair parity
    # suite); a cheap end-state check keeps this scenario honest about it
    n = reb_alg.current_matching().n
    assert ([reb_alg.current_matching().mate(v) for v in range(n)]
            == [inc_alg.current_matching().mate(v) for v in range(n)]), \
        "repair modes diverged on the churn workload"
    assert baseline.as_dict() == counters.as_dict(), \
        "repair modes diverged in counters"

    inc = inc_rec.summary()
    reb = reb_rec.summary()
    return {
        "latency": inc,
        "rebuild_p50_s": reb["p50"],
        "rebuild_p99_s": reb["p99"],
        "rebuild_max_s": reb["max"],
        "p99_speedup_vs_rebuild": reb["p99"] / max(inc["p99"], 1e-12),
        "timed_rebuilds": cfg["timed"] // cfg["gap"],
    }


def test_table2_latency(benchmark):
    """Time the incremental maintainer's smoke churn once for pytest-benchmark."""
    cfg = SMOKE
    profile = dataclasses.replace(ParameterProfile.practical(0.25),
                                  repair="incremental")

    def run():
        _, recorder = _run_mode(profile, cfg, seed=0, counters=Counters())
        return recorder.summary()["p99"]

    benchmark(run)


def main(argv=None) -> int:
    return scenario_main("table2_latency", argv)


if __name__ == "__main__":
    raise SystemExit(main())
