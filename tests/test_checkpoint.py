"""Checkpoint/resume tests for the dynamic maintainer.

The contract under test: a maintainer restored from a
:class:`~repro.resilience.checkpoint.MaintainerCheckpoint` and replayed over
the remaining updates is *byte-identical* to one that never crashed -- same
mates, same counters, same RNG substreams, same epoch/rebuild schedule.
That parity is pinned across the full configuration matrix (phase engines x
repair modes), through full ``.npz`` disk round-trips,
and at the awkward positions: the zeroth checkpoint, a checkpoint on a
rebuild boundary, and a crash on the final update.  Loader hardening
(truncated, corrupt, wrong-version, non-checkpoint files) raises the typed
:class:`CheckpointError`.
"""

import copy
import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest

from repro.core.config import ParameterProfile
from repro.dynamic.fully_dynamic import FullyDynamicMatching
from repro.dynamic.weak_oracles import GreedyInducedWeakOracle
from repro.instrumentation.counters import Counters
from repro.resilience import FaultPlan
from repro.resilience.checkpoint import (
    _REQUIRED_KEYS,
    CHECKPOINT_VERSION,
    CheckpointError,
    MaintainerCheckpoint,
)
from repro.resilience.harness import RecoveryStats, run_with_recovery
from repro.workloads.sources import planted_matching_churn
from repro.workloads.trace import Trace

EPS = 0.25


def _profile(engine, repair):
    return dataclasses.replace(ParameterProfile.practical(EPS),
                               engine=engine, repair=repair)


def _workload(pairs=24, rounds=2, seed=0):
    return Trace.record(planted_matching_churn(pairs, rounds=rounds,
                                               seed=seed))


def _maintainer(trace, profile, counters, seed=0):
    return FullyDynamicMatching(trace.n, EPS, profile=profile,
                                counters=counters, seed=seed)


def _end_state(alg):
    """The full comparable state: mates + counters + RNGs + schedule."""
    return alg.checkpoint_state()


def _run_fault_free(trace, profile):
    alg = _maintainer(trace, profile, Counters())
    for upd in trace.stream():
        alg.update(upd)
    return alg


# ------------------------------------------------------------ parity matrix
@pytest.mark.parametrize("engine", ["array", "reference"])
@pytest.mark.parametrize("repair", ["rebuild", "incremental"])
def test_resume_parity_across_configurations(engine, repair, tmp_path):
    """Crash + restore-from-disk + replay lands byte-identical end state."""
    trace = _workload()
    profile = _profile(engine, repair)
    reference = _run_fault_free(trace, profile)

    chaotic = _maintainer(trace, profile, Counters())
    plan = FaultPlan(seed=11, update_crash_rate=0.03,
                     crash_updates=(len(trace) // 2,))
    survivor, stats = run_with_recovery(
        chaotic, trace, plan=plan, checkpoint_every=10,
        checkpoint_path=str(tmp_path / "ckpt.npz"))
    assert stats.crashes >= 1
    assert _end_state(survivor) == _end_state(reference)
    if repair == "incremental":
        # the restore seeded the context's views from the checkpoint's edges
        survivor.repair_context.verify_views()
        survivor.repair_context.verify_baseline()


def test_in_memory_and_disk_restores_agree(tmp_path):
    trace = _workload()
    profile = _profile("array", "incremental")
    plan = FaultPlan(seed=2, crash_updates=(7, len(trace) // 2))

    in_memory, _ = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace, plan=plan,
        checkpoint_every=5)
    # a path without the suffix: save() appends ``.npz``, and recovery must
    # reload the file save() actually wrote
    for name in ("c.npz", "bare"):
        on_disk, _ = run_with_recovery(
            _maintainer(trace, profile, Counters()), trace,
            plan=plan, checkpoint_every=5,
            checkpoint_path=str(tmp_path / name))
        assert _end_state(on_disk) == _end_state(in_memory), name


# ------------------------------------------------------------- edge cases
def test_resume_from_zeroth_checkpoint_replays_everything(tmp_path):
    """A crash before any periodic snapshot restores the empty prefix."""
    trace = _workload()
    profile = _profile("array", "incremental")
    reference = _run_fault_free(trace, profile)

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(0,)), checkpoint_every=0,
        checkpoint_path=str(tmp_path / "c.npz"))
    assert stats.crashes == 1 and stats.restores == 1
    assert stats.replayed_updates == 0  # crash at 0: nothing to replay yet
    assert _end_state(survivor) == _end_state(reference)


def test_crash_on_final_update_recovers(tmp_path):
    trace = _workload()
    profile = _profile("array", "rebuild")
    reference = _run_fault_free(trace, profile)

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(len(trace) - 1,)),
        checkpoint_every=16, checkpoint_path=str(tmp_path / "c.npz"))
    assert stats.crashes == 1
    assert _end_state(survivor) == _end_state(reference)


def test_checkpoint_every_update_hits_rebuild_boundaries(tmp_path):
    """checkpoint_every=1 snapshots on every boundary the schedule has --
    including immediately after epoch rebuilds -- and parity must hold when
    restores land exactly there."""
    trace = _workload(pairs=16, rounds=2)
    profile = _profile("array", "incremental")
    reference = _run_fault_free(trace, profile)

    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace,
        plan=FaultPlan(seed=5, update_crash_rate=0.08),
        checkpoint_every=1, checkpoint_path=str(tmp_path / "c.npz"))
    # every crash restores the immediately preceding update's snapshot
    assert stats.replayed_updates == 0
    assert _end_state(survivor) == _end_state(reference)


def test_stats_bookkeeping_and_counter_projection():
    trace = _workload(pairs=16, rounds=1)
    profile = _profile("array", "rebuild")
    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace,
        plan=FaultPlan(seed=0, crash_updates=(3, 9)), checkpoint_every=4)
    assert stats.crashes == 2
    assert stats.crash_positions == [3, 9]
    assert stats.checkpoints >= 1 + len(trace) // 4
    projected = stats.as_counters()
    assert projected["chaos_crashes"] == 2.0
    assert projected["chaos_restores"] == float(stats.restores)


def test_recovery_frees_the_maintainer_it_replaces():
    """With the collector off, the maintainer restored at the first crash
    is freed by the time the second recovery returns: the harness drops a
    crashed maintainer before building its successor, and a maintainer
    holds no reference cycle (its repair context included)."""
    trace = _workload()
    oracles, contexts, freed = [], [], []

    def factory(graph):
        oracle = GreedyInducedWeakOracle(graph, seed=0)
        oracles.append(weakref.ref(oracle))
        return oracle

    class Recorder:
        @staticmethod
        def measure(fn):
            restored = fn()
            contexts.append(weakref.ref(restored.repair_context))
            freed.append(([ref() is None for ref in oracles],
                          [ref() is None for ref in contexts]))
            return restored

    gc.disable()
    try:
        alg = FullyDynamicMatching(
            trace.n, EPS, oracle_factory=factory,
            profile=_profile("array", "incremental"), counters=Counters(),
            seed=0)
        _, stats = run_with_recovery(
            alg, trace, plan=FaultPlan(seed=2, crash_updates=(7, 30)),
            checkpoint_every=5, oracle_factory=factory, recorder=Recorder())
    finally:
        gc.enable()
    assert stats.crashes == 2
    # this test still holds the first maintainer (oracle 0); the one
    # restored at the first crash (oracle 1, context 0) is gone
    assert freed == [([False, False], [False]),
                     ([False, True, False], [True, False])]


def test_run_with_recovery_rejects_negative_period():
    trace = _workload(pairs=4, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), Counters())
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_with_recovery(alg, trace, checkpoint_every=-1)


def test_recovery_stats_default_clean_run():
    trace = _workload(pairs=8, rounds=1)
    profile = _profile("array", "rebuild")
    reference = _run_fault_free(trace, profile)
    survivor, stats = run_with_recovery(
        _maintainer(trace, profile, Counters()), trace)
    # the timing field is nondeterministic; zero it out
    comparable = dataclasses.replace(stats, checkpoint_ns=0)
    assert comparable == RecoveryStats(crashes=0, restores=0, checkpoints=1,
                                       replayed_updates=0, crash_positions=[])
    assert stats.checkpoint_ns > 0
    assert _end_state(survivor) == _end_state(reference)


# ----------------------------------------------------------- capture/restore
def test_capture_rejects_negative_position():
    trace = _workload(pairs=4, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), Counters())
    with pytest.raises(ValueError, match="position"):
        MaintainerCheckpoint.capture(alg, -1)


def test_snapshot_is_isolated_from_live_maintainer():
    trace = _workload(pairs=8, rounds=1)
    updates = trace.updates()
    alg = _maintainer(trace, _profile("array", "rebuild"), Counters())
    for upd in updates[: len(updates) // 2]:
        alg.update(upd)
    snapshot = MaintainerCheckpoint.capture(alg, len(updates) // 2)
    frozen = copy.deepcopy(snapshot.state)
    for upd in updates[len(updates) // 2:]:
        alg.update(upd)
    # the live maintainer moved on; the snapshot must not have
    assert snapshot.state == frozen
    assert snapshot.state != alg.checkpoint_state()


@pytest.mark.parametrize("engine", ["array", "reference"])
@pytest.mark.parametrize("repair", ["rebuild", "incremental"])
def test_edge_section_is_two_sorted_int_columns(engine, repair):
    """``edge_u``/``edge_v`` are plain int lists of the key-sorted live
    edges, and stay so while the maintainer moves on."""
    updates = _workload().updates()
    alg = _maintainer(_workload(), _profile(engine, repair), Counters())
    for upd in updates[: len(updates) // 2]:
        alg.update(upd)
    state = alg.checkpoint_state()
    live = sorted(alg.graph.edge_list())
    assert live and "edges" not in state
    assert state["edge_u"] == [u for u, _ in live]
    assert state["edge_v"] == [v for _, v in live]
    assert {type(x) for x in state["edge_u"] + state["edge_v"]} == {int}
    frozen = copy.deepcopy(state)
    for upd in updates[len(updates) // 2:]:
        alg.update(upd)
    assert state == frozen


# ------------------------------------------------------------ loader errors
def _saved_checkpoint(tmp_path):
    trace = _workload(pairs=8, rounds=1)
    alg = _maintainer(trace, _profile("array", "rebuild"), Counters())
    for upd in trace.stream():
        alg.update(upd)
    snapshot = MaintainerCheckpoint.capture(alg, len(trace))
    return snapshot, snapshot.save(str(tmp_path / "good.npz"))


def test_save_load_round_trip(tmp_path):
    snapshot, path = _saved_checkpoint(tmp_path)
    loaded = MaintainerCheckpoint.load(path)
    assert loaded.position == snapshot.position
    assert loaded.state == snapshot.state


def test_saved_members_are_the_required_keys(tmp_path):
    _, path = _saved_checkpoint(tmp_path)
    with np.load(path) as payload:
        assert set(payload.files) == _REQUIRED_KEYS


def test_load_missing_file_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        MaintainerCheckpoint.load(str(tmp_path / "absent.npz"))


def test_load_truncated_file_raises_typed_error(tmp_path):
    _, path = _saved_checkpoint(tmp_path)
    blob = open(path, "rb").read()
    bad = str(tmp_path / "truncated.npz")
    with open(bad, "wb") as handle:
        handle.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError) as excinfo:
        MaintainerCheckpoint.load(bad)
    assert excinfo.value.path == bad
    assert "corrupt" in str(excinfo.value)


def test_load_garbage_bytes_raises_typed_error(tmp_path):
    bad = str(tmp_path / "garbage.npz")
    with open(bad, "wb") as handle:
        handle.write(b"this is not a zip archive at all")
    with pytest.raises(CheckpointError):
        MaintainerCheckpoint.load(bad)


def test_load_non_checkpoint_npz_raises_typed_error(tmp_path):
    bad = str(tmp_path / "other.npz")
    np.savez(bad, foo=np.zeros(3))
    with pytest.raises(CheckpointError, match="missing keys"):
        MaintainerCheckpoint.load(bad)


def test_load_wrong_kind_raises_typed_error(tmp_path):
    # a Trace file has real content but the wrong shape entirely
    trace_path = Trace.record(
        planted_matching_churn(4, rounds=1, seed=0)).save(
        str(os.path.join(tmp_path, "trace.npz")))
    with pytest.raises(CheckpointError, match="missing keys"):
        MaintainerCheckpoint.load(trace_path)


def test_load_version_skew_reports_both_versions(tmp_path):
    _, path = _saved_checkpoint(tmp_path)
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    arrays["version"] = np.int64(CHECKPOINT_VERSION + 41)
    skewed = str(tmp_path / "skewed.npz")
    np.savez(skewed, **arrays)
    with pytest.raises(CheckpointError) as excinfo:
        MaintainerCheckpoint.load(skewed)
    err = excinfo.value
    assert err.expected_version == CHECKPOINT_VERSION
    assert err.found_version == CHECKPOINT_VERSION + 41
    assert err.path == skewed
    assert "version" in str(err)


def _path_checkpoint(tmp_path):
    """A saved 10-vertex path with its perfect matching (0,1), ..., (8,9)."""
    alg = FullyDynamicMatching(10, EPS, profile=_profile("array", "rebuild"),
                               counters=Counters(), seed=0)
    for u in range(9):
        alg.insert(u, u + 1)
    assert alg.current_matching().edge_list() == [
        (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    path = MaintainerCheckpoint.capture(alg, 9).save(
        str(tmp_path / "path.npz"))
    with np.load(path) as payload:
        return {name: payload[name] for name in payload.files}


def _one_sided(a):
    a["mate"][1] = -1


def _non_edge_pair(a):
    # match 0 with 9 (no such edge), freeing their old mates 1 and 8
    a["mate"][[0, 9, 1, 8]] = [9, 0, -1, -1]


_CORRUPTIONS = {
    "edge_v-shorter": (lambda a: a.update(edge_v=a["edge_v"][:-2]),
                       "equal length"),
    "float-edges": (lambda a: a.update(edge_u=a["edge_u"] + 0.0),
                    "edge_u is not a 1-D integer array"),
    "2-d-mate": (lambda a: a.update(mate=a["mate"].reshape(2, 5)),
                 "mate is not a 1-D integer array"),
    "edge-out-of-range": (lambda a: a["edge_v"].__setitem__(-1, 10),
                          "out of range"),
    "negative-endpoint": (lambda a: a["edge_u"].__setitem__(0, -1),
                          "out of range"),
    "non-canonical-edge": (lambda a: a.update(edge_u=a["edge_v"].copy(),
                                              edge_v=a["edge_u"].copy()),
                           "not canonical"),
    "unsorted-edges": (lambda a: a.update(edge_u=a["edge_u"][::-1].copy(),
                                          edge_v=a["edge_v"][::-1].copy()),
                       "increasing key order"),
    "duplicate-edge": (lambda a: a.update(
        edge_u=np.append(a["edge_u"], a["edge_u"][-1]),
        edge_v=np.append(a["edge_v"], a["edge_v"][-1])),
        "increasing key order"),
    "mate-shorter": (lambda a: a.update(mate=a["mate"][:5]), "shape"),
    "mate-longer": (lambda a: a.update(mate=np.append(a["mate"], -1)),
                    "shape"),
    "mate-out-of-range": (lambda a: a["mate"].__setitem__(3, 10),
                          "out of range"),
    "self-matched": (lambda a: a["mate"].__setitem__(0, 0),
                     "matched to itself"),
    "one-sided-mate": (_one_sided, "not symmetric"),
    "pair-not-an-edge": (_non_edge_pair, "not an edge"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_load_rejects_inconsistent_graph_sections(tmp_path, corruption):
    """Edge and mate sections that are not a graph plus a matching of it,
    in capture order, fail at load with the typed error, never at (or
    silently through) restore."""
    arrays = _path_checkpoint(tmp_path)
    corrupt, reason = _CORRUPTIONS[corruption]
    corrupt(arrays)
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, **arrays)
    with pytest.raises(CheckpointError, match=reason) as excinfo:
        MaintainerCheckpoint.load(bad)
    assert excinfo.value.path == bad
