"""Versioned on-disk checkpoints for the dynamic maintainers.

A :class:`MaintainerCheckpoint` pairs a trace *position* (how many updates of
the workload have been applied) with the maintainer state dict produced by
:meth:`FullyDynamicMatching.checkpoint_state`, and round-trips the pair
through a NumPy ``.npz`` container -- the same packed-int64-columns machinery
:class:`repro.workloads.trace.Trace` uses, extended with the RNG substream
states (``random.Random.getstate()`` packed as an int64 vector plus a
gauss-carry float pair).

The format is versioned (:data:`CHECKPOINT_VERSION`) and every load failure
-- missing keys, wrong magic, version skew, a truncated or corrupt container,
edge and mate arrays that do not describe a graph and a matching in it --
surfaces as :class:`CheckpointError` carrying the path and, for version
skew, the expected vs found version.  Nothing in this module swallows a
load error into a half-restored maintainer.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.dynamic.fully_dynamic import FullyDynamicMatching, OracleFactory
from repro.graph.backends import canonical_edges_error, edge_endpoint_arrays
from repro.instrumentation.counters import Counters
from repro.matching.matching import mate_array_error

#: on-disk format version; v3 dropped the ``backend`` member (v2 had dropped
#: the profile's ``backend`` field), so an older file fails
#: :meth:`MaintainerCheckpoint.load` with the typed version error instead of
#: failing at restore
CHECKPOINT_VERSION = 3

#: magic string distinguishing checkpoints from other ``.npz`` payloads
_KIND = "repro-maintainer-checkpoint"

#: the retired delta writer's name, kept as ``None``: the repo benchmark's
#: tracer (``perfbench/layers.py``) still lists ``DeltaCheckpointWriter``
#: methods as targets and looks the class up before its methods, so the name
#: must resolve for a traced run to record them as not found instead of
#: aborting
DeltaCheckpointWriter = None

_REQUIRED_KEYS = frozenset({
    "version", "kind", "position", "n", "eps", "has_seed", "seed",
    "profile_json", "counters_json", "rebuild_slack", "min_rebuild_gap",
    "updates_since_rebuild", "size_at_rebuild", "num_updates",
    "max_edges_seen", "edge_u", "edge_v", "mate", "rng_main", "rng_main_g",
    "rng_framework", "rng_framework_g", "rng_oracle", "rng_oracle_g",
})


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, corrupt, or version-mismatched."""

    def __init__(self, path, reason: str,
                 expected_version: Optional[int] = None,
                 found_version: Optional[int] = None) -> None:
        detail = f"{path}: {reason}"
        if expected_version is not None:
            detail += (f" (this build reads v{expected_version}, "
                       f"file is v{found_version})")
        super().__init__(detail)
        self.path = str(path)
        self.expected_version = expected_version
        self.found_version = found_version


def _pack_rng(state):
    """``random.Random.getstate()`` -> (int64 vector, gauss float pair)."""
    version, internal, gauss = state
    words = np.array([version, *internal], dtype=np.int64)
    carry = (np.array([0.0, 0.0]) if gauss is None
             else np.array([1.0, float(gauss)]))
    return words, carry


def _unpack_rng(words, carry):
    version = int(words[0])
    internal = tuple(words[1:].tolist())
    gauss = None if float(carry[0]) == 0.0 else float(carry[1])
    return (version, internal, gauss)


def _graph_error(n: int, edge_u, edge_v, mate) -> Optional[str]:
    """Why the edge and mate sections are not a graph on ``n`` vertices in
    capture order plus a matching of it, or ``None``."""
    for name, arr in (("edge_u", edge_u), ("edge_v", edge_v), ("mate", mate)):
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            return f"{name} is not a 1-D integer array"
    edge_u = edge_u.astype(np.int64, copy=False)
    edge_v = edge_v.astype(np.int64, copy=False)
    mate = mate.astype(np.int64, copy=False)
    problem = (canonical_edges_error(edge_u, edge_v, n)
               or mate_array_error(mate, n))
    if problem is not None:
        return problem
    lo = np.flatnonzero(mate > np.arange(n))
    if not np.isin(lo * n + mate[lo], edge_u * n + edge_v,
                   assume_unique=True).all():
        return "a matched pair is not an edge"
    return None


@dataclass
class MaintainerCheckpoint:
    """A trace position plus everything needed to resume at it."""

    position: int
    state: Dict[str, object]

    # --------------------------------------------------------------- capture
    @staticmethod
    def capture(alg: FullyDynamicMatching,
                position: int) -> "MaintainerCheckpoint":
        """Snapshot ``alg`` after ``position`` workload updates.

        ``checkpoint_state`` builds fresh containers, so the snapshot stays
        valid while the live maintainer keeps mutating.
        """
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        return MaintainerCheckpoint(position=int(position),
                                    state=alg.checkpoint_state())

    def restore(self, oracle_factory: Optional[OracleFactory] = None,
                counters: Optional[Counters] = None) -> FullyDynamicMatching:
        """A maintainer byte-identical to the captured one (see
        :meth:`FullyDynamicMatching.from_checkpoint_state`)."""
        return FullyDynamicMatching.from_checkpoint_state(
            self.state, oracle_factory=oracle_factory, counters=counters)

    # --------------------------------------------------------------- on disk
    def save(self, path) -> str:
        """Write the checkpoint to ``path`` (``.npz`` is appended when
        missing); returns the path actually written."""
        state = self.state
        edge_u, edge_v = edge_endpoint_arrays(state["edges"])
        rng_main, rng_main_g = _pack_rng(state["rng"])
        rng_fw, rng_fw_g = _pack_rng(state["framework_rng"])
        if state["oracle_rng"] is None:
            rng_oracle = np.zeros(0, dtype=np.int64)
            rng_oracle_g = np.array([0.0, 0.0])
        else:
            rng_oracle, rng_oracle_g = _pack_rng(state["oracle_rng"])
        seed = state["seed"]
        path = str(path)
        if not path.endswith(".npz"):
            path += ".npz"
        # build the container in memory and write it in one call: np.savez
        # on a file seeks back to patch every member's header, which costs
        # more than encoding a checkpoint's two dozen small members
        buffer = io.BytesIO()
        np.savez(
            buffer,
            version=np.int64(CHECKPOINT_VERSION),
            kind=np.array(_KIND),
            position=np.int64(self.position),
            n=np.int64(state["n"]),
            eps=np.float64(state["eps"]),
            has_seed=np.int64(0 if seed is None else 1),
            seed=np.int64(0 if seed is None else seed),
            profile_json=np.array(json.dumps(state["profile"],
                                             sort_keys=True)),
            counters_json=np.array(json.dumps(state["counters"],
                                              sort_keys=True)),
            rebuild_slack=np.float64(state["rebuild_slack"]),
            min_rebuild_gap=np.int64(state["min_rebuild_gap"]),
            updates_since_rebuild=np.int64(state["updates_since_rebuild"]),
            size_at_rebuild=np.int64(state["size_at_rebuild"]),
            num_updates=np.int64(state["num_updates"]),
            max_edges_seen=np.int64(state["max_edges_seen"]),
            edge_u=np.ascontiguousarray(edge_u),
            edge_v=np.ascontiguousarray(edge_v),
            mate=np.array(state["mate"], dtype=np.int64),
            rng_main=rng_main, rng_main_g=rng_main_g,
            rng_framework=rng_fw, rng_framework_g=rng_fw_g,
            rng_oracle=rng_oracle, rng_oracle_g=rng_oracle_g,
        )
        with open(path, "wb") as handle:
            handle.write(buffer.getbuffer())
        return path

    @staticmethod
    def load(path) -> "MaintainerCheckpoint":
        """Read a checkpoint; every failure mode raises
        :class:`CheckpointError` (except a simply missing file, which stays
        a :class:`FileNotFoundError`).

        Besides the container and version checks, the edge and mate
        sections must be what :meth:`capture` writes: equal-length 1-D int
        edge arrays with ``0 <= u < v < n`` in strictly increasing
        ``u * n + v`` order, and a length-``n`` mate array describing a
        matching whose pairs are all edges.
        """
        try:
            with np.load(str(path)) as payload:
                missing = _REQUIRED_KEYS - set(payload.files)
                if missing:
                    raise CheckpointError(
                        path, "not a maintainer checkpoint "
                        f"(missing keys: {sorted(missing)})")
                if str(payload["kind"]) != _KIND:
                    raise CheckpointError(
                        path, f"not a maintainer checkpoint "
                        f"(kind={payload['kind']!r})")
                version = int(payload["version"])
                if version != CHECKPOINT_VERSION:
                    raise CheckpointError(
                        path, "checkpoint format version mismatch",
                        expected_version=CHECKPOINT_VERSION,
                        found_version=version)
                n = int(payload["n"])
                edge_u, edge_v = payload["edge_u"], payload["edge_v"]
                mate = payload["mate"]
                problem = _graph_error(n, edge_u, edge_v, mate)
                if problem is not None:
                    raise CheckpointError(path, problem)
                oracle_words = payload["rng_oracle"]
                state: Dict[str, object] = {
                    "n": n,
                    "eps": float(payload["eps"]),
                    "seed": (int(payload["seed"])
                             if int(payload["has_seed"]) else None),
                    "profile": json.loads(str(payload["profile_json"])),
                    "counters": json.loads(str(payload["counters_json"])),
                    "rebuild_slack": float(payload["rebuild_slack"]),
                    "min_rebuild_gap": int(payload["min_rebuild_gap"]),
                    "updates_since_rebuild":
                        int(payload["updates_since_rebuild"]),
                    "size_at_rebuild": int(payload["size_at_rebuild"]),
                    "num_updates": int(payload["num_updates"]),
                    "max_edges_seen": int(payload["max_edges_seen"]),
                    "edges": list(zip(edge_u.tolist(), edge_v.tolist())),
                    "mate": mate.tolist(),
                    "rng": _unpack_rng(payload["rng_main"],
                                       payload["rng_main_g"]),
                    "framework_rng": _unpack_rng(payload["rng_framework"],
                                                 payload["rng_framework_g"]),
                    "oracle_rng": (None if oracle_words.shape[0] == 0 else
                                   _unpack_rng(oracle_words,
                                               payload["rng_oracle_g"])),
                }
                return MaintainerCheckpoint(
                    position=int(payload["position"]), state=state)
        except CheckpointError:
            raise
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError,
                OSError) as exc:
            raise CheckpointError(
                path, f"corrupt checkpoint file "
                f"({type(exc).__name__}: {exc})") from exc

