"""Versioned on-disk checkpoints for the dynamic maintainers.

A :class:`MaintainerCheckpoint` pairs a trace *position* (how many updates of
the workload have been applied) with the maintainer state dict produced by
:meth:`FullyDynamicMatching.checkpoint_state`, and round-trips the pair
through a NumPy ``.npz`` container -- the same packed-int64-columns machinery
:class:`repro.workloads.trace.Trace` uses, extended with the RNG substream
states (``random.Random.getstate()`` packed as an int64 vector plus a
gauss-carry float pair).

The format is versioned (:data:`CHECKPOINT_VERSION`) and every load failure
-- missing keys, wrong magic, version skew, a truncated or corrupt container
-- surfaces as :class:`CheckpointError` carrying the path and, for version
skew, the expected vs found version.  Nothing in this module swallows a
load error into a half-restored maintainer.

Delta-aware snapshots
---------------------
A periodic checkpointer (the chaos harness takes one every ``k`` updates)
re-captures and re-encodes mostly unchanged state: the edge section only
moves with effective graph updates, the mate section only with matching
mutations, and the (large) RNG vectors only when a rebuild consumed
randomness.  :class:`DeltaCheckpointWriter` keeps the previous snapshot and
its encoded ``.npy`` buffers, consults
:meth:`FullyDynamicMatching.checkpoint_revisions`, and re-serializes only
the sections whose revision moved -- everything else is written back from
the cached buffer.  The file it produces is a plain checkpoint ``.npz``:
:meth:`MaintainerCheckpoint.load` cannot tell (and never needs to know)
whether a writer or a one-shot :meth:`MaintainerCheckpoint.save` wrote it.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.dynamic.fully_dynamic import FullyDynamicMatching, OracleFactory
from repro.instrumentation.counters import Counters

#: on-disk format version (bump only with a migration path)
CHECKPOINT_VERSION = 1

#: magic string distinguishing checkpoints from other ``.npz`` payloads
_KIND = "repro-maintainer-checkpoint"

_REQUIRED_KEYS = frozenset({
    "version", "kind", "position", "n", "eps", "has_seed", "seed", "backend",
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
    internal = tuple(int(w) for w in words[1:])
    gauss = None if float(carry[0]) == 0.0 else float(carry[1])
    return (version, internal, gauss)


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
        """Write the checkpoint to ``path`` (``.npz``); returns the path
        actually written (NumPy appends ``.npz`` when missing)."""
        state = self.state
        edges = state["edges"]
        edge_u = np.array([e[0] for e in edges], dtype=np.int64)
        edge_v = np.array([e[1] for e in edges], dtype=np.int64)
        rng_main, rng_main_g = _pack_rng(state["rng"])
        rng_fw, rng_fw_g = _pack_rng(state["framework_rng"])
        if state["oracle_rng"] is None:
            rng_oracle = np.zeros(0, dtype=np.int64)
            rng_oracle_g = np.array([0.0, 0.0])
        else:
            rng_oracle, rng_oracle_g = _pack_rng(state["oracle_rng"])
        seed = state["seed"]
        path = str(path)
        np.savez(
            path,
            version=np.int64(CHECKPOINT_VERSION),
            kind=np.array(_KIND),
            position=np.int64(self.position),
            n=np.int64(state["n"]),
            eps=np.float64(state["eps"]),
            has_seed=np.int64(0 if seed is None else 1),
            seed=np.int64(0 if seed is None else seed),
            backend=np.array(state["backend"]),
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
            edge_u=edge_u, edge_v=edge_v,
            mate=np.array(state["mate"], dtype=np.int64),
            rng_main=rng_main, rng_main_g=rng_main_g,
            rng_framework=rng_fw, rng_framework_g=rng_fw_g,
            rng_oracle=rng_oracle, rng_oracle_g=rng_oracle_g,
        )
        return path if path.endswith(".npz") else path + ".npz"

    @staticmethod
    def load(path) -> "MaintainerCheckpoint":
        """Read a checkpoint; every failure mode raises
        :class:`CheckpointError` (except a simply missing file, which stays
        a :class:`FileNotFoundError`)."""
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
                edges = [(int(u), int(v)) for u, v in
                         zip(payload["edge_u"], payload["edge_v"])]
                oracle_words = payload["rng_oracle"]
                state: Dict[str, object] = {
                    "n": int(payload["n"]),
                    "eps": float(payload["eps"]),
                    "seed": (int(payload["seed"])
                             if int(payload["has_seed"]) else None),
                    "backend": str(payload["backend"]),
                    "profile": json.loads(str(payload["profile_json"])),
                    "counters": json.loads(str(payload["counters_json"])),
                    "rebuild_slack": float(payload["rebuild_slack"]),
                    "min_rebuild_gap": int(payload["min_rebuild_gap"]),
                    "updates_since_rebuild":
                        int(payload["updates_since_rebuild"]),
                    "size_at_rebuild": int(payload["size_at_rebuild"]),
                    "num_updates": int(payload["num_updates"]),
                    "max_edges_seen": int(payload["max_edges_seen"]),
                    "edges": edges,
                    "mate": [int(m) for m in payload["mate"]],
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


# ---------------------------------------------------------------------------
# delta-aware snapshots
# ---------------------------------------------------------------------------

def _npy_bytes(value) -> bytes:
    """Serialize one array to the ``.npy`` bytes ``np.savez`` would write."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(value), allow_pickle=False)
    return buf.getvalue()


#: the fixed npy header every int64 scalar shares (built lazily; the trailing
#: 8 bytes of :func:`_npy_bytes` output are the little-endian value)
_INT64_HEADER: Optional[bytes] = None


def _int64_npy_bytes(value: int) -> bytes:
    """``_npy_bytes(np.int64(value))`` without the per-call numpy machinery.

    The always-changing checkpoint scalars (position, rebuild schedule
    bookkeeping) are all int64; re-running ``write_array`` for each of them
    on every snapshot is pure overhead once the shared 128-byte header is
    known.
    """
    global _INT64_HEADER
    if _INT64_HEADER is None:
        _INT64_HEADER = _npy_bytes(np.int64(0))[:-8]
    return _INT64_HEADER + struct.pack("<q", value)


#: file key order, matching :meth:`MaintainerCheckpoint.save`'s ``np.savez``
#: call (readers are order-independent; keeping it identical makes the two
#: writers' containers differ only in zip timestamps)
_KEY_ORDER = (
    "version", "kind", "position", "n", "eps", "has_seed", "seed", "backend",
    "profile_json", "counters_json", "rebuild_slack", "min_rebuild_gap",
    "updates_since_rebuild", "size_at_rebuild", "num_updates",
    "max_edges_seen", "edge_u", "edge_v", "mate", "rng_main", "rng_main_g",
    "rng_framework", "rng_framework_g", "rng_oracle", "rng_oracle_g",
)


class DeltaCheckpointWriter:
    """Capture and save a *sequence* of snapshots of one maintainer, reusing
    every section the maintainer's revision counters prove unchanged.

    * :meth:`capture` skips re-collecting the edge and mate sections when
      :meth:`FullyDynamicMatching.checkpoint_revisions` has not moved,
      handing the previous snapshot's (immutable) lists back to
      ``checkpoint_state``.
    * :meth:`save` keeps the encoded ``.npy`` buffer of every section and
      re-encodes only what changed: the static section (profile, seed,
      backend, ...) is encoded exactly once per writer, the edge/mate
      buffers are dropped when their revision moves, and the RNG vectors are
      re-encoded only when the captured state tuples differ (a rebuild
      consumed randomness).  The always-changing scalars (position, rebuild
      schedule, counters) are re-encoded every save.

    The output is a regular checkpoint ``.npz`` -- byte-identical payload to
    :meth:`MaintainerCheckpoint.save` -- and restoring from it needs no
    writer cooperation.  A writer is bound to whichever maintainer it last
    captured; handing it a different one (e.g. after a crash/restore cycle)
    safely resets all caches, because revision counters are only comparable
    within one maintainer's lifetime.
    """

    def __init__(self) -> None:
        import weakref
        self._weakref = weakref
        self._alg_ref = None
        self._revs: Optional[Dict[str, int]] = None
        self._state: Optional[Dict[str, object]] = None
        self._buffers: Dict[str, bytes] = {}
        self._rng_cache: Dict[str, object] = {}
        #: section name -> (payload, local-header bytes, crc32); lets a save
        #: skip the zip bookkeeping (header pack + CRC) for unchanged
        #: payloads, not just their npy encode
        self._entries: Dict[str, tuple] = {}
        self.stats = {"captures": 0, "saves": 0,
                      "sections_encoded": 0, "sections_reused": 0,
                      "edges_reused": 0, "mate_reused": 0}

    def _reset(self) -> None:
        self._revs = None
        self._state = None
        self._buffers.clear()
        self._rng_cache.clear()
        self._entries.clear()

    # --------------------------------------------------------------- capture
    def capture(self, alg: FullyDynamicMatching,
                position: int) -> MaintainerCheckpoint:
        """Delta-aware :meth:`MaintainerCheckpoint.capture`."""
        if position < 0:
            raise ValueError(f"position must be >= 0, got {position}")
        if self._alg_ref is None or self._alg_ref() is not alg:
            self._reset()
            self._alg_ref = self._weakref.ref(alg)
        revs = alg.checkpoint_revisions()
        prev_state, prev_revs = self._state, self._revs
        reuse_edges = (prev_revs is not None
                       and prev_revs["graph"] == revs["graph"])
        reuse_mate = (prev_revs is not None
                      and prev_revs["matching"] == revs["matching"])
        state = alg.checkpoint_state(
            _reuse_edges=prev_state["edges"] if reuse_edges else None,
            _reuse_mate=prev_state["mate"] if reuse_mate else None)
        if reuse_edges:
            self.stats["edges_reused"] += 1
        else:
            self._buffers.pop("edge_u", None)
            self._buffers.pop("edge_v", None)
        if reuse_mate:
            self.stats["mate_reused"] += 1
        else:
            self._buffers.pop("mate", None)
        self._state = state
        self._revs = dict(revs)
        self.stats["captures"] += 1
        return MaintainerCheckpoint(position=int(position), state=state)

    # --------------------------------------------------------------- on disk
    def save(self, checkpoint: MaintainerCheckpoint, path) -> str:
        """Write ``checkpoint`` (this writer's latest capture) to ``path``.

        A checkpoint this writer did not produce last has no reuse contract
        and is delegated to the stateless :meth:`MaintainerCheckpoint.save`.
        """
        state = checkpoint.state
        if state is not self._state:
            return checkpoint.save(path)
        bufs = self._buffers
        stats = self.stats

        def keep(name: str, thunk) -> None:
            # cached section: skip both the array build and the npy encode
            if name in bufs:
                stats["sections_reused"] += 1
            else:
                bufs[name] = _npy_bytes(thunk())
                stats["sections_encoded"] += 1

        def write(name: str, value) -> None:
            bufs[name] = _npy_bytes(value)
            stats["sections_encoded"] += 1

        seed = state["seed"]
        keep("version", lambda: np.int64(CHECKPOINT_VERSION))
        keep("kind", lambda: np.array(_KIND))
        keep("n", lambda: np.int64(state["n"]))
        keep("eps", lambda: np.float64(state["eps"]))
        keep("has_seed", lambda: np.int64(0 if seed is None else 1))
        keep("seed", lambda: np.int64(0 if seed is None else seed))
        keep("backend", lambda: np.array(state["backend"]))
        keep("profile_json",
             lambda: np.array(json.dumps(state["profile"], sort_keys=True)))
        keep("rebuild_slack", lambda: np.float64(state["rebuild_slack"]))
        keep("min_rebuild_gap", lambda: np.int64(state["min_rebuild_gap"]))

        keep("edge_u", lambda: np.array([e[0] for e in state["edges"]],
                                        dtype=np.int64))
        keep("edge_v", lambda: np.array([e[1] for e in state["edges"]],
                                        dtype=np.int64))
        keep("mate", lambda: np.array(state["mate"], dtype=np.int64))

        for prefix, key in (("rng_main", "rng"),
                            ("rng_framework", "framework_rng"),
                            ("rng_oracle", "oracle_rng")):
            rng_state = state[key]
            if (prefix in bufs and self._rng_cache.get(prefix) == rng_state):
                stats["sections_reused"] += 1
                continue
            if rng_state is None:
                words = np.zeros(0, dtype=np.int64)
                carry = np.array([0.0, 0.0])
            else:
                words, carry = _pack_rng(rng_state)
            bufs[prefix] = _npy_bytes(words)
            bufs[prefix + "_g"] = _npy_bytes(carry)
            self._rng_cache[prefix] = rng_state
            stats["sections_encoded"] += 1

        def write_int(name: str, value: int) -> None:
            bufs[name] = _int64_npy_bytes(value)
            stats["sections_encoded"] += 1

        write_int("position", checkpoint.position)
        write("counters_json",
              np.array(json.dumps(state["counters"], sort_keys=True)))
        write_int("updates_since_rebuild", state["updates_since_rebuild"])
        write_int("size_at_rebuild", state["size_at_rebuild"])
        write_int("num_updates", state["num_updates"])
        write_int("max_edges_seen", state["max_edges_seen"])

        path = str(path)
        if not path.endswith(".npz"):
            path += ".npz"
        self._write_container(path)
        stats["saves"] += 1
        return path

    def _write_container(self, path: str) -> None:
        """Emit the ``.npz`` container (a STORED zip of ``.npy`` members,
        exactly what ``np.savez`` builds) from the cached section buffers.

        ``zipfile`` re-packs every local header and re-runs CRC32 over every
        payload on every save, which dominates snapshot cost once the npy
        encodes are cached.  This writer keeps the finished local-header
        bytes and CRC per section (keyed by payload identity -- unchanged
        sections hand back the *same* bytes object) and assembles the file
        with one ``write``.  Readers only need a well-formed zip, which the
        loader round-trip tests pin.
        """
        import zlib

        entries = self._entries
        parts = []
        offsets = {}
        position = 0
        for name in _KEY_ORDER:
            payload = self._buffers[name]
            cached = entries.get(name)
            if cached is None or cached[0] is not payload:
                fname = (name + ".npy").encode("ascii")
                crc = zlib.crc32(payload)
                # local file header: STORED, DOS timestamp 1980-01-01
                header = struct.pack(
                    "<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, 0, 0, 0, 0x21,
                    crc, len(payload), len(payload), len(fname), 0) + fname
                cached = entries[name] = (payload, header, crc)
            offsets[name] = position
            parts.append(cached[1])
            parts.append(payload)
            position += len(cached[1]) + len(payload)
        for name in _KEY_ORDER:
            payload, _, crc = entries[name]
            fname = (name + ".npy").encode("ascii")
            parts.append(struct.pack(
                "<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 0, 20, 0, 0, 0, 0,
                0x21, crc, len(payload), len(payload), len(fname),
                0, 0, 0, 0, 0, offsets[name]) + fname)
        central_size = sum(len(p) for p in parts) - position
        parts.append(struct.pack(
            "<4s4H2LH", b"PK\x05\x06", 0, 0, len(_KEY_ORDER),
            len(_KEY_ORDER), central_size, position, 0))
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))
