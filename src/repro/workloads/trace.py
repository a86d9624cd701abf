"""Packed on-disk traces: record any update stream, replay it byte-identically.

A :class:`Trace` is an update sequence in structure-of-arrays form -- three
int64 NumPy columns ``(kind, u, v)`` plus the vertex count ``n`` -- the
format the bench suite uses for stable, shareable workloads:

* **record**: :meth:`Trace.record` consumes any stream/iterable once,
  packing updates straight into growing int64 buffers (24 bytes per update,
  no Python object list);
* **persist**: :meth:`Trace.save` / :meth:`Trace.load` round-trip through a
  NumPy ``.npz`` container (column arrays stored verbatim, so a loaded
  trace compares equal to the recorded one array-for-array);
* **replay**: :meth:`Trace.stream` is an :class:`UpdateStream` over the
  columns -- iterate it as many times as needed, through any maintainer,
  and the update sequence (hence every seeded maintainer's counters and
  matchings) is identical on every replay.

Kind codes are part of the on-disk format and must never change:
``0 = EMPTY``, ``1 = INSERT``, ``2 = DELETE``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.graph.dynamic_graph import Update
from repro.workloads.streams import UpdateStream

#: on-disk kind codes (stable format contract)
KIND_EMPTY, KIND_INSERT, KIND_DELETE = 0, 1, 2

_KIND_TO_CODE = {Update.EMPTY: KIND_EMPTY, Update.INSERT: KIND_INSERT,
                 Update.DELETE: KIND_DELETE}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

#: format version written into every file (bump only with a migration path)
FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file that cannot be read: corrupt, truncated, or version-skewed.

    Carries the offending ``path``, a human ``reason``, and -- when the
    failure is a version mismatch -- ``expected_version`` / ``found_version``
    so callers can distinguish "re-record this trace" from "wrong file".
    """

    def __init__(self, path, reason: str,
                 expected_version: Optional[int] = None,
                 found_version: Optional[int] = None) -> None:
        self.path = str(path)
        self.reason = reason
        self.expected_version = expected_version
        self.found_version = found_version
        detail = f"{self.path}: {reason}"
        if found_version is not None:
            detail += (f" (file is v{found_version}, this build reads "
                       f"v{expected_version})")
        super().__init__(detail)


class Trace:
    """An update sequence as packed int64 ``(kind, u, v)`` columns."""

    def __init__(self, n: int, kind, u, v) -> None:
        self.n = int(n)
        self.kind = np.ascontiguousarray(kind, dtype=np.int64)
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        self.v = np.ascontiguousarray(v, dtype=np.int64)
        if not (self.kind.shape == self.u.shape == self.v.shape) \
                or self.kind.ndim != 1:
            raise ValueError("kind/u/v must be 1-d arrays of equal length")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        bad = set(np.unique(self.kind)) - set(_CODE_TO_KIND)
        if bad:
            raise ValueError(f"unknown kind codes in trace: {sorted(bad)}")

    # -------------------------------------------------------------- protocol
    def __len__(self) -> int:
        return int(self.kind.shape[0])

    @property
    def num_updates(self) -> int:
        return len(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.kind, other.kind)
                and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Trace(n={self.n}, updates={len(self)})"

    # ------------------------------------------------------------- recording
    @staticmethod
    def record(stream: "UpdateStream | Iterable[Update]",
               n: Optional[int] = None) -> "Trace":
        """Consume ``stream`` once and pack it into a trace.

        ``n`` defaults to ``stream.n`` for real streams and is required for
        plain iterables.  Updates are appended to compact int64 buffers
        (``array('q')``), never to a Python object list, so recording a
        million-update stream allocates ~24 MB of columns and nothing else.
        """
        if n is None:
            n = getattr(stream, "n", None)
            if n is None:
                raise ValueError("recording a plain iterable needs an "
                                 "explicit n")
        kinds, us, vs = array("q"), array("q"), array("q")
        for upd in stream:
            kinds.append(_KIND_TO_CODE[upd.kind])
            us.append(upd.u)
            vs.append(upd.v)
        return Trace(n,
                     np.frombuffer(kinds, dtype=np.int64).copy()
                     if kinds else np.zeros(0, dtype=np.int64),
                     np.frombuffer(us, dtype=np.int64).copy()
                     if us else np.zeros(0, dtype=np.int64),
                     np.frombuffer(vs, dtype=np.int64).copy()
                     if vs else np.zeros(0, dtype=np.int64))

    # ----------------------------------------------------------- persistence
    def save(self, path) -> str:
        """Write the trace to ``path`` (a ``.npz`` container); returns the
        path actually written (NumPy appends ``.npz`` when missing)."""
        path = str(path)
        np.savez(path,
                 version=np.int64(FORMAT_VERSION),
                 n=np.int64(self.n),
                 kind=self.kind, u=self.u, v=self.v)
        return path if path.endswith(".npz") else path + ".npz"

    @staticmethod
    def load(path) -> "Trace":
        """Read a trace written by :meth:`save`.

        Raises :class:`TraceFormatError` for anything unreadable -- a
        truncated/corrupt container, a non-trace ``.npz``, or a format
        version this build does not speak -- so callers get one typed error
        (with ``path`` and, for version skew, ``expected_version`` /
        ``found_version``) instead of whatever NumPy's zip layer leaks.
        A missing file still raises :class:`FileNotFoundError`.
        """
        import zipfile

        try:
            with np.load(str(path)) as payload:
                missing = ({"version", "n", "kind", "u", "v"}
                           - set(payload.files))
                if missing:
                    raise TraceFormatError(
                        path,
                        f"not a trace file (missing {sorted(missing)})")
                version = int(payload["version"])
                if version != FORMAT_VERSION:
                    raise TraceFormatError(
                        path, "trace format version mismatch",
                        expected_version=FORMAT_VERSION,
                        found_version=version)
                return Trace(int(payload["n"]), payload["kind"],
                             payload["u"], payload["v"])
        except (FileNotFoundError, TraceFormatError):
            raise
        except (zipfile.BadZipFile, KeyError, ValueError, EOFError,
                OSError) as exc:
            # truncated download, disk corruption, or a non-npz file: NumPy
            # surfaces these as a zoo of low-level errors
            raise TraceFormatError(
                path, f"corrupt trace file ({exc})") from exc

    # ----------------------------------------------------------------- replay
    def stream(self, name: Optional[str] = None) -> UpdateStream:
        """Replay as an :class:`UpdateStream` (re-iterable, lazy)."""
        kind, u, v = self.kind, self.u, self.v

        def produce() -> Iterator[Update]:
            for i in range(kind.shape[0]):
                code = int(kind[i])
                if code == KIND_EMPTY:
                    yield Update.empty()
                else:
                    yield Update(_CODE_TO_KIND[code], int(u[i]), int(v[i]))

        return UpdateStream(self.n, produce, length=len(self),
                            name=name or f"trace(updates={len(self)})")

    def updates(self) -> List[Update]:
        """The materialized update list (small traces / tests only)."""
        return list(self.stream())
