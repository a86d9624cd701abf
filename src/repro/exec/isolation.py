"""Simulator isolation sanitizer: make mutation-after-send fail loudly.

Simulator rounds run in one process, so an exchange can share message
objects between sender and receiver.  A program that mutates a payload
*after* placing it in its outbox therefore rewrites the message its receiver
sees -- something no real network delivery allows, and invisible in every
plain test.  The static rule ``send-aliasing`` catches the patterns; this
module checks the property at runtime, at both simulators' barriers:

* CONGEST (dict outboxes of arbitrary payloads): every outbox payload is
  replaced by a :func:`copy.deepcopy` before delivery (what a real send's
  serialization would hand the receiver), while the sender-side original is
  retained together with a content digest;
* MPC (bulk int columns): the barrier always delivers its own ``array('q')``
  copies, so receivers never share the sender's lists; the guard digests the
  sender-side columns and keeps the barrier's copies to name the first
  changed message;
* at the next round (and at :meth:`IsolationGuard.verify` / simulator
  ``close()``), the retained originals are re-digested -- any divergence
  means the sender mutated something it had already sent, and raises
  :class:`IsolationViolation` naming the sender, destination and round (the
  simulator's own 0-based round number, the one its ``FaultPlan`` sites
  use).

The mode is off by default (digest and deep copy per message are
measurable); the tier-1 smoke gate enables it via
``REPRO_EXEC_ISOLATION=1`` so every registered scenario runs its
MPC/CONGEST rounds isolation-checked.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
from typing import Dict, List, Optional, Sequence, Tuple

#: environment flag giving simulators their default isolation setting
ENV_FLAG = "REPRO_EXEC_ISOLATION"


class IsolationViolation(RuntimeError):
    """A sender mutated a payload after the exchange barrier delivered it."""


def isolation_default() -> bool:
    """The ``REPRO_EXEC_ISOLATION`` env default ("" and "0" mean off)."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def payload_digest(payload: object) -> bytes:
    """A content digest of ``payload`` (pickle-based, ``repr`` fallback).

    Pickle bytes are not canonical across processes in general, but both
    digests of one payload are computed inside one process, so any byte
    difference here means the object's content changed in between.
    """
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001  # repro: allow[swallowed-exception] -- fallback, not recovery: unpicklable payloads still get a (repr-based) digest, and both digests of a payload use the same path
        blob = repr(payload).encode("utf-8", errors="replace")
    return hashlib.sha256(blob).digest()


class IsolationGuard:
    """Sender-side checksums (plus deep-copy delivery for CONGEST) for one
    simulator.

    The simulator calls :meth:`capture_outbox` (CONGEST shape: ``{dest:
    payload}``) on each outbox as it crosses the barrier and delivers the
    returned copies, or :meth:`capture_columns` (MPC shape: a ``dest``
    column plus int field columns) with the barrier's own copies, passing
    its own round number; it calls :meth:`verify` at the start of the next
    round and on ``close()``.
    """

    def __init__(self, model: str) -> None:
        self.model = model
        # (sender, dest, retained original, digest, round captured)
        self._pending: List[Tuple[int, int, object, bytes, int]] = []
        # (sender, retained columns, digest, barrier copies, round captured)
        self._pending_columns: List[
            Tuple[int, Sequence[Sequence[int]], bytes, Sequence[Sequence[int]],
                  int]] = []

    def _ship(self, sender: int, dest: int, payload: object,
              rnd: int) -> object:
        self._pending.append((sender, dest, payload,
                              payload_digest(payload), rnd))
        return copy.deepcopy(payload)

    def capture_outbox(self, sender: int, outbox: Dict[int, object],
                       rnd: int) -> Dict[int, object]:
        """Isolate one CONGEST outbox sent in round ``rnd``; returns the
        copies to deliver."""
        return {dest: self._ship(sender, dest, payload, rnd)
                for dest, payload in outbox.items()}

    def capture_columns(self, sender: int, columns: Sequence[Sequence[int]],
                        sent: Sequence[Sequence[int]], rnd: int) -> None:
        """Retain one MPC outbox sent in round ``rnd``: the sender-side
        ``columns`` (``dest`` first) and ``sent``, the barrier's copies of
        them (taken before any fault picks positions), which name a changed
        message."""
        self._pending_columns.append((sender, columns, payload_digest(columns),
                                      sent, rnd))

    def _violation(self, sender: int, dest: object, rnd: int,
                   payload: object, hint: str) -> IsolationViolation:
        self._pending.clear()
        self._pending_columns.clear()
        return IsolationViolation(
            f"{self.model} isolation sanitizer: sender {sender} "
            f"mutated a payload after sending it to {dest} in "
            f"round {rnd} -- {hint} (payload now: {payload!r})")

    def verify(self) -> None:
        """Re-digest every retained payload; raise on any mutation.

        Clears the retained set, so each barrier's payloads are checked
        exactly once -- at the next round or at ``close()``, whichever comes
        first.
        """
        for sender, dest, payload, digest, rnd in self._pending:
            if payload_digest(payload) != digest:
                raise self._violation(
                    sender, dest, rnd, payload,
                    "without isolation the receiver would see the mutated "
                    "object; send an immutable tuple or an explicit copy")
        for sender, columns, digest, sent, rnd in self._pending_columns:
            if payload_digest(columns) != digest:
                k = _first_changed(columns, sent)
                raise self._violation(
                    sender, sent[0][k], rnd,
                    [list(column[k:k + 1]) for column in columns],
                    "the receiver holds the barrier's copy, but a sender "
                    "reusing sent columns is a bug; build fresh columns")
        self._pending.clear()
        self._pending_columns.clear()


def _first_changed(columns: Sequence[Sequence[int]],
                   sent: Sequence[Sequence[int]]) -> int:
    """The first message position at which ``columns`` no longer hold what
    was ``sent``; a column that only grew names the last message sent."""
    count = len(sent[0])
    for k in range(count):
        if any(k >= len(column) or column[k] != was[k]
               for column, was in zip(columns, sent)):
            return k
    return count - 1


def resolve_isolation(flag: Optional[bool], model: str
                      ) -> Optional[IsolationGuard]:
    """The guard for one simulator: explicit flag, else the env default."""
    enabled = isolation_default() if flag is None else flag
    return IsolationGuard(model) if enabled else None
