"""Simulator isolation sanitizer: make mutation-after-send fail loudly.

Simulator rounds run in one process, so the exchange shares message objects
between sender and receiver.  A program that mutates a payload *after*
placing it in its outbox therefore rewrites the message its receiver sees
-- something no real network delivery allows, and invisible in every plain
test.  The static rule ``send-aliasing`` catches the patterns; this module
checks the property at runtime:

* at the exchange barrier, every outbox payload is replaced by a
  :func:`copy.deepcopy` before delivery (what a real send's serialization
  would hand the receiver), while the sender-side original is retained
  together with a content digest;
* at the next round (and at :meth:`IsolationGuard.verify` / simulator
  ``close()``), the retained originals are re-digested -- any divergence
  means the sender mutated a payload it had already sent, and raises
  :class:`IsolationViolation` naming the sender, destination and round.

The mode is off by default (deep-copy per message is measurable); the
tier-1 smoke gate enables it via ``REPRO_EXEC_ISOLATION=1`` so every
registered scenario runs its MPC/CONGEST rounds isolation-checked.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
from typing import Dict, List, Optional, Tuple

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
    """Deep-copy delivery plus sender-side checksums for one simulator.

    The simulator calls :meth:`capture_messages` (MPC outbox shape: a list
    of ``(dest, payload)``) or :meth:`capture_outbox` (CONGEST shape:
    ``{dest: payload}``) on each outbox as it crosses the barrier, delivers the returned copies, and calls :meth:`verify` at the
    start of the next round and on ``close()``.
    """

    def __init__(self, model: str) -> None:
        self.model = model
        self.round_index = 0
        # (sender, dest, retained original, digest, round captured)
        self._pending: List[Tuple[int, int, object, bytes, int]] = []

    def _ship(self, sender: int, dest: int, payload: object) -> object:
        self._pending.append((sender, dest, payload,
                              payload_digest(payload), self.round_index))
        return copy.deepcopy(payload)

    def capture_messages(self, sender: int,
                         messages: List[Tuple[int, object]]
                         ) -> List[Tuple[int, object]]:
        """Isolate one MPC outbox; returns the copies to deliver."""
        return [(dest, self._ship(sender, dest, payload))
                for dest, payload in messages]

    def capture_outbox(self, sender: int,
                       outbox: Dict[int, object]) -> Dict[int, object]:
        """Isolate one CONGEST outbox; returns the copies to deliver."""
        return {dest: self._ship(sender, dest, payload)
                for dest, payload in outbox.items()}

    def verify(self) -> None:
        """Re-digest every retained payload; raise on any mutation.

        Clears the retained set and advances the round index, so each
        barrier's payloads are checked exactly once -- at the next round or
        at ``close()``, whichever comes first.
        """
        for sender, dest, payload, digest, rnd in self._pending:
            if payload_digest(payload) != digest:
                self._pending.clear()
                raise IsolationViolation(
                    f"{self.model} isolation sanitizer: sender {sender} "
                    f"mutated a payload after sending it to {dest} in "
                    f"round {rnd} -- without isolation the receiver would "
                    "see the mutated object; send an immutable tuple or an "
                    "explicit copy "
                    f"(payload now: {payload!r})")
        self._pending.clear()
        self.round_index += 1


def resolve_isolation(flag: Optional[bool], model: str
                      ) -> Optional[IsolationGuard]:
    """The guard for one simulator: explicit flag, else the env default."""
    enabled = isolation_default() if flag is None else flag
    return IsolationGuard(model) if enabled else None
