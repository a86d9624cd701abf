"""Seeded, deterministic fault-injection plans.

A :class:`FaultPlan` is a pure function from *fault sites* to fault
decisions.  Every decision is derived by hashing the plan seed together with
the site coordinates (SHA-256, truncated to 64 bits, mapped to ``[0, 1)``),
so:

* the same plan injects the same faults on every run -- across processes,
  interpreters and ``PYTHONHASHSEED`` values (chaos runs are replayable);
* decisions for different sites are independent -- adding a message to one
  round never shifts the faults injected anywhere else (unlike threading a
  single ``random.Random`` through the run);
* the plan itself is immutable and picklable, so it travels into pool
  workers unchanged.

Fault taxonomy (see ARCHITECTURE.md "Fault model & recovery"):

========================  ====================================================
site                      decision
========================  ====================================================
maintainer update         crash the maintainer before applying update ``i``
                          (``crashes_update``) -- the checkpoint/resume
                          harness's fault model
simulator message         drop / duplicate a message at the exchange barrier
                          (``message_fault``), reorder a sender's outbox
                          (``reorders_round`` + ``permutation``)
========================  ====================================================

Crash decisions take the current *attempt* number, and any site stops
crashing once ``attempt >= max_crashes_per_site`` -- an injected fault can
therefore never live-lock a resumed run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.utils.contracts import hot_path

#: message-fault decisions
DELIVER, DROP, DUPLICATE = "deliver", "drop", "duplicate"


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule, keyed by ``seed``.

    All rates are probabilities in ``[0, 1]``; a rate of ``0`` disables that
    fault class.  ``crash_updates`` additionally forces a first-visit crash
    at those exact update indices (useful when a scenario must observe at
    least one recovery regardless of how the rate draws land).
    """

    seed: int = 0
    #: dynamic-maintainer faults (checkpoint/resume harness)
    update_crash_rate: float = 0.0
    crash_updates: Tuple[int, ...] = ()
    #: simulator message faults (MPC/CONGEST exchange barriers)
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    #: progress guarantee: a site never crashes past this many attempts
    max_crashes_per_site: int = 3

    def __post_init__(self) -> None:
        for name in ("update_crash_rate", "drop_rate", "duplicate_rate",
                     "reorder_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.drop_rate + self.duplicate_rate > 1.0:
            raise ValueError("drop_rate + duplicate_rate must be <= 1")
        if self.max_crashes_per_site < 0:
            raise ValueError("max_crashes_per_site must be >= 0")

    # ------------------------------------------------------------------ draws
    def _draw(self, *site) -> float:
        """Uniform ``[0, 1)`` value for one fault site, independent of all
        other sites and of iteration order."""
        blob = "\x1f".join(str(part) for part in (self.seed, *site))
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    # ------------------------------------------------------------ maintainers
    @hot_path
    def crashes_update(self, index: int, attempt: int = 0) -> bool:
        """Whether the maintainer crashes just before applying update
        ``index`` for the ``attempt``-th time at that position.

        The chaos harness asks before every update, so a zero rate answers
        without hashing: a draw in ``[0, 1)`` is never below 0.
        """
        if attempt >= self.max_crashes_per_site:
            return False
        if index in self.crash_updates:
            return attempt == 0
        if self.update_crash_rate <= 0:
            return False
        return self._draw("update-crash", index, attempt) < self.update_crash_rate

    # --------------------------------------------------------------- messages
    def message_fault(self, model: str, round_index: int, sender: int,
                      dest: int, slot: int) -> str:
        """Decision for one message: DELIVER, DROP or DUPLICATE.

        ``slot`` is the message's position within the sender's outbox, so
        two same-(sender, dest) messages in one round get independent draws.
        """
        if self.drop_rate <= 0 and self.duplicate_rate <= 0:
            return DELIVER
        r = self._draw("message", model, round_index, sender, dest, slot)
        if r < self.drop_rate:
            return DROP
        if r < self.drop_rate + self.duplicate_rate:
            return DUPLICATE
        return DELIVER

    def reorders_round(self, model: str, round_index: int, scope: int) -> bool:
        """Whether ``scope`` (a sender/destination id) sees reordered
        delivery this round."""
        if self.reorder_rate <= 0:
            return False
        return self._draw("reorder", model, round_index, scope) < self.reorder_rate

    def permutation(self, model: str, round_index: int, scope: int,
                    count: int) -> List[int]:
        """The deterministic delivery permutation for a reordered scope."""
        blob = "\x1f".join(str(p) for p in
                           (self.seed, "perm", model, round_index, scope))
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        order = list(range(count))
        random.Random(int.from_bytes(digest[:8], "big")).shuffle(order)
        return order
