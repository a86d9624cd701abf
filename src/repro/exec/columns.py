"""The bulk barrier both simulators share: every outbox as copied int columns.

An MPC machine or a CONGEST vertex hands its whole outbox to the
simulator's round at once, as a ``dest`` column followed by the round's int
field columns (one-sided bulk exchange, Lazzaro & Hutter,
arXiv:1705.10218).  :func:`copy_columns` copies each column into an
``array('q')`` before anything is checked or delivered, so a receiver never
shares a list with its sender: mutating or reusing a column after the round
cannot rewrite what was delivered.  The copy is also the word check -- every
field is a 64-bit int, one word by construction.

Message faults act on the copies: :func:`fault_positions` picks the column
positions a :class:`~repro.resilience.faults.FaultPlan` delivers, and
:func:`take` gathers them, so the sender's columns are never touched.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

from repro.instrumentation.counters import Counters
from repro.resilience import faults as faults_mod
from repro.resilience.faults import FaultPlan

#: one sender's outbox: a ``dest`` column, then one column per int field
Outbox = Sequence[Sequence[int]]
#: the barrier's copy of one outbox (``None`` for an empty one)
Columns = Optional[List[array]]


def copy_columns(outboxes: Sequence[Optional[Outbox]],
                 sender_kind: str) -> Tuple[List[Columns], int]:
    """Copy every outbox's columns; return the copies and the field width.

    A missing outbox (``None`` or no columns) copies to ``None``.  Every
    other outbox must have columns of one length and the same number of
    field columns (its width) as every other sender of the round; a field
    that is not a 64-bit int raises :class:`TypeError`, ragged columns or a
    differing width :class:`ValueError`, each naming the sender as
    ``"<sender_kind> <index>"``.  The width of a round with no outbox is 0.
    """
    sent: List[Columns] = []
    width = None
    for sender, columns in enumerate(outboxes):
        if not columns:
            sent.append(None)
            continue
        try:
            copies = [array("q", column) for column in columns]
        except (TypeError, OverflowError) as exc:
            raise TypeError(f"{sender_kind} {sender} sent a field that is "
                            f"not a 64-bit int: {exc}") from None
        if width is None:
            width = len(copies) - 1
        elif len(copies) - 1 != width:
            raise ValueError(f"{sender_kind} {sender} sent {len(copies) - 1} "
                             f"fields per message, the round {width}")
        if len(set(map(len, copies))) > 1:
            raise ValueError(f"{sender_kind} {sender} sent ragged columns "
                             f"(lengths {[len(c) for c in copies]})")
        sent.append(copies)
    return sent, width or 0


def take(columns: Sequence[array], positions: Sequence[int]) -> List[array]:
    """The messages at ``positions`` (in that order) of every column."""
    return [array("q", map(column.__getitem__, positions))
            for column in columns]


def fault_positions(plan: FaultPlan, model: str, round_index: int,
                    sender: int, dest: Sequence[int],
                    counters: Counters) -> List[int]:
    """The positions of one sender's messages that ``plan`` delivers.

    Message ``slot`` is decided at the site ``(model, round_index, sender,
    dest[slot], slot)``: a dropped message is left out, a duplicated one
    appears twice in a row, and the rest keep the sender's order.  Drops
    and duplicates are tallied as ``<model>_faults_dropped`` /
    ``<model>_faults_duplicated``.
    """
    kept: List[int] = []
    for slot, target in enumerate(dest):
        action = plan.message_fault(model, round_index, sender, target, slot)
        if action == faults_mod.DROP:
            counters.add(f"{model}_faults_dropped")
            continue
        kept.append(slot)
        if action == faults_mod.DUPLICATE:
            counters.add(f"{model}_faults_duplicated")
            kept.append(slot)
    return kept
