"""A lightweight round-synchronous MPC simulator.

The Massively Parallel Computation model (Section 3.4) has ``M`` machines with
local memory ``S``; computation proceeds in synchronous rounds, and per round a
machine may send/receive at most ``S`` words.  The paper only needs the model
as a *cost model*: what matters for Theorem 1.1 / Table 1 is how many rounds
the Theta(1)-approximate matching oracle and the clean-up steps take.

:class:`MPCSimulator` therefore simulates the round structure and accounts for
memory and communication.  The algorithm computes each machine's outbox
itself (in machine order, in this process) and hands all of them to
:meth:`MPCSimulator.round` at once: a bulk superstep barrier in the sense of
one-sided bulk exchange (Lazzaro & Hutter, arXiv:1705.10218).  An outbox is
a ``dest`` column plus one int column per message field; the barrier copies
the columns (:func:`~repro.exec.columns.copy_columns`, shared with the
CONGEST simulator), routes them by destination and returns every machine's
inbox as columns.

Word accounting: the budget ``S`` and the ``mpc_messages`` counter are in
*words*.  Every field of a message is an int -- one word by construction,
since the barrier's ``array('q')`` copy rejects anything else -- and the
round's message tag is sized once with :func:`~repro.exec.payload_words`, so
a message is ``tag words + field count`` words (one message is *not* one
word).  Send, receive and storage budgets are checked from per-machine
message counts.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exec import payload_words
from repro.exec.columns import (Columns, Outbox, copy_columns,
                                fault_positions, take)
from repro.instrumentation.counters import Counters
from repro.resilience.faults import FaultPlan

#: one machine's inbox: one ``array('q')`` column per int field
Inbox = Tuple[array, ...]


class MemoryExceeded(RuntimeError):
    """Raised when a machine exceeds its local memory budget ``S``."""


class MPCSimulator:
    """Round-synchronous simulator with per-machine memory accounting.

    Parameters
    ----------
    num_machines:
        Number of machines ``M``.
    memory_per_machine:
        Local memory ``S`` in words.  ``None`` disables the memory check
        (useful for unit tests of algorithms, not of the model).
    counters:
        Counter bag; rounds are charged to ``mpc_rounds`` and total exchanged
        words to ``mpc_messages``.
    strict:
        When true, exceeding ``S`` raises :class:`MemoryExceeded`; otherwise
        the violation is only recorded in ``mpc_memory_violations``.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` injecting
        deterministic message faults at the exchange barrier: a sent
        message may be dropped or duplicated, and a sender's outbox may be
        delivered in a permuted order.  Faults act on *delivery* only --
        the sender's columns are untouched -- and word/memory accounting
        reflects what was actually delivered.  Injections are tallied as
        ``mpc_faults_dropped`` / ``mpc_faults_duplicated`` /
        ``mpc_faults_reordered``.
    """

    def __init__(self, num_machines: int, memory_per_machine: Optional[int] = None,
                 counters: Optional[Counters] = None, strict: bool = True,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        self.num_machines = num_machines
        self.memory_per_machine = memory_per_machine
        self.counters = counters if counters is not None else Counters()
        self.strict = strict
        self._faults = fault_plan
        self._fault_round = 0
        # local storage of each machine: a list of payloads, each sized in
        # words by payload_words (unknown objects count 1)
        self.storage: List[List[object]] = [[] for _ in range(num_machines)]

    # ------------------------------------------------------------------ setup
    def scatter(self, items: Sequence[object]) -> None:
        """Distribute input items round-robin across machines (round 0 load)."""
        machines = self.num_machines
        for machine_id, machine in enumerate(self.storage):
            machine[:] = items[machine_id::machines]
        self._check_memory()

    def machines_for_vertices(self, vertices: Iterable[int]) -> List[int]:
        """Deterministic vertex-to-machine assignment (hash partitioning),
        as a ``dest`` column for ``vertices``."""
        machines = self.num_machines
        return [vertex % machines for vertex in vertices]

    # ----------------------------------------------------------------- rounds
    def round(self, outboxes: Sequence[Optional[Outbox]],
              tag: object) -> List[Inbox]:
        """Execute one synchronous round as a bulk exchange of int columns.

        ``outboxes[i]`` is machine ``i``'s outbox: a ``dest`` column followed
        by one column per int field, all of equal length; message ``k`` goes
        to machine ``dest[k]`` with fields ``(f1[k], f2[k], ...)``.  A
        missing outbox (``None`` or no columns, or an index past the end of
        ``outboxes``) is an empty one.  Every message of the round carries
        ``tag``, sized once, so a message is ``payload_words(tag) + width``
        words, ``width`` being the number of field columns (the same for
        every sender).

        Returns one inbox per machine: a tuple of ``width`` ``array('q')``
        columns holding the fields of the messages delivered to it, in
        sender order and then in each sender's message order (with no
        outbox at all, every inbox is ``()``).  Ragged columns, a field
        that is not a 64-bit int, no field column, a ``dest`` outside
        ``[0, M)`` or a sender whose width differs raise naming the
        sender.  Send and receive volumes, and the stored words of every
        machine plus its inbox, are checked against ``S`` from per-machine
        message counts; the delivered words are charged to
        ``mpc_messages``.
        """
        machines = self.num_machines
        if len(outboxes) > machines:
            raise ValueError(f"{len(outboxes)} outboxes for {machines} "
                             "machines")
        # the barrier's copies of every sender's columns, validated before
        # anything is delivered
        sent, width = copy_columns(outboxes, "machine")
        for sender, copies in enumerate(sent):
            if not copies:
                continue
            if not width:
                raise ValueError(f"machine {sender} sent no field columns")
            dest = copies[0]
            count = len(dest)
            if count:
                low = high = dest[0]
                if dest.count(low) != count:  # more than one destination
                    low, high = min(dest), max(dest)
                if low < 0 or high >= machines:
                    raise ValueError(f"machine {sender} sent to a machine "
                                     f"outside [0, {machines}): {low}..{high}")
        if self._faults is not None:
            sent = self._apply_message_faults(sent)
        self._fault_round += 1

        # barrier: route every sender's messages to their destinations, in
        # sender order; budgets are checked from per-machine message counts
        message_words = payload_words(tag, default=1) + width
        budget = self.memory_per_machine
        inboxes = [tuple([array("q") for _ in range(width)])
                   for _ in range(machines)]
        received = [0] * machines
        total = 0
        for sender, copies in enumerate(sent):
            if not copies or not copies[0]:
                continue
            dest, fields = copies[0], copies[1:]
            count = len(dest)
            total += count
            if budget is not None and count * message_words > budget:
                self._violation(sender, count * message_words)
            target = dest[0]
            if dest.count(target) == count:
                # one destination: the columns go over whole
                for inbox_column, column in zip(inboxes[target], fields):
                    inbox_column.extend(column)
                received[target] += count
                continue
            # a stable sort on the destination keeps each destination's
            # messages in the sender's order
            order = sorted(range(count), key=dest.__getitem__)
            fields = take(fields, order)
            start = 0
            for target, share in sorted(Counter(dest).items()):
                stop = start + share
                for inbox_column, column in zip(inboxes[target], fields):
                    inbox_column.extend(column[start:stop])
                received[target] += share
                start = stop

        incoming = [share * message_words for share in received]
        if budget is not None:
            for machine_id, words in enumerate(incoming):
                if words > budget:
                    self._violation(machine_id, words)
        self.counters.add("mpc_rounds")
        self.counters.add("mpc_messages", total * message_words)
        self._check_memory(incoming)
        return inboxes

    # --------------------------------------------------------------- internal
    def _apply_message_faults(self, sent: List[Columns]) -> List[Columns]:
        """Rewrite the round's copied outboxes per the fault plan.

        A dropped message vanishes before routing; a duplicated one is
        delivered twice in this round; a reordered sender has its surviving
        messages permuted deterministically.  Faults pick positions of the
        barrier's copies (:func:`~repro.exec.columns.fault_positions`), so
        the sender-side columns are untouched -- faults model the network,
        not the algorithm.
        """
        plan = self._faults
        round_index = self._fault_round
        faulted: List[Columns] = []
        for sender, copies in enumerate(sent):
            if not copies:
                faulted.append(copies)
                continue
            kept = fault_positions(plan, "mpc", round_index, sender,
                                   copies[0], self.counters)
            if len(kept) > 1 and plan.reorders_round("mpc", round_index,
                                                     sender):
                self.counters.add("mpc_faults_reordered")
                order = plan.permutation("mpc", round_index, sender,
                                         len(kept))
                kept = [kept[j] for j in order]
            faulted.append(take(copies, kept))
        return faulted

    def _violation(self, machine_id: int, amount: int) -> None:
        self.counters.add("mpc_memory_violations")
        if self.strict:
            raise MemoryExceeded(
                f"machine {machine_id} handled {amount} words "
                f"(budget {self.memory_per_machine})")

    def _check_memory(self, incoming: Optional[Sequence[int]] = None) -> None:
        """Check every machine's *stored words* (not item count) against S.

        ``incoming`` adds the words of each machine's inbox, which the
        machine holds beside its storage once a round delivers it.  Multi-
        word storage items count word-sized here too -- otherwise two
        4-word tuples would occupy 8 words while registering as 2 items.
        The walk cannot be cached incrementally because callers
        legitimately mutate ``storage`` between rounds; sizing stops as soon
        as a machine is over budget, and a compliant machine holds at most
        S words, so the cost per round is bounded by the stored input size.
        """
        budget = self.memory_per_machine
        if budget is None:
            return
        for machine_id, items in enumerate(self.storage):
            words = incoming[machine_id] if incoming is not None else 0
            for item in items:
                words += payload_words(item, default=1)
                if words > budget:
                    break
            if words > budget:
                self._violation(machine_id, words)

    # ------------------------------------------------------------------ stats
    @property
    def rounds(self) -> int:
        return int(self.counters.get("mpc_rounds"))

    @staticmethod
    def default_machine_count(n: int, m: int, memory_per_machine: int) -> int:
        """Enough machines to hold the input: ceil((n + m) / S)."""
        return max(1, math.ceil((n + m) / max(1, memory_per_machine)))
