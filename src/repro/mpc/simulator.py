"""A lightweight round-synchronous MPC simulator.

The Massively Parallel Computation model (Section 3.4) has ``M`` machines with
local memory ``S``; computation proceeds in synchronous rounds, and per round a
machine may send/receive at most ``S`` words.  The paper only needs the model
as a *cost model*: what matters for Theorem 1.1 / Table 1 is how many rounds
the Theta(1)-approximate matching oracle and the clean-up steps take.

:class:`MPCSimulator` therefore simulates the round structure and accounts for
memory and communication, executing "machine programs" written as Python
callables.  It mirrors the message-passing style of the mpi4py guide
(synchronous supersteps, explicit exchanged messages).  A round runs the
machine programs one after another in machine order in this process and
merges their outboxes at the superstep barrier in that same order; how the
programs are scheduled would change wall time only, never a count the
reproduction reports.

Word accounting: the budget ``S`` and the ``mpc_messages`` counter are in
*words*, so every payload is sized via :func:`~repro.exec.payload_words`
(tuples/lists count ``len``, scalars 1) on both the send and the receive side
-- one message is *not* one word.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec import payload_words
from repro.exec.isolation import resolve_isolation
from repro.instrumentation.counters import Counters
from repro.resilience import faults as faults_mod
from repro.resilience.faults import FaultPlan

Message = Tuple[int, object]  # (destination machine, payload)


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
    isolation:
        Run the isolation sanitizer (:mod:`repro.exec.isolation`): outboxes
        are deep-copied at the exchange barrier and the sender-side
        originals are checksummed at the next round / ``close()``, so a
        program mutating a payload it already sent raises
        :class:`~repro.exec.isolation.IsolationViolation` instead of
        silently rewriting the delivered message.  ``None`` (default) reads
        the ``REPRO_EXEC_ISOLATION`` environment flag.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` injecting
        deterministic message faults at the exchange barrier: a produced
        message may be dropped or duplicated, and a sender's outbox may be
        delivered in a permuted order.  Faults act on *delivery* only --
        programs run unmodified, validation sees what they produced -- and
        word/memory accounting reflects what was actually delivered.
        Injections are tallied as ``mpc_faults_dropped`` /
        ``mpc_faults_duplicated`` / ``mpc_faults_reordered``.
    """

    def __init__(self, num_machines: int, memory_per_machine: Optional[int] = None,
                 counters: Optional[Counters] = None, strict: bool = True,
                 isolation: Optional[bool] = None,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        if num_machines <= 0:
            raise ValueError("need at least one machine")
        self.num_machines = num_machines
        self.memory_per_machine = memory_per_machine
        self.counters = counters if counters is not None else Counters()
        self.strict = strict
        self._guard = resolve_isolation(isolation, "mpc")
        self._faults = fault_plan
        self._fault_round = 0
        # local storage of each machine: a list of payloads, each sized in
        # words by payload_words (unknown objects count 1)
        self.storage: List[List[object]] = [[] for _ in range(num_machines)]

    # ------------------------------------------------------------------ setup
    def scatter(self, items: Sequence[object]) -> None:
        """Distribute input items round-robin across machines (round 0 load)."""
        for machine in self.storage:
            machine.clear()
        for i, item in enumerate(items):
            self.storage[i % self.num_machines].append(item)
        self._check_memory()

    def machine_for_vertex(self, v: int) -> int:
        """Deterministic vertex-to-machine assignment (hash partitioning)."""
        return v % self.num_machines

    # ----------------------------------------------------------------- rounds
    def round(self,
              program: Callable[[int, List[object]], Iterable[Message]]) -> None:
        """Execute one synchronous round.

        ``program(machine_id, local_items)`` runs on every machine and returns
        the messages to deliver; messages are exchanged at the end of the
        round (the superstep barrier) and appended to the recipients' local
        storage.  Send and receive volumes are accounted in *words*
        (:func:`~repro.exec.payload_words`; unknown objects count 1) against
        the budget ``S``, and their total is charged to ``mpc_messages``.
        """
        guard = self._guard
        if guard is not None:
            # payloads of the previous barrier must still digest identically:
            # any divergence is a mutation-after-send
            guard.verify()
        # run every machine's program in machine order
        outboxes: List[List[Message]] = []
        for machine_id in range(self.num_machines):
            out = list(program(machine_id, self.storage[machine_id]))
            if guard is not None:
                # capture at program return, so a later program of the same
                # round cannot rewrite an already-submitted outbox
                out = guard.capture_messages(machine_id, out)
            outboxes.append(out)
        if self._faults is not None:
            outboxes = self._apply_message_faults(outboxes)
        self._fault_round += 1

        # barrier: merge outboxes in machine order, sizing each payload once
        inboxes: Dict[int, List[Tuple[object, int]]] = defaultdict(list)
        total_words = 0
        for machine_id, msgs in enumerate(outboxes):
            sent_words = 0
            for dest, payload in msgs:
                words = payload_words(payload, default=1)
                sent_words += words
                inboxes[dest].append((payload, words))
            total_words += sent_words
            if (self.memory_per_machine is not None
                    and sent_words > self.memory_per_machine):
                self._violation(machine_id, sent_words)

        for dest, sized_payloads in inboxes.items():
            received_words = sum(words for _, words in sized_payloads)
            if (self.memory_per_machine is not None
                    and received_words > self.memory_per_machine):
                self._violation(dest, received_words)
            self.storage[dest].extend(payload for payload, _ in sized_payloads)

        self.counters.add("mpc_rounds")
        self.counters.add("mpc_messages", total_words)
        self._check_memory()

    def broadcast_round(self, values_by_machine: Sequence[object]) -> List[object]:
        """Convenience: every machine publishes one value; all machines see all.

        Costs one round; the clique exchange replicates every value to all
        ``M`` machines, so it is charged ``M * sum(words(value))`` words and
        runs through the same word-sized budget checks as :meth:`round`:
        machine ``i`` sends ``M * words(value_i)`` and every machine receives
        ``sum(words(value))``, both of which must fit in ``S``.
        """
        values = list(values_by_machine)
        value_words = [payload_words(value, default=1) for value in values]
        total_value_words = sum(value_words)
        if self.memory_per_machine is not None:
            for machine_id, words in enumerate(value_words):
                sent_words = words * self.num_machines
                if sent_words > self.memory_per_machine:
                    self._violation(machine_id, sent_words)
            if total_value_words > self.memory_per_machine:
                for machine_id in range(self.num_machines):
                    self._violation(machine_id, total_value_words)
        self.counters.add("mpc_rounds")
        self.counters.add("mpc_messages", self.num_machines * total_value_words)
        self._check_memory()
        return values

    # --------------------------------------------------------------- internal
    def _apply_message_faults(
            self, outboxes: List[List[Message]]) -> List[List[Message]]:
        """Rewrite the round's outboxes per the fault plan (delivery side).

        A dropped message vanishes before sizing; a duplicated one is
        delivered twice (the copy is a ``deepcopy``, matching the physical
        independence a real resend would have); a reordered sender has its
        surviving outbox permuted deterministically.  The sender-side
        originals retained by an :class:`IsolationGuard` are untouched --
        faults model the network, not the program.
        """
        import copy as _copy

        plan = self._faults
        round_index = self._fault_round
        faulted: List[List[Message]] = []
        for sender, msgs in enumerate(outboxes):
            kept: List[Message] = []
            for slot, (dest, payload) in enumerate(msgs):
                action = plan.message_fault("mpc", round_index, sender,
                                            dest, slot)
                if action == faults_mod.DROP:
                    self.counters.add("mpc_faults_dropped")
                    continue
                kept.append((dest, payload))
                if action == faults_mod.DUPLICATE:
                    self.counters.add("mpc_faults_duplicated")
                    kept.append((dest, _copy.deepcopy(payload)))
            if len(kept) > 1 and plan.reorders_round("mpc", round_index,
                                                     sender):
                self.counters.add("mpc_faults_reordered")
                order = plan.permutation("mpc", round_index, sender,
                                         len(kept))
                kept = [kept[j] for j in order]
            faulted.append(kept)
        return faulted

    def _violation(self, machine_id: int, amount: int) -> None:
        self.counters.add("mpc_memory_violations")
        if self.strict:
            raise MemoryExceeded(
                f"machine {machine_id} handled {amount} words "
                f"(budget {self.memory_per_machine})")

    def _check_memory(self) -> None:
        """Check every machine's *stored words* (not item count) against S.

        Storage accumulates across rounds, so multi-word payloads must keep
        counting word-sized here too -- otherwise two 4-word tuples would
        occupy 8 words while registering as 2 items.  The walk cannot be
        cached incrementally because callers legitimately mutate ``storage``
        between rounds; sizing stops as soon as a machine is over budget,
        and a compliant machine holds at most S words, so the cost per round
        is bounded by the stored input size.
        """
        budget = self.memory_per_machine
        if budget is None:
            return
        for machine_id, items in enumerate(self.storage):
            words = 0
            for item in items:
                words += payload_words(item, default=1)
                if words > budget:
                    break
            if words > budget:
                self._violation(machine_id, words)

    def close(self) -> None:
        """End the simulation.

        Under isolation the last round's retained payloads are verified
        here, so mutations after the final round still fail loudly.
        """
        if self._guard is not None:
            self._guard.verify()

    # ------------------------------------------------------------------ stats
    @property
    def rounds(self) -> int:
        return int(self.counters.get("mpc_rounds"))

    @staticmethod
    def default_machine_count(n: int, m: int, memory_per_machine: int) -> int:
        """Enough machines to hold the input: ceil((n + m) / S)."""
        return max(1, math.ceil((n + m) / max(1, memory_per_machine)))
