"""A round-synchronous CONGEST simulator.

CONGEST (Section 3.4): the communication network *is* the input graph; per
round every vertex may send O(log n) bits along each incident edge.  As with
the MPC simulator, what the reproduction needs is the *cost model*: round
counts (and message volume) of the Theta(1)-approximate matching oracle and of
the per-component aggregation ``Aprocess`` (Appendix A, Corollary A.2).

Vertex algorithms are written as callables ``program(vertex, state, inbox) ->
{neighbor: message}``; the simulator runs them a round at a time, enforcing
the per-edge message-size limit.  Message sizes follow the shared word
convention (:func:`~repro.exec.payload_words`): tuples/lists count ``len``,
dicts/sets/strings are sized by content, and payload types the model cannot
size are rejected under ``strict=True`` instead of slipping past the
O(log n)-bit limit as "one word".

A round runs the vertex programs one after another in vertex order in this
process and merges their outboxes at the barrier in that same order.  The
exchange validates every message in that order -- edge first (``has_edge``),
then size (:func:`~repro.exec.payload_words`) -- so the first offending
message decides what is raised.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.exec import payload_words
from repro.exec.isolation import resolve_isolation
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.resilience import faults as faults_mod
from repro.resilience.faults import FaultPlan

Inbox = Dict[int, object]          # sender -> message
Outbox = Dict[int, object]         # receiver -> message
VertexProgram = Callable[[int, dict, Inbox], Outbox]

#: messages are limited to this many machine words (= O(log n) bits each)
MAX_MESSAGE_WORDS = 4


class MessageTooLarge(RuntimeError):
    """Raised when a vertex tries to send more than O(log n) bits on an edge."""


class CongestSimulator:
    """Synchronous message passing on the edges of a fixed graph.

    ``isolation`` enables the isolation sanitizer
    (:mod:`repro.exec.isolation`): outboxes are deep-copied at the exchange
    barrier and the sender-side originals checksummed at the next round /
    :meth:`close`, so a program mutating an already-sent payload raises
    :class:`~repro.exec.isolation.IsolationViolation` instead of silently
    rewriting the delivered message.  ``None`` (default) reads the
    ``REPRO_EXEC_ISOLATION`` environment flag.

    ``fault_plan`` injects deterministic message faults at the exchange
    barrier (:class:`~repro.resilience.faults.FaultPlan`): a validated
    message can be dropped, duplicated, or a vertex's inbox reordered.
    Because a CONGEST inbox keys on sender, a same-round duplicate would be
    an invisible dict overwrite -- so a duplicate is modelled as a *delayed
    redelivery*: the copy lands at the start of the **next** round, before
    fresh messages, so a fresh message from the same sender overwrites the
    stale copy and duplicate delivery can resurface old state but never
    mask new state.  Copies still undelivered at :meth:`close` are tallied
    as expired.  Injections count as ``congest_faults_dropped`` /
    ``congest_faults_duplicated`` / ``congest_faults_redelivered`` /
    ``congest_faults_reordered`` / ``congest_faults_expired``; the
    ``congest_messages`` cost counter keeps charging what the programs
    *sent* -- faults model the network, not the algorithm's cost.
    """

    def __init__(self, graph: Graph, counters: Optional[Counters] = None,
                 strict: bool = True,
                 isolation: Optional[bool] = None,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        self.graph = graph
        self.counters = counters if counters is not None else Counters()
        self.strict = strict
        self._guard = resolve_isolation(isolation, "congest")
        self._faults = fault_plan
        self._fault_round = 0
        #: duplicates scheduled for stale redelivery: (dest, sender, message)
        self._delayed: List[Tuple[int, int, object]] = []
        #: per-vertex local state dictionaries, freely usable by programs
        self.state: List[dict] = [dict() for _ in range(graph.n)]
        self._inboxes: List[Inbox] = [dict() for _ in range(graph.n)]

    # ----------------------------------------------------------------- rounds
    def _validate_outboxes(self, outboxes: List[Outbox]) -> int:
        """Edge-validate and size-check every message; returns message count.

        Each message is checked in order -- edge first, then size -- so the
        first offending message decides what is raised and what is charged.
        Size checks are the exact recursive :func:`~repro.exec.payload_words`
        rule, so nesting cannot smuggle data past the limit.
        """
        has_edge = self.graph.has_edge
        count = 0
        for v, out in enumerate(outboxes):
            for dest, message in out.items():
                if not has_edge(v, dest):
                    raise ValueError(
                        f"vertex {v} tried to message non-neighbor {dest}")
                self._check_size(message)
            count += len(out)
        return count

    def round(self, program: VertexProgram) -> None:
        """Run one synchronous round of ``program`` on every vertex."""
        guard = self._guard
        if guard is not None:
            # payloads of the previous barrier must still digest identically:
            # any divergence is a mutation-after-send
            guard.verify()
        # run every vertex's program in vertex order
        outboxes: List[Outbox] = []
        for v in range(self.graph.n):
            out = program(v, self.state[v], self._inboxes[v]) or {}
            if guard is not None:
                # capture at program return, so a later vertex of the same
                # round cannot rewrite an already-submitted outbox
                out = guard.capture_outbox(v, out)
            outboxes.append(out)
        total = self._validate_outboxes(outboxes)

        new_inboxes: List[Inbox] = [dict() for _ in range(self.graph.n)]
        if self._faults is not None:
            self._deliver_with_faults(outboxes, new_inboxes)
        else:
            for v, out in enumerate(outboxes):
                for dest, message in out.items():
                    new_inboxes[dest][v] = message
        self._fault_round += 1
        self._inboxes = new_inboxes
        self.counters.add("congest_rounds")
        self.counters.add("congest_messages", total)

    def run(self, program: VertexProgram, rounds: int) -> None:
        for _ in range(rounds):
            self.round(program)

    def _deliver_with_faults(self, outboxes: List[Outbox],
                             new_inboxes: List[Inbox]) -> None:
        """Deliver the round's (already validated) messages per the plan.

        Stale duplicates scheduled last round land first, so a fresh
        message from the same sender overwrites them via plain dict
        insertion.  Drops remove a message after validation/sizing (the
        network lost it; the program still paid to send it).  Reordering
        permutes a destination inbox's insertion order -- programs that
        iterate ``inbox.items()`` see the permuted order.  The sender-side
        originals an :class:`~repro.exec.isolation.IsolationGuard` retains
        are untouched: faults model the network, not the program.
        """
        import copy as _copy

        plan = self._faults
        round_index = self._fault_round
        for dest, sender, message in self._delayed:
            self.counters.add("congest_faults_redelivered")
            new_inboxes[dest][sender] = message  # repro: allow[word-accounting-bypass] -- delivery only: every payload here was sized by _validate_outboxes in the round that first sent it
        self._delayed = []
        for v, out in enumerate(outboxes):
            for slot, (dest, message) in enumerate(out.items()):
                action = plan.message_fault("congest", round_index, v,
                                            dest, slot)
                if action == faults_mod.DROP:
                    self.counters.add("congest_faults_dropped")
                    continue
                new_inboxes[dest][v] = message
                if action == faults_mod.DUPLICATE:
                    # an inbox keys on sender, so a same-round copy would
                    # be an invisible overwrite: schedule a stale
                    # redelivery for the next round instead
                    self.counters.add("congest_faults_duplicated")
                    self._delayed.append((dest, v, _copy.deepcopy(message)))
        for dest in range(self.graph.n):
            inbox = new_inboxes[dest]
            if len(inbox) > 1 and plan.reorders_round("congest", round_index,
                                                      dest):
                self.counters.add("congest_faults_reordered")
                senders = list(inbox)
                order = plan.permutation("congest", round_index, dest,
                                         len(senders))
                new_inboxes[dest] = {senders[j]: inbox[senders[j]]
                                     for j in order}

    # -------------------------------------------------------------- utilities
    def charge_component_aggregation(self, component_size: int) -> None:
        """Charge the Appendix A ``Aprocess`` cost for one component.

        Collecting all information of a connected component of size ``k`` at a
        representative vertex and broadcasting the answer back takes O(k)
        CONGEST rounds (messages travel one hop per round along a spanning
        tree); the framework guarantees ``k = poly(1/eps)``.
        """
        self.counters.add("congest_rounds", 2 * max(1, component_size))
        self.counters.add("congest_aggregation_rounds", 2 * max(1, component_size))

    def _check_size(self, message: object) -> None:
        words = payload_words(message)
        if words is None:
            # a payload the word model cannot size (arbitrary object): it
            # must not slip past the O(log n)-bit limit as "one word"
            self.counters.add("congest_message_violations")
            if self.strict:
                raise MessageTooLarge(
                    f"cannot size a {type(message).__name__} payload; "
                    "CONGEST messages must be tuples of O(log n)-bit words")
            return
        if words > MAX_MESSAGE_WORDS:
            self.counters.add("congest_message_violations")
            if self.strict:
                raise MessageTooLarge(
                    f"message of {words} words exceeds the O(log n)-bit limit")

    def close(self) -> None:
        """End the simulation.

        Under isolation the last round's retained payloads are verified
        here, so mutations after the final round still fail loudly, and
        duplicates still in flight are tallied as expired.
        """
        if self._guard is not None:
            self._guard.verify()
        if self._delayed:
            # duplicates still in flight when the simulation ends: the
            # network never delivered them (a fault in the final round)
            self.counters.add("congest_faults_expired", len(self._delayed))
            self._delayed = []

    @property
    def rounds(self) -> int:
        return int(self.counters.get("congest_rounds"))
