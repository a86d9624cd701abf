"""A round-synchronous CONGEST simulator.

CONGEST (Section 3.4): the communication network *is* the input graph; per
round every vertex may send O(log n) bits along each incident edge.  As with
the MPC simulator, what the reproduction needs is the *cost model*: round
counts (and message volume) of the Theta(1)-approximate matching oracle and of
the per-component aggregation ``Aprocess`` (Appendix A, Corollary A.2).

The algorithm computes every vertex's outbox itself (in vertex order, in
this process) and hands all of them to :meth:`CongestSimulator.round` at
once -- the bulk barrier of :class:`~repro.mpc.simulator.MPCSimulator`.  An
outbox is a ``dest`` column plus zero or more int field columns; the barrier
copies every column (:func:`~repro.exec.columns.copy_columns`) before it
checks or delivers anything.  Every message of a round carries the round's
tag, sized once with the shared word convention
(:func:`~repro.exec.payload_words`), so a message is ``tag words + field
count`` words against the per-edge limit :data:`MAX_MESSAGE_WORDS`; a tag
the model cannot size is rejected under ``strict=True`` instead of slipping
past the O(log n)-bit limit as "one word".

The exchange checks every message in sender order and then message order
-- edge first (``has_edge``, at most one message per edge and round), then
size -- so the first offending message decides what is raised.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Set, Tuple

from repro.exec import payload_words
from repro.exec.columns import Outbox, copy_columns, fault_positions, take
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.resilience.faults import FaultPlan

#: one vertex's inbox: a ``sender`` column, then one column per int field
Inbox = Tuple[array, ...]

#: messages are limited to this many machine words (= O(log n) bits each)
MAX_MESSAGE_WORDS = 4


class MessageTooLarge(RuntimeError):
    """Raised when a vertex tries to send more than O(log n) bits on an edge."""


class CongestSimulator:
    """Synchronous message passing on the edges of a fixed graph.

    ``fault_plan`` injects deterministic message faults at the exchange
    barrier (:class:`~repro.resilience.faults.FaultPlan`), at the sites
    ``("congest", round, sender, dest, slot)``: a checked message can be
    dropped or delivered twice in the same round, picked by its column
    position, and a receiver's inbox can be permuted.  Injections count as
    ``congest_faults_dropped`` / ``congest_faults_duplicated`` /
    ``congest_faults_reordered``; the ``congest_messages`` cost counter
    keeps charging what the vertices *sent* -- faults model the network,
    not the algorithm's cost.
    """

    def __init__(self, graph: Graph, counters: Optional[Counters] = None,
                 strict: bool = True,
                 fault_plan: Optional["FaultPlan"] = None) -> None:
        self.graph = graph
        self.counters = counters if counters is not None else Counters()
        self.strict = strict
        self._faults = fault_plan
        self._fault_round = 0

    # ----------------------------------------------------------------- rounds
    def round(self, outboxes: Sequence[Optional[Outbox]],
              tag: object) -> List[Inbox]:
        """Execute one synchronous round as a bulk exchange of int columns.

        ``outboxes[v]`` is vertex ``v``'s outbox: a ``dest`` column followed
        by the round's int field columns (none for a tag-only message), all
        of equal length; message ``k`` goes to the neighbour ``dest[k]``.  A
        missing outbox (``None`` or no columns, or an index past the end of
        ``outboxes``) is an empty one.  Every sender of a round sends the
        same number of fields, ``width``.

        Each message is checked in sender order and then message order:
        its edge (a non-neighbour, or a second message on one edge in the
        round, raises :class:`ValueError`), then its size,
        ``payload_words(tag) + width`` against :data:`MAX_MESSAGE_WORDS`.
        An oversized message counts in ``congest_message_violations``; it
        raises :class:`MessageTooLarge` under ``strict`` and is delivered
        otherwise.

        Returns one inbox per vertex: ``width + 1`` ``array('q')`` columns,
        the senders first and then the fields of the messages delivered to
        it, in sender order.  The round and the messages sent are charged
        to ``congest_rounds`` and ``congest_messages``.
        """
        graph = self.graph
        n = graph.n
        if len(outboxes) > n:
            raise ValueError(f"{len(outboxes)} outboxes for {n} vertices")
        sent, width = copy_columns(outboxes, "vertex")
        tag_words = payload_words(tag)
        oversized = tag_words is None or tag_words + width > MAX_MESSAGE_WORDS
        has_edge = graph.has_edge
        total = 0
        for sender, copies in enumerate(sent):
            if not copies:
                continue
            used: Set[int] = set()
            for target in copies[0]:
                if not has_edge(sender, target):
                    raise ValueError(f"vertex {sender} tried to message "
                                     f"non-neighbor {target}")
                if target in used:
                    raise ValueError(f"vertex {sender} sent a second "
                                     f"message to {target} in one round")
                used.add(target)
                if oversized:
                    self._oversized(tag, tag_words, width)
            total += len(copies[0])

        plan = self._faults
        round_index = self._fault_round
        if plan is not None:
            # drops and duplicates pick positions of the barrier's copies
            for sender, copies in enumerate(sent):
                if copies:
                    sent[sender] = take(copies, fault_positions(
                        plan, "congest", round_index, sender, copies[0],
                        self.counters))
        inboxes = list(zip(*[[array("q") for _ in range(n)]
                             for _ in range(width + 1)]))
        for sender, copies in enumerate(sent):
            if not copies:
                continue
            dest, fields = copies[0], copies[1:]
            for k, target in enumerate(dest):
                inbox = inboxes[target]
                inbox[0].append(sender)
                for column, field in zip(inbox[1:], fields):
                    column.append(field[k])
        if plan is not None:
            for dest, inbox in enumerate(inboxes):
                count = len(inbox[0])
                if count > 1 and plan.reorders_round("congest", round_index,
                                                     dest):
                    self.counters.add("congest_faults_reordered")
                    inboxes[dest] = tuple(take(inbox, plan.permutation(
                        "congest", round_index, dest, count)))
        self._fault_round += 1
        self.counters.add("congest_rounds")
        self.counters.add("congest_messages", total)
        return inboxes

    def _oversized(self, tag: object, tag_words: Optional[int],
                   width: int) -> None:
        """Count one message over the O(log n)-bit limit; raise if strict."""
        self.counters.add("congest_message_violations")
        if not self.strict:
            return
        if tag_words is None:
            raise MessageTooLarge(
                f"cannot size a {type(tag).__name__} tag; CONGEST messages "
                "must be O(log n)-bit words")
        raise MessageTooLarge(f"message of {tag_words + width} words "
                              "exceeds the O(log n)-bit limit")

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

    @property
    def rounds(self) -> int:
        return int(self.counters.get("congest_rounds"))
