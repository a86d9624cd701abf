"""Problem 1 and the dynamic-algorithm protocol.

Problem 1 (Section 7.2) is the interface the reduction of Theorem 7.1 needs:
a fully dynamic graph receives updates in chunks of exactly ``alpha * n``
insertions/deletions (padded with empty updates when necessary); after every
chunk at most ``q`` adaptive vertex-subset queries arrive, each of which must
be answered with the ``Aweak`` guarantee of Definition 6.1.

:class:`Problem1Instance` wires a :class:`~repro.graph.dynamic_graph.DynamicGraph`
to a :class:`~repro.core.oracles.WeakOracle` factory and enforces the chunk /
query discipline, charging query and update work to a counter bag so the
Table 2 benchmarks can report amortized costs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.dynamic_graph import DynamicGraph, Update
from repro.graph.graph import Graph
from repro.matching.matching import Matching
from repro.instrumentation.counters import Counters
from repro.core.oracles import WeakOracle

Edge = Tuple[int, int]


class DynamicMatchingAlgorithm(ABC):
    """Protocol for a fully dynamic (1+eps)-approximate matching algorithm."""

    @abstractmethod
    def update(self, update: Update) -> None:
        """Process one edge update."""

    @abstractmethod
    def current_matching(self) -> Matching:
        """The maintained matching (valid for the current graph)."""

    def charge_update(self, update: Update) -> bool:
        """Shared Table 2 accounting convention for one update.

        EMPTY updates are the padding Problem 1 allows in an update sequence;
        they change nothing, so every maintainer excludes them from *both*
        sides of the amortization (no ``dyn_updates``/``update_work`` charge,
        no processing) and tallies them as ``dyn_empty_updates`` instead.
        Non-empty no-ops are genuine adversarial updates and are charged.

        Returns whether the update should be charged and processed.  Requires
        the maintainer to expose a ``counters`` attribute (they all do).
        """
        if update.kind == Update.EMPTY:
            self.counters.add("dyn_empty_updates")
            return False
        self.counters.add("dyn_updates")
        return True

    def process(self, updates: Iterable[Update], collect_sizes: bool = True):
        """Process a whole sequence or lazy stream of updates.

        With ``collect_sizes`` (the default) returns the matching size after
        each update as a packed int64 NumPy array -- 8 bytes per update
        instead of the ~28-byte ``int`` objects the historical ``List[int]``
        accumulated.  With ``collect_sizes=False`` nothing is accumulated at
        all and ``None`` is returned: combined with a lazy
        :class:`~repro.workloads.streams.UpdateStream` input, a
        million-update replay runs in O(1) extra memory.
        """
        if not collect_sizes:
            for upd in updates:
                self.update(upd)
            return None

        def sizes() -> Iterator[int]:
            for upd in updates:
                self.update(upd)
                yield self.current_matching().size

        return np.fromiter(sizes(), dtype=np.int64)


class Problem1Instance:
    """An instance of Problem 1 with parameters ``(q, lam, delta, alpha)``.

    Parameters
    ----------
    n:
        Number of vertices (the graph starts empty).
    oracle_factory:
        ``oracle_factory(graph) -> WeakOracle`` producing the query answerer
        bound to the instance's current graph.
    q, lam, delta, alpha:
        The Problem 1 parameters; ``alpha * n`` is the chunk size, ``q`` the
        maximum number of queries per chunk, ``delta``/``lam`` the Definition
        6.1 guarantee of each answer.
    counters:
        Work accounting: ``p1_updates``, ``p1_queries``, ``p1_query_work``.
    """

    def __init__(self, n: int,
                 oracle_factory: Callable[[Graph], WeakOracle],
                 q: int, lam: float, delta: float, alpha: float,
                 counters: Optional[Counters] = None) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        self.n = n
        self.dynamic_graph = DynamicGraph(n)
        self.oracle = oracle_factory(self.dynamic_graph.graph)
        self.q = q
        self.lam = lam
        self.delta = delta
        self.alpha = alpha
        self.chunk_size = max(1, int(round(alpha * n)))
        self.counters = counters if counters is not None else Counters()
        self._queries_this_chunk = 0

    # ----------------------------------------------------------------- updates
    def apply_chunk(self, chunk: Sequence[Update]) -> None:
        """Apply one chunk of exactly ``alpha * n`` updates."""
        if len(chunk) != self.chunk_size:
            raise ValueError(
                f"chunks must contain exactly {self.chunk_size} updates, "
                f"got {len(chunk)} (pad with empty updates)")
        for upd in chunk:
            self.dynamic_graph.apply(upd)
            self.counters.add("p1_updates")
        self._queries_this_chunk = 0

    # ----------------------------------------------------------------- queries
    def query(self, subset: Sequence[int]) -> Optional[List[Edge]]:
        """One adaptive ``Aweak`` query (Definition 6.1) on the current graph."""
        if self._queries_this_chunk >= self.q:
            raise RuntimeError(
                f"Problem 1 allows at most q={self.q} queries per chunk")
        self._queries_this_chunk += 1
        self.counters.add("p1_queries")
        self.counters.add("p1_query_work", len(subset))
        return self.oracle.query(subset, self.delta)

    # -------------------------------------------------------------- convenience
    @property
    def graph(self) -> Graph:
        return self.dynamic_graph.graph

    def chunks_from(self, updates: Sequence[Update]) -> List[List[Update]]:
        """Split a raw update sequence into padded chunks of the right size."""
        return DynamicGraph.chunk_updates(updates, self.chunk_size, pad=True)

    def iter_chunks(self, updates: Iterable[Update]) -> Iterator[List[Update]]:
        """Lazily chunk any update iterable/stream to the Problem 1 discipline.

        Every yielded chunk has exactly ``chunk_size`` updates (the final
        short chunk EMPTY-padded); only one chunk is materialized at a time,
        so driving :meth:`apply_chunk` from an
        :class:`~repro.workloads.streams.UpdateStream` never builds the full
        sequence.  The chunk/padding rules live in one place --
        :meth:`UpdateStream.chunks` -- and are delegated to here.
        """
        # imported lazily: the chunking helper is numpy-free, but keeping
        # the dynamic layer's import surface minimal costs nothing
        from repro.workloads.streams import stream_of

        yield from stream_of(updates, n=self.n).chunks(self.chunk_size,
                                                       pad=True)

    def run_stream(self, updates: Iterable[Update]) -> int:
        """Feed a whole stream through the chunk discipline; returns #chunks."""
        count = 0
        for chunk in self.iter_chunks(updates):
            self.apply_chunk(chunk)
            count += 1
        return count
