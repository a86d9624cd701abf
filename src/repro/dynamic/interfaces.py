"""The dynamic-algorithm protocol of Section 7.

Every fully dynamic maintainer (:class:`~repro.dynamic.fully_dynamic.
FullyDynamicMatching`, the McGregor-style comparator in
:mod:`~repro.dynamic.baselines`) implements :class:`DynamicMatchingAlgorithm`:
one ``update`` per edge change, the current matching on demand, and the
shared Table 2 accounting of :meth:`~DynamicMatchingAlgorithm.charge_update`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

import numpy as np

from repro.graph.dynamic_graph import Update
from repro.matching.matching import Matching


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
