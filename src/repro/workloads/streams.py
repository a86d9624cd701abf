"""Lazy update streams: the workload abstraction of the dynamic stack.

The Section 7 algorithms are defined over *update sequences* (Problem 1:
chunks of ``alpha * n`` insertions/deletions).  An :class:`UpdateStream` is
such a sequence made lazy: a re-iterable producer of
:class:`~repro.graph.dynamic_graph.Update` values over a known vertex count
``n``, yielding updates on demand instead of materializing a Python list.
Million-update scenarios therefore cost O(1) extra memory to *describe*, and
a replay holds only the producer's own state -- the consuming layers
(``DynamicGraph.apply_all``, ``DynamicMatchingAlgorithm.process``,
``Trace.record``) accept any iterable and never build the full list.

Design rules:

* **Re-iterable.**  A stream wraps a factory, not an iterator: every
  ``iter(stream)`` restarts the producer from scratch (fresh RNG state
  derived from the same seed), so a stream can be recorded to a
  :class:`~repro.workloads.trace.Trace`, replayed through several
  maintainers and benchmarked with warmup repeats, all yielding identical
  sequences.
* **Known ``n``.**  Algorithms need the vertex count before the first
  update; ``stream.n`` carries it (generators used to smuggle it through
  ``(n, updates)`` tuples).
* **Lazy merges.**  :func:`interleave` merges streams round-robin without
  materializing any of them.

``length`` is a best-effort hint (``None`` when the producer cannot know it
without running); nothing downstream may rely on it for correctness.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.graph.dynamic_graph import Update

StreamFactory = Callable[[], Iterator[Update]]


class UpdateStream:
    """A lazy, re-iterable sequence of edge updates over ``n`` vertices."""

    def __init__(self, n: int, factory: StreamFactory,
                 length: Optional[int] = None, name: str = "stream") -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.n = n
        self.name = name
        self._factory = factory
        self._length = length

    # ------------------------------------------------------------- protocol
    def __iter__(self) -> Iterator[Update]:
        return self._factory()

    @property
    def length(self) -> Optional[int]:
        """Declared number of updates, or ``None`` when unknown up front."""
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        size = "?" if self._length is None else str(self._length)
        return f"UpdateStream({self.name!r}, n={self.n}, length={size})"

    # -------------------------------------------------------- materialization
    def materialize(self) -> List[Update]:
        """The full update list (only for small streams / the legacy API)."""
        return list(self)


def interleave(*streams: UpdateStream) -> UpdateStream:
    """Round-robin merge: one update from each live stream in turn.

    Exhausted streams drop out; the merge ends when every part is done.
    Models concurrent update sources (e.g. an insertion-only feed racing a
    churn feed) without materializing either.
    """
    if not streams:
        raise ValueError("interleave needs at least one stream")

    def produce() -> Iterator[Update]:
        iterators = [iter(s) for s in streams]
        while iterators:
            still_live = []
            for it in iterators:
                try:
                    yield next(it)
                except StopIteration:
                    continue
                still_live.append(it)
            iterators = still_live

    lengths = [s.length for s in streams]
    length = None if any(l is None for l in lengths) else sum(lengths)
    return UpdateStream(
        max(s.n for s in streams), produce, length=length,
        name=f"interleave({', '.join(s.name for s in streams)})")
