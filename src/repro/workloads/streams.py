"""Lazy update streams: the workload abstraction of the dynamic stack.

The Section 7 algorithms are defined over *update sequences* (Problem 1:
chunks of ``alpha * n`` insertions/deletions).  An :class:`UpdateStream` is
such a sequence made lazy: a re-iterable producer of
:class:`~repro.graph.dynamic_graph.Update` values over a known vertex count
``n``, yielding updates on demand instead of materializing a Python list.
Million-update scenarios therefore cost O(1) extra memory to *describe* and
O(chunk) to *replay* -- the consuming layers (``DynamicGraph.apply_all``,
``DynamicMatchingAlgorithm.process``, ``Problem1Instance.iter_chunks``)
accept any iterable and never build the full list.

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
* **Composable.**  Combinators (:meth:`concat`, :func:`interleave`,
  :meth:`rate_limit`, :meth:`chunks`, :meth:`take`) build new scenarios as
  one-liners while preserving laziness; ``chunks`` enforces the exact
  Problem 1 discipline (every chunk exactly ``chunk_size`` updates, the tail
  padded with EMPTY updates).

``length`` is a best-effort hint (``None`` when the producer cannot know it
without running); nothing downstream may rely on it for correctness.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence

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

    # ---------------------------------------------------------- construction
    @staticmethod
    def from_updates(n: int, updates: Sequence[Update],
                     name: str = "literal") -> "UpdateStream":
        """Wrap an already materialized sequence (bridge from the old API)."""
        updates = list(updates)
        return UpdateStream(n, lambda: iter(updates), length=len(updates),
                            name=name)

    @staticmethod
    def empty(n: int) -> "UpdateStream":
        return UpdateStream(n, lambda: iter(()), length=0, name="empty")

    # ----------------------------------------------------------- combinators
    def concat(self, *others: "UpdateStream") -> "UpdateStream":
        """This stream followed by ``others``, lazily; ``n`` is the max."""
        return concat(self, *others)

    def take(self, count: int) -> "UpdateStream":
        """At most the first ``count`` updates."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")

        def produce() -> Iterator[Update]:
            it = iter(self)
            for _ in range(count):
                try:
                    yield next(it)
                except StopIteration:
                    return

        length = None if self._length is None else min(self._length, count)
        return UpdateStream(self.n, produce, length=length,
                            name=f"take({count}, {self.name})")

    def rate_limit(self, real_per_window: int, window: int) -> "UpdateStream":
        """Cap the density of real updates: within every window of ``window``
        update slots at most ``real_per_window`` are real; the remaining
        slots are EMPTY padding (the Problem 1 throttling device -- an
        adversary restricted to a fixed update rate).

        The output interleaves deterministically: each window emits its real
        updates first, then the padding.
        """
        if not 0 < real_per_window <= window:
            raise ValueError(
                f"need 0 < real_per_window <= window, got "
                f"{real_per_window} / {window}")

        def produce() -> Iterator[Update]:
            it = iter(self)
            while True:
                real: List[Update] = []
                for upd in it:
                    real.append(upd)
                    if len(real) == real_per_window:
                        break
                if not real:
                    return
                yield from real
                if len(real) == real_per_window:
                    for _ in range(window - real_per_window):
                        yield Update.empty()
                # a short final window is not padded: the stream ends

        return UpdateStream(
            self.n, produce, length=None,
            name=f"rate_limit({real_per_window}/{window}, {self.name})")

    def chunks(self, chunk_size: int, pad: bool = True) -> Iterator[List[Update]]:
        """Yield lists of exactly ``chunk_size`` updates, lazily.

        The Problem 1 discipline: when ``pad`` is true (the default) the
        final short chunk is padded with EMPTY updates so *every* chunk has
        exactly ``chunk_size`` entries.  Only one chunk is materialized at a
        time.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        chunk: List[Update] = []
        for upd in self:
            chunk.append(upd)
            if len(chunk) == chunk_size:
                yield chunk
                chunk = []
        if chunk:
            if pad:
                chunk.extend(Update.empty()
                             for _ in range(chunk_size - len(chunk)))
            yield chunk

    def chunked(self, chunk_size: int) -> "UpdateStream":
        """Flat stream whose length is a multiple of ``chunk_size`` (EMPTY
        padded), i.e. ``chunks`` re-flattened -- convenient when a consumer
        wants the padded sequence itself rather than the chunk lists."""

        def produce() -> Iterator[Update]:
            for chunk in self.chunks(chunk_size, pad=True):
                yield from chunk

        return UpdateStream(self.n, produce, length=None,
                            name=f"chunked({chunk_size}, {self.name})")

    # -------------------------------------------------------- materialization
    def materialize(self) -> List[Update]:
        """The full update list (only for small streams / the legacy API)."""
        return list(self)

    def count(self) -> int:
        """Consume one iteration and count the updates."""
        return sum(1 for _ in self)


def concat(*streams: UpdateStream) -> UpdateStream:
    """All streams in order; ``n`` is the maximum of the parts."""
    if not streams:
        raise ValueError("concat needs at least one stream")

    def produce() -> Iterator[Update]:
        for stream in streams:
            yield from stream

    lengths = [s.length for s in streams]
    length = None if any(l is None for l in lengths) else sum(lengths)
    return UpdateStream(max(s.n for s in streams), produce, length=length,
                        name=f"concat({', '.join(s.name for s in streams)})")


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


def stream_of(source: "UpdateStream | Iterable[Update]",
              n: Optional[int] = None) -> UpdateStream:
    """Coerce a stream-or-iterable into an :class:`UpdateStream`.

    Plain iterables (lists, generators) need an explicit ``n``; passing a
    one-shot iterator produces a one-shot stream (re-iteration yields
    nothing), so prefer real streams or sequences anywhere replay matters.
    """
    if isinstance(source, UpdateStream):
        return source
    if n is None:
        raise ValueError("wrapping a plain iterable needs an explicit n")
    if isinstance(source, Sequence):
        return UpdateStream.from_updates(n, source)
    return UpdateStream(n, lambda: iter(source), name="iterable")
