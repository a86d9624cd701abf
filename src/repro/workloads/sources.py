"""Stream sources: the workload families as lazy :class:`UpdateStream`\\ s.

A source returns immediately with an ``UpdateStream`` whose iterator
generates updates on demand, so a 10^6-update scenario costs O(window)
memory to replay instead of O(stream).

Families:

* :func:`insertion_only` -- distinct random insertions,
* :func:`sliding_window` -- turnstile stream, live edges bounded by the
  window (the canonical bounded-memory long-stream workload),
* :func:`planted_matching_churn` -- planted perfect matching churned round
  by round (``mu(G) = Theta(n)`` throughout).

Parameter validation is eager (a bad call raises at construction, not on
first iteration); RNG state is created inside the iterator factory, so
re-iterating a stream replays the identical sequence.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

from repro.graph.dynamic_graph import Update
from repro.graph.generators import planted_matching
from repro.utils.seeding import derived_seeds, rng
from repro.workloads.streams import UpdateStream


def insertion_only(n: int, m: int, seed: Optional[int] = None) -> UpdateStream:
    """``min(m, n*(n-1)/2)`` random distinct edge insertions on ``n`` vertices.

    Distinctness requires remembering what was drawn, so this source's
    iterator holds O(#emitted) state -- inherent to the family, not to the
    stream API.
    """
    max_m = n * (n - 1) // 2
    target = min(m, max_m)

    def produce() -> Iterator[Update]:
        stream_rng = rng(seed)
        seen = set()
        emitted = 0
        while emitted < target:
            u, v = stream_rng.randrange(n), stream_rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in seen:
                continue
            seen.add(e)
            emitted += 1
            yield Update.insert(*e)

    return UpdateStream(n, produce, length=target,
                        name=f"insertion_only(n={n}, m={target})")


def sliding_window(n: int, num_updates: int, window: int,
                   seed: Optional[int] = None) -> UpdateStream:
    """Insert random edges; delete each edge ``window`` updates after insertion.

    Live edges never exceed ``window``, so both the iterator state and the
    replayed graph stay O(window) regardless of ``num_updates`` -- this is
    the source behind the million-update replay guarantee.  The effective
    window is capped at ``n * (n - 1) / 2`` (with a larger window every
    possible edge can be live at once with no deletion due, and no fresh
    edge could ever be inserted); ``n < 2`` admits no edge and yields an
    empty stream; ``window < 1`` is rejected outright.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    degenerate = n < 2 or num_updates <= 0
    window = min(window, n * (n - 1) // 2) if not degenerate else window

    def produce() -> Iterator[Update]:
        if degenerate:
            return
        stream_rng = rng(seed)
        emitted = 0
        live: List[Tuple[int, int]] = []
        first = 0  # pop index into live (amortized O(1) window expiry)
        present = set()
        while emitted < num_updates:
            if len(live) - first >= window:
                e = live[first]
                first += 1
                if first > window:  # keep the buffer bounded by the window
                    del live[:first]
                    first = 0
                present.discard(e)
                emitted += 1
                yield Update.delete(*e)
                continue
            u, v = stream_rng.randrange(n), stream_rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e in present:
                continue
            present.add(e)
            live.append(e)
            emitted += 1
            yield Update.insert(*e)

    return UpdateStream(max(n, 0), produce,
                        length=0 if degenerate else num_updates,
                        name=f"sliding_window(n={n}, window={window})")


def planted_matching_churn(n_pairs: int, rounds: int,
                           churn_fraction: float = 0.25,
                           noise_prob: float = 0.02,
                           seed: Optional[int] = None) -> UpdateStream:
    """Workload keeping ``mu(G) = Theta(n)`` while repeatedly breaking the
    matching: a planted perfect matching plus noise is inserted, then for
    ``rounds`` rounds a ``churn_fraction`` of the planted edges is deleted
    and re-inserted.

    ``churn_fraction`` must lie in ``(0, 1]``.  The graph and the churn
    stream draw from two substreams derived independently from ``seed``
    (named ``"graph"`` / ``"churn"``), so the noise edges added during
    construction never perturb which planted edges get churned.  The planted
    graph is built once, eagerly (it is O(m), independent of ``rounds``);
    only the churn rounds are generated lazily.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if not 0.0 < churn_fraction <= 1.0:
        raise ValueError(
            f"churn_fraction must be in (0, 1], got {churn_fraction}")
    seeds = derived_seeds(seed, "graph", "churn")
    graph, planted = planted_matching(n_pairs, extra_edge_prob=noise_prob,
                                      seed=seeds["graph"])
    initial = list(graph.edges())
    k = max(1, int(churn_fraction * len(planted)))

    def produce() -> Iterator[Update]:
        churn_rng = random.Random(seeds["churn"])
        for u, v in initial:
            yield Update.insert(u, v)
        for _ in range(rounds):
            victims = churn_rng.sample(planted, k)
            for u, v in victims:
                yield Update.delete(u, v)
            for u, v in victims:
                yield Update.insert(u, v)

    return UpdateStream(
        graph.n, produce, length=len(initial) + 2 * k * rounds,
        name=f"planted_matching_churn(pairs={n_pairs}, rounds={rounds})")
