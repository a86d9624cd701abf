"""Counters used to reproduce the paper's complexity tables.

The paper's quantitative claims are about *counts*: how many times the
Theta(1)-approximate matching oracle is invoked (Table 1), how many rounds the
MPC/CONGEST instantiations need, how much amortized work a dynamic update
costs (Table 2).  Every algorithm in the library therefore accepts a
:class:`Counters` object and increments named counters; the benchmark harness
reads them back and prints the tables.

Counters are plain dictionaries with helpers -- no globals, no thread state --
so that parallel benchmark runs never interfere.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Mapping, Optional, Union


class Counters:
    """A named-counter bag.

    Canonical counter names used across the library:

    ``oracle_calls``
        invocations of the Theta(1)-approximate matching oracle ``Amatching``
        (the quantity of Theorem 1.1 / Table 1);
    ``weak_oracle_calls``
        invocations of the weak induced-subgraph oracle ``Aweak``
        (Theorem 6.2 / Table 2);
    ``oracle_edges_seen`` / ``oracle_vertices_seen``
        total size of the derived graphs handed to the oracle;
    ``mpc_rounds`` / ``congest_rounds`` / ``messages``
        simulated rounds and message volume of the model substrates;
    ``passes``
        semi-streaming passes over the edge stream;
    ``phases`` / ``pass_bundles`` / ``stages`` / ``iterations``
        schedule progress of the framework;
    ``augmentations`` / ``contractions`` / ``overtakes`` / ``backtracks``
        basic-operation counts (Section 4.5);
    ``update_work``
        abstract work units charged to dynamic updates (Table 2).
    """

    def __init__(self) -> None:
        self._counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ basic
    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counts[name] += amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def reset(self, name: Optional[str] = None) -> None:
        if name is None:
            self._counts.clear()
        else:
            self._counts.pop(name, None)

    def merge(self, other: Union["Counters", Mapping[str, float]]) -> None:
        """Add every counter of ``other`` (a bag or a plain mapping) into this.

        Accepting mappings is what lets parallel workers ship snapshots home
        as plain dicts (the JSON-record form) and the parent recombine them
        exactly: counters are pure sums, so a partitioned run merges to the
        same totals as a serial one.
        """
        items = other._counts.items() if isinstance(other, Counters) else other.items()
        for key, value in items:
            self._counts[str(key)] += value

    @classmethod
    def from_dict(cls, counts: Mapping[str, float]) -> "Counters":
        """Rebuild a bag from a worker snapshot (``as_dict`` round-trip)."""
        c = cls()
        c.merge(counts)
        return c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return dict(self._counts) == dict(other._counts)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"Counters({inner})"
