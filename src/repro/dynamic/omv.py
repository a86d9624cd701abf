"""Online matrix--vector multiplication (OMv) substrate (Section 7.4).

[Liu24] connects dynamic (1+eps)-approximate matching to the *dynamic
approximate OMv* problem (Definitions 7.5/7.6): maintain a Boolean matrix
``M`` under entry updates and answer queries ``v -> Mv`` (allowing
``lambda * n`` Hamming error in the approximate variant).  The true
``n / 2^Omega(sqrt(log n))`` OMv algorithm (Larsen-Williams style) is far
outside the scope of a reproduction; per substitution 4 we provide

* :class:`OMvMatrix` -- an exact dynamic OMv data structure whose rows are
  Python int bitsets (bit ``j`` of row ``i`` is ``M[i, j]``), so a row
  product is word-parallel int arithmetic rather than a bit-by-bit scan,
  with query/update counting;
* :class:`ApproximateOMv` -- the (1 - lambda)-approximate wrapper of
  Definition 7.6: it may leave up to ``lambda * n`` coordinates stale between
  expensive refreshes, trading accuracy for cheaper amortized work exactly as
  the reduction permits;
* :func:`maximal_matching_via_omv` -- the Lemma 7.9-flavoured routine: find an
  (almost) maximal matching of an induced bipartite subgraph using only OMv
  queries and row probes.

The Table 2 OMv benchmark reports the *counted* OMv queries/updates and the
amortized work, which is where the paper's poly(1/eps)-vs-exponential
improvement shows up; the absolute n-dependence of the substrate is documented
as substituted.
"""

from __future__ import annotations

from operator import index
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.utils.contracts import hot_path

Edge = Tuple[int, int]


def _indicator_bits(mask: np.ndarray) -> int:
    """A boolean vector as an int bitset: bit ``j`` set iff ``mask[j]``."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


class OMvMatrix:
    """Exact dynamic OMv over a Boolean matrix with int bitset rows.

    ``update(i, j, b)`` sets ``M[i, j] = b``; ``query(v)`` returns the Boolean
    vector ``M v`` (over the OR/AND semiring).  Work is counted in
    ``omv_updates`` / ``omv_queries`` / ``omv_query_word_ops``; a query is
    charged ``ceil(n / 64)`` 64-bit words per row, the words a word-parallel
    product touches.

    Row ``i`` is one int with bit ``j`` set iff ``M[i, j] = 1``, so the lowest
    set bit of a masked row *is* the minimum restricted neighbour -- the
    deterministic choice the matching extractor relies on.  A row or column
    outside ``[0, n)`` raises ``ValueError``, here and in
    :func:`maximal_matching_via_omv`.
    """

    def __init__(self, n: int, counters: Optional[Counters] = None) -> None:
        self.n = n
        self.counters = counters if counters is not None else Counters()
        self._rows: List[int] = [0] * n
        self._query_word_ops = ((n + 63) >> 6) * n

    def _index(self, k: int) -> int:
        """``k`` as a Python int, checked to lie in ``[0, n)``."""
        k = index(k)
        if not 0 <= k < self.n:
            raise ValueError(f"index {k} lies outside [0, {self.n})")
        return k

    # ----------------------------------------------------------------- update
    @hot_path
    def update(self, i: int, j: int, bit: bool) -> None:
        i, j = self._index(i), self._index(j)
        if bit:
            self._rows[i] |= 1 << j
        else:
            self._rows[i] &= ~(1 << j)
        self.counters.add("omv_updates")

    @hot_path
    def get(self, i: int, j: int) -> bool:
        return bool(self._rows[self._index(i)] >> self._index(j) & 1)

    # ------------------------------------------------------------------ query
    def query(self, v: Sequence[bool]) -> np.ndarray:
        """Return ``M v`` as a boolean numpy array of length ``n``."""
        vec = np.asarray(v, dtype=bool)
        if vec.shape != (self.n,):
            raise ValueError(f"query vector must have length {self.n}")
        mask = _indicator_bits(vec)
        self.counters.add("omv_queries")
        self.counters.add("omv_query_word_ops", self._query_word_ops)
        return np.fromiter((bool(row & mask) for row in self._rows),
                           dtype=bool, count=self.n)

    def row_neighbors(self, i: int, restrict: Optional[Sequence[int]] = None) -> List[int]:
        """Indices j with M[i, j] = 1 (optionally restricted); a row probe.

        ``restrict`` may be a vertex sequence or a length-``n`` boolean mask.
        Counted separately (``omv_row_probes``) because Lemma 7.9 uses a
        small number of these per extracted matching edge.
        """
        row = self._rows[self._index(i)]
        if restrict is not None:
            ids = np.asarray(restrict)
            if ids.dtype == np.bool_:
                if ids.shape != (self.n,):
                    raise ValueError(f"restriction mask must have length {self.n}")
                row &= _indicator_bits(ids)
            else:
                mask = 0
                for j in ids.tolist():
                    mask |= 1 << self._index(j)
                row &= mask
        self.counters.add("omv_row_probes")
        out: List[int] = []
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return out

    @classmethod
    def from_graph_bipartite_cover(cls, graph: Graph,
                                   counters: Optional[Counters] = None) -> "OMvMatrix":
        """Adjacency matrix of the bipartite double cover ``B`` of ``graph``.

        Rows are outer copies (``v+``), columns inner copies (``w-``); the
        entry is 1 iff ``{v, w}`` is an edge of ``G`` (Definition 6.3).

        The rows are filled straight from the graph's edge list, and the
        work is charged as one ``omv_updates`` per entry set (2m total),
        matching the per-entry accounting of the incremental :meth:`update`
        path.
        """
        omv = cls(graph.n, counters=counters)
        rows = omv._rows
        for u, w in graph.edge_list():
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        if graph.m:
            omv.counters.add("omv_updates", 2 * graph.m)
        return omv


class ApproximateOMv:
    """(1 - lambda)-approximate dynamic OMv (Definition 7.6).

    Updates are buffered; a query answers from the last materialised matrix
    plus the buffered rows, and is allowed to be stale on at most
    ``lambda * n`` coordinates, which lets it skip refreshing rows whose
    buffered updates are few.  This mirrors the error budget the reduction of
    Theorem 7.10 grants the OMv algorithm.
    """

    def __init__(self, n: int, lam: float,
                 counters: Optional[Counters] = None) -> None:
        if not 0 <= lam < 1:
            raise ValueError("lambda must lie in [0, 1)")
        self.n = n
        self.lam = lam
        self.counters = counters if counters is not None else Counters()
        self._exact = OMvMatrix(n, counters=self.counters)
        self._dirty_rows: Set[int] = set()
        self._pending: Dict[Tuple[int, int], bool] = {}

    def update(self, i: int, j: int, bit: bool) -> None:
        """Buffer ``M[i, j] = bit``; an entry outside the matrix raises
        ``ValueError`` here, before anything is buffered or charged."""
        i, j = self._exact._index(i), self._exact._index(j)
        self._pending[(i, j)] = bit
        self._dirty_rows.add(i)
        self.counters.add("omv_approx_updates")

    def _flush_if_needed(self) -> None:
        budget = int(self.lam * self.n)
        if len(self._dirty_rows) > budget:
            for (i, j), bit in self._pending.items():
                self._exact.update(i, j, bit)
            self._pending.clear()
            self._dirty_rows.clear()
            self.counters.add("omv_flushes")

    def query(self, v: Sequence[bool]) -> np.ndarray:
        """Return a vector within Hamming distance ``lambda * n`` of ``M v``."""
        self._flush_if_needed()
        self.counters.add("omv_approx_queries")
        return self._exact.query(v)

    def force_flush(self) -> None:
        for (i, j), bit in self._pending.items():
            self._exact.update(i, j, bit)
        self._pending.clear()
        self._dirty_rows.clear()

    @property
    def exact(self) -> OMvMatrix:
        return self._exact


def maximal_matching_via_omv(omv: OMvMatrix, left: Sequence[int],
                             right: Sequence[int],
                             counters: Optional[Counters] = None) -> List[Edge]:
    """Find a maximal matching of the bipartite subgraph rows ``left`` x cols
    ``right`` using OMv queries and row probes (Lemma 7.9 flavour).

    The loop alternates a single OMv query (which left vertices still have an
    unmatched right neighbour?) with one row probe per left vertex the query
    reports, so the number of OMv queries is O(1) per round; a probe either
    matches its vertex or finds every candidate claimed earlier in the round.

    The unmatched right vertices are one int bitset: it is both the query
    vector and the probe restriction, so no round converts anything.  A
    round's query is charged like :meth:`OMvMatrix.query` and answered
    against the round-start mask.  Each productive left vertex is then
    probed against the current mask, which only shrinks as the round
    matches vertices, and takes its lowest set bit: its minimum unmatched
    right neighbour.  An id outside ``[0, n)`` raises ``ValueError``.
    """
    counters = counters if counters is not None else omv.counters
    mask = 0
    for v in right:
        mask |= 1 << omv._index(v)
    rows = omv._rows
    unmatched_left: List[int] = [omv._index(u) for u in left]
    matching: List[Edge] = []

    while unmatched_left and mask:
        counters.add("omv_queries")
        counters.add("omv_query_word_ops", omv._query_word_ops)
        mask_start = mask
        progress = False
        next_left: List[int] = []
        for u in unmatched_left:
            row = rows[u]
            if not row & mask_start:
                continue
            counters.add("omv_row_probes")
            hit = row & mask
            if not hit:
                next_left.append(u)
                continue
            low = hit & -hit
            matching.append((u, low.bit_length() - 1))
            mask ^= low
            progress = True
        unmatched_left = next_left if mask else []
        counters.add("omv_matching_rounds")
        if not progress:
            break
    return matching
