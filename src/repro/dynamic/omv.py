"""Online matrix--vector multiplication (OMv) substrate (Section 7.4).

[Liu24] connects dynamic (1+eps)-approximate matching to the *dynamic
approximate OMv* problem (Definitions 7.5/7.6): maintain a Boolean matrix
``M`` under entry updates and answer queries ``v -> Mv`` (allowing
``lambda * n`` Hamming error in the approximate variant).  The true
``n / 2^Omega(sqrt(log n))`` OMv algorithm (Larsen-Williams style) is far
outside the scope of a reproduction; per substitution 4 we provide

* :class:`OMvMatrix` -- an exact dynamic OMv data structure with word-level
  parallelism (rows packed into uint64 words through
  :mod:`repro.core.kernels`), i.e. an honest ~64x constant-factor speed-up
  over the naive bit-by-bit product, with query/update counting;
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

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.graph.backends import edge_endpoint_arrays
from repro.graph.graph import Graph
from repro.instrumentation.counters import Counters
from repro.utils.contracts import hot_path, invalidates

Edge = Tuple[int, int]


class OMvMatrix:
    """Exact dynamic OMv over a Boolean matrix with uint64-packed rows.

    ``update(i, j, b)`` sets ``M[i, j] = b``; ``query(v)`` returns the Boolean
    vector ``M v`` (over the OR/AND semiring).  Work is counted in
    ``omv_updates`` / ``omv_queries`` / ``omv_query_word_ops`` (64-bit words
    touched per query, the packed layout's honest unit of account).

    Rows follow the :mod:`repro.core.kernels` layout contract: little-endian
    uint64 words, ``pack``/``unpack`` only at boundaries, so the first set
    bit of a masked row *is* the minimum restricted neighbour -- the
    deterministic choice the matching extractor relies on.
    """

    def __init__(self, n: int, counters: Optional[Counters] = None) -> None:
        self.n = n
        self.counters = counters if counters is not None else Counters()
        self._words = np.zeros((n, kernels.words_for(n)), dtype=np.uint64)
        # memoised Python-int views of rows, consumed by the scalar-word
        # matching extractor; updates are rare next to extractions, so a
        # wholesale drop on mutation is the right trade
        self._int_rows: Dict[int, int] = {}

    def _int_row(self, i: int) -> int:
        """Row ``i`` as a Python int bitset (memoised until the next update)."""
        row = self._int_rows.get(i)
        if row is None:
            row = self._int_rows[i] = int.from_bytes(
                self._words[i].tobytes(), "little")
        return row

    # ----------------------------------------------------------------- update
    @invalidates("_int_rows")
    @hot_path
    def update(self, i: int, j: int, bit: bool) -> None:
        word, offset = divmod(j, 64)
        mask = np.uint64(1 << offset)
        if bit:
            self._words[i, word] |= mask
        else:
            self._words[i, word] &= ~mask
        self._int_rows = {}
        self.counters.add("omv_updates")

    @hot_path
    def get(self, i: int, j: int) -> bool:
        word, offset = divmod(j, 64)
        return bool((self._words[i, word] >> np.uint64(offset)) & np.uint64(1))

    # ------------------------------------------------------------------ query
    def query(self, v: Sequence[bool]) -> np.ndarray:
        """Return ``M v`` as a boolean numpy array of length ``n``."""
        vec = np.asarray(v, dtype=bool)
        if vec.shape != (self.n,):
            raise ValueError(f"query vector must have length {self.n}")
        return self.query_packed(kernels.pack_indicator(vec))

    @hot_path
    def query_packed(self, packed_v: np.ndarray) -> np.ndarray:
        """``M v`` for an already-packed indicator (no boundary conversion).

        The matching extractor keeps its unmatched-right set packed across a
        whole round loop, so queries pay zero pack/unpack work.  Charged
        identically to :meth:`query` -- it *is* the query, minus the boundary.
        """
        hits = kernels.any_and_rows(self._words, packed_v)
        self.counters.add("omv_queries")
        self.counters.add("omv_query_word_ops", self._words.shape[1] * self.n)
        return hits

    def row_neighbors(self, i: int, restrict: Optional[Sequence[int]] = None) -> List[int]:
        """Indices j with M[i, j] = 1 (optionally restricted); a row probe.

        ``restrict`` may be a vertex sequence, a length-``n`` boolean mask,
        or an already-packed uint64 indicator (the matching extractor keeps
        its unmatched-right set packed, so no per-probe conversion is paid).
        A small vertex sequence touches only the words covering the
        restricted ids -- no full-row unpack.  Counted separately
        (``omv_row_probes``) because Lemma 7.9 uses a small number of these
        per extracted matching edge.
        """
        self.counters.add("omv_row_probes")
        row = self._words[i]
        if restrict is None:
            return kernels.iter_set_bits(row)
        mask = np.asarray(restrict)
        if mask.dtype == np.uint64:
            return kernels.iter_set_bits(row & mask)
        if mask.dtype == np.bool_ and mask.shape == (self.n,):
            return kernels.iter_set_bits(row & kernels.pack_indicator(mask))
        # a handful of vertex ids: gather only their covering words
        idx = np.unique(mask.astype(np.int64))
        hits = kernels.select_bits(row, idx)
        return idx[hits].tolist()

    @classmethod
    def from_graph_bipartite_cover(cls, graph: Graph,
                                   counters: Optional[Counters] = None) -> "OMvMatrix":
        """Adjacency matrix of the bipartite double cover ``B`` of ``graph``.

        Rows are outer copies (``v+``), columns inner copies (``w-``); the
        entry is 1 iff ``{v, w}`` is an edge of ``G`` (Definition 6.3).

        The load is vectorized: bits are scattered straight into the packed
        rows from the graph's edge list (no dense n-by-n intermediate), and
        the work is still charged as one ``omv_updates`` per entry set (2m
        total), matching the per-entry accounting of the incremental
        :meth:`update` path.
        """
        omv = cls(graph.n, counters=counters)
        if graph.m:
            u, w = edge_endpoint_arrays(graph.edge_list())
            rows = np.concatenate([u, w])
            cols = np.concatenate([w, u]).astype(np.int64)
            np.bitwise_or.at(omv._words, (rows, cols >> 6),
                             np.uint64(1) << (cols & 63).astype(np.uint64))
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
    unmatched right neighbour?) with one row probe per newly matched left
    vertex, so the number of OMv queries is O(1) per round and the number of
    row probes is at most the size of the matching found.
    """
    counters = counters if counters is not None else omv.counters
    if omv._words.shape[1] <= _SCALAR_WORD_MAX:
        return _matching_rounds_scalar(omv, left, right, counters)
    # unmatched right vertices live as a *packed* uint64 indicator: it
    # doubles as the OMv query vector and the row-probe restriction, so no
    # per-round pack/unpack conversions are paid
    right_words = kernels.pack_indices(list(right), omv.n)
    unmatched_left: List[int] = list(left)
    matching: List[Edge] = []

    while unmatched_left and right_words.any():
        product = omv.query_packed(right_words)
        # Batch the per-left-vertex row probes into one masked matrix
        # product against the round-start mask: the candidate for u is the
        # first set bit of (row_u AND mask), i.e. u's minimum unmatched
        # right neighbour.  Matching (u, v) clears v from the mask
        # *sequentially*; a round-start candidate still present in the
        # current mask equals the sequential minimum (the mask only
        # shrinks), and a claimed candidate falls back to one fresh
        # single-row probe -- so the batch is byte-identical to the scalar
        # per-vertex loop it replaces.
        left_arr = np.fromiter(unmatched_left, dtype=np.int64,
                               count=len(unmatched_left))
        candidates = kernels.first_set_bits(
            omv._words[left_arr] & right_words[None, :])
        progress = False
        next_left: List[int] = []
        for k, u in enumerate(unmatched_left):
            if not product[u]:
                continue
            # one row probe per still-unmatched productive left vertex,
            # answered from the batch (Lemma 7.9's accounting is unchanged)
            counters.add("omv_row_probes")
            v = int(candidates[k])
            if v < 0 or not kernels.test_bit(right_words, v):
                v = kernels.first_set_bit(omv._words[u] & right_words)
            if v < 0:
                next_left.append(u)
                continue
            matching.append((u, v))
            kernels.clear_bit(right_words, v)
            progress = True
        unmatched_left = next_left if right_words.any() else []
        counters.add("omv_matching_rounds")
        if not progress:
            break
    return matching


#: widest universe (in uint64 words) the scalar-word extractor handles;
#: beyond it the numpy batch path above amortizes its dispatch overhead
_SCALAR_WORD_MAX = 16


def _matching_rounds_scalar(omv: OMvMatrix, left: Sequence[int],
                            right: Sequence[int],
                            counters: Counters) -> List[Edge]:
    """Small-universe fast path of :func:`maximal_matching_via_omv`.

    At bench scale (one or two words per row, ~one round per call) the
    NumPy batch pays more in per-op dispatch than it saves in parallelism.
    Python's arbitrary-precision ints *are* word-parallel bitsets (C limb
    arithmetic), so the frozen left rows are converted once per call and
    every round is plain int AND / lowest-set-bit work.  Results and
    counter charges are byte-identical to the batch path: same candidate
    order, same sequential mask clearing, same per-round accounting.
    """
    word_ops = omv._words.shape[1] * omv.n
    mask = 0
    for v in right:
        mask |= 1 << v
    unmatched_left: List[int] = list(left)
    int_row = omv._int_row
    matching: List[Edge] = []

    while unmatched_left and mask:
        # the per-round masked matrix product (the OMv query) against the
        # round-start mask; charged exactly like query_packed
        counters.add("omv_queries")
        counters.add("omv_query_word_ops", word_ops)
        mask_start = mask
        progress = False
        next_left: List[int] = []
        for u in unmatched_left:
            row = int_row(u)
            if not row & mask_start:
                continue
            counters.add("omv_row_probes")
            hit = row & mask
            if not hit:
                next_left.append(u)
                continue
            low = hit & -hit
            v = low.bit_length() - 1
            matching.append((u, v))
            mask &= ~low
            progress = True
        unmatched_left = next_left if mask else []
        counters.add("omv_matching_rounds")
        if not progress:
            break
    return matching
