"""Tests for the OMv substrate (Section 7.4)."""

import os

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, random_bipartite
from repro.instrumentation.counters import Counters
from repro.dynamic.omv import ApproximateOMv, OMvMatrix, maximal_matching_via_omv
from repro.matching.hopcroft_karp import hopcroft_karp


class TestOMvMatrix:
    def test_update_get_query(self):
        omv = OMvMatrix(5)
        omv.update(0, 3, True)
        omv.update(2, 4, True)
        assert omv.get(0, 3) and not omv.get(3, 0)
        v = np.zeros(5, dtype=bool)
        v[3] = True
        result = omv.query(v)
        assert result.tolist() == [True, False, False, False, False]
        omv.update(0, 3, False)
        assert not omv.query(v).any()

    def test_query_matches_dense_product(self):
        # a one-word universe and an 18-word one (64-bit words)
        for n, density in ((37, 0.2), (1100, 0.005)):
            rng = np.random.default_rng(0)
            dense = rng.random((n, n)) < density
            omv = OMvMatrix(n)
            for i, j in zip(*np.nonzero(dense)):
                omv.update(int(i), int(j), True)
            for _ in range(5):
                v = rng.random(n) < 0.3
                expected = dense @ v > 0
                assert np.array_equal(omv.query(v), expected)

    def test_query_rejects_wrong_length(self):
        omv = OMvMatrix(4)
        with pytest.raises(ValueError):
            omv.query(np.zeros(3, dtype=bool))

    def test_counters(self):
        counters = Counters()
        omv = OMvMatrix(4, counters=counters)
        omv.update(0, 1, True)
        omv.query(np.zeros(4, dtype=bool))
        omv.row_neighbors(0)
        assert counters.get("omv_updates") == 1
        assert counters.get("omv_queries") == 1
        assert counters.get("omv_row_probes") == 1

    def test_row_neighbors_with_restriction(self):
        omv = OMvMatrix(6)
        omv.update(2, 1, True)
        omv.update(2, 4, True)
        assert omv.row_neighbors(2) == [1, 4]
        assert omv.row_neighbors(2, restrict=[4, 5]) == [4]

    def test_from_graph_bipartite_cover(self):
        g = erdos_renyi(10, 0.3, seed=1)
        omv = OMvMatrix.from_graph_bipartite_cover(g)
        for u, v in g.edges():
            assert omv.get(u, v) and omv.get(v, u)
        assert not omv.get(0, 0)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda omv: omv.update(0, 12, True), id="update-column-past-n"),
        pytest.param(lambda omv: omv.update(10, 0, True), id="update-row-past-n"),
        pytest.param(lambda omv: omv.update(-1, 0, True), id="update-negative-row"),
        pytest.param(lambda omv: omv.get(0, 12), id="get-column-past-n"),
        pytest.param(lambda omv: omv.get(-1, 9), id="get-negative-row"),
        pytest.param(lambda omv: omv.row_neighbors(-1), id="probe-negative-row"),
        pytest.param(lambda omv: omv.row_neighbors(0, restrict=[-1]),
                     id="probe-negative-restriction"),
        pytest.param(lambda omv: omv.row_neighbors(0, restrict=[12]),
                     id="probe-restriction-past-n"),
        pytest.param(lambda omv: omv.row_neighbors(
            0, restrict=np.ones(11, dtype=bool)), id="probe-mask-past-n"),
        pytest.param(lambda omv: maximal_matching_via_omv(omv, [-1], [9]),
                     id="match-negative-left"),
        pytest.param(lambda omv: maximal_matching_via_omv(omv, [0], [12]),
                     id="match-right-past-n"),
    ])
    def test_rejects_indices_outside_the_matrix(self, call):
        omv = OMvMatrix(10)
        omv.update(0, 9, True)
        with pytest.raises(ValueError):
            call(omv)
        assert omv.row_neighbors(0) == [9]


class TestApproximateOMv:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            ApproximateOMv(4, 1.0)

    def test_buffers_then_flushes(self):
        counters = Counters()
        aomv = ApproximateOMv(10, lam=0.2, counters=counters)
        # up to lam*n = 2 dirty rows may stay stale
        aomv.update(0, 1, True)
        aomv.update(1, 2, True)
        v = np.zeros(10, dtype=bool)
        v[1] = True
        aomv.query(v)
        # exceeding the budget forces a flush
        aomv.update(2, 3, True)
        aomv.update(3, 4, True)
        result = aomv.query(v)
        assert counters.get("omv_flushes") >= 1
        assert result[0]  # the flushed entry is now visible

    def test_force_flush(self):
        aomv = ApproximateOMv(5, lam=0.5)
        aomv.update(0, 1, True)
        aomv.force_flush()
        assert aomv.exact.get(0, 1)

    @pytest.mark.parametrize("flush", [
        lambda aomv: aomv.query(np.zeros(10, dtype=bool)),
        lambda aomv: aomv.force_flush()], ids=["query", "force_flush"])
    @pytest.mark.parametrize("bad", [(0, 12), (-1, 3), (np.int64(10), 0)],
                             ids=["column-past-n", "negative-row", "numpy-row"])
    def test_bad_update_raises_before_buffering(self, flush, bad):
        counters = Counters()
        aomv = ApproximateOMv(10, lam=0.0, counters=counters)
        aomv.update(0, 1, True)
        with pytest.raises(ValueError, match="outside"):
            aomv.update(*bad, True)
        assert counters.get("omv_approx_updates") == 1
        flush(aomv)
        assert aomv.exact.get(0, 1) and counters.get("omv_updates") == 1
        # nothing is left pending: the next query applies nothing
        flushes = counters.get("omv_flushes")
        aomv.query(np.zeros(10, dtype=bool))
        assert counters.get("omv_flushes") == flushes
        assert counters.get("omv_updates") == 1
        aomv.update(np.int64(2), np.int64(3), True)  # NumPy ids are entries
        aomv.force_flush()
        assert aomv.exact.row_neighbors(2) == [3]


class TestOMvMatching:
    def test_matches_hopcroft_karp_size_on_bipartite(self):
        # the last graph's rows span 18 words of 64 bits (1,110 vertices)
        cases = [(10, 12, 0.25, seed) for seed in range(3)]
        cases.append((550, 560, 0.005, 0))
        for n_left, n_right, p, seed in cases:
            g, left, right = random_bipartite(n_left, n_right, p, seed=seed)
            omv = OMvMatrix(g.n)
            for u, v in g.edges():
                omv.update(u, v, True)
                omv.update(v, u, True)
            # NumPy ids must not reach the bit shifts as int64
            matching = maximal_matching_via_omv(omv, np.asarray(left),
                                                np.asarray(right))
            # maximal matching: at least half of the optimum
            opt = hopcroft_karp(g).size
            assert 2 * len(matching) >= opt
            left_set, right_set = set(left), set(right)
            used = set()
            for u, v in matching:
                assert u in left_set and v in right_set
                assert g.has_edge(u, v)
                assert u not in used and v not in used
                used.update((u, v))

    def test_empty_sides(self):
        omv = OMvMatrix(4)
        assert maximal_matching_via_omv(omv, [], [1]) == []
        assert maximal_matching_via_omv(omv, [0], []) == []


def test_uint8_fixture_migration():
    """The int-row OMv reproduces the byte-packed implementation's outputs.

    ``tests/data/omv_uint8_fixture.npz`` was recorded from an earlier uint8
    row layout: per case, a packed matrix plus the results of one query,
    one restricted and one unrestricted row probe, and one
    ``maximal_matching_via_omv`` run.  Bit-level disagreement here means a
    change of row layout changed observable behaviour somewhere.
    """
    data = np.load(os.path.join(os.path.dirname(__file__), "data",
                                "omv_uint8_fixture.npz"))
    for case in range(int(data["num_cases"])):
        def field(name):
            return data[f"c{case}_{name}"]

        n = int(field("n"))
        dense = np.unpackbits(field("packed_u8"), axis=1,
                              bitorder="little")[:, :n].astype(bool)
        omv = OMvMatrix(n, counters=Counters())
        for i, j in zip(*np.nonzero(dense)):
            omv.update(int(i), int(j), True)
        for i in range(n):
            assert omv.row_neighbors(i) == \
                sorted(np.flatnonzero(dense[i]).tolist())

        assert omv.query(field("qmask")).tolist() == \
            field("product").tolist()
        row = int(field("row"))
        assert omv.row_neighbors(row, field("restrict").tolist()) == \
            field("row_neighbors").tolist()
        assert omv.row_neighbors(row) == field("row_all").tolist()
        got = maximal_matching_via_omv(omv, field("left").tolist(),
                                       field("right").tolist())
        assert [list(edge) for edge in got] == field("matching").tolist()
