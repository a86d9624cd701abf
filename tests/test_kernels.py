"""Property tests (hypothesis) for the packed-bitset kernel library.

Every kernel in :mod:`repro.core.kernels` is checked against the obvious
set model: a packed set is just ``{j : bit j set}``, so row intersections,
first-set-bits, gathers and bit mutations must agree with plain Python sets
on arbitrary universes -- including the word-boundary sizes (63, 64, 65,
128, 129) where packing bugs live.  The uint8 fixture test replays
query/probe/matching results recorded from the byte-packed OMv
implementation this library replaced, pinning the uint64 migration to the
old outputs bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.dynamic.omv import OMvMatrix, maximal_matching_via_omv
from repro.instrumentation.counters import Counters

# universes crossing word boundaries are where the bugs are
UNIVERSES = st.integers(min_value=1, max_value=200)


@st.composite
def packed_sets(draw, n=None):
    """(n, sorted index list, packed words) over a small universe."""
    if n is None:
        n = draw(UNIVERSES)
    members = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                            unique=True, max_size=n))
    members = sorted(members)
    return n, members, kernels.pack_indices(members, n)


# --------------------------------------------------------------- boundaries
@given(packed_sets())
@settings(max_examples=200, deadline=None)
def test_pack_unpack_round_trip(case):
    n, members, words = case
    assert words.dtype == np.uint64
    assert words.shape == (kernels.words_for(n),)
    bits = np.unpackbits(words.view("<u1"), bitorder="little")
    # padding bits past n stay zero
    assert np.flatnonzero(bits).tolist() == members
    mask = bits[:n].astype(bool)
    # the indicator pack of the same mask is word-identical
    assert np.array_equal(kernels.pack_indicator(mask), words)


@given(packed_sets())
@settings(max_examples=200, deadline=None)
def test_iter_set_bits_is_sorted_membership(case):
    n, members, words = case
    assert kernels.iter_set_bits(words) == members


# ------------------------------------------------------------ row kernels
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_first_set_bit_is_minimum(data):
    n = data.draw(UNIVERSES)
    _, members, words = data.draw(packed_sets(n=n))
    expected = members[0] if members else -1
    assert kernels.first_set_bit(words) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_batch_rows_agree_with_scalar_kernels(data):
    """first_set_bits / any_and_rows over a matrix == per-row scalar calls."""
    n = data.draw(st.integers(min_value=1, max_value=150))
    rows = [data.draw(packed_sets(n=n)) for _ in
            range(data.draw(st.integers(min_value=1, max_value=6)))]
    _, mask_members, mask = data.draw(packed_sets(n=n))
    matrix = np.stack([words for _, _, words in rows])
    firsts = kernels.first_set_bits(matrix)
    hits = kernels.any_and_rows(matrix, mask)
    for i, (_, members, words) in enumerate(rows):
        assert firsts[i] == (members[0] if members else -1)
        assert bool(hits[i]) == bool(set(members) & set(mask_members))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_select_bits_is_membership_gather(data):
    n = data.draw(UNIVERSES)
    _, members, words = data.draw(packed_sets(n=n))
    probe = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               min_size=1, max_size=20))
    got = kernels.select_bits(words, np.asarray(probe, dtype=np.int64))
    assert got.tolist() == [j in set(members) for j in probe]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bit_mutators_track_model_set(data):
    n = data.draw(UNIVERSES)
    _, members, words = data.draw(packed_sets(n=n))
    model = set(members)
    for _ in range(data.draw(st.integers(min_value=1, max_value=15))):
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        kernels.clear_bit(words, j)
        model.discard(j)
        assert not kernels.test_bit(words, j)
    assert [kernels.test_bit(words, j) for j in range(n)] == \
        [j in model for j in range(n)]
    assert kernels.iter_set_bits(words) == sorted(model)


# ----------------------------------------------------- uint8 -> uint64 pin
def test_uint8_fixture_migration():
    """The uint64 OMv reproduces the byte-packed implementation's outputs.

    ``tests/data/omv_uint8_fixture.npz`` was recorded from the pre-port
    uint8 row layout: per case, a packed matrix plus the results of one
    query, one restricted and one unrestricted row probe, and one
    ``maximal_matching_via_omv`` run.  Bit-level disagreement here means
    the word migration changed observable behaviour somewhere.
    """
    import os
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
            assert kernels.iter_set_bits(omv._words[i]) == \
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

