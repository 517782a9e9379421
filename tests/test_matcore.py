"""Dense matrix core: gemm determinism, RNG, file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import FormatError, InputError, ShapeError
from sfk.matcore import _fold_in_order
from conftest import gemm_naive, gemm_rank1, sampled_cols, spread


def test_gemm_matches_naive_oracle_bitwise():
    a = sfk.rand_matrix(7, 13, seed=5)
    b = sfk.rand_matrix(13, 9, seed=6)
    got = sfk.gemm(a, b)
    want = gemm_naive(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


# k reaches past the 8-wide block of numpy's pairwise summation, so a
# reduction over the fast axis in memory would not match the oracle.
@given(m=st.integers(1, 6), k=st.integers(0, 48), n=st.integers(1, 6), seed=st.integers(0, 99),
       neg_zero=st.booleans())
@settings(max_examples=60)
def test_gemm_matches_naive_oracle_property(m, k, n, seed, neg_zero):
    a = spread(m, k, seed, neg_zero)
    b = spread(k, n, seed + 1, neg_zero)
    assert np.array_equal(sfk.gemm(a, b), gemm_naive(a, b))


# gemm's fold chunks k for outputs of 2..2**14 entries and adds one k at
# a time otherwise: single-entry outputs, the cutoff itself and just past
# it.  Both paths tally m * k * n multiplies.
@pytest.mark.parametrize("m,k,n", [
    (1, 40, 1), (1, 41, 2), (2, 40, 1), (40, 41, 1), (1, 40, 37),
    (128, 13, 128), (128, 13, 129), (131, 9, 127), (192, 10, 96),
])
def test_gemm_matches_rank1_oracle_on_both_paths(m, k, n):
    for seed in range(4):
        a = spread(m, k, seed, neg_zero=seed == 3)
        b = spread(k, n, seed + 10, neg_zero=seed == 3)
        want = gemm_rank1(a, b)
        with sfk.count_multiplies() as counter:
            got = sfk.gemm(a, b)
        assert np.array_equal(got, want)
        assert counter.total == m * k * n
        if m * n <= 64:  # cross-check the oracle where the triple loop is cheap
            assert np.array_equal(want, gemm_naive(a, b))


# Sampled outputs of 1 entry, of 2..2**14 entries (folded) and beyond,
# and of no entries (cols of width 0).
@given(
    st.sampled_from([(1, 1), (1, 3), (4, 1), (6, 5), (128, 128), (128, 129), (200, 90), (1, 0), (5, 0)]),
    st.integers(0, 24),
    st.integers(1, 40),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=40)
def test_sampled_gemm_is_the_full_product_bitwise(out_shape, k, n, seed, neg_zero):
    """gemm(a, b, cols) holds entry [i, cols[i, j]] of gemm(a, b), bit for
    bit (-0.0 included), and tallies one multiply per sampled entry and k;
    cols repeat columns within a row."""
    m, h = out_shape
    a = spread(m, k, seed, neg_zero)
    b = spread(k, n, seed + 1, neg_zero)
    cols = sampled_cols(m, n, h, seed + 2, shared=0)
    with sfk.count_multiplies() as counter:
        got = sfk.gemm(a, b, cols)
    assert got.tobytes() == np.take_along_axis(sfk.gemm(a, b), cols, axis=1).tobytes()
    assert counter.total == m * h * k


# _fold_in_order takes the terms in chunks for outputs of 2..2**14
# entries and one at a time otherwise: 1-entry outputs, the rule's edge
# (128 x 128) and just past it.  Past 8 terms, numpy's pairwise sum along
# the fast axis would not match the left fold.
@pytest.mark.parametrize(
    "shape", [(1,), (1, 1), (2,), (1, 2), (3, 5), (2, 3, 4), (128, 128), (128, 129), (1, 2**14 + 1)]
)
@given(st.integers(0, 40), st.integers(0, 10_000), st.booleans())
@settings(max_examples=15)
def test_fold_in_order_is_a_left_fold_from_positive_zero(shape, terms, seed, neg_zero):
    """Every entry is the sum of its terms from +0.0 in term order, bit
    for bit (with neg_zero, entry 0 has only -0.0 terms and sums to
    +0.0); products is asked for each term once, in order, and the tally
    is the sum of what it returned."""
    size = int(np.prod(shape))
    t = spread(terms, size, seed, neg_zero)
    if neg_zero:
        t[:, 0] = -0.0
    t = t.reshape(terms, *shape)
    asked, returned = [], []

    def products(t0, dst):
        asked.append((t0, len(dst)))
        dst[...] = t[t0 : t0 + len(dst)]
        returned.append(3 * len(dst) + t0 % 5)  # not the fold's own count
        return returned[-1]

    with sfk.count_multiplies() as counter:
        got = _fold_in_order(shape, terms, products, "fold")
    want = np.zeros(shape)
    for term in t:
        want = want + term
    assert got.shape == tuple(shape) and got.tobytes() == want.tobytes()
    assert [t0 for t0, _ in asked] == list(np.cumsum([0] + [w for _, w in asked])[:-1])
    assert sum(w for _, w in asked) == terms
    assert counter.total == sum(returned) and counter.per_op.get("fold", 0) == sum(returned)


def test_sampled_gemm_rejects_bad_cols():
    a, b = np.ones((3, 4)), np.ones((4, 5))
    for bad, err in (
        (np.zeros((2, 1), dtype=np.int64), ShapeError),
        (np.zeros(3, dtype=np.int64), ShapeError),
        (np.zeros((3, 1)), InputError),
        (np.full((3, 1), 5), InputError),
        (np.full((3, 1), -1), InputError),
    ):
        with pytest.raises(err):
            sfk.gemm(a, b, bad)


def test_gemm_empty_inner_dim():
    a = np.zeros((3, 0))
    b = np.zeros((0, 2))
    out = sfk.gemm(a, b)
    assert out.shape == (3, 2)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_gemm_shape_error():
    with pytest.raises(ShapeError):
        sfk.gemm(np.ones((2, 3)), np.ones((4, 2)))


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ShapeError):
        sfk.as_matrix(np.ones(4))
    with pytest.raises(ShapeError):
        sfk.as_matrix(np.ones((2, 2, 2)))


def test_rand_matrix_deterministic_and_distinct():
    a = sfk.rand_matrix(16, 16, seed=3)
    b = sfk.rand_matrix(16, 16, seed=3)
    c = sfk.rand_matrix(16, 16, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_matrix_file_roundtrip(tmp_path):
    path = tmp_path / "m.sfk"
    m = sfk.rand_matrix(5, 7, seed=11)
    sfk.save_matrix(m, path)
    back = sfk.load_matrix(path)
    assert np.array_equal(m, back)
    raw = path.read_bytes()
    assert raw[:4] == sfk.matcore.MAGIC == b"SFK1"


def test_matrix_file_rejects_corruption(tmp_path):
    path = tmp_path / "m.sfk"
    sfk.save_matrix(sfk.rand_matrix(4, 4, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        sfk.load_matrix(path)


def test_matrix_file_rejects_truncation(tmp_path):
    path = tmp_path / "m.sfk"
    sfk.save_matrix(sfk.rand_matrix(4, 4, seed=0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        sfk.load_matrix(path)
