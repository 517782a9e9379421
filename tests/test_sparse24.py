"""2:4 packing, soft-threshold math, packed kernels, and the S24F format."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sfk
from sfk import CorruptionError, FormatError, InputError, ShapeError, sparse24
from sfk.sparse24 import S24_MAGIC, Sparse24Matrix, s24_from_bytes, s24_to_bytes
from conftest import (
    assert_spmm24_tn_is_gemm,
    dealt_bank,
    gemm_naive,
    sampled_cols,
    sparsify24_backward_oracle,
    sparsify24_oracle,
    spread,
)

finite = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False, width=64)


def groups_of(a):
    return np.asarray(a, dtype=np.float64).reshape(a.shape[0], -1, 4)


# ---------------------------------------------------------------- packing ---


@pytest.mark.parametrize("mode", sfk.MODES)
def test_group_constraint_and_roundtrip(mode):
    for seed in range(10):
        a = sfk.rand_matrix(8, 24, seed=seed)
        s = sfk.sparsify24(a, mode)
        d = sfk.decode24(s)
        assert d.shape == a.shape
        assert (np.count_nonzero(groups_of(d), axis=2) <= 2).all()
        # decoding what we packed and re-packing greedily is value-lossless
        again = sfk.sparsify24(d, sfk.GREEDY_MAGNITUDE)
        assert np.array_equal(sfk.decode24(again), d)


def test_greedy_keeps_top2_values_unchanged():
    a = sfk.rand_matrix(6, 16, seed=42)
    d = sfk.decode24(sfk.sparsify24(a, sfk.GREEDY_MAGNITUDE))
    for g_in, g_out in zip(groups_of(a).reshape(-1, 4), groups_of(d).reshape(-1, 4)):
        order = np.argsort(-np.abs(g_in), kind="stable")
        keep = set(order[:2])
        for i in range(4):
            assert g_out[i] == (g_in[i] if i in keep else 0.0)


def test_greedy_tie_break_prefers_lower_index():
    a = np.array([[2.0, -2.0, 2.0, 2.0]])
    d = sfk.decode24(sfk.sparsify24(a, sfk.GREEDY_MAGNITUDE))
    assert np.array_equal(d, [[2.0, -2.0, 0.0, 0.0]])
    s = sfk.sparsify24(a, sfk.GREEDY_MAGNITUDE)
    assert np.array_equal(sfk.kept_mask(s), [[True, True, False, False]])


def test_meta_is_two_ascending_slots_per_group():
    a = sfk.rand_matrix(4, 16, seed=1)
    s = sfk.sparsify24(a)
    mask = sfk.kept_mask(s)
    assert mask.shape == a.shape
    assert (mask.reshape(4, -1, 4).sum(axis=2) == 2).all()
    d = sfk.decode24(s)
    assert np.array_equal(d[~mask], np.zeros((~mask).sum()))


def test_sparsify_rejects_bad_inputs():
    with pytest.raises(InputError):
        sfk.sparsify24(np.ones((4, 4)), mode="bogus")
    with pytest.raises(ShapeError):
        sfk.sparsify24(np.ones((4, 6)))


@pytest.mark.parametrize("mode", sfk.MODES)
def test_sparsify24_rejects_a_matrix_with_no_rows(mode):
    # flat group indexing would build a 0-row pack, which the constructor
    # and the S24F reader refuse
    with pytest.raises(ShapeError):
        sfk.sparsify24(np.zeros((0, 8)), mode)


def oracle_input(rows, cols, seed, kind):
    """A sparsify24 input: spread magnitudes (with or without -0.0),
    small integers full of ties and signed zeros, or, with "nonfinite",
    ties mixed with NaN and +-inf."""
    if kind in ("spread", "neg_zero"):
        return spread(rows, cols, seed, kind == "neg_zero")
    g = np.random.Generator(np.random.PCG64(seed))
    if kind == "ties":
        return g.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(rows, cols))
    return g.choice([-1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan], size=(rows, cols))


@given(
    rows=st.integers(1, 5),
    groups=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["spread", "neg_zero", "ties", "nonfinite"]),
)
@settings(max_examples=80)
def test_sparsify24_is_the_per_row_oracle_bitwise(rows, groups, seed, kind):
    """Flat group indexing keeps the oracle's one stable sort, so values
    (-0.0, NaN and +-inf included) and slots are the oracle's bit for bit."""
    a = oracle_input(rows, 4 * groups, seed, kind)
    for mode in sfk.MODES:
        with np.errstate(invalid="ignore"):  # inf - inf in the soft shrink
            s = sfk.sparsify24(a, mode)
            values, slots = sparsify24_oracle(a, mode)
        assert s.values.tobytes() == values.tobytes()
        assert np.array_equal(s.slots, slots)


@given(
    rows=st.integers(1, 5),
    groups=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["spread", "neg_zero", "ties", "nonfinite"]),
    grad_kind=st.sampled_from(["spread", "neg_zero", "ties"]),
)
@settings(max_examples=80)
def test_sparsify24_backward_is_the_dense_oracle_bitwise(rows, groups, seed, kind, grad_kind):
    """On finite inputs the flat backward, which reads only the kept and
    threshold slots, is the dense-group oracle bit for bit, signed zeros
    of the coupling term included.  With NaN and +-inf in the input it
    picks the oracle's threshold slot, position 2 of the stable
    magnitude order that sparsify24 sorts by (a NaN sorts last): NaNs
    fall where the oracle's do, and every other entry is the oracle's
    bit for bit."""
    a = oracle_input(rows, 4 * groups, seed, kind)
    grad = oracle_input(rows, 4 * groups, seed + 1, grad_kind)
    for mode in sfk.MODES:
        with np.errstate(invalid="ignore"):  # inf - inf and NaN arithmetic
            s = sfk.sparsify24(a, mode)
            got = sfk.sparsify24_backward(a, s, grad, mode)
            want = sparsify24_backward_oracle(a, s, grad, mode)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def test_soft_backward_drops_a_nan_as_sparsify24_does():
    """The soft backward reads the threshold slot sparsify24 sorted to
    position 2, and a NaN sorts below every number: in [3, 1, nan, 0.5]
    the NaN is dropped and 0.5 is the threshold, so both survivors pass
    their gradient and 0.5 collects the coupling."""
    a = np.array([[3.0, 1.0, np.nan, 0.5]])
    s = sfk.sparsify24(a, sfk.SOFT_THRESHOLD)
    assert s.slots.tolist() == [[0, 1]]
    got = sfk.sparsify24_backward(a, s, np.ones((1, 4)), sfk.SOFT_THRESHOLD)
    assert got.tolist() == [[1.0, 1.0, 0.0, -2.0]]


def test_soft_backward_needs_the_pack_the_soft_sparsify24_built():
    """The soft pack carries its threshold slots, through reencode24 too;
    a soft backward on any other pack (greedy, built by the constructor
    or read from S24F) raises InputError, and the greedy backward still
    takes every pack."""
    a, g = sfk.rand_matrix(4, 8, seed=1), sfk.rand_matrix(4, 8, seed=2)
    soft = sfk.sparsify24(a, sfk.SOFT_THRESHOLD)
    want = sfk.sparsify24_backward(a, soft, g, sfk.SOFT_THRESHOLD)
    got = sfk.sparsify24_backward(a, sfk.reencode24(np.ones((4, 8)), soft), g, sfk.SOFT_THRESHOLD)
    assert got.tobytes() == want.tobytes()
    others = (sfk.sparsify24(a, sfk.GREEDY_MAGNITUDE), Sparse24Matrix(4, 8, soft.values, soft.slots),
              s24_from_bytes(s24_to_bytes(soft)))
    for other in others:
        with pytest.raises(InputError):
            sfk.sparsify24_backward(a, other, g, sfk.SOFT_THRESHOLD)
        greedy = sfk.sparsify24_backward(a, other, g, sfk.GREEDY_MAGNITUDE)
        assert np.array_equal(greedy, np.where(sfk.kept_mask(other), g, 0.0))


def test_reencode_reuses_mask_with_new_values():
    a = sfk.rand_matrix(4, 8, seed=3)
    s = sfk.sparsify24(a)
    fresh = sfk.rand_matrix(4, 8, seed=4)
    r = sfk.reencode24(fresh, s)
    mask = sfk.kept_mask(s)
    assert np.array_equal(sfk.decode24(r), np.where(mask, fresh, 0.0))
    assert np.array_equal(r.abs_columns(), s.abs_columns())


def test_pack_structure_is_checked_once_when_built():
    """Bad in-group indices fail at construction; afterwards the slots and
    columns are read-only, and a re-encoded pack shares them."""
    for bad in ([[1, 1]], [[2, 1]], [[2, 4]], [[-1, 2]]):
        with pytest.raises(CorruptionError):
            Sparse24Matrix(1, 4, np.ones((1, 2)), np.array(bad))
    s = sfk.sparsify24(sfk.rand_matrix(4, 8, seed=0))
    for arr in (s.abs_columns(), s.slots):
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert sfk.reencode24(np.ones((4, 8)), s).abs_columns() is s.abs_columns()


def test_sparsify24_skips_the_slot_check_the_constructor_and_reader_keep(monkeypatch):
    """sparsify24's slots are two sorted picks of 0..3 by construction, so
    it builds its pack unchecked; the constructor and the S24F reader
    still reject slots that are not two strictly increasing indices."""
    good = sfk.sparsify24(sfk.rand_matrix(2, 8, seed=0))
    blob = bytearray(s24_to_bytes(good))
    meta = 20 + good.values.nbytes  # row 0's metadata byte: the slots of groups 0 and 1
    for bad in (0b0101, 0b0110):  # group 0 holding slots (1, 1), then (2, 1)
        blob[meta] = (blob[meta] & 0xF0) | bad
        with pytest.raises(CorruptionError):
            s24_from_bytes(bytes(blob))
    with pytest.raises(CorruptionError):
        Sparse24Matrix(2, 8, good.values, np.array([[1, 1, 0, 1], [0, 1, 0, 1]]))

    def refuse(self):
        raise AssertionError("sparsify24 re-checked the slots it sorted")

    monkeypatch.setattr(Sparse24Matrix, "__post_init__", refuse)
    s = sfk.sparsify24(sfk.rand_matrix(2, 8, seed=0))
    assert np.array_equal(s.abs_columns(), good.abs_columns())
    for arr in (s.abs_columns(), s.slots):
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_only_the_s24f_codec_packs_2bit_indices(monkeypatch):
    """A recipe step never touches the 2-bit metadata encoding."""
    def refuse(*args):
        raise AssertionError("2-bit indices packed or unpacked outside the S24F codec")

    monkeypatch.setattr(sparse24, "_unpack_indices", refuse)
    monkeypatch.setattr(sparse24, "_pack_indices", refuse)
    pol = sfk.default_sparse_policy()
    x, p = sfk.rand_matrix(16, 16, seed=0), sfk.init_ffn_params(16, 32, 16, seed=1)
    y3, tape = sfk.ffn_forward(x, p, pol, bank=sfk.cluster_columns(p.w1, pol.router, seed=3))
    sfk.ffn_backward(y3, tape, p, pol)
    with pytest.raises(AssertionError):
        s24_to_bytes(tape.w1.own)


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_group_constraint_property(seed):
    a = sfk.rand_matrix(4, 8, seed=seed)
    for mode in sfk.MODES:
        d = sfk.decode24(sfk.sparsify24(a, mode))
        assert (np.count_nonzero(groups_of(d), axis=2) <= 2).all()


# ------------------------------------------------------------------- soft ---


def test_soft_threshold_group_formula():
    g = np.array([3.0, -1.0, 2.0, 0.5])
    # second-smallest magnitude is 1.0: survivors shrink toward zero by 1.0
    assert np.array_equal(sfk.soft_threshold(g[None, :]).ravel(), [2.0, 0.0, 1.0, 0.0])
    assert np.array_equal(sfk.soft_threshold(g[None, :]), [[2.0, 0.0, 1.0, 0.0]])


@given(st.lists(finite, min_size=4, max_size=4))
def test_soft_threshold_shrinks_and_sparsifies(vals):
    g = np.array(vals)
    out = sfk.soft_threshold(g[None, :]).ravel()
    assert np.count_nonzero(out) <= 2
    assert (np.abs(out) <= np.abs(g) + 1e-12).all()
    assert (np.sign(out[out != 0]) == np.sign(g[out != 0])).all()


@given(st.lists(finite, min_size=4, max_size=4), st.integers(0, 3), st.floats(1e-9, 1e-6))
def test_soft_threshold_is_lipschitz_2(vals, idx, eps):
    g = np.array(vals)
    bumped = g.copy()
    bumped[idx] += eps
    delta = np.abs(sfk.soft_threshold(bumped[None, :]) - sfk.soft_threshold(g[None, :])).ravel()
    assert delta.max() <= 2 * eps + 1e-15


def test_hard_mask_exhibits_jump_where_soft_does_not():
    # crossing the tie for second place flips the hard mask discontinuously
    lo = np.array([[5.0, 1.0 - 1e-9, 1.0, 0.1]])
    hi = np.array([[5.0, 1.0 + 1e-9, 1.0, 0.1]])
    hard_jump = np.abs(
        sfk.decode24(sfk.sparsify24(hi, sfk.GREEDY_MAGNITUDE))
        - sfk.decode24(sfk.sparsify24(lo, sfk.GREEDY_MAGNITUDE))
    ).max()
    soft_jump = np.abs(sfk.soft_threshold(hi) - sfk.soft_threshold(lo)).max()
    assert hard_jump > 0.5
    assert soft_jump <= 2e-9


def test_soft_threshold_backward_matches_finite_differences():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        a = rng.normal(size=(2, 8))
        # keep clear of ties so the a.e. derivative applies
        mags = np.sort(np.abs(a).reshape(-1, 4), axis=1)
        if (np.diff(mags, axis=1) < 1e-4).any() or (mags[:, 0] < 1e-4).any():
            continue
        g = rng.normal(size=(2, 8))
        da = sfk.soft_threshold_backward(a, g)
        h = 1e-7
        fd = np.zeros_like(a)
        for i in np.ndindex(a.shape):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            fd[i] = np.sum(g * (sfk.soft_threshold(ap) - sfk.soft_threshold(am))) / (2 * h)
        assert np.abs(fd - da).max() < 1e-6


def test_mass_kept_fraction_bounds():
    a = sfk.rand_matrix(8, 16, seed=5)
    greedy = sfk.mass_kept_fraction(a, sfk.decode24(sfk.sparsify24(a, sfk.GREEDY_MAGNITUDE)))
    soft = sfk.mass_kept_fraction(a, sfk.decode24(sfk.sparsify24(a, sfk.SOFT_THRESHOLD)))
    assert 0.0 < soft < greedy < 1.0
    assert sfk.mass_kept_fraction(a, a) == 1.0
    with pytest.raises(ShapeError):
        sfk.mass_kept_fraction(np.ones((4, 8)), np.ones((2, 4)))


# ---------------------------------------------------------------- kernels ---


def test_packed_kernels_match_decode_then_gemm():
    a = sfk.rand_matrix(12, 16, seed=7)
    s = sfk.sparsify24(a)
    d = sfk.decode24(s)
    b = sfk.rand_matrix(16, 5, seed=8)
    lhs = sfk.rand_matrix(9, 12, seed=9)
    c = sfk.rand_matrix(12, 4, seed=10)
    assert np.array_equal(sfk.spmm24(s, b), sfk.gemm(d, b))
    assert np.array_equal(sfk.spmm24_rhs(lhs, s), sfk.gemm(lhs, d))
    assert np.array_equal(sfk.spmm24_tn(s, c), sfk.gemm(d.T, c))
    np.testing.assert_allclose(sfk.spmm24(s, b), gemm_naive(d, b), rtol=0.0, atol=1e-10)


@given(st.integers(0, 5_000))
@settings(max_examples=30)
def test_packed_kernel_oracle_property(seed):
    a = sfk.rand_matrix(4, 8, seed=seed)
    s = sfk.sparsify24(a, sfk.MODES[seed % 2])
    b = sfk.rand_matrix(8, 3, seed=seed + 1)
    np.testing.assert_allclose(
        sfk.spmm24(s, b), sfk.gemm(sfk.decode24(s), b), rtol=0.0, atol=1e-10
    )


@given(
    st.integers(1, 9),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 10_000),
    st.sampled_from(["normal", "relu", "zeros"]),
)
@settings(max_examples=60)
def test_transposed_kernels_pin_summation_order(rows, groups, n, seed, kind):
    """spmm24_rhs and spmm24_tn accumulate k ascending, so each is
    bitwise gemm on the decoded matrix.  One row leaves half the output
    rows of spmm24_tn unhit; "zeros" packs store nothing but zeros."""
    a = sfk.rand_matrix(rows, 4 * groups, seed=seed)
    a = {"normal": a, "relu": np.maximum(a, 0.0), "zeros": np.zeros_like(a)}[kind]
    s = sfk.sparsify24(a, sfk.MODES[seed % 2])
    lhs = sfk.rand_matrix(n, rows, seed=seed + 1)
    c = sfk.rand_matrix(rows, n, seed=seed + 2)
    assert np.array_equal(sfk.spmm24_rhs(lhs, s), sfk.gemm(lhs, sfk.decode24(s)))
    assert np.array_equal(sfk.spmm24_tn(s, c), sfk.gemm(sfk.decode24(s).T, c))


# spmm24 and spmm24_rhs fold outputs of 2 to 2**14 entries in chunks;
# past that spmm24 adds one term at a time, as it does for 1 x 1 outputs,
# and spmm24_rhs runs the rank walk.  The cases are 1 x 1 and small
# outputs, the cutoff itself (128 x 128) and just past it, each tallying
# one multiply per kept slot and column.  spmm24_rhs's shapes are (m,
# groups), for an m x 4*groups output, so it has no 1 x 1 case.  Up to
# 24 terms reach past the 8-wide block of numpy's pairwise summation.
@given(
    st.sampled_from([(1, 1), (1, 2), (2, 1), (5, 3), (128, 128), (128, 129), (129, 128)]),
    st.integers(1, 12),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=40)
def test_spmm24_is_gemm_bitwise_on_both_sides_of_the_fold_cutoff(out_shape, groups, seed, neg_zero):
    rows, n = out_shape
    s = sfk.sparsify24(spread(rows, 4 * groups, seed, neg_zero), sfk.MODES[seed % 2])
    b = spread(4 * groups, n, seed + 1, neg_zero)
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24(s, b)
    assert np.array_equal(got, sfk.gemm(sfk.decode24(s), b))
    assert counter.total == rows * 2 * groups * n


# With ``venom`` the pack is V:N:M (M = 8, V = 4 when k allows it), whose
# width rounds 4 * groups up to a multiple of 8.
@given(
    st.sampled_from([(1, 1), (2, 1), (3, 2), (7, 5), (128, 32), (129, 32), (128, 33)]),
    st.integers(1, 24),
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=40)
def test_spmm24_rhs_is_gemm_bitwise_on_both_sides_of_the_fold_cutoff(out_shape, k, seed, neg_zero, venom):
    m, groups = out_shape
    if venom:
        w = spread(k, 8 * -(-groups // 2), seed, neg_zero)
        s = sfk.venom_encode(w, sfk.VenomParams(4 if k % 4 == 0 else 1, 8))
    else:
        s = sfk.sparsify24(spread(k, 4 * groups, seed, neg_zero), sfk.MODES[seed % 2])
    a = spread(m, k, seed + 1, neg_zero)
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24_rhs(a, s)
    assert np.array_equal(got, sfk.gemm(a, sfk.decode24(s)))
    assert counter.total == m * s.values.size


# Sampled outputs of 1 entry to past 2**14.  Rows of their own are
# single-entry units of the rank walk (folded up to 2**10 units, by prefix
# past it); rows sharing one of ``shared`` column lists are a row walk
# each (folded up to 2**14 entries, by prefix past it).
@given(
    st.sampled_from([(1, 1), (1, 3), (4, 1), (6, 5), (40, 60), (128, 128), (128, 129), (200, 90)]),
    st.integers(1, 24),
    st.integers(1, 12),
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from([0, 1, 3]),
)
@settings(max_examples=60)
def test_sampled_spmm24_rhs_is_the_full_product_bitwise(out_shape, k, groups, seed, neg_zero, shared):
    """spmm24_rhs(a, s, cols=cols) holds entry [i, cols[i, j]] of
    spmm24_rhs(a, s), bit for bit (-0.0 included), and multiplies only
    where row k of s keeps column cols[i, j]; cols repeat columns within
    a row."""
    m, h = out_shape
    s = sfk.sparsify24(spread(k, 4 * groups, seed, neg_zero), sfk.MODES[seed % 2])
    a = spread(m, k, seed + 1, neg_zero)
    cols = sampled_cols(m, 4 * groups, h, seed + 2, shared)
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24_rhs(a, s, cols=cols)
    assert got.tobytes() == np.take_along_axis(sfk.spmm24_rhs(a, s), cols, axis=1).tobytes()
    assert counter.total == int(sfk.kept_mask(s)[:, cols].sum())


# spmm24_tn folds cols x n outputs of up to 2**14 entries by rank pass
# and adds one pass at a time to a prefix otherwise: small outputs, the
# cutoff itself (128 x 128) and just past it in rows and in columns.  A
# 1-row pack leaves half the output rows unhit; with ``unkept``, columns
# 2 and 3 of every other group are zero, so no row keeps them.
@given(
    st.sampled_from([(4, 1), (8, 3), (36, 5), (128, 128), (132, 128), (128, 129)]),
    st.sampled_from([1, 2, 7, 24]),
    st.integers(0, 10_000),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=60)
def test_spmm24_tn_is_gemm_bitwise_on_both_sides_of_the_fold_cutoff(out_shape, rows, seed, neg_zero, unkept):
    cols, n = out_shape
    a = spread(rows, cols, seed, neg_zero)
    if unkept:
        groups_of(a)[:, ::2, 2:] = 0.0
    s = sfk.sparsify24(a, sfk.MODES[seed % 2])
    assert_spmm24_tn_is_gemm(s, spread(rows, n, seed + 1, neg_zero), inf_row=seed % rows)


@pytest.mark.parametrize(
    "rows,shared", [(4, 0), (200, 1), (200, 0), (2, 1), (3, 1), (6, 2), (1100, 1)]
)
def test_sampled_spmm24_rhs_touches_only_kept_slots(rows, shared):
    """An infinite a[:, 3] meets only the weights row 3 keeps: a sampled
    entry whose column row 3 drops stays finite, as in the full kernel,
    on every path; multiplying a dropped slot's +0.0 would make it NaN.
    Rows of their own are entry units (folded for 4 rows, by prefix for
    200); rows sharing a list are one row walk each (folded for 2, 3,
    4 + 2 and 200 rows, by prefix for 1,100), whose padding must gather
    the all-zero row appended to a[rows].T, never its infinite row 3."""
    s = sfk.sparsify24(sfk.rand_matrix(8, 16, seed=4))
    a = sfk.rand_matrix(rows, 8, seed=5)
    a[:, 3] = np.inf
    cols = sampled_cols(rows, 16, 16, seed=6, shared=shared)
    got = sfk.spmm24_rhs(a, s, cols=cols)
    np.testing.assert_array_equal(got, np.take_along_axis(sfk.spmm24_rhs(a, s), cols, axis=1))
    dropped = ~sfk.kept_mask(s)[3][cols]
    assert dropped.any() and np.isfinite(got[dropped]).all()


# The sampled spmm24_rhs splits cols into runs of equal adjacent rows: a
# run of sparse24._GROUP_ROWS rows or more is a row walk of its own, and
# every other row (shorter runs, and rows equal to others that are not
# next to them) joins the one entry walk.  Runs of 1, 2 and one short of,
# at and one past the rule, with lists that recur after other lists.
RULE = sparse24._GROUP_ROWS


@given(
    st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, 2, RULE - 1, RULE, RULE + 1])),
             min_size=1, max_size=5),
    st.integers(1, 24),
    st.sampled_from([1, 5, 16]),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=40)
def test_sampled_spmm24_rhs_splits_runs_of_equal_rows_by_size(runs, k, h, seed, neg_zero):
    """Bitwise gemm on the decoded operand, with the kept-slot tally, on
    both sides of the size rule; one row walk per run at the rule or past
    it, over that run's rows."""
    s = sfk.sparsify24(spread(k, 16, seed, neg_zero), sfk.MODES[seed % 2])
    lists = sampled_cols(4, 16, h, seed + 1, shared=0)
    lists[:, 0] = np.arange(4)  # four different lists
    index = np.concatenate([np.full(n, i) for i, n in runs])
    cols = lists[index]
    a = spread(len(cols), k, seed + 2, neg_zero)
    merged = np.diff(np.flatnonzero(np.diff(index, prepend=-1, append=-1)))  # adjacent runs of one list join
    walks = []
    real = sparse24._rank_walk

    def recorded(tables, b, cols, label, at=None):
        if at is None:
            walks.append(b.shape[1])
        return real(tables, b, cols, label, at)

    with pytest.MonkeyPatch.context() as mp, sfk.count_multiplies() as counter:
        mp.setattr(sparse24, "_rank_walk", recorded)
        got = sfk.spmm24_rhs(a, s, cols=cols)
    assert got.tobytes() == sfk.gemm(a, sfk.decode24(s), cols).tobytes()
    assert counter.total == int(sfk.kept_mask(s)[:, cols].sum())
    assert walks == [n for n in merged.tolist() if n >= RULE]


def test_sampled_spmm24_rhs_on_top2_routed_rows():
    """Top-2 routing in routing order: tokens of one primary expert are
    adjacent, but their second experts interleave, so equal column lists
    are not all adjacent.  The routed product is bitwise gemm on the
    decoded operand."""
    bank = dealt_bank(8, 64, 16, 4, seed=1)
    x = sfk.rand_matrix(96, 8, seed=2)
    plan = sfk.route_tokens(x, bank, top_k=2)
    cols = sfk.routed_columns(plan, bank)[plan.permutation]
    xp = sfk.apply_permutation(x, plan)
    rows = [r.tobytes() for r in cols]
    run_lists = [rows[i] for i in range(len(rows)) if i == 0 or rows[i] != rows[i - 1]]
    assert len(run_lists) > len(set(run_lists))  # a list recurs after another one
    s = sfk.sparsify24(sfk.rand_matrix(8, 64, seed=3), sfk.SOFT_THRESHOLD)
    got = sfk.spmm24_rhs(xp, s, cols=cols)
    assert got.tobytes() == sfk.gemm(xp, sfk.decode24(s), cols).tobytes()


def test_a_pack_of_new_values_reuses_the_column_structure():
    """spmm24_tn keeps its pack's column structure, with_values (and so
    reencode24) hands it on, and the new pack's tables hold its own
    values: spmm24_tn on it is still gemm on the decoded operand.  The
    sampled spmm24_rhs keeps no structure on the pack it reads."""
    for s in (sfk.sparsify24(sfk.rand_matrix(12, 16, seed=4)),
              sfk.venom_encode(sfk.rand_matrix(12, 16, seed=4), sfk.VenomParams(4, 8))):
        b = sfk.rand_matrix(12, 3, seed=5)
        sfk.spmm24_tn(s, b)
        other = s.with_values(sfk.rand_matrix(*s.values.shape, seed=6))
        assert other.__dict__["_by_column"] is s.__dict__["_by_column"]
        assert sfk.spmm24_tn(other, b).tobytes() == sfk.gemm(sfk.decode24(other).T, b).tobytes()
    w = sfk.sparsify24(sfk.rand_matrix(8, 16, seed=7))
    sfk.spmm24_rhs(sfk.rand_matrix(3, 8, seed=8), w, cols=np.zeros((3, 2), dtype=np.int64))
    assert "_by_column" not in w.__dict__


@pytest.mark.parametrize("m", [0, 1, 3])
def test_sampled_spmm24_rhs_on_an_empty_column_list(m):
    """cols of shape (m, 0): one row is an entry walk with no units, and
    3 rows sharing the empty list a row walk with none; either way the
    product is m x 0, like gemm's, and nothing is multiplied."""
    s = sfk.sparsify24(sfk.rand_matrix(8, 16, seed=4))
    a = sfk.rand_matrix(4, 8, seed=5)[:m]
    cols = np.zeros((m, 0), dtype=np.int64)
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24_rhs(a, s, cols=cols)
    assert got.shape == (m, 0) and counter.total == 0
    assert got.tobytes() == sfk.gemm(a, sfk.decode24(s), cols).tobytes()


# spmm24_tn and the sampled spmm24_rhs are one rank walk: with every
# column sampled for each of n rows, spmm24_rhs(b.T, s, cols) is
# spmm24_tn(s, b).T.  One row takes the entry walk, whose fold stops past
# 2**10 units (1,024 columns against 1,028 and 1,032); n >= 2 rows share
# one list and take the row walk, as spmm24_tn does, whose fold stops
# past 2**14 entries (128 x 128 against 132 and 136 x 128 and 128 x 129).
# A V:N:M pack (M = 8, V = 4 when the rows allow it) needs cols % 8 == 0.
@given(
    st.sampled_from(
        [(8, 1), (1024, 1), (1028, 1), (1032, 1), (8, 2), (12, 5), (128, 128), (132, 128), (136, 128), (128, 129)]
    ),
    st.sampled_from([1, 3, 8]),
    st.booleans(),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=40)
def test_spmm24_tn_is_the_sampled_spmm24_rhs_on_every_column(shape, rows, venom, seed, neg_zero):
    cols, n = shape
    assume(not venom or cols % 8 == 0)
    w = spread(rows, cols, seed, neg_zero)
    if venom:
        s = sfk.venom_encode(w, sfk.VenomParams(4 if rows % 4 == 0 else 1, 8))
    else:
        s = sfk.sparsify24(w, sfk.MODES[seed % 2])
    b = spread(rows, n, seed + 1, neg_zero)
    with sfk.count_multiplies() as tn:
        want = sfk.spmm24_tn(s, b)
    with sfk.count_multiplies() as rhs:
        got = sfk.spmm24_rhs(b.T, s, cols=np.tile(np.arange(cols), (n, 1)))
    assert got.T.tobytes() == want.tobytes()
    assert rhs.total == tn.total == s.values.size * n


def test_kernel_shape_errors():
    s = sfk.sparsify24(sfk.rand_matrix(4, 8, seed=0))
    with pytest.raises(ShapeError):
        sfk.spmm24(s, np.ones((7, 2)))
    with pytest.raises(ShapeError):
        sfk.spmm24_rhs(np.ones((2, 3)), s)
    with pytest.raises(ShapeError):
        sfk.spmm24_rhs(np.ones((2, 4)), s, cols=np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(InputError):
        sfk.spmm24_rhs(np.ones((2, 4)), s, cols=np.full((2, 1), 8))
    with pytest.raises(ShapeError):
        sfk.spmm24_tn(s, np.ones((3, 2)))


# ----------------------------------------------------------------- format ---


def test_s24_file_roundtrip(tmp_path):
    s = sfk.sparsify24(sfk.rand_matrix(6, 12, seed=2), sfk.SOFT_THRESHOLD)
    path = tmp_path / "s.s24"
    sfk.save_s24(s, path)
    back = sfk.load_s24(path)
    assert (back.rows, back.cols) == (s.rows, s.cols)
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.abs_columns(), s.abs_columns())
    assert path.read_bytes()[:4] == S24_MAGIC == b"S24F"


def test_s24_bytes_roundtrip():
    s = sfk.sparsify24(sfk.rand_matrix(5, 8, seed=3))
    back = s24_from_bytes(s24_to_bytes(s))
    assert np.array_equal(sfk.decode24(back), sfk.decode24(s))


def test_s24_rejects_corruption(tmp_path):
    s = sfk.sparsify24(sfk.rand_matrix(4, 8, seed=1))
    path = tmp_path / "s.s24"
    sfk.save_s24(s, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        sfk.load_s24(path)
