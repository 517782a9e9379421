"""Block-structured V:N:M format: encode/decode, checks, kernels, VNMF files."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import CorruptionError, FormatError, InputError, ShapeError
from sfk.venom import N, VNM_MAGIC
from conftest import assert_spmm24_tn_is_gemm, spread


def test_params_validation():
    sfk.VenomParams(64, 16)  # canonical
    assert sfk.VenomParams(4, 8) == sfk.VenomParams(v=4, m=8)
    assert [f.name for f in dataclasses.fields(sfk.VenomParams)] == ["v", "m"]
    assert N == 2
    with pytest.raises(InputError):
        sfk.VenomParams(4, 12)
    with pytest.raises(InputError):
        sfk.VenomParams(0, 16)


@pytest.mark.parametrize(
    "params,sparsity",
    [
        ((64, 16), 0.875),
        ((64, 32), 0.9375),
        ((64, 64), 0.96875),
        ((4, 8), 0.75),
    ],
)
def test_sparsity_is_one_minus_n_over_m(params, sparsity):
    assert sfk.VenomParams(*params).sparsity == sparsity


def test_encode_decode_roundtrip_and_check():
    p = sfk.VenomParams(4, 8)
    a = sfk.rand_matrix(8, 16, seed=0)
    vm = sfk.venom_encode(a, p)
    d = sfk.decode24(vm)
    assert d.shape == a.shape
    assert sfk.venom_check(d, p)
    assert not sfk.venom_check(a, p)  # dense input is not already block-sparse
    # fixpoint: encoding the decoded matrix loses nothing
    again = sfk.venom_encode(d, p)
    assert np.array_equal(sfk.decode24(again), d)


def test_encode_keeps_largest_l1_columns_per_block():
    p = sfk.VenomParams(4, 8)
    a = sfk.rand_matrix(4, 8, seed=9)
    vm = sfk.venom_encode(a, p)
    l1 = np.abs(a).sum(axis=0)
    want = np.sort(np.argsort(-l1, kind="stable")[:4])
    assert np.array_equal(vm.col_table[0, 0], want)
    # retained strip is the greedy 2:4 packing of those columns
    strip = sfk.decode24(sfk.sparsify24(a[:, want], sfk.GREEDY_MAGNITUDE))
    d = sfk.decode24(vm)
    assert np.array_equal(d[:, want], strip)
    dropped = np.setdiff1d(np.arange(8), want)
    assert np.array_equal(d[:, dropped], np.zeros((4, 4)))


def test_column_table_is_ascending_and_in_range():
    p = sfk.VenomParams(4, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(12, 32, seed=3), p)
    assert vm.col_table.shape == (3, 2, 4)
    assert (np.diff(vm.col_table.astype(int), axis=-1) > 0).all()
    assert vm.col_table.max() < 16


def test_column_table_is_checked_once_when_built():
    """A bad column table fails at construction; afterwards the table and
    the columns are read-only, and a re-encoded pack shares them."""
    p = sfk.VenomParams(4, 8)
    vm = sfk.venom_encode(sfk.rand_matrix(4, 8, seed=1), p)
    for bad in ([0, 1, 2, 8], [0, 2, 1, 3], [1, 1, 2, 3]):
        table = np.array(bad, dtype=np.uint8).reshape(1, 1, 4)
        with pytest.raises(CorruptionError):
            sfk.VenomMatrix(4, 8, p, table, vm.payload)
    for arr in (vm.abs_columns(), vm.col_table):
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert sfk.reencode24(np.ones((4, 8)), vm).abs_columns() is vm.abs_columns()


def test_encoders_skip_the_table_check_the_constructor_and_reader_keep(monkeypatch, tmp_path):
    """venom_encode and the routed encoder take their column tables from
    sorted picks, so they build their packs unchecked, with the columns
    the constructor would derive; the constructor and the VNMF reader
    still reject a table that is not strictly increasing."""
    p = sfk.VenomParams(4, 8)
    a = sfk.rand_matrix(4, 8, seed=1)
    good = sfk.venom_encode(a, p)
    path = tmp_path / "w.vnm"
    sfk.save_venom(good, path)
    raw = bytearray(path.read_bytes())
    raw[32:36] = bytes([0, 2, 1, 3])  # the one block's table, after the 32-byte header
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptionError):
        sfk.load_venom(path)
    with pytest.raises(CorruptionError):
        sfk.VenomMatrix(4, 8, p, np.array([1, 1, 2, 3], dtype=np.uint8).reshape(1, 1, 4), good.payload)

    def refuse(self):
        raise AssertionError("an encoder re-checked the column table it sorted")

    monkeypatch.setattr(sfk.VenomMatrix, "__post_init__", refuse)
    vm = sfk.venom_encode(a, p)
    pol = sfk.default_sparse_policy()
    x, w = sfk.rand_matrix(16, 16, seed=0), sfk.init_ffn_params(16, 32, 16, seed=1)
    y3, tape = sfk.ffn_forward(x, w, pol, bank=sfk.cluster_columns(w.w1, pol.router, seed=3))
    sfk.ffn_backward(y3, tape, w, pol)
    monkeypatch.undo()
    for pack in (vm, tape.y2):
        checked = sfk.VenomMatrix(pack.rows, pack.cols, pack.params, pack.col_table, pack.payload)
        assert np.array_equal(pack.abs_columns(), checked.abs_columns())
        for arr in (pack.abs_columns(), pack.col_table):
            with pytest.raises(ValueError):
                arr[0, 0] = 0
    assert np.array_equal(sfk.decode24(vm), sfk.decode24(good))


def test_kept_mask_counts():
    p = sfk.VenomParams(4, 8)
    a = sfk.rand_matrix(8, 16, seed=0)
    vm = sfk.venom_encode(a, p)
    km = sfk.kept_mask(vm)
    # per 4-row x 8-col block: each of the 4 rows keeps 2 slots in its strip
    assert km.sum() == (8 // 4) * (16 // 8) * 4 * 2
    d = sfk.decode24(vm)
    assert np.array_equal(d[~km], np.zeros((~km).sum()))


def test_reencode_reuses_pattern_with_new_values():
    p = sfk.VenomParams(4, 8)
    a = sfk.rand_matrix(4, 8, seed=1)
    vm = sfk.venom_encode(a, p)
    fresh = sfk.rand_matrix(4, 8, seed=2)
    r = sfk.reencode24(fresh, vm)
    km = sfk.kept_mask(vm)
    assert np.array_equal(sfk.decode24(r), np.where(km, fresh, 0.0))
    assert np.array_equal(r.col_table, vm.col_table)


def test_encode_shape_errors():
    p = sfk.VenomParams(4, 16)
    with pytest.raises(ShapeError):
        sfk.venom_encode(np.ones((6, 16)), p)
    with pytest.raises(ShapeError):
        sfk.venom_encode(np.ones((4, 20)), p)


def test_kernels_match_decode_then_gemm():
    p = sfk.VenomParams(4, 8)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 16, seed=0), p)
    d = sfk.decode24(vm)
    b = sfk.rand_matrix(16, 3, seed=1)
    c = sfk.rand_matrix(8, 3, seed=2)
    assert np.array_equal(sfk.spmm24(vm, b), sfk.gemm(d, b))
    assert np.array_equal(sfk.spmm24_tn(vm, c), sfk.gemm(d.T, c))
    with pytest.raises(ShapeError):
        sfk.spmm24(vm, np.ones((5, 2)))
    with pytest.raises(ShapeError):
        sfk.spmm24_tn(vm, np.ones((5, 2)))


@given(st.integers(0, 3_000), st.sampled_from([8, 16]))
@settings(max_examples=25)
def test_kernel_oracle_property(seed, m):
    p = sfk.VenomParams(4, m)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 2 * m, seed=seed), p)
    d = sfk.decode24(vm)
    b = sfk.rand_matrix(2 * m, 3, seed=seed + 1)
    np.testing.assert_allclose(sfk.spmm24(vm, b), sfk.gemm(d, b), rtol=0.0, atol=1e-10)
    assert sfk.venom_check(d, p)


# spmm24 folds outputs of 2 to 2**14 entries in chunks and adds one slot
# at a time otherwise: (V, rows, n) for 1 x 1 and small outputs, the
# cutoff itself (128 x 128) and just past it.
@given(
    st.sampled_from([(1, 1, 1), (1, 1, 2), (4, 8, 3), (4, 128, 128), (4, 128, 129), (1, 129, 128)]),
    st.sampled_from([8, 16]),
    st.integers(1, 6),
    st.integers(0, 3_000),
    st.booleans(),
)
@settings(max_examples=30)
def test_spmm24_is_gemm_bitwise_on_both_sides_of_the_fold_cutoff(shape, m, windows, seed, neg_zero):
    v, rows, n = shape
    vm = sfk.venom_encode(spread(rows, m * windows, seed, neg_zero), sfk.VenomParams(v, m))
    b = spread(m * windows, n, seed + 1, neg_zero)
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24(vm, b)
    assert np.array_equal(got, sfk.gemm(sfk.decode24(vm), b))
    assert counter.total == rows * 2 * windows * n


@given(
    st.integers(0, 3_000),
    st.sampled_from([8, 16, 32, 64]),
    st.sampled_from([1, 4]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
)
@settings(max_examples=40)
def test_spmm_tn_pins_summation_order(seed, m, v, blocks, windows, n):
    """Each output row of spmm24_tn on a V:N:M pack accumulates with row
    k ascending, so it is bitwise gemm on the decoded pack; columns
    outside the column table get no entry at all."""
    p = sfk.VenomParams(v, m)
    vm = sfk.venom_encode(sfk.rand_matrix(v * blocks, m * windows, seed=seed), p)
    c = sfk.rand_matrix(vm.rows, n, seed=seed + 1)
    assert np.array_equal(sfk.spmm24_tn(vm, c), sfk.gemm(sfk.decode24(vm).T, c))


# spmm24_tn's fold cutoff on V:N:M packs, as (M, windows, n) for a
# (M * windows) x n output: small outputs, 128 x 128, 136 x 128 and
# 128 x 129.  Only 4 of each block's M columns are kept; (V, blocks) =
# (1, 1) is a 1-row pack.
@given(
    st.sampled_from([(8, 1, 1), (16, 1, 3), (16, 8, 128), (8, 16, 128), (8, 17, 128), (32, 4, 129)]),
    st.sampled_from([(1, 1), (1, 5), (4, 1), (4, 3)]),
    st.integers(0, 3_000),
    st.booleans(),
)
@settings(max_examples=40)
def test_spmm24_tn_is_gemm_bitwise_on_both_sides_of_the_fold_cutoff(shape, blocks, seed, neg_zero):
    m, windows, n = shape
    v, block_rows = blocks
    rows = v * block_rows
    vm = sfk.venom_encode(spread(rows, m * windows, seed, neg_zero), sfk.VenomParams(v, m))
    assert_spmm24_tn_is_gemm(vm, spread(rows, n, seed + 1, neg_zero), inf_row=seed % rows)


def test_venom_file_roundtrip(tmp_path):
    p = sfk.VenomParams(4, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 32, seed=4), p)
    path = tmp_path / "w.vnm"
    sfk.save_venom(vm, path)
    back = sfk.load_venom(path)
    assert back.params == vm.params
    assert np.array_equal(back.col_table, vm.col_table)
    assert np.array_equal(sfk.decode24(back), sfk.decode24(vm))
    assert path.read_bytes()[:4] == VNM_MAGIC == b"VNMF"
    assert struct.unpack_from("<III", path.read_bytes(), 20) == (4, N, 16)


@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_venom_file_rejects_a_header_n_other_than_2(tmp_path, n):
    path = tmp_path / "w.vnm"
    sfk.save_venom(sfk.venom_encode(sfk.rand_matrix(8, 32, seed=4), sfk.VenomParams(4, 16)), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 24, n)  # u32 N, after the magic, rows, cols and V
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"N must be 2.*got {n}"):
        sfk.load_venom(path)


def test_venom_file_rejects_corruption(tmp_path):
    p = sfk.VenomParams(4, 8)
    vm = sfk.venom_encode(sfk.rand_matrix(4, 8, seed=5), p)
    path = tmp_path / "w.vnm"
    sfk.save_venom(vm, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        sfk.load_venom(path)
