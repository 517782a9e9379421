"""Block-structured V:N:M format: encode/decode, checks, kernels, VNMF files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import FormatError, InputError, ShapeError
from sfk.venom import VNM_MAGIC
from conftest import scatter_naive


def test_params_validation():
    sfk.VenomParams(64, 2, 16)  # canonical
    with pytest.raises(InputError):
        sfk.VenomParams(4, 2, 12)
    with pytest.raises(InputError):
        sfk.VenomParams(4, 1, 16)
    with pytest.raises(InputError):
        sfk.VenomParams(0, 2, 16)


@pytest.mark.parametrize(
    "params,sparsity",
    [
        ((64, 2, 16), 0.875),
        ((64, 2, 32), 0.9375),
        ((64, 2, 64), 0.96875),
        ((4, 2, 8), 0.75),
    ],
)
def test_sparsity_is_one_minus_n_over_m(params, sparsity):
    assert sfk.VenomParams(*params).sparsity == sparsity


def test_encode_decode_roundtrip_and_check():
    p = sfk.VenomParams(4, 2, 8)
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
    p = sfk.VenomParams(4, 2, 8)
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
    p = sfk.VenomParams(4, 2, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(12, 32, seed=3), p)
    assert vm.col_table.shape == (3, 2, 4)
    assert (np.diff(vm.col_table.astype(int), axis=-1) > 0).all()
    assert vm.col_table.max() < 16


def test_kept_mask_counts():
    p = sfk.VenomParams(4, 2, 8)
    a = sfk.rand_matrix(8, 16, seed=0)
    vm = sfk.venom_encode(a, p)
    km = sfk.kept_mask(vm)
    # per 4-row x 8-col block: each of the 4 rows keeps 2 slots in its strip
    assert km.sum() == (8 // 4) * (16 // 8) * 4 * 2
    d = sfk.decode24(vm)
    assert np.array_equal(d[~km], np.zeros((~km).sum()))


def test_reencode_reuses_pattern_with_new_values():
    p = sfk.VenomParams(4, 2, 8)
    a = sfk.rand_matrix(4, 8, seed=1)
    vm = sfk.venom_encode(a, p)
    fresh = sfk.rand_matrix(4, 8, seed=2)
    r = sfk.reencode24(fresh, vm)
    km = sfk.kept_mask(vm)
    assert np.array_equal(sfk.decode24(r), np.where(km, fresh, 0.0))
    assert np.array_equal(r.col_table, vm.col_table)


def test_encode_shape_errors():
    p = sfk.VenomParams(4, 2, 16)
    with pytest.raises(ShapeError):
        sfk.venom_encode(np.ones((6, 16)), p)
    with pytest.raises(ShapeError):
        sfk.venom_encode(np.ones((4, 20)), p)


def test_kernels_match_decode_then_gemm():
    p = sfk.VenomParams(4, 2, 8)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 16, seed=0), p)
    d = sfk.decode24(vm)
    b = sfk.rand_matrix(16, 3, seed=1)
    c = sfk.rand_matrix(8, 3, seed=2)
    assert np.array_equal(sfk.spmm24(vm, b), sfk.gemm(d, b))
    np.testing.assert_allclose(sfk.spmm24_tn(vm, c), sfk.gemm(d.T, c), rtol=0.0, atol=1e-10)
    with pytest.raises(ShapeError):
        sfk.spmm24(vm, np.ones((5, 2)))
    with pytest.raises(ShapeError):
        sfk.spmm24_tn(vm, np.ones((5, 2)))


@given(st.integers(0, 3_000), st.sampled_from([8, 16]))
@settings(max_examples=25)
def test_kernel_oracle_property(seed, m):
    p = sfk.VenomParams(4, 2, m)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 2 * m, seed=seed), p)
    d = sfk.decode24(vm)
    b = sfk.rand_matrix(2 * m, 3, seed=seed + 1)
    np.testing.assert_allclose(sfk.spmm24(vm, b), sfk.gemm(d, b), rtol=0.0, atol=1e-10)
    assert sfk.venom_check(d, p)


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
    """Each output row of spmm24_tn on a V:N:M pack accumulates in (slot,
    row) order; columns outside the column table get no entry at all."""
    p = sfk.VenomParams(v, 2, m)
    vm = sfk.venom_encode(sfk.rand_matrix(v * blocks, m * windows, seed=seed), p)
    c = sfk.rand_matrix(vm.rows, n, seed=seed + 1)
    want = scatter_naive(vm.abs_columns(), vm.payload.values, c, vm.cols)
    assert np.array_equal(sfk.spmm24_tn(vm, c), want)


def test_venom_file_roundtrip(tmp_path):
    p = sfk.VenomParams(4, 2, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(8, 32, seed=4), p)
    path = tmp_path / "w.vnm"
    sfk.save_venom(vm, path)
    back = sfk.load_venom(path)
    assert back.params == vm.params
    assert np.array_equal(back.col_table, vm.col_table)
    assert np.array_equal(sfk.decode24(back), sfk.decode24(vm))
    assert path.read_bytes()[:4] == VNM_MAGIC == b"VNMF"


def test_venom_file_rejects_corruption(tmp_path):
    p = sfk.VenomParams(4, 2, 8)
    vm = sfk.venom_encode(sfk.rand_matrix(4, 8, seed=5), p)
    path = tmp_path / "w.vnm"
    sfk.save_venom(vm, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        sfk.load_venom(path)
