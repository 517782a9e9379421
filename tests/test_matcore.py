"""Dense matrix core: gemm determinism, RNG, file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import FormatError, ShapeError
from conftest import gemm_naive


def test_gemm_matches_naive_oracle_bitwise():
    a = sfk.rand_matrix(7, 13, seed=5)
    b = sfk.rand_matrix(13, 9, seed=6)
    got = sfk.gemm(a, b)
    want = gemm_naive(a, b)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@given(m=st.integers(1, 6), k=st.integers(1, 8), n=st.integers(1, 6), seed=st.integers(0, 99))
@settings(max_examples=40)
def test_gemm_matches_naive_oracle_property(m, k, n, seed):
    a = sfk.rand_matrix(m, k, seed=seed)
    b = sfk.rand_matrix(k, n, seed=seed + 1)
    assert np.array_equal(sfk.gemm(a, b), gemm_naive(a, b))


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
