"""Dense matrix foundation: validated float64 arrays, a deterministic
reference GEMM, seeded random matrices, and the SFK1 file format.

All numeric work happens in float64 on plain numpy arrays.  ``gemm``
accumulates the reduction dimension strictly left to right, one rank-1
update per k index, which makes it bit-identical to the classic triple
loop.  That fixed summation order is what lets the sparse kernels be
checked against it at tight tolerances, and it keeps every result
reproducible across runs.

SFK1 layout (little-endian): 4-byte magic ``SFK1``, one dtype code byte
(1 = real32, 2 = real64), three reserved zero bytes, u64 rows, u64
cols, then the values row-major.
"""

from __future__ import annotations

import struct

import numpy as np

from .counters import tally
from .errors import FormatError, InputError, ShapeError

MAGIC = b"SFK1"

_DTYPE_OF_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF_NAME = {"real32": 1, "real64": 2}
_HEADER_LEN = 24


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def gemm(a, b) -> np.ndarray:
    """Reference matrix product with a fixed summation order.

    The k dimension is accumulated left to right via rank-1 updates, so
    the result matches the naive triple loop bit for bit.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm: inner dimensions differ: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    for kk in range(k):
        out += a[:, kk : kk + 1] * b[kk]
        tally(m * n, "gemm")
    return out


def rand_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Seeded standard-normal matrix from a PCG64 stream; same seed, same bits."""
    if rows <= 0 or cols <= 0:
        raise InputError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((rows, cols))


def save_matrix(m, path, dtype: str = "real64") -> None:
    m = as_matrix(m)
    if dtype not in _CODE_OF_NAME:
        raise InputError(f"unknown dtype {dtype!r} (expected 'real32' or 'real64')")
    code = _CODE_OF_NAME[dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B3x", code))
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype=_DTYPE_OF_CODE[code]).tobytes())


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER_LEN:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} (expected {MAGIC!r})")
    code = blob[4]
    if code not in _DTYPE_OF_CODE:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if blob[5:8] != bytes(3):
        raise FormatError(f"{path}: reserved header bytes {blob[5:8]!r} are not zero")
    rows, cols = struct.unpack_from("<QQ", blob, 8)
    dt = _DTYPE_OF_CODE[code]
    need = rows * cols * dt.itemsize
    body = blob[_HEADER_LEN:]
    if len(body) < need:
        raise FormatError(f"{path}: truncated payload ({len(body)} of {need} bytes)")
    if len(body) > need:
        raise FormatError(f"{path}: {len(body) - need} trailing bytes after the payload")
    data = np.frombuffer(body, dtype=dt).astype(np.float64)
    data = data.reshape(int(rows), int(cols))
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: non-finite values in payload")
    return data
