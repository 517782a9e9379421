"""Dense matrix foundation: validated float64 arrays, a deterministic
reference GEMM, seeded random matrices, and the SFK1 file format.

All numeric work happens in float64 on plain numpy arrays.  ``gemm``
sums every output entry from zero with k ascending, which makes it
bit-identical to the classic triple loop.  Small outputs take k in
chunks: the plain products of a chunk are stacked behind the running
sum along the outer axis of one buffer, and ``np.add.reduce`` folds
that axis in order, because numpy sums pairwise only along the fast
axis in memory.  Large outputs add one rank-1 update per k index into a
reused buffer.  That fixed summation order is what lets the sparse
kernels be checked against it at tight tolerances, and it keeps every
result reproducible across runs.

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
# float64 elements in gemm's chunk buffer; 2**16 is 512 KiB of products
_CHUNK_ELEMS = 2**16


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def gemm(a, b) -> np.ndarray:
    """Reference matrix product with a fixed summation order.

    Every output entry is summed from zero with k ascending, so the
    result matches the naive triple loop bit for bit.  An m x n output
    with ``2 <= m*n <= _CHUNK_ELEMS // 4`` takes k in chunks of
    ``c = _CHUNK_ELEMS // (m*n)``: a C-contiguous ``(c+1, m, n)``
    buffer holds the running sum in slot 0 and the plain products
    ``a[:, k] * b[k]`` in slots 1..c, and ``np.add.reduce`` folds its
    outer axis into the output.  That axis has stride ``8*m*n``, so
    unless the output is a single entry it is never the fast axis, the
    only one numpy sums pairwise.  Larger outputs, whose chunks would be
    too short to pay for the strided reduction, and 1 x 1 outputs, whose
    outer axis is the fast one, add one rank-1 update per k into a
    reused buffer.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm: inner dimensions differ: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.float64)
    if k and 2 <= m * n <= _CHUNK_ELEMS // 4:
        c = min(_CHUNK_ELEMS // (m * n), k)
        buf = np.empty((c + 1, m, n), dtype=np.float64)
        buf[0] = 0.0
        for k0 in range(0, k, c):
            w = min(c, k - k0)
            np.einsum("ik,kj->kij", a[:, k0 : k0 + w], b[k0 : k0 + w], out=buf[1 : w + 1])
            np.add.reduce(buf[: w + 1], axis=0, out=out)
            buf[0] = out
            tally(m * n * w, "gemm")
        return out
    a_t = np.ascontiguousarray(a.T)
    tmp = np.empty((m, n), dtype=np.float64)
    for kk in range(k):
        np.einsum("i,j->ij", a_t[kk], b[kk], out=tmp)
        out += tmp
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
