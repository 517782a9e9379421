"""Dense matrix foundation: validated float64 arrays, a deterministic
reference GEMM, seeded random matrices, and the SFK1 file format.

All numeric work happens in float64 on plain numpy arrays.  ``gemm``
sums every output entry from zero with k ascending, which makes it
bit-identical to the classic triple loop.  Small outputs take k in
chunks: the plain products of a chunk are stacked behind the running
sum along the outer axis of one buffer, and ``np.add.reduce`` folds
that axis in order, because numpy sums pairwise only along the fast
axis in memory.  The packed kernels of ``sfk.sparse24`` fold their
small products with the same helper.  Large outputs add one rank-1
update per k index into a reused buffer.  That fixed summation order is
what lets the sparse kernels be checked against it bit for bit, and it
keeps every result reproducible across runs.  A sampled product
(``cols``) computes only some entries of each row, each in the same
order, so it is bitwise equal to those entries of the full product.

SFK1 layout (little-endian): 4-byte magic ``SFK1``, one dtype code byte
(1 = real32, 2 = real64), three reserved zero bytes, u64 rows, u64
cols, then the values row-major.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .counters import tally
from .errors import FormatError, InputError, ShapeError

MAGIC = b"SFK1"

_DTYPE_OF_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_OF_NAME = {"real32": 1, "real64": 2}
_HEADER_LEN = 24
# float64 elements in the fold buffer of gemm and the packed kernels;
# 2**16 is 512 KiB of products
_CHUNK_ELEMS = 2**16


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-contiguous array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def _fold_in_order(shape, terms, products, label):
    """Sum ``terms`` plain products into a new float64 array of ``shape``,
    every entry from +0.0 with the term index ascending, or return None.

    The terms go in chunks of ``c = _CHUNK_ELEMS // size`` (size = the
    number of output entries): a C-contiguous ``(c+1, *shape)`` buffer
    holds the running sum in slot 0 and ``products(t0, dst)`` writes
    terms t0, t0+1, ... into ``dst``, slots 1..w of it, and returns how
    many multiplies that took, which the chunk tallies under ``label``.
    ``np.add.reduce`` then folds the outer axis into the output, in
    order: that axis has stride ``8*size``, so unless the output is a
    single entry it is never the fast axis in memory, the only one numpy
    sums pairwise.

    Returns None, having done nothing, for a 1-entry output, an output of
    more than ``_CHUNK_ELEMS // 4`` entries (chunks too short to pay for
    the strided reduction) or no terms; the caller then adds one term at
    a time, in the same order.
    """
    size = math.prod(shape)
    if not terms or not 2 <= size <= _CHUNK_ELEMS // 4:
        return None
    c = min(_CHUNK_ELEMS // size, terms)
    out = np.zeros(shape, dtype=np.float64)
    buf = np.empty((c + 1, *shape), dtype=np.float64)
    buf[0] = 0.0
    for t0 in range(0, terms, c):
        w = min(c, terms - t0)
        mults = products(t0, buf[1 : w + 1])
        np.add.reduce(buf[: w + 1], axis=0, out=out)
        buf[0] = out
        tally(mults, label)
    return out


def check_cols(cols, rows: int, width: int) -> np.ndarray:
    """The ``cols`` of a sampled product: a 2-D integer array with one
    row of output columns per output row, each in [0, width)."""
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[0] != rows:
        raise ShapeError(f"cols must be 2-D with {rows} rows, got shape {cols.shape}")
    if cols.dtype.kind not in "iu":
        raise InputError(f"cols must hold integers, got dtype {cols.dtype}")
    if cols.size and (cols.min() < 0 or cols.max() >= width):
        raise InputError(f"cols must lie in [0, {width})")
    return cols


def gemm(a, b, cols=None) -> np.ndarray:
    """Reference matrix product with a fixed summation order.

    Every output entry is summed from zero with k ascending, so the
    result matches the naive triple loop bit for bit.  An m x n output
    of 2 to ``_CHUNK_ELEMS // 4`` entries folds the plain products
    ``a[:, k] * b[k]`` in chunks (``_fold_in_order``).  Larger outputs,
    whose chunks would be too short to pay for the strided reduction,
    and 1 x 1 outputs add one rank-1 update per k into a reused buffer.

    With ``cols`` (m x h integers, see ``check_cols``) the product is
    sampled: it returns the m x h matrix whose entry [i, j] is entry
    [i, cols[i, j]] of the full product, summed in the same order, so
    bitwise equal to it, and it multiplies and tallies only those
    m * h * k terms.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm: inner dimensions differ: {a.shape} x {b.shape}")
    k = a.shape[1]
    if cols is None:
        shape = (a.shape[0], b.shape[1])

        def products(k0, dst):
            np.einsum("ik,kj->kij", a[:, k0 : k0 + len(dst)], b[k0 : k0 + len(dst)], out=dst)
            return dst.size

        def term(ak, bk, dst):
            np.einsum("i,j->ij", ak, bk, out=dst)
    else:
        cols = check_cols(cols, a.shape[0], b.shape[1])
        shape = cols.shape

        def products(k0, dst):
            k1 = k0 + len(dst)
            # the columns are in range; "clip" only skips a buffered bounds check
            np.take(b[k0:k1], cols, axis=1, out=dst, mode="clip")
            dst *= a[:, k0:k1].T[:, :, None]
            return dst.size

        def term(ak, bk, dst):
            np.take(bk, cols, out=dst, mode="clip")
            dst *= ak[:, None]

    out = _fold_in_order(shape, k, products, "gemm")
    if out is not None:
        return out
    out = np.zeros(shape, dtype=np.float64)
    a_t = np.ascontiguousarray(a.T)
    tmp = np.empty(shape, dtype=np.float64)
    for kk in range(k):
        term(a_t[kk], b[kk], tmp)
        out += tmp
        tally(tmp.size, "gemm")
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
