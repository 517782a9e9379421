"""Dense matrix foundation: validated float64 arrays, a deterministic
reference GEMM, seeded random matrices, and the SFK1 file format.

All numeric work happens in float64 on plain numpy arrays.  ``gemm``
sums every output entry from zero with k ascending, which makes it
bit-identical to the classic triple loop.  One loop does that summing
for ``gemm`` and, but for the prefix passes of their rank walk, for the
packed kernels of ``sfk.sparse24``: ``_fold_in_order``, whose docstring
states when it takes the terms in chunks and when one at a time.  That
fixed summation order is what lets the sparse kernels be checked
against ``gemm`` bit for bit, and it keeps every result reproducible
across runs.  A sampled product (``cols``) computes only some entries
of each row, each in the same order, so it is bitwise equal to those
entries of the full product.

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


def _folds_in_chunks(shape) -> bool:
    """The size rule of ``_fold_in_order``: whether an output of
    ``shape`` takes its terms in chunks (2 to ``_CHUNK_ELEMS // 4``
    entries) rather than one at a time."""
    return 2 <= math.prod(shape) <= _CHUNK_ELEMS // 4


def _fold_in_order(shape, terms, products, label):
    """Sum ``terms`` plain products into a new float64 array of ``shape``,
    every entry from +0.0 with the term index ascending.

    ``products(t0, dst)`` writes terms t0, t0+1, ... into the slots of
    ``dst``'s outer axis and returns how many multiplies that took,
    which are tallied under ``label``.  An output of 2 to
    ``_CHUNK_ELEMS // 4`` entries (``_folds_in_chunks``) takes the terms
    in chunks of ``c = _CHUNK_ELEMS // size``: a C-contiguous
    ``(c+1, *shape)`` buffer holds the running sum in slot 0 and the
    chunk's terms in slots 1..w, and ``np.add.reduce`` folds the outer
    axis into the output, in order: that axis has stride ``8*size``, so
    it is never the fast axis in memory, the only one numpy sums
    pairwise.  Every other output adds one term at a time: a single
    entry, whose outer axis would be the fast one, and outputs past the
    rule, whose chunks would be too short to pay for the strided
    reduction.
    """
    out = np.zeros(shape, dtype=np.float64)
    if not _folds_in_chunks(shape):
        dst = np.empty((1, *shape), dtype=np.float64)
        for t in range(terms):
            tally(products(t, dst), label)
            out += dst[0]
        return out
    c = max(1, min(_CHUNK_ELEMS // out.size, terms))
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
    result matches the naive triple loop bit for bit: the plain products
    ``a[:, k] * b[k]`` go through ``_fold_in_order``, whose size rule
    picks chunks or one k at a time.

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
    else:
        cols = check_cols(cols, a.shape[0], b.shape[1])
        shape = cols.shape

        def products(k0, dst):
            k1 = k0 + len(dst)
            # the columns are in range; "clip" only skips a buffered bounds check
            np.take(b[k0:k1], cols, axis=1, out=dst, mode="clip")
            dst *= a[:, k0:k1].T[:, :, None]
            return dst.size

    return _fold_in_order(shape, k, products, "gemm")


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
