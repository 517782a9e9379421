"""V:N:M (VENOM-style) sparsity: per block of V consecutive rows and M
consecutive columns, nonzeros are confined to 4 columns, and within
those 4 columns every row keeps at most N = 2 entries.  Density is
therefore N/M, i.e. sparsity 1 - N/M: 87.5% at M=16, 93.75% at M=32,
96.875% at M=64.

Storage reuses the packed 2:4 type: the 4 retained columns of every
block window are gathered into a strip, strips are concatenated into a
rows x 4*(cols/M) matrix, and that strip matrix is 2:4 packed.  A
per-block column table (4 sorted byte offsets into the M-wide window)
records which columns were retained.

VNMF file layout (little-endian): magic ``VNMF``, u64 rows, u64 cols,
u32 V, u32 N, u32 M, the column table (uint8, 4 entries per block,
block-row-major), then the strip payload serialized as a complete S24F
record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, FormatError, InputError, ShapeError
from .matcore import as_matrix
from .sparse24 import (
    GREEDY_MAGNITUDE,
    Sparse24Matrix,
    _gather_mm,
    _scatter_mm,
    decode24,
    s24_from_bytes,
    s24_to_bytes,
    sparsify24,
)

VNM_MAGIC = b"VNMF"
ALLOWED_M = (8, 16, 32, 64)


@dataclass(frozen=True)
class VenomParams:
    """Block geometry: V rows per block, N kept of M columns per row group."""

    v: int
    n: int
    m: int

    def __post_init__(self):
        if self.m not in ALLOWED_M:
            raise InputError(f"M must be one of {ALLOWED_M}, got {self.m}")
        if self.n != 2:
            raise InputError(f"N must be 2 (payload is 2:4 packed), got {self.n}")
        if self.v < 1:
            raise InputError(f"V must be at least 1, got {self.v}")

    @property
    def sparsity(self) -> float:
        """Fraction of entries guaranteed zero: 1 - N/M."""
        return 1.0 - self.n / self.m


@dataclass(frozen=True, eq=False)
class VenomMatrix:
    rows: int
    cols: int
    params: VenomParams
    col_table: np.ndarray  # (rows//V, cols//M, 4) uint8, strictly increasing offsets < M
    payload: Sparse24Matrix  # rows x 4*(cols//M), one 2:4 group per window

    def __post_init__(self):
        p = self.params
        if self.rows % p.v or self.cols % p.m or self.rows <= 0 or self.cols <= 0:
            raise ShapeError(
                f"{self.rows}x{self.cols} is not divisible into {p.v}x{p.m} blocks"
            )
        nbr, nw = self.rows // p.v, self.cols // p.m
        if self.col_table.shape != (nbr, nw, 4):
            raise ShapeError(f"column table must be {(nbr, nw, 4)}, got {self.col_table.shape}")
        if self.payload.rows != self.rows or self.payload.cols != 4 * nw:
            raise ShapeError(
                f"payload must be {self.rows}x{4 * nw}, got {self.payload.rows}x{self.payload.cols}"
            )

    @property
    def windows(self) -> int:
        return self.cols // self.params.m

    def validate(self) -> None:
        ct = self.col_table.astype(np.int64)
        if ct.min() < 0 or ct.max() >= self.params.m:
            raise CorruptionError("column table offset out of range")
        if not (np.diff(ct, axis=-1) > 0).all():
            raise CorruptionError("column table offsets not strictly increasing")
        self.payload.validate()

    def kept_abs_columns(self) -> np.ndarray:
        """Absolute column of every kept payload slot, shape (rows, 2*windows).

        Ascending within each row: windows are visited left to right and
        the column table is sorted inside each window.
        """
        strip_cols = self.payload.abs_columns()  # (rows, 2*windows), strip coords
        w = strip_cols // 4
        offs = strip_cols % 4
        block_row = np.arange(self.rows) // self.params.v
        table = self.col_table.astype(np.int64)[block_row[:, None], w, offs]
        return w * self.params.m + table


def _check_block_shape(shape: tuple[int, int], p: VenomParams) -> None:
    rows, cols = shape
    if rows % p.v or cols % p.m or rows == 0 or cols == 0:
        raise ShapeError(f"matrix {rows}x{cols} is not divisible into {p.v}x{p.m} blocks")


def _encode_blocks(a: np.ndarray, key: np.ndarray, p: VenomParams) -> VenomMatrix:
    """The V:N:M block encoder: per block, retain the 4 columns with the
    largest key (shape (rows/V, cols/M, M); ties to the lower column
    index), gather them into a rows x 4*(cols/M) strip matrix and
    2:4-prune each row's strip by magnitude."""
    rows, cols = a.shape
    nw = cols // p.m
    order = np.argsort(-key, axis=-1, kind="stable")
    col_table = np.sort(order[..., :4], axis=-1).astype(np.uint8)
    block_row = np.arange(rows) // p.v
    abs_cols = col_table.astype(np.int64)[block_row] + np.arange(nw)[None, :, None] * p.m
    strips = a[np.arange(rows)[:, None, None], abs_cols].reshape(rows, 4 * nw)
    return VenomMatrix(rows, cols, p, col_table, sparsify24(strips, GREEDY_MAGNITUDE))


def venom_encode(a, p: VenomParams) -> VenomMatrix:
    """Greedy V:N:M projection of a dense matrix.

    Per block, retain the 4 columns with the largest L1 norm over the
    block's V rows (ties to the lower column index; an all-zero block
    falls back to columns 0..3), then 2:4-prune each row's retained
    strip by magnitude.
    """
    a = as_matrix(a)
    _check_block_shape(a.shape, p)
    nbr, nw = a.shape[0] // p.v, a.shape[1] // p.m
    return _encode_blocks(a, np.abs(a).reshape(nbr, p.v, nw, p.m).sum(axis=1), p)


def venom_decode(vm: VenomMatrix) -> np.ndarray:
    """Expand back to dense; the result always passes venom_check."""
    vm.validate()
    strips = decode24(vm.payload).reshape(vm.rows, vm.windows, 4)
    nw = vm.windows
    block_row = np.arange(vm.rows) // vm.params.v
    abs_cols = vm.col_table.astype(np.int64)[block_row] + np.arange(nw)[None, :, None] * vm.params.m
    out = np.zeros((vm.rows, vm.cols), dtype=np.float64)
    out[np.arange(vm.rows)[:, None, None], abs_cols] = strips
    return out


def venom_check(a, p: VenomParams) -> bool:
    """True iff a dense matrix already satisfies the V:N:M pattern."""
    a = as_matrix(a)
    _check_block_shape(a.shape, p)
    nbr, nw = a.shape[0] // p.v, a.shape[1] // p.m
    nz = (a != 0.0).reshape(nbr, p.v, nw, p.m)
    if (nz.any(axis=1).sum(axis=-1) > 4).any():
        return False
    if (nz.sum(axis=-1) > 2).any():
        return False
    return True


def venom_kept_mask(vm: VenomMatrix) -> np.ndarray:
    """Dense boolean mask of kept slots (True even where a zero is stored)."""
    out = np.zeros((vm.rows, vm.cols), dtype=bool)
    out[np.arange(vm.rows)[:, None], vm.kept_abs_columns()] = True
    return out


def venom_reencode(dense, like: VenomMatrix) -> VenomMatrix:
    """Pack ``dense`` into the exact slot structure of ``like`` (same
    column table, same 2:4 metadata; only the stored values change)."""
    dense = as_matrix(dense)
    if dense.shape != (like.rows, like.cols):
        raise ShapeError(f"expected {like.rows}x{like.cols}, got {dense.shape}")
    values = dense[np.arange(like.rows)[:, None], like.kept_abs_columns()]
    payload = Sparse24Matrix(like.payload.rows, like.payload.cols, values, like.payload.meta)
    return VenomMatrix(like.rows, like.cols, like.params, like.col_table, payload)


# ---------------------------------------------------------------------------
# kernels

def venom_spmm(vm: VenomMatrix, b, label: str = "venom_spmm") -> np.ndarray:
    """venom_decode(vm) @ b touching only the rows*cols*N/M kept slots."""
    b = as_matrix(b)
    if vm.cols != b.shape[0]:
        raise ShapeError(f"venom_spmm: inner dimensions differ: {vm.rows}x{vm.cols} times {b.shape}")
    return _gather_mm(vm.kept_abs_columns(), vm.payload.values, b, label)


def venom_spmm_tn(vm: VenomMatrix, b, label: str = "venom_spmm_tn") -> np.ndarray:
    """venom_decode(vm).T @ b (the V:N:M operand carries the sparsity)."""
    b = as_matrix(b)
    if vm.rows != b.shape[0]:
        raise ShapeError(f"venom_spmm_tn: row counts differ: {vm.rows}x{vm.cols} vs {b.shape}")
    return _scatter_mm(vm.kept_abs_columns(), vm.payload.values, b, vm.cols, label)


# ---------------------------------------------------------------------------
# file I/O

def save_venom(vm: VenomMatrix, path) -> None:
    vm.validate()
    with open(path, "wb") as fh:
        fh.write(VNM_MAGIC)
        fh.write(struct.pack("<QQ", vm.rows, vm.cols))
        fh.write(struct.pack("<III", vm.params.v, vm.params.n, vm.params.m))
        fh.write(np.ascontiguousarray(vm.col_table).tobytes())
        fh.write(s24_to_bytes(vm.payload))


def load_venom(path) -> VenomMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 32:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != VNM_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} (expected {VNM_MAGIC!r})")
    rows, cols = struct.unpack_from("<QQ", blob, 4)
    v, n, m = struct.unpack_from("<III", blob, 20)
    try:
        p = VenomParams(int(v), int(n), int(m))
    except InputError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    rows, cols = int(rows), int(cols)
    if rows <= 0 or cols <= 0 or rows % p.v or cols % p.m:
        raise FormatError(f"{path}: shape {rows}x{cols} incompatible with V={p.v}, M={p.m}")
    ntable = (rows // p.v) * (cols // p.m) * 4
    if len(blob) < 32 + ntable:
        raise FormatError(f"{path}: truncated column table")
    col_table = np.frombuffer(blob, dtype=np.uint8, count=ntable, offset=32).copy()
    col_table = col_table.reshape(rows // p.v, cols // p.m, 4)
    payload = s24_from_bytes(blob[32 + ntable :], f"{path} (embedded payload)")
    vm = VenomMatrix(rows, cols, p, col_table, payload)
    vm.validate()
    return vm
