"""V:N:M (VENOM-style) sparsity: per block of V consecutive rows and M
consecutive columns, nonzeros are confined to 4 columns, and within
those 4 columns every row keeps at most N = 2 entries.  Density is
therefore N/M, i.e. sparsity 1 - N/M: 87.5% at M=16, 93.75% at M=32,
96.875% at M=64.

Storage reuses the packed 2:4 type: the 4 retained columns of every
block window are gathered into a strip, strips are concatenated into a
rows x 4*(cols/M) matrix, and that strip matrix is 2:4 packed.  A
per-block column table (4 sorted byte offsets into the M-wide window)
records which columns were retained.  A VenomMatrix reads like a
Sparse24Matrix, so sparse24's pack ops and kernels serve it as they are.

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
    kept_mask,
    reencode24,
    s24_from_bytes,
    s24_to_bytes,
    sparsify24,
    spmm24,
    spmm24_tn,
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

    @property
    def values(self) -> np.ndarray:
        """The kept values, shape (rows, 2*windows): the payload's."""
        return self.payload.values

    def with_values(self, values: np.ndarray) -> VenomMatrix:
        """The same slots (column table and 2:4 metadata) holding other values."""
        return VenomMatrix(
            self.rows, self.cols, self.params, self.col_table, self.payload.with_values(values)
        )

    def abs_columns(self) -> np.ndarray:
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


# Old names of the shared ops, kept only because perfbench's tracer looks
# them up by name; the op ledger of ROADMAP item 4 deletes them.
venom_kept_mask, venom_reencode, venom_spmm, venom_spmm_tn = (
    kept_mask, reencode24, spmm24, spmm24_tn
)


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
