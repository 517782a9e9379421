"""2:4 semi-structured sparsity: sparsifiers, packed storage, kernels.

A 2:4-sparse matrix keeps at most two of every four consecutive
elements in a row.  Packed storage holds exactly two values per group
(zeros are stored as kept values when fewer than two entries survive)
plus a 2-bit in-group column index per kept value, four indices to a
metadata byte.

Two sparsifiers:

* greedy_magnitude keeps the two largest-magnitude entries of each
  group unchanged and zeroes the rest.  The induced map is piecewise
  linear in the input and jumps wherever the kept set changes.
* soft_threshold subtracts the group's second-smallest magnitude t from
  every entry's magnitude, clamping at zero: entries in (-t, t] map to
  0, larger ones shrink toward zero by t.  The map is continuous
  (changing the input by eps in the sup norm moves the output by at
  most 2*eps) which is what makes mask churn during training cheap.

Both sparsifiers leave their input untouched and pick kept slots by
input magnitude with a deterministic tie-break: larger magnitude first,
then lower column index.

decode24, kept_mask, reencode24, spmm24 and spmm24_tn read a pack only
through rows, cols, values, abs_columns(), with_values() and
validate(), so a VenomMatrix (sfk.venom) passes through them as well.

S24F file layout (little-endian): magic ``S24F``, u64 rows, u64 cols,
values block (rows x cols/2 real64, row-major), then the metadata block
(2-bit indices, row-major, each row padded to a whole byte).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .counters import tally
from .errors import CorruptionError, FormatError, InputError, ShapeError
from .matcore import as_matrix

if TYPE_CHECKING:
    from .venom import VenomMatrix

SOFT_THRESHOLD = "soft_threshold"
GREEDY_MAGNITUDE = "greedy_magnitude"
MODES = (SOFT_THRESHOLD, GREEDY_MAGNITUDE)

S24_MAGIC = b"S24F"


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"unknown sparsify mode {mode!r} (expected one of {MODES})")


@dataclass(frozen=True, eq=False)
class Sparse24Matrix:
    """Packed 2:4 matrix: two kept values per 4-group plus 2-bit indices."""

    rows: int
    cols: int
    values: np.ndarray  # (rows, cols // 2) float64
    meta: np.ndarray  # (rows, ceil(cols/8)) uint8, packed 2-bit in-group indices

    def __post_init__(self):
        if self.cols % 4 or self.cols <= 0 or self.rows <= 0:
            raise ShapeError(f"2:4 matrix needs positive cols divisible by 4, got {self.rows}x{self.cols}")
        slots = self.cols // 2
        if self.values.shape != (self.rows, slots):
            raise ShapeError(f"values block must be {self.rows}x{slots}, got {self.values.shape}")
        if self.meta.shape != (self.rows, _meta_bytes_per_row(self.cols)):
            raise ShapeError(f"meta block has wrong shape {self.meta.shape}")

    @property
    def slots_per_row(self) -> int:
        return self.cols // 2

    def meta_indices(self) -> np.ndarray:
        """Unpacked in-group column indices, shape (rows, cols // 2)."""
        return _unpack_indices(self.meta, self.slots_per_row)

    def abs_columns(self) -> np.ndarray:
        """Absolute column index of every kept slot, shape (rows, cols // 2)."""
        idx = self.meta_indices().astype(np.int64)
        groups = np.arange(self.slots_per_row) // 2
        return groups * 4 + idx

    def with_values(self, values: np.ndarray) -> Sparse24Matrix:
        """The same slots holding other values."""
        return Sparse24Matrix(self.rows, self.cols, values, self.meta)

    def validate(self) -> None:
        """Raise CorruptionError unless each group holds two strictly
        increasing in-group indices (collisions would double-book a slot)."""
        idx = self.meta_indices().reshape(self.rows, -1, 2)
        if not (idx[:, :, 0] < idx[:, :, 1]).all():
            bad = np.argwhere(~(idx[:, :, 0] < idx[:, :, 1]))[0]
            raise CorruptionError(
                f"meta indices not strictly increasing in row {bad[0]}, group {bad[1]}"
            )
        if not np.isfinite(self.values).all():
            raise CorruptionError("non-finite value in packed 2:4 payload")


def _meta_bytes_per_row(cols: int) -> int:
    return (cols // 2 + 3) // 4


def _pack_indices(idx: np.ndarray) -> np.ndarray:
    rows, slots = idx.shape
    pad = (-slots) % 4
    if pad:
        idx = np.pad(idx, ((0, 0), (0, pad)))
    quads = idx.reshape(rows, -1, 4).astype(np.uint8)
    packed = quads[:, :, 0] | (quads[:, :, 1] << 2) | (quads[:, :, 2] << 4) | (quads[:, :, 3] << 6)
    return packed.astype(np.uint8)


def _unpack_indices(packed: np.ndarray, slots: int) -> np.ndarray:
    parts = [(packed >> shift) & 0b11 for shift in (0, 2, 4, 6)]
    return np.stack(parts, axis=-1).reshape(packed.shape[0], -1)[:, :slots]


def sparsify24(a, mode: str = GREEDY_MAGNITUDE) -> Sparse24Matrix:
    """Sparsify each 4-group of each row down to two kept slots.

    Kept slots are always the two largest-|input| positions; stored
    values are the raw inputs (greedy) or the soft-thresholded ones.
    One stable sort serves both (ties go to the lower column index): the
    soft threshold is the magnitude at order position 2, which is the
    group's second-smallest magnitude.  This is the only place a group
    is ordered; sparsify24_backward reads the kept slots off the pack.
    The input matrix is never modified.
    """
    a = as_matrix(a)
    _check_mode(mode)
    if a.shape[1] % 4 or a.shape[1] == 0:
        raise ShapeError(f"sparsify24 needs cols divisible by 4, got {a.shape}")
    groups = a.reshape(a.shape[0], -1, 4)
    mags = np.abs(groups)
    order = np.argsort(-mags, axis=-1, kind="stable")
    slots = np.sort(order[..., :2], axis=-1)
    kept = np.take_along_axis(groups, slots, axis=-1)
    if mode == SOFT_THRESHOLD:
        t = np.take_along_axis(mags, order[..., 2:3], axis=-1)
        kept = np.where(np.abs(kept) > t, kept - np.sign(kept) * t, 0.0)
    values = kept.reshape(a.shape[0], -1)
    meta = _pack_indices(slots.reshape(a.shape[0], -1))
    return Sparse24Matrix(a.shape[0], a.shape[1], values, meta)


def sparsify24_backward(a, s: Sparse24Matrix, grad, mode: str) -> np.ndarray:
    """Map a gradient w.r.t. decode24(s), where s = sparsify24(a, mode),
    back onto a.  The kept slots are read from s, not re-derived from a.

    Greedy: the mask is locally constant off ties, so kept slots pass
    the gradient and dropped ones get zero.  Soft thresholding: the
    exact almost-everywhere Jacobian transpose.  Survivors (|a| > t)
    pass their gradient unchanged; the threshold element, the
    larger-magnitude dropped slot (the lower index on a tie, where
    sparsify24 read t), additionally collects
    -sign(a_t) * sum(sign(a_i) * g_i) over the survivors, because t
    tracks its magnitude; the rest get zero.
    """
    a = as_matrix(a)
    grad = as_matrix(grad)
    _check_mode(mode)
    if a.shape != (s.rows, s.cols) or grad.shape != a.shape:
        raise ShapeError(
            f"input {a.shape} and gradient {grad.shape} must match the {s.rows}x{s.cols} pack"
        )
    keep = kept_mask(s)
    if mode == GREEDY_MAGNITUDE:
        return np.where(keep, grad, 0.0)
    g = a.reshape(a.shape[0], -1, 4)
    mags = np.abs(g)
    tpos = np.argmax(np.where(keep.reshape(g.shape), -1.0, mags), axis=-1)[..., None]
    t = np.take_along_axis(mags, tpos, axis=-1)
    out = np.where(mags > t, grad.reshape(g.shape), 0.0)
    coupling = -(np.sign(g) * out).sum(axis=-1, keepdims=True)
    np.put_along_axis(out, tpos, np.take_along_axis(np.sign(g), tpos, axis=-1) * coupling, axis=-1)
    return out.reshape(a.shape)


def decode24(s: Sparse24Matrix | VenomMatrix) -> np.ndarray:
    """Expand packed storage back to a dense rows x cols matrix."""
    s.validate()
    out = np.zeros((s.rows, s.cols), dtype=np.float64)
    out[np.arange(s.rows)[:, None], s.abs_columns()] = s.values
    return out


def kept_mask(s: Sparse24Matrix | VenomMatrix) -> np.ndarray:
    """Dense boolean mask of the kept slots (True even for stored zeros)."""
    out = np.zeros((s.rows, s.cols), dtype=bool)
    out[np.arange(s.rows)[:, None], s.abs_columns()] = True
    return out


def reencode24(dense, like: Sparse24Matrix | VenomMatrix) -> Sparse24Matrix | VenomMatrix:
    """Pack ``dense`` into the slot structure of ``like`` (values are
    gathered at like's kept positions, everything else is dropped)."""
    dense = as_matrix(dense)
    if dense.shape != (like.rows, like.cols):
        raise ShapeError(f"expected {like.rows}x{like.cols}, got {dense.shape}")
    return like.with_values(dense[np.arange(like.rows)[:, None], like.abs_columns()])


def soft_threshold(a) -> np.ndarray:
    """Soft-threshold every 4-group of every row: the dense form of
    sparsify24(a, SOFT_THRESHOLD).

    t is the group's second-smallest magnitude; entries with |x| <= t
    become 0, the rest move toward zero by t.
    """
    return decode24(sparsify24(a, SOFT_THRESHOLD))


def soft_threshold_backward(a, grad) -> np.ndarray:
    """Exact almost-everywhere Jacobian-transpose of soft_threshold at a
    (see sparsify24_backward); valid wherever the magnitude order within
    a group is strict."""
    return sparsify24_backward(a, sparsify24(a, SOFT_THRESHOLD), grad, SOFT_THRESHOLD)


def mass_kept_fraction(dense, decoded) -> float:
    """L1 mass of the sparsified matrix over the original's (1.0 when
    nothing was dropped or shrunk)."""
    dense = as_matrix(dense)
    decoded = as_matrix(decoded)
    if decoded.shape != dense.shape:
        raise ShapeError(f"mass_kept_fraction: shapes differ: {dense.shape} vs {decoded.shape}")
    total = float(np.abs(dense).sum())
    if total == 0.0:
        return 1.0
    return float(np.abs(decoded).sum()) / total


# ---------------------------------------------------------------------------
# kernels: each touches only the kept values of the packed operand and
# tallies its multiplies as it goes.  spmm24 and spmm24_tn loop over
# (absolute column, kept value) pairs one slot column at a time, so they
# serve a V:N:M matrix as well: it is a 2:4 pack over gathered columns.

def spmm24(s: Sparse24Matrix | VenomMatrix, b, label: str = "spmm24") -> np.ndarray:
    """decode24(s) @ b without decoding: sparse operand on the left.

    out[i] = sum_j values[i, j] * b[cols[i, j]], kept slot j ascending.
    """
    b = as_matrix(b)
    if s.cols != b.shape[0]:
        raise ShapeError(f"spmm24: inner dimensions differ: {s.rows}x{s.cols} times {b.shape}")
    cols, values, n = s.abs_columns(), s.values, b.shape[1]
    out = np.zeros((s.rows, n), dtype=np.float64)
    for j in range(cols.shape[1]):
        out += values[:, j : j + 1] * b[cols[:, j]]
        tally(s.rows * n, label)
    return out


def spmm24_rhs(a, s: Sparse24Matrix, label: str = "spmm24_rhs") -> np.ndarray:
    """a @ decode24(s) without decoding: sparse operand on the right.

    Accumulates k strictly ascending, so on an already-compliant s the
    result is bit-identical to gemm(a, decode24(s)).  The output is built
    transposed, so kept row k of s scatters into contiguous rows.
    """
    a = as_matrix(a)
    if a.shape[1] != s.rows:
        raise ShapeError(f"spmm24_rhs: inner dimensions differ: {a.shape} times {s.rows}x{s.cols}")
    cols = s.abs_columns()
    a_t = np.ascontiguousarray(a.T)
    out_t = np.zeros((s.cols, a.shape[0]), dtype=np.float64)
    half = s.slots_per_row
    for k in range(s.rows):
        out_t[cols[k]] += s.values[k][:, None] * a_t[k]
        tally(a.shape[0] * half, label)
    return np.ascontiguousarray(out_t.T)


def spmm24_tn(s: Sparse24Matrix | VenomMatrix, b, label: str = "spmm24_tn") -> np.ndarray:
    """decode24(s).T @ b without decoding (s carries the sparsity).

    out[cols[i, j]] += values[i, j] * b[i] over all kept slots.  Each
    output row accumulates its entries in (slot, row) order, the order
    of one np.add.at per slot.  Entries are sorted by (column, slot,
    row); pass p adds the p-th entry of every output row at once, so no
    row appears twice in a pass.
    """
    b = as_matrix(b)
    if s.rows != b.shape[0]:
        raise ShapeError(f"spmm24_tn: row counts differ: {s.rows}x{s.cols} vs {b.shape}")
    rows, n = s.rows, b.shape[1]
    col = s.abs_columns().T.ravel()  # entry e is slot e // rows, row e % rows
    by_col = np.argsort(col, kind="stable")
    sorted_col = col[by_col]
    rank = np.arange(col.size) - np.searchsorted(sorted_col, sorted_col)  # p, per output row
    e = by_col[np.argsort(rank, kind="stable")]
    dst, src, val = col[e], e % rows, s.values.T.ravel()[e]
    out = np.zeros((s.cols, n), dtype=np.float64)
    hi = 0
    for size in np.bincount(rank).tolist():
        lo, hi = hi, hi + size
        out[dst[lo:hi]] += val[lo:hi, None] * b[src[lo:hi]]
        tally(size * n, label)
    return out


# ---------------------------------------------------------------------------
# file I/O

def s24_to_bytes(s: Sparse24Matrix) -> bytes:
    s.validate()
    return b"".join(
        (
            S24_MAGIC,
            struct.pack("<QQ", s.rows, s.cols),
            np.ascontiguousarray(s.values, dtype="<f8").tobytes(),
            np.ascontiguousarray(s.meta).tobytes(),
        )
    )


def save_s24(s: Sparse24Matrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(s24_to_bytes(s))


def s24_from_bytes(blob: bytes, origin: str = "<bytes>") -> Sparse24Matrix:
    """Parse one S24F record that spans exactly the whole of blob."""
    if len(blob) < 20:
        raise FormatError(f"{origin}: truncated header ({len(blob)} bytes)")
    if blob[:4] != S24_MAGIC:
        raise FormatError(f"{origin}: bad magic {blob[:4]!r} (expected {S24_MAGIC!r})")
    rows, cols = struct.unpack_from("<QQ", blob, 4)
    rows, cols = int(rows), int(cols)
    if cols % 4 or cols <= 0 or rows <= 0:
        raise FormatError(f"{origin}: bad 2:4 shape {rows}x{cols}")
    nval = rows * (cols // 2)
    nmeta = rows * _meta_bytes_per_row(cols)
    body = blob[20:]
    need = nval * 8 + nmeta
    if len(body) < need:
        raise FormatError(f"{origin}: truncated payload ({len(body)} of {need} bytes)")
    if len(body) > need:
        raise FormatError(f"{origin}: {len(body) - need} trailing bytes after the payload")
    values = np.frombuffer(body[: nval * 8], dtype="<f8").astype(np.float64).reshape(rows, cols // 2)
    meta = np.frombuffer(body[nval * 8 : nval * 8 + nmeta], dtype=np.uint8).copy()
    s = Sparse24Matrix(rows, cols, values, meta.reshape(rows, -1))
    s.validate()
    if not np.array_equal(_pack_indices(s.meta_indices()), s.meta):
        raise FormatError(f"{origin}: nonzero padding bits in the metadata block")
    return s


def load_s24(path) -> Sparse24Matrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    return s24_from_bytes(blob, str(path))
