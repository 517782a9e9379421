"""2:4 semi-structured sparsity: sparsifiers, packed storage, kernels.

A 2:4-sparse matrix keeps at most two of every four consecutive
elements in a row.  A pack holds exactly two values per group (zeros
are stored as kept values when fewer than two entries survive) and the
in-group column 0..3 of each.  The pack is checked once, when it is
built: each group's two indices must be strictly increasing, or the
constructor raises CorruptionError.  The absolute column of every slot
is computed then as well, and the indices and columns are read-only
from there on, so no later op re-derives or re-checks them.  The 2-bit
metadata bytes exist only in the S24F file format.

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
validate() checks only that the values are finite; decode24, the
writers and the readers call it.

S24F file layout (little-endian): magic ``S24F``, u64 rows, u64 cols,
values block (rows x cols/2 real64, row-major), then the metadata block
(2-bit indices, row-major, each row padded to a whole byte).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .counters import tally
from .errors import CorruptionError, FormatError, InputError, ShapeError
from .matcore import _fold_in_order, as_matrix

if TYPE_CHECKING:
    from .venom import VenomMatrix

SOFT_THRESHOLD = "soft_threshold"
GREEDY_MAGNITUDE = "greedy_magnitude"
MODES = (SOFT_THRESHOLD, GREEDY_MAGNITUDE)

S24_MAGIC = b"S24F"


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"unknown sparsify mode {mode!r} (expected one of {MODES})")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (a itself stays writable)."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Sparse24Matrix:
    """Packed 2:4 matrix: two kept values per 4-group and the in-group
    column of each, checked once when built (see the module docstring)."""

    rows: int
    cols: int
    values: np.ndarray  # (rows, cols // 2) float64
    slots: np.ndarray  # (rows, cols // 2) integers, the in-group column 0..3 of each value
    _abs_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.cols % 4 or self.cols <= 0 or self.rows <= 0:
            raise ShapeError(f"2:4 matrix needs positive cols divisible by 4, got {self.rows}x{self.cols}")
        half = self.cols // 2
        if self.values.shape != (self.rows, half):
            raise ShapeError(f"values block must be {self.rows}x{half}, got {self.values.shape}")
        if self.slots.shape != (self.rows, half):
            raise ShapeError(f"slot block must be {self.rows}x{half}, got {self.slots.shape}")
        pair = self.slots.reshape(self.rows, -1, 2)
        # x >> 2 is nonzero for any index outside 0..3, negative ones included
        if (self.slots >> 2).any() or not (pair[..., 0] < pair[..., 1]).all():
            raise CorruptionError(
                "in-group indices are not two strictly increasing values in 0..3 per group"
            )
        object.__setattr__(self, "slots", _read_only(self.slots))
        abs_cols = (np.arange(half) >> 1 << 2) + self.slots  # slot j is in group j // 2
        abs_cols.flags.writeable = False
        object.__setattr__(self, "_abs_cols", abs_cols)

    @property
    def slots_per_row(self) -> int:
        return self.cols // 2

    def abs_columns(self) -> np.ndarray:
        """Absolute column of every kept slot, shape (rows, cols // 2), read-only."""
        return self._abs_cols

    def with_values(self, values: np.ndarray) -> Sparse24Matrix:
        """The same slots holding other values; the checked slots and
        columns are shared, not rebuilt."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.values.shape:
            raise ShapeError(f"values block must be {self.values.shape}, got {values.shape}")
        return _with(self, values=values)

    def validate(self) -> None:
        """Raise CorruptionError unless every stored value is finite."""
        if not np.isfinite(self.values).all():
            raise CorruptionError("non-finite value in packed 2:4 payload")


def _with(pack, **fields):
    """A copy of a checked pack with some fields replaced, skipping
    __post_init__: only for fields that cannot break its checks."""
    new = object.__new__(type(pack))
    new.__dict__.update(pack.__dict__, **fields)
    return new


def _meta_bytes_per_row(cols: int) -> int:
    return (cols // 2 + 3) // 4


def _pack_indices(idx: np.ndarray) -> np.ndarray:
    """2-bit in-group indices, four to a byte, each row padded to a whole byte."""
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
    rows = a.shape[0]
    return Sparse24Matrix(rows, a.shape[1], kept.reshape(rows, -1), slots.reshape(rows, -1))


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
# spmm24 and spmm24_rhs fold small outputs in order with gemm's helper.


def spmm24(s: Sparse24Matrix | VenomMatrix, b, label: str = "spmm24") -> np.ndarray:
    """decode24(s) @ b without decoding: sparse operand on the left.

    out[i] = sum_j values[i, j] * b[cols[i, j]], kept slot j ascending,
    so the result is bit-identical to gemm(decode24(s), b): the dropped
    columns add only +-0.0 products there.  Outputs of 2 to 2**14
    entries fold the gathered products of a chunk of slots at once
    (matcore._fold_in_order); others add one slot at a time.
    """
    b = as_matrix(b)
    if s.cols != b.shape[0]:
        raise ShapeError(f"spmm24: inner dimensions differ: {s.rows}x{s.cols} times {b.shape}")
    cols, values, n = s.abs_columns(), s.values, b.shape[1]
    cols_t, values_t = cols.T, values.T

    def products(j0, dst):
        j1 = j0 + len(dst)
        # the columns are in range; "clip" only skips a buffered bounds check
        np.take(b, cols_t[j0:j1], axis=0, out=dst, mode="clip")
        dst *= values_t[j0:j1, :, None]

    out = _fold_in_order((s.rows, n), cols.shape[1], products, s.rows * n, label)
    if out is not None:
        return out
    out = np.zeros((s.rows, n), dtype=np.float64)
    for j in range(cols.shape[1]):
        out += values[:, j : j + 1] * b[cols[:, j]]
        tally(s.rows * n, label)
    return out


def spmm24_rhs(a, s: Sparse24Matrix, label: str = "spmm24_rhs") -> np.ndarray:
    """a @ decode24(s) without decoding: sparse operand on the right.

    Accumulates k strictly ascending, so the result is bit-identical to
    gemm(a, decode24(s)).  The output is built transposed, so kept row k
    of s scatters into contiguous rows.  Outputs of 2 to 2**14 entries
    fold a chunk of rows k at once (matcore._fold_in_order), each
    product zero outside row k's kept columns; others scatter one row k
    at a time.
    """
    a = as_matrix(a)
    if a.shape[1] != s.rows:
        raise ShapeError(f"spmm24_rhs: inner dimensions differ: {a.shape} times {s.rows}x{s.cols}")
    m, cols, values, half = a.shape[0], s.abs_columns(), s.values, s.slots_per_row
    a_t = np.ascontiguousarray(a.T)

    def products(k0, dst):
        k1 = k0 + len(dst)
        dst.fill(0.0)
        at = cols[k0:k1] + (np.arange(k1 - k0) * s.cols)[:, None]
        dst.reshape(-1, m)[at.ravel()] = np.einsum("kh,ki->khi", values[k0:k1], a_t[k0:k1]).reshape(-1, m)

    out_t = _fold_in_order((s.cols, m), s.rows, products, m * half, label)
    if out_t is None:
        out_t = np.zeros((s.cols, m), dtype=np.float64)
        for k in range(s.rows):
            out_t[cols[k]] += values[k][:, None] * a_t[k]
            tally(m * half, label)
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
            _pack_indices(s.slots).tobytes(),
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
    meta = np.frombuffer(body[nval * 8 :], dtype=np.uint8).reshape(rows, -1)
    slots = _unpack_indices(meta, cols // 2)
    if not np.array_equal(_pack_indices(slots), meta):
        raise FormatError(f"{origin}: nonzero padding bits in the metadata block")
    s = Sparse24Matrix(rows, cols, values, slots)
    s.validate()
    return s


def load_s24(path) -> Sparse24Matrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    return s24_from_bytes(blob, str(path))
