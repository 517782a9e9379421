"""2:4 semi-structured sparsity: sparsifiers, packed storage, kernels.

A 2:4-sparse matrix keeps at most two of every four consecutive
elements in a row.  A pack holds exactly two values per group (zeros
are stored as kept values when fewer than two entries survive) and the
in-group column 0..3 of each.  The pack is checked once, when it is
built: each group's two indices must be strictly increasing, or the
constructor (and so the S24F reader) raises CorruptionError.
sparsify24, whose sorted top-two picks hold that by construction, builds
its pack without the check.  The absolute column of every slot is
computed then as well, and the indices and columns are read-only from
there on, so no later op re-derives or re-checks them.  The 2-bit
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
then lower column index; a NaN ranks below every number.  sparsify24 is
the only place a group is ordered: the soft pack also keeps each group's
threshold slot, and sparsify24_backward reads that and the kept slots
off the pack, so the map and its backward share one order.

decode24, kept_mask, reencode24, spmm24, spmm24_rhs and spmm24_tn read
a pack only through rows, cols, values, abs_columns(), with_values()
and validate(), so a VenomMatrix (sfk.venom) passes through them as
well.
validate() checks only that the values are finite; decode24, the
writers and the readers call it.  A pack spmm24_tn has read also keeps
the column structure of its rank walk (_column_tables), which
with_values hands to the new pack.

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
from .matcore import _fold_in_order, _folds_in_chunks, as_matrix, check_cols

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
    # flat index of each group's soft threshold element, where the soft
    # sparsify24 built the pack; None otherwise
    _thresholds: np.ndarray | None = field(default=None, init=False, repr=False)

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
        _set_columns(self)

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


def _set_columns(s: Sparse24Matrix) -> None:
    """Make the slots read-only and derive the absolute columns from them."""
    object.__setattr__(s, "slots", _read_only(s.slots))
    abs_cols = (np.arange(s.cols // 2) >> 1 << 2) + s.slots  # slot j is in group j // 2
    abs_cols.flags.writeable = False
    object.__setattr__(s, "_abs_cols", abs_cols)


def _unchecked_pack(rows: int, cols: int, values: np.ndarray, slots: np.ndarray,
                    thresholds: np.ndarray | None) -> Sparse24Matrix:
    """A Sparse24Matrix built without the constructor's checks: only for
    slots that hold by construction, as sparsify24's sorted top two do."""
    s = object.__new__(Sparse24Matrix)
    s.__dict__.update(rows=rows, cols=cols, values=values, slots=slots, _thresholds=thresholds)
    _set_columns(s)
    return s


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
    One stable sort serves both (ties go to the lower column index, and
    a NaN sorts below every number): the soft threshold is the magnitude
    at order position 2, which is the group's second-smallest magnitude,
    and the soft pack keeps that position's flat index for
    sparsify24_backward.  This is the only place a group is ordered;
    sparsify24_backward reads the kept and threshold slots off the pack.
    Groups are indexed flat: group q of the input is flat entries
    4q..4q+3.  The input matrix is never modified.
    """
    a = as_matrix(a)
    _check_mode(mode)
    rows, cols = a.shape
    if cols % 4 or cols == 0 or rows == 0:
        raise ShapeError(f"sparsify24 needs at least one row and cols divisible by 4, got {a.shape}")
    mags = np.abs(a).reshape(-1, 4)
    order = np.argsort(-mags, axis=-1, kind="stable")
    first, second = order[:, 0], order[:, 1]
    slots = np.empty((len(order), 2), dtype=order.dtype)
    np.minimum(first, second, out=slots[:, 0])
    np.maximum(first, second, out=slots[:, 1])
    base = np.arange(0, a.size, 4)  # flat index of each group's slot 0
    kept = a.reshape(-1)[slots + base[:, None]]
    thresholds = None
    if mode == SOFT_THRESHOLD:
        thresholds = order[:, 2] + base
        t = mags.reshape(-1)[thresholds][:, None]
        kept = np.where(np.abs(kept) > t, kept - np.sign(kept) * t, 0.0)
    return _unchecked_pack(rows, cols, kept.reshape(rows, -1), slots.reshape(rows, -1), thresholds)


def sparsify24_backward(a, s: Sparse24Matrix, grad, mode: str) -> np.ndarray:
    """Map a gradient w.r.t. decode24(s), where s = sparsify24(a, mode),
    back onto a.  The kept slots, and under soft thresholding the
    threshold slot, are read from s, not re-derived from a.

    Greedy: the mask is locally constant off ties, so kept slots pass
    the gradient and dropped ones get zero.  Soft thresholding: the
    exact almost-everywhere Jacobian transpose.  Survivors (|a_k| >
    |a_t|) pass their gradient unchanged; the threshold element a_t, the
    one sparsify24 read t from (order position 2 of its stable sort, so
    a lone NaN is never it), additionally collects -sign(a_t) *
    sum(sign(a_i) * g_i) over the survivors, because t tracks its
    magnitude; the rest get zero.  Only a group's two kept slots can survive, so the soft map
    works on those, as (rows, cols/2) arrays, and the threshold slot.
    The survivors are tested against a, not read off s's values, which
    another mask may have changed since (reencode24).  A soft backward
    on a pack the soft sparsify24 did not build raises InputError.
    """
    a = as_matrix(a)
    grad = as_matrix(grad)
    _check_mode(mode)
    if a.shape != (s.rows, s.cols) or grad.shape != a.shape:
        raise ShapeError(
            f"input {a.shape} and gradient {grad.shape} must match the {s.rows}x{s.cols} pack"
        )
    if mode == GREEDY_MAGNITUDE:
        return np.where(kept_mask(s), grad, 0.0)
    tpos = s._thresholds
    if tpos is None:
        raise InputError("the soft sparsify24_backward needs a pack built by sparsify24(a, 'soft_threshold')")
    flat = a.reshape(-1)
    kept = s.abs_columns() + np.arange(0, a.size, s.cols)[:, None]  # flat index of each kept slot
    ak, at = flat.take(kept), flat.take(tpos)
    gk = np.where(np.abs(ak) > np.abs(at).repeat(2).reshape(kept.shape), grad.reshape(-1).take(kept), 0.0)
    # bitwise the sum over all four slots from +0.0: the dropped slots
    # add only signed zeros, which leave the kept pair's sum unchanged
    # except that an all-zero sum is +0.0
    pair = (np.sign(ak) * gk).reshape(-1, 2)
    coupling = -((pair[:, 0] + pair[:, 1]) + 0.0)
    out = np.zeros(a.size, dtype=np.float64)
    out[kept] = gk
    out[tpos] = np.sign(at) * coupling
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
# tallies its multiplies as it goes, and each is bitwise gemm on the
# decoded operand: it sums the kept terms in gemm's order, and the
# terms it skips are +-0.0 products there.  Each sums through gemm's
# loop, matcore._fold_in_order, whose size rule picks chunks or one term
# at a time; the rank walk's prefix passes are the one other summation
# loop.  spmm24's terms are its slot columns.  spmm24_tn, the sampled
# spmm24_rhs and the full one on outputs the rule does not chunk are one
# rank walk over the pack's column tables (_rank_walk); the full
# spmm24_rhs on smaller outputs folds one row of the pack per term.


def spmm24(s: Sparse24Matrix | VenomMatrix, b, label: str = "spmm24") -> np.ndarray:
    """decode24(s) @ b without decoding: sparse operand on the left.

    out[i] = sum_j values[i, j] * b[cols[i, j]], kept slot j ascending,
    so the result is bit-identical to gemm(decode24(s), b): the dropped
    columns add only +-0.0 products there.  The gathered products of
    each slot j are the terms of matcore._fold_in_order.
    """
    b = as_matrix(b)
    if s.cols != b.shape[0]:
        raise ShapeError(f"spmm24: inner dimensions differ: {s.rows}x{s.cols} times {b.shape}")
    cols_t, values_t = s.abs_columns().T, s.values.T

    def products(j0, dst):
        j1 = j0 + len(dst)
        # the columns are in range; "clip" only skips a buffered bounds check
        np.take(b, cols_t[j0:j1], axis=0, out=dst, mode="clip")
        dst *= values_t[j0:j1, :, None]
        return dst.size

    return _fold_in_order((s.rows, b.shape[1]), len(cols_t), products, label)


def spmm24_rhs(a, s: Sparse24Matrix | VenomMatrix, label: str = "spmm24_rhs", cols=None) -> np.ndarray:
    """a @ decode24(s) without decoding: sparse operand on the right.

    Accumulates k strictly ascending, so the result is bit-identical to
    gemm(a, decode24(s)).  The output is built transposed.  Where
    matcore._fold_in_order's size rule folds it in chunks, its terms are
    the rows k of s, each product zero outside row k's kept columns and
    scattered into contiguous rows; elsewhere it is the rank walk of
    spmm24_tn(s, a.T) (_rank_walk).

    With ``cols`` (one row of output columns per row of a, see
    ``matcore.check_cols``) the product is sampled, as in ``gemm``:
    entry [i, j] is entry [i, cols[i, j]] of the full product, bitwise,
    and each row k multiplies only at the sampled entries whose column
    it keeps.  A long run of adjacent rows with one column list, as the
    routed tokens of one expert set are in routing order, is a walk of
    whole rows; every other sampled entry is a unit of one entry walk
    (see _spmm24_rhs_sampled).
    """
    a = as_matrix(a)
    if a.shape[1] != s.rows:
        raise ShapeError(f"spmm24_rhs: inner dimensions differ: {a.shape} times {s.rows}x{s.cols}")
    if cols is not None:
        return _spmm24_rhs_sampled(a, s, check_cols(cols, a.shape[0], s.cols), label)
    m = a.shape[0]
    if not _folds_in_chunks((s.cols, m)):
        return np.ascontiguousarray(_rank_walk(_column_tables(s), a.T, np.arange(s.cols), label).T)
    cols, values, a_t = s.abs_columns(), s.values, np.ascontiguousarray(a.T)

    def products(k0, dst):
        k1 = k0 + len(dst)
        dst.fill(0.0)
        at = cols[k0:k1] + (np.arange(k1 - k0) * s.cols)[:, None]
        dst.reshape(-1, m)[at.ravel()] = np.einsum("kh,ki->khi", values[k0:k1], a_t[k0:k1]).reshape(-1, m)
        return at.size * m

    return np.ascontiguousarray(_fold_in_order((s.cols, m), s.rows, products, label).T)


# A run of adjacent rows with one column list is a row walk of its own
# from _GROUP_ROWS rows on; shorter runs join the one entry walk.
# Measured inside real steps on a 2-core x86 host with numpy 2.4:
# toy_train's routed y1 (32 x 32, runs of 4-15 rows) takes 109 us as one
# entry walk against 125-132 us as row walks; wide_train's (192 x 96,
# runs of 46-53 rows) 1.7 ms as row walks against 3.6 ms as entries.
_GROUP_ROWS = 16


def _spmm24_rhs_sampled(a, s: Sparse24Matrix | VenomMatrix, cols: np.ndarray, label: str) -> np.ndarray:
    """spmm24_rhs at the entries ``cols`` samples: entry [i, j] sums
    a[i, k] * W[k, c] (c = cols[i, j]) over the rows k of s that keep
    column c, from +0.0 with k ascending, like the full kernel.  A run
    of at least _GROUP_ROWS adjacent rows of a with one column list (the
    routed tokens of one expert set, in routing order) is one rank walk
    of whole rows, over a[run].T; every other entry is a unit of its own
    in one more walk.
    """
    tables = _column_tables(s)
    m, h = cols.shape
    starts = np.flatnonzero((cols[1:] != cols[:-1]).any(axis=1)) + 1  # where a run of equal rows begins
    bounds = [0, *starts.tolist(), m]
    out = np.empty(cols.shape, dtype=np.float64)
    single = np.ones(m, dtype=bool)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo >= _GROUP_ROWS:
            out[lo:hi] = _rank_walk(tables, a[lo:hi].T, cols[lo], label).T
            single[lo:hi] = False
    single = np.flatnonzero(single)
    if single.size:
        got = _rank_walk(tables, a.T, cols[single].ravel(), label, single.repeat(h))
        out[single] = got.reshape(len(single), h)
    return out


def _column_tables(s: Sparse24Matrix | VenomMatrix, keep: bool = False):
    """The pack's kept entries by column, row k ascending: count[c] rows
    keep column c, and row p of (k_at, value_at) holds, per column, the
    p-th of those rows k and its value (k_at = s.rows and 0.0 past the
    column's count).  The structural part (count, k_at and the order of
    the values) depends only on the pack's columns.  With ``keep`` it is
    kept on the pack, and with_values hands it to the new pack, so a pack
    of other values on the same columns gathers only value_at: spmm24_tn
    keeps it, since ffn_backward's dw2 and dw1 run it on y2 and on dy1,
    one column structure.  The spmm24_rhs products read each weight pack
    once per step, and keeping theirs would only hold memory until the
    tape is freed (about 1 MB on wide_train's peak)."""
    structure = s.__dict__.get("_by_column")
    if structure is None:
        flat = s.abs_columns().ravel()  # row-major, so k ascends within each column
        # a key of 16 bits or fewer sorts by radix, several times faster
        order = np.argsort(flat.astype(np.min_scalar_type(s.cols - 1)), kind="stable")
        count = np.bincount(flat, minlength=s.cols)
        rank = np.arange(flat.size) - np.repeat(np.cumsum(count) - count, count)
        at = rank * s.cols + np.repeat(np.arange(s.cols), count)
        k_at = np.full((int(count.max()), s.cols), s.rows, dtype=np.intp)
        k_at.ravel()[at] = order // s.values.shape[1]
        structure = count, k_at, order, at
        if keep:
            object.__setattr__(s, "_by_column", structure)
    count, k_at, order, at = structure
    value_at = np.zeros(k_at.shape, dtype=np.float64)
    value_at.ravel()[at] = s.values.ravel()[order]
    return count, k_at, value_at


# Up to _ENTRY_FOLD single-entry units fold; past it the prefix passes
# are cheaper, since the fold gathers an index per entry for every pass.
# Measured on a 2-core x86 host with numpy 2.4: on wide_train's sampled
# dy2 pack (61 passes) 768 entries fold in 0.43 ms against 0.51 ms by
# prefix, 1,536 in 1.07 ms against 0.68 ms; toy_train's 512 (23 passes)
# fold in 67 us against 198 us.  Whole-row units keep _fold_in_order's
# own size rule, about even with the prefix passes at 12,288 entries of
# wide_train's dw products.
_ENTRY_FOLD = 2**10


def _rank_walk(tables, b, cols, label: str, at=None) -> np.ndarray:
    """Per unit u, the sum of W[k, cols[u]] * b[k] over the rows k of the
    pack W that keep column cols[u] (``tables``, from _column_tables),
    from +0.0 with k ascending: an output row of len(b[0]) entries.
    With ``at`` the unit is the single entry b[k, at[u]] instead, and
    its output row has one entry.

    Pass p adds each unit's p-th term.  Outputs that
    matcore._fold_in_order's size rule folds in chunks (and have at most
    _ENTRY_FOLD entry units) fold the passes there: a unit past its
    count gathers an all-zero row appended to b, times 0.0, which adds
    nothing.  Others sort the units by count, so pass p works on a
    prefix of them, and put them back in order at the end: these prefix
    passes skip the padding.
    """
    count, k_at, value_at = tables
    n = b.shape[1]
    b0 = np.concatenate((b, np.zeros((1, n))))  # row len(b): the all-zero row
    if at is not None:
        k_at, b0 = k_at * n, b0.reshape(-1, 1)  # entry (k, r) is row k*n + r of b0
    n_kept = count[cols]
    passes = int(n_kept.max(initial=0))
    shape = (len(cols), b0.shape[1])
    if _folds_in_chunks(shape) and (at is None or len(cols) <= _ENTRY_FOLD):
        done = 0  # terms before the chunk

        def products(p0, dst):
            nonlocal done
            p1 = p0 + len(dst)
            src = k_at[p0:p1].take(cols, axis=1)
            if at is not None:
                src += at
            # the rows are in range; "clip" only skips a buffered bounds check
            np.take(b0, src, axis=0, out=dst, mode="clip")
            dst *= value_at[p0:p1].take(cols, axis=1)[..., None]
            upto = int(np.minimum(n_kept, p1).sum())
            terms, done = upto - done, upto
            return terms * shape[1]

        return _fold_in_order(shape, passes, products, label)
    by_n = np.argsort(-n_kept, kind="stable")
    cols = cols[by_n]
    at = None if at is None else at[by_n]
    width = np.searchsorted(-n_kept[by_n], -np.arange(passes), side="left")  # units per pass
    acc = np.zeros(shape, dtype=np.float64)
    tmp = np.empty_like(acc)
    for p, w in enumerate(width.tolist()):
        src = k_at[p].take(cols[:w])
        if at is not None:
            src += at[:w]
        np.take(b0, src, axis=0, out=tmp[:w], mode="clip")
        tmp[:w] *= value_at[p].take(cols[:w])[:, None]
        acc[:w] += tmp[:w]
        tally(w * shape[1], label)
    out = np.empty_like(acc)
    out[by_n] = acc
    return out


def spmm24_tn(s: Sparse24Matrix | VenomMatrix, b, label: str = "spmm24_tn") -> np.ndarray:
    """decode24(s).T @ b without decoding (s carries the sparsity).

    Output row c sums W[k, c] * b[k] over the rows k that keep column
    c, k ascending, so the result is bit-identical to
    gemm(decode24(s).T, b): a rank walk (_rank_walk) with one unit per
    column of s.
    """
    b = as_matrix(b)
    if s.rows != b.shape[0]:
        raise ShapeError(f"spmm24_tn: row counts differ: {s.rows}x{s.cols} vs {b.shape}")
    return _rank_walk(_column_tables(s, keep=True), b, np.arange(s.cols), label)


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
