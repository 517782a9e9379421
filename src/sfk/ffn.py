"""Squared-ReLU FFN forward/backward with sparse-operand placement.

The two-matmul FFN

    y1 = x @ W1,   y2 = relu(y1)^2,   y3 = y2 @ W2

is computed under a SparsityPolicy that decides, per product, which
operand is packed into a sparse format:

  * weight sparsity (2:4): W1 for y1, W2T for dy2, each with its own
    independently chosen mask, soft-thresholded by default;
  * activation sparsity (2:4 or V:N:M): y2 carries the sparse operand
    in y2 @ W2 and y2.T @ dy3, and dy1 inherits y2's mask for
    dy1 @ W1.T and dy1.T @ x, so the weight operand of those four
    products is never the packed one.

The products whose inputs the activation mask discards are sampled
(the ``cols`` of gemm and spmm24_rhs): under venom y1 is computed only
on each token's routed columns, and in both activation modes dy2 only
at y2's kept slots; no product reads the pad rows of a venom pack.

Every mask a policy enables is applied to the effective weights and
activations of the forward pass, and the backward pass is the exact
almost-everywhere chain rule of that forward: masks found by magnitude
(greedy 2:4, Venom) are treated as locally constant, which off tie
points is their true derivative, and soft thresholding differentiates
exactly, including the threshold coupling term.  Gradients are mapped
back onto the dense master weights.  gradcheck verifies all of this
against central finite differences of the forward itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError, InputError, ShapeError
from .matcore import as_matrix, gemm, rand_matrix
from .router import (
    ExpertBank,
    RouterConfig,
    RoutingPlan,
    PaddedLayout,
    _encode_routed,
    apply_permutation,
    cluster_columns,
    invert_permutation,
    padded_layout,
    route_tokens,
    routed_columns,
)
from .sparse24 import (
    GREEDY_MAGNITUDE,
    MODES,
    SOFT_THRESHOLD,
    Sparse24Matrix,
    _with,
    decode24,
    reencode24,
    sparsify24,
    sparsify24_backward,
    spmm24,
    spmm24_rhs,
    spmm24_tn,
)
from .venom import VenomParams

ACT_MODES = ("dense", "act24", "venom")


@dataclass(eq=False)
class FfnParams:
    """Master (dense) weights: w1 is d_model x d_ffn, w2 is d_ffn x d_out."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self):
        self.w1 = as_matrix(self.w1)
        self.w2 = as_matrix(self.w2)
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ShapeError(
                f"w1 is {self.w1.shape} but w2 is {self.w2.shape}; inner dims must agree"
            )
        if not (np.isfinite(self.w1).all() and np.isfinite(self.w2).all()):
            raise InputError("FFN weights must be finite")

    @property
    def d_model(self) -> int:
        return self.w1.shape[0]

    @property
    def d_ffn(self) -> int:
        return self.w1.shape[1]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]


def init_ffn_params(d_model: int, d_ffn: int, d_out: int | None = None, seed: int = 0) -> FfnParams:
    """1/sqrt(fan-in) scaled normal init, deterministic per seed."""
    d_out = d_model if d_out is None else d_out
    w1 = rand_matrix(d_model, d_ffn, seed) / np.sqrt(d_model)
    w2 = rand_matrix(d_ffn, d_out, seed + 1) / np.sqrt(d_ffn)
    return FfnParams(w1, w2)


@dataclass(frozen=True)
class SparsityPolicy:
    """Which operands are sparsified, and how.

    weight_mode picks the 2:4 weight sparsifier (soft thresholding by
    default; greedy magnitude keeps survivors unshrunk).
    """

    w1_sparse: bool = False
    w1t_sparse: bool = False
    w2_sparse: bool = False
    w2t_sparse: bool = False
    act_mode: str = "dense"
    venom: VenomParams | None = None
    router: RouterConfig | None = None
    weight_mode: str = SOFT_THRESHOLD

    def __post_init__(self):
        if self.act_mode not in ACT_MODES:
            raise InputError(f"unknown activation mode {self.act_mode!r}; expected one of {ACT_MODES}")
        if self.weight_mode not in MODES:
            raise InputError(f"unknown weight mode {self.weight_mode!r}; expected one of {MODES}")
        if (self.venom is not None) != (self.act_mode == "venom"):
            raise InputError("venom params must be present exactly when act_mode is 'venom'")
        if (self.router is not None) != (self.act_mode == "venom"):
            raise InputError("a router config must be present exactly when act_mode is 'venom'")

    @property
    def tag(self) -> str:
        """Short human-readable label, used in training reports."""
        parts = [n for n, on in (("w1", self.w1_sparse), ("w1t", self.w1t_sparse),
                                 ("w2", self.w2_sparse), ("w2t", self.w2t_sparse)) if on]
        if self.act_mode != "dense":
            parts.append(self.act_mode)
        return "+".join(parts) if parts else "dense"


DENSE_POLICY = SparsityPolicy()


@dataclass(eq=False)
class PackedWeight:
    """One weight as the products of a step read it, built once per forward.

    eff is the effective (masked) weight.  own packs eff along its own
    rows and t packs eff.T; each is None when that 2:4 mask is off.  pre
    is the matrix the transposed mask was chosen from (the own-row
    masked weight, or the master), kept for the master-weight gradient;
    None when the transposed mask is off.
    """

    eff: np.ndarray
    own: Sparse24Matrix | None = None
    t: Sparse24Matrix | None = None
    pre: np.ndarray | None = None


@dataclass(eq=False)
class FfnTape:
    """Saved tensors the backward pass consumes.

    y1 holds the pre-activation entries the forward computed: all of
    them when y1_cols is None, else entry [i, j] is at column
    y1_cols[i, j] of row i.  Its rows are the activation pack's real
    rows: the tokens in routing order under venom (frozen or not), else
    in the caller's order.  y1_cols is each routed token's
    router.routed_columns (a venom forward), or the frozen pack's
    abs_columns() of those rows (a frozen-mask forward).  y2
    holds the post-sparsification form actually used by the y3 product:
    a plain array (dense), a Sparse24Matrix (act24), or a VenomMatrix
    (venom); on a tape of some tokens' rows of a frozen pack (plan and
    layout None, see _rows_of), those rows.  act_mask, in the pack's
    shape, flags the kept slots the activation mask keeps: all of them
    under act24, the routed ones under venom.  params is the FfnParams
    the forward ran with, and w1/w2 its weights as packed for this step;
    the backward reuses them instead of sparsifying again.  matmul_log
    records (product, packed_operand) per matmul so operand placement
    can be asserted.
    frozen_masks is True when the activation masks and routing came from
    a frozen tape.  Only the stacked forwards of gradcheck on w1 (see
    _staged_forward) make a tape whose y1 and y2 hold several copies of
    the batch along their rows; it has no backward.
    """

    x: np.ndarray
    y1: np.ndarray
    y2: object
    policy: SparsityPolicy
    params: FfnParams
    w1: PackedWeight
    w2: PackedWeight
    y1_cols: np.ndarray | None = None
    plan: RoutingPlan | None = None
    layout: PaddedLayout | None = None
    act_mask: np.ndarray | None = None
    frozen_masks: bool = False
    matmul_log: list = field(default_factory=list)
    _y1_kept: np.ndarray | None = field(default=None, repr=False)  # y1 at _real_rows' slots, if at hand


def squared_relu(y1) -> np.ndarray:
    """Elementwise max(y1, 0)^2."""
    y1 = as_matrix(y1)
    return np.square(np.maximum(y1, 0.0))


def squared_relu_backward(dy2, y1) -> np.ndarray:
    """Elementwise 2 * dy2 * max(y1, 0); exact derivative (C1 at 0)."""
    dy2 = as_matrix(dy2)
    y1 = as_matrix(y1)
    if dy2.shape != y1.shape:
        raise ShapeError(f"grad is {dy2.shape} but pre-activation is {y1.shape}")
    return 2.0 * dy2 * np.maximum(y1, 0.0)


def _t(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.T)


def _pack_weight(w: np.ndarray, sparse: bool, t_sparse: bool, mode: str) -> PackedWeight:
    """Apply the enabled 2:4 masks: first along the weight's own rows,
    then (independently) along the transposed orientation.  Each mask is
    chosen once; with both on, the own-row pack is re-gathered from the
    effective weight, whose nonzeros sit inside its slots."""
    own = sparsify24(w, mode) if sparse else None
    pre = decode24(own) if sparse else w
    if not t_sparse:
        return PackedWeight(pre, own)
    t = sparsify24(_t(pre), mode)
    eff = _t(decode24(t))
    return PackedWeight(eff, reencode24(eff, own) if sparse else None, t, pre)


def _reuse_or_pack(
    pw: PackedWeight | None, w: np.ndarray, sparse: bool, t_sparse: bool, mode: str, name: str
) -> PackedWeight:
    """pw, a pack handed to ffn_forward, checked against the policy's
    masks and w's shape (its values are the caller's promise); or, when
    pw is None, w packed here."""
    if pw is None:
        return _pack_weight(w, sparse, t_sparse, mode)
    if (
        not isinstance(pw, PackedWeight)
        or (pw.own is not None) != sparse
        or (pw.t is not None) != t_sparse
        or pw.eff.shape != w.shape
    ):
        raise InputError(f"packs: the {name} pack does not match the policy's {name} masks and shape")
    return pw


def _master_weight_grad(w, g_eff, pw: PackedWeight, mode: str) -> np.ndarray:
    # unwind the mask composition in reverse order
    if pw.t is not None:
        g_eff = _t(sparsify24_backward(_t(pw.pre), pw.t, _t(g_eff), mode))
    if pw.own is not None:
        g_eff = sparsify24_backward(w, pw.own, g_eff, mode)
    return as_matrix(g_eff)


@dataclass(frozen=True, eq=False)
class _Rows:
    """Rows of a pack, as the kernels read a pack."""

    rows: int
    cols: int
    values: np.ndarray
    columns: np.ndarray

    def abs_columns(self) -> np.ndarray:
        return self.columns

    def with_values(self, values: np.ndarray) -> _Rows:
        return _with(self, values=values)


def _real(tape: FfnTape):
    """Index of the activation pack's real rows: under venom, its non-pad rows."""
    return slice(None) if tape.layout is None else tape.layout._real


def _real_rows(tape: FfnTape) -> _Rows:
    """The activation pack's real rows, the only rows a product reads: a
    pad row holds zeros, so its terms are +0.0 or land in dropped rows."""
    values = tape.y2.values[_real(tape)]
    return _Rows(len(values), tape.y2.cols, values, tape.y2.abs_columns()[_real(tape)])


def _row_maps(tape: FfnTape):
    """(rows, unrows): the caller's token rows to the pack's real rows and
    back; the identity under act24, the routing permutation under venom."""
    if tape.plan is None:
        return (lambda a: a), (lambda a: a)
    return (lambda a: apply_permutation(a, tape.plan)), (lambda a: invert_permutation(a, tape.plan))


def _rows_of(tape: FfnTape, tokens: np.ndarray) -> FfnTape:
    """The frozen tape of the forward on tape.x[tokens] (repeats allowed),
    tape being a frozen-mask forward's: its y2 holds each token's real row
    of tape's activation pack, in the order of tokens, with those rows'
    y1, columns and mask.  With no plan or layout, its rows are its
    tokens; no routing or pack is built."""
    real = tokens if tape.plan is None else np.argsort(tape.plan.permutation)[tokens]
    pack = _real_rows(tape)
    y2 = _Rows(len(real), pack.cols, pack.values[real], pack.columns[real])
    return _with(tape, x=tape.x[tokens], y1=tape.y1[real], y2=y2, y1_cols=tape.y1_cols[real],
                 plan=None, layout=None, act_mask=tape.act_mask[_real(tape)][real],
                 matmul_log=[], _y1_kept=tape._y1_kept[real])


def ffn_forward(
    x,
    p: FfnParams,
    pol: SparsityPolicy,
    bank: ExpertBank | None = None,
    frozen: FfnTape | None = None,
    *,
    packs: tuple[PackedWeight | None, PackedWeight | None] | None = None,
    _stage: tuple[FfnTape, np.ndarray | None] | None = None,
):
    """Run the FFN under a policy; returns (y3, tape).

    venom mode requires a bank whose column sets cover d_ffn; the
    output is returned in the caller's token order (routing permutes
    rows internally), and y1 is computed only on each token's routed
    columns.  With ``frozen`` (a tape from a previous forward
    under the same policy; anything else raises InputError), the
    activation masks and routing plan are reused
    instead of recomputed, making the forward a fixed piecewise-smooth
    function of (x, w1, w2), and y1 is computed only at the frozen
    pack's kept slots of real rows; weight masks are always recomputed
    from the weights themselves.  Each enabled weight mask is chosen
    once here, and the packs ride on the tape into ffn_backward.

    ``packs`` is (w1, w2): each entry a PackedWeight from an earlier
    forward, under the same policy, of a weight bitwise equal to p.w1 or
    p.w2, used instead of packing that weight again; an entry of None is
    packed here, and None as a whole packs both.  The values are not
    compared (that would cost what packing does); a pack whose masks or
    shape do not match the policy and p raises InputError.

    ``_stage`` is private to gradcheck: its stacked forwards on w2 and
    w1 (see _staged_forward) run inside this call, so that a tracer of
    ffn_forward sees their kernels as it sees every other forward's.
    """
    if _stage is not None:
        return _staged_forward(x, p, *_stage)
    x = as_matrix(x)
    if x.shape[1] != p.d_model:
        raise ShapeError(f"input is {x.shape}, w1 expects {p.d_model} features")
    if frozen is not None and not isinstance(frozen, FfnTape):
        raise InputError("frozen must be a tape from ffn_forward")
    if frozen is not None and frozen.policy != pol:
        raise InputError("frozen tape was produced under a different policy")
    if packs is not None and not (isinstance(packs, (tuple, list)) and len(packs) == 2):
        raise InputError(f"packs must be a (w1, w2) tuple or list, got {packs!r}")
    pw1, pw2 = (None, None) if packs is None else packs

    w1 = _reuse_or_pack(pw1, p.w1, pol.w1_sparse, pol.w1t_sparse, pol.weight_mode, "w1")
    w2 = _reuse_or_pack(pw2, p.w2, pol.w2_sparse, pol.w2t_sparse, pol.weight_mode, "w2")
    tape = FfnTape(x=x, y1=None, y2=None, policy=pol, params=p, w1=w1, w2=w2,
                   frozen_masks=frozen is not None and pol.act_mode != "dense")
    if pol.act_mode == "venom":
        if bank is None:
            raise InputError("venom activation mode requires an expert bank")
        if bank.d_ffn != p.d_ffn:
            raise ShapeError(f"bank covers {bank.d_ffn} features, w1 produces {p.d_ffn}")
        if frozen is not None:
            tape.plan, tape.layout = frozen.plan, frozen.layout
        else:
            tape.plan = route_tokens(x, bank, pol.router.top_k)
            tape.layout = padded_layout(tape.plan, pol.venom.v)

    # y1 on the entries the activation chain reads, in the rows of the
    # activation pack: the frozen pack's kept slots of its real rows, each
    # routed token's columns, or all of them
    if tape.frozen_masks:
        tape.y1_cols = frozen.y2.abs_columns()[_real(frozen)]
    elif pol.act_mode == "venom":
        tape.y1_cols = routed_columns(tape.plan, bank)[tape.plan.permutation]
    tape.y1 = _weight_product(tape, "y1", _row_maps(tape)[0](x), "w1", tape.y1_cols)
    return _activation_and_output(tape, frozen if tape.frozen_masks else None, bank), tape


def _weight_product(tape: FfnTape, product: str, a: np.ndarray, weight: str, cols=None) -> np.ndarray:
    """a @ the tape's effective weight ("w1", "w2", or the transposed
    "w1t", "w2t"), sampled at cols when given, logged with its packed
    operand: that orientation's 2:4 pack if the tape holds one."""
    w = tape.w1 if weight.startswith("w1") else tape.w2
    transposed = weight.endswith("t")
    pack = w.t if transposed else w.own
    tape.matmul_log.append((product, "none" if pack is None else weight))
    if pack is not None:
        return spmm24_rhs(a, pack, label=f"ffn.{product}", cols=cols)
    return gemm(a, _t(w.eff) if transposed else w.eff, cols)


def _staged_forward(x: np.ndarray, p: FfnParams, hidden: FfnTape, cols: np.ndarray | None):
    """A forward gradcheck stacks on the hidden stage (routing, y1, y2)
    of hidden, a tape under the same policy on this x and a w1 bitwise
    equal to hidden's; returns (y3, tape), logging only the products run.

    With cols None, the forward on p.w2, which may have another width:
    it packs p.w2 and runs the one y3 product, each column bitwise the
    full forward's (under w2's own 2:4 mask, per 4-group).

    Else p.w1 holds n aligned groups of g columns (g = 4 under w1's own
    2:4 mask, else 1), cols names the column of hidden's w1 each stands
    for, and copy c replaces columns cols[c*g:(c+1)*g] of hidden's w1.
    No w1 mask reaches past a group, so y1 runs on p.w1's columns alone
    (under frozen masks, only where a frozen slot reads them), spliced
    into copies of hidden's y1, and the activation chain and y3, on
    hidden's w2 pack, run over the stacked copies (under frozen masks, on
    hidden's rows of every copy's tokens; under venom, hidden is a
    frozen-mask forward's).  y3 stacks the copies' y3s along the rows,
    each bitwise the full forward's.  p.w2 is not read.
    """
    pol = hidden.policy
    if cols is None:
        w2 = _pack_weight(p.w2, pol.w2_sparse, pol.w2t_sparse, pol.weight_mode)
        tape = _with(hidden, params=p, w2=w2, matmul_log=[])
        return _output_product(tape), tape
    g = 4 if pol.w1_sparse else 1
    copies, b = len(cols) // g, len(x)
    w1 = _pack_weight(p.w1, pol.w1_sparse, pol.w1t_sparse, pol.weight_mode)
    # under frozen masks, hidden's rows of every copy's tokens, in token order
    frozen = _rows_of(hidden, np.tile(np.arange(b), copies)) if hidden.frozen_masks else None
    tape = _with(hidden if frozen is None else frozen, params=p, w1=w1, matmul_log=[])
    # slot[t, j]: where column j of p.w1 lands in token t's row of the base
    # y1, at the entry of the base column it stands for (-1 where the
    # frozen pack keeps no slot of that column in the row)
    base, rows = tape.y1[:b], np.arange(b)[:, None]
    if tape.y1_cols is None:
        slot = np.repeat(cols[None], b, axis=0)
        product = _weight_product(tape, "y1", x, "w1")
    else:  # sampled: each row at the columns it reads, padded with others
        at = np.full((b, hidden.w1.eff.shape[1]), -1)
        at[rows, tape.y1_cols[:b]] = np.arange(base.shape[1])
        slot = at[:, cols]
        need = slot >= 0
        h = max(1, int(need.sum(axis=1).max()))
        sampled = np.argsort(~need, axis=1, kind="stable")[:, :h]  # a row's needed columns first
        product = np.empty(need.shape)
        product[rows, sampled] = _weight_product(tape, "y1", x, "w1", sampled)
    r, j = np.nonzero(slot >= 0)
    y1 = np.repeat(base[None], copies, axis=0)
    y1[j // g, r, slot[r, j]] = product[r, j]
    tape.y1 = y1.reshape(-1, base.shape[1])
    return _activation_and_output(tape, frozen, None), tape


def _activation_and_output(tape: FfnTape, frozen: FfnTape | None, bank) -> np.ndarray:
    """The forward from tape.y1 on, for every forward that computes y1:
    the activation chain sets tape.y2 (with act_mask and _y1_kept), then
    the y3 product runs; returns y3.  With frozen, the activation masks
    are frozen's and y1 sits at its pack's kept slots of real rows.  The
    y1 of a w1-stacked forward (see _staged_forward) holds copies of the
    batch along its rows; dense and act24 treat each row on its own
    anyway, and frozen is then the _rows_of tape of the copies' tokens
    (an unfrozen venom chain is never stacked)."""
    pol, y1 = tape.policy, tape.y1
    if pol.act_mode == "dense":
        tape.y2 = squared_relu(y1)
    elif frozen is not None:  # act24 or venom: y2 re-encoded on the frozen pack's slots
        tape.act_mask, tape._y1_kept = frozen.act_mask, y1
        real = _real(frozen)
        values = np.zeros(frozen.y2.values.shape)  # a pad row holds zeros
        values[real] = np.where(frozen.act_mask[real], squared_relu(y1), 0.0)
        tape.y2 = frozen.y2.with_values(values)
    elif pol.act_mode == "venom":
        tape.y2, entry = _encode_routed(squared_relu(y1), tape.plan, bank, tape.layout, pol.venom)
        tape.act_mask, kept = entry >= 0, entry[_real(tape)]
        tape._y1_kept = np.where(kept >= 0, y1[np.arange(len(y1))[:, None], kept], 0.0)
    else:
        tape.y2 = sparsify24(squared_relu(y1), GREEDY_MAGNITUDE)
        tape.act_mask = np.ones(tape.y2.values.shape, dtype=bool)
    return _output_product(tape)


def _output_product(tape: FfnTape) -> np.ndarray:
    """y3 = y2 @ w2.eff in token order, logged with its packed operand:
    the activation pack (act24, venom), else as _weight_product logs it."""
    if tape.policy.act_mode == "dense":
        return _weight_product(tape, "y3", tape.y2, "w2")
    y3 = _row_maps(tape)[1](spmm24(_real_rows(tape), tape.w2.eff, label="ffn.y3"))
    tape.matmul_log.append(("y3", "y2"))
    return y3


def ffn_backward(dy3, tape: FfnTape, p: FfnParams, pol: SparsityPolicy):
    """Exact a.e. gradients (dx, dw1, dw2) of the policy's forward for
    an upstream dy3; masks are treated as locally constant except soft
    thresholding, which uses its true Jacobian.  dy1 inherits y2's
    activation mask, so the dX and dW1 products stay activation-sparse,
    and dy2 is computed only at y2's kept slots; every product runs on
    the activation pack's real rows (see _real_rows).  The weight packs
    come from the tape, so p must be the very FfnParams the forward ran
    with.
    """
    dy3 = as_matrix(dy3)
    if tape.policy != pol:
        raise InputError("tape was produced under a different policy")
    if tape.params is not p:
        raise InputError("tape was produced with different weights")
    if dy3.shape != (tape.x.shape[0], p.d_out):
        raise ShapeError(f"dy3 is {dy3.shape}, expected {(tape.x.shape[0], p.d_out)}")
    log, w1, w2 = tape.matmul_log, tape.w1, tape.w2
    if pol.act_mode != "dense":
        # the forward's activation chain in reverse, on the pack's real
        # rows: dy2 and dy1 live on y2's kept slots, so dx and dw1 stay
        # activation-sparse
        rows, unrows = _row_maps(tape)
        y2 = _real_rows(tape)
        dy3r = rows(dy3)
        dw2_eff = spmm24_tn(y2, dy3r, label="ffn.dw2")
        log.append(("dw2", "y2"))
        kept = y2.abs_columns()
        dy2 = np.where(tape.act_mask[_real(tape)], _weight_product(tape, "dy2", dy3r, "w2t", kept), 0.0)
        y1 = np.take_along_axis(tape.y1, kept, axis=1) if tape._y1_kept is None else tape._y1_kept
        dy1 = _with(y2, values=squared_relu_backward(dy2, y1))
        dx = unrows(spmm24(dy1, _t(w1.eff), label="ffn.dx"))
        log.append(("dx", "dy1"))
        dw1_eff = _t(spmm24_tn(dy1, rows(tape.x), label="ffn.dw1"))
        log.append(("dw1", "dy1"))
    else:
        y2 = tape.y2
        dw2_eff = gemm(_t(y2), dy3)
        log.append(("dw2", "none"))
        dy1 = squared_relu_backward(_weight_product(tape, "dy2", dy3, "w2t"), tape.y1)
        dx = _weight_product(tape, "dx", dy1, "w1t")
        dw1_eff = gemm(_t(tape.x), dy1)
        log.append(("dw1", "none"))

    dw1 = _master_weight_grad(p.w1, dw1_eff, w1, pol.weight_mode)
    dw2 = _master_weight_grad(p.w2, dw2_eff, w2, pol.weight_mode)
    return dx, dw1, dw2


# ---------------------------------------------------------------------------
# finite-difference gradient verification

ABLATIONS = ("dense", "w1", "w2", "w1t", "w2t", "act24", "venom")


def ablation_policy(tag: str, weight_mode: str = SOFT_THRESHOLD) -> SparsityPolicy:
    """The single-sparsification policies used by the gradient checks."""
    if tag == "dense":
        return SparsityPolicy(weight_mode=weight_mode)
    if tag in ("w1", "w1t", "w2", "w2t"):
        return SparsityPolicy(**{tag + "_sparse": True}, weight_mode=weight_mode)
    if tag == "act24":
        return SparsityPolicy(act_mode="act24", weight_mode=weight_mode)
    if tag == "venom":
        # smallest legal geometry: every expert owns 4 columns of every window
        return SparsityPolicy(
            act_mode="venom",
            venom=VenomParams(4, 8),
            router=RouterConfig(num_experts=2, top_k=1, align_m=8),
            weight_mode=weight_mode,
        )
    raise InputError(f"unknown ablation {tag!r}; expected one of {ABLATIONS}")


@dataclass(frozen=True)
class GradcheckReport:
    policy_tag: str
    shape: tuple
    seed: int
    seed_used: int
    rel_dx: float
    rel_dw1: float
    rel_dw2: float

    @property
    def max_rel(self) -> float:
        return max(self.rel_dx, self.rel_dw1, self.rel_dw2)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy_tag,
            "shape": list(self.shape),
            "seed": self.seed,
            "seed_used": self.seed_used,
            "rel_dx": self.rel_dx,
            "rel_dw1": self.rel_dw1,
            "rel_dw2": self.rel_dw2,
            "max_rel": self.max_rel,
        }


_TIE_MARGIN = 1e-6
_FD_STEP = 3e-7
# float64 values one stacked finite-difference forward may hold in any
# array it stacks: its rows of x or columns of w1 or w2, y1 and y3 of
# the stack, and the copies of y3 its losses sum (2**12 is 32 KiB)
_FD_BUDGET = 2**12


def _group_mags(a: np.ndarray) -> np.ndarray:
    r, c = a.shape
    return np.sort(np.abs(a).reshape(r, c // 4, 4), axis=-1)


def _weight_margins_ok(w: np.ndarray, mode: str, margin: float) -> bool:
    """Generic-point test for a 2:4 mask along w's rows: the kept/dropped
    magnitude gap must clear the margin, and for soft thresholding the
    threshold element must also be isolated and away from zero (its
    sign enters the Jacobian)."""
    m = _group_mags(w)
    if not (m[..., 2] - m[..., 1] > margin).all():
        return False
    if mode == SOFT_THRESHOLD:
        return bool(((m[..., 1] - m[..., 0] > margin) & (m[..., 1] > margin)).all())
    return True


def _act_margins_ok(y2: np.ndarray, margin: float) -> bool:
    """Mask-stability test for greedy 2:4 on the (non-negative) y2: the
    kept/dropped gap clears the margin, or the boundary entries are
    exactly zero (dead ReLU region, where masking is harmless)."""
    m = _group_mags(y2)
    return bool(((m[..., 2] == 0.0) | (m[..., 2] - m[..., 1] > margin)).all())


def _audit_generic_point(pol: SparsityPolicy, tape: FfnTape, margin: float) -> bool:
    ok = True
    for master, pw in ((tape.params.w1, tape.w1), (tape.params.w2, tape.w2)):
        if pw.own is not None:
            ok = ok and _weight_margins_ok(master, pol.weight_mode, margin)
        if pw.t is not None:
            ok = ok and _weight_margins_ok(_t(pw.pre), pol.weight_mode, margin)
    if pol.act_mode == "act24":
        ok = ok and _act_margins_ok(squared_relu(tape.y1), margin)
    return ok


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _fd_steps(a: np.ndarray) -> np.ndarray:
    """The central-difference step of each entry of a, flat: 3e-7 * max(1, |a|)."""
    return _FD_STEP * np.maximum(1.0, np.abs(a)).reshape(-1)


def _stack_chunks(n: int, width: int) -> list:
    """Flat entries 0..n-1 in chunks whose +h and -h copies, width values
    each, fit _FD_BUDGET (one entry at least)."""
    k = max(1, _FD_BUDGET // (2 * width))
    return [np.arange(s, min(s + k, n)) for s in range(0, n, k)]


def _check_stack(a: np.ndarray, run, width: int, y3: np.ndarray, what: str) -> None:
    """The first stacked forward of _stacked_fd, with nothing perturbed,
    must give the base y3's entries bitwise, else GuardError."""
    e = np.tile(_stack_chunks(a.size, width)[0], 2)
    y, at = run(e, a.reshape(-1)[e])
    if not np.array_equal(y, np.broadcast_to(y3, y.shape) if at is None else y3[at]):
        raise GuardError(f"stacked {what} does not reproduce the base output")


def _stacked_fd(a: np.ndarray, run, width: int, y3: np.ndarray) -> np.ndarray:
    """Central differences of 0.5 * ||y3||^2 in each entry of a, the +h
    and -h copies of a chunk of entries in one forward.  run(e, v) is
    that forward, copy c having flat entry e[c] of a set to v[c]; it
    returns the entries each copy moves of y3, shaped (copies, ...), and
    their index in y3, or each copy's whole y3 and None.  A copy's loss
    sums y3 * y3 over the base y3 with those entries replaced, or over
    its whole y3, which is bitwise the per-entry forward's loss: every
    other entry of that forward's y3 is the base one, and each loss sums
    one C-ordered array in the same pairwise order."""
    flat, h, sq = a.reshape(-1), _fd_steps(a), y3 * y3
    fd = np.empty(a.size)
    for e in _stack_chunks(a.size, width):
        k = len(e)
        y, at = run(np.tile(e, 2), np.concatenate([flat[e] + h[e], flat[e] - h[e]]))
        if at is None:
            copies = y * y
        else:
            copies = np.repeat(sq[None], 2 * k, axis=0)
            copies[(np.arange(2 * k).reshape(-1, *[1] * (y.ndim - 1)), *at)] = y * y
        loss = 0.5 * copies.reshape(2 * k, -1).sum(axis=1)
        fd[e] = (loss[:k] - loss[k:]) / (2.0 * h[e])
    return fd.reshape(a.shape)


def gradcheck(pol: SparsityPolicy, shape=(8, 16, 32), seed: int = 0) -> GradcheckReport:
    """Compare ffn_backward against central finite differences of the
    loss 0.5*||y3||^2 through the policy's own forward.

    Venom masks are frozen from the base point (straight-through), so
    the differentiated function is fixed; all other masks are part of
    the differentiated function and the base point is audited to sit
    away from mask tie boundaries (margin 1e-6), deterministically
    bumping the seed by 1000 until a generic point is found.

    Perturbing x[i, j] moves only row i of y3, perturbing w2[c, o] only
    column o (under w2's own 2:4 mask, the columns of o's 4-group), and
    perturbing w1[j, k] only column k of y1 (under w1's own 2:4 mask, the
    columns of k's 4-group): no mask spans rows of the activation, a
    weight's own-row mask is local to a 4-group, and w1's transposed mask
    to a column.  So the differences of x run as forwards on stacked
    perturbed rows (under venom, on the frozen-mask forward's rows of
    their tokens, see _rows_of); those of w2 as forwards (``_stage``, on
    the base point's hidden stage: the base tape, or for venom the
    frozen-mask forward's) on a w2 of stacked perturbed column groups;
    and those of w1 as forwards (``_stage`` with columns, on the same stage)
    that splice stacked perturbed column groups of y1 into copies of its
    y1 and run the rest of the forward on each copy.  Each forward holds
    the +h and -h copies of a chunk of entries.  Each copy's loss sums
    the base y3 with its row or columns replaced, or a w1 copy's whole
    y3, which is bitwise the loss of that entry's own forward, since
    every kernel sums each output entry on its own in a fixed order.  A
    chunk holds as many entries as fit _FD_BUDGET float64 values in each
    array it stacks (at (8, 16, 32), 16 for x and w2, and 8 for w1; under
    venom 16 for w1 too, as venom's y1 holds only the frozen slots).
    Once per call, before any difference, one stacked forward of
    unperturbed rows of x and one each of unperturbed column groups of
    w2 and w1 must reproduce the base y3 bitwise (GuardError otherwise).  No forward
    packs a weight it leaves as it was: it takes the base tape's pack
    (``packs``) or hidden stage.  At (8, 16, 32) a call runs 108
    forwards rather than 2,306 (venom 77, not 2,307).
    shape is three integers (batch, d_model, d_ffn) and seed an integer;
    anything else, bools included, raises InputError.
    """
    if not (isinstance(shape, (tuple, list)) and len(shape) == 3 and all(map(_is_int, shape))):
        raise InputError(f"shape must be three integers (batch, d_model, d_ffn), got {shape!r}")
    if not _is_int(seed):
        raise InputError(f"seed must be an integer, got {seed!r}")
    b, d_model, d_ffn = (int(v) for v in shape)
    if max(b, d_model, d_ffn) > 64:
        raise GuardError(f"gradcheck shapes are capped at 64 per dim, got {shape}")
    if seed < 0:  # the draws below use seed + 3, + 7 and + 13
        raise InputError(f"seed must be non-negative, got {seed}")

    for attempt in range(64):
        seed_eff = seed + 1000 * attempt
        x = rand_matrix(b, d_model, seed_eff + 3)
        p = init_ffn_params(d_model, d_ffn, d_model, seed_eff + 7)
        bank = None
        if pol.act_mode == "venom":
            bank = cluster_columns(p.w1, pol.router, seed_eff + 13)
        y3, tape = ffn_forward(x, p, pol, bank)
        if _audit_generic_point(pol, tape, _TIE_MARGIN):
            break
    else:
        raise GuardError("no generic point found in 64 seed bumps; masks are persistently tied")

    dx_an, dw1_an, dw2_an = ffn_backward(y3, tape, p, pol)

    # the hidden stage (routing, y1, y2) of the forwards on w2 and w1: the
    # base tape's, or for venom the frozen-mask forward's
    frozen, hidden = (tape, None) if pol.act_mode == "venom" else (None, tape)
    packs = (tape.w1, tape.w2)
    if frozen is not None:
        y3_frozen, hidden = ffn_forward(x, p, pol, bank, frozen=frozen, packs=packs)
        if not np.array_equal(y3_frozen, y3):
            raise GuardError("frozen-mask forward does not reproduce the base output")
    g2 = 4 if pol.w2_sparse else 1  # the columns of w2's effective form an entry of w2 moves

    def x_rows(e, v):
        # no mask spans rows, so a row of x moves only its row of y3: the
        # stack holds the perturbed rows (under venom, on the frozen-mask
        # forward's rows of their tokens)
        i = e // d_model
        xs = x[i]
        xs[np.arange(len(e)), e % d_model] = v
        kw = {} if frozen is None else {"frozen": _rows_of(hidden, i)}
        yv, _ = ffn_forward(xs, p, pol, bank, packs=packs, **kw)
        return yv, (i[:, None], np.arange(p.d_out))

    def w2_groups(e, v):
        # an entry of w2 moves only its column of y3, or under w2's own
        # 2:4 mask its 4-group's columns: the stack holds g2 columns per copy
        c, o = np.divmod(e, p.d_out)
        cols = (o - o % g2)[:, None] + np.arange(g2)
        w = p.w2[:, cols.reshape(-1)]
        w[c, np.arange(len(e)) * g2 + o % g2] = v
        yv, _ = ffn_forward(x, FfnParams(p.w1, w), pol, _stage=(hidden, None))
        return yv.reshape(b, len(e), g2).transpose(1, 0, 2), (np.arange(b)[:, None], cols[:, None])

    g1 = 4 if pol.w1_sparse else 1  # the columns of y1 an entry of w1 moves

    def w1_groups(e, v):
        # an entry of w1 moves only its column of y1, or under w1's own
        # 2:4 mask its 4-group's columns: the stack holds g1 columns per
        # copy, and each copy's whole y3 comes back
        j, k = np.divmod(e, d_ffn)
        cols = ((k - k % g1)[:, None] + np.arange(g1)).reshape(-1)
        w = p.w1[:, cols]
        w[j, np.arange(len(e)) * g1 + k % g1] = v
        yv, _ = ffn_forward(x, FfnParams(w, p.w2[cols]), pol, _stage=(hidden, cols))
        return yv.reshape(len(e), b, p.d_out), None  # each copy's whole y3

    x_side = (x, x_rows, max(d_ffn, y3.size))
    w2_side = (p.w2, w2_groups, max(g2 * d_ffn, y3.size))
    w1_side = (p.w1, w1_groups, max(g1 * d_model, hidden.y1.size, y3.size))
    _check_stack(*x_side, y3, "rows of x")
    _check_stack(*w2_side, y3, "column groups of w2 on the base point's hidden stage")
    _check_stack(*w1_side, y3, "column groups of w1 on the base point's hidden stage")

    fd_x = _stacked_fd(*x_side, y3)
    fd_w1 = _stacked_fd(*w1_side, y3)
    fd_w2 = _stacked_fd(*w2_side, y3)
    rels = [float(np.max(np.abs(fd - an)) / (np.max(np.abs(an)) + 1e-12))
            for fd, an in ((fd_x, dx_an), (fd_w1, dw1_an), (fd_w2, dw2_an))]

    return GradcheckReport(
        policy_tag=pol.tag,
        shape=(b, d_model, d_ffn),
        seed=seed,
        seed_used=seed_eff,
        rel_dx=rels[0],
        rel_dw1=rels[1],
        rel_dw2=rels[2],
    )
