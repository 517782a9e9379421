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
    apply_permutation,
    cluster_columns,
    invert_permutation,
    moe_to_venom,
    pad_rows,
    padded_layout,
    route_tokens,
    routed_feature_mask,
    unpad_rows,
)
from .sparse24 import (
    GREEDY_MAGNITUDE,
    MODES,
    SOFT_THRESHOLD,
    Sparse24Matrix,
    decode24,
    kept_mask,
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

    y2 holds the post-sparsification form actually used by the y3
    product: a plain array (dense), a Sparse24Matrix (act24),
    or a VenomMatrix (venom).  act_mask is the effective boolean mask
    the activation sparsification applied (kept slots intersected with
    the routed-column mask in venom mode, in padded row space).
    params is the FfnParams the forward ran with, and w1/w2 its weights
    as packed for this step; the backward reuses them instead of
    sparsifying again.  matmul_log records (product, packed_operand) per
    matmul so operand placement can be asserted.
    """

    x: np.ndarray
    y1: np.ndarray
    y2: object
    policy: SparsityPolicy
    params: FfnParams
    w1: PackedWeight
    w2: PackedWeight
    plan: RoutingPlan | None = None
    layout: PaddedLayout | None = None
    act_mask: np.ndarray | None = None
    matmul_log: list = field(default_factory=list)


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


def _master_weight_grad(w, g_eff, pw: PackedWeight, mode: str) -> np.ndarray:
    # unwind the mask composition in reverse order
    if pw.t is not None:
        g_eff = _t(sparsify24_backward(_t(pw.pre), pw.t, _t(g_eff), mode))
    if pw.own is not None:
        g_eff = sparsify24_backward(w, pw.own, g_eff, mode)
    return as_matrix(g_eff)


def _row_maps(tape: FfnTape):
    """(rows, unrows): from the caller's token rows to the rows the
    activation pack lives in, and back.  The identity under act24; under
    venom, rows permutes by the routing plan and zero-pads each expert
    group, and unrows drops the pad rows and restores token order."""
    if tape.plan is None:
        def rows(a):
            return a
        return rows, rows

    def rows(a):
        return pad_rows(apply_permutation(a, tape.plan), tape.layout)

    def unrows(a):
        return invert_permutation(unpad_rows(a, tape.layout), tape.plan)
    return rows, unrows


def ffn_forward(
    x,
    p: FfnParams,
    pol: SparsityPolicy,
    bank: ExpertBank | None = None,
    frozen: FfnTape | None = None,
):
    """Run the FFN under a policy; returns (y3, tape).

    venom mode requires a bank whose column sets cover d_ffn; the
    output is returned in the caller's token order (routing permutes
    and zero-pads rows internally).  With ``frozen`` (a tape from a
    previous forward under the same policy), the activation masks and
    routing plan are reused instead of recomputed, making the forward a
    fixed piecewise-smooth function of (x, w1, w2); weight masks are
    always recomputed from the weights themselves.  Each enabled weight
    mask is chosen once here, and the packs ride on the tape into
    ffn_backward.
    """
    x = as_matrix(x)
    if x.shape[1] != p.d_model:
        raise ShapeError(f"input is {x.shape}, w1 expects {p.d_model} features")
    if frozen is not None and frozen.policy != pol:
        raise InputError("frozen tape was produced under a different policy")
    log: list = []

    w1 = _pack_weight(p.w1, pol.w1_sparse, pol.w1t_sparse, pol.weight_mode)
    w2 = _pack_weight(p.w2, pol.w2_sparse, pol.w2t_sparse, pol.weight_mode)

    if pol.w1_sparse:
        y1 = spmm24_rhs(x, w1.own, label="ffn.y1")
        log.append(("y1", "w1"))
    else:
        y1 = gemm(x, w1.eff)
        log.append(("y1", "none"))
    y2 = squared_relu(y1)

    tape = FfnTape(x=x, y1=y1, y2=y2, policy=pol, params=p, w1=w1, w2=w2, matmul_log=log)

    if pol.act_mode != "dense":
        # act24 and venom share one chain: y2 is a 2:4 pack (over the
        # gathered columns for venom) and the sparse operand of y3.  Only
        # the encoder and venom's routed mask differ; a frozen tape
        # re-encodes y2 on its slots in either mode.
        if pol.act_mode == "venom":
            if bank is None:
                raise InputError("venom activation mode requires an expert bank")
            if bank.d_ffn != p.d_ffn:
                raise ShapeError(f"bank covers {bank.d_ffn} features, w1 produces {p.d_ffn}")
            tape.plan = frozen.plan if frozen is not None else route_tokens(x, bank, pol.router.top_k)
            tape.layout = padded_layout(tape.plan, pol.venom.v)
        rows, unrows = _row_maps(tape)
        if frozen is not None:
            tape.y2 = reencode24(np.where(frozen.act_mask, rows(y2), 0.0), frozen.y2)
            tape.act_mask = frozen.act_mask
        elif pol.act_mode == "venom":
            tape.y2 = moe_to_venom(apply_permutation(y2, tape.plan), tape.plan, bank, pol.venom)
            tape.act_mask = kept_mask(tape.y2) & routed_feature_mask(tape.plan, bank, tape.layout)
        else:
            tape.y2 = sparsify24(y2, GREEDY_MAGNITUDE)
            tape.act_mask = kept_mask(tape.y2)
        y3 = unrows(spmm24(tape.y2, w2.eff, label="ffn.y3"))
        log.append(("y3", "y2"))
    elif pol.w2_sparse:
        y3 = spmm24_rhs(y2, w2.own, label="ffn.y3")
        log.append(("y3", "w2"))
    else:
        y3 = gemm(y2, w2.eff)
        log.append(("y3", "none"))
    return y3, tape


def ffn_backward(dy3, tape: FfnTape, p: FfnParams, pol: SparsityPolicy):
    """Exact a.e. gradients (dx, dw1, dw2) of the policy's forward for
    an upstream dy3; masks are treated as locally constant except soft
    thresholding, which uses its true Jacobian.  dy1 inherits y2's
    activation mask, so the dX and dW1 products stay activation-sparse.
    The weight packs come from the tape, so p must be the very FfnParams
    the forward ran with.
    """
    dy3 = as_matrix(dy3)
    if tape.policy != pol:
        raise InputError("tape was produced under a different policy")
    if tape.params is not p:
        raise InputError("tape was produced with different weights")
    if dy3.shape != (tape.x.shape[0], p.d_out):
        raise ShapeError(f"dy3 is {dy3.shape}, expected {(tape.x.shape[0], p.d_out)}")
    log, w1, w2 = tape.matmul_log, tape.w1, tape.w2

    def dy2_product(dy3_rows):
        # dy2 = dy3 @ w2.eff.T; the packed operand is the transposed
        # weight when its own 2:4 mask is on, never the activation.
        if pol.w2t_sparse:
            log.append(("dy2", "w2t"))
            return spmm24_rhs(dy3_rows, w2.t, label="ffn.dy2")
        log.append(("dy2", "none"))
        return gemm(dy3_rows, _t(w2.eff))

    if pol.act_mode != "dense":
        # the forward's activation chain in reverse: dy1 is re-encoded on
        # y2's slots, so dx and dw1 stay activation-sparse.
        rows, unrows = _row_maps(tape)
        dy3r = rows(dy3)
        dw2_eff = spmm24_tn(tape.y2, dy3r, label="ffn.dw2")
        log.append(("dw2", "y2"))
        dy2 = np.where(tape.act_mask, dy2_product(dy3r), 0.0)
        dy1 = reencode24(squared_relu_backward(dy2, rows(tape.y1)), tape.y2)
        dx = unrows(spmm24(dy1, _t(w1.eff), label="ffn.dx"))
        log.append(("dx", "dy1"))
        dw1_eff = _t(spmm24_tn(dy1, rows(tape.x), label="ffn.dw1"))
        log.append(("dw1", "dy1"))
    else:
        y2 = tape.y2
        dw2_eff = gemm(_t(y2), dy3)
        log.append(("dw2", "none"))
        dy1 = squared_relu_backward(dy2_product(dy3), tape.y1)
        if pol.w1t_sparse:
            dx = spmm24_rhs(dy1, w1.t, label="ffn.dx")
            log.append(("dx", "w1t"))
        else:
            dx = gemm(dy1, _t(w1.eff))
            log.append(("dx", "none"))
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
            venom=VenomParams(4, 2, 8),
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


def gradcheck(pol: SparsityPolicy, shape=(8, 16, 32), seed: int = 0) -> GradcheckReport:
    """Compare ffn_backward against central finite differences of the
    loss 0.5*||y3||^2 through the policy's own forward.

    Venom masks are frozen from the base point (straight-through), so
    the differentiated function is fixed; all other masks are part of
    the differentiated function and the base point is audited to sit
    away from mask tie boundaries (margin 1e-6), deterministically
    bumping the seed by 1000 until a generic point is found.
    """
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

    frozen = tape if pol.act_mode == "venom" else None
    if frozen is not None:
        y3_frozen, _ = ffn_forward(x, p, pol, bank, frozen=frozen)
        if not np.array_equal(y3_frozen, y3):
            raise GuardError("frozen-mask forward does not reproduce the base output")

    def loss(xv, w1v, w2v) -> float:
        yv, _ = ffn_forward(xv, FfnParams(w1v, w2v), pol, bank, frozen=frozen)
        return 0.5 * float(np.sum(yv * yv))

    tensors = [x.copy(), p.w1.copy(), p.w2.copy()]
    analytic = [dx_an, dw1_an, dw2_an]
    rels = []
    for t_ix, an in enumerate(analytic):
        base = tensors[t_ix]
        fd = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            h = _FD_STEP * max(1.0, abs(base[idx]))
            saved = base[idx]
            base[idx] = saved + h
            lp = loss(*tensors)
            base[idx] = saved - h
            lm = loss(*tensors)
            base[idx] = saved
            fd[idx] = (lp - lm) / (2.0 * h)
        rels.append(float(np.max(np.abs(fd - an)) / (np.max(np.abs(an)) + 1e-12)))

    return GradcheckReport(
        policy_tag=pol.tag,
        shape=(b, d_model, d_ffn),
        seed=seed,
        seed_used=seed_eff,
        rel_dx=rels[0],
        rel_dw1=rels[1],
        rel_dw2=rels[2],
    )
