"""Neuron-level expert routing.

The hidden dimension of an FFN is split offline into disjoint expert
column sets (balanced k-means over the first weight matrix's columns);
at run time each token is routed to the experts whose mean directions
score highest against it, tokens are re-ordered so that tokens sharing
a primary expert sit in consecutive rows, and the masked hidden
activation then lands directly in the V:N:M pattern.

Routing scores are plain dot products against unit-norm expert means,
which for normalized means rank experts exactly like cosine similarity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .codec import config_from_json, config_to_json
from .errors import InputError, ShapeError
from .matcore import as_matrix, gemm, load_matrix, save_matrix
from .venom import VenomMatrix, VenomParams, _encode_blocks


@dataclass(frozen=True)
class RouterConfig:
    """Expert layout knobs.

    align_m, when set, constrains clustering so every expert owns the
    same number of columns inside every align_m-wide column window.
    That per-window balance is what makes top_k=1 routing emit a legal
    V:N:M pattern for M = align_m: the owning expert of a block must
    bring at least 4 columns to every window it touches.
    """

    num_experts: int = 16
    top_k: int = 1
    align_m: int | None = None

    def __post_init__(self):
        if self.num_experts < 1:
            raise InputError(f"num_experts must be at least 1, got {self.num_experts}")
        if self.top_k < 1:
            raise InputError(f"top_k must be at least 1, got {self.top_k}")
        if self.top_k > self.num_experts:
            raise InputError(f"top_k {self.top_k} exceeds num_experts {self.num_experts}")
        if self.align_m is not None:
            if self.align_m % self.num_experts:
                raise InputError(
                    f"align_m {self.align_m} must be divisible by num_experts {self.num_experts}"
                )
            per_window = self.align_m // self.num_experts
            if self.top_k * per_window < 4:
                raise InputError(
                    f"top_k * columns-per-window = {self.top_k * per_window} < 4; "
                    f"a routed block could not fill its 4 retained columns"
                )


@dataclass(eq=False)
class ExpertBank:
    """Frozen expert layout: unit-norm mean directions plus the disjoint
    column sets, one per expert, covering the hidden dimension."""

    num_experts: int
    means: np.ndarray  # (d_model, num_experts), unit-norm columns
    column_sets: list[np.ndarray]

    def __post_init__(self):
        self.means = as_matrix(self.means)
        self.column_sets = [np.asarray(cs, dtype=np.int64) for cs in self.column_sets]
        self.validate()

    @property
    def d_ffn(self) -> int:
        return sum(cs.size for cs in self.column_sets)

    @property
    def d_model(self) -> int:
        return self.means.shape[0]

    def validate(self) -> None:
        if self.means.shape[1] != self.num_experts or len(self.column_sets) != self.num_experts:
            raise InputError("expert count disagrees between means and column sets")
        norms = np.linalg.norm(self.means, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise InputError(f"expert means must have unit norm, got norms {norms}")
        seen = np.concatenate(self.column_sets) if self.column_sets else np.array([], np.int64)
        if seen.size != self.d_ffn or np.unique(seen).size != seen.size:
            raise InputError("expert column sets must be disjoint")
        if seen.size and (seen.min() < 0 or np.unique(seen).size != seen.max() + 1):
            raise InputError("expert column sets must cover 0..d_ffn-1 exactly")
        for e, cs in enumerate(self.column_sets):
            if cs.size == 0 or cs.size % 4:
                raise InputError(
                    f"expert {e} owns {cs.size} columns; counts must be positive multiples of 4"
                )

    def column_mask(self) -> np.ndarray:
        """(num_experts, d_ffn) boolean ownership matrix."""
        mask = np.zeros((self.num_experts, self.d_ffn), dtype=bool)
        for e, cs in enumerate(self.column_sets):
            mask[e, cs] = True
        return mask


@dataclass(frozen=True)
class _BankManifest:
    """<prefix>.json of a saved bank; means_file names the SFK1 file of
    expert means next to it."""

    num_experts: int
    column_sets: list[list[int]]
    means_file: str

    def __post_init__(self):
        name = self.means_file
        if name != os.path.basename(name) or "\0" in name or name in ("", ".", ".."):
            raise InputError(f"means_file must be a file name, got {name!r}")
        if not all(0 <= c < 2**63 for cs in self.column_sets for c in cs):
            raise InputError("column_sets must hold column indices in [0, 2**63)")


def save_bank(bank: ExpertBank, prefix) -> None:
    """Write <prefix>.json (manifest) and <prefix>.means.sfk (SFK1)."""
    prefix = str(prefix)
    means_file = prefix + ".means.sfk"
    save_matrix(bank.means, means_file)
    manifest = _BankManifest(
        num_experts=bank.num_experts,
        column_sets=[cs.tolist() for cs in bank.column_sets],
        means_file=os.path.basename(means_file),
    )
    with open(prefix + ".json", "w") as fh:
        fh.write(config_to_json(manifest))


def load_bank(prefix) -> ExpertBank:
    """Read a bank written by save_bank; a malformed manifest raises
    InputError, and so does one whose means_file is not a readable file
    next to it."""
    prefix = str(prefix)
    with open(prefix + ".json", "rb") as fh:
        text = fh.read()
    try:
        manifest = config_from_json(_BankManifest, text)
    except InputError as exc:
        raise InputError(f"{prefix}.json: {exc}") from exc
    name = manifest.means_file
    try:
        means = load_matrix(os.path.join(os.path.dirname(prefix), name))
    except OSError as exc:
        raise InputError(f"{prefix}.json: means_file {name!r} cannot be read: {exc}") from exc
    return ExpertBank(manifest.num_experts, means, manifest.column_sets)


# ---------------------------------------------------------------------------
# offline clustering

def _greedy_capacity_fill(d2: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Assign each point (row of d2) to an expert (column), nearest first,
    respecting per-expert capacities.  Deterministic: ties resolve by
    (distance, point index, expert index)."""
    npts, nexp = d2.shape
    assign = np.full(npts, -1, dtype=np.int64)
    remaining = capacity.copy()
    unassigned = npts
    for flat in np.argsort(d2, axis=None, kind="stable"):
        p, e = divmod(int(flat), nexp)
        if assign[p] >= 0 or remaining[e] == 0:
            continue
        assign[p] = e
        remaining[e] -= 1
        unassigned -= 1
        if unassigned == 0:
            break
    return assign


def cluster_columns(w1, cfg: RouterConfig, seed: int) -> ExpertBank:
    """Balanced k-means over w1's columns (L2 metric), capacity-constrained
    so each expert owns exactly d_ffn/num_experts columns.

    With cfg.align_m set, the capacity is enforced per align_m-wide
    column window instead (align_m/num_experts columns each), which
    keeps every expert represented in every window; global balance
    follows.  Deterministic given the seed.
    """
    w1 = as_matrix(w1)
    d_ffn = w1.shape[1]
    e = cfg.num_experts
    if d_ffn % e:
        raise InputError(f"d_ffn {d_ffn} is not divisible by num_experts {e}")
    if (d_ffn // e) % 4:
        raise InputError(
            f"each expert would own {d_ffn // e} columns; counts must be multiples of 4"
        )
    m = cfg.align_m or d_ffn  # unaligned: one window spanning every column
    if d_ffn % m:
        raise InputError(f"d_ffn {d_ffn} is not divisible by align_m {m}")
    points = np.ascontiguousarray(w1.T)  # one point per column
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = points[rng.choice(d_ffn, size=e, replace=False)].copy()
    assign = None
    for _ in range(50):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        new_assign = np.empty(d_ffn, dtype=np.int64)
        for w0 in range(0, d_ffn, m):
            new_assign[w0 : w0 + m] = _greedy_capacity_fill(
                d2[w0 : w0 + m], np.full(e, m // e, dtype=np.int64)
            )
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for ei in range(e):
            centroids[ei] = points[assign == ei].mean(axis=0)
    column_sets = [np.flatnonzero(assign == ei) for ei in range(e)]
    return ExpertBank(e, _unit_columns(centroids.T), column_sets)


def _unit_columns(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=0)
    out = np.array(m, dtype=np.float64)
    for j in np.flatnonzero(norms < 1e-12):
        out[:, j] = 0.0
        out[j % m.shape[0], j] = 1.0  # arbitrary but deterministic unit fallback
        norms[j] = 1.0
    return out / norms


# ---------------------------------------------------------------------------
# routing

@dataclass(frozen=True, eq=False)
class RoutingPlan:
    """Tokens grouped by primary expert; checked once, on construction."""

    assignments: np.ndarray  # (tokens, top_k) expert ids, best score first
    permutation: np.ndarray  # (tokens,) stable sort of token indices by primary expert
    group_bounds: tuple[tuple[int, int], ...]  # per expert: row range after permutation

    @property
    def num_tokens(self) -> int:
        return self.permutation.size

    @property
    def top_k(self) -> int:
        return self.assignments.shape[1]

    @property
    def num_experts(self) -> int:
        return len(self.group_bounds)

    def __post_init__(self):
        perm = self.permutation
        if np.sort(perm).tolist() != list(range(self.num_tokens)):
            raise InputError("permutation is not a bijection on token indices")
        primary = self.assignments[:, 0]
        pos = 0
        for e, (lo, hi) in enumerate(self.group_bounds):
            if lo != pos or hi < lo:
                raise InputError("group bounds are not contiguous from row 0")
            if not (primary[perm[lo:hi]] == e).all():
                raise InputError(f"rows {lo}:{hi} are not all primary-routed to expert {e}")
            pos = hi
        if pos != self.num_tokens:
            raise InputError("group bounds do not cover all tokens")

    def group_sizes(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.group_bounds], dtype=np.int64)


def route_tokens(x, bank: ExpertBank, top_k: int = 1) -> RoutingPlan:
    """Score tokens against expert means and group them by primary expert.

    Scores are x @ means; since the means are unit-norm this ranks
    experts identically to cosine similarity, and scaling a token by
    any positive factor cannot change its routing.  Ties break toward
    the lower expert id.  The permutation is the stable sort of token
    indices by primary expert, so same-expert tokens keep their order.
    """
    x = as_matrix(x)
    if top_k < 1 or top_k > bank.num_experts:
        raise InputError(f"top_k must be in 1..{bank.num_experts}, got {top_k}")
    if x.shape[1] != bank.d_model:
        raise ShapeError(f"tokens have width {x.shape[1]}, expert means expect {bank.d_model}")
    if x.shape[0] == 0:
        raise InputError("cannot route an empty token batch")
    scores = gemm(x, bank.means)
    order = np.argsort(-scores, axis=1, kind="stable")
    assignments = order[:, :top_k]
    primary = assignments[:, 0]
    permutation = np.argsort(primary, kind="stable")
    sorted_primary = primary[permutation]
    bounds = tuple(
        (
            int(np.searchsorted(sorted_primary, e, side="left")),
            int(np.searchsorted(sorted_primary, e, side="right")),
        )
        for e in range(bank.num_experts)
    )
    return RoutingPlan(assignments, permutation, bounds)


def apply_permutation(x, plan: RoutingPlan) -> np.ndarray:
    x = as_matrix(x)
    if x.shape[0] != plan.num_tokens:
        raise ShapeError(f"matrix has {x.shape[0]} rows, plan covers {plan.num_tokens} tokens")
    return x[plan.permutation]


def invert_permutation(y, plan: RoutingPlan) -> np.ndarray:
    """Undo apply_permutation: invert_permutation(apply_permutation(x)) == x."""
    y = as_matrix(y)
    if y.shape[0] != plan.num_tokens:
        raise ShapeError(f"matrix has {y.shape[0]} rows, plan covers {plan.num_tokens} tokens")
    out = np.empty_like(y)
    out[plan.permutation] = y
    return out


def expert_balance(plan: RoutingPlan) -> float:
    """Max group size over mean group size; 1.0 is perfectly balanced."""
    sizes = plan.group_sizes()
    return float(sizes.max() / sizes.mean())


# ---------------------------------------------------------------------------
# padding: expert groups are zero-padded to a multiple of V so every
# V-row block lies inside a single group.

@dataclass(frozen=True, eq=False)
class PaddedLayout:
    rows: int
    source_row: np.ndarray  # (rows,) permuted-row index, or -1 for a pad row
    group_bounds: tuple[tuple[int, int], ...]  # per expert, padded coordinates

    @property
    def real_rows(self) -> int:
        return int((self.source_row >= 0).sum())


def padded_layout(plan: RoutingPlan, v: int) -> PaddedLayout:
    """Deterministic padded row layout for block height v: each expert
    group is extended with zero rows up to the next multiple of v."""
    if v < 1:
        raise InputError(f"block height must be at least 1, got {v}")
    src: list[int] = []
    bounds: list[tuple[int, int]] = []
    for lo, hi in plan.group_bounds:
        size = hi - lo
        padded = -(-size // v) * v  # ceil to a multiple of v; 0 stays 0
        start = len(src)
        src.extend(range(lo, hi))
        src.extend([-1] * (padded - size))
        bounds.append((start, start + padded))
    return PaddedLayout(len(src), np.asarray(src, dtype=np.int64), tuple(bounds))


def pad_rows(x_perm, layout: PaddedLayout) -> np.ndarray:
    x_perm = as_matrix(x_perm)
    if x_perm.shape[0] != layout.real_rows:
        raise ShapeError(f"matrix has {x_perm.shape[0]} rows, layout expects {layout.real_rows}")
    out = np.zeros((layout.rows, x_perm.shape[1]), dtype=np.float64)
    real = layout.source_row >= 0
    out[real] = x_perm[layout.source_row[real]]
    return out


def unpad_rows(y_padded, layout: PaddedLayout) -> np.ndarray:
    """Drop pad rows, restoring the permuted (pre-padding) row order."""
    y_padded = as_matrix(y_padded)
    if y_padded.shape[0] != layout.rows:
        raise ShapeError(f"matrix has {y_padded.shape[0]} rows, layout has {layout.rows}")
    real = layout.source_row >= 0
    out = np.empty((layout.real_rows, y_padded.shape[1]), dtype=np.float64)
    out[layout.source_row[real]] = y_padded[real]
    return out


# ---------------------------------------------------------------------------
# the bridge from routed activations to the V:N:M format

def moe_to_venom(y2, plan: RoutingPlan, bank: ExpertBank, p: VenomParams) -> VenomMatrix:
    """Mask a routed hidden activation to its experts' columns and encode
    the result as V:N:M.

    ``y2`` must already be row-permuted by ``plan`` (tokens grouped by
    primary expert); expert groups are zero-padded internally to a
    multiple of p.v, so the output has padded_layout(plan, p.v).rows
    rows.  Per token, features outside the token's routed experts'
    column sets are zeroed.  Per block, the 4 retained columns are the
    largest-L1 columns among those routable by the block's tokens; a
    window where the block's tokens can reach no columns at all is
    emitted as an all-zero block, but a window offering only 1-3
    columns is an error (the pattern could not be filled).
    """
    y2 = as_matrix(y2)
    if bank.num_experts != plan.num_experts:
        raise InputError("plan and bank disagree on the number of experts")
    if y2.shape[0] != plan.num_tokens:
        raise ShapeError(f"activation has {y2.shape[0]} rows, plan covers {plan.num_tokens} tokens")
    if y2.shape[1] != bank.d_ffn:
        raise ShapeError(f"activation has {y2.shape[1]} features, bank covers {bank.d_ffn}")
    if y2.shape[1] % p.m:
        raise ShapeError(f"feature count {y2.shape[1]} is not divisible by M={p.m}")

    layout = padded_layout(plan, p.v)
    y2p = pad_rows(y2, layout)
    allowed = routed_feature_mask(plan, bank, layout)
    masked = np.where(allowed, y2p, 0.0)

    nbr, nw = masked.shape[0] // p.v, masked.shape[1] // p.m
    allowed_block = allowed.reshape(nbr, p.v, nw, p.m).any(axis=1)
    reach = allowed_block.sum(axis=-1)
    starved = (reach > 0) & (reach < 4)
    if starved.any():
        br, w = map(int, np.argwhere(starved)[0])
        raise InputError(
            f"block row {br}, column window {w}: only {int(reach[br, w])} routable "
            f"columns, need at least 4 to fill the retained set"
        )
    l1 = np.abs(masked).reshape(nbr, p.v, nw, p.m).sum(axis=1)
    # never retain a non-routable column over a routable one
    return _encode_blocks(masked, np.where(allowed_block, l1, -1.0), p)


def routed_feature_mask(plan: RoutingPlan, bank: ExpertBank, layout: PaddedLayout) -> np.ndarray:
    """(padded rows, d_ffn) bool: which features each padded row's token
    can reach through its routed experts (pad rows reach none)."""
    ownership = bank.column_mask()
    allowed = np.zeros((layout.rows, bank.d_ffn), dtype=bool)
    real = layout.source_row >= 0
    tokens = plan.permutation[layout.source_row[real]]
    allowed[real] = ownership[plan.assignments[tokens]].any(axis=1)
    return allowed


def batched_expert_matmul(x_perm, plan: RoutingPlan, w1, bank: ExpertBank) -> np.ndarray:
    """Per expert, multiply its token rows by w1 restricted to its columns.

    Equals gemm(x_perm, w1) masked to each token's routed columns, but
    only does sum(|tokens_e| * d_model * |cols_e|) multiplies over all
    experts e (counting every routed rank of every token).
    """
    x_perm = as_matrix(x_perm)
    w1 = as_matrix(w1)
    if x_perm.shape[0] != plan.num_tokens:
        raise ShapeError(f"matrix has {x_perm.shape[0]} rows, plan covers {plan.num_tokens} tokens")
    if w1.shape != (x_perm.shape[1], bank.d_ffn):
        raise ShapeError(f"weight is {w1.shape}, expected {(x_perm.shape[1], bank.d_ffn)}")
    out = np.zeros((x_perm.shape[0], bank.d_ffn), dtype=np.float64)
    routed = plan.assignments[plan.permutation]  # (tokens, top_k) in permuted order
    for e, (lo, hi) in enumerate(plan.group_bounds):
        cs = bank.column_sets[e]
        we = np.ascontiguousarray(w1[:, cs])
        if hi > lo:
            out[lo:hi, cs] = gemm(x_perm[lo:hi], we)
        for rank in range(1, plan.top_k):
            rows = np.flatnonzero(routed[:, rank] == e)
            if rows.size:
                out[rows[:, None], cs[None, :]] += gemm(x_perm[rows], we)
    return out
