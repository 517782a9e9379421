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
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .codec import config_from_json, config_to_json
from .errors import InputError, ShapeError
from .matcore import as_matrix, gemm, load_matrix, save_matrix
from .sparse24 import GREEDY_MAGNITUDE, _read_only, sparsify24
from .venom import VenomMatrix, VenomParams, _block_columns, _unchecked_venom


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


@dataclass(frozen=True, eq=False)
class ExpertBank:
    """Frozen expert layout: unit-norm mean directions plus the disjoint
    column sets, one per expert, covering the hidden dimension.  The
    column sets, the ownership mask, the routed-column table and each
    column's place in it are read-only and built once, on construction."""

    num_experts: int
    means: np.ndarray  # (d_model, num_experts), unit-norm columns
    column_sets: list[np.ndarray]
    _ownership: np.ndarray = field(init=False, repr=False)  # (num_experts, d_ffn) bool
    _table: np.ndarray = field(init=False, repr=False)  # (num_experts, largest set size)
    _owner: np.ndarray = field(init=False, repr=False)  # (d_ffn,) the expert owning each column
    _rank: np.ndarray = field(init=False, repr=False)  # (d_ffn,) its index in that expert's set

    def __post_init__(self):
        object.__setattr__(self, "means", as_matrix(self.means))
        object.__setattr__(
            self, "column_sets", [_read_only(np.asarray(cs, dtype=np.int64)) for cs in self.column_sets]
        )
        self.validate()
        owner, rank = np.zeros((2, self.d_ffn), dtype=np.int64)
        for e, cs in enumerate(self.column_sets):
            owner[cs], rank[cs] = e, np.arange(cs.size)
        # each set padded to the largest by repeating its last column
        size = max((cs.size for cs in self.column_sets), default=0)
        padded = [np.pad(cs, (0, size - cs.size), mode="edge") for cs in self.column_sets]
        table = np.array(padded, dtype=np.int64).reshape(self.num_experts, size)
        ownership = np.arange(self.num_experts)[:, None] == owner
        for name, a in (("_ownership", ownership), ("_table", table), ("_owner", owner), ("_rank", rank)):
            object.__setattr__(self, name, _read_only(a))

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
        """(num_experts, d_ffn) boolean ownership matrix, read-only."""
        return self._ownership


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
    if not w1.size:
        raise ShapeError(f"w1 is {w1.shape}; clustering its columns needs at least one row and one column")
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
        primary = self.assignments[perm, 0].tolist()  # of the permuted rows
        pos = 0
        for e, (lo, hi) in enumerate(self.group_bounds):
            if lo != pos or hi < lo:
                raise InputError("group bounds are not contiguous from row 0")
            if set(primary[lo:hi]) - {e}:
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
    edges = np.searchsorted(primary[permutation], np.arange(bank.num_experts + 1)).tolist()
    return RoutingPlan(assignments, permutation, tuple(zip(edges[:-1], edges[1:])))


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
    """Which permuted row each padded row holds.  The real-row mask and
    the real rows' sources are derived once, when the layout is built,
    and source_row is read-only from there on."""

    rows: int
    source_row: np.ndarray  # (rows,) permuted-row index, or -1 for a pad row
    group_bounds: tuple[tuple[int, int], ...]  # per expert, padded coordinates
    _real: np.ndarray = field(init=False, repr=False)  # (rows,) bool, not a pad row
    _source: np.ndarray = field(init=False, repr=False)  # source_row[_real]

    def __post_init__(self):
        source_row = _read_only(np.asarray(self.source_row))
        object.__setattr__(self, "source_row", source_row)
        object.__setattr__(self, "_real", source_row >= 0)
        object.__setattr__(self, "_source", source_row[self._real])

    @property
    def real_rows(self) -> int:
        return self._source.size


def padded_layout(plan: RoutingPlan, v: int) -> PaddedLayout:
    """Deterministic padded row layout for block height v: each expert
    group is extended with zero rows up to the next multiple of v."""
    if v < 1:
        raise InputError(f"block height must be at least 1, got {v}")
    ends = list(accumulate(-(-(hi - lo) // v) * v for lo, hi in plan.group_bounds))  # sizes ceiled to multiples of v
    bounds = tuple(zip([0] + ends[:-1], ends))
    src, tokens = np.full(ends[-1] if ends else 0, -1, dtype=np.int64), np.arange(plan.num_tokens)
    for (lo, hi), (start, _) in zip(plan.group_bounds, bounds):
        src[start : start + hi - lo] = tokens[lo:hi]
    return PaddedLayout(len(src), src, bounds)


def pad_rows(x_perm, layout: PaddedLayout) -> np.ndarray:
    x_perm = as_matrix(x_perm)
    if x_perm.shape[0] != layout.real_rows:
        raise ShapeError(f"matrix has {x_perm.shape[0]} rows, layout expects {layout.real_rows}")
    out = np.zeros((layout.rows, x_perm.shape[1]), dtype=np.float64)
    out[layout._real] = x_perm[layout._source]
    return out


def unpad_rows(y_padded, layout: PaddedLayout) -> np.ndarray:
    """Drop pad rows, restoring the permuted (pre-padding) row order."""
    y_padded = as_matrix(y_padded)
    if y_padded.shape[0] != layout.rows:
        raise ShapeError(f"matrix has {y_padded.shape[0]} rows, layout has {layout.rows}")
    out = np.empty((layout.real_rows, y_padded.shape[1]), dtype=np.float64)
    out[layout._source] = y_padded[layout._real]
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
    column sets are zeroed: the pack is encoded from the routed entries,
    as ffn_forward encodes it (see _encode_routed).
    """
    y2 = as_matrix(y2)
    if y2.shape[0] != plan.num_tokens:
        raise ShapeError(f"activation has {y2.shape[0]} rows, plan covers {plan.num_tokens} tokens")
    if y2.shape[1] != bank.d_ffn:
        raise ShapeError(f"activation has {y2.shape[1]} features, bank covers {bank.d_ffn}")
    cols = routed_columns(plan, bank)[plan.permutation]  # checks the plan
    entries = np.take_along_axis(y2, cols, axis=1)
    return _encode_routed(entries, cols, plan, bank, padded_layout(plan, p.v), p)[0]


def _encode_routed(entries, cols, plan: RoutingPlan, bank: ExpertBank, layout: PaddedLayout, p: VenomParams):
    """The V:N:M pack over layout's rows of routed entries (row t: the
    t-th routed token's, at the columns cols[t], its routed_columns row),
    and the entry each kept slot holds (-1: unrouted, or a pad row).  A
    block keeps the 4 largest-L1 columns its tokens reach (a repeated
    column counted once); a window reaching none is all zero, one
    reaching 1-3 an error.  L1 is summed per block and a slot's entry
    found by its column's owner and rank, so nothing of width d_ffn is
    built per row."""
    d_ffn, size = bank.d_ffn, bank._table.shape[1]
    if d_ffn % p.m:
        raise ShapeError(f"feature count {d_ffn} is not divisible by M={p.m}")
    nbr, nw = layout.rows // p.v, d_ffn // p.m
    real = np.flatnonzero(layout._real)  # the padded row of each routed token
    assign = plan.assignments[plan.permutation]
    once = bank._rank[cols] == np.arange(cols.shape[1]) % size
    # rows ascending per block and column: the sum over the block's rows, less its +0.0 terms
    at = ((real // p.v)[:, None] * d_ffn + cols)[once]
    l1 = np.bincount(at, np.abs(entries)[once], nbr * d_ffn).reshape(nbr, nw, p.m)
    allowed = np.bincount(at, minlength=nbr * d_ffn).reshape(nbr, nw, p.m) > 0
    reach = allowed.sum(axis=-1)
    starved = (reach > 0) & (reach < 4)
    if starved.any():
        br, w = map(int, np.argwhere(starved)[0])
        raise InputError(
            f"block row {br}, column window {w}: only {int(reach[br, w])} routable "
            f"columns, need at least 4 to fill the retained set"
        )
    # never retain a non-routable column over a routable one
    col_table, abs_cols = _block_columns(np.where(allowed, l1, -1.0), layout.rows, p)
    # a strip slot holds entry a * size + rank if the token's a-th expert owns its column
    owner, rank = bank._owner[abs_cols[real]], bank._rank[abs_cols[real]]
    got = np.full(owner.shape, -1)
    for a in range(plan.top_k):
        got = np.where(assign[:, a, None] == owner, a * size + rank, got)
    entry, strips = np.full(abs_cols.shape, -1), np.zeros(abs_cols.shape)
    entry[real], strips[real] = got, np.where(got >= 0, entries[np.arange(len(real))[:, None], got], 0.0)
    payload = sparsify24(strips, GREEDY_MAGNITUDE)
    pack = _unchecked_venom(d_ffn, p, col_table, abs_cols, payload)
    return pack, np.take_along_axis(entry, payload.abs_columns(), axis=1)


def routed_columns(plan: RoutingPlan, bank: ExpertBank) -> np.ndarray:
    """(tokens, top_k * s) int: the column sets of each token's routed
    experts, best-scoring expert first, each in the bank's order.  s is
    the largest set size; a smaller set repeats its last column up to s.
    These are the ``cols`` of a routed product in token order (see
    ``sfk.gemm``)."""
    if bank.num_experts != plan.num_experts:
        raise InputError("plan and bank disagree on the number of experts")
    return bank._table[plan.assignments].reshape(plan.num_tokens, -1)


def routed_feature_mask(plan: RoutingPlan, bank: ExpertBank, layout: PaddedLayout) -> np.ndarray:
    """(padded rows, d_ffn) bool: which features each padded row's token
    can reach through its routed experts (pad rows reach none)."""
    ownership = bank.column_mask()  # built once, with the bank
    allowed = np.zeros((layout.rows, bank.d_ffn), dtype=bool)
    tokens = plan.permutation[layout._source]
    allowed[layout._real] = ownership[plan.assignments[tokens]].any(axis=1)
    return allowed
