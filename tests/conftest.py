"""Shared oracles and fixtures for the sfk test suite.

The oracles here are deliberately naive (triple-loop matmul, mask-then-multiply
references) so kernel tests never compare an implementation against itself.
"""

import numpy as np
import pytest
from hypothesis import settings

import sfk

settings.register_profile("sfk", deadline=None)
settings.load_profile("sfk")


def gemm_naive(a, b):
    """Triple-loop matmul oracle, accumulating along k in index order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def gemm_rank1(a, b):
    """Rank-1 matmul oracle: one broadcast outer product per k, added in
    index order, so it sums like gemm_naive at numpy speed."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for kk in range(a.shape[1]):
        out += a[:, kk : kk + 1] * b[kk]
    return out


def spread(rows, cols, seed, neg_zero):
    """Normals scaled over 24 orders of magnitude, so almost any change to
    the summation order changes the rounded result; with neg_zero, a
    quarter of the entries are -0.0."""
    g = np.random.Generator(np.random.PCG64(seed))
    x = g.standard_normal((rows, cols)) * 10.0 ** g.integers(-12, 13, size=(rows, cols))
    if neg_zero:
        x[g.random((rows, cols)) < 0.25] = -0.0
    return x


def sampled_cols(rows, width, h, seed, shared):
    """A rows x h ``cols`` argument of a sampled product: random columns
    in [0, width), repeats within a row included, or, with ``shared``,
    rows drawn from that many distinct column lists."""
    g = np.random.Generator(np.random.PCG64(seed))
    if not shared:
        return g.integers(0, width, size=(rows, h))
    return g.integers(0, width, size=(shared, h))[g.integers(0, shared, size=rows)]


def assert_spmm24_tn_is_gemm(s, b, inf_row):
    """spmm24_tn(s, b) is gemm(decode24(s).T, b) bitwise (-0.0 included)
    and tallies one multiply per kept slot and column of b; with
    b[inf_row] infinite, every output row that row does not feed stays
    finite."""
    with sfk.count_multiplies() as counter:
        got = sfk.spmm24_tn(s, b)
    assert got.tobytes() == sfk.gemm(sfk.decode24(s).T, b).tobytes()
    assert counter.total == s.values.size * b.shape[1]
    b = b.copy()
    b[inf_row] = np.inf
    unfed = np.ones(s.cols, dtype=bool)
    unfed[s.abs_columns()[inf_row]] = False
    with np.errstate(invalid="ignore"):  # inf * 0.0 in the rows it feeds
        got = sfk.spmm24_tn(s, b)
    assert np.isfinite(got[unfed]).all()


def sparsify24_oracle(a, mode):
    """sparsify24 as it was written per row of groups: one stable argsort
    per group, the top two sorted, take_along_axis gathers.  Returns
    (values, slots)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    groups = a.reshape(a.shape[0], -1, 4)
    mags = np.abs(groups)
    order = np.argsort(-mags, axis=-1, kind="stable")
    slots = np.sort(order[..., :2], axis=-1)
    kept = np.take_along_axis(groups, slots, axis=-1)
    if mode == sfk.SOFT_THRESHOLD:
        t = np.take_along_axis(mags, order[..., 2:3], axis=-1)
        kept = np.where(np.abs(kept) > t, kept - np.sign(kept) * t, 0.0)
    return kept.reshape(a.shape[0], -1), slots.reshape(a.shape[0], -1)


def sparsify24_backward_oracle(a, s, grad, mode):
    """sparsify24_backward as it was written on dense groups: the kept
    mask decoded from s, the threshold slot at position 2 of a stable
    sort of each group's magnitudes, descending (a NaN sorts last, so a
    lone NaN is dropped and never the threshold), the coupling summed
    over all four slots, +0.0 from each slot that does not survive."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    if mode == sfk.GREEDY_MAGNITUDE:
        return np.where(sfk.kept_mask(s), grad, 0.0)
    g = a.reshape(a.shape[0], -1, 4)
    mags = np.abs(g)
    tpos = np.argsort(-mags, axis=-1, kind="stable")[..., 2:3]
    survive = mags > np.take_along_axis(mags, tpos, axis=-1)
    out = np.where(survive, grad.reshape(g.shape), 0.0)
    coupling = -np.where(survive, np.sign(g) * out, 0.0).sum(axis=-1, keepdims=True)
    np.put_along_axis(out, tpos, np.take_along_axis(np.sign(g), tpos, axis=-1) * coupling, axis=-1)
    return out.reshape(a.shape)


def moe_to_venom_oracle(y2, plan, bank, p):
    """moe_to_venom as it was written on dense matrices: pad the permuted
    y2, mask it with routed_feature_mask, sum the block L1 key over all V
    rows, retain each block's top 4 routable columns and 2:4-prune the
    gathered strips."""
    layout = sfk.padded_layout(plan, p.v)
    allowed = sfk.routed_feature_mask(plan, bank, layout)
    masked = np.where(allowed, sfk.pad_rows(y2, layout), 0.0)
    rows, cols = masked.shape
    if cols % p.m:
        raise sfk.ShapeError(f"feature count {cols} is not divisible by M={p.m}")
    nbr, nw = rows // p.v, cols // p.m
    allowed_block = allowed.reshape(nbr, p.v, nw, p.m).any(axis=1)
    reach = allowed_block.sum(axis=-1)
    starved = (reach > 0) & (reach < 4)
    if starved.any():
        br, w = map(int, np.argwhere(starved)[0])
        raise sfk.InputError(
            f"block row {br}, column window {w}: only {int(reach[br, w])} routable "
            f"columns, need at least 4 to fill the retained set"
        )
    key = np.where(allowed_block, np.abs(masked).reshape(nbr, p.v, nw, p.m).sum(axis=1), -1.0)
    col_table = np.sort(np.argsort(-key, axis=-1, kind="stable")[..., :4], axis=-1).astype(np.uint8)
    abs_cols = col_table.astype(np.int64)[np.arange(rows) // p.v] + np.arange(nw)[None, :, None] * p.m
    strips = masked[np.arange(rows)[:, None, None], abs_cols].reshape(rows, 4 * nw)
    return sfk.VenomMatrix(rows, cols, p, col_table, sfk.sparsify24(strips, sfk.GREEDY_MAGNITUDE))


def venom_chain_oracle(y1, y1_cols, plan, bank, p):
    """The venom forward's activation chain as it was written on dense
    matrices: y2 = relu(y1)^2 scattered at y1_cols into a tokens x d_ffn
    zero matrix, permuted, moe_to_venom_oracle, the activation mask
    kept_mask & routed_feature_mask, and y1 scattered, permuted and
    padded.  Returns the pack, and the mask and y1 at its kept slots."""
    tokens = np.arange(len(y1))[:, None]
    y2 = np.zeros((len(y1), bank.d_ffn))
    y2[tokens, y1_cols] = sfk.squared_relu(y1)
    vm = moe_to_venom_oracle(sfk.apply_permutation(y2, plan), plan, bank, p)
    layout = sfk.padded_layout(plan, p.v)
    mask = sfk.kept_mask(vm) & sfk.routed_feature_mask(plan, bank, layout)
    y1_dense = np.zeros((len(y1), bank.d_ffn))
    y1_dense[tokens, y1_cols] = y1
    y1_rows = sfk.pad_rows(sfk.apply_permutation(y1_dense, plan), layout)
    kept = (np.arange(vm.rows)[:, None], vm.abs_columns())
    return vm, mask[kept], y1_rows[kept]


def gradcheck_oracle(pol, shape, seed):
    """gradcheck as it was written one entry at a time: the same base
    point search, then two forwards per entry of x, w1 and w2, each
    perturbing a copy in place (venom with the base point's frozen
    masks), and each loss 0.5 * sum(y3 * y3) of that forward's whole y3."""
    ffn = sfk.ffn
    b, d_model, d_ffn = shape
    for attempt in range(64):
        seed_eff = seed + 1000 * attempt
        x = sfk.rand_matrix(b, d_model, seed_eff + 3)
        p = sfk.init_ffn_params(d_model, d_ffn, d_model, seed_eff + 7)
        bank = sfk.cluster_columns(p.w1, pol.router, seed_eff + 13) if pol.act_mode == "venom" else None
        y3, tape = sfk.ffn_forward(x, p, pol, bank)
        if ffn._audit_generic_point(pol, tape, ffn._TIE_MARGIN):
            break
    else:
        raise sfk.GuardError("no generic point found in 64 seed bumps; masks are persistently tied")
    frozen = tape if pol.act_mode == "venom" else None
    pv = sfk.FfnParams(p.w1.copy(), p.w2.copy())
    tensors = [x.copy(), pv.w1, pv.w2]
    rels = []
    for base, an in zip(tensors, sfk.ffn_backward(y3, tape, p, pol)):
        fd = np.zeros_like(base)
        for idx in np.ndindex(*base.shape):
            h = ffn._FD_STEP * max(1.0, abs(base[idx]))
            saved, losses = base[idx], []
            for v in (saved + h, saved - h):
                base[idx] = v
                yv, _ = sfk.ffn_forward(tensors[0], pv, pol, bank, frozen=frozen)
                losses.append(0.5 * float(np.sum(yv * yv)))
            base[idx] = saved
            fd[idx] = (losses[0] - losses[1]) / (2.0 * h)
        rels.append(float(np.max(np.abs(fd - an)) / (np.max(np.abs(an)) + 1e-12)))
    return sfk.GradcheckReport(pol.tag, (b, d_model, d_ffn), seed, seed_eff, *rels)


def dealt_bank(d_model, d_ffn, m, num_experts, seed=0):
    """Build an ExpertBank whose column sets are dealt round-robin as 4-column
    packs inside every m-wide window.

    With num_experts == m // 4 every window contains exactly one pack from each
    expert, so any non-empty routed expert set leaves at least 4 allowed
    columns in every window.  That makes the bank usable with moe_to_venom for
    arbitrary routings, which random clustered banks do not guarantee.
    """
    assert d_ffn % m == 0 and m % 4 == 0
    packs_per_window = m // 4
    assert packs_per_window % num_experts == 0 or num_experts % packs_per_window == 0
    column_sets = [[] for _ in range(num_experts)]
    pack = 0
    for start in range(0, d_ffn, 4):
        window = start // m
        expert = (pack + window) % num_experts
        column_sets[expert].extend(range(start, start + 4))
        pack = (pack + 1) % packs_per_window
    means = sfk.rand_matrix(d_model, num_experts, seed=seed)
    means = means / np.linalg.norm(means, axis=0, keepdims=True)
    return sfk.ExpertBank(
        num_experts=num_experts,
        means=means,
        column_sets=[np.asarray(cs, dtype=np.int64) for cs in column_sets],
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))
