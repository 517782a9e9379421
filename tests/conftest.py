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
    mask decoded from s, the threshold slot by argmax over the dropped
    magnitudes, the coupling summed over all four slots."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    keep = sfk.kept_mask(s)
    if mode == sfk.GREEDY_MAGNITUDE:
        return np.where(keep, grad, 0.0)
    g = a.reshape(a.shape[0], -1, 4)
    mags = np.abs(g)
    tpos = np.argmax(np.where(keep.reshape(g.shape), -1.0, mags), axis=-1)[..., None]
    t = np.take_along_axis(mags, tpos, axis=-1)
    out = np.where(mags > t, grad.reshape(g.shape), 0.0)
    coupling = -(np.sign(g) * out).sum(axis=-1, keepdims=True)
    np.put_along_axis(out, tpos, np.take_along_axis(np.sign(g), tpos, axis=-1) * coupling, axis=-1)
    return out.reshape(a.shape)


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
