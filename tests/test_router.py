"""Neuron routing: balanced clustering, token permutation, block re-encoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfk
from sfk import InputError, ShapeError
from conftest import dealt_bank, moe_to_venom_oracle, spread, venom_chain_oracle


def make_plan(tokens=10, d_model=16, d_ffn=64, top_k=1, seed=0):
    cfg = sfk.RouterConfig(num_experts=4, top_k=top_k, align_m=16)
    w1 = sfk.rand_matrix(d_model, d_ffn, seed=seed)
    bank = sfk.cluster_columns(w1, cfg, seed=seed + 1)
    x = sfk.rand_matrix(tokens, d_model, seed=seed + 2)
    return x, w1, bank, sfk.route_tokens(x, bank, top_k=top_k)


# -------------------------------------------------------------- clustering ---


def test_router_config_validation():
    sfk.RouterConfig(num_experts=4, top_k=1, align_m=16)
    with pytest.raises(InputError):
        sfk.RouterConfig(num_experts=4, top_k=1, align_m=8)  # 2 cols/window < 4
    with pytest.raises(InputError):
        sfk.RouterConfig(num_experts=3, top_k=1, align_m=16)
    with pytest.raises(InputError):
        sfk.RouterConfig(num_experts=0, top_k=1)


def test_cluster_columns_balanced_cover():
    cfg = sfk.RouterConfig(num_experts=4, top_k=1, align_m=16)
    w1 = sfk.rand_matrix(16, 64, seed=0)
    bank = sfk.cluster_columns(w1, cfg, seed=1)
    assert [cs.size for cs in bank.column_sets] == [16, 16, 16, 16]
    assert np.array_equal(np.sort(np.concatenate(bank.column_sets)), np.arange(64))
    assert np.allclose(np.linalg.norm(bank.means, axis=0), 1.0, atol=1e-9)
    # with align_m, ownership is balanced inside every align_m-wide window
    own = bank.column_mask()
    for w in range(64 // 16):
        assert (own[:, w * 16 : (w + 1) * 16].sum(axis=1) == 4).all()


def test_cluster_columns_deterministic():
    cfg = sfk.RouterConfig(num_experts=2, top_k=1)
    w1 = sfk.rand_matrix(8, 32, seed=5)
    b1 = sfk.cluster_columns(w1, cfg, seed=9)
    b2 = sfk.cluster_columns(w1, cfg, seed=9)
    assert np.array_equal(b1.means, b2.means)
    assert all(np.array_equal(x, y) for x, y in zip(b1.column_sets, b2.column_sets))


def test_cluster_columns_dimension_errors():
    cfg = sfk.RouterConfig(num_experts=4, top_k=1)
    with pytest.raises(InputError):
        sfk.cluster_columns(sfk.rand_matrix(8, 30, seed=0), cfg, seed=0)  # not % experts*4
    cfg16 = sfk.RouterConfig(num_experts=4, top_k=1, align_m=16)
    with pytest.raises(InputError):
        sfk.cluster_columns(sfk.rand_matrix(8, 24, seed=0), cfg16, seed=0)  # not % align_m


def test_bank_validation_and_file_roundtrip(tmp_path):
    bank = dealt_bank(8, 32, 16, 4, seed=2)
    sfk.save_bank(bank, tmp_path / "bank")
    back = sfk.load_bank(tmp_path / "bank")
    assert back.num_experts == bank.num_experts
    assert np.array_equal(back.means, bank.means)
    assert all(np.array_equal(x, y) for x, y in zip(back.column_sets, bank.column_sets))
    with pytest.raises(InputError):
        sfk.ExpertBank(4, bank.means * 2.0, bank.column_sets)  # non-unit means
    with pytest.raises(InputError):
        sfk.ExpertBank(
            2, bank.means[:, :2], [np.arange(4), np.arange(4)]
        )  # overlapping columns


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: "{not json",
        lambda m: json.dumps([m]),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "num_experts"}),
        lambda m: json.dumps(dict(m, num_experts="4")),
        lambda m: json.dumps(dict(m, num_experts=4.0)),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "column_sets"}),
        lambda m: json.dumps(dict(m, column_sets="0123")),
        lambda m: json.dumps(dict(m, column_sets=[[0.5, 1, 2, 3]] + m["column_sets"][1:])),
        lambda m: json.dumps({k: v for k, v in m.items() if k != "means_file"}),
        lambda m: json.dumps(dict(m, means_file=7)),
    ],
    ids=["not-json", "not-object", "no-num_experts", "str-num_experts", "float-num_experts",
         "no-column_sets", "str-column_sets", "float-column", "no-means_file", "int-means_file"],
)
def test_load_bank_rejects_malformed_manifest(tmp_path, edit):
    sfk.save_bank(dealt_bank(8, 32, 16, 4, seed=2), tmp_path / "bank")
    manifest = tmp_path / "bank.json"
    manifest.write_text(edit(json.loads(manifest.read_text())))
    with pytest.raises(InputError):
        sfk.load_bank(tmp_path / "bank")


# ----------------------------------------------------------------- routing ---


def test_route_tokens_scores_and_stability():
    x, w1, bank, plan = make_plan(top_k=2)
    scores = sfk.gemm(x, bank.means)
    for t in range(x.shape[0]):
        want = np.argsort(-scores[t], kind="stable")[:2]
        assert np.array_equal(plan.assignments[t], want)
    # permutation groups tokens by primary expert, stably
    primary = plan.assignments[plan.permutation, 0]
    assert (np.diff(primary) >= 0).all()
    for e, (lo, hi) in enumerate(plan.group_bounds):
        toks = plan.permutation[lo:hi]
        assert (plan.assignments[toks, 0] == e).all()
        assert (np.diff(toks) > 0).all()  # stable within a group


def test_route_tokens_errors():
    x, w1, bank, _ = make_plan()
    with pytest.raises(InputError):
        sfk.route_tokens(x, bank, top_k=0)
    with pytest.raises(InputError):
        sfk.route_tokens(x, bank, top_k=5)
    with pytest.raises(InputError):
        sfk.route_tokens(np.zeros((0, 16)), bank)
    with pytest.raises(ShapeError):
        sfk.route_tokens(sfk.rand_matrix(3, 8, seed=0), bank)


def test_routing_plan_is_checked_on_construction():
    _, _, _, plan = make_plan(tokens=10)
    sfk.RoutingPlan(plan.assignments, plan.permutation, plan.group_bounds)
    twice = plan.permutation.copy()
    twice[1] = twice[0]  # not a bijection: one token twice, another never
    with pytest.raises(InputError, match="bijection"):
        sfk.RoutingPlan(plan.assignments, twice, plan.group_bounds)
    bounds = plan.group_bounds
    assert [hi - lo for lo, hi in bounds] == [2, 2, 3, 3]  # every group holds a token
    gap = ((0, 1),) + bounds[1:]  # row 1 belongs to no group
    with pytest.raises(InputError, match="not contiguous from row 0"):
        sfk.RoutingPlan(plan.assignments, plan.permutation, gap)
    swapped = plan.permutation.copy()
    swapped[[0, 2]] = swapped[[2, 0]]  # a token of expert 1's group in expert 0's, and back
    with pytest.raises(InputError, match="rows 0:2 are not all primary-routed to expert 0"):
        sfk.RoutingPlan(plan.assignments, swapped, bounds)
    short = bounds[:-1] + ((7, 9),)  # the last token is in no group
    with pytest.raises(InputError, match="do not cover all tokens"):
        sfk.RoutingPlan(plan.assignments, plan.permutation, short)


def test_permutation_roundtrip_and_balance():
    x, _, _, plan = make_plan(tokens=10)
    xp = sfk.apply_permutation(x, plan)
    assert np.array_equal(sfk.invert_permutation(xp, plan), x)
    sizes = [hi - lo for lo, hi in plan.group_bounds]
    assert sum(sizes) == 10
    assert sfk.expert_balance(plan) == max(sizes) / (sum(sizes) / len(sizes))
    assert sfk.expert_balance(plan) >= 1.0


def test_padded_layout_and_row_padding():
    x, _, _, plan = make_plan(tokens=10)
    layout = sfk.padded_layout(plan, 4)
    assert layout.rows % 4 == 0
    for lo, hi in layout.group_bounds:
        assert (hi - lo) % 4 == 0
    xp = sfk.apply_permutation(x, plan)
    xpad = sfk.pad_rows(xp, layout)
    assert xpad.shape == (layout.rows, x.shape[1])
    assert np.array_equal(sfk.unpad_rows(xpad, layout), xp)
    assert np.array_equal(xpad[layout.source_row < 0], np.zeros(((layout.source_row < 0).sum(), x.shape[1])))
    assert layout.real_rows == 10
    with pytest.raises(ValueError):  # the real-row mask is derived once, so it cannot go stale
        layout.source_row[0] = -1


# ------------------------------------------------------------ block encode ---


def test_moe_to_venom_passes_format_check():
    p = sfk.VenomParams(4, 16)
    bank = dealt_bank(8, 32, 16, 4, seed=0)
    x = sfk.rand_matrix(10, 8, seed=1)
    plan = sfk.route_tokens(x, bank, top_k=1)
    y2 = np.abs(sfk.rand_matrix(10, 32, seed=2))
    vm = sfk.moe_to_venom(sfk.apply_permutation(y2, plan), plan, bank, p)
    d = sfk.decode24(vm)
    layout = sfk.padded_layout(plan, p.v)
    assert d.shape == (layout.rows, 32)
    assert sfk.venom_check(d, p)
    # survivors are drawn only from columns owned by each block's routed experts
    allowed = sfk.routed_feature_mask(plan, bank, layout)
    assert np.array_equal(d[~allowed], np.zeros((~allowed).sum()))


def test_moe_to_venom_keeps_largest_allowed_columns():
    p = sfk.VenomParams(4, 16)
    bank = dealt_bank(8, 16, 16, 4, seed=3)
    x = sfk.rand_matrix(4, 8, seed=4)
    plan = sfk.route_tokens(x, bank, top_k=1)
    y2 = np.abs(sfk.rand_matrix(4, 16, seed=5))
    layout = sfk.padded_layout(plan, p.v)
    y2_perm = sfk.apply_permutation(y2, plan)
    y2p = sfk.pad_rows(y2_perm, layout)
    allowed = sfk.routed_feature_mask(plan, bank, layout)
    vm = sfk.moe_to_venom(y2_perm, plan, bank, p)
    for br in range(layout.rows // p.v):
        rows = slice(br * p.v, (br + 1) * p.v)
        l1 = np.where(allowed[rows][0], np.abs(y2p[rows]).sum(axis=0), -1.0)
        want = np.sort(np.argsort(-l1, kind="stable")[:4])
        assert np.array_equal(vm.col_table[br, 0], want)


def test_moe_to_venom_starved_window_is_an_error():
    # one expert owns a whole window: routing everything to the OTHER experts
    # leaves that window with zero allowed columns -> fallback zero block;
    # owning only part of a window (1..3 columns) can never fill a block.
    p = sfk.VenomParams(4, 8)
    means = np.eye(8)[:, :2]
    column_sets = [np.arange(0, 8), np.arange(8, 16)]
    bank = sfk.ExpertBank(2, means, column_sets)
    x = np.tile(np.eye(8)[0], (4, 1))  # every token scores expert 0 highest
    plan = sfk.route_tokens(x, bank, top_k=1)
    y2 = sfk.apply_permutation(np.abs(sfk.rand_matrix(4, 16, seed=6)), plan)
    vm = sfk.moe_to_venom(y2, plan, bank, p)  # expert 1's window falls back to zeros
    d = sfk.decode24(vm)
    assert np.array_equal(d[:, 8:], np.zeros((4, 8)))
    assert sfk.venom_check(d, p)

    # expert 0 owning only 2 columns of window 1 leaves it starved: a block
    # routed there can neither fill 4 columns nor fall back to all-zero
    lop_sets = [np.array([0, 1, 2, 3, 4, 5, 14, 15]), np.array([6, 7, 8, 9, 10, 11, 12, 13])]
    lop_bank = sfk.ExpertBank(2, means, lop_sets)
    lop_plan = sfk.route_tokens(x, lop_bank, top_k=1)
    with pytest.raises(InputError, match="routable columns"):
        sfk.moe_to_venom(y2, lop_plan, lop_bank, p)


@given(
    top_k=st.sampled_from([1, 2]),
    unequal=st.booleans(),
    tokens=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    neg_zero=st.booleans(),
)
@settings(max_examples=40)
def test_routed_products_match_masked_full_products(top_k, unequal, tokens, seed, neg_zero):
    """A product sampled at routed_columns is, scattered back, the full
    product masked to each token's routed experts' columns, bitwise, for
    gemm and spmm24_rhs alike, also with top-2 routing and with expert
    sets of unequal size (whose shorter rows repeat a column)."""
    d_model, d_ffn = 16, 64
    if unequal:
        sets = np.split(np.random.Generator(np.random.PCG64(seed)).permutation(d_ffn), [8, 20, 40])
        means = sfk.rand_matrix(d_model, 4, seed=seed)
        bank = sfk.ExpertBank(4, means / np.linalg.norm(means, axis=0), sets)
    else:
        cfg = sfk.RouterConfig(num_experts=4, top_k=top_k, align_m=16)
        bank = sfk.cluster_columns(sfk.rand_matrix(d_model, d_ffn, seed=seed), cfg, seed=seed + 1)
    x = spread(tokens, d_model, seed + 2, neg_zero)
    w1 = spread(d_model, d_ffn, seed + 3, neg_zero)
    plan = sfk.route_tokens(x, bank, top_k=top_k)
    cols = sfk.routed_columns(plan, bank)
    s = sfk.sparsify24(w1)
    rows = np.arange(tokens)[:, None]
    for full, sampled in ((sfk.gemm(x, w1), sfk.gemm(x, w1, cols)),
                          (sfk.spmm24_rhs(x, s), sfk.spmm24_rhs(x, s, cols=cols))):
        oracle = np.zeros_like(full)
        for t in range(tokens):
            for e in plan.assignments[t]:
                cs = bank.column_sets[e]
                oracle[t, cs] = full[t, cs]
        got = np.zeros_like(full)
        got[rows, cols] = sampled
        assert got.tobytes() == oracle.tobytes()


def drawn_bank(d_model, d_ffn, seed, quads):
    """Four experts with column sets of unequal size, each in shuffled
    order.  With quads each owns whole aligned 4-column groups, so no
    window is starved, but a block's experts may reach none of a window
    (an all-zero fallback block); otherwise they own arbitrary columns,
    and starved windows are likely."""
    g = np.random.Generator(np.random.PCG64(seed))
    if quads:
        owner = g.permutation(np.concatenate((np.arange(4), g.integers(0, 4, d_ffn // 4 - 4))))
        sets = [np.flatnonzero(np.repeat(owner, 4) == e) for e in range(4)]
    else:
        cuts = 4 * np.sort(g.choice(np.arange(1, d_ffn // 4), size=3, replace=False))
        sets = np.split(g.permutation(d_ffn), cuts)
    means = sfk.rand_matrix(d_model, 4, seed=seed + 1)
    return sfk.ExpertBank(4, means / np.linalg.norm(means, axis=0), [g.permutation(cs) for cs in sets])


def same_pack(got, want):
    return (got.values.tobytes() == want.values.tobytes()
            and np.array_equal(got.payload.slots, want.payload.slots)
            and np.array_equal(got.col_table, want.col_table)
            and np.array_equal(got.abs_columns(), want.abs_columns()))


@given(
    top_k=st.sampled_from([1, 2]),
    quads=st.booleans(),
    tokens=st.integers(1, 40),
    v=st.sampled_from([1, 2, 4, 8]),
    m=st.sampled_from([8, 16]),
    ties=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60)
def test_routed_encoder_is_the_dense_chain_bitwise(top_k, quads, tokens, v, m, ties, seed):
    """The venom forward encodes its activation from y1's routed entries,
    and moe_to_venom from the routed entries of its dense input.  Both
    are bitwise the dense chain they replace (conftest's oracles): the
    pack's values, slots, column table and columns, the activation mask
    and y1 at its kept slots; or both raise the same InputError for a
    starved window.  The draws cover top-2 routing, unequal expert sets
    (whose shorter rows repeat a column the L1 key counts once), token
    counts that are no multiple of V, empty expert groups, all-zero
    fallback windows, and ties and -0.0 in the L1 key."""
    d_model, d_ffn = 8, 64
    bank = drawn_bank(d_model, d_ffn, seed, quads)
    g = np.random.Generator(np.random.PCG64(seed + 2))
    if ties:  # small integers: y1 and so the L1 key tie often
        x = g.integers(-1, 2, size=(tokens, d_model)).astype(np.float64)
        w1 = g.integers(-1, 3, size=(d_model, d_ffn)).astype(np.float64)
        y2 = g.integers(-2, 3, size=(tokens, d_ffn)) * 1.0
        y2[g.random(y2.shape) < 0.25] = -0.0
    else:
        x, w1 = spread(tokens, d_model, seed, False), spread(d_model, d_ffn, seed + 1, False)
        y2 = spread(tokens, d_ffn, seed + 3, True)
    pol = sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(v, m),
                             router=sfk.RouterConfig(num_experts=4, top_k=top_k))
    p = sfk.FfnParams(w1, np.ones((d_ffn, 4)))
    plan = sfk.route_tokens(x, bank, top_k)
    cols = sfk.routed_columns(plan, bank)
    try:
        want = venom_chain_oracle(sfk.gemm(x, w1, cols), cols, plan, bank, pol.venom)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            sfk.ffn_forward(x, p, pol, bank=bank)
        assert str(got.value) == str(exc) and "routable columns" in str(exc)
    else:
        _, tape = sfk.ffn_forward(x, p, pol, bank=bank)
        vm, mask, y1_kept = want
        assert same_pack(tape.y2, vm)
        assert np.array_equal(tape.act_mask, mask)
        real = tape.layout.source_row >= 0
        assert tape._y1_kept.tobytes() == y1_kept[real].tobytes()
        assert not y1_kept[~real].any()

    y2p = sfk.apply_permutation(y2, plan)
    try:
        want = moe_to_venom_oracle(y2p, plan, bank, pol.venom)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            sfk.moe_to_venom(y2p, plan, bank, pol.venom)
        assert str(got.value) == str(exc)
    else:
        assert same_pack(sfk.moe_to_venom(y2p, plan, bank, pol.venom), want)
