"""FFN forward/backward: policy plumbing, operand placement, gradient checks."""

import sys

import numpy as np
import pytest

import sfk
from sfk import GuardError, InputError, ShapeError
from conftest import gemm_rank1, gradcheck_oracle, sparsify24_backward_oracle, sparsify24_oracle, spread


def small_problem(seed=0, d_model=8, d_ffn=16, d_out=8, tokens=8):
    x = sfk.rand_matrix(tokens, d_model, seed=seed)
    p = sfk.init_ffn_params(d_model, d_ffn, d_out, seed=seed + 1)
    return x, p


# top-2 routing over four experts: a block's tokens differ in their second expert
VENOM_TOP2 = sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 8),
                               router=sfk.RouterConfig(num_experts=4, top_k=2, align_m=8))


def eff(w, mode=sfk.SOFT_THRESHOLD, own=False, transposed=False):
    out = np.asarray(w, dtype=np.float64)
    if own:
        out = sfk.decode24(sfk.sparsify24(out, mode))
    if transposed:
        out = sfk.decode24(sfk.sparsify24(out.T, mode)).T
    return out


# ------------------------------------------------------------- activation ---


def test_squared_relu_and_backward():
    y1 = np.array([[-2.0, 0.0, 1.5, 3.0]])
    assert np.array_equal(sfk.squared_relu(y1), [[0.0, 0.0, 2.25, 9.0]])
    dy2 = np.array([[1.0, 1.0, 2.0, -1.0]])
    assert np.array_equal(sfk.squared_relu_backward(dy2, y1), [[0.0, 0.0, 6.0, -6.0]])
    with pytest.raises(ShapeError):
        sfk.squared_relu_backward(dy2, y1[:, :2])


# ----------------------------------------------------------------- policy ---


def test_policy_validation():
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="venom")  # venom params required
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 8))  # router required
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="dense", venom=sfk.VenomParams(4, 8))
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="act24", router=sfk.RouterConfig(num_experts=2, top_k=1))
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="blocky")
    with pytest.raises(InputError):
        sfk.SparsityPolicy(weight_mode="l1")


def test_policy_json_roundtrip():
    for tag in sfk.ABLATIONS:
        pol = sfk.ablation_policy(tag)
        assert pol.tag == tag
        assert sfk.config_from_json(sfk.SparsityPolicy, sfk.config_to_json(pol)) == pol
    assert sfk.DENSE_POLICY.tag == "dense"
    with pytest.raises(InputError):
        sfk.ablation_policy("everything")


def test_init_ffn_params_deterministic():
    p1 = sfk.init_ffn_params(8, 16, 8, seed=4)
    p2 = sfk.init_ffn_params(8, 16, 8, seed=4)
    assert np.array_equal(p1.w1, p2.w1) and np.array_equal(p1.w2, p2.w2)
    with pytest.raises(InputError):
        sfk.FfnParams(np.full((8, 16), np.nan), np.ones((16, 8)))
    with pytest.raises(ShapeError):
        sfk.FfnParams(np.ones((8, 16)), np.ones((12, 8)))


# ---------------------------------------------------------------- forward ---


def test_dense_forward_is_plain_composition():
    x, p = small_problem()
    y3, tape = sfk.ffn_forward(x, p, sfk.DENSE_POLICY)
    y1 = sfk.gemm(x, p.w1)
    y2 = sfk.squared_relu(y1)
    assert np.array_equal(y3, sfk.gemm(y2, p.w2))
    assert np.array_equal(tape.y1, y1)
    assert np.array_equal(tape.y2, y2)
    assert np.array_equal(tape.x, x)
    assert tape.matmul_log == [("y1", "none"), ("y3", "none")]


@pytest.mark.parametrize("mode", sfk.MODES)
def test_weight_sparse_forward_masks_effective_weights(mode):
    x, p = small_problem()
    pol = sfk.SparsityPolicy(w1_sparse=True, w2_sparse=True, weight_mode=mode)
    y3, tape = sfk.ffn_forward(x, p, pol)
    w1e, w2e = eff(p.w1, mode, own=True), eff(p.w2, mode, own=True)
    want = sfk.gemm(sfk.squared_relu(sfk.gemm(x, w1e)), w2e)
    assert np.array_equal(y3, want)
    assert tape.matmul_log == [("y1", "w1"), ("y3", "w2")]


def test_transposed_weight_masks_compose_after_own_rows():
    x, p = small_problem()
    pol = sfk.SparsityPolicy(w1_sparse=True, w1t_sparse=True, w2t_sparse=True)
    y3, _ = sfk.ffn_forward(x, p, pol)
    w1e = eff(p.w1, own=True, transposed=True)
    w2e = eff(p.w2, transposed=True)
    want = sfk.gemm(sfk.squared_relu(sfk.gemm(x, w1e)), w2e)
    assert np.array_equal(y3, want)


def test_act24_forward_packs_the_activation():
    x, p = small_problem()
    pol = sfk.SparsityPolicy(act_mode="act24")
    y3, tape = sfk.ffn_forward(x, p, pol)
    y2 = sfk.squared_relu(sfk.gemm(x, p.w1))
    s = sfk.sparsify24(y2, sfk.GREEDY_MAGNITUDE)
    assert np.array_equal(y3, sfk.gemm(sfk.decode24(s), p.w2))
    assert np.array_equal(tape.y2.values, s.values) and np.array_equal(tape.y2.slots, s.slots)
    # pack-shaped, one flag per kept slot: every kept slot of act24 is active
    assert tape.act_mask.shape == s.values.shape and tape.act_mask.all()
    assert ("y3", "y2") in tape.matmul_log


def test_venom_forward_routes_pads_and_unwinds():
    x, p = small_problem(d_ffn=32)
    pol = sfk.ablation_policy("venom")
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3)
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    # manual replay of the activation side
    y2 = sfk.squared_relu(sfk.gemm(x, p.w1))
    plan = sfk.route_tokens(x, bank, top_k=pol.router.top_k)
    vm = sfk.moe_to_venom(sfk.apply_permutation(y2, plan), plan, bank, pol.venom)
    layout = sfk.padded_layout(plan, pol.venom.v)
    want = sfk.invert_permutation(
        sfk.unpad_rows(sfk.gemm(sfk.decode24(vm), p.w2), layout), plan
    )
    assert np.array_equal(y3, want)
    assert tape.plan is not None and tape.layout is not None
    assert tape.y2.values.tobytes() == vm.values.tobytes()
    assert np.array_equal(tape.y2.abs_columns(), vm.abs_columns())
    # pack-shaped: the routed-feature mask at the pack's kept slots
    mask = sfk.kept_mask(vm) & sfk.routed_feature_mask(plan, bank, layout)
    assert tape.act_mask.shape == vm.values.shape == (layout.rows, 8)
    assert np.array_equal(tape.act_mask, np.take_along_axis(mask, vm.abs_columns(), axis=1))


def test_venom_forward_computes_y1_on_routed_columns_only():
    """Under venom y1 holds each token's routed entries and nothing else,
    in routing order (the activation pack's real rows); the multiplies
    of y1 are those entries times d_model."""
    x, p = small_problem(d_ffn=32)
    pol = sfk.ablation_policy("venom")
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3)
    with sfk.count_multiplies() as counter:
        _, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    cols = sfk.routed_columns(tape.plan, bank)[tape.plan.permutation]
    assert np.array_equal(tape.y1_cols, cols)
    xp = sfk.apply_permutation(x, tape.plan)
    assert tape.y1.tobytes() == np.take_along_axis(sfk.gemm(xp, p.w1), cols, axis=1).tobytes()
    routing = x.shape[0] * bank.num_experts * p.d_model
    assert counter.per_op["gemm"] == cols.size * p.d_model + routing


def test_venom_requires_bank():
    x, p = small_problem()
    with pytest.raises(InputError):
        sfk.ffn_forward(x, p, sfk.ablation_policy("venom"))


@pytest.mark.parametrize("tag", ["act24", "venom", "venom-top2"])
def test_frozen_tape_reproduces_forward_bitwise(tag):
    """A frozen forward reproduces the forward, and its tape the
    gradients; under top-2 routing the frozen y1 is nonzero at kept
    slots its row does not route, which only the activation mask keeps
    out of dy1."""
    x, p = small_problem(d_ffn=32)
    pol = VENOM_TOP2 if tag == "venom-top2" else sfk.ablation_policy(tag)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    y3f, tape_f = sfk.ffn_forward(x, p, pol, bank=bank, frozen=tape)
    assert np.array_equal(y3, y3f)
    assert tape_f.act_mask.shape == tape.y2.values.shape  # one flag per kept slot
    assert np.array_equal(tape_f.act_mask, tape.act_mask)
    assert np.array_equal(sfk.decode24(tape_f.y2), sfk.decode24(tape.y2))
    dy3 = sfk.rand_matrix(*y3.shape, seed=9)
    for g, gf in zip(sfk.ffn_backward(dy3, tape, p, pol), sfk.ffn_backward(dy3, tape_f, p, pol)):
        assert g.tobytes() == gf.tobytes()
    if tag == "venom-top2":
        assert not tape.act_mask.all()


def test_forward_reuses_handed_packs_bitwise():
    """A pack from an earlier forward of the same weights stands in for
    packing that weight again; None packs it here."""
    x, p = small_problem(d_ffn=32)
    pol = sfk.default_sparse_policy()
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3)
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    for packs in ((tape.w1, tape.w2), (None, tape.w2), (tape.w1, None), [None, None]):
        y3r, tape_r = sfk.ffn_forward(x, p, pol, bank=bank, packs=packs)
        assert y3r.tobytes() == y3.tobytes()
        for handed, used in zip(packs, (tape_r.w1, tape_r.w2)):
            assert handed is None or used is handed


def test_forward_rejects_packs_that_do_not_match():
    x, p = small_problem(d_ffn=32)
    pol = sfk.ablation_policy("w1")
    _, tape = sfk.ffn_forward(x, p, pol)
    _, w1t_tape = sfk.ffn_forward(x, p, sfk.ablation_policy("w1t"))
    _, other = sfk.ffn_forward(*small_problem(d_model=12, d_ffn=32), pol)
    for packs in (
        (w1t_tape.w1, None),  # t present, own missing
        (None, tape.w1),  # an own-row pack where w2 has none
        (other.w1, None),  # the policy's masks, another weight's shape
        (tape.w1.eff, None),  # not a pack
        (tape.w1,),
        (tape.w1, tape.w2, None),
        iter((tape.w1, None)),  # used to raise an untyped TypeError from len()
    ):
        with pytest.raises(InputError):
            sfk.ffn_forward(x, p, pol, packs=packs)


REUSE_CASES = list(sfk.ABLATIONS) + ["recipe", "venom-top2"]


def reuse_problem(case):
    """A policy, inputs and bank for the hidden-tape tests; venom-top2 routes
    each token to two of four experts, so blocks mix column sets."""
    if case == "recipe":
        pol = sfk.default_sparse_policy()
    elif case == "venom-top2":
        pol = sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 8),
                                 router=sfk.RouterConfig(num_experts=4, top_k=2, align_m=8))
    else:
        pol = sfk.ablation_policy(case)
    x, p = small_problem(d_model=16, d_ffn=64, d_out=16, tokens=16)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    return pol, x, p, bank


@pytest.mark.parametrize("case", REUSE_CASES)
def test_hidden_forward_is_the_full_forward_bitwise(case):
    """On another w2, a forward that reuses a tape's hidden stage gives the
    full forward's y3, logs only the y3 product, and its tape backpropagates
    to the full tape's gradients, all bitwise."""
    pol, x, p, bank = reuse_problem(case)
    _, hidden = sfk.ffn_forward(x, p, pol, bank=bank)
    p2 = sfk.FfnParams(p.w1, 1.5 * p.w2 - 0.25)  # the same x and w1, another w2
    y3, tape = sfk.ffn_forward(x, p2, pol, bank=bank)
    y3r, tape_r = sfk.ffn_forward(x, p2, pol, bank=bank, _stage=(hidden, None))
    assert y3r.tobytes() == y3.tobytes()
    assert tape_r.matmul_log == [e for e in tape.matmul_log if e[0] == "y3"]
    assert tape_r.params is p2 and tape_r.w1 is hidden.w1 and tape_r.y2 is hidden.y2
    assert hidden.matmul_log == tape.matmul_log  # hidden's log is left as it was
    dy3 = sfk.rand_matrix(*y3.shape, seed=9)
    got = sfk.ffn_backward(dy3, tape_r, p2, pol)
    want = sfk.ffn_backward(dy3, tape, p2, pol)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    # a w2 of another width: two edited copies of each 4-group of columns,
    # side by side; each block of its y3 is that group's columns of the
    # full forward on p2 with the group edited
    groups = [np.arange(q, q + 4) for q in range(0, p2.d_out, 4)]
    edits = [lambda w: 0.5 * w + 0.125, lambda w: -2.0 * w]
    wide = np.hstack([edit(p2.w2[:, cols]) for edit in edits for cols in groups])
    y3w, _ = sfk.ffn_forward(x, sfk.FfnParams(p.w1, wide), pol, _stage=(hidden, None))
    assert y3w.shape == (x.shape[0], wide.shape[1])
    blocks = iter(np.hsplit(y3w, len(edits) * len(groups)))
    for edit in edits:
        for cols in groups:
            w2 = p2.w2.copy()
            w2[:, cols] = edit(w2[:, cols])
            y3g, _ = sfk.ffn_forward(x, sfk.FfnParams(p.w1, w2), pol, bank=bank)
            assert next(blocks).tobytes() == y3g[:, cols].tobytes()


def w1_stack_problem(case):
    """reuse_problem's inputs plus the w1+w1t policy, the hidden tape a
    w1-stacked forward reads (a frozen-mask forward's under venom and for
    the frozen- cases) and the frozen tape, or None."""
    if case == "w1+w1t":
        pol, x, p, bank = sfk.SparsityPolicy(w1_sparse=True, w1t_sparse=True), *reuse_problem("dense")[1:]
    else:
        pol, x, p, bank = reuse_problem(case.removeprefix("frozen-"))
    _, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    if pol.act_mode != "venom" and not case.startswith("frozen-"):
        return pol, x, p, bank, tape, None
    return pol, x, p, bank, sfk.ffn_forward(x, p, pol, bank=bank, frozen=tape)[1], tape


@pytest.mark.parametrize("case", REUSE_CASES + ["w1+w1t", "frozen-act24"])
def test_w1_stacked_forward_is_the_full_forward_bitwise(case):
    """Each copy of a w1-stacked forward is bitwise the full forward (with
    the same frozen masks, if any) on w1 with that copy's column group
    replaced, and the stacked forward logs one y1 and one y3 product."""
    pol, x, p, bank, hidden, frozen = w1_stack_problem(case)
    g = 4 if pol.w1_sparse else 1
    groups = [np.arange(q, q + g) for q in (0, 4, p.d_ffn - g)]
    edits = [lambda w: 0.5 * w + 0.125, lambda w: -2.0 * w]
    cols = np.concatenate([c for _ in edits for c in groups])
    wide = np.hstack([edit(p.w1[:, c]) for edit in edits for c in groups])
    y3s, tape_s = sfk.ffn_forward(x, sfk.FfnParams(wide, p.w2[cols]), pol, _stage=(hidden, cols))
    copies = len(edits) * len(groups)
    assert y3s.shape == (copies * len(x), p.d_out)
    assert [name for name, _ in tape_s.matmul_log] == ["y1", "y3"]
    assert tape_s.matmul_log == [e for e in hidden.matmul_log if e[0] in ("y1", "y3")]
    blocks = iter(np.split(y3s, copies))
    for edit in edits:
        for c in groups:
            w1 = p.w1.copy()
            w1[:, c] = edit(w1[:, c])
            y3c, _ = sfk.ffn_forward(x, sfk.FfnParams(w1, p.w2), pol, bank=bank, frozen=frozen)
            assert next(blocks).tobytes() == y3c.tobytes()


def test_forward_rejects_a_frozen_that_is_not_an_unstacked_tape():
    """frozen must be a tape: a string or a pack used to raise an untyped
    AttributeError from deep inside the forward."""
    pol, x, p, bank, hidden, _ = w1_stack_problem("venom")
    for bad in ("abc", hidden.y2):
        with pytest.raises(InputError, match="frozen must be a tape"):
            sfk.ffn_forward(x, p, pol, bank=bank, frozen=bad)


@pytest.mark.parametrize("case", ["venom", "venom-top2", "recipe", "frozen-act24"])
def test_rows_of_runs_each_token_as_the_frozen_forward_does(case):
    """A forward on the frozen tape of some tokens (_rows_of) gives each
    token's row of y3 bitwise as the frozen-mask forward on the whole
    batch does, for token lists with repeats, in reversed order and a
    strict subset: on the tokens' own rows of x, and on perturbed rows,
    each as the whole-batch forward with that one row replaced.  The
    tape has no routing plan or padded layout."""
    pol, x, p, bank, hidden, frozen = w1_stack_problem(case)
    packs = (frozen.w1, frozen.w2)
    base, _ = sfk.ffn_forward(x, p, pol, bank=bank, frozen=frozen, packs=packs)
    b = len(x)
    for tokens in (np.array([3, 3, 0, b - 1, 3]), np.arange(b)[::-1].copy(), np.arange(1, b, 2)):
        rows = sfk.ffn._rows_of(hidden, tokens)
        assert rows.plan is None and rows.layout is None
        y3, _ = sfk.ffn_forward(x[tokens], p, pol, bank=bank, frozen=rows, packs=packs)
        assert y3.tobytes() == base[tokens].tobytes()
        moved = x[tokens] + 0.01 * sfk.rand_matrix(len(tokens), x.shape[1], seed=20)
        y3, _ = sfk.ffn_forward(moved, p, pol, bank=bank, frozen=rows, packs=packs)
        for t, xr, yr in zip(tokens, moved, y3):
            xt = x.copy()
            xt[t] = xr
            want, _ = sfk.ffn_forward(xt, p, pol, bank=bank, frozen=frozen, packs=packs)
            assert yr.tobytes() == want[t].tobytes()


# --------------------------------------------------- sparse operand placement


EXPECTED_LOGS = {
    "dense": [("y1", "none"), ("y3", "none"), ("dw2", "none"), ("dy2", "none"),
              ("dx", "none"), ("dw1", "none")],
    "w1": [("y1", "w1"), ("y3", "none"), ("dw2", "none"), ("dy2", "none"),
           ("dx", "none"), ("dw1", "none")],
    "w2": [("y1", "none"), ("y3", "w2"), ("dw2", "none"), ("dy2", "none"),
           ("dx", "none"), ("dw1", "none")],
    "w1t": [("y1", "none"), ("y3", "none"), ("dw2", "none"), ("dy2", "none"),
            ("dx", "w1t"), ("dw1", "none")],
    "w2t": [("y1", "none"), ("y3", "none"), ("dw2", "none"), ("dy2", "w2t"),
            ("dx", "none"), ("dw1", "none")],
    "act24": [("y1", "none"), ("y3", "y2"), ("dw2", "y2"), ("dy2", "none"),
              ("dx", "dy1"), ("dw1", "dy1")],
    "venom": [("y1", "none"), ("y3", "y2"), ("dw2", "y2"), ("dy2", "none"),
              ("dx", "dy1"), ("dw1", "dy1")],
    "recipe": [("y1", "w1"), ("y3", "y2"), ("dw2", "y2"), ("dy2", "w2t"),
               ("dx", "dy1"), ("dw1", "dy1")],
    "weights": [("y1", "w1"), ("y3", "w2"), ("dw2", "none"), ("dy2", "w2t"),
                ("dx", "w1t"), ("dw1", "none")],
    "weights-act24": [("y1", "w1"), ("y3", "y2"), ("dw2", "y2"), ("dy2", "w2t"),
                      ("dx", "dy1"), ("dw1", "dy1")],
}

# every weight mask on, so each weight holds both its own-row and its transposed pack
ALL_WEIGHTS = dict(w1_sparse=True, w1t_sparse=True, w2_sparse=True, w2t_sparse=True)
COMBINED_POLICIES = {
    "recipe": sfk.default_sparse_policy(),
    "weights": sfk.SparsityPolicy(**ALL_WEIGHTS),
    "weights-act24": sfk.SparsityPolicy(**ALL_WEIGHTS, act_mode="act24"),
}


@pytest.mark.parametrize("tag", list(sfk.ABLATIONS) + list(COMBINED_POLICIES))
def test_packed_operand_placement(tag):
    """Each policy keeps the sparse operand packed exactly where it claims to.

    In the activation-sparse modes all four products that touch the activation
    (or its gradient) carry the packed activation operand, matching the
    compute-saving placement the counters measure.  Where a weight holds
    both packs, each weight product reads the one of its orientation (on
    these non-square weights the other one would not fit).
    """
    x, p = small_problem(d_ffn=32)
    pol = COMBINED_POLICIES[tag] if tag in COMBINED_POLICIES else sfk.ablation_policy(tag)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    sfk.ffn_backward(np.ones_like(y3), tape, p, pol)
    assert tape.matmul_log == EXPECTED_LOGS[tag]


@pytest.mark.parametrize("case", list(sfk.ABLATIONS) + ["recipe", "frozen-act24", "frozen-venom", "frozen-recipe"]
                         + [f"hidden-{t}" for t in (*sfk.ABLATIONS, "recipe")] + ["hidden-frozen-venom"]
                         + [f"stacked-{t}" for t in ("dense", "w1", "w1t", "act24", "frozen-venom", "frozen-recipe")])
def test_each_product_is_one_kernel_call_with_one_log_entry(monkeypatch, case):
    """One forward + backward calls gemm/spmm24_rhs/spmm24/spmm24_tn once
    per matmul_log entry (router scoring aside), and every multiply
    tallied in the step is tallied inside one of those calls: the
    contract a tracer needs to attribute each kernel call to a product.
    A staged forward on a tape's hidden stage (its forward alone) is the
    one y3 call, and a w1-stacked one the y1 and the y3 call."""
    tag = case.removeprefix("hidden-").removeprefix("stacked-").removeprefix("frozen-")
    pol = sfk.default_sparse_policy() if tag == "recipe" else sfk.ablation_policy(tag)
    x, p = small_problem(d_model=16, d_ffn=32, d_out=16, tokens=16)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    prior = sfk.ffn_forward(x, p, pol, bank=bank)[1] if tag != case else None
    kw = {}
    if "frozen" in case:
        kw["frozen"] = prior
    if case.startswith(("hidden", "stacked")):
        hidden = sfk.ffn_forward(x, p, pol, bank=bank, **kw)[1] if kw else prior
        cols = np.arange(8) if case.startswith("stacked") else None  # two 4-groups, or eight single columns
        kw = {"_stage": (hidden, cols)}
    if case.startswith("stacked"):
        p = sfk.FfnParams(-p.w1[:, :8], p.w2[:8])
    calls, inside, routing = [], [], []

    def counted(name, real):
        def kernel(*args, **kwargs):
            with sfk.count_multiplies() as c:
                out = real(*args, **kwargs)
            inside.append(c.total)
            if not routing:
                calls.append(name)
            return out
        return kernel

    def route(*args, **kwargs):
        routing.append(1)
        try:
            return real_route(*args, **kwargs)
        finally:
            routing.pop()

    real_route = sfk.route_tokens
    wrappers = {name: counted(name, getattr(sfk, name)) for name in ("gemm", "spmm24_rhs", "spmm24", "spmm24_tn")}
    wrappers["route_tokens"] = route
    originals = {name: getattr(sfk, name) for name in wrappers}
    for modname, mod in list(sys.modules.items()):
        for name, wrapper in wrappers.items():
            if modname.split(".")[0] == "sfk" and getattr(mod, name, None) is originals[name]:
                monkeypatch.setattr(mod, name, wrapper)
    with sfk.count_multiplies() as step:
        y3, tape = sfk.ffn_forward(x, p, pol, bank=bank, **kw)
        if "_stage" not in kw:
            sfk.ffn_backward(y3, tape, p, pol)
    assert len(calls) == len(tape.matmul_log) == (6 if "_stage" not in kw else 2 if case.startswith("stacked") else 1)
    assert sum(inside) == step.total > 0


def test_recipe_multiplies_at_the_baseline_shape():
    """Exact per-product multiplies of one recipe forward + backward at
    x 64x32, d_ffn 128, d_out 32 (x seed 0, params seed 1, bank seed 2):
    y1 only on routed columns, dy2 only at the kept slots of y2's real
    (not pad) rows, and y3, dx, dw1 and dw2 only on the real rows (64
    tokens x 16 kept slots x 32): 188,695 in all."""
    pol = sfk.default_sparse_policy()
    x, p = sfk.rand_matrix(64, 32, seed=0), sfk.init_ffn_params(32, 128, 32, seed=1)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=2)
    with sfk.count_multiplies() as counter:
        y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
        sfk.ffn_backward(y3, tape, p, pol)
    assert tape.layout.rows == 80
    assert counter.per_op == {
        "ffn.y1": 33_006, "ffn.y3": 32_768, "ffn.dy2": 16_425, "ffn.dx": 32_768,
        "ffn.dw1": 32_768, "ffn.dw2": 32_768, "gemm": 8_192,  # gemm: router scoring
    }
    assert counter.total == 188_695
    dense = 6 * 64 * 32 * 128
    assert dense / counter.total >= 8.3


@pytest.mark.parametrize("case", ["recipe", "venom-top2", "frozen-venom"])
def test_venom_products_skip_the_pad_rows(case):
    """y3, dx, dw1 and dw2 multiply only on the activation pack's real
    rows: tokens x kept slots per row x d_out (y3, dw2) or d_model (dx,
    dw1), though routing pads the pack with all-zero rows.  A frozen
    forward computes y1 only there as well."""
    pol = {"recipe": sfk.default_sparse_policy(), "venom-top2": VENOM_TOP2,
           "frozen-venom": sfk.ablation_policy("venom")}[case]
    x, p = small_problem(d_model=16, d_ffn=64, d_out=24, tokens=30)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3)
    frozen = sfk.ffn_forward(x, p, pol, bank=bank)[1] if case.startswith("frozen") else None
    with sfk.count_multiplies() as forward:
        y3, tape = sfk.ffn_forward(x, p, pol, bank=bank, frozen=frozen)
    with sfk.count_multiplies() as backward:
        sfk.ffn_backward(y3, tape, p, pol)
    assert tape.layout.rows > 30  # there are pad rows to skip
    slots = 30 * tape.y2.values.shape[1]
    assert forward.per_op["ffn.y3"] == slots * 24
    assert [backward.per_op[f"ffn.{k}"] for k in ("dx", "dw1", "dw2")] == [slots * 16, slots * 16, slots * 24]
    if frozen is not None:
        assert forward.per_op["gemm"] == slots * 16  # y1


def test_venom_step_builds_nothing_dense(monkeypatch):
    """A venom forward and backward, and a frozen one, encode the
    activation from the routed entries: they call none of the dense
    chain's steps, through any sfk namespace."""
    names = ("moe_to_venom", "routed_feature_mask", "kept_mask", "pad_rows", "unpad_rows")
    calls = []
    for name in names:
        real = getattr(sfk, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "sfk" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    x, p = small_problem(d_model=16, d_ffn=64, d_out=16, tokens=30)
    for pol in (sfk.default_sparse_policy(), VENOM_TOP2):
        bank = sfk.cluster_columns(p.w1, pol.router, seed=3)
        y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
        sfk.ffn_backward(y3, tape, p, pol)
        y3, tape = sfk.ffn_forward(x, p, pol, bank=bank, frozen=tape)
        sfk.ffn_backward(y3, tape, p, pol)
    assert calls == []
    sfk.kept_mask(tape.y2)  # the counter is live
    assert calls == ["kept_mask"]


# --------------------------------------------------------------- backward ---


def test_dense_backward_matches_manual_chain():
    x, p = small_problem()
    y3, tape = sfk.ffn_forward(x, p, sfk.DENSE_POLICY)
    dy3 = sfk.rand_matrix(*y3.shape, seed=9)
    dx, dw1, dw2 = sfk.ffn_backward(dy3, tape, p, sfk.DENSE_POLICY)
    dw2_want = sfk.gemm(tape.y2.T, dy3)
    dy2 = sfk.gemm(dy3, p.w2.T)
    dy1 = sfk.squared_relu_backward(dy2, tape.y1)
    assert np.array_equal(dw2, dw2_want)
    assert np.array_equal(dx, sfk.gemm(dy1, p.w1.T))
    assert np.array_equal(dw1, sfk.gemm(x.T, dy1))


def test_backward_rejects_policy_mismatch():
    x, p = small_problem()
    y3, tape = sfk.ffn_forward(x, p, sfk.DENSE_POLICY)
    with pytest.raises(InputError):
        sfk.ffn_backward(y3, tape, p, sfk.ablation_policy("w1"))


def test_backward_rejects_other_weights():
    x, p = small_problem()
    pol = sfk.ablation_policy("w1")
    y3, tape = sfk.ffn_forward(x, p, pol)
    twin = sfk.FfnParams(p.w1.copy(), p.w2.copy())  # equal values, different weights
    with pytest.raises(InputError):
        sfk.ffn_backward(y3, tape, twin, pol)


CONVERSION_POLICIES = {
    "dense": (sfk.DENSE_POLICY, 0),
    "w1_soft": (sfk.SparsityPolicy(w1_sparse=True), 1),
    "act24": (sfk.SparsityPolicy(act_mode="act24"), 1),
    "recipe": (sfk.default_sparse_policy(), 3),
}


@pytest.mark.parametrize("name", CONVERSION_POLICIES)
def test_each_operand_is_sparsified_once_per_step(monkeypatch, name):
    """One forward+backward packs each sparse weight and the activation once:
    the backward reads the weight packs off the tape."""
    pol, want = CONVERSION_POLICIES[name]
    x, p = small_problem(d_model=16, d_ffn=32, d_out=16, tokens=16)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    calls = []
    real = sfk.sparsify24

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # every sfk namespace that bound the function by name calls it through that binding
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "sfk" and getattr(mod, "sparsify24", None) is real:
            monkeypatch.setattr(mod, "sparsify24", counted)
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    sfk.ffn_backward(y3, tape, p, pol)
    assert len(calls) == want


def test_weight_sparsify_backward_modes():
    """sparsify24_backward reads the kept slots from the pack; the soft
    Jacobian is checked against the formula written out from a sort."""
    w = sfk.rand_matrix(4, 8, seed=1)
    g = sfk.rand_matrix(4, 8, seed=2)
    greedy = sfk.sparsify24(w, sfk.GREEDY_MAGNITUDE)
    hard = sfk.sparsify24_backward(w, greedy, g, sfk.GREEDY_MAGNITUDE)
    assert np.array_equal(hard, np.where(sfk.kept_mask(greedy), g, 0.0))
    soft = sfk.sparsify24_backward(w, sfk.sparsify24(w, sfk.SOFT_THRESHOLD), g, sfk.SOFT_THRESHOLD)
    groups, grads = w.reshape(4, 2, 4), g.reshape(4, 2, 4)
    tpos = np.argsort(np.abs(groups), axis=-1)[..., 1:2]  # second-smallest magnitude
    t = np.take_along_axis(np.abs(groups), tpos, axis=-1)
    want = np.where(np.abs(groups) > t, grads, 0.0)
    coupling = -(np.sign(groups) * want).sum(axis=-1, keepdims=True)
    np.put_along_axis(want, tpos, np.take_along_axis(np.sign(groups), tpos, axis=-1) * coupling, -1)
    np.testing.assert_allclose(soft, want.reshape(4, 8), rtol=0.0, atol=1e-15)
    assert np.array_equal(soft, sfk.soft_threshold_backward(w, g))
    with pytest.raises(InputError):
        sfk.sparsify24_backward(w, greedy, g, "l1")
    with pytest.raises(ShapeError):
        sfk.sparsify24_backward(w.T, greedy, g.T, sfk.GREEDY_MAGNITUDE)


BOTH_MASKS = {
    "w1+w1t": dict(w1_sparse=True, w1t_sparse=True),
    "w2+w2t": dict(w2_sparse=True, w2t_sparse=True),
    "all-four": dict(w1_sparse=True, w1t_sparse=True, w2_sparse=True, w2t_sparse=True),
}


def _unwound(w, own, t, mode):
    """A weight under its own-row and transposed 2:4 masks, applied in
    that order from sparsify24_oracle's picks, and the map of a gradient
    of that effective weight back onto w: sparsify24_backward_oracle
    through the transposed mask, then through the own-row one."""
    def pack(a):
        return sfk.Sparse24Matrix(*a.shape, *sparsify24_oracle(a, mode))

    own_s = pack(w) if own else None
    pre = sfk.decode24(own_s) if own else w
    t_s = pack(pre.T) if t else None
    eff = sfk.decode24(t_s).T if t else pre

    def unwind(g):
        if t:
            g = sparsify24_backward_oracle(pre.T, t_s, g.T, mode).T
        if own:
            g = sparsify24_backward_oracle(w, own_s, g, mode)
        return g

    return eff, unwind


@pytest.mark.parametrize("mode", sfk.MODES)
@pytest.mark.parametrize("name", BOTH_MASKS)
def test_weights_with_both_masks_unwind_like_the_oracle_bitwise(name, mode):
    """Weights with both 2:4 masks: y3 and (dx, dw1, dw2) are bitwise a
    plain forward and backward on the effective weights (conftest's
    gemm_rank1), with each master-weight gradient unwound through both
    masks by conftest's oracle.  gradcheck cannot check these policies
    (its tie audit of the transposed mask reads the own-row masked
    weight, whose zero ties never clear the margin).  The soft
    survivors must be tested against the master weight: the own-row
    pack holds the values the transposed mask left.  Normals, small
    integers full of ties, and spread magnitudes with -0.0."""
    pol = sfk.SparsityPolicy(**BOTH_MASKS[name], weight_mode=mode)
    for seed in range(9):
        def draw(rows, cols, k):
            g = np.random.Generator(np.random.PCG64(100 * seed + k))
            if seed % 3 == 0:
                return g.standard_normal((rows, cols))
            if seed % 3 == 1:
                return g.integers(-2, 3, size=(rows, cols)).astype(np.float64)
            return spread(rows, cols, 100 * seed + k, neg_zero=True)

        x, p = draw(6, 8, 0), sfk.FfnParams(draw(8, 12, 1), draw(12, 8, 2))
        dy3 = sfk.rand_matrix(6, 8, seed=seed + 3)
        y3, tape = sfk.ffn_forward(x, p, pol)
        got = sfk.ffn_backward(dy3, tape, p, pol)
        w1_eff, unwind1 = _unwound(p.w1, pol.w1_sparse, pol.w1t_sparse, mode)
        w2_eff, unwind2 = _unwound(p.w2, pol.w2_sparse, pol.w2t_sparse, mode)
        y1 = gemm_rank1(x, w1_eff)
        y2 = np.square(np.maximum(y1, 0.0))
        assert y3.tobytes() == gemm_rank1(y2, w2_eff).tobytes()
        dy1 = 2.0 * gemm_rank1(dy3, w2_eff.T) * np.maximum(y1, 0.0)
        want = gemm_rank1(dy1, w1_eff.T), unwind1(gemm_rank1(x.T, dy1)), unwind2(gemm_rank1(y2.T, dy3))
        for grad, oracle in zip(got, want):
            assert grad.tobytes() == oracle.tobytes()


# -------------------------------------------------------------- gradcheck ---


def test_gradcheck_dense_quick():
    rep = sfk.gradcheck(sfk.DENSE_POLICY, shape=(4, 8, 8), seed=0)
    assert rep.policy_tag == "dense"
    assert rep.max_rel < 1e-5
    assert rep.seed_used == 0
    doc = rep.to_dict()
    assert {"policy", "shape", "seed", "seed_used", "rel_dx", "rel_dw1", "rel_dw2", "max_rel"} <= set(doc)


def test_gradcheck_venom_quick():
    rep = sfk.gradcheck(sfk.ablation_policy("venom"), shape=(8, 8, 16), seed=0)
    assert rep.max_rel < 1e-4
    # Top-2 routing puts tokens with different column sets in one block, so
    # some kept slots are unrouted for some rows; only the backward's
    # activation mask keeps dy1 off them.
    top2 = sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 8),
                              router=sfk.RouterConfig(num_experts=4, top_k=2, align_m=8))
    assert sfk.gradcheck(top2, shape=(8, 8, 64), seed=0).max_rel < 1e-4


@pytest.mark.parametrize("tag", ["w1", "w1t", "w2", "w2t"])
def test_gradcheck_greedy_weight_ablations(tag):
    pol = sfk.ablation_policy(tag, sfk.GREEDY_MAGNITUDE)
    rep = sfk.gradcheck(pol, shape=(8, 16, 32), seed=0)
    assert rep.max_rel <= 1e-4


def test_gradcheck_caps_problem_size():
    with pytest.raises(GuardError):
        sfk.gradcheck(sfk.DENSE_POLICY, shape=(4, 8, 100))


@pytest.mark.parametrize("shape, seed", [
    ((8, 16), 0),  # used to raise an untyped ValueError
    ((8, 16, 32, 4), 0),
    ((8.5, 16, 32), 0),  # used to run as (8, 16, 32)
    ((True, 16, 32), 0),  # used to run as (1, 16, 32)
    (("8", 16, 32), 0),
    (8, 0),
    ((8, 16, 32), 1.5),  # used to raise numpy's TypeError
    ((8, 16, 32), True),
    ((8, 16, 32), "0"),
])
def test_gradcheck_rejects_a_shape_or_seed_that_is_not_integers(shape, seed):
    with pytest.raises(InputError):
        sfk.gradcheck(sfk.DENSE_POLICY, shape=shape, seed=seed)


@pytest.mark.parametrize("tag", ["dense", "w1", "venom"])
def test_gradcheck_builds_one_params_for_its_finite_differences(monkeypatch, tag):
    """At (8, 16, 32) one FfnParams for the base point and one per
    stacked forward on a weight: on w2 the guard and 512 / 16 chunks (16
    entries fit the budget), on w1 the guard and 512 / 8 chunks (8 fit,
    as its stacks hold copies of y1; 16 under venom, whose y1 holds only
    the frozen slots).  So 1 + 33 + 65 = 99 (venom 1 + 33 + 33 = 67),
    not one per forward."""
    calls = []
    real = sfk.FfnParams.__post_init__

    def counted(self):
        calls.append(1)
        real(self)

    monkeypatch.setattr(sfk.FfnParams, "__post_init__", counted)
    rep = sfk.gradcheck(sfk.ablation_policy(tag), shape=(8, 16, 32), seed=0)
    assert rep.seed_used == 0  # one base point
    on_w1 = 512 // (16 if tag == "venom" else 8)
    assert len(calls) == 1 + (1 + 512 // 16) + (1 + on_w1)


@pytest.mark.parametrize("tag, packed", [
    ("w1", 1 + 1 + 512 // 8),  # the base forward, the guard and one per stacked chunk
    ("w1t", 1 + 1 + 512 // 8),
    ("w2", 1 + 1 + 512 // 16),
    ("w2t", 1 + 1 + 512 // 16),
    ("act24", 1 + 1 + 128 // 16 + 1 + 512 // 8),  # the activation, every forward that runs y1
])
def test_gradcheck_packs_only_the_tensor_it_perturbs(monkeypatch, tag, packed):
    """At (8, 16, 32) x has 128 entries and each weight 512; 16 entries
    fit the budget of a stacked forward on x or w2, and 8 of one on w1,
    which stacks copies of y1.  A weight is sparsified by the base
    forward and by the stacked forwards that perturb it, the guard and
    one per chunk; the others reuse the base tape's pack.  The
    activation is packed wherever y1 runs: the base forward and the
    stacked guards and chunks of x and w1; the forwards on w2 skip it."""
    calls = []
    real = sfk.ffn.sparsify24

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sfk.ffn, "sparsify24", counted)
    rep = sfk.gradcheck(sfk.ablation_policy(tag), shape=(8, 16, 32), seed=0)
    assert rep.seed_used == 0  # one base forward
    assert len(calls) == packed


@pytest.mark.parametrize("tag", sfk.ABLATIONS)
def test_gradcheck_runs_y1_only_where_x_or_w1_moves(monkeypatch, tag):
    """At (8, 16, 32) y1 runs in the base forward (and, for venom, the
    frozen-mask guard), in the stacked forwards on x (the guard and
    128 / 16 chunks; for venom, whose routing is frozen, copies of the
    batch on the tiled frozen tape, 16 entries a chunk too) and in the
    stacked forwards on w1 (the guard and 512 / 8 chunks; 512 / 16 for
    venom, whose y1 holds only the frozen slots).  The stacked forwards
    on w2 (the guard and 512 / 16 chunks) run y3 alone."""
    products = []
    real = sfk.ffn.ffn_forward

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        products.extend(name for name, _ in out[1].matmul_log)
        return out

    monkeypatch.setattr(sfk.ffn, "ffn_forward", counted)
    rep = sfk.gradcheck(sfk.ablation_policy(tag), shape=(8, 16, 32), seed=0)
    assert rep.seed_used == 0
    base, on_w1 = (2, 1 + 512 // 16) if tag == "venom" else (1, 1 + 512 // 8)
    on_x = 1 + 128 // 16
    assert products.count("y1") == base + on_x + on_w1
    assert products.count("y3") == products.count("y1") + 1 + 512 // 16
    assert len(products) == products.count("y1") + products.count("y3")


def test_gradcheck_venom_counts(monkeypatch):
    """Count pin: one venom gradcheck at (8, 16, 32), seed 0, runs 77
    forwards and tallies 1,265,920 multiplies.  y3 costs 8 kept slots x
    16 outputs per row it runs on; its stacks on x (a guard and 8 chunks)
    run only their 32 perturbed rows, on the frozen pack's rows of their
    tokens, not 32 copies of the 8-row batch, so ffn.y3 and the y1 gemm
    each lose 9 x 224 rows x 128 = 258,048 against tiled copies
    (1,445,888 and 333,056)."""
    forwards = []
    real = sfk.ffn.ffn_forward

    def counted(*args, **kwargs):
        forwards.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sfk.ffn, "ffn_forward", counted)
    with sfk.count_multiplies() as counter:
        rep = sfk.gradcheck(sfk.ablation_policy("venom"), shape=(8, 16, 32), seed=0)
    assert rep.seed_used == 0 and len(forwards) == 77
    assert counter.per_op == {"gemm": 75_008, "ffn.y3": 1_187_840,
                              "ffn.dx": 1_024, "ffn.dw1": 1_024, "ffn.dw2": 1_024}
    assert counter.total == 1_265_920


def test_gradcheck_guards_the_hidden_stage_reuse(monkeypatch):
    """A forward on the base point's hidden stage, or a stacked forward,
    that does not reproduce the base y3 stops gradcheck with GuardError
    before any finite difference: only the base forward, venom's
    frozen-mask guard and the stacked guards up to the failing one (rows
    of x, then column groups of w2, then column groups of w1) have run."""
    real = sfk.ffn.ffn_forward
    b, d_out = 4, 8  # gradcheck's batch and d_out at (4, 8, 16)

    def nudged(when):
        def forward(*args, **kwargs):
            y3, tape = real(*args, **kwargs)
            calls.append(1)
            return (np.nextafter(y3, np.inf) if when(args, kwargs) else y3), tape
        return forward

    frozen_guard = nudged(lambda args, kwargs: "frozen" in kwargs and args[0].shape[0] == b)
    hidden = nudged(lambda args, kwargs: "_stage" in kwargs)
    # a stacked forward on x holds more rows than the batch: the
    # perturbed rows, 2 * 32 of them at (4, 8, 16)
    x_stacked = nudged(lambda args, kwargs: args[0].shape[0] != b)
    w2_stacked = nudged(lambda args, kwargs: args[1].w2.shape[1] != d_out)
    w1_stacked = nudged(lambda args, kwargs: "_stage" in kwargs and kwargs["_stage"][1] is not None)
    on_w2 = "stacked column groups of w2 on the base point's hidden stage"
    for mutant, tag, match, ran in (
        (frozen_guard, "venom", "frozen-mask forward", 2),
        (x_stacked, "w2", "stacked rows of x", 2),
        (x_stacked, "venom", "stacked rows of x", 3),
        (hidden, "w2", on_w2, 3),
        (hidden, "venom", on_w2, 4),
        (w2_stacked, "w2", on_w2, 3),
        (w2_stacked, "venom", on_w2, 4),
        (w1_stacked, "w2", "stacked column groups of w1", 4),
        (w1_stacked, "venom", "stacked column groups of w1", 5),
    ):
        monkeypatch.setattr(sfk.ffn, "ffn_forward", mutant)
        calls = []
        with pytest.raises(GuardError, match=match):
            sfk.gradcheck(sfk.ablation_policy(tag), shape=(4, 8, 16), seed=0)
        assert len(calls) == ran, (tag, match)


@pytest.mark.parametrize("tag, shape", [
    ("act24", (8, 16, 32)), ("w2", (8, 16, 32)), ("act24", (4, 64, 64)), ("w2", (4, 64, 64)),
    ("w1", (8, 16, 32)), ("w1", (4, 64, 64)), ("venom", (8, 16, 32)), ("venom", (4, 64, 64)),
])
def test_gradcheck_stacks_within_its_budget(monkeypatch, tag, shape):
    """No forward of gradcheck is handed an x, w1 or w2, or returns a y1,
    y2 or y3, of more float64 values than the stacking budget.  The stacks
    on x and w2 hold 16 entries' +h and -h copies at (8, 16, 32) (y3 has
    128 entries) and 8 at (4, 64, 64) (256): the copies of y3 their
    losses sum fill the budget, under venom too, whose stacks on x hold
    the perturbed rows on the frozen pack's rows of their tokens.  Those
    on w1 hold copies of the whole y1 (256 entries at both shapes), so 8
    entries at both; venom's y1 holds only the frozen slots, 2 of every 8
    columns, so y3 sets their size there too."""
    sizes = []
    real = sfk.ffn.ffn_forward

    def recorded(x, p, *args, **kwargs):
        y3, tape = real(x, p, *args, **kwargs)
        y2 = tape.y2 if isinstance(tape.y2, np.ndarray) else tape.y2.values
        stage = kwargs.get("_stage")
        on = None if stage is None else "w2" if stage[1] is None else "w1"  # the weight a stack is on
        sizes.append((x.shape, p.w1.shape, p.w2.shape, tape.y1.size, y2.size, y3.size, len(y3) // len(x), on))
        return y3, tape

    monkeypatch.setattr(sfk.ffn, "ffn_forward", recorded)
    sfk.gradcheck(sfk.ablation_policy(tag), shape=shape, seed=0)
    budget = sfk.ffn._FD_BUDGET
    assert all(max(xs[0] * xs[1], w1s[0] * w1s[1], w2s[0] * w2s[1], y1s, y2s, y3s) <= budget
               for xs, w1s, w2s, y1s, y2s, y3s, *_ in sizes)
    b, d_model, d_ffn = shape
    venom = tag == "venom"
    k = budget // (2 * b * d_model)  # entries per chunk; d_out = d_model
    assert k == {8: 16, 4: 8}[b]
    y1_row = d_ffn // 4 if venom else d_ffn
    k1 = budget // (2 * b * max(y1_row, d_model))  # entries per chunk on w1, whose copies hold y1
    assert k1 == (k if venom else 8)
    g2, g1 = (4 if tag == "w2" else 1), (4 if tag == "w1" else 1)
    # the _stage forwards are the stacks on w2 and (with columns) w1; the
    # others see b rows or a stack of x
    assert max(xs[0] for xs, *_, on in sizes if on is None) == 2 * k
    assert max(w2s[1] for _, _, w2s, *_, on in sizes if on == "w2") == 2 * k * g2
    w1_stacks = [(w1s[1], y1s, y3s, n) for _, w1s, _, y1s, _, y3s, n, on in sizes if on == "w1"]
    assert max(w1_stacks) == (2 * k1 * g1, 2 * k1 * b * y1_row, 2 * k1 * b * d_model, 2 * k1)
    assert all(y1s == n * b * y1_row and y3s == n * b * d_model for _, y1s, y3s, n in w1_stacks)


ORACLE_CASES = (
    [(tag, sfk.SOFT_THRESHOLD, (8, 16, 32), 0) for tag in sfk.ABLATIONS]
    + [(tag, sfk.GREEDY_MAGNITUDE, (8, 16, 32), 1) for tag in sfk.ABLATIONS]
    + [("recipe", sfk.SOFT_THRESHOLD, (16, 16, 32), 0), ("venom-top2", sfk.SOFT_THRESHOLD, (8, 8, 64), 0),
       ("dense", sfk.SOFT_THRESHOLD, (3, 6, 10), 0),  # d_out = 6 is not a multiple of 4
       ("w1t", sfk.SOFT_THRESHOLD, (3, 8, 10), 0), ("act24", sfk.GREEDY_MAGNITUDE, (5, 6, 12), 0)]
    + [(combo, mode, (8, 16, 32), 0) for combo in ("w1+w2", "w2+act24") for mode in sfk.MODES]
    + [("w1t+w2+act24", sfk.GREEDY_MAGNITUDE, (8, 16, 32), 0)]
    + [("w1+w2t", mode, (8, 16, 32), 0) for mode in sfk.MODES]
    + [("w1t+act24", sfk.SOFT_THRESHOLD, (8, 16, 32), 0), ("w1", sfk.GREEDY_MAGNITUDE, (3, 8, 12), 0),
       ("w1+act24", sfk.SOFT_THRESHOLD, (5, 8, 12), 0)]
    + [("venom", sfk.SOFT_THRESHOLD, (12, 16, 32), 0),  # 192 entries of x, in chunks of 10
       ("venom-top2", sfk.GREEDY_MAGNITUDE, (5, 6, 32), 0)]
)


def oracle_policy(tag, mode):
    if tag == "recipe":
        return sfk.default_sparse_policy()
    if tag == "venom-top2":
        return VENOM_TOP2
    if tag in sfk.ABLATIONS:
        return sfk.ablation_policy(tag, mode)
    parts = tag.split("+")
    return sfk.SparsityPolicy(act_mode="act24" if "act24" in parts else "dense", weight_mode=mode,
                              **{part + "_sparse": True for part in parts if part != "act24"})


@pytest.mark.parametrize("tag, mode, shape, seed", ORACLE_CASES,
                         ids=[f"{t}-{m}-{'x'.join(map(str, s))}-{seed}" for t, m, s, seed in ORACLE_CASES])
def test_gradcheck_is_the_per_entry_loop_bitwise(tag, mode, shape, seed):
    """The stacked finite differences give the one-entry-at-a-time
    loop's report exactly: both weight modes, venom under top-1 and
    top-2 routing (venom's x with a short last chunk), the recipe, combined masks (w1's own mask with w2's
    transposed one or the activation's, w1's transposed mask with the
    activation's) and odd shapes."""
    pol = oracle_policy(tag, mode)
    assert sfk.gradcheck(pol, shape, seed) == gradcheck_oracle(pol, shape, seed)
