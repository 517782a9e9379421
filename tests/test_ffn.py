"""FFN forward/backward: policy plumbing, operand placement, gradient checks."""

import sys

import numpy as np
import pytest

import sfk
from sfk import GuardError, InputError, ShapeError


def small_problem(seed=0, d_model=8, d_ffn=16, d_out=8, tokens=8):
    x = sfk.rand_matrix(tokens, d_model, seed=seed)
    p = sfk.init_ffn_params(d_model, d_ffn, d_out, seed=seed + 1)
    return x, p


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
        sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 2, 8))  # router required
    with pytest.raises(InputError):
        sfk.SparsityPolicy(act_mode="dense", venom=sfk.VenomParams(4, 2, 8))
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
    assert np.array_equal(tape.act_mask, sfk.kept_mask(s))
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
    assert tape.act_mask.shape == (layout.rows, 32)
    mask = sfk.kept_mask(vm) & sfk.routed_feature_mask(plan, bank, layout)
    assert np.array_equal(tape.act_mask, mask)


def test_venom_requires_bank():
    x, p = small_problem()
    with pytest.raises(InputError):
        sfk.ffn_forward(x, p, sfk.ablation_policy("venom"))


@pytest.mark.parametrize("tag", ["act24", "venom"])
def test_frozen_tape_reproduces_forward_bitwise(tag):
    x, p = small_problem(d_ffn=32)
    pol = sfk.ablation_policy(tag)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if tag == "venom" else None
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    y3f, tape_f = sfk.ffn_forward(x, p, pol, bank=bank, frozen=tape)
    assert np.array_equal(y3, y3f)
    assert np.array_equal(tape_f.act_mask, tape.act_mask)
    assert np.array_equal(sfk.decode24(tape_f.y2), sfk.decode24(tape.y2))


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
}


@pytest.mark.parametrize("tag", sfk.ABLATIONS)
def test_packed_operand_placement(tag):
    """Each policy keeps the sparse operand packed exactly where it claims to.

    In the activation-sparse modes all four products that touch the activation
    (or its gradient) carry the packed activation operand, matching the
    compute-saving placement the counters measure.
    """
    x, p = small_problem(d_ffn=32)
    pol = sfk.ablation_policy(tag)
    bank = sfk.cluster_columns(p.w1, pol.router, seed=3) if pol.router else None
    y3, tape = sfk.ffn_forward(x, p, pol, bank=bank)
    sfk.ffn_backward(np.ones_like(y3), tape, p, pol)
    assert tape.matmul_log == EXPECTED_LOGS[tag]


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
    top2 = sfk.SparsityPolicy(act_mode="venom", venom=sfk.VenomParams(4, 2, 8),
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
