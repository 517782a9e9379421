"""Toy teacher-student training loop: determinism, schedules, divergence."""

import json
import warnings

import numpy as np
import pytest

import sfk
from sfk import DivergenceError, InputError


def small_task(seed=0, **kw):
    kw.setdefault("input_dim", 8)
    kw.setdefault("hidden_dim", 16)
    kw.setdefault("output_dim", 8)
    kw.setdefault("batch_size", 8)
    return sfk.ToyTask(seed=seed, **kw)


def test_task_validation():
    with pytest.raises(InputError):
        sfk.ToyTask(input_dim=30)
    with pytest.raises(InputError):
        small_task(batch_size=0)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            small_task(noise_std=bad)


def test_batches_are_reproducible_and_step_dependent():
    task = small_task()
    x1, t1 = task.batch(3)
    x2, t2 = task.batch(3)
    x3, _ = task.batch(4)
    assert np.array_equal(x1, x2) and np.array_equal(t1, t2)
    assert not np.array_equal(x1, x3)
    # targets are the dense teacher's outputs
    want, _ = sfk.ffn_forward(x1, task.teacher, sfk.DENSE_POLICY)
    assert np.array_equal(t1, want)
    noisy = small_task(noise_std=0.5)
    _, tn = noisy.batch(3)
    assert not np.array_equal(tn, t1)


def test_fixed_batch_mode_repeats_step_zero():
    task = small_task(fixed_batch=True)
    x0, t0 = task.batch(0)
    with sfk.count_multiplies() as c:
        x9, t9 = task.batch(9)
    assert np.array_equal(x0, x9) and np.array_equal(t0, t9)
    # built once: later calls run no teacher forward and hand back the same arrays
    assert c.total == 0
    assert x9 is x0 and t9 is t0
    for a in (x9, t9):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    free = small_task()
    assert not np.array_equal(free.batch(0)[0], free.batch(9)[0])
    assert not np.array_equal(free.batch(0)[1], free.batch(9)[1])


def test_teacher_is_seed_deterministic():
    a, b, c = small_task(seed=5), small_task(seed=5), small_task(seed=6)
    assert np.array_equal(a.teacher.w1, b.teacher.w1)
    assert not np.array_equal(a.teacher.w1, c.teacher.w1)


def test_run_training_is_deterministic_and_tagged():
    task = small_task()
    sched = sfk.build_schedule(total=20, sparse=5, warmup=5, sparse_policy=sfk.ablation_policy("w1"))
    r1 = sfk.run_training(task, sched, lr=0.05, steps=20)
    r2 = sfk.run_training(task, sched, lr=0.05, steps=20)
    assert r1.losses == r2.losses
    assert r1.policy_tags == ["dense"] * 5 + ["w1"] * 5 + ["dense"] * 10
    assert len(r1.act_zero_frac) == 20
    assert 0.2 < np.mean(r1.act_zero_frac) < 0.8  # squared ReLU zeroes about half


def test_dense_training_reduces_loss():
    task = small_task()
    rep = sfk.run_training(task, sfk.build_schedule(300, 0, 0), lr=0.05, steps=300)
    assert rep.final_loss < 0.6 * rep.losses[0]


def test_venom_phase_trains_and_uses_bank():
    task = small_task(hidden_dim=32)
    pol = sfk.SparsityPolicy(
        act_mode="venom",
        venom=sfk.VenomParams(4, 8),
        router=sfk.RouterConfig(num_experts=2, top_k=1, align_m=8),
    )
    sched = sfk.build_schedule(total=30, sparse=20, warmup=5, sparse_policy=pol)
    rep = sfk.run_training(task, sched, lr=0.02, steps=30)
    assert rep.steps == 30
    assert rep.policy_tags[5] == pol.tag
    assert np.isfinite(rep.losses).all()


def test_run_training_validation():
    task = small_task()
    sched = sfk.build_schedule(20, 0, 0)
    with pytest.raises(InputError):
        sfk.run_training(task, sched, lr=0.05, steps=10)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            sfk.run_training(task, sched, lr=bad, steps=20)
    venom_sched = sfk.build_schedule(10, 10, 0)  # default policy wants M=16
    with pytest.raises(InputError):
        sfk.run_training(small_task(hidden_dim=12), venom_sched, lr=0.05, steps=10)


def test_divergence_raises_with_step_and_no_warnings():
    """Dense, act24 and the recipe all end in DivergenceError: the pack
    checks never see the non-finite activations first."""
    act24 = sfk.SparsityPolicy(act_mode="act24")
    for sparse_steps, pol in ((0, None), (50, act24), (50, sfk.default_sparse_policy())):
        task = small_task()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as exc:
                sched = sfk.build_schedule(50, sparse_steps, 0, sparse_policy=pol)
                sfk.run_training(task, sched, lr=1e4, steps=50)
        assert 0 <= exc.value.step < 50


def test_report_final_loss_and_jumps():
    rep = sfk.TrainReport(losses=[5.0, 1.0, 2.0, 1.5], act_zero_frac=[0.5] * 4,
                          policy_tags=["dense"] * 4, schedule=None, lr=0.1)
    assert rep.final_loss == pytest.approx(np.mean([5.0, 1.0, 2.0, 1.5]))
    assert sfk.max_loss_jump(rep) == 4.0
    assert sfk.loss_jump_quantile(rep, 1.0) == 4.0
    assert sfk.loss_jump_quantile(rep, 0.0) == 0.5
    for bad in (1.5, -0.1, float("nan")):
        with pytest.raises(InputError):
            sfk.loss_jump_quantile(rep, bad)
    assert rep.act_zero_frac == [0.5] * 4
    long = sfk.TrainReport(losses=[9.0] * 50 + [1.0] * 100, act_zero_frac=[0.5] * 150,
                           policy_tags=["dense"] * 150, schedule=None, lr=0.1)
    assert long.final_loss == 1.0  # only the last 100 steps count


def test_report_csv_and_summary():
    task = small_task()
    sched = sfk.build_schedule(total=5, sparse=2, warmup=1, sparse_policy=sfk.ablation_policy("w1"))
    rep = sfk.run_training(task, sched, lr=0.05, steps=5)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "step,loss,act_zero_frac,policy_tag"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "dense"
    assert float(first[1]) == rep.losses[0]  # repr roundtrips the float exactly
    doc = json.loads(rep.summary_json())
    assert doc["steps"] == 5
    assert doc["lr"] == 0.05
    assert doc["final_loss"] == rep.final_loss
    assert doc["schedule"]["total_steps"] == 5
