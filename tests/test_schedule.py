"""Sparse/dense phase schedules and their speedup arithmetic."""

import pytest

import sfk
from sfk import InputError


def test_phases_partition_the_run():
    s = sfk.build_schedule(total=10, sparse=4, warmup=3)
    assert s.dense_steps == 6
    assert s.sparse_range == (3, 7)
    assert s.sparse_fraction == 0.4
    flags = [s.is_sparse_step(i) for i in range(10)]
    assert flags == [False] * 3 + [True] * 4 + [False] * 3
    for i in range(10):
        pol = s.per_step_policy(i)
        assert (pol == s.sparse_policy) == s.is_sparse_step(i)
        assert (pol == sfk.DENSE_POLICY) == (not s.is_sparse_step(i))
    with pytest.raises(InputError):
        s.per_step_policy(10)
    with pytest.raises(InputError):
        s.per_step_policy(-1)


def test_default_warmup_and_policy():
    s = sfk.build_schedule(total=5000, sparse=1000)
    assert s.venom_warmup == 1000
    assert s.sparse_range == (1000, 2000)
    pol = s.sparse_policy
    assert pol == sfk.default_sparse_policy()
    assert pol.act_mode == "venom" and pol.w1_sparse and pol.w2t_sparse
    assert (pol.venom.v, pol.venom.n, pol.venom.m) == (8, 2, 16)
    assert s.per_step_policy(0) == sfk.DENSE_POLICY


def test_schedule_validation():
    with pytest.raises(InputError):
        sfk.build_schedule(total=10, sparse=8, warmup=4)
    with pytest.raises(InputError):
        sfk.build_schedule(total=0, sparse=0)
    s = sfk.build_schedule(total=1000, sparse=500, warmup=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            sfk.schedule_speedup(s, bad)


def test_schedule_speedup_exact_values():
    s = sfk.build_schedule(total=1000, sparse=500, warmup=0)
    assert sfk.schedule_speedup(s, 2.2) == 1.375  # 1 / (0.5 + 0.5/2.2), exactly
    assert sfk.schedule_speedup(s, 1.0) == 1.0
    dense_only = sfk.build_schedule(total=1000, sparse=0, warmup=0)
    assert sfk.schedule_speedup(dense_only, 3.0) == 1.0
    all_sparse = sfk.build_schedule(total=1000, sparse=1000, warmup=0)
    assert sfk.schedule_speedup(all_sparse, 2.0) == 2.0
    with pytest.raises(InputError):
        sfk.schedule_speedup(s, 0.5)


def test_schedule_speedup_monotone_in_sparse_fraction():
    prev = 1.0
    for sparse in (0, 250, 500, 750, 1000):
        s = sfk.build_schedule(total=1000, sparse=sparse, warmup=0)
        cur = sfk.schedule_speedup(s, 2.2)
        assert cur >= prev
        prev = cur


def test_schedule_json_roundtrip():
    s = sfk.build_schedule(total=5000, sparse=2000, warmup=500)
    back = sfk.config_from_json(sfk.TrainSchedule, sfk.config_to_json(s))
    assert back == s
    assert back.sparse_policy == s.sparse_policy
    custom = sfk.build_schedule(
        total=10, sparse=10, warmup=0, sparse_policy=sfk.ablation_policy("w1")
    )
    assert sfk.config_from_json(sfk.TrainSchedule, sfk.config_to_json(custom)) == custom
