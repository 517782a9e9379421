"""Acceptance suite: eight checks, each printing one PASS/FAIL line.

Every criterion states its tolerance inline and runs against an
independent oracle (naive or decode-then-multiply) rather than the
implementation under test.  Runtime budgets are asserted too, since the
checks are meant to stay desk-runnable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import sfk
from sfk.counters import count_multiplies
from sfk.sparse24 import s24_from_bytes, s24_to_bytes

TABLE_VNM = [(64, 2, 16), (64, 2, 32), (64, 2, 64)]


@contextmanager
def criterion(capsys, num, desc):
    ok = False
    started = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} [{elapsed:.1f}s]")


def test_criterion_1_format_correctness(capsys):
    with criterion(capsys, 1, "2:4 and V:N:M formats: group constraint, exact "
                               "roundtrips, kernel oracles within 1e-10"):
        t0 = time.perf_counter()
        for seed in range(1000):
            for mode in sfk.MODES:
                a = sfk.rand_matrix(8, 16, seed=2 * seed + (mode == sfk.SOFT_THRESHOLD))
                s = sfk.sparsify24(a, mode)
                d = sfk.decode24(s)
                assert (np.count_nonzero(d.reshape(8, -1, 4), axis=2) <= 2).all()
                back = s24_from_bytes(s24_to_bytes(s))
                assert np.array_equal(sfk.decode24(back), d)
                assert np.array_equal(
                    sfk.decode24(sfk.sparsify24(d, sfk.GREEDY_MAGNITUDE)), d
                )
            b = sfk.rand_matrix(16, 4, seed=seed + 7)
            assert np.abs(sfk.spmm24(s, b) - sfk.gemm(d, b)).max() <= 1e-10

            p = sfk.VenomParams(4, 2, 8)
            vm = sfk.venom_encode(a, p)
            dv = sfk.decode24(vm)
            assert sfk.venom_check(dv, p)
            assert np.abs(sfk.spmm24(vm, b) - sfk.gemm(dv, b)).max() <= 1e-10
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_soft_threshold_continuity(capsys):
    with criterion(capsys, 2, "soft-threshold output moves at most 2*eps under "
                               "eps-perturbations; hard masking jumps > 0.5"):
        rng = np.random.Generator(np.random.PCG64(0))
        n = 120_000
        a = rng.normal(size=(n, 4))
        eps = rng.uniform(1e-8, 1e-6, size=(n, 1))
        hot = np.eye(4)[rng.integers(0, 4, size=n)]
        delta = np.abs(sfk.soft_threshold(a + eps * hot) - sfk.soft_threshold(a))
        assert (delta.max(axis=1, keepdims=True) <= 2 * eps).all()

        lo = np.array([[5.0, 1.0 - 1e-9, 1.0, 0.1]])
        hi = np.array([[5.0, 1.0 + 1e-9, 1.0, 0.1]])
        hard_jump = np.abs(
            sfk.decode24(sfk.sparsify24(hi, sfk.GREEDY_MAGNITUDE))
            - sfk.decode24(sfk.sparsify24(lo, sfk.GREEDY_MAGNITUDE))
        ).max()
        soft_jump = np.abs(sfk.soft_threshold(hi) - sfk.soft_threshold(lo)).max()
        assert hard_jump > 0.5
        assert soft_jump <= 2e-9


def test_criterion_3_venom_sparsity_values(capsys):
    with criterion(capsys, 3, "V:N:M sparsity levels 0.875 / 0.9375 / 0.96875, "
                               "zero tolerance"):
        expected = {16: 0.875, 32: 0.9375, 64: 0.96875}
        for v, n, m in TABLE_VNM:
            assert sfk.VenomParams(v, n, m).sparsity == expected[m]


def test_criterion_4_router_validity(capsys):
    with criterion(capsys, 4, "500 routed encodes per V:N:M parameter set pass the "
                               "format check; permutations are bijections; grouped "
                               "matmul matches mask-then-gemm within 1e-10"):
        t0 = time.perf_counter()
        d_model, tokens = 8, 16
        for v, n, m in TABLE_VNM:
            p = sfk.VenomParams(v, n, m)
            experts = m // 4
            cfg = sfk.RouterConfig(num_experts=experts, top_k=1, align_m=m)
            d_ffn = 2 * m
            for i in range(500):
                seed = 10_000 * m + 3 * i
                w1 = sfk.rand_matrix(d_model, d_ffn, seed=seed)
                bank = sfk.cluster_columns(w1, cfg, seed=seed + 1)
                x = sfk.rand_matrix(tokens, d_model, seed=seed + 2)
                plan = sfk.route_tokens(x, bank, top_k=1)

                assert np.array_equal(np.sort(plan.permutation), np.arange(tokens))
                xp = sfk.apply_permutation(x, plan)
                assert np.array_equal(sfk.invert_permutation(xp, plan), x)

                y2 = sfk.squared_relu(sfk.gemm(xp, w1))
                vm = sfk.moe_to_venom(y2, plan, bank, p)
                assert sfk.venom_check(sfk.decode24(vm), p)

                out = sfk.batched_expert_matmul(xp, plan, w1, bank)
                full = sfk.gemm(xp, w1)
                oracle = np.zeros_like(full)
                for r in range(tokens):
                    tok = plan.permutation[r]
                    for e in plan.assignments[tok]:
                        cs = bank.column_sets[e]
                        oracle[r, cs] = full[r, cs]
                assert np.abs(out - oracle).max() <= 1e-10
        assert time.perf_counter() - t0 < 120.0


def test_criterion_5_gradient_checks(capsys):
    with criterion(capsys, 5, "finite-difference gradients: dense within 1e-5, "
                               "each single-sparsification policy within 1e-4, "
                               "20 seeds each"):
        t0 = time.perf_counter()
        for tag in sfk.ABLATIONS:
            pol = sfk.ablation_policy(tag)
            tol = 1e-5 if tag == "dense" else 1e-4
            for seed in range(20):
                rep = sfk.gradcheck(pol, shape=(8, 16, 32), seed=seed)
                assert rep.max_rel <= tol, (tag, seed, rep.max_rel)
        assert time.perf_counter() - t0 < 300.0


def test_criterion_6_roofline_arithmetic(capsys):
    with criterion(capsys, 6, "FFN FLOP fraction 0.75 exactly for both reference "
                               "configs; Amdahl 4/3 exactly; schedule speedup 1.375 "
                               "exactly and within 0.03 / 10% of reported figures"):
        one_b = sfk.RooflineConfig(
            batch_size=2, seq_len=8192, d_model=2048, num_layers=22,
            d_ffn=8192, num_heads=16, num_kv_heads=16, head_dim=128,
        )
        seven_b = sfk.RooflineConfig(
            batch_size=2, seq_len=8192, d_model=4096, num_layers=32,
            d_ffn=16384, num_heads=32, num_kv_heads=32, head_dim=128,
        )
        assert sfk.ffn_fraction(one_b) == 0.75
        assert sfk.ffn_fraction(seven_b) == 0.75
        assert sfk.end_to_end_speedup(one_b, 1.5) == 4 / 3

        half_sparse = sfk.build_schedule(total=1000, sparse=500, warmup=0)
        sp = sfk.schedule_speedup(half_sparse, 2.2)
        assert sp == 1.375
        assert abs(sp - 1.37) <= 0.03
        assert abs(sp - 1.352) <= 0.03

        amdahl7 = sfk.end_to_end_speedup(one_b, 7.0)
        assert amdahl7 == 2.8
        assert abs(amdahl7 - 2.6) / 2.6 <= 0.10
        # the published 405B-scale 4.2x and 7B 1.387x figures are reported-only:
        # they need measured GPU step times, which a CPU reference cannot supply


def test_criterion_7_flop_count_ceilings(capsys):
    with criterion(capsys, 7, "multiply-count ratios: 2.0 for 2:4 and M/N in "
                               "{8, 16, 32} for V:N:M, exactly"):
        rows, n_rhs = 64, 8
        s = sfk.sparsify24(sfk.rand_matrix(rows, 32, seed=0))
        b = sfk.rand_matrix(32, n_rhs, seed=1)
        with count_multiplies() as dense_c:
            sfk.gemm(sfk.decode24(s), b)
        with count_multiplies() as sparse_c:
            sfk.spmm24(s, b)
        assert dense_c.total / sparse_c.total == 2.0

        for v, n, m in TABLE_VNM:
            p = sfk.VenomParams(v, n, m)
            cols = 2 * m
            vm = sfk.venom_encode(sfk.rand_matrix(rows, cols, seed=m), p)
            bb = sfk.rand_matrix(cols, n_rhs, seed=m + 1)
            with count_multiplies() as dc:
                sfk.gemm(sfk.decode24(vm), bb)
            with count_multiplies() as sc:
                sfk.spmm24(vm, bb)
            assert dc.total / sc.total == m / n  # 8, 16, 32


def test_criterion_8_toy_training(capsys):
    with criterion(capsys, 8, "3 seeds at dims 32/128/32, 5000 steps: sparse-then-"
                               "dense final loss <= all-sparse; soft-threshold runs "
                               "have smaller 95th-percentile loss jumps than "
                               "hard-mask runs"):
        t0 = time.perf_counter()
        dims = dict(input_dim=32, hidden_dim=128, output_dim=32, batch_size=32)
        lr, steps = 0.05, 5000
        for seed in (0, 1, 2):
            task = sfk.ToyTask(seed=seed, **dims)
            recovery = sfk.run_training(
                task, sfk.build_schedule(steps, 3000, warmup=0), lr=lr, steps=steps
            )
            all_sparse = sfk.run_training(
                task, sfk.build_schedule(steps, steps, warmup=0), lr=lr, steps=steps
            )
            assert recovery.final_loss <= all_sparse.final_loss, (
                seed, recovery.final_loss, all_sparse.final_loss
            )

            # full-batch descent isolates mask-change jumps from batch noise
            fixed = sfk.ToyTask(seed=seed, fixed_batch=True, **dims)
            q95 = {}
            for mode in (sfk.SOFT_THRESHOLD, sfk.GREEDY_MAGNITUDE):
                pol = sfk.SparsityPolicy(w1_sparse=True, weight_mode=mode)
                rep = sfk.run_training(
                    fixed,
                    sfk.build_schedule(steps, steps, warmup=0, sparse_policy=pol),
                    lr=lr,
                    steps=steps,
                )
                q95[mode] = sfk.loss_jump_quantile(rep, 0.95)
            assert q95[sfk.SOFT_THRESHOLD] < q95[sfk.GREEDY_MAGNITUDE], (seed, q95)
        assert time.perf_counter() - t0 < 600.0
