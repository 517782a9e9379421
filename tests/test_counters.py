"""Multiply accounting: dense counts, sparse-kernel ratios, nesting, threads."""

import threading

import numpy as np

import sfk
from sfk.counters import count_multiplies, tally
from sfk.venom import N


def test_gemm_counts_mkn():
    # one chunk; three chunks (k = 37 is not a multiple of c = 16); rank-1 updates
    for m, k, n in [(6, 8, 5), (32, 37, 128), (130, 3, 130)]:
        a = sfk.rand_matrix(m, k, seed=0)
        b = sfk.rand_matrix(k, n, seed=1)
        with count_multiplies() as c:
            sfk.gemm(a, b)
        assert c.total == m * k * n
        assert c.per_op == {"gemm": m * k * n}
        assert type(c.per_op["gemm"]) is int


def test_spmm24_counts_exactly_half():
    rows, cols, n = 16, 32, 8
    s = sfk.sparsify24(sfk.rand_matrix(rows, cols, seed=2))
    b = sfk.rand_matrix(cols, n, seed=3)
    with count_multiplies() as dense_c:
        sfk.gemm(sfk.decode24(s), b)
    with count_multiplies() as sparse_c:
        sfk.spmm24(s, b)
    assert dense_c.total == 2 * sparse_c.total
    assert sparse_c.per_op == {"spmm24": rows * (cols // 2) * n}


def test_venom_counts_exactly_n_over_m():
    p = sfk.VenomParams(4, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(16, 32, seed=4), p)
    b = sfk.rand_matrix(32, 8, seed=5)
    with count_multiplies() as dense_c:
        sfk.gemm(sfk.decode24(vm), b)
    with count_multiplies() as sparse_c:
        sfk.spmm24(vm, b)
    assert dense_c.total * N == sparse_c.total * p.m


def test_transposed_kernels_count_exactly():
    rows, cols, m, n = 12, 32, 5, 7
    s = sfk.sparsify24(sfk.rand_matrix(rows, cols, seed=9))
    with count_multiplies() as c:
        sfk.spmm24_rhs(sfk.rand_matrix(m, rows, seed=10), s)
        sfk.spmm24_tn(s, sfk.rand_matrix(rows, n, seed=11))
    assert c.per_op == {"spmm24_rhs": m * rows * (cols // 2), "spmm24_tn": rows * (cols // 2) * n}

    p = sfk.VenomParams(4, 16)
    vm = sfk.venom_encode(sfk.rand_matrix(16, 64, seed=12), p)
    with count_multiplies() as c:
        sfk.spmm24_tn(vm, sfk.rand_matrix(16, n, seed=13))
    assert c.per_op == {"spmm24_tn": 16 * 64 * N // p.m * n}
    # plain ints, so a ledger of them serializes to JSON
    assert type(c.total) is int and type(c.per_op["spmm24_tn"]) is int


def test_counters_nest_and_label():
    with count_multiplies() as outer:
        tally(3, "x")
        with count_multiplies() as inner:
            tally(4, "y")
        tally(5, "x")
    assert inner.total == 4 and inner.per_op == {"y": 4}
    assert outer.total == 12 and outer.per_op == {"x": 8, "y": 4}


def test_empty_inner_counter_leaves_outer_active():
    with count_multiplies() as outer:
        with count_multiplies() as inner:
            pass
        tally(5, "x")
    assert inner.total == 0 and outer.total == 5


def test_counter_ignores_work_in_other_threads():
    a = sfk.rand_matrix(64, 64, seed=8)
    worker_counts = []

    def work():
        with count_multiplies() as own:
            sfk.gemm(a, a)
        worker_counts.append(own.total)

    with count_multiplies() as c:
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=60)
        sfk.gemm(a[:6, :8], a[:8, :5])
    assert not t.is_alive()
    assert worker_counts == [64 * 64 * 64]
    assert c.total == 6 * 8 * 5 and c.per_op == {"gemm": 6 * 8 * 5}


def test_no_counter_active_is_free():
    tally(100, "ignored")  # must not raise or leak anywhere
    with count_multiplies() as c:
        pass
    assert c.total == 0 and c.per_op == {}


def test_custom_labels_flow_through_kernels():
    s = sfk.sparsify24(sfk.rand_matrix(4, 8, seed=6))
    b = sfk.rand_matrix(8, 2, seed=7)
    vm = sfk.venom_encode(sfk.rand_matrix(4, 8, seed=8), sfk.VenomParams(4, 8))
    with count_multiplies() as c:
        sfk.spmm24(s, b, label="fwd_y1")
        sfk.spmm24_rhs(b[:4].T, s, label="fwd_y3")
        sfk.spmm24_tn(s, b[:4], label="bwd_dw2")
        sfk.spmm24_tn(vm, b[:4], label="bwd_dw1")
    assert c.per_op == {"fwd_y1": 4 * 4 * 2, "fwd_y3": 2 * 4 * 4, "bwd_dw2": 4 * 4 * 2, "bwd_dw1": 4 * 2 * 2}
