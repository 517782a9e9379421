"""Command-line surface.

Nine subcommands tie the modules together: sparsify24, venom-encode,
check, spmm, gradcheck, roofline, schedule, train, bench.  Exit codes:
0 success, 2 input/format error (including a file that cannot be read
or written), 3 guard violation, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .codec import config_from_json, config_to_json
from .counters import count_multiplies
from .errors import GuardError, InputError, SfkError
from .ffn import ABLATIONS, SparsityPolicy, ablation_policy, gradcheck
from .matcore import MAGIC, gemm, load_matrix, rand_matrix, save_matrix
from .roofline import (
    conversion_overhead_model,
    end_to_end_speedup,
    ffn_fraction,
    load_configs,
    sweep_csv,
    total_flops,
)
from .schedule import DEFAULT_WARMUP, build_schedule, schedule_speedup
from .sparse24 import (
    GREEDY_MAGNITUDE,
    S24_MAGIC,
    SOFT_THRESHOLD,
    decode24,
    load_s24,
    mass_kept_fraction,
    save_s24,
    sparsify24,
    spmm24,
)
from .trainkit import ToyTask, run_training
from .venom import (
    VNM_MAGIC,
    N,
    VenomParams,
    load_venom,
    save_venom,
    venom_encode,
)

MAX_BENCH_FLOPS = 2**33

_MODE_OF_FLAG = {"soft": SOFT_THRESHOLD, "greedy": GREEDY_MAGNITUDE}


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"{what} wants {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{what} wants integers, got {text!r}") from exc


def _venom_params(text: str | None) -> VenomParams:
    """The --venom flag V,N,M (N must be 2); an absent flag means 64,2,16."""
    v, n, m = _parse_ints("64,2,16" if text is None else text, 3, "--venom")
    if n != N:
        raise InputError(f"--venom: N must be {N} (payload is 2:4 packed), got {n}")
    return VenomParams(v, m)


def _sniff_format(path: str) -> str:
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return "sfk1"
    if magic == S24_MAGIC:
        return "s24"
    if magic == VNM_MAGIC:
        return "venom"
    raise InputError(f"{path}: unrecognized magic {magic!r}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sparsify24(args) -> int:
    dense = load_matrix(args.infile)
    if args.transpose:
        dense = np.ascontiguousarray(dense.T)
    s = sparsify24(dense, _MODE_OF_FLAG[args.mode])
    save_s24(s, args.outfile)
    dec = decode24(s)
    nnz = float(np.count_nonzero(dec) / dec.size)
    changed = int(np.count_nonzero(dec != dense))
    print(f"wrote {args.outfile}: {s.rows}x{s.cols}, nnz fraction {nnz:.4f}")
    print(
        f"mask change: {changed} of {dense.size} entries altered, "
        f"kept mass fraction {mass_kept_fraction(dense, dec):.4f}"
    )
    return 0


def _cmd_venom_encode(args) -> int:
    a = load_matrix(args.infile)
    p = _venom_params(args.venom)
    vm = venom_encode(a, p)
    save_venom(vm, args.outfile)
    dec = decode24(vm)
    nnz = float(np.count_nonzero(dec) / dec.size)
    print(
        f"wrote {args.outfile}: {vm.rows}x{vm.cols} at {p.v}:{N}:{p.m}, "
        f"pattern sparsity {p.sparsity:.6f}, nnz fraction {nnz:.4f}"
    )
    return 0


def _cmd_check(args) -> int:
    kind = _sniff_format(args.infile)
    if kind == "sfk1":
        a = load_matrix(args.infile)
        print(f"{args.infile}: OK dense {a.shape[0]}x{a.shape[1]}")
    elif kind == "s24":
        s = load_s24(args.infile)
        print(f"{args.infile}: OK 2:4 {s.rows}x{s.cols}, {s.cols // 2} kept slots per row")
    else:
        vm = load_venom(args.infile)
        p = vm.params
        print(
            f"{args.infile}: OK venom {vm.rows}x{vm.cols} at {p.v}:{N}:{p.m}, "
            f"{vm.windows} column windows"
        )
    return 0


def _cmd_spmm(args) -> int:
    kind = _sniff_format(args.a)
    b = load_matrix(args.b)
    with count_multiplies() as counter:
        if kind == "sfk1":
            out = gemm(load_matrix(args.a), b)
        else:
            out = spmm24(load_s24(args.a) if kind == "s24" else load_venom(args.a), b)
    save_matrix(out, args.outfile)
    print(f"wrote {args.outfile}: {out.shape[0]}x{out.shape[1]}, {counter.total} multiplies")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.policy_json is not None:
        with open(args.policy_json) as fh:
            pol = config_from_json(SparsityPolicy, fh.read())
    else:
        pol = ablation_policy(args.policy)
    shape = _parse_ints(args.shape, 3, "--shape")
    report = gradcheck(pol, shape=shape, seed=args.seed)
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def _cmd_roofline(args) -> int:
    if args.out is not None and not args.sweep:
        raise InputError("--out writes the --sweep CSV; pass --sweep with it")
    if not args.overhead and (args.venom is not None or args.experts is not None):
        raise InputError("--venom and --experts apply to --overhead; pass --overhead with them")
    experts = 16 if args.experts is None else args.experts
    venom = _venom_params(args.venom)
    with open(args.config) as fh:
        configs = load_configs(fh.read())
    if args.sweep:
        csv = sweep_csv(configs)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv)
            print(f"wrote {args.out}: {len(configs)} rows")
        else:
            sys.stdout.write(csv)
        return 0
    lines = []  # every report is computed before any is printed, so an error prints none
    for c in configs:
        label = c.model or "config"
        lines.append(f"{label}: total_flops {total_flops(c)}")
        lines.append(f"{label}: ffn_fraction {ffn_fraction(c):.6f}")
        for s in (1.5, 7.0):
            lines.append(f"{label}: end_to_end_speedup at ffn_speedup {s:g}: {end_to_end_speedup(c, s):.6f}")
        if args.overhead:
            rep = conversion_overhead_model(c, venom, experts)
            for stepname in ("routing", "permutation", "sparsify_scan", "expert_matmul"):
                st = rep[stepname]
                lines.append(
                    f"{label}: {stepname}: {st['bytes']} bytes, {st['flops']} flops, "
                    f"{st['bound']}-bound"
                )
    print("\n".join(lines))
    return 0


def _cmd_schedule(args) -> int:
    sched = build_schedule(args.total, args.sparse, args.warmup)
    speedup = schedule_speedup(sched, args.per_iter_speedup)
    lo, hi = sched.sparse_range
    print(f"dense [0, {lo}), sparse [{lo}, {hi}), dense [{hi}, {sched.total_steps})")
    print(f"schedule_speedup at per-iteration speedup {args.per_iter_speedup:g}: {speedup:.6f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(config_to_json(sched))
        print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    dims = _parse_ints(args.dims, 3, "--dims")
    # a dense step's forward and backward: three products per weight
    step_mults = 3 * args.batch_size * dims[1] * (dims[0] + dims[2])
    if min(dims) > 0 and args.batch_size > 0 and step_mults > MAX_BENCH_FLOPS:
        raise GuardError(
            f"train dims {dims} at batch size {args.batch_size} take {step_mults} "
            f"multiplies per dense step, over {MAX_BENCH_FLOPS}"
        )
    task = ToyTask(
        input_dim=dims[0],
        hidden_dim=dims[1],
        output_dim=dims[2],
        batch_size=args.batch_size,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    sparse_policy = None
    if args.policy_json is not None:
        with open(args.policy_json) as fh:
            sparse_policy = config_from_json(SparsityPolicy, fh.read())
    sched = build_schedule(args.steps, args.sparse, args.warmup, sparse_policy=sparse_policy)
    report = run_training(task, sched, lr=args.lr, steps=args.steps)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}")
    print(report.summary_json())
    return 0


def _cmd_bench(args) -> int:
    m, n, k = _parse_ints(args.shape, 3, "--shape")
    if m < 1 or n < 1 or k < 1:
        raise InputError(f"bench shape must be positive, got {(m, n, k)}")
    if args.repeat < 1:
        raise InputError(f"--repeat must be at least 1, got {args.repeat}")
    if args.venom is not None and args.format != "venom":
        raise InputError("--venom applies to --format venom; pass --format venom with it")
    if m * n * k > MAX_BENCH_FLOPS and not args.force:
        raise GuardError(
            f"bench shape {(m, n, k)} exceeds {MAX_BENCH_FLOPS} multiplies; "
            f"pass --force to run anyway"
        )
    a = rand_matrix(m, k, seed=args.seed)
    b = rand_matrix(k, n, seed=args.seed + 1)

    if args.format == "dense":
        operand, kernel, theoretical = a, gemm, 1.0
    elif args.format == "s24":
        operand, kernel, theoretical = sparsify24(a, GREEDY_MAGNITUDE), spmm24, 2.0
    else:
        p = _venom_params(args.venom)
        operand, kernel, theoretical = venom_encode(a, p), spmm24, p.m / N

    with count_multiplies() as dense_counter:
        gemm(a, b)
    t0 = time.perf_counter()
    with count_multiplies() as counter:
        for _ in range(args.repeat):
            kernel(operand, b)
    wall = time.perf_counter() - t0
    per_call = counter.total // args.repeat
    ratio = dense_counter.total / per_call
    print(f"shape {m}x{n}x{k}, format {args.format}, repeat {args.repeat}")
    print(f"dense multiplies {dense_counter.total}, sparse multiplies {per_call} per call")
    print(f"multiply-count ratio {ratio:g} (theoretical ceiling {theoretical:g})")
    print(
        f"wall time {wall / args.repeat:.6f} s per call "
        f"(reference-only; not comparable to GPU sparse-kernel numbers)"
    )
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sfk", description="fully-sparse FFN training reference toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sparsify24", help="sparsify an SFK1 matrix to the packed 2:4 format")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--mode", choices=("soft", "greedy"), default="soft")
    p.add_argument("--transpose", action="store_true", help="sparsify the transposed matrix")
    p.set_defaults(func=_cmd_sparsify24)

    p = sub.add_parser("venom-encode", help="encode an SFK1 matrix in the V:N:M format")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--venom", help="V,N,M (default 64,2,16)")
    p.set_defaults(func=_cmd_venom_encode)

    p = sub.add_parser("check", help="validate a matrix file of any supported format")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("spmm", help="multiply a (dense, 2:4, or venom) matrix by a dense one")
    p.add_argument("--a", required=True, help="left operand (SFK1, S24F, or VNMF)")
    p.add_argument("--b", required=True, help="right operand (SFK1)")
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_spmm)

    p = sub.add_parser("gradcheck", help="finite-difference check of FFN gradients")
    p.add_argument("--policy", choices=ABLATIONS, default="dense")
    p.add_argument("--policy-json", default=None, help="full policy document (overrides --policy)")
    p.add_argument("--shape", default="8,16,32", help="B,d_model,d_ffn")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("roofline", help="FLOP fractions and theoretical speedups")
    p.add_argument("--config", required=True, help="model config JSON (object or list)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--sweep", action="store_true", help="emit the component-fraction CSV")
    mode.add_argument("--overhead", action="store_true", help="print the conversion overhead model")
    p.add_argument("--out", default=None, help="CSV output path for --sweep (stdout otherwise)")
    p.add_argument("--venom", help="V,N,M for --overhead (default 64,2,16)")
    p.add_argument("--experts", type=int, help="expert count for --overhead (default 16)")
    p.set_defaults(func=_cmd_roofline)

    p = sub.add_parser("schedule", help="plan sparse/dense phases and their speedup")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--sparse", type=int, required=True)
    p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    p.add_argument("--per-iter-speedup", type=float, default=2.2)
    p.add_argument("--out", default=None, help="write the schedule JSON here")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("train", help="run the toy teacher-student training harness")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--sparse", type=int, default=0, help="sparse step count")
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--dims", default="32,128,32", help="input,hidden,output")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy-json", default=None, help="sparse-phase policy document")
    p.add_argument("--csv", default=None, help="write the per-step CSV here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="multiply-count microbenchmark of the sparse kernels")
    p.add_argument("--shape", required=True, help="m,n,k")
    p.add_argument("--format", choices=("dense", "s24", "venom"), default="s24")
    p.add_argument("--venom", help="V,N,M when --format venom (default 64,2,16)")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true", help="bypass the desk-scale size guard")
    p.set_defaults(func=_cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except SfkError as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
