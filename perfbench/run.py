"""sfk-bench: per-policy step time on a conversion-bound, a kernel-bound and a
gradcheck workload, with a traced per-layer ledger.

Run from the root of a source checkout (sfk is imported from ``src/``):

    python3 perfbench/run.py --workload toy_train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is a JSON report with the ungated figures (tail percentiles,
the wall ratio, the host probe and the environment).  ``--workload all``
runs every workload in turn, each in its own process.

Timings are gated relative to the host: a policy's mean step time (a
training step, or a gradcheck call) over the run is divided by the mean
time of a frozen pure-numpy FFN step sampled between the ops of the same
run (hostprobe.py).  On a shared host the same code alternates between a
fast and a slow state, for tens of seconds at a time and in sub-second
flickers, which moves raw step times by up to half; the ratio repeats.
Raw medians and tail percentiles in ms are printed beside the metrics and
in the report line.

``setup_s`` is the import of sfk plus the median of three set-ups, each
rescaled by the host probe timed right around it to the probe's nominal
speed (HostProbe.nominal_ms), so it reads in seconds at that host speed;
the wall-clock set-up time is ``setup_wall_s`` in the report line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("toy_train", "wide_train", "gradcheck")
UNITS = {"step_rel": "ratio", "sweep_rel": "ratio", "counted_ratio": "ratio", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "ratio"}


def _tail(samples_ms: list) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples_ms)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return {"p": p, "value_ms": float(sorted(samples_ms)[int(n * p / 100.0)]), "n": n}
    return None


def _environment(sfk_threads) -> dict:
    import numpy  # only after sfk, whose timed import includes numpy's

    return {
        "SFK_THREADS": sfk_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_one(args, import_s: float, sfk_threads) -> int:
    import workloads  # imports sfk, so only after main() has timed that import

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    if args.workload == "gradcheck":
        res = workloads.gradcheck(args.seed, args.seconds, args.trace, reference)
    else:
        res = workloads.train(args.workload, args.seed, args.seconds, args.trace, reference)
    run = res["run"]

    # wall time of every timed step (a training step or a gradcheck call)
    timings_ms = {k: [ns / 1e6 for ns in v] for k, v in run.ns.items()}
    if not all(timings_ms.values()):
        run.failures.append("a policy has no successful timed op")
        timings_ms = {k: v or [float("nan")] for k, v in timings_ms.items()}
    median_ms = {k: statistics.median(v) for k, v in timings_ms.items()}
    probe = run.probe
    probe_ms = statistics.fmean(probe.samples_ms)
    rel = {k: statistics.fmean(v) / probe_ms for k, v in timings_ms.items()}
    of = res["policy_of"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": _environment(sfk_threads),
        "step_ms": {p: median_ms[k] for p, k in of.items()},
        "tails": {p: _tail(timings_ms[k]) for p, k in of.items()},
        "sweep_s": sum(median_ms.values()) / 1e3,
        "wall_ratio.recipe": median_ms[of["recipe"]] / median_ms[of["dense"]],
        "host.calib_ms": probe_ms,
        "setup_wall_s": import_s + statistics.median(s for s, _ in res["setup"]),
        "counted_multiplies": res["counted"],
        "failures": run.failures[:20],
    }
    if not args.trace:
        metrics = {
            **{f"step_rel.{p}": rel[k] for p, k in of.items()},
            "sweep_rel": sum(rel.values()),
            "counted_ratio.recipe": res["counted"]["dense"] / res["counted"]["recipe"],
            "setup_s": probe.at_nominal(import_s, res["setup"][0][1])
            + statistics.median(probe.at_nominal(s, ms) for s, ms in res["setup"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (run.attempted - run.failed) / max(run.attempted, 1),
        }
        units = {k: UNITS[k.split(".")[0]] for k in metrics}
    else:
        metrics = res["per_layer"]
        report["split"] = res["split"]
        units = {k: _layer_unit(k) for k in metrics}
    for k, v in metrics.items():
        print(f"{args.workload:<10} {k:<42} {v:>16.6f} {units[k]}")
    for p, ms in report["step_ms"].items():
        tail = report["tails"][p]
        tail = f"p{tail['p']:g} {tail['value_ms']:.3f} ms" if tail else "no tail"
        print(f"{args.workload:<10} {'step_ms.' + p:<42} {ms:>16.6f} ms (median; {tail}; n={len(timings_ms[of[p]])})")
    counted = res["counted"]["dense"] / res["counted"]["recipe"]
    print(f"{args.workload:<10} {'wall_ratio.recipe':<42} {report['wall_ratio.recipe']:>16.6f} "
          f"(counted_ratio.recipe {counted:.6f})")
    print(f"{args.workload:<10} {'host.calib_ms':<42} {report['host.calib_ms']:>16.6f} ms")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not run.failures and run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith((".calls", ".mults")) or name.startswith("ffn.mults."):
        return "count"
    return "ratio"


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)

    # single-threaded: sfk's row sharding off, no BLAS thread pools
    sfk_threads = os.environ.pop("SFK_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import sfk
    except ImportError as exc:
        print(f"error: cannot import sfk from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(sfk.__file__))) != src:
        print(f"error: sfk was imported from {sfk.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run_one(args, import_s, sfk_threads)


if __name__ == "__main__":
    sys.exit(main())
