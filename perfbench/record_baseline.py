"""Record the baseline figures of the current commit.

    python3 perfbench/record_baseline.py

Runs every workload at seed 0, untraced and traced, and writes
perfbench/baseline.json: why each workload was chosen, the end-to-end
metrics, the ungated report (raw step times, wall and counted ratios,
host probe) and the traced per-layer figures with each policy's split of
its step time by layer group.  Later changes compare against these.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WHY = {
    "toy_train": (
        "ToyTask 32/128/32, batch 32, fixed batch: acceptance 8's full-batch mode and Tier-1's "
        "largest cost. Conversion- and overhead-bound: sparsify/threshold/decode, router glue and "
        "the teacher forward that ToyTask.batch re-runs every step are a large share of each step, "
        "so conversion or batch caching should move it."
    ),
    "wide_train": (
        "96/384/96, batch 192, a fresh batch each step. Kernel-bound: spmm24_rhs, venom_spmm_tn and "
        "gemm dominate the recipe step and spmm24_tn (np.add.at) dominates act24. Kernel and "
        "routed-product changes move it; caching conversions or batches should barely move it."
    ),
    "gradcheck": (
        "sfk.gradcheck over the 7 ablations at shape (8,16,32), cycling seeds: acceptance 5. The same "
        "ffn/sparse24/venom layers used forward-only, thousands of tiny forwards per sweep, with the "
        "weights edited in place between calls, so an identity-keyed weight cache would serve stale packs."
    ),
}


def _run(workload: str, trace: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} trace={trace} is not correct: {lines[-2]}")
    return json.loads(lines[-2])["report"], {k: v["value"] for k, v in result["metrics"].items()}


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {}
    for workload, why in WHY.items():
        report, end_to_end = _run(workload, 0, seconds)
        traced_report, per_layer = _run(workload, 1, seconds)
        baseline[workload] = {
            "why": why,
            "end_to_end": end_to_end,
            "report": report,
            "split": traced_report["split"],
            "per_layer": per_layer,
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
