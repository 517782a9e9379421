"""Record the seed-0 reference series that the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each training workload, one block's
loss series per policy and task; for gradcheck, the (rel_dx, rel_dw1,
rel_dw2) of the first GRADCHECK_SEEDS seeds of every ablation.  Run it only on a
commit whose outputs are known good: the benchmark fails any seed-0 op
that deviates from these values by more than 1e-10 relative.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sfk  # noqa: E402
import workloads  # noqa: E402

GRADCHECK_SEEDS = 12


def main() -> None:
    seed = workloads.DEFAULT_SEED
    ref = {}
    for name, spec in workloads.TRAIN.items():
        tasks = workloads.make_tasks(spec, seed)
        ref[name] = {
            p: [workloads.run_block(task, pol, spec["steps"])[0] for task in tasks]
            for p, pol in workloads.POLICIES.items()
        }
    ref["gradcheck"] = {}
    for tag in sfk.ABLATIONS:
        pol = sfk.ablation_policy(tag)
        reps = [
            sfk.gradcheck(pol, shape=workloads.GRAD_SHAPE, seed=workloads.grad_seed(seed, j))
            for j in range(GRADCHECK_SEEDS)
        ]
        ref["gradcheck"][tag] = [[r.rel_dx, r.rel_dw1, r.rel_dw2] for r in reps]
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
