"""Golden digests: every deterministic output, pinned bit for bit.

The run-against-run determinism tests only compare two runs in one
process, so a change that moves every result by one ulp passes them.
This test compares SHA-256 digests of fixed, seeded outputs against
``tests/golden.json``:

* the loss and act_zero_frac series of 16 short ``run_training`` runs
  (the seven gradcheck ablations plus the full recipe, each under both
  weight modes; dense warm-up, sparse phase, dense tail);
* the 14 ``gradcheck`` reports (seven ablations x two weight modes);
* each packed kernel's output on fixed seeded operands.

The digests hold for the Python and numpy versions recorded in the
file; a numpy upgrade that changes the PCG64 stream or elementwise
arithmetic fails this test, on purpose.  Rewrite the file only for an
arithmetic change made on purpose, and name every digest that moved:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import functools
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import sfk

GOLDEN = Path(__file__).with_name("golden.json")


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def _policy(tag: str, mode: str) -> sfk.SparsityPolicy:
    if tag == "recipe":
        return dataclasses.replace(sfk.default_sparse_policy(), weight_mode=mode)
    return sfk.ablation_policy(tag, mode)


def _train(tag: str, mode: str) -> dict:
    task = sfk.ToyTask(input_dim=32, hidden_dim=128, output_dim=32, batch_size=32, seed=3)
    sched = sfk.build_schedule(total=8, sparse=5, warmup=2, sparse_policy=_policy(tag, mode))
    rep = sfk.run_training(task, sched, lr=0.05, steps=8)
    return {
        "losses": _digest(rep.losses),
        "act_zero_frac": _digest(rep.act_zero_frac),
    }


def _gradcheck(tag: str, mode: str) -> dict:
    rep = sfk.gradcheck(sfk.ablation_policy(tag, mode), shape=(8, 16, 32), seed=0)
    blob = json.dumps(rep.to_dict(), sort_keys=True).encode()
    return {"report": hashlib.sha256(blob).hexdigest()}


def _kernels() -> dict:
    out = {}
    for i, (rows, cols, n) in enumerate(((1, 8, 3), (12, 16, 5), (33, 48, 7))):
        a = sfk.rand_matrix(rows, cols, seed=100 + i)
        for mode in sfk.MODES:
            s = sfk.sparsify24(a, mode)
            shape = f"{rows}x{cols}x{n}.{mode}"
            out[f"spmm24.{shape}"] = _digest(sfk.spmm24(s, sfk.rand_matrix(cols, n, seed=200 + i)))
            out[f"spmm24_rhs.{shape}"] = _digest(sfk.spmm24_rhs(sfk.rand_matrix(n, rows, seed=300 + i), s))
            out[f"spmm24_tn.{shape}"] = _digest(sfk.spmm24_tn(s, sfk.rand_matrix(rows, n, seed=400 + i)))
    for m in (8, 16, 32, 64):
        vm = sfk.venom_encode(sfk.rand_matrix(8, 2 * m, seed=500 + m), sfk.VenomParams(4, m))
        out[f"venom_spmm.M{m}"] = _digest(sfk.spmm24(vm, sfk.rand_matrix(2 * m, 5, seed=600 + m)))
        out[f"venom_spmm_tn.M{m}"] = _digest(sfk.spmm24_tn(vm, sfk.rand_matrix(8, 5, seed=700 + m)))
    return out


TRAIN_TAGS = sfk.ABLATIONS + ("recipe",)
GROUPS = {  # name -> zero-argument function returning {key: digest}
    **{f"train.{t}.{m}": functools.partial(_train, t, m) for t in TRAIN_TAGS for m in sfk.MODES},
    **{f"gradcheck.{t}.{m}": functools.partial(_gradcheck, t, m) for t in sfk.ABLATIONS for m in sfk.MODES},
    "kernels": _kernels,
}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_match_golden_digests(group):
    golden = _load()
    want, got = golden["digests"][group], GROUPS[group]()
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, (
        f"digests differ from tests/golden.json: {moved}; "
        f"recorded with {golden['versions']}, running {_versions()}"
    )


def test_golden_file_covers_every_group():
    assert sorted(_load()["digests"]) == sorted(GROUPS)


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    doc = {"versions": _versions(), "digests": {g: GROUPS[g]() for g in sorted(GROUPS)}}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {sum(map(len, doc['digests'].values()))} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
