"""Command-line interface: each subcommand, exit codes, and file plumbing."""

import importlib
import json
import shlex
import sys
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

import sfk
from sfk import FormatError
from sfk.cli import build_parser, main


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sfk.save_matrix(sfk.rand_matrix(8, 16, seed=1), "a.sfk")
    sfk.save_matrix(sfk.rand_matrix(16, 4, seed=2), "b.sfk")
    return tmp_path


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def test_console_script_is_declared():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    target = project.get("scripts", {}).get("sfk")
    assert target == "sfk.cli:main"
    module, _, attr = target.partition(":")
    func = getattr(importlib.import_module(module), attr, None)
    assert func is main and callable(func)
    # An installed sfk (e.g. `pip install -e .`) must carry the same entry point;
    # run from source (PYTHONPATH=src) there is no distribution metadata to check.
    try:
        dist = distribution("sfk")
    except PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = [ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts" and ep.name == "sfk"]
        assert installed == ["sfk.cli:main"]


def _readme_commands() -> list[str]:
    """The `sfk ...` lines of README's fenced blocks."""
    fenced, lines = False, []
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("sfk "):
            lines.append(line)
    return lines


def test_readme_commands_parse():
    """Every `sfk ...` line in README's fenced blocks is accepted by the parser
    (nothing is run)."""
    lines = _readme_commands()
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_roofline_commands_run(tmp_path, monkeypatch, capsys):
    """Every README `sfk roofline` line whose config ships in the repo exits 0.
    It runs in a scratch directory, so an --out file does not land in the repo."""
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in _readme_commands():
        argv = shlex.split(line, comments=True)[1:]
        if argv[0] != "roofline":
            continue
        at = argv.index("--config") + 1
        config = README.parent / argv[at]
        if not config.is_file():
            continue
        argv[at] = str(config)
        assert main(argv) == 0, f"{line}\n{capsys.readouterr().err}"
        ran += 1
    assert ran >= 4


def test_sparsify24_check_spmm_pipeline(workdir, capsys):
    assert main(["sparsify24", "--in", "a.sfk", "--out", "a.s24", "--mode", "soft"]) == 0
    assert main(["check", "--in", "a.s24"]) == 0
    assert main(["spmm", "--a", "a.s24", "--b", "b.sfk", "--out", "c.sfk"]) == 0
    out = capsys.readouterr().out
    assert "OK 2:4" in out and "multiplies" in out
    want = sfk.spmm24(sfk.load_s24("a.s24"), sfk.load_matrix("b.sfk"))
    assert np.array_equal(sfk.load_matrix("c.sfk"), want)
    lib = sfk.sparsify24(sfk.load_matrix("a.sfk"), sfk.SOFT_THRESHOLD)
    assert np.array_equal(sfk.decode24(sfk.load_s24("a.s24")), sfk.decode24(lib))


def test_sparsify24_transpose_flag(workdir):
    assert main(["sparsify24", "--in", "a.sfk", "--out", "at.s24", "--mode", "greedy",
                 "--transpose"]) == 0
    st = sfk.load_s24("at.s24")
    assert (st.rows, st.cols) == (16, 8)
    lib = sfk.sparsify24(np.ascontiguousarray(sfk.load_matrix("a.sfk").T), sfk.GREEDY_MAGNITUDE)
    assert np.array_equal(sfk.decode24(st), sfk.decode24(lib))


def test_venom_encode_check_spmm(workdir, capsys):
    assert main(["venom-encode", "--in", "a.sfk", "--out", "a.vnm", "--venom", "4,2,8"]) == 0
    assert main(["check", "--in", "a.vnm"]) == 0
    assert main(["spmm", "--a", "a.vnm", "--b", "b.sfk", "--out", "c.sfk"]) == 0
    out = capsys.readouterr().out
    assert "pattern sparsity 0.750000" in out
    assert "OK venom" in out
    vm = sfk.load_venom("a.vnm")
    assert np.array_equal(sfk.load_matrix("c.sfk"), sfk.spmm24(vm, sfk.load_matrix("b.sfk")))


def test_check_reports_dense_and_rejects_junk(workdir, capsys):
    assert main(["check", "--in", "a.sfk"]) == 0
    assert "OK dense 8x16" in capsys.readouterr().out
    (workdir / "junk.bin").write_bytes(b"ZZZZ====")
    assert main(["check", "--in", "junk.bin"]) == 2
    assert main(["check", "--in", "missing.bin"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sparsify24", "--in", "missing.sfk", "--out", "x.s24"],
        ["venom-encode", "--in", "missing.sfk", "--out", "x.vnm", "--venom", "4,2,8"],
        ["spmm", "--a", "missing.sfk", "--b", "b.sfk", "--out", "c.sfk"],
        ["gradcheck", "--policy-json", "missing.json"],
        ["train", "--steps", "4", "--policy-json", "missing.json"],
        ["roofline", "--config", "missing.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_file_exits_2(workdir, capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing." in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["a.sfk", "a.s24", "a.vnm"])
def test_readers_reject_trailing_bytes(workdir, path):
    a = sfk.load_matrix("a.sfk")
    sfk.save_s24(sfk.sparsify24(a), "a.s24")
    sfk.save_venom(sfk.venom_encode(a, sfk.VenomParams(4, 2, 8)), "a.vnm")
    load = {"a.sfk": sfk.load_matrix, "a.s24": sfk.load_s24, "a.vnm": sfk.load_venom}[path]
    load(path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(FormatError):
        load(path)
    assert main(["check", "--in", path]) == 2


def test_spmm_dense_fallback_counts_full_multiplies(workdir, capsys):
    assert main(["spmm", "--a", "a.sfk", "--b", "b.sfk", "--out", "c.sfk"]) == 0
    out = capsys.readouterr().out
    assert f"{8 * 16 * 4} multiplies" in out
    assert np.array_equal(
        sfk.load_matrix("c.sfk"), sfk.gemm(sfk.load_matrix("a.sfk"), sfk.load_matrix("b.sfk"))
    )


def test_gradcheck_command_json_and_guard(workdir, capsys):
    assert main(["gradcheck", "--policy", "w1", "--shape", "4,8,8", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["policy"] == "w1" and doc["max_rel"] < 1e-4
    assert main(["gradcheck", "--policy", "dense", "--shape", "4,8,100"]) == 3


def test_gradcheck_policy_json_flag(workdir, capsys):
    (workdir / "pol.json").write_text(sfk.config_to_json(sfk.ablation_policy("act24")))
    assert main(["gradcheck", "--policy-json", "pol.json", "--shape", "4,8,8"]) == 0
    assert json.loads(capsys.readouterr().out)["policy"] == "act24"


@pytest.mark.parametrize("doc", [
    '{"w1_sparse": "false"}',
    '{"keep_all": false}',
    '{"act_mode": "venom", "venom": {"v": 4, "n": 2, "m": 8}}',  # venom without a router
])
def test_policy_json_flag_rejects_bad_documents(workdir, capsys, doc):
    (workdir / "pol.json").write_text(doc)
    assert main(["gradcheck", "--policy-json", "pol.json", "--shape", "4,8,8"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture
def config_file(workdir):
    doc = [{"model": "1b", "num_layers": 22, "d_model": 2048, "d_ffn": 8192,
            "num_heads": 16, "batch_size": 2, "seq_len": 8192}]
    (workdir / "configs.json").write_text(json.dumps(doc))
    return "configs.json"


def test_roofline_report(config_file, capsys):
    assert main(["roofline", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "total_flops 145135534866432" in out
    assert "ffn_fraction 0.750000" in out
    assert "2.800000" in out


def test_roofline_sweep_and_overhead(config_file, capsys):
    assert main(["roofline", "--config", config_file, "--sweep"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "model,params,ffn_frac,attn_linear_frac,sdpa_frac"
    assert main(["roofline", "--config", config_file, "--overhead",
                 "--venom", "64,2,16", "--experts", "16"]) == 0
    out = capsys.readouterr().out
    assert "routing: 268435456 bytes" in out and "memory-bound" in out
    assert "expert_matmul" in out and "compute-bound" in out


def test_roofline_rejects_flags_it_would_ignore(config_file, workdir, capsys):
    # --sweep --overhead used to print only the CSV; argparse now rejects the pair
    with pytest.raises(SystemExit) as exc:
        main(["roofline", "--config", config_file, "--sweep", "--overhead"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # --out without --sweep used to write nothing and exit 0
    assert main(["roofline", "--config", config_file, "--out", "fractions.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (workdir / "fractions.csv").exists()
    # --venom/--experts without --overhead, and --venom without --format venom,
    # used to be ignored (the invalid V:N:M was never even parsed) and exit 0
    for argv in (["roofline", "--config", config_file, "--venom", "1,2,3", "--experts", "0"],
                 ["roofline", "--config", config_file, "--experts", "16"],
                 ["bench", "--shape", "8,8,8", "--format", "s24", "--venom", "9,9,9"],
                 ["bench", "--shape", "8,8,8", "--format", "dense", "--venom", "4,2,8"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("edit", [
    {"num_heads": 0, "head_dim": 128},  # used to divide by zero
    {"d_model": "abc"},  # used to raise ValueError from int()
    {"d_model": 64.9},  # used to truncate to 64
    {"num_layers": True},  # used to read as 1
    {"num_kv_head": 1},  # a typo: used to run with num_kv_heads = num_heads and exit 0
    {"num_heads": 0},  # without head_dim: rejected before d_model % num_heads
], ids=["zero-heads", "string", "float", "bool", "unknown-key", "zero-heads-no-head-dim"])
def test_roofline_config_rejects_non_integers(config_file, workdir, capsys, edit):
    doc = json.loads((workdir / config_file).read_text())
    doc[0].update(edit)
    (workdir / config_file).write_text(json.dumps(doc))
    assert main(["roofline", "--config", config_file]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_roofline_rejects_an_empty_config_list(workdir, capsys):
    (workdir / "configs.json").write_text("[]")  # used to print nothing and exit 0
    assert main(["roofline", "--config", "configs.json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_schedule_command(workdir, capsys):
    assert main(["schedule", "--total", "1000", "--sparse", "500", "--warmup", "0",
                 "--per-iter-speedup", "2.2", "--out", "sched.json"]) == 0
    out = capsys.readouterr().out
    assert "dense [0, 0), sparse [0, 500), dense [500, 1000)" in out
    assert "1.375000" in out
    back = sfk.config_from_json(sfk.TrainSchedule, (workdir / "sched.json").read_text())
    assert back.total_steps == 1000 and back.sparse_range == (0, 500)
    assert main(["schedule", "--total", "1000", "--sparse", "500",
                 "--per-iter-speedup", "nan"]) == 2  # used to print nan and exit 0


def test_train_command_writes_csv_and_summary(workdir, capsys):
    assert main(["train", "--steps", "12", "--sparse", "4", "--warmup", "4", "--lr", "0.05",
                 "--dims", "8,16,8", "--batch-size", "8", "--seed", "0", "--csv", "run.csv"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["steps"] == 12
    lines = (workdir / "run.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss,act_zero_frac,policy_tag"
    assert len(lines) == 13
    # the CLI run reproduces the library run exactly
    task = sfk.ToyTask(input_dim=8, hidden_dim=16, output_dim=8, batch_size=8, seed=0)
    sched = sfk.build_schedule(total=12, sparse=4, warmup=4)
    rep = sfk.run_training(task, sched, lr=0.05, steps=12)
    assert doc["final_loss"] == rep.final_loss


def test_train_rejects_bad_dims(workdir):
    assert main(["train", "--steps", "4", "--lr", "0.05", "--dims", "6,16,8"]) == 2


@pytest.mark.parametrize("argv", [
    ["train", "--steps", "4", "--seed", "-1"],
    ["bench", "--shape", "8,8,8", "--seed", "-1"],
    # gradcheck draws from seed + 3/7/13: -1 used to run and exit 0, and
    # -5 used to name the offset seed (-2)
    pytest.param(["gradcheck", "--policy", "dense", "--seed", "-1"], id="gradcheck-1"),
    pytest.param(["gradcheck", "--policy", "dense", "--seed", "-5"], id="gradcheck-5"),
], ids=lambda argv: argv[0])
def test_negative_seed_exits_2(workdir, capsys, argv):
    # train and bench used to end in a ValueError traceback from PCG64 and exit 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"seed must be non-negative, got {argv[-1]}" in err


def test_bench_reports_ceiling_ratios(workdir, capsys):
    assert main(["bench", "--shape", "32,64,16", "--format", "s24"]) == 0
    out = capsys.readouterr().out
    assert "multiply-count ratio 2 (theoretical ceiling 2)" in out
    assert "not comparable to GPU" in out
    assert main(["bench", "--shape", "32,64,16", "--format", "venom", "--venom", "4,2,8"]) == 0
    out = capsys.readouterr().out
    assert "multiply-count ratio 4 (theoretical ceiling 4)" in out


def test_bench_guards_oversized_problems(workdir, capsys):
    assert main(["bench", "--shape", "4096,4096,1024", "--format", "s24"]) == 3
    assert "guard:" in capsys.readouterr().err
    for repeat in ("0", "-2"):  # used to divide by zero
        assert main(["bench", "--shape", "32,64,16", "--repeat", repeat]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
