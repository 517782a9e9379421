"""Training-FLOP arithmetic, fraction sweeps, and the conversion-cost model."""

import json
import warnings
from pathlib import Path

import pytest

import sfk
from sfk import InputError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

LLAMA_1B = dict(
    batch_size=2, seq_len=8192, d_model=2048, num_layers=22, d_ffn=8192,
    num_heads=16, num_kv_heads=16, head_dim=128, model="1b",
)
LLAMA_7B = dict(
    batch_size=2, seq_len=8192, d_model=4096, num_layers=32, d_ffn=16384,
    num_heads=32, num_kv_heads=32, head_dim=128, model="7b",
)


def test_total_flops_tiny_hand_computed():
    # per layer: 3*4*8=96 FFN mults + 2*4*(1+1)*4=64 attention-linear mults,
    # times 6*B*T = 12 -> 1920; param count is the per-layer sum itself
    c = sfk.RooflineConfig(
        batch_size=1, seq_len=2, d_model=4, num_layers=1,
        d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
    )
    assert sfk.total_flops(c) == 1920
    assert sfk.param_count(c) == 160
    assert sfk.total_flops(c) == 6 * c.batch_size * c.seq_len * sfk.param_count(c)


def test_ffn_fraction_is_three_quarters_for_both_reference_models():
    for cfg in (LLAMA_1B, LLAMA_7B):
        assert sfk.ffn_fraction(sfk.RooflineConfig(**cfg)) == 0.75


def test_reference_model_totals():
    assert sfk.total_flops(sfk.RooflineConfig(**LLAMA_1B)) == 145135534866432
    assert sfk.param_count(sfk.RooflineConfig(**LLAMA_1B)) == 1476395008
    assert sfk.total_flops(sfk.RooflineConfig(**LLAMA_7B)) == 844424930131968
    assert sfk.param_count(sfk.RooflineConfig(**LLAMA_7B)) == 8589934592


def test_end_to_end_speedup_amdahl():
    c = sfk.RooflineConfig(**LLAMA_1B)
    assert sfk.end_to_end_speedup(c, 1.5) == 1 / (0.25 + 0.75 / 1.5)
    assert sfk.end_to_end_speedup(c, 7.0) == 2.8
    assert sfk.end_to_end_speedup(c, 1.0) == 1.0
    with pytest.raises(InputError):
        sfk.end_to_end_speedup(c, 0.9)
    with pytest.raises(InputError):
        sfk.end_to_end_speedup(c, float("nan"))


def test_flop_fraction_sweep_rows():
    tiny = sfk.RooflineConfig(
        batch_size=1, seq_len=2, d_model=4, num_layers=1,
        d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
    )
    big = sfk.RooflineConfig(**LLAMA_1B)
    rows = sfk.flop_fraction_sweep([tiny, big])
    for row in rows:
        assert abs(row["ffn_frac"] + row["attn_linear_frac"] + row["sdpa_frac"] - 1.0) < 1e-12
    # tiny: ffn 96, attn-linear 64, sdpa 2*T*D=16 per 6BT -> 96/176... include sdpa:
    assert rows[0]["ffn_frac"] == pytest.approx(96 / (96 + 64 + 16))
    assert rows[0]["sdpa_frac"] == pytest.approx(16 / (96 + 64 + 16))
    assert rows[1]["params"] == 1476395008


def test_sweep_csv_format():
    big = sfk.RooflineConfig(**LLAMA_1B)
    text = sfk.sweep_csv([big])
    lines = text.strip().splitlines()
    assert lines[0] == "model,params,ffn_frac,attn_linear_frac,sdpa_frac"
    cells = lines[1].split(",")
    assert cells[0] == "1b" and cells[1] == "1476395008"
    for frac in cells[2:]:
        assert len(frac.split(".")[1]) == 6  # six fixed decimals


def test_config_validation_and_warning():
    with pytest.raises(InputError):
        sfk.RooflineConfig(
            batch_size=1, seq_len=0, d_model=4, num_layers=1,
            d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
        )
    with pytest.raises(InputError):
        sfk.RooflineConfig(
            batch_size=-1, seq_len=1, d_model=4, num_layers=1,
            d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
        )
    # zero batch/layers is allowed (degenerate but well-defined totals)
    degenerate = sfk.RooflineConfig(
        batch_size=0, seq_len=1, d_model=4, num_layers=1,
        d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
    )
    assert sfk.total_flops(degenerate) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sfk.RooflineConfig(
            batch_size=1, seq_len=1, d_model=8, num_layers=1,
            d_ffn=8, num_heads=1, num_kv_heads=1, head_dim=4,
        )
    assert any("head" in str(w.message) for w in caught)


def test_config_from_dict_and_load_configs():
    doc = {
        "model": "1b",
        "num_layers": 22,
        "d_model": 2048,
        "d_ffn": 8192,
        "num_heads": 16,
        "batch_size": 2,
        "seq_len": 8192,
    }
    (c,) = sfk.load_configs(json.dumps(doc))
    assert (c.num_layers, c.d_model, c.d_ffn, c.num_heads, c.num_kv_heads, c.head_dim) == (
        22, 2048, 8192, 16, 16, 128)
    assert c.model == "1b"
    doc2 = dict(doc, num_kv_heads=4, head_dim=128)
    (c2,) = sfk.load_configs(json.dumps(doc2))
    assert (c2.num_kv_heads, c2.head_dim) == (4, 128)
    configs = sfk.load_configs(json.dumps([doc, doc2]))
    assert len(configs) == 2 and configs[0].model == "1b"
    with pytest.raises(InputError):
        sfk.load_configs(json.dumps({"model": "x"}))


@pytest.mark.parametrize("edit, key", [
    ({"num_kv_head": 1}, "num_kv_head"),  # a typo used to run with num_kv_heads = num_heads
    ({"num_heads": 0}, "num_heads"),  # checked before d_model % num_heads
    ({"d_model": 2050}, "head_dim"),  # not divisible, and no head_dim given
], ids=["unknown-key", "zero-heads", "indivisible"])
def test_load_configs_rejects_and_names_the_key(edit, key):
    doc = dict(num_layers=22, d_model=2048, d_ffn=8192, num_heads=16, batch_size=2, seq_len=8192)
    with pytest.raises(InputError, match=key):
        sfk.load_configs(json.dumps([dict(doc, **edit)]))


@pytest.mark.parametrize("text", ["[]", " [ ] ", "[{}, 3]", "3", "null", "[", "{"])
def test_load_configs_rejects_non_config_documents(text):
    with pytest.raises(InputError):
        sfk.load_configs(text)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    (c,) = sfk.load_configs(path.read_text())
    assert c.model == path.stem.replace("_", "-")
    assert c.num_kv_heads == c.num_heads and c.d_model == c.num_heads * c.head_dim
    assert sfk.ffn_fraction(c) == 0.75


def test_conversion_overhead_model():
    c = sfk.RooflineConfig(**LLAMA_1B)
    p = sfk.VenomParams(64, 16)
    ov = sfk.conversion_overhead_model(c, p, num_experts=16)
    assert ov["rows"] == c.batch_size * c.seq_len
    assert set(ov) >= {"rows", "machine_balance", "routing", "permutation", "sparsify_scan", "expert_matmul"}
    # routing reads every token embedding once: rows * d * 8 bytes
    assert ov["routing"]["bytes"] == c.batch_size * c.seq_len * c.d_model * 8
    assert ov["routing"]["flops"] == c.batch_size * c.seq_len * c.d_model * 16
    # pure data movement never counts as compute-bound
    assert ov["permutation"]["flops"] == 0 and ov["permutation"]["bound"] == "memory"
    assert ov["sparsify_scan"]["bound"] == "memory"
    assert ov["expert_matmul"]["bound"] == "compute"
    # with a single token per row budget the routing traffic is b*d*8 exactly
    tiny = sfk.RooflineConfig(
        batch_size=4, seq_len=1, d_model=2048, num_layers=1,
        d_ffn=8192, num_heads=16, num_kv_heads=16, head_dim=128,
    )
    ov2 = sfk.conversion_overhead_model(tiny, p, num_experts=16)
    assert ov2["routing"]["bytes"] == 4 * 2048 * 8
    # a generous machine balance flips borderline stages to compute-bound
    ov3 = sfk.conversion_overhead_model(c, p, num_experts=16, machine_balance=1.0)
    assert ov3["routing"]["bound"] == "compute"
    assert ov3["permutation"]["bound"] == "memory"  # zero flops stays memory-bound
