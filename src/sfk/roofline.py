"""FLOP accounting and theoretical end-to-end speedup arithmetic.

Counts follow the standard training estimate of 6 FLOPs per token per
parameter, with the transformer block parameter count split into the
FFN term 3DF and the attention-projection term 2D(N+K)H.  All counts
are exact integers.  The quadratic-in-T attention-score FLOPs are
excluded from that closed form and added only in the component sweep.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .errors import InputError
from .venom import VenomParams

BYTES_PER_REAL = 8  # real64 throughout the reference


@dataclass(frozen=True)
class RooflineConfig:
    """Transformer training shape: batch b, sequence t, model width d,
    depth l, FFN hidden width f, query heads n_q, key/value heads k_kv,
    head dim h.  b and l may be zero (degenerate but well-defined);
    everything else must be positive."""

    b: int
    t: int
    d: int
    l: int
    f: int
    n_q: int
    k_kv: int
    h: int
    name: str = ""

    def __post_init__(self):
        if self.b < 0 or self.l < 0:
            raise InputError("batch and depth must be non-negative")
        for field_name in ("t", "d", "f", "n_q", "k_kv", "h"):
            if getattr(self, field_name) < 1:
                raise InputError(f"{field_name} must be positive")
        if self.d != self.n_q * self.h:
            warnings.warn(
                f"heads do not tile the model dim: d={self.d} != n_q*h={self.n_q * self.h}",
                stacklevel=2,
            )

    @property
    def ffn_term(self) -> int:
        return 3 * self.d * self.f

    @property
    def attn_term(self) -> int:
        return 2 * self.d * (self.n_q + self.k_kv) * self.h


def param_count(c: RooflineConfig) -> int:
    """Block parameters counted by the 6*tokens*params estimate."""
    return (c.ffn_term + c.attn_term) * c.l


def total_flops(c: RooflineConfig) -> int:
    """6 * B * T * (3DF + 2D(N_q + K_kv)H) * L, exact."""
    return 6 * c.b * c.t * param_count(c)


def ffn_fraction(c: RooflineConfig) -> float:
    """3DF / (3DF + 2D(N_q+K_kv)H); independent of b, t, l."""
    return c.ffn_term / (c.ffn_term + c.attn_term)


def end_to_end_speedup(c: RooflineConfig, ffn_speedup: float) -> float:
    """Amdahl's law with the FFN fraction as the accelerated share."""
    if ffn_speedup < 1.0:
        raise InputError(f"ffn_speedup must be >= 1, got {ffn_speedup}")
    p = ffn_fraction(c)
    return 1.0 / ((1.0 - p) + p / ffn_speedup)


SWEEP_HEADER = "model,params,ffn_frac,attn_linear_frac,sdpa_frac"


def flop_fraction_sweep(configs: list[RooflineConfig]) -> list[dict]:
    """Per config: the share of training FLOPs in the FFN, the linear
    attention projections, and SDPA (score/value matmuls, modeled as
    12*B*T^2*D*L).  Fractions sum to 1 per row."""
    if not configs:
        raise InputError("sweep needs at least one config")
    rows = []
    for c in configs:
        ffn = 6 * c.b * c.t * c.ffn_term * c.l
        attn = 6 * c.b * c.t * c.attn_term * c.l
        sdpa = 12 * c.b * c.t * c.t * c.d * c.l
        total = ffn + attn + sdpa
        if total == 0:
            raise InputError(f"config {c.name or c} has zero total FLOPs (b or l is zero)")
        rows.append(
            {
                "model": c.name,
                "params": param_count(c),
                "ffn_frac": ffn / total,
                "attn_linear_frac": attn / total,
                "sdpa_frac": sdpa / total,
            }
        )
    return rows


def sweep_csv(configs: list[RooflineConfig]) -> str:
    lines = [SWEEP_HEADER]
    for r in flop_fraction_sweep(configs):
        lines.append(
            f"{r['model']},{r['params']},{r['ffn_frac']:.6f},"
            f"{r['attn_linear_frac']:.6f},{r['sdpa_frac']:.6f}"
        )
    return "\n".join(lines) + "\n"


def conversion_overhead_model(
    c: RooflineConfig,
    p: VenomParams,
    num_experts: int,
    machine_balance: float = 0.05,
) -> dict:
    """Byte-traffic and boundedness estimates for the steps that turn a
    dense activation into the routed V:N:M operand.

    rows = b*t tokens enter the FFN.  A step is compute-bound when its
    byte-per-FLOP ratio is at or below the machine balance (bytes of
    memory traffic the machine can serve per FLOP), memory-bound
    otherwise; zero-FLOP steps are always memory-bound.
    """
    if num_experts < 1:
        raise InputError(f"num_experts must be positive, got {num_experts}")
    if machine_balance <= 0:
        raise InputError(f"machine balance must be positive, got {machine_balance}")
    rows = c.b * c.t

    def step(bytes_moved: int, flops: int) -> dict:
        if flops == 0:
            bound = "memory"
        else:
            bound = "compute" if bytes_moved / flops <= machine_balance else "memory"
        return {"bytes": int(bytes_moved), "flops": int(flops), "bound": bound}

    # routing: read the [rows, D] input once; score matmul against E means
    routing = step(rows * c.d * BYTES_PER_REAL, rows * c.d * num_experts)
    # permutation: read + write the [rows, D] matrix, no arithmetic
    permutation = step(2 * rows * c.d * BYTES_PER_REAL, 0)
    # elementwise 2:4 scan of the [rows, F] activation: read + write, no multiplies
    scan = step(2 * rows * c.f * BYTES_PER_REAL, 0)
    # batched expert matmul: packed [rows, 4F/M] activation times [F, D] weight
    packed_cols = 4 * c.f // p.m
    matmul_bytes = (rows * packed_cols + c.f * c.d + rows * c.d) * BYTES_PER_REAL
    matmul_flops = rows * c.d * c.f * p.n // p.m
    matmul = step(matmul_bytes, matmul_flops)

    return {
        "rows": rows,
        "machine_balance": machine_balance,
        "routing": routing,
        "permutation": permutation,
        "sparsify_scan": scan,
        "expert_matmul": matmul,
    }


def _int_field(doc: dict, key: str, default: int | None = None) -> int:
    if key not in doc:
        if default is None:
            raise InputError(f"model config is missing field {key!r}")
        return default
    v = doc[key]
    if type(v) is not int:  # a JSON integer: no floats, strings or booleans
        raise InputError(f"model config field {key!r} must be an integer, got {v!r}")
    return v


def config_from_dict(doc: dict) -> RooflineConfig:
    """Build a config from the JSON field names (num_layers, d_model,
    d_ffn, num_heads, batch_size, seq_len, optional num_kv_heads,
    head_dim, model); head_dim defaults to d_model / num_heads.  Every
    number must be a JSON integer; anything else raises InputError."""
    d = _int_field(doc, "d_model")
    f = _int_field(doc, "d_ffn")
    l = _int_field(doc, "num_layers")
    n_q = _int_field(doc, "num_heads")
    b = _int_field(doc, "batch_size")
    t = _int_field(doc, "seq_len")
    if n_q < 1:
        raise InputError(f"num_heads must be positive, got {n_q}")
    k_kv = _int_field(doc, "num_kv_heads", n_q)
    if d % n_q and "head_dim" not in doc:
        raise InputError(f"d_model {d} is not divisible by num_heads {n_q}; give head_dim")
    h = _int_field(doc, "head_dim", d // n_q)
    name = doc.get("model", "")
    if not isinstance(name, str):
        raise InputError(f"model config field 'model' must be a string, got {name!r}")
    return RooflineConfig(b=b, t=t, d=d, l=l, f=f, n_q=n_q, k_kv=k_kv, h=h, name=name)


def load_configs(text: str) -> list[RooflineConfig]:
    """Parse one JSON object or a JSON list of them into configs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"model config JSON does not parse: {exc}") from exc
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not all(isinstance(d, dict) for d in doc):
        raise InputError("model config JSON must be an object or a list of objects")
    return [config_from_dict(d) for d in doc]
