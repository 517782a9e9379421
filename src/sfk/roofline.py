"""FLOP accounting and theoretical end-to-end speedup arithmetic.

Counts follow the standard training estimate of 6 FLOPs per token per
parameter, with the transformer block parameter count split into the
FFN term 3DF and the attention-projection term 2D(N+K)H.  All counts
are exact integers.  The quadratic-in-T attention-score FLOPs are
excluded from that closed form and added only in the component sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .codec import config_from_json
from .errors import InputError
from .venom import N, VenomParams

BYTES_PER_REAL = 8  # real64 throughout the reference


@dataclass(frozen=True)
class RooflineConfig:
    """Transformer training shape, with the model config JSON's field names:
    batch_size sequences of seq_len tokens through num_layers blocks of
    width d_model, FFN hidden width d_ffn, num_heads query heads and
    num_kv_heads key/value heads of width head_dim.  num_kv_heads
    defaults to num_heads and head_dim to d_model / num_heads.
    batch_size and num_layers may be zero (degenerate but well-defined);
    everything else must be positive."""

    num_layers: int
    d_model: int
    d_ffn: int
    num_heads: int
    batch_size: int
    seq_len: int
    num_kv_heads: int | None = None
    head_dim: int | None = None
    model: str = ""

    def __post_init__(self):
        if self.num_heads < 1:
            raise InputError(f"num_heads must be positive, got {self.num_heads}")
        if self.num_kv_heads is None:
            object.__setattr__(self, "num_kv_heads", self.num_heads)
        if self.head_dim is None:
            if self.d_model % self.num_heads:
                raise InputError(
                    f"d_model {self.d_model} is not divisible by num_heads {self.num_heads}; "
                    f"give head_dim"
                )
            object.__setattr__(self, "head_dim", self.d_model // self.num_heads)
        if self.batch_size < 0 or self.num_layers < 0:
            raise InputError("batch_size and num_layers must be non-negative")
        for field_name in ("seq_len", "d_model", "d_ffn", "num_kv_heads", "head_dim"):
            if getattr(self, field_name) < 1:
                raise InputError(f"{field_name} must be positive")
        if self.d_model != self.num_heads * self.head_dim:
            warnings.warn(
                f"heads do not tile the model dim: d_model={self.d_model} != "
                f"num_heads*head_dim={self.num_heads * self.head_dim}",
                stacklevel=2,
            )

    @property
    def ffn_term(self) -> int:
        return 3 * self.d_model * self.d_ffn

    @property
    def attn_term(self) -> int:
        return 2 * self.d_model * (self.num_heads + self.num_kv_heads) * self.head_dim


def param_count(c: RooflineConfig) -> int:
    """Block parameters counted by the 6*tokens*params estimate."""
    return (c.ffn_term + c.attn_term) * c.num_layers


def total_flops(c: RooflineConfig) -> int:
    """6 * B * T * (3DF + 2D(N_q + K_kv)H) * L, exact."""
    return 6 * c.batch_size * c.seq_len * param_count(c)


def ffn_fraction(c: RooflineConfig) -> float:
    """3DF / (3DF + 2D(N_q+K_kv)H); independent of batch, sequence and depth."""
    return c.ffn_term / (c.ffn_term + c.attn_term)


def end_to_end_speedup(c: RooflineConfig, ffn_speedup: float) -> float:
    """Amdahl's law with the FFN fraction as the accelerated share."""
    if not ffn_speedup >= 1.0:  # also rejects nan; inf gives the 1 / (1 - p) ceiling
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
        tokens = c.batch_size * c.seq_len
        ffn = 6 * tokens * c.ffn_term * c.num_layers
        attn = 6 * tokens * c.attn_term * c.num_layers
        sdpa = 12 * tokens * c.seq_len * c.d_model * c.num_layers
        total = ffn + attn + sdpa
        if total == 0:
            raise InputError(
                f"config {c.model or c} has zero total FLOPs (batch_size or num_layers is zero)"
            )
        rows.append(
            {
                "model": c.model,
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

    rows = batch_size*seq_len tokens enter the FFN.  A step is compute-bound when its
    byte-per-FLOP ratio is at or below the machine balance (bytes of
    memory traffic the machine can serve per FLOP), memory-bound
    otherwise; zero-FLOP steps are always memory-bound.
    """
    if num_experts < 1:
        raise InputError(f"num_experts must be positive, got {num_experts}")
    if machine_balance <= 0:
        raise InputError(f"machine balance must be positive, got {machine_balance}")
    rows = c.batch_size * c.seq_len

    def step(bytes_moved: int, flops: int) -> dict:
        if flops == 0:
            bound = "memory"
        else:
            bound = "compute" if bytes_moved / flops <= machine_balance else "memory"
        return {"bytes": int(bytes_moved), "flops": int(flops), "bound": bound}

    # routing: read the [rows, D] input once; score matmul against E means
    routing = step(rows * c.d_model * BYTES_PER_REAL, rows * c.d_model * num_experts)
    # permutation: read + write the [rows, D] matrix, no arithmetic
    permutation = step(2 * rows * c.d_model * BYTES_PER_REAL, 0)
    # elementwise 2:4 scan of the [rows, F] activation: read + write, no multiplies
    scan = step(2 * rows * c.d_ffn * BYTES_PER_REAL, 0)
    # batched expert matmul: packed [rows, 4F/M] activation times [F, D] weight
    packed_cols = 4 * c.d_ffn // p.m
    matmul_bytes = (rows * packed_cols + c.d_ffn * c.d_model + rows * c.d_model) * BYTES_PER_REAL
    matmul_flops = rows * c.d_model * c.d_ffn * N // p.m
    matmul = step(matmul_bytes, matmul_flops)

    return {
        "rows": rows,
        "machine_balance": machine_balance,
        "routing": routing,
        "permutation": permutation,
        "sparsify_scan": scan,
        "expert_matmul": matmul,
    }


def load_configs(text: str) -> list[RooflineConfig]:
    """Decode one JSON object, or a non-empty JSON list of them, into configs."""
    if not text.lstrip(" \t\n\r").startswith("["):
        return [config_from_json(RooflineConfig, text)]
    configs = config_from_json(list[RooflineConfig], text)
    if not configs:
        raise InputError("model config list is empty")
    return configs
