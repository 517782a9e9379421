"""Sparse/dense step planning and schedule-level speedup arithmetic.

A training run is split into three contiguous phases: a dense warmup
(activation statistics settle before routing starts), a sparse phase
accelerated by the full sparsification policy, and a dense tail that
recovers accuracy.  Warmup steps count toward the dense budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .ffn import DENSE_POLICY, SparsityPolicy
from .router import RouterConfig
from .venom import VenomParams

DEFAULT_WARMUP = 1000


def default_sparse_policy() -> SparsityPolicy:
    """The full recipe: soft-thresholded 2:4 on W1 forward and W2T in
    backward, with routed V:N:M activation sparsity everywhere else."""
    return SparsityPolicy(
        w1_sparse=True,
        w2t_sparse=True,
        act_mode="venom",
        venom=VenomParams(8, 16),
        router=RouterConfig(num_experts=4, top_k=1, align_m=16),
    )


@dataclass(frozen=True)
class TrainSchedule:
    """Steps [0, warmup) dense, [warmup, warmup + sparse_steps) sparse,
    the remainder dense.  Dense steps run DENSE_POLICY; sparse_policy
    defaults to default_sparse_policy()."""

    total_steps: int
    sparse_steps: int
    venom_warmup: int = DEFAULT_WARMUP
    sparse_policy: SparsityPolicy | None = None

    def __post_init__(self):
        if self.total_steps < 1:
            raise InputError(f"total_steps must be positive, got {self.total_steps}")
        if self.sparse_steps < 0 or self.venom_warmup < 0:
            raise InputError("step counts must be non-negative")
        if self.sparse_steps > self.total_steps:
            raise InputError(
                f"sparse_steps {self.sparse_steps} exceeds total_steps {self.total_steps}"
            )
        if self.venom_warmup + self.sparse_steps > self.total_steps:
            raise InputError(
                f"warmup {self.venom_warmup} + sparse {self.sparse_steps} "
                f"exceeds total_steps {self.total_steps}"
            )
        if self.sparse_policy is None:
            object.__setattr__(self, "sparse_policy", default_sparse_policy())

    @property
    def dense_steps(self) -> int:
        return self.total_steps - self.sparse_steps

    @property
    def sparse_fraction(self) -> float:
        return self.sparse_steps / self.total_steps

    @property
    def sparse_range(self) -> tuple[int, int]:
        return (self.venom_warmup, self.venom_warmup + self.sparse_steps)

    def is_sparse_step(self, step: int) -> bool:
        lo, hi = self.sparse_range
        return lo <= step < hi

    def per_step_policy(self, step: int) -> SparsityPolicy:
        if step < 0 or step >= self.total_steps:
            raise InputError(f"step {step} outside [0, {self.total_steps})")
        return self.sparse_policy if self.is_sparse_step(step) else DENSE_POLICY


def build_schedule(
    total: int,
    sparse: int,
    warmup: int = DEFAULT_WARMUP,
    sparse_policy: SparsityPolicy | None = None,
) -> TrainSchedule:
    return TrainSchedule(
        total_steps=total,
        sparse_steps=sparse,
        venom_warmup=warmup,
        sparse_policy=sparse_policy,
    )


def schedule_speedup(s: TrainSchedule, per_iter_speedup: float) -> float:
    """End-to-end speedup when sparse steps run per_iter_speedup times
    faster: total / (dense + sparse / per_iter_speedup)."""
    if not 1.0 <= per_iter_speedup < math.inf:  # also rejects nan
        raise InputError(f"per-iteration speedup must be finite and >= 1, got {per_iter_speedup}")
    # single division: total*s / (dense*s + sparse) loses less than
    # dividing sparse/s first, and is exact for round step counts
    return (s.total_steps * per_iter_speedup) / (
        s.dense_steps * per_iter_speedup + s.sparse_steps
    )
