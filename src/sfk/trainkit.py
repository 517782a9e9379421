"""Desk-scale training harness.

A teacher-student regression stands in for pretraining: a fixed random
squared-ReLU FFN generates targets and a student of the same shape is
trained by plain SGD under a TrainSchedule, switching sparsification
policies per step.  The harness exists to demonstrate three recipe
properties at toy scale: soft thresholding keeps the loss curve free of
mask-swap jumps, activation sparsity emerges and is reported (never
asserted at trained-LM levels), and a sparse-then-dense schedule
recovers accuracy relative to training sparse all the way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .codec import config_to_json
from .errors import DivergenceError, InputError
from .ffn import DENSE_POLICY, FfnParams, ffn_backward, ffn_forward, init_ffn_params
from .matcore import rand_matrix
from .router import cluster_columns
from .schedule import TrainSchedule

_SEED_STRIDE = 1_000_003  # per-task offset so per-step batches never collide


@dataclass(eq=False)
class ToyTask:
    """Teacher-student regression task; everything derives from seed."""

    input_dim: int = 32
    hidden_dim: int = 128
    output_dim: int = 32
    batch_size: int = 32
    noise_std: float = 0.0
    seed: int = 0
    fixed_batch: bool = False
    teacher: FfnParams = field(init=False)
    _fixed: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) % 4:
                raise InputError(f"{name} must be a multiple of 4, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 <= self.noise_std < np.inf:  # also rejects nan
            raise InputError(f"noise_std must be finite and non-negative, got {self.noise_std}")
        self.teacher = init_ffn_params(
            self.input_dim, self.hidden_dim, self.output_dim, seed=self.seed
        )

    def batch(self, step: int):
        """Deterministic (x, target) pair for a step.

        With ``fixed_batch`` the step-0 batch is reused every step, turning
        SGD into full-batch gradient descent.  That removes batch-to-batch
        loss noise, which is what makes per-step loss-jump comparisons
        between shrinkage and hard masking legible.  The fixed pair is
        built on the first call and then returned as is, read-only.
        """
        if not self.fixed_batch:
            return self._make_batch(step)
        if self._fixed is None:
            x, target = self._make_batch(0)
            x.flags.writeable = target.flags.writeable = False
            self._fixed = (x, target)
        return self._fixed

    def _make_batch(self, step: int):
        base = (self.seed + 1) * _SEED_STRIDE + step
        x = rand_matrix(self.batch_size, self.input_dim, seed=base)
        target, _ = ffn_forward(x, self.teacher, DENSE_POLICY)
        if self.noise_std > 0.0:
            target = target + self.noise_std * rand_matrix(
                self.batch_size, self.output_dim, seed=base + 1
            )
        return x, target


@dataclass(eq=False)
class TrainReport:
    """Per-step series plus the schedule that produced them."""

    losses: list = field(default_factory=list)
    act_zero_frac: list = field(default_factory=list)
    policy_tags: list = field(default_factory=list)
    schedule: TrainSchedule = None
    lr: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        """Mean of the last 100 recorded losses (fewer if the run is shorter)."""
        if not self.losses:
            raise InputError("report holds no steps")
        window = self.losses[-100:]
        return float(sum(window) / len(window))

    def to_csv(self) -> str:
        lines = ["step,loss,act_zero_frac,policy_tag"]
        for i, (lo, az, tag) in enumerate(zip(self.losses, self.act_zero_frac, self.policy_tags)):
            lines.append(f"{i},{lo!r},{az!r},{tag}")
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(
            {
                "steps": self.steps,
                "lr": self.lr,
                "final_loss": self.final_loss,
                "initial_loss": self.losses[0],
                "final_act_zero_frac": self.act_zero_frac[-1],
                "max_loss_jump": max_loss_jump(self),
                "schedule": None if self.schedule is None else json.loads(config_to_json(self.schedule)),
            },
            indent=1,
        )


def run_training(task: ToyTask, schedule: TrainSchedule, lr: float, steps: int) -> TrainReport:
    """Plain SGD on 0.5 * mean squared error against the teacher.

    The expert bank for venom phases is clustered from the student's W1
    once, on entry into the sparse phase.  Raises DivergenceError (with
    the step index) the moment the loss stops being finite.
    """
    if steps != schedule.total_steps:
        raise InputError(f"steps {steps} must equal schedule.total_steps {schedule.total_steps}")
    if not 0.0 < lr < np.inf:  # also rejects nan
        raise InputError(f"learning rate must be finite and positive, got {lr}")
    sp = schedule.sparse_policy
    if sp.act_mode == "venom" and schedule.sparse_steps > 0:
        if task.hidden_dim % sp.venom.m:
            raise InputError(
                f"hidden_dim {task.hidden_dim} is not divisible by venom M={sp.venom.m}"
            )

    params = init_ffn_params(task.input_dim, task.hidden_dim, task.output_dim, seed=task.seed + 17)
    report = TrainReport(schedule=schedule, lr=lr)
    bank = None
    sparse_start = schedule.sparse_range[0]

    for step in range(steps):
        pol = schedule.per_step_policy(step)
        if pol.act_mode == "venom" and step == sparse_start:
            bank = cluster_columns(params.w1, pol.router, seed=task.seed + 29)
        x, target = task.batch(step)
        # overflow here is not a bug: it is divergence, detected right below
        with np.errstate(over="ignore", invalid="ignore"):
            y3, tape = ffn_forward(x, params, pol, bank if pol.act_mode == "venom" else None)
            err = y3 - target
            loss = 0.5 * float(np.mean(err * err))
            if not np.isfinite(loss):
                raise DivergenceError(step)
            report.losses.append(loss)
            # over the y1 entries the step computed: the routed ones under venom
            report.act_zero_frac.append(float(np.mean(tape.y1 <= 0.0)))
            report.policy_tags.append(pol.tag)
            dy3 = err / err.size
            dx, dw1, dw2 = ffn_backward(dy3, tape, params, pol)
            del tape  # free this step's weight packs and activations before the next forward
            new_w1 = params.w1 - lr * dw1
            new_w2 = params.w2 - lr * dw2
        if not (np.isfinite(new_w1).all() and np.isfinite(new_w2).all()):
            raise DivergenceError(step, what="weights")
        params = FfnParams(new_w1, new_w2)
    return report


def max_loss_jump(report: TrainReport) -> float:
    """Largest per-step |loss change| over the run."""
    if report.steps < 2:
        return 0.0
    return float(np.max(np.abs(np.diff(np.asarray(report.losses)))))


def loss_jump_quantile(report: TrainReport, q: float = 0.95) -> float:
    """Quantile of the per-step |loss change| distribution."""
    if not 0.0 <= q <= 1.0:
        raise InputError(f"quantile q must be in [0, 1], got {q}")
    if report.steps < 2:
        return 0.0
    return float(np.quantile(np.abs(np.diff(np.asarray(report.losses))), q))
