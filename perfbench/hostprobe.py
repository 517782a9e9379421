"""Host-state probe: a frozen pure-numpy FFN step that imports nothing from sfk.

On a shared host the same code alternates between a fast and a slow state
for tens of seconds at a time; sfk's step time then moves by up to half.
The probe is a fixed dense squared-ReLU FFN forward and backward at the
workload's dimensions, built from the same kind of small numpy updates as
sfk's reference GEMM (one rank-1 update per reduction index).  Its time
moves with the host and never with a change to sfk, so a run's mean step
time divided by the probe's mean over the same run repeats from run to run
even when the host's state does not.
"""

from __future__ import annotations

import time

import numpy as np


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k]
    return out


class HostProbe:
    """A dense FFN step of shape (batch, d_in, d_ffn, d_out), ``reps`` times per sample.

    ``nominal_ms`` is the probe's time in the fast state of the host the
    benchmark was tuned on (2 vCPUs, Python 3.11, numpy 2.4); set-up times
    are rescaled to it, so they read as seconds at that host speed.
    """

    def __init__(self, batch: int, d_in: int, d_ffn: int, d_out: int, nominal_ms: float, reps: int = 1):
        self.nominal_ms = nominal_ms
        rng = np.random.Generator(np.random.PCG64(12345))
        self.x = rng.standard_normal((batch, d_in))
        self.w1 = rng.standard_normal((d_in, d_ffn)) / np.sqrt(d_in)
        self.w2 = rng.standard_normal((d_ffn, d_out)) / np.sqrt(d_ffn)
        self.target = rng.standard_normal((batch, d_out))
        self.reps = reps
        self.samples_ms: list[float] = []

    def _step(self) -> float:
        y1 = _gemm(self.x, self.w1)
        y2 = np.square(np.maximum(y1, 0.0))
        err = _gemm(y2, self.w2) - self.target
        dy3 = err / err.size
        dw2 = _gemm(y2.T, dy3)
        dy1 = 2.0 * _gemm(dy3, self.w2.T) * np.maximum(y1, 0.0)
        dx = _gemm(dy1, self.w1.T)
        dw1 = _gemm(self.x.T, dy1)
        return float(dx[0, 0] + dw1[0, 0] + dw2[0, 0])

    def time_ms(self) -> float:
        """Time one sample without keeping it."""
        t0 = time.perf_counter_ns()
        acc = sum(self._step() for _ in range(self.reps))
        ms = (time.perf_counter_ns() - t0) / 1e6
        if not np.isfinite(acc):
            raise ArithmeticError("host probe produced a non-finite value")
        return ms

    def sample(self) -> None:
        """Time one sample and keep it."""
        self.samples_ms.append(self.time_ms())

    def at_nominal(self, seconds: float, probe_ms: float) -> float:
        """Rescale a wall time measured while the probe took probe_ms."""
        return seconds * self.nominal_ms / probe_ms
