"""Scalar-multiply accounting for the reference kernels.

Every matmul kernel in this package tallies the exact number of scalar
multiplications it performs, as it performs them (one tally per
vectorized update, weighted by the update's element count).  Tests use
the counters to confirm that the sparse kernels really skip dropped
elements: a 2:4 kernel must do exactly half the multiplies of a dense
product, a V:N:M kernel exactly N/M of them.

A counter counts only work done in the thread that opened it, so a
measurement never sees another thread's products.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class MultiplyCounter:
    total: int = 0
    per_op: dict[str, int] = field(default_factory=dict)

    def add(self, n: int, op: str) -> None:
        self.total += n
        self.per_op[op] = self.per_op.get(op, 0) + n


class _ThreadCounters(threading.local):
    # the calling thread's open counters; a class default, so a thread that
    # opened none reads () without raising (tally runs on every kernel update)
    active: tuple[MultiplyCounter, ...] = ()


_open = _ThreadCounters()


def tally(n: int, op: str) -> None:
    """Record n scalar multiplies against every active counter opened
    by the calling thread."""
    for counter in _open.active:
        counter.add(n, op)


@contextmanager
def count_multiplies():
    """Context manager yielding a MultiplyCounter active inside the block
    for work done in the calling thread."""
    counter = MultiplyCounter()
    _open.active += (counter,)
    try:
        yield counter
    finally:
        # by identity, not by restoring a snapshot: scopes may close out of order
        _open.active = tuple(c for c in _open.active if c is not counter)
