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


@dataclass(eq=False)  # identity equality: _active.remove must drop this counter, not an equal one
class MultiplyCounter:
    total: int = 0
    per_op: dict[str, int] = field(default_factory=dict)
    owner: int = field(default_factory=threading.get_ident, init=False, repr=False)

    def add(self, n: int, op: str) -> None:
        self.total += n
        self.per_op[op] = self.per_op.get(op, 0) + n


_lock = threading.Lock()
_active: list[MultiplyCounter] = []


def tally(n: int, op: str) -> None:
    """Record n scalar multiplies against every active counter opened
    by the calling thread."""
    if not _active:
        return
    me = threading.get_ident()
    with _lock:
        for counter in _active:
            if counter.owner == me:
                counter.add(n, op)


@contextmanager
def count_multiplies():
    """Context manager yielding a MultiplyCounter active inside the block
    for work done in the calling thread."""
    counter = MultiplyCounter()
    with _lock:
        _active.append(counter)
    try:
        yield counter
    finally:
        with _lock:
            _active.remove(counter)
