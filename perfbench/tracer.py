"""Per-layer tracing of sfk from outside the package.

The tracer wraps the public functions of sfk's modules and aggregates one
span per call in memory: calls, self time (the span's duration minus its
child spans) and self multiplies (what sfk's multiply counter tallied while
the span was the innermost one).  Nothing inside sfk is edited or relabelled.

Every sfk namespace that bound a wrapped function by name gets the wrapper:
``sfk.ffn``, ``sfk.router``, ``sfk.venom``, ``sfk.sparse24``,
``sfk.trainkit`` and the package itself all import their names at import
time, so patching only the defining module would silently miss calls.

Multiplies of the dense ``gemm`` calls are attributed to FFN products by
their enclosing span: the n-th kernel called directly by ``ffn_forward`` or
``ffn_backward`` computed the n-th entry that call appended to the tape's
``matmul_log``, and kernels under ``route_tokens`` are router scoring.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import sfk

# layer name -> the (defining module, function) pairs it covers
LAYERS = {
    "matcore.gemm": [("sfk.matcore", "gemm")],
    "sparse24.sparsify24": [("sfk.sparse24", "sparsify24")],
    "sparse24.soft_threshold": [("sfk.sparse24", "soft_threshold")],
    "sparse24.soft_threshold_backward": [("sfk.sparse24", "soft_threshold_backward")],
    "sparse24.decode24": [("sfk.sparse24", "decode24")],
    "sparse24.reencode24": [("sfk.sparse24", "reencode24")],
    "sparse24.kept_mask": [("sfk.sparse24", "kept_mask")],
    "sparse24.spmm24_rhs": [("sfk.sparse24", "spmm24_rhs")],
    "sparse24.spmm24": [("sfk.sparse24", "spmm24")],
    "sparse24.spmm24_tn": [("sfk.sparse24", "spmm24_tn")],
    "venom.venom_spmm": [("sfk.venom", "venom_spmm")],
    "venom.venom_spmm_tn": [("sfk.venom", "venom_spmm_tn")],
    "venom.venom_reencode": [("sfk.venom", "venom_reencode")],
    "venom.venom_kept_mask": [("sfk.venom", "venom_kept_mask")],
    "router.route_tokens": [("sfk.router", "route_tokens")],
    "router.moe_to_venom": [("sfk.router", "moe_to_venom")],
    "router.routed_feature_mask": [("sfk.router", "routed_feature_mask")],
    "router.permute_pad": [
        ("sfk.router", "apply_permutation"),
        ("sfk.router", "invert_permutation"),
        ("sfk.router", "pad_rows"),
        ("sfk.router", "unpad_rows"),
        ("sfk.router", "padded_layout"),
    ],
    "router.cluster_columns": [("sfk.router", "cluster_columns")],
    # input generation: ToyTask.batch (spanned by the benchmark's task) and the
    # draws gradcheck makes.  Opaque, so the teacher forward in batch() is not
    # counted as student work.
    "trainkit.batch": [("sfk.matcore", "rand_matrix"), ("sfk.ffn", "init_ffn_params")],
}
FFN_SPANS = ("ffn.ffn_forward", "ffn.ffn_backward")
KERNELS = frozenset(
    {
        "matcore.gemm",
        "sparse24.spmm24_rhs",
        "sparse24.spmm24",
        "sparse24.spmm24_tn",
        "venom.venom_spmm",
        "venom.venom_spmm_tn",
    }
)
OPAQUE = frozenset({"trainkit.batch"})
PRODUCTS = ("y1", "y3", "dy2", "dx", "dw1", "dw2", "route")


class CoverageError(Exception):
    """The spans do not account for every multiply or every product."""


class Ledger:
    """Aggregated spans of one phase of a traced run."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # layer -> [calls, self ns, self multiplies]
        self.products = dict.fromkeys(PRODUCTS, 0)
        self.mults = 0  # counter total over the phase
        self.pad_rows = 0
        self.rows = 0
        self.balance: list[float] = []

    @classmethod
    def merged(cls, ledgers) -> "Ledger":
        out = cls()
        for led in ledgers:
            for name, (calls, ns, mults) in led.stats.items():
                s = out.stats.setdefault(name, [0, 0, 0])
                s[0] += calls
                s[1] += ns
                s[2] += mults
            for product, m in led.products.items():
                out.products[product] += m
            out.mults += led.mults
            out.pad_rows += led.pad_rows
            out.rows += led.rows
            out.balance += led.balance
        return out

    def get(self, layer: str) -> list[int]:
        return self.stats.get(layer, [0, 0, 0])

    def kernel_mults(self) -> int:
        return sum(self.get(k)[2] for k in KERNELS)


class Tracer:
    """Spans go to ``setup`` until ``start_timed()`` and to ``timed`` after."""

    def __init__(self):
        self.setup = Ledger()
        self.timed = Ledger()
        self.ledger = self.setup
        self.counter = None
        self.base = 0
        self.stack: list[list] = []
        self.opaque = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        # [name, start ns, child ns, counter at start, child multiplies, direct children]
        self.stack.append([name, time.perf_counter_ns(), 0, self.counter.total, 0, []])

    def _exit(self) -> list:
        name, t0, child_ns, m0, child_m, kids = self.stack.pop()
        dt = time.perf_counter_ns() - t0
        dm = self.counter.total - m0
        s = self.ledger.stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += dt - child_ns
        s[2] += dm - child_m
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dt
            parent[4] += dm
            parent[5].append((name, dm))
        return kids

    @contextmanager
    def span(self, name: str):
        """One span; calls made inside an opaque span get no spans of their own."""
        if self.opaque:
            yield
            return
        self._enter(name)
        self.opaque += name in OPAQUE
        try:
            yield
        finally:
            self.opaque -= name in OPAQUE
            self._exit()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_ffn(self, name: str, fn):
        backward = name == "ffn.ffn_backward"

        def traced(*args, **kwargs):
            if self.opaque:
                return fn(*args, **kwargs)
            tape = args[1] if backward else None
            n0 = len(tape.matmul_log) if backward else 0
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                kids = self._exit()
            if not backward:
                tape = out[1]
                frozen = kwargs.get("frozen", args[4] if len(args) > 4 else None)
                if tape.layout is not None and frozen is None:
                    self.ledger.pad_rows += tape.layout.rows - tape.layout.real_rows
                    self.ledger.rows += tape.layout.rows
                    self.ledger.balance.append(sfk.expert_balance(tape.plan))
            self._attribute(tape.matmul_log[n0:], kids)
            return out

        return traced

    def _attribute(self, log, kids) -> None:
        kernels = [m for n, m in kids if n in KERNELS]
        if len(kernels) != len(log):
            raise CoverageError(f"{len(kernels)} kernel calls for {len(log)} logged products")
        products = self.ledger.products
        for (product, _operand), m in zip(log, kernels):
            products[product] += m
        products["route"] += sum(m for n, m in kids if n == "router.route_tokens")

    # -- phases --------------------------------------------------------------

    def start_timed(self) -> None:
        """Close the set-up phase (param init, clustering, step 0)."""
        self._close_phase()
        self.ledger = self.timed

    def _close_phase(self) -> None:
        self.ledger.mults += self.counter.total - self.base
        self.base = self.counter.total

    @contextmanager
    def tracing(self, counter, timed: bool):
        """Install the wrappers into every sfk namespace for one block.

        ``counter`` must be an active ``sfk.count_multiplies()`` counter.
        """
        self.counter, self.base = counter, counter.total
        self.ledger = self.timed if timed else self.setup
        mods = [m for n, m in list(sys.modules.items()) if n == "sfk" or n.startswith("sfk.")]
        targets = [(n, mod, f) for n, pairs in LAYERS.items() for mod, f in pairs]
        targets += [(n, "sfk.ffn", n.split(".")[1]) for n in FFN_SPANS]
        patches = []
        try:
            for name, modname, fname in targets:
                orig = getattr(sys.modules[modname], fname)
                wrap = self._wrap_ffn if name in FFN_SPANS else self._wrap
                wrapper = wrap(name, orig)
                for mod in mods:
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapper)
                        patches.append((mod, fname, orig))
            yield self
            self._close_phase()
        finally:
            for mod, fname, orig in reversed(patches):
                setattr(mod, fname, orig)
            self.stack.clear()
            self.opaque = 0

    def check_coverage(self) -> None:
        """Every multiply counted in the timed phase sits in a kernel span,
        and every kernel span outside the data layer is an FFN product."""
        t = self.timed
        kernel = t.kernel_mults()
        batch = t.get("trainkit.batch")[2]
        if kernel + batch != t.mults:
            raise CoverageError(f"kernel spans hold {kernel} + data {batch} of {t.mults} multiplies")
        if sum(t.products.values()) != kernel:
            raise CoverageError(f"products hold {sum(t.products.values())} of {kernel} kernel multiplies")
