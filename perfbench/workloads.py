"""The three sfk-bench workloads.

toy_train and wide_train time ``run_training`` steps under four policies.
The policies run round-robin in short blocks, so each sees the same host
state; successive rounds rotate over the workload's tasks.  Every block is
a fresh ``run_training`` call, so its loss series must be bitwise identical
to the first block of the same policy on the same task.
gradcheck times ``sfk.gradcheck`` over the seven ablations, cycling seeds.

Every workload sets up ``SETUP_REPS`` times, each between host-probe
timings: inputs plus one untimed warm-up per policy.  The warm-up also
counts the student's multiplies, which feeds the counted ratio, so
counting never runs inside a timed step.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

import sfk
from hostprobe import HostProbe
from tracer import KERNELS, PRODUCTS, CoverageError, Ledger, Tracer

POLICIES = {
    "dense": sfk.SparsityPolicy(),
    "w1_soft": sfk.SparsityPolicy(w1_sparse=True),
    "act24": sfk.SparsityPolicy(act_mode="act24"),
    "recipe": sfk.default_sparse_policy(),
}
TRAIN = {
    "toy_train": {
        "dims": dict(input_dim=32, hidden_dim=128, output_dim=32, batch_size=32, fixed_batch=True),
        "steps": 17,
        "probe_ms": 2.5,
        # one fixed batch routes to one of a few padded layouts, so the counted
        # ratio is bimodal in the seed; rounds rotate over several tasks
        "tasks": 4,
    },
    "wide_train": {
        "dims": dict(input_dim=96, hidden_dim=384, output_dim=96, batch_size=192),
        "steps": 4,
        "probe_ms": 65.0,
        "tasks": 1,
    },
}
LR = 0.05
SETUP_REPS = 3
DEFAULT_SEED = 0
REF_REL = 1e-10  # allowed relative deviation from the recorded reference series
GRAD_SHAPE = (8, 16, 32)
GRAD_COUNT_SEEDS = 64  # inputs the gradcheck workload's counted ratio is summed over
GRAD_PROBE_REPS = 16  # tiny steps per host-probe sample on the gradcheck workload
GRAD_PROBE_SAMPLES = 8  # probe samples in the gap before each gradcheck call
GRAD_PROBE_MS = 4.5  # nominal time of one gradcheck probe sample (see HostProbe)
GRAD_TOL = {"dense": 1e-5}  # acceptance 5; every other ablation gets 1e-4
# the ablation whose gradcheck call stands for each policy on the gradcheck workload
ABLATION_OF = {"dense": "dense", "w1_soft": "w1", "act24": "act24", "recipe": "venom"}


class ClockedTask(sfk.ToyTask):
    """ToyTask that timestamps every step boundary (each ``batch()`` call).

    With ``step_counts`` set to a list it also appends the multiplies of
    every step after step 0, counted from the end of ``batch()`` to the next
    step boundary: the student's forward and backward, never the teacher.
    With ``tracer`` set, ``batch()`` is the opaque ``trainkit.batch`` span,
    and the tracer's timed phase starts at step 1.
    """

    def __post_init__(self):
        super().__post_init__()
        self.marks: list[int] = []
        self.step_counts: list[int] | None = None
        self.tracer: Tracer | None = None
        self._scope = None

    def close_scope(self) -> None:
        if self._scope is not None:
            cm, counter = self._scope
            cm.__exit__(None, None, None)
            self.step_counts.append(counter.total)
            self._scope = None

    def batch(self, step):
        self.marks.append(time.perf_counter_ns())
        self.close_scope()
        if self.tracer is None:
            out = super().batch(step)
        else:
            if step == 1:
                self.tracer.start_timed()
            with self.tracer.span("trainkit.batch"):
                out = super().batch(step)
        if self.step_counts is not None and step >= 1:
            cm = sfk.count_multiplies()
            self._scope = (cm, cm.__enter__())
        return out


def make_tasks(spec: dict, seed: int) -> list[ClockedTask]:
    """The workload's tasks for a seed; distinct seeds never share a task."""
    n = spec["tasks"]
    return [ClockedTask(seed=seed * n + k, **spec["dims"]) for k in range(n)]


def run_block(task: ClockedTask, policy, steps: int, count=False, tracer=None):
    """One run_training call; returns (losses, ns of each step after step 0, step counts)."""
    task.marks = []
    task.step_counts = [] if count else None
    task.tracer = tracer
    schedule = sfk.build_schedule(steps, steps, warmup=0, sparse_policy=policy)
    try:
        report = sfk.run_training(task, schedule, lr=LR, steps=steps)
    finally:
        end = time.perf_counter_ns()
        task.close_scope()
        task.tracer = None
    marks = task.marks[1:] + [end]
    return report.losses, [b - a for a, b in zip(marks, marks[1:])], task.step_counts


class Run:
    """Op accounting and timings: an op is one timed block or one gradcheck call.

    The host probe is sampled in the gap before every timed op, so its
    samples are spread over the run like the ops themselves.
    """

    def __init__(self, probe: HostProbe, keys, gap_samples: int = 1):
        self.deadline = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe = probe
        self.gap_samples = gap_samples
        self.ns = {k: [] for k in keys}  # wall time of every timed step, per policy

    def start(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def gap(self) -> None:
        """Sample the host probe between two ops."""
        for _ in range(self.gap_samples):
            self.probe.sample()

    def bracketed(self, fn):
        """Run one set-up between probe timings: (result, wall s, adjacent probe ms)."""
        before = [self.probe.time_ms() for _ in range(self.gap_samples)]
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        after = [self.probe.time_ms() for _ in range(self.gap_samples)]
        return out, wall, statistics.fmean(before + after)

    def op(self, what: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")
        return problem is None


def series_problem(losses, first, ref) -> str | None:
    a = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(a).all():
        return "non-finite loss"
    if first is not None and a.tobytes() != np.asarray(first, dtype=np.float64).tobytes():
        return "loss series differs from the policy's first block"
    if ref is not None:
        r = np.asarray(ref, dtype=np.float64)
        if r.shape != a.shape or (np.abs(a - r) > REF_REL * np.abs(r)).any():
            return "loss series deviates from the recorded reference"
    return None


# ---------------------------------------------------------------------------
# training workloads

def train(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    spec = TRAIN[name]
    steps, n_tasks = spec["steps"], spec["tasks"]
    ref = reference.get(name) if seed == DEFAULT_SEED else None
    d = spec["dims"]
    probe = HostProbe(d["batch_size"], d["input_dim"], d["hidden_dim"], d["output_dim"], spec["probe_ms"])
    run = Run(probe, POLICIES)

    def set_up():
        """The tasks plus one counted warm-up block per (task, policy)."""
        tasks = make_tasks(spec, seed)
        warm = {
            (k, p): run_block(task, pol, steps, count=True)
            for k, task in enumerate(tasks)
            for p, pol in POLICIES.items()
        }
        return tasks, warm

    setup, firsts, counts = [], None, None
    for _ in range(SETUP_REPS):
        (tasks, warm), wall, probe_ms = run.bracketed(set_up)
        setup.append((wall, probe_ms))
        series = {key: w[0] for key, w in warm.items()}
        rep_counts = {key: sum(w[2]) for key, w in warm.items()}
        if firsts is None:
            firsts, counts = series, rep_counts
        elif rep_counts != counts or any(series_problem(series[key], firsts[key], None) for key in series):
            run.failures.append("set-up repetitions disagree")

    def block_op(k, p, tracer=None):
        what = f"{p} block on task {k}"
        try:
            losses, durs, _ = run_block(tasks[k], POLICIES[p], steps, tracer=tracer)
        except (sfk.SfkError, CoverageError) as exc:
            run.op(what, f"{type(exc).__name__}: {exc}")
            return []
        ok = run.op(what, series_problem(losses, firsts[k, p], ref and ref[p][k]))
        return durs if ok else []

    run.start(seconds)
    tracers = {p: Tracer() for p in POLICIES}
    traced = {p: [] for p in POLICIES}
    rounds = traced_rounds = student = 0
    while True:
        k = rounds % n_tasks
        for p in POLICIES:
            run.gap()
            run.ns[p] += block_op(k, p)
        if trace:
            failed = run.failed
            for p in POLICIES:
                with sfk.count_multiplies() as counter, tracers[p].tracing(counter, timed=False):
                    traced[p] += block_op(k, p, tracers[p])
            if run.failed != failed:
                break
            traced_rounds += 1
            student += sum(counts[k, p] for p in POLICIES)
        rounds += 1
        # stop only after whole rotations, so every task weighs the same and
        # the traced multiplies per step repeat exactly for a seed
        if run.expired() and rounds % n_tasks == 0:
            break

    out = {
        "policy_of": {p: p for p in POLICIES},
        "setup": setup,
        "counted": {p: sum(counts[k, p] for k in range(n_tasks)) for p in POLICIES},
        "run": run,
    }
    if trace:
        out["per_layer"], out["split"] = per_layer(
            run, tracers, traced, units=traced_rounds * (steps - 1), rounds=traced_rounds,
            cluster_phase="setup", student=student,
        )
    return out


# ---------------------------------------------------------------------------
# gradcheck workload

def grad_seed(seed: int, j: int) -> int:
    """Seed of the j-th gradcheck call of each ablation in a run."""
    return seed * 1000 + j


def _fwd_bwd_mults(pol, seed: int) -> int:
    b, d_model, d_ffn = GRAD_SHAPE
    x = sfk.rand_matrix(b, d_model, seed)
    p = sfk.init_ffn_params(d_model, d_ffn, d_model, seed)
    bank = sfk.cluster_columns(p.w1, pol.router, seed) if pol.act_mode == "venom" else None
    with sfk.count_multiplies() as counter:
        y3, tape = sfk.ffn_forward(x, p, pol, bank)
        sfk.ffn_backward(y3, tape, p, pol)
    return counter.total


def gradcheck(seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    ref = reference.get("gradcheck") if seed == DEFAULT_SEED else None
    b, d_model, d_ffn = GRAD_SHAPE
    probe = HostProbe(b, d_model, d_ffn, d_model, GRAD_PROBE_MS, reps=GRAD_PROBE_REPS)
    run = Run(probe, sfk.ABLATIONS, gap_samples=GRAD_PROBE_SAMPLES)

    def set_up():
        """The policies plus counted forward+backward passes of each."""
        pols = {tag: sfk.ablation_policy(tag) for tag in sfk.ABLATIONS}
        counts = {
            tag: sum(_fwd_bwd_mults(pol, grad_seed(seed, j)) for j in range(GRAD_COUNT_SEEDS))
            for tag, pol in pols.items()
        }
        return pols, counts

    setup, counts = [], None
    for _ in range(SETUP_REPS):
        (pols, rep_counts), wall, probe_ms = run.bracketed(set_up)
        setup.append((wall, probe_ms))
        if counts is None:
            counts = rep_counts
        elif rep_counts != counts:
            run.failures.append("set-up repetitions disagree")

    def call(tag, s, tracer=None):
        """One gradcheck call: (relative errors or None, problem, ns)."""
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                rep = sfk.gradcheck(pols[tag], shape=GRAD_SHAPE, seed=s)
            else:
                with sfk.count_multiplies() as counter, tracer.tracing(counter, timed=True):
                    rep = sfk.gradcheck(pols[tag], shape=GRAD_SHAPE, seed=s)
        except (sfk.SfkError, CoverageError) as exc:
            return None, f"{type(exc).__name__}: {exc}", 0
        dt = time.perf_counter_ns() - t0
        rels = [rep.rel_dx, rep.rel_dw1, rep.rel_dw2]
        tol = GRAD_TOL.get(tag, 1e-4)
        if not np.isfinite(rels).all() or rep.max_rel > tol:
            return rels, f"max_rel {rep.max_rel!r} exceeds {tol}", dt
        return rels, None, dt

    run.start(seconds)
    tracers = {tag: Tracer() for tag in pols}
    traced = {tag: [] for tag in pols}
    for j, tag in ((j, tag) for j in itertools.count() for tag in pols):
        if j and run.expired():
            break
        s = grad_seed(seed, j)
        run.gap()
        rels, problem, dt = call(tag, s)
        recorded = ref[tag] if ref is not None else []
        if problem is None and j < len(recorded):
            r = np.asarray(recorded[j])
            if (np.abs(np.asarray(rels) - r) > REF_REL * np.abs(r)).any():
                problem = "gradcheck report deviates from the recorded reference"
        if run.op(f"gradcheck {tag} seed {s}", problem):
            run.ns[tag].append(dt)
        if trace and j == 0:  # one traced sweep, so its multiplies repeat exactly
            trels, problem, tdt = call(tag, s, tracers[tag])
            if problem is None and trels != rels:
                problem = "traced report differs from the untraced one"
            if run.op(f"traced gradcheck {tag} seed {s}", problem):
                traced[tag].append(tdt)

    out = {
        "policy_of": ABLATION_OF,
        "setup": setup,
        "counted": {p: counts[ABLATION_OF[p]] for p in POLICIES},
        "run": run,
    }
    if trace:
        out["per_layer"], out["split"] = per_layer(
            run, tracers, traced, units=1, rounds=1, cluster_phase="timed", student=None,
        )
    return out


# ---------------------------------------------------------------------------
# traced per-layer figures

# layer groups of the traced split; the rest of an op's time is "update"
GROUPS = {
    "kernels": (
        "matcore.gemm",
        "sparse24.spmm24_rhs",
        "sparse24.spmm24",
        "sparse24.spmm24_tn",
        "venom.venom_spmm",
        "venom.venom_spmm_tn",
    ),
    "conversions": (
        "sparse24.sparsify24",
        "sparse24.soft_threshold",
        "sparse24.soft_threshold_backward",
        "sparse24.decode24",
        "sparse24.reencode24",
        "sparse24.kept_mask",
        "venom.venom_reencode",
        "venom.venom_kept_mask",
    ),
    "router": (
        "router.route_tokens",
        "router.moe_to_venom",
        "router.routed_feature_mask",
        "router.permute_pad",
        "router.cluster_columns",
    ),
    "ffn_glue": ("ffn.ffn_forward", "ffn.ffn_backward"),
    "data": ("trainkit.batch",),
}
# runs once per block, before the timed steps, so it is reported per round
PER_ROUND = ("router.cluster_columns",)


def _sum_of_medians(timings: dict) -> float:
    return sum(statistics.median(v) for v in timings.values())


def _split(ledger: Ledger, total_ns: int) -> dict:
    """Share of the traced ops' wall time per layer group."""
    shares = {g: sum(ledger.get(n)[1] for n in names) / total_ns for g, names in GROUPS.items()}
    shares["update"] = 1.0 - sum(shares.values())
    return shares


def per_layer(run, tracers, traced, units, rounds, cluster_phase, student):
    """Per-layer figures of the traced ops, per unit of work (one timed step
    of each policy, or one gradcheck sweep); clustering is per round.
    Returns them with each policy's split of its traced time by layer group."""
    for key, tracer in tracers.items():
        try:
            tracer.check_coverage()
        except CoverageError as exc:
            run.failures.append(f"coverage of {key}: {exc}")
    t = Ledger.merged(tr.timed for tr in tracers.values())
    if student is not None and sum(t.products.values()) != student:
        run.failures.append(f"coverage: products hold {sum(t.products.values())} of {student} student multiplies")
    units = max(units, 1)
    rounds = max(rounds, 1)
    out = {}
    step_layers = [n for names in GROUPS.values() for n in names if n not in PER_ROUND + ("trainkit.batch",)]
    for layer in step_layers:
        calls, ns, mults = t.get(layer)
        out[f"{layer}.calls"] = calls / units
        out[f"{layer}.self_ms"] = ns / 1e6 / units
        if layer in KERNELS:
            out[f"{layer}.mults"] = mults / units
    cluster = Ledger.merged(getattr(tr, cluster_phase) for tr in tracers.values()).get("router.cluster_columns")
    out["router.cluster_columns.calls"] = cluster[0] / rounds
    out["router.cluster_columns.self_ms"] = cluster[1] / 1e6 / rounds
    out["router.pad_row_frac"] = t.pad_rows / t.rows if t.rows else 0.0
    out["router.expert_balance"] = statistics.fmean(t.balance) if t.balance else 0.0
    for product in PRODUCTS:
        out[f"ffn.mults.{product}"] = t.products[product] / units
    batch = t.get("trainkit.batch")
    out["trainkit.batch.ms"] = batch[1] / 1e6 / units
    out["trainkit.batch.mults"] = batch[2] / units
    traced_ns = sum(sum(v) for v in traced.values())
    out["trainkit.update_ms"] = (traced_ns - sum(s[1] for s in t.stats.values())) / 1e6 / units
    overhead = 0.0
    if all(traced.values()) and all(run.ns.values()):
        overhead = _sum_of_medians(traced) / _sum_of_medians(run.ns) - 1.0
    out["trace.overhead_frac"] = overhead
    split = {key: _split(tr.timed, sum(traced[key])) for key, tr in tracers.items() if traced[key]}
    return out, split
