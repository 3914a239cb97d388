"""The four workloads: op mixes, seeded inputs and per-op output checks.

An op is one user-visible task run through ``chainsense.cli.main`` in
process: an ``analyze`` call, a ``simulate`` + ``estimate`` round trip
through a CSV record, or an ``oracle-check`` call.  Ops run back to back
(closed loop, one client).  Each workload cycles through its size classes
(scheme and chain length N) in a fixed weighted order; the inputs of every
op are drawn from a ``random.Random`` seeded with the workload seed, so the
same seed gives the same ops.

Why each mix has its weights: latency depends almost only on the size
class, so the sorted latencies of a run fall into one block per class.  A
percentile that sits on the boundary between two blocks jumps between them
from run to run.  The weights put the median and the tail percentile (see
``run.TAIL_PERCENTILES``) well inside one block each; the cumulative shares
are given next to each mix.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

#: measurement and initial-state labels of the two capable schemes
SCHEMES = {"ladder": ("ZaYb", "xa"), "cube": ("YaZb", "xb")}

#: accuracy is reported in decimal digits, capped where float64 ends
DIGITS_CAP = 15.0

#: cube ground truth of the package's README and acceptance criterion 9.
#: Noisy cube recovery is only reliable near it: at truths drawn around it
#: (magnitudes within 10 %) a quarter to a third of records fail with
#: "order ambiguous" at sigma = 1e-3, and some fail even at sigma = 1e-6.
#: The workload keeps these magnitudes and varies the signs (which are
#: output-equivalent) and the noise seed.
CUBE_TRUTH = {"ha": 1.0, "hb": 0.8, "h1": 0.6}

#: ladder ground-truth magnitudes are drawn uniformly from this range
LADDER_RANGE = (0.5, 1.5)


@dataclass(frozen=True)
class Kind:
    """One size class of a workload: a scheme at a chain length."""

    scheme: str
    n: int
    weight: int

    @property
    def label(self) -> str:
        return f"{self.scheme}.N{self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "analyze" | "recover" | "oracle"
    kinds: tuple[Kind, ...]
    count: int = 0  # recover: samples per record
    sigma: float = 0.0  # recover: noise standard deviation
    tolerance: float = 0.0  # recover: max relative error of any magnitude


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze", "analyze",
            # shares: cube 0-20 %, L8 20-60 % (holds p50), L9 60-100 %
            # (holds the tail, p75: a 20 s run has 50 to 100 ops).  Larger
            # N would leave too few ops per run for a steady tail
            (Kind("cube", 1, 1), Kind("cube", 2, 1), Kind("ladder", 8, 4),
             Kind("ladder", 9, 4)),
        ),
        Workload(
            "recover-cube", "recover",
            # shares: N1 0-33 %, N2 33-100 % (holds p50 and the tail)
            (Kind("cube", 1, 1), Kind("cube", 2, 2)),
            count=240, sigma=1e-3, tolerance=5e-2,
        ),
        Workload(
            "recover-ladder", "recover",
            # latency is nearly flat in N here (ERA on a fixed 400-sample
            # Hankel dominates), so the classes' blocks overlap and no
            # percentile can jump between distinct blocks.  N stops at 8:
            # noiseless recovery ("moment matrix is not positive definite")
            # failed 1 in about 9000 records at N=10, 1 in 2500 at N=11 and
            # 1 to 4 in 1000 at N=12..14, and a failed op spoils the run
            tuple(Kind("ladder", n, 1) for n in range(4, 9)),
            count=400, sigma=0.0, tolerance=1e-4,
        ),
        Workload(
            "oracle", "oracle",
            # shares: N4 0-18 %, N5 18-36 %, N6 36-95.5 % (holds p50 and
            # the tail, p75: a 20 s run has 55 to 120 ops), N7 95.5-100 %.  N
            # stays <= 7: at N=8 one op takes 7.8 s and 2.1 GB, at N=9 the
            # dense oracle exhausts a 7 GiB machine
            (Kind("ladder", 4, 4), Kind("cube", 4, 4), Kind("ladder", 5, 4),
             Kind("cube", 5, 4), Kind("ladder", 6, 13), Kind("cube", 6, 13),
             Kind("ladder", 7, 1), Kind("cube", 7, 1)),
        ),
    )
}


def cycle(kinds: tuple[Kind, ...]) -> list[Kind]:
    """Smooth weighted round robin: every prefix keeps close to the weights."""
    total = sum(k.weight for k in kinds)
    current = [0] * len(kinds)
    out = []
    for _ in range(total):
        for i, k in enumerate(kinds):
            current[i] += k.weight
        best = max(range(len(kinds)), key=current.__getitem__)
        current[best] -= total
        out.append(kinds[best])
    return out


def param_names(n: int) -> list[str]:
    return ["ha", "hb"] + [f"h{i}" for i in range(1, n)]


@dataclass
class Op:
    kind: Kind
    argvs: list[list[str]]
    truth: dict[str, float] | None
    report: Path


@dataclass
class OpResult:
    label: str
    ms: float
    ok: bool
    reason: str
    digest: str
    error: float | None  # the op's own error against its reference


def make_op(work: Workload, kind: Kind, rng: random.Random, workdir: Path) -> Op:
    measurement, initial = SCHEMES[kind.scheme]
    scheme = ["--measurement", measurement, "--initial", initial,
              "--n-chain", str(kind.n)]
    report = workdir / "report.json"
    seed = str(rng.randrange(2**31))
    if work.verb in ("analyze", "oracle"):
        verb = "analyze" if work.verb == "analyze" else "oracle-check"
        argv = [verb, *scheme, "--seed", seed, "--report", str(report)]
        return Op(kind, [argv], None, report)
    if kind.scheme == "cube":
        truth = {k: rng.choice((-1.0, 1.0)) * CUBE_TRUTH[k]
                 for k in param_names(kind.n)}
    else:
        truth = {k: rng.choice((-1.0, 1.0)) * rng.uniform(*LADDER_RANGE)
                 for k in param_names(kind.n)}
    record = workdir / "record.csv"
    sets = [arg for k, v in truth.items() for arg in ("--set", f"{k}={v!r}")]
    simulate = ["simulate", *scheme, *sets, "--count", str(work.count),
                "--noise-sigma", repr(work.sigma), "--seed", seed,
                "--record", str(record)]
    estimate = ["estimate", *scheme, "--record", str(record),
                "--report", str(report)]
    return Op(kind, [simulate, estimate], truth, report)


def make_ops(work: Workload, rng: random.Random, workdir: Path):
    """Endless op stream of the workload's mix."""
    order = cycle(work.kinds)
    i = 0
    while True:
        yield make_op(work, order[i % len(order)], rng, workdir)
        i += 1


def warmup_ops(work: Workload, workdir: Path) -> list[Op]:
    """One op of each size class.  The inputs do not depend on the workload
    seed, so set-up time measures the same work in every run."""
    rng = random.Random(f"{work.name}:warmup")
    return [make_op(work, k, rng, workdir) for k in work.kinds]


def run_op(main, work: Workload, op: Op, tracer=None) -> OpResult:
    """Run the op's CLI calls back to back, then check the report.

    The op's time is the CPU time of its calls: on one thread with no I/O
    waits that is its wall time less the time the hypervisor gave the core
    to other machines, which arrives in bursts that no program change
    causes or cures."""
    ms = 0.0
    sink = io.StringIO()
    rc = 0
    if op.report.exists():
        op.report.unlink()
    if tracer is not None:
        tracer.begin_op()
    try:
        for argv in op.argvs:
            start = time.process_time()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    rc = main(argv)
            finally:
                ms += (time.process_time() - start) * 1e3
            if rc != 0:
                break
    except Exception as err:  # a traceback is a failed op, not a dead run
        return _failed(op, ms, f"{argv[0]} raised {type(err).__name__}: {err}")
    finally:
        if tracer is not None:
            tracer.end_op(ms / 1e3)
    if rc != 0:
        tail = sink.getvalue().strip().splitlines()[-1:]
        return _failed(op, ms, f"{argv[0]} exit {rc}: {' '.join(tail)}")
    data = op.report.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    reason, error = check(work, op, json.loads(data))
    return OpResult(op.kind.label, ms, reason == "", reason, digest, error)


def _failed(op: Op, ms: float, reason: str) -> OpResult:
    return OpResult(op.kind.label, ms, False, reason, "", None)


def check(work: Workload, op: Op, report: dict) -> tuple[str, float | None]:
    """Return (reason the output is wrong or "", the op's error)."""
    verdicts, evidence = report["verdicts"], report["evidence"]
    kind = op.kind
    if work.verb == "analyze":
        if kind.scheme == "ladder":
            expected_order = kind.n + 2 if kind.n % 2 == 0 else kind.n + 1
            if verdicts["identifiability"] != "identifiable-in-magnitude":
                return f"verdict {verdicts['identifiability']!r}", None
            if evidence["minimal_order"] != expected_order:
                return f"minimal order {evidence['minimal_order']}", None
            if not evidence["det_cm_matches_closed_form"]:
                return "det(CM) disagrees with its closed form", None
            return "", None
        if verdicts["identifiability"] != "identifiable":
            return f"verdict {verdicts['identifiability']!r}", None
        return "", evidence["probe_recovery_gap"]
    if work.verb == "oracle":
        if not verdicts["oracle_agreement"]:
            return "model and quantum oracle disagree", None
        if not verdicts["closed_forms_match"]:
            return "closed forms disagree", None
        return "", report["residuals"]["oracle_max_residual"]
    estimates = report["estimates"]
    if set(estimates) != set(op.truth):
        return f"estimated {sorted(estimates)}", None
    error = max(abs(estimates[k] - abs(v)) / abs(v) for k, v in op.truth.items())
    if not error <= work.tolerance:
        return f"relative error {error:.3e} above {work.tolerance:.0e}", error
    return "", error


def digits(error: float | None) -> float:
    if error is None or error <= 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(error))
