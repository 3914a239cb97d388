"""chainsense benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The process runs one workload with one client
(ops back to back) on one BLAS thread, checks every op's output, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced timed phase.
``--trace 1`` runs the same untraced phase, then replays its ops with every
public function of the package wrapped in spans (see ``spans.py``), and
reports per-layer metrics per op.  The replay must reproduce every report
digest of the untraced phase; its extra op time is the tracing overhead.

Times are the process's CPU time (see ``workloads.run_op``), scaled to a
reference machine speed (see ``pace.py``).  Per-op rows (size class, raw
and scaled time, check, report sha256) and the run's environment stamp go
to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: one BLAS thread: the benchmark is one client, a second thread only adds
#: scheduling noise on the small matrices these ops factor, and with one
#: thread the process CPU time of an op is its time on the core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import pace  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups timed per run besides this process's own; setup_s is the median
SETUP_PROBES = 4

#: the tail is the highest of these percentiles with >= 10 samples beyond
#: it, or the median when none has.  There is no p90: runs of a workload
#: hold from 55 to 120 ops as the machine's pace varies, and a tail that
#: switched between p75 and p90 at 100 ops spread by 0.13 over ten runs
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 75.0)
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_share": "share",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

#: per-function metrics and the workloads on which each must see calls
DESIGNATED = {
    "sta.solve_similarity_raw": ("analyze",),
    "sta.identifiability_scan": ("analyze",),
    "realization.spt_minimal": ("analyze",),
    "realization.kalman_minimal": ("analyze",),
    "realization.det_cm_exact": ("analyze",),
    "exact.det": ("analyze",),
    "exact.solve": ("analyze",),
    "exact.matvec": ("analyze",),
    "ssm.build": ("recover-cube",),
    "accessible.generate": ("recover-cube",),
    "pauli.heisenberg_derivative": ("recover-cube",),
    "symca.symbolic_markov": ("recover-cube",),
    "symca.buchberger": ("recover-cube",),
    "symca.solve_identifiability": ("recover-cube",),
    "estimate.era": ("recover-ladder", "recover-cube"),
    "estimate.moment_chain_magnitudes": ("recover-ladder",),
    "estimate.simulate_record": ("recover-ladder", "recover-cube"),
    "estimate.save_record": ("recover-ladder", "recover-cube"),
    "estimate.load_record": ("recover-ladder", "recover-cube"),
    "ssm.impulse_response": ("recover-ladder", "recover-cube"),
    "pauli.dense_hamiltonian": ("oracle",),
    "estimate.exact_quantum_expectation": ("oracle",),
}
CALL_METRICS = ("sta.solve_similarity_raw", "ssm.build",
                "pauli.heisenberg_derivative", "estimate.era")
SIZE_CLASSES = sorted(
    {k.label for w in wl.WORKLOADS.values() for k in w.kinds},
    key=lambda label: (label.split(".")[0], int(label.split("N")[1])),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child: set up, say so, exit
    return p.parse_args(argv)


def load_cli():
    """Import the checkout's own package, never an installed copy."""
    src = ROOT / "src"
    if not (src / "chainsense" / "cli.py").is_file():
        raise SystemExit(f"error: no chainsense sources under {src}")
    sys.path.insert(0, str(src))
    import chainsense
    from chainsense import cli

    if Path(chainsense.__file__).resolve().parent != src / "chainsense":
        raise SystemExit(f"error: imported chainsense from {chainsense.__file__}")
    return chainsense, cli


def warm_up(cli, work, workdir) -> list[wl.OpResult]:
    return [wl.run_op(cli.main, work, op)
            for op in wl.warmup_ops(work, workdir)]


def probe_setup(args) -> float:
    """CPU time a fresh interpreter spends from its start until it has
    imported the package and warmed up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as child:
        line = child.stdout.readline().split()
        child.stdout.read()
        rc = child.wait(timeout=120)
    if rc != 0 or len(line) != 2 or line[0] != "ready":
        raise SystemExit(f"error: set-up probe failed (exit {rc})")
    return float(line[1])


class Phase:
    """Ops run back to back, each preceded by a pace kernel sample."""

    def __init__(self, cli, work, ops, seconds=None, tracer=None):
        deadline = time.perf_counter() + seconds if seconds is not None else None
        self.ops, self.results, samples = [], [], []
        for op in ops:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            samples.append(pace.kernel_ms())
            self.ops.append(op)
            self.results.append(wl.run_op(cli.main, work, op, tracer))
        samples.append(pace.kernel_ms())
        self.factors = pace.op_factors(samples)
        self.scaled_ms = [r.ms * f for r, f in zip(self.results, self.factors)]

    @property
    def failed(self) -> list[wl.OpResult]:
        return [r for r in self.results if not r.ok]

    def passed_ms(self, scaled: bool = True) -> list[float]:
        pairs = zip(self.results, self.scaled_ms)
        return sorted(ms if scaled else r.ms for r, ms in pairs if r.ok)

    def class_rows(self) -> dict[str, dict]:
        rows: dict[str, list[float]] = {}
        for r, ms in zip(self.results, self.scaled_ms):
            rows.setdefault(r.label, []).append(ms)
        return {label: {"ops": len(ms), "median_ms": statistics.median(ms)}
                for label, ms in sorted(rows.items())}


def tail_percentile(n: int) -> float:
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return 50.0


def nearest_rank(sorted_values, p: float) -> float:
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def stamp(chainsense, args, setup_raw) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "chainsense": chainsense.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "setup_raw_s": setup_raw,
    }


def end_to_end(phase: Phase, setups: list[float]) -> tuple[dict, dict]:
    latencies = phase.passed_ms() or [0.0]
    raw = phase.passed_ms(scaled=False) or [0.0]
    passed = [r for r in phase.results if r.ok]
    tail_p = tail_percentile(len(passed))
    values = {
        # the probes run in other processes, so set-up is scaled by the
        # timed phase's median pace factor: noisier run to run than raw
        # CPU time, but it follows the machine from one set of runs to
        # the next, where raw set-up medians moved by 26-37 %
        "setup_s": statistics.median(setups) * statistics.median(phase.factors),
        "ops_per_s": len(passed) / (sum(phase.scaled_ms) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": nearest_rank(latencies, tail_p),
        "pass_share": len(passed) / len(phase.results),
        "accuracy_digits": min(
            (wl.digits(r.error) for r in passed if r.error is not None),
            default=wl.DIGITS_CAP),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "tail_percentile": tail_p,
        "latency_samples": len(passed),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_tail_ms": nearest_rank(raw, tail_p),
        "median_pace_factor": statistics.median(phase.factors),
    }
    return values, info


def per_layer(tracer, untraced: Phase, traced: Phase) -> dict:
    n_ops = len(traced.results)
    raw_s = sum(r.ms for r in traced.results) / 1e3
    scaled_s = sum(traced.scaled_ms) / 1e3
    per_op = scaled_s / raw_s / n_ops  # raw seconds -> scaled seconds per op
    out: dict[str, tuple[float, str]] = {}
    for layer, total in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = (total * per_op, "s/op")
    for key in DESIGNATED:
        out[f"{key}.self_s"] = (tracer.self_s.get(key, 0.0) * per_op, "s/op")
    for key in CALL_METRICS:
        out[f"{key}.calls"] = (tracer.calls.get(key, 0) / n_ops, "calls/op")
    builds = tracer.calls.get("ssm.build", 0)
    out["ssm.build.reuse"] = (
        tracer.counters["ssm.build.distinct"] / builds if builds else 0.0,
        "share")
    out["symca.buchberger.pairs"] = (
        tracer.counters["symca.buchberger.pairs"] / n_ops, "pairs/op")
    era_calls = tracer.calls.get("estimate.era", 0)
    out["estimate.era.hankel_cells"] = (
        tracer.counters["estimate.era.hankel_cells"] / n_ops, "cells/op")
    out["estimate.era.ok_ratio"] = (
        tracer.counters["estimate.era.ok"] / era_calls if era_calls else 0.0,
        "share")
    rows = untraced.class_rows()
    for label in SIZE_CLASSES:
        out[f"op_ms.{label}"] = (rows.get(label, {}).get("median_ms", 0.0), "ms")
    untraced_s = sum(untraced.scaled_ms) / 1e3
    out["trace.ops"] = (float(n_ops), "count")
    out["trace.overhead_s"] = (scaled_s - untraced_s, "s")
    out["trace.overhead_share"] = ((scaled_s - untraced_s) / untraced_s, "share")
    return out


def trace_checks(work, tracer, untraced: Phase, traced: Phase) -> list[str]:
    """The traced replay must reproduce every report, account for every
    millisecond of op time, and reach every designated function."""
    problems = []
    mismatched = sum(a.digest != b.digest
                     for a, b in zip(untraced.results, traced.results))
    if mismatched:
        problems.append(f"{mismatched} traced reports differ from untraced")
    layer_sum = sum(tracer.layer_self_s().values())
    op_wall = sum(r.ms for r in traced.results) / 1e3
    if abs(layer_sum - op_wall) > 1e-6 * op_wall:
        problems.append(f"layer self times {layer_sum} != op wall {op_wall}")
    for key, names in DESIGNATED.items():
        if work.name in names and tracer.calls.get(key, 0) == 0:
            problems.append(f"{key} never called on {work.name}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    work = wl.WORKLOADS[args.workload]
    workdir = OUT / "work"
    if args.setup_probe:
        _, cli = load_cli()
        workdir.mkdir(parents=True, exist_ok=True)
        if not all(r.ok for r in warm_up(cli, work, workdir)):
            return 1
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    if not (ROOT / "src" / "chainsense" / "cli.py").is_file():
        print(f"error: no chainsense sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir.mkdir(parents=True, exist_ok=True)
    chainsense, cli = load_cli()
    problems = [f"warm-up {r.label}: {r.reason}"
                for r in warm_up(cli, work, workdir) if not r.ok]
    setups = [time.process_time()]
    if args.trace == 0:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]

    ops = wl.make_ops(work, random.Random(f"{work.name}:{args.seed}"), workdir)
    phase = Phase(cli, work, ops, seconds=args.seconds)
    failed = phase.failed
    attempted = len(phase.results)
    info = {"stamp": stamp(chainsense, args, setups),
            "size_classes": phase.class_rows()}

    if args.trace == 0:
        values, extra = end_to_end(phase, setups)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        info.update(extra)
    else:
        from spans import Tracer

        tracer = Tracer()
        info["wrapped_functions"] = tracer.install(chainsense)
        traced = Phase(cli, work, phase.ops, tracer=tracer)
        attempted += len(traced.results)
        failed += traced.failed
        problems += trace_checks(work, tracer, phase, traced)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer(tracer, phase, traced).items()}
        info["traced_ops"] = [[r.label, round(r.ms, 3), round(ms, 3)]
                              for r, ms in zip(traced.results, traced.scaled_ms)]
    problems += [f"{r.label}: {r.reason}" for r in failed[:5]]

    info["ops"] = [[r.label, round(r.ms, 3), round(ms, 3), r.ok, r.digest,
                    r.reason] for r, ms in zip(phase.results, phase.scaled_ms)]
    info["argv"] = [op.argvs for op in phase.ops]
    info["problems"] = problems
    info["metrics"] = metrics
    out_file = OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(info, indent=1) + "\n")

    for line in problems:
        print(f"# problem: {line}")
    print(f"# {work.name} seed {args.seed}: {attempted} ops attempted, "
          f"{len(failed)} failed")
    if args.trace == 0:
        print(f"# op_tail_ms is p{info['tail_percentile']:g} of "
              f"{info['latency_samples']} op latencies; unscaled p50 "
              f"{info['raw_op_p50_ms']:.3f} ms, tail "
              f"{info['raw_op_tail_ms']:.3f} ms, pace factor "
              f"{info['median_pace_factor']:.3f}")
    print("# stamp " + json.dumps(info["stamp"], sort_keys=True))
    print("# size classes " + json.dumps(info["size_classes"]))
    print(f"# per-op rows and report digests in {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
