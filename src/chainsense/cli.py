"""Command-line front end over the sensing catalog.

Verbs: analyze (identifiability verdict with evidence), simulate (write a
record CSV), estimate (recover magnitudes from a record), oracle-check
(model-vs-quantum and closed-form residuals), report (re-render a saved
machine report).

Reports come in two renderings that agree on every value: a JSON document
(sorted keys, byte-identical across runs for a fixed config and seed) and
an aligned text view.  Wall-clock runtime appears only in the text view so
the JSON stays deterministic.

Exit codes: 0 success, 2 inadmissible config, 3 unidentifiable-scheme
refusal, 4 numeric/diagnostic failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimate, realization, ssm, sta
from .accessible import CATALOG, SensorConfig
from .errors import (
    BudgetExceeded,
    ChainsenseError,
    InadmissibleConfig,
    NumericFailure,
    UnidentifiableScheme,
)
from .prng import rational_binding, spawn_rng


# -- run configuration -------------------------------------------------------


@dataclass
class RunConfig:
    """Everything a command needs, merged from defaults, file, and flags."""

    n_chain: int = 2
    sensor_qubits: int = 2
    measurement: str = "ZaYb"
    initial: str | None = None
    h_values: dict[str, float] | None = None
    dt: float | None = None
    count: int = 120
    noise_sigma: float = 0.0
    seed: int = 0
    record_path: str | None = None
    report_path: str | None = None

    def sensor_config(self) -> SensorConfig:
        initial = self.initial
        options = CATALOG.get((self.measurement, self.sensor_qubits), ())
        if initial is None and len(options) > 1:
            raise InadmissibleConfig(
                f"scheme {self.measurement}@{self.sensor_qubits}q admits "
                f"several initial states ({', '.join(options)}); "
                "pick one with --initial"
            )
        if initial is None and options:
            initial = options[0]
        # SensorConfig refuses a scheme outside the catalog
        return SensorConfig(self.n_chain, self.sensor_qubits,
                            self.measurement, initial)


class _Setting(NamedTuple):
    attr: str  # RunConfig field
    section: str  # config-file section
    key: str  # config-file key; the flag is --key with dashes
    type: type
    help: str | None = None


_SETTINGS = (
    _Setting("n_chain", "scheme", "n_chain", int),
    _Setting("sensor_qubits", "scheme", "sensor_qubits", int),
    _Setting("measurement", "scheme", "measurement", str,
             "measurement label, e.g. ZaYb"),
    _Setting("initial", "scheme", "initial", str,
             "initial-state label, e.g. xa"),
    _Setting("dt", "sampling", "dt", float),
    _Setting("count", "sampling", "count", int),
    _Setting("noise_sigma", "sampling", "noise_sigma", float),
    _Setting("seed", "sampling", "seed", int),
    _Setting("record_path", "output", "record", str, "record CSV path"),
    _Setting("report_path", "output", "report", str,
             "machine-readable report path"),
)


def _read_text(path: str, what: str) -> str:
    """Contents of a file the CLI reads; any failure is inadmissible input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InadmissibleConfig(f"{what} {path!r} not found") from None
    except UnicodeDecodeError:
        raise InadmissibleConfig(f"{what} {path!r} is not UTF-8 text") from None
    except OSError as err:
        raise InadmissibleConfig(f"{what} {path!r}: {err.strerror}") from None


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise InadmissibleConfig(
            f"cannot write {what} {path!r}: {err.strerror}"
        ) from None


def read_config_file(path: str) -> dict:
    """Parse the key=value section file into a flat RunConfig override dict.

    Values are literal: ``%`` is not an interpolation marker.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path, "config file"), source=path)
    except configparser.Error as err:  # its messages span several lines
        raise InadmissibleConfig(" ".join(str(err).split())) from None
    known = {(s.section, s.key): s for s in _SETTINGS}
    out: dict = {}
    for section in parser.sections():
        if section != "truth" and section not in {s.section for s in _SETTINGS}:
            raise InadmissibleConfig(
                f"config file {path!r}: unknown section [{section}]"
            )
        for key, raw in parser[section].items():
            setting = known.get((section, key))
            if section != "truth" and setting is None:
                raise InadmissibleConfig(
                    f"config file {path!r}: unknown key {key!r} in "
                    f"[{section}]"
                )
            kind = float if setting is None else setting.type
            try:
                value = kind(raw)
            except ValueError:
                raise InadmissibleConfig(
                    f"config file {path!r}: [{section}] {key} = {raw!r} is "
                    f"not a valid {kind.__name__}"
                ) from None
            if setting is None:  # [truth]: any parameter name
                out.setdefault("h_values", {})[key] = value
            else:
                out[setting.attr] = value
    return out


def build_run_config(args: argparse.Namespace) -> RunConfig:
    run = RunConfig()
    if args.config:
        for attr, value in read_config_file(args.config).items():
            setattr(run, attr, value)
    for setting in _SETTINGS:
        value = getattr(args, setting.key)
        if value is not None:
            setattr(run, setting.attr, value)
    if args.set:
        values = dict(run.h_values or {})
        for item in args.set:
            if "=" not in item:
                raise InadmissibleConfig(
                    f"--set expects name=value, got {item!r}"
                )
            name, _, raw = item.partition("=")
            try:
                values[name.strip()] = float(raw)
            except ValueError:
                raise InadmissibleConfig(
                    f"--set {item!r}: {raw!r} is not a number"
                ) from None
        run.h_values = values
    for name, value in (run.h_values or {}).items():
        if not math.isfinite(value):
            raise InadmissibleConfig(f"coupling {name} = {value} is not finite")
    return run


def _refuse_flags(args: argparse.Namespace, command: str, *dests: str) -> None:
    """Refuse the command-line flags among ``dests`` that ``command`` would
    ignore.  Config-file sections stay accepted: one file serves every
    command."""
    given = [dest for dest in dests if getattr(args, dest) is not None]
    if given:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
        raise InadmissibleConfig(f"{command} does not use {flags}")


def auto_dt(model: ssm.StateSpaceModel, binding: dict[str, float]) -> float:
    bound = ssm.spectral_bound(model, binding)
    dt = 0.8 * estimate.BRANCH_SAFETY / bound if bound else math.inf
    if not math.isfinite(dt):
        raise InadmissibleConfig(
            f"the couplings (spectral bound {bound!r}) are too small to set "
            "a sampling interval; give one with --dt"
        )
    return dt


# -- reports -----------------------------------------------------------------


# the dict-valued parts of a report
_SECTIONS = ("scheme", "verdicts", "estimates", "residuals", "evidence")


@dataclass
class Report:
    command: str
    scheme: dict
    verdicts: dict
    estimates: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    seed: int = 0
    runtime_s: float = 0.0

    def payload(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            **{key: getattr(self, key) for key in _SECTIONS},
        }

    def machine_text(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def human_text(self) -> str:
        lines = [f"chainsense {self.command}"]
        tag = self.scheme.get("tag", "?")
        lines.append(
            f"  scheme     {tag}  chain length {self.scheme.get('n_chain')}"
            f"  class {self.scheme.get('capability')}"
        )
        for section in _SECTIONS[1:]:  # the scheme has its own line
            data = getattr(self, section)
            if not data:
                continue
            lines.append(f"  {section}:")
            for key in sorted(data):
                lines.append(f"    {key} = {_show(data[key])}")
        lines.append(f"  seed       {self.seed}")
        lines.append(f"  runtime    {self.runtime_s:.2f} s  (text view only)")
        return "\n".join(lines) + "\n"


def _show(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{k}={_show(value[k])}" for k in sorted(value))
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return repr(value) if isinstance(value, str) else str(value)


def emit(report: Report, run: RunConfig) -> None:
    sys.stdout.write(report.human_text())
    if run.report_path:
        _write_text(run.report_path, report.machine_text(), "report")
        sys.stdout.write(f"  report written to {run.report_path}\n")


def _scheme_block(config: SensorConfig) -> dict:
    return {
        "tag": config.scheme_tag,
        "n_chain": config.n_chain,
        "initial": config.initial_label,
        "capability": config.capability,
    }


# -- analyze -----------------------------------------------------------------


def _generic_probe(model, rng, capability):
    """A random exact binding, redrawn where the cube's order collapses.

    At N = 2 the cube's one-particle energies e1 < e2 have
    e1^2 + e2^2 = s = ha^2 + hb^2 + h1^2 and e1 e2 = |ha h1| (in units of
    the exchange prefactor).  Its minimal order counts the distinct nonzero
    values of +-e1, +-e2, +-(2 e1 +- e2) and +-(2 e2 +- e1): 12, but 10
    where e2 = 2 e1 (25 ha^2 h1^2 = 4 s^2) and 8 where e2 = 3 e1
    (100 ha^2 h1^2 = 9 s^2).
    """
    for _ in range(10):
        binding = rational_binding(model.param_ids, rng)
        if capability == "cube" and model.config.n_chain == 2:
            p = (binding["ha"] * binding["h1"]) ** 2
            s2 = sum(v * v for v in binding.values()) ** 2
            if 25 * p == 4 * s2 or 100 * p == 9 * s2:
                continue
        return binding
    return binding


def cmd_analyze(args: argparse.Namespace) -> int:
    _refuse_flags(args, "analyze", "set", "dt", "count", "noise_sigma",
                 "record")
    run = build_run_config(args)
    started = time.perf_counter()
    config = run.sensor_config()
    capability = config.capability
    model = ssm.build(config)
    verdicts: dict = {}
    evidence: dict = {"state_dim": model.dim}

    rng = spawn_rng(run.seed, "analyze", config.scheme_tag, str(run.n_chain))
    probe = _generic_probe(model, rng, capability)

    if capability == "orthogonal":
        _, b, _ = ssm.evaluate(model, probe)
        times = np.linspace(0.0, 8.0, 33)
        y = ssm.impulse_response(model, probe, times)
        verdicts["identifiability"] = "incapable"
        verdicts["reason"] = (
            "initial state has zero overlap with the accessible operators "
            "(x0 = 0), so the readout is identically zero"
        )
        evidence["x0_norm"] = float(np.linalg.norm(b))
        evidence["max_response"] = float(np.max(np.abs(y)))
    elif capability == "ladder":
        _, obs_rank = realization.observability_rank(model, probe)
        expected_deficiency = 0 if run.n_chain % 2 == 0 else 1
        det_cm = realization.det_cm_exact(model, probe)
        det_closed = realization.det_cm_closed_form(run.n_chain, probe)
        minimal = realization.kalman_minimal(model, probe)
        scan = sta.identifiability_scan(
            model, trials=2, seed=run.seed, n_perturb=8
        )
        verdicts["identifiability"] = "identifiable-in-magnitude"
        verdicts["reason"] = (
            "sign flips of the unknown couplings are output-equivalent; "
            "magnitude changes are not"
        )
        evidence["observability_rank"] = obs_rank
        evidence["observability_deficiency"] = model.dim - obs_rank
        evidence["expected_deficiency"] = expected_deficiency
        evidence["det_cm_nonzero"] = det_cm != 0
        evidence["det_cm_matches_closed_form"] = det_cm == det_closed
        evidence["minimal_order"] = minimal.order
        evidence["scan_clean"] = scan.all_clean
        evidence["scan_trials"] = len(scan.trials)
        if obs_rank != model.dim - expected_deficiency or not scan.all_clean:
            verdicts["identifiability"] = "inconclusive"
            verdicts["reason"] = "structural evidence disagreed at the probe"
    elif run.n_chain <= 2:
        minimal = realization.kalman_minimal(model, probe)
        a, b, c = ssm.evaluate_exact(model, probe)
        solved, recovered = estimate.cube_elimination(
            model, ssm.markov(a, b, c, 2 * run.n_chain + 2)
        )
        verdicts["identifiability"] = (
            "identifiable" if solved.verdict == "unique" else "inconclusive"
        )
        verdicts["reason"] = (
            "odd Markov parameters determine the sensing coupling and every "
            "squared magnitude through a triangular elimination"
            if solved.verdict == "unique"
            else f"elimination verdict {solved.verdict!r} at the probe"
        )
        evidence["minimal_order"] = minimal.order
        evidence["elimination_verdict"] = solved.verdict
        if recovered is not None:
            evidence["probe_recovery_gap"] = max(
                abs(recovered[p] - abs(float(probe[p]))) for p in recovered
            )
    else:
        verdicts["identifiability"] = "undecided"
        verdicts["reason"] = (
            "the elimination route for this scheme is established for "
            "chains of one or two spins only"
        )

    report = Report(
        command="analyze",
        scheme=_scheme_block(config),
        verdicts=verdicts,
        evidence=evidence,
        seed=run.seed,
        runtime_s=time.perf_counter() - started,
    )
    emit(report, run)
    return 0


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    if not run.h_values:
        raise InadmissibleConfig(
            "simulate needs ground-truth couplings: give a [truth] section "
            "or --set name=value flags"
        )
    config = run.sensor_config()
    model = ssm.build(config)
    ssm.check_binding(model, run.h_values)
    dt = run.dt if run.dt is not None else auto_dt(model, run.h_values)
    record = estimate.simulate_record(
        model, run.h_values, dt, run.count,
        noise_sigma=run.noise_sigma, seed=run.seed,
    )
    path = run.record_path or "record.csv"
    _write_text(path, estimate.record_to_text(record), "record")
    if config.capability == "orthogonal":
        sys.stdout.write(
            "warning: this scheme reads out identically zero; the record "
            "carries no parameter information\n"
        )
    sys.stdout.write(
        f"wrote {record.count} samples to {path} "
        f"(scheme {record.scheme_tag}, dt {record.dt!r}, "
        f"noise {record.noise_sigma!r}, seed {record.seed})\n"
    )
    return 0


# -- estimate ----------------------------------------------------------------


def cmd_estimate(args: argparse.Namespace) -> int:
    run = build_run_config(args)
    started = time.perf_counter()
    if not run.record_path:
        raise InadmissibleConfig("estimate needs --record pointing at a CSV")
    config = run.sensor_config()
    couplings = config.hamiltonian().param_ids
    unknown = sorted(set(run.h_values or {}) - set(couplings))
    if unknown:
        raise InadmissibleConfig(
            f"truth names unknown coupling {', '.join(unknown)}; this "
            f"scheme's couplings are {', '.join(couplings)}"
        )
    record = estimate.record_from_text(_read_text(run.record_path, "record"))
    result = estimate.recover_parameters(record, config)
    verdicts = {
        "method": result.method,
        "realized_order": result.realization.order,
    }
    route = result.diagnostics.get("denominator_route")
    if route is not None:
        verdicts["denominator_route_agrees"] = bool(route["agrees"])
    estimates = {k: float(v) for k, v in sorted(result.magnitudes.items())}
    residuals: dict = {}
    if run.h_values:
        gaps = {
            k: abs(estimates[k] - abs(run.h_values[k]))
            for k in estimates
            if k in run.h_values
        }
        residuals = {f"abs_err_{k}": v for k, v in gaps.items()}
        if gaps:
            residuals["max_abs_err"] = max(gaps.values())
    report = Report(
        command="estimate",
        scheme=_scheme_block(config),
        verdicts=verdicts,
        estimates=estimates,
        residuals=residuals,
        evidence={
            "record_count": record.count,
            "record_noise_sigma": record.noise_sigma,
            "signed_first_coupling": result.diagnostics.get(
                "signed_first_coupling"
            ),
        },
        seed=run.seed,
        runtime_s=time.perf_counter() - started,
    )
    emit(report, run)
    return 0


# -- oracle-check ------------------------------------------------------------


def cmd_oracle_check(args: argparse.Namespace) -> int:
    _refuse_flags(args, "oracle-check", "dt", "count", "noise_sigma", "record")
    run = build_run_config(args)
    started = time.perf_counter()
    config = run.sensor_config()
    model = ssm.build(config)
    rng = spawn_rng(run.seed, "oracle-check", config.scheme_tag,
                    str(run.n_chain))
    if run.h_values:
        ssm.check_binding(model, run.h_values)
        binding = dict(run.h_values)
    else:
        binding = {
            k: float(v) for k, v in rational_binding(
                model.param_ids, rng
            ).items()
        }
    times = np.linspace(0.0, 10.0, 50)
    y_model = ssm.impulse_response(model, binding, times)
    y_quantum = estimate.exact_quantum_expectation(
        config.hamiltonian(), config.initial_state(),
        config.measurement_string(), binding, times,
    )
    oracle_residual = float(np.max(np.abs(y_model - y_quantum)))
    # each side's rounding error grows like eps * t * |A|, so agreement is
    # judged on that scale; past 1e-3 a residual no longer tells a right
    # model from a wrong one
    bound = ssm.spectral_bound(model, binding)
    float_error = 16 * np.finfo(float).eps * times[-1] * bound
    if float_error > 1e-3:
        raise NumericFailure(
            f"spectral bound {bound:.3e} is too large to check: the float "
            f"error of either side reaches {float_error:.1e}, above 1e-3"
        )

    verdicts = {"oracle_agreement": oracle_residual <= max(1e-8, float_error)}
    residuals = {"oracle_max_residual": oracle_residual}
    evidence: dict = {"times_checked": len(times)}

    # closed-form cross-checks on the two-qubit ladder family
    ladders = {n: ssm.build(SensorConfig(n, 2, "ZaYb", "xa"))
               for n in (2, 3, 4, 5)}
    ladder_checks = {}
    for n, lmodel in ladders.items():
        lbind = rational_binding(
            lmodel.param_ids, spawn_rng(run.seed, "oracle-closed", str(n))
        )
        det = realization.det_cm_exact(lmodel, lbind)
        closed = realization.det_cm_closed_form(n, lbind)
        ladder_checks[f"det_cm_N{n}"] = det == closed
    for n in (3, 5):
        lmodel = ladders[n]
        lbind = rational_binding(
            lmodel.param_ids, spawn_rng(run.seed, "oracle-spt", str(n))
        )
        _, artifacts = realization.spt_minimal(lmodel, lbind)
        closed = realization.det_p_bar_closed_form(n, lbind)
        ladder_checks[f"det_p_bar_N{n}"] = artifacts.det_p_bar == closed
    evidence.update(ladder_checks)
    verdicts["closed_forms_match"] = all(ladder_checks.values())

    report = Report(
        command="oracle-check",
        scheme=_scheme_block(config),
        verdicts=verdicts,
        residuals=residuals,
        evidence=evidence,
        seed=run.seed,
        runtime_s=time.perf_counter() - started,
    )
    emit(report, run)
    return 0


# -- report ------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    text = _read_text(args.path, "report file")
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict) or not all(
            isinstance(payload.get(key, {}), dict) for key in _SECTIONS
        ):
            raise InadmissibleConfig(
                f"report file {args.path!r} is not a chainsense report object"
            )
        report = Report(
            command=payload.get("command", "?"),
            seed=payload.get("seed", 0),
            **{key: payload.get(key, {}) for key in _SECTIONS},
        )
        rendered = report.human_text()
    except json.JSONDecodeError as err:
        raise InadmissibleConfig(
            f"report file {args.path!r} is not valid JSON: {err}"
        ) from None
    except RecursionError:  # from json.loads or from _show
        raise InadmissibleConfig(
            f"report file {args.path!r} is nested too deeply to read"
        ) from None
    sys.stdout.write(rendered)
    return 0


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are inadmissible input, so ``main``
    prints them as one ``error:`` line and returns 2.  Subparsers are made
    from the parser's own class and inherit this."""

    def error(self, message):
        raise InadmissibleConfig(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainsense",
        description="identifiability analysis and estimation for "
                    "sensor-probed coupling chains",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value section file")
    common.add_argument("--set", action="append", metavar="NAME=VALUE",
                        help="ground-truth coupling (repeatable)")
    for setting in _SETTINGS:
        common.add_argument("--" + setting.key.replace("_", "-"),
                            type=setting.type, help=setting.help)

    p = sub.add_parser("analyze", parents=[common],
                       help="identifiability verdict with evidence")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("simulate", parents=[common],
                       help="write a sampled-record CSV")
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("estimate", parents=[common],
                       help="recover coupling magnitudes from a record")
    p.set_defaults(func=cmd_estimate)
    p = sub.add_parser("oracle-check", parents=[common],
                       help="model-vs-quantum and closed-form residuals")
    p.set_defaults(func=cmd_oracle_check)
    p = sub.add_parser("report", help="render a saved machine report")
    p.add_argument("path")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UnidentifiableScheme as err:
        sys.stderr.write(f"refused: {err}\n")
        return 3
    except (NumericFailure, BudgetExceeded) as err:
        sys.stderr.write(f"numeric failure: {err}\n")
        return 4
    except ChainsenseError as err:  # inadmissible input, oracle size cap
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
