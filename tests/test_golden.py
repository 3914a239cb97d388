"""Golden machine reports: each command's JSON report at fixed inputs,
checked against the committed corpus ``golden_reports.json``.

The corpus covers ``analyze`` for every catalog scheme at N = 1..7 and
seeds 0..2, ``simulate`` then ``estimate`` for both capable schemes at
fixed truths (noiseless and noisy) and for noiseless ladder records whose
Hankel gap lies near ``estimate.NOISELESS_GAP``, and ``oracle-check`` at
N = 2..5 for both capable schemes.  Each entry is the sha256 of the
command's exit code, stderr and machine report, with every float rounded
to ``SIGNIFICANT`` digits.  Fields that are rounding residues by design are
pinned by their bound, not by value.

A change that alters reports on purpose regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed entry, with its reason, in CHANGES.md.
"""

import hashlib
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chainsense import cli
from chainsense.accessible import CATALOG
from chainsense.prng import spawn_rng
from referees.prng import random_binding

CORPUS = Path(__file__).with_name("golden_reports.json")

#: floats are compared to this many significant digits
SIGNIFICANT = 12

#: (section, key) of report fields that are float rounding residues,
#: pinned by these bounds instead of by value
BOUNDED = {
    ("evidence", "probe_recovery_gap"): 1e-10,
    ("residuals", "oracle_max_residual"): 1e-8,
}

#: the two capable schemes: measurement, initial state, chain lengths
CAPABLE = {
    "ladder": ("ZaYb", "xa", range(2, 9)),
    "cube": ("YaZb", "xb", (1, 2)),
}

#: (samples, noise sigma) of each scheme's noisy record
NOISY = {"ladder": (400, 1e-6), "cube": (240, 1e-3)}

#: the cube truth of the README and of acceptance criterion 9: noisy
#: records at random cube truths are mostly refused, and at N = 2 it sits
#: on a surface where the realized order collapses from 12 to 8
CUBE_TRUTH = {"ha": 1.0, "hb": 0.8, "h1": 0.6}

#: factors on hb of a ladder N = 4 truth whose noiseless 400-sample records
#: put their first qualifying Hankel gap within a decade of
#: estimate.NOISELESS_GAP: at 2e-4 the record realizes order 6 at gap
#: 2.5e-7, and at 1e-4 it fails the fit check
WEAK_HB = (2e-4, 1e-4)


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{SIGNIFICANT}g}") if math.isfinite(value) \
            else repr(value)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def _pinned(report: dict) -> dict:
    for (section, key), bound in BOUNDED.items():
        block = report.get(section, {})
        if key in block:
            block[key] = f"<= {bound!r}" if block[key] <= bound else block[key]
    return report


def _run(argv: list[str], workdir: Path) -> dict:
    """Exit code, stderr and machine report (or None) of one command."""
    path = workdir / "report.json"
    path.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([*argv, "--report", str(path)])
    report = json.loads(path.read_text()) if path.exists() else None
    if report is not None:
        report = _rounded(_pinned(report))
    return {"exit": code, "stderr": err.getvalue(), "report": report}


def _truths(scheme: str, n: int):
    """(label, binding) of each truth a scheme's records are taken at."""
    names = ["ha", "hb"] + [f"h{i}" for i in range(1, n)]
    yield "random", random_binding(names, spawn_rng(0, "golden", scheme, n))
    if scheme == "cube":
        yield "readme", {k: CUBE_TRUTH[k] for k in names}


def _analyze(workdir: Path):
    for (meas, qubits), initials in sorted(CATALOG.items()):
        for initial in initials:
            for n in range(1, 8):
                for seed in range(3):
                    argv = ["analyze", "--measurement", meas,
                            "--sensor-qubits", str(qubits), "--initial",
                            initial, "--n-chain", str(n), "--seed", str(seed)]
                    key = f"analyze/{meas}@{qubits}q/{initial}/N{n}/seed{seed}"
                    yield key, _run(argv, workdir)


def _round_trip(workdir: Path, scheme: str, n: int, binding, count: int,
                sigma: float) -> dict:
    """Outcome of ``estimate`` on the record ``simulate`` writes."""
    meas, initial, _ = CAPABLE[scheme]
    record = workdir / "record.csv"
    flags = ["--measurement", meas, "--initial", initial, "--n-chain", str(n)]
    sets = [arg for k, v in binding.items() for arg in ("--set", f"{k}={v!r}")]
    with redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", *flags, *sets, "--count", str(count),
                         "--noise-sigma", repr(sigma), "--record",
                         str(record)])
    assert code == 0, f"simulate {scheme} N={n} sigma={sigma!r}"
    return _run(["estimate", *flags, *sets, "--record", str(record)], workdir)


def _estimate(workdir: Path):
    for scheme, (_, _, lengths) in CAPABLE.items():
        for n in lengths:
            for truth, binding in _truths(scheme, n):
                for label, (count, sigma) in (("noiseless", (400, 0.0)),
                                              ("noisy", NOISY[scheme])):
                    key = f"estimate/{scheme}/N{n}/{truth}/{label}"
                    yield key, _round_trip(workdir, scheme, n, binding,
                                           count, sigma)
    names = ["ha", "hb", "h1", "h2", "h3"]
    truth = random_binding(names, spawn_rng(7, "gap"))
    for factor in WEAK_HB:
        binding = {**truth, "hb": truth["hb"] * factor}
        key = f"estimate/ladder/N4/hb-times-{factor!r}/noiseless"
        yield key, _round_trip(workdir, "ladder", 4, binding, 400, 0.0)


def _oracle(workdir: Path):
    for scheme, (meas, initial, _) in CAPABLE.items():
        for n in range(2, 6):
            argv = ["oracle-check", "--measurement", meas, "--initial",
                    initial, "--n-chain", str(n), "--seed", "0"]
            yield f"oracle-check/{scheme}/N{n}", _run(argv, workdir)


COMMANDS = {"analyze": _analyze, "estimate": _estimate,
            "oracle-check": _oracle}


def digest(outcome: dict) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcomes(command: str) -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return dict(COMMANDS[command](Path(tmp)))


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_reports_match_the_golden_corpus(corpus, command):
    got = {key: digest(out) for key, out in outcomes(command).items()}
    want = {k: v for k, v in corpus.items() if k.startswith(command + "/")}
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in got if got[key] != want[key])
    assert not changed, f"{len(changed)} reports changed: {changed}"


def test_bounded_fields_are_pinned_by_their_bound():
    report = {"evidence": {"probe_recovery_gap": 2e-10},
              "residuals": {"oracle_max_residual": 3e-12}}
    assert _pinned(report) == {
        "evidence": {"probe_recovery_gap": 2e-10},
        "residuals": {"oracle_max_residual": "<= 1e-08"},
    }


def test_floats_round_to_the_pinned_digits():
    assert _rounded({"a": [0.1 + 0.2, 1 / 3, 7], "b": math.inf}) == {
        "a": [0.3, 0.333333333333, 7], "b": "inf"}


if __name__ == "__main__":
    entries = {key: digest(out) for command in COMMANDS
               for key, out in outcomes(command).items()}
    CORPUS.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(entries)} entries to {CORPUS}\n")
