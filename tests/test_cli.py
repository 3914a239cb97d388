"""CLI contract tests: verbs, exit codes, determinism, report agreement."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainsense import cli, estimate, realization, ssm
from chainsense.accessible import CATALOG, SensorConfig
from chainsense.prng import random_binding, rational_binding, spawn_rng


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_bytes(path, data):
    path.write_bytes(data)
    return path


def one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1


def scheme_flags(flags):
    """``flags`` without its --set truths, which analyze refuses."""
    return flags[:flags.index("--set")]


# -- analyze -----------------------------------------------------------------


def test_analyze_single_qubit_incapable(capsys):
    code, out, _ = run_cli(
        ["analyze", "--sensor-qubits", "1", "--measurement", "Yb",
         "--n-chain", "3"], capsys)
    assert code == 0
    assert "incapable" in out
    assert "x0 = 0" in out


def test_analyze_ladder_identifiable_in_magnitude(capsys):
    code, out, _ = run_cli(
        ["analyze", "--measurement", "ZaYb", "--n-chain", "4"], capsys)
    assert code == 0
    assert "identifiable-in-magnitude" in out
    assert "scan_clean = True" in out
    assert "det_cm_matches_closed_form = True" in out


@pytest.mark.parametrize("n_chain", [20, 21, 24, 33, 40])
def test_analyze_long_ladder_identifiable_in_magnitude(tmp_path, capsys,
                                                       n_chain):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["analyze", "--measurement", "ZaYb", "--n-chain", str(n_chain),
         "--seed", "3", "--report", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdicts"]["identifiability"] == "identifiable-in-magnitude"
    dim = payload["evidence"]["state_dim"]
    assert payload["evidence"]["observability_rank"] == dim - n_chain % 2
    assert payload["evidence"]["minimal_order"] == dim - n_chain % 2
    assert payload["evidence"]["scan_clean"] is True


def test_analyze_referee_disagreement_is_numeric_failure(capsys, monkeypatch):
    spt_minimal = realization.spt_minimal

    def skewed(model, binding):
        minimal, art = spt_minimal(model, binding)
        minimal.a_min[0][0] += 1e-6
        return minimal, art

    monkeypatch.setattr(realization, "spt_minimal", skewed)
    code, _, err = run_cli(
        ["analyze", "--measurement", "ZaYb", "--n-chain", "3"], capsys)
    assert code == 4
    assert "exact" in err


def test_analyze_orthogonal_two_qubit_incapable(capsys):
    for initial in ("xa", "xb", "xaxb"):
        code, out, _ = run_cli(
            ["analyze", "--measurement", "YaYb", "--initial", initial,
             "--n-chain", "2"], capsys)
        assert code == 0
        assert "incapable" in out


def test_analyze_cube_identifiable(capsys):
    code, out, _ = run_cli(
        ["analyze", "--measurement", "YaZb", "--n-chain", "2"], capsys)
    assert code == 0
    assert "'identifiable'" in out
    assert "minimal_order = 12" in out


def test_analyze_cube_probe_redraws_off_collapse_surfaces(capsys):
    # seed 1662 first draws (5/4, -15/16, 25/16), where the one-particle
    # energies have e2 = 2 e1 (25 ha^2 h1^2 = 4 s^2) and the order is 10
    model = ssm.build(SensorConfig(2, 2, "YaZb", "xb"))
    rng = spawn_rng(1662, "analyze", model.config.scheme_tag, "2")
    first = rational_binding(model.param_ids, rng)
    s = sum(v * v for v in first.values())
    assert 25 * (first["ha"] * first["h1"]) ** 2 == 4 * s ** 2
    code, out, _ = run_cli(
        ["analyze", "--measurement", "YaZb", "--initial", "xb",
         "--n-chain", "2", "--seed", "1662"], capsys)
    assert code == 0
    assert "minimal_order = 12" in out


def test_analyze_cube_long_chain_undecided(capsys):
    code, out, _ = run_cli(
        ["analyze", "--measurement", "YaZb", "--n-chain", "4"], capsys)
    assert code == 0
    assert "undecided" in out


def test_analyze_rejects_unknown_measurement(capsys):
    code, _, err = run_cli(
        ["analyze", "--measurement", "XaXb", "--n-chain", "2"], capsys)
    assert code == 2
    assert "not in the catalog" in err


@pytest.mark.parametrize("argv, named", [
    (["analyze", "--count", "abc"], "--count"),
    (["simulate", "--n-chain", "2.5"], "--n-chain"),
    (["analyze", "--no-such-flag"], "--no-such-flag"),
    (["frobnicate"], "frobnicate"),
    ([], "verb"),
    (["report"], "path"),
])
def test_malformed_arguments_are_one_line_errors(capsys, argv, named):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert one_line_error(err) and named in err


def test_help_still_prints_usage_and_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chainsense analyze")


def test_analyze_requires_initial_when_ambiguous(capsys):
    code, _, err = run_cli(
        ["analyze", "--measurement", "Zb", "--sensor-qubits", "2",
         "--n-chain", "2"], capsys)
    assert code == 2
    assert "--initial" in err


def test_analyze_catalog_verdicts_all_schemes(capsys):
    """Every catalog scheme analyzed at N in {2,3,4} without error; the
    capable pair is exactly {ladder, cube-or-undecided}."""
    expected = {
        ("Yb", 1): "incapable",
        ("Zb", 1): "incapable",
        ("ZaYb", 2): "identifiable-in-magnitude",
        ("YaZb", 2): "identifiable",
        ("YaYb", 2): "incapable",
        ("ZaZb", 2): "incapable",
        ("Yb", 2): "incapable",
        ("Zb", 2): "incapable",
    }
    for (meas, nq), want in expected.items():
        for n in (2, 3, 4):
            argv = ["analyze", "--measurement", meas, "--sensor-qubits",
                    str(nq), "--n-chain", str(n)]
            if nq == 2 and meas in ("YaYb", "ZaZb", "Yb", "Zb"):
                argv += ["--initial", "xa"]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            if want == "identifiable" and n > 2:
                assert "undecided" in out
            else:
                assert want in out


# -- simulate ----------------------------------------------------------------


CUBE_FLAGS = ["--measurement", "YaZb", "--n-chain", "2",
              "--set", "ha=1.0", "--set", "hb=0.8", "--set", "h1=0.6"]


def test_simulate_writes_matching_record(tmp_path, capsys):
    path = tmp_path / "rec.csv"
    code, out, _ = run_cli(
        ["simulate", *CUBE_FLAGS, "--count", "40", "--record", str(path)],
        capsys)
    assert code == 0
    assert "wrote 40 samples" in out
    rec = estimate.record_from_text(path.read_text())
    cfg = SensorConfig(2, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    expect = ssm.impulse_response(
        model, {"ha": 1.0, "hb": 0.8, "h1": 0.6}, rec.times)
    assert np.array_equal(rec.values, expect)


def test_simulate_same_seed_identical_files(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", *CUBE_FLAGS, "--count", "30", "--noise-sigma",
            "0.001", "--seed", "5"]
    assert run_cli(argv + ["--record", str(p1)], capsys)[0] == 0
    assert run_cli(argv + ["--record", str(p2)], capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_single_qubit_zeros_with_warning(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    code, out, _ = run_cli(
        ["simulate", "--sensor-qubits", "1", "--measurement", "Yb",
         "--n-chain", "2", "--set", "hb=0.8", "--set", "h1=0.5",
         "--count", "20", "--record", str(path)], capsys)
    assert code == 0
    assert "warning" in out
    rec = estimate.record_from_text(path.read_text())
    assert np.all(rec.values == 0.0)


def test_simulate_requires_truth(capsys):
    code, _, err = run_cli(
        ["simulate", "--measurement", "YaZb", "--n-chain", "2"], capsys)
    assert code == 2
    assert "ground-truth" in err


def test_simulate_rejects_incomplete_truth(capsys):
    code, _, err = run_cli(
        ["simulate", "--measurement", "YaZb", "--n-chain", "2",
         "--set", "ha=1.0"], capsys)
    assert code == 2
    assert "missing" in err


def test_simulate_rejects_coarse_dt(capsys):
    code, _, err = run_cli(
        ["simulate", *CUBE_FLAGS, "--dt", "2.0"], capsys)
    assert code == 2
    assert "too coarse" in err


@pytest.mark.parametrize("dt", ["0", "-0.1"])
def test_simulate_rejects_non_positive_dt(tmp_path, capsys, dt):
    rec_path = tmp_path / "rec.csv"
    code, _, err = run_cli(
        ["simulate", *CUBE_FLAGS, "--dt", dt, "--record", str(rec_path)],
        capsys)
    assert code == 2
    assert "finite and positive" in err
    assert not rec_path.exists()


@pytest.mark.parametrize("flags,named", [
    (["--noise-sigma", "nan"], "noise_sigma nan"),
    (["--noise-sigma", "inf"], "noise_sigma inf"),
    (["--set", "h1=inf"], "coupling h1"),
], ids=["sigma-nan", "sigma-inf", "coupling-inf"])
def test_simulate_rejects_non_finite_inputs(tmp_path, capsys, flags, named):
    rec_path = tmp_path / "rec.csv"
    code, _, err = run_cli(
        ["simulate", *CUBE_FLAGS, *flags, "--record", str(rec_path)], capsys)
    assert code == 2
    assert named in err and "finite" in err
    assert not rec_path.exists()


@pytest.mark.parametrize("ha", ["0", "1e-320"], ids=["zero", "subnormal"])
def test_simulate_vanishing_couplings_need_dt(tmp_path, capsys, ha):
    # no coupling sets a usable time scale, so the default interval is
    # undefined (zero) or overflows (subnormal)
    flags = ["--measurement", "ZaYb", "--n-chain", "2",
             "--set", f"ha={ha}", "--set", "hb=0", "--set", "h1=0"]
    rec_path = tmp_path / "rec.csv"
    code, out, err = run_cli(
        ["simulate", *flags, "--record", str(rec_path)], capsys)
    assert code == 2 and out == ""
    assert one_line_error(err) and "give one with --dt" in err
    assert not rec_path.exists()
    code, _, _ = run_cli(
        ["simulate", *flags, "--dt", "0.1", "--count", "8",
         "--record", str(rec_path)], capsys)
    assert code == 0
    record = estimate.record_from_text(rec_path.read_text())
    assert record.count == 8 and record.dt == 0.1
    assert np.max(np.abs(record.values)) < 1e-300


# -- estimate ----------------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_estimate_refuses_non_finite_truth(tmp_path, capsys, value, source):
    rec_path = tmp_path / "rec.csv"
    assert run_cli(["simulate", *CUBE_FLAGS, "--record", str(rec_path)],
                   capsys)[0] == 0
    report = tmp_path / "report.json"
    argv = ["estimate", "--measurement", "YaZb", "--n-chain", "2",
            "--record", str(rec_path), "--report", str(report)]
    if source == "flag":
        argv += ["--set", "ha=1.0", "--set", f"hb={value}"]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[truth]\nha = 1.0\nhb = {value}\n")
        argv += ["--config", str(cfg_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert one_line_error(err) and "coupling hb" in err and "finite" in err
    assert not report.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_estimate_refuses_unknown_truth_name(tmp_path, capsys, source):
    rec_path = tmp_path / "rec.csv"
    assert run_cli(["simulate", *CUBE_FLAGS, "--record", str(rec_path)],
                   capsys)[0] == 0
    report = tmp_path / "report.json"
    argv = ["estimate", "--measurement", "ZaYb", "--n-chain", "2",
            "--record", str(rec_path), "--report", str(report)]
    if source == "flag":
        argv += ["--set", "zz=1", "--set", "hb=0.8"]
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[truth]\nzz = 1\nhb = 0.8\n")
        argv += ["--config", str(cfg_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert one_line_error(err) and "unknown coupling zz" in err
    assert "ha, hb, h1" in err
    assert not report.exists()


def test_estimate_accepts_a_partial_truth(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    code, out, _ = run_cli(
        ["estimate", "--measurement", "YaZb", "--n-chain", "2",
         "--set", "hb=0.8", "--record", str(rec_path)], capsys)
    assert code == 0
    assert "abs_err_hb" in out and "abs_err_ha" not in out


def test_estimate_cube_round_trip(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *CUBE_FLAGS, "--count", "120",
             "--record", str(rec_path)], capsys)
    code, out, _ = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 0
    match = re.search(r"max_abs_err = (\S+)", out)
    assert match is not None
    assert float(match.group(1)) < 1e-6


def test_estimate_ladder_round_trip(tmp_path, capsys):
    flags = ["--measurement", "ZaYb", "--n-chain", "5",
             "--set", "ha=1.0", "--set", "hb=0.9", "--set", "h1=1.2",
             "--set", "h2=0.7", "--set", "h3=1.1", "--set", "h4=0.8"]
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *flags, "--count", "72", "--record",
             str(rec_path)], capsys)
    code, out, _ = run_cli(
        ["estimate", *flags, "--record", str(rec_path)], capsys)
    assert code == 0
    match = re.search(r"max_abs_err = (\S+)", out)
    assert float(match.group(1)) < 1e-6
    assert "moment-chain" in out


def test_estimate_refuses_orthogonal(tmp_path, capsys):
    rec_path = tmp_path / "zero.csv"
    run_cli(["simulate", "--measurement", "YaYb", "--initial", "xa",
             "--n-chain", "2", "--set", "ha=1.0", "--set", "hb=0.8",
             "--set", "h1=0.5", "--count", "20", "--record",
             str(rec_path)], capsys)
    code, _, err = run_cli(
        ["estimate", "--measurement", "YaYb", "--initial", "xa",
         "--n-chain", "2", "--record", str(rec_path)], capsys)
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize("n_chain", range(1, 5))
@pytest.mark.parametrize("measurement,sensor,initial", [
    (meas, nq, init) for (meas, nq), inits in CATALOG.items() for init in inits])
def test_catalog_simulate_estimate_round_trip(tmp_path, capsys, measurement,
                                              sensor, initial, n_chain):
    """Noiseless 200-sample round trip: the magnitudes come back to 1e-8,
    or the scheme is refused with exit 3 (orthogonal schemes, and the cube
    beyond two chain spins); nothing else."""
    config = SensorConfig(n_chain, sensor, measurement, initial)
    rng = spawn_rng(37, "round-trip", config.scheme_tag, initial, str(n_chain))
    truth = random_binding(config.hamiltonian().param_ids, rng)
    scheme = ["--measurement", measurement, "--sensor-qubits", str(sensor),
              "--initial", initial, "--n-chain", str(n_chain)]
    rec_path, rep_path = tmp_path / "rec.csv", tmp_path / "rep.json"
    sets = [arg for k, v in truth.items() for arg in ("--set", f"{k}={v!r}")]
    code, _, _ = run_cli(["simulate", *scheme, *sets, "--count", "200",
                          "--record", str(rec_path)], capsys)
    assert code == 0
    code, _, err = run_cli(["estimate", *scheme, "--record", str(rec_path),
                            "--report", str(rep_path)], capsys)
    refused = (config.capability == "orthogonal"
               or (config.capability == "cube" and n_chain >= 3))
    if refused:
        assert code == 3, err
        assert err.startswith("refused: ") and err.count("\n") == 1, err
        return
    assert code == 0, err
    estimates = json.loads(rep_path.read_text())["estimates"]
    assert set(estimates) == set(truth)
    for name, value in truth.items():
        assert abs(abs(estimates[name]) - abs(value)) <= 1e-8 * abs(value), name


def test_estimate_corrupted_csv_names_row(tmp_path, capsys):
    rec_path = tmp_path / "bad.csv"
    rec_path.write_text(
        "t,y,sigma,seed,scheme\n"
        "0.0,0.0,0.0,0,YaZb@2q\n"
        "0.1,not-a-number,0.0,0,YaZb@2q\n"
    )
    code, _, err = run_cli(
        ["estimate", "--measurement", "YaZb", "--n-chain", "2",
         "--record", str(rec_path)], capsys)
    assert code == 2
    assert "line 3" in err


def _simulated_rows(tmp_path, capsys, flags=CUBE_FLAGS, count=40):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *flags, "--count", str(count), "--record",
             str(rec_path)], capsys)
    lines = rec_path.read_text().splitlines()
    return rec_path, lines[0], [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("column,value,rows", [
    (1, "nan", [5]),        # one NaN sample
    (0, "nan", [5]),        # one NaN sample time
    (2, "inf", range(40)),  # sigma = inf on every row
])
def test_estimate_rejects_non_finite_record(tmp_path, capsys, column, value,
                                            rows):
    rec_path, header, body = _simulated_rows(tmp_path, capsys)
    for i in rows:
        body[i][column] = value
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 2
    assert "non-finite" in err


def test_estimate_rejects_negative_sigma(tmp_path, capsys):
    rec_path, header, body = _simulated_rows(tmp_path, capsys)
    for row in body:
        row[2] = "-0.001"
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 2
    assert "line 2" in err and "negative sigma" in err


def test_estimate_rejects_a_sixth_field(tmp_path, capsys):
    rec_path, header, body = _simulated_rows(tmp_path, capsys)
    body[3].append("junk")
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 2
    assert one_line_error(err)
    assert "record line 5: malformed row" in err and "'junk'" in err


def test_estimate_refuses_a_field_over_the_csv_limit(tmp_path, capsys):
    rec_path, header, body = _simulated_rows(tmp_path, capsys)
    body[2][1] = "1" * 200_000
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 2
    assert one_line_error(err)
    assert err.startswith("error: record line 4: field larger than")


def test_estimate_out_of_range_record_is_numeric_failure(tmp_path, capsys):
    rec_path, header, body = _simulated_rows(tmp_path, capsys)
    for row in body:
        row[1] = "1e+308"
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 4
    assert "numeric failure" in err


LADDER2_FLAGS = ["--measurement", "ZaYb", "--n-chain", "2",
                 "--set", "ha=1.0", "--set", "hb=0.8", "--set", "h1=0.6"]
CUBE1_FLAGS = ["--measurement", "YaZb", "--n-chain", "1",
               "--set", "ha=1.0", "--set", "hb=0.8"]


#: y_k = (k/40)^3 has a triple pole at 1, so the realized e^{A dt} is
#: defective: its eigenvector condition (about 1e10) is far past what the
#: logarithm accepts, whatever the last bits of the samples are
CUBIC_SAMPLES = tuple(repr((k / 40) ** 3) for k in range(40))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags,samples,row,value,reason", [
    (CUBE_FLAGS, CUBIC_SAMPLES, None, None, "matrix logarithm failed"),
    # row 3: row 4 realizes order 5 > dim 4, which is refused first
    (LADDER2_FLAGS, None, 3, "1e100", "singular"),
    (LADDER2_FLAGS, None, 2, "1e308", "singular"),  # near the float limit
], ids=["logm-error", "singular", "singular-stall"])
def test_estimate_extreme_sample_is_numeric_failure(tmp_path, capsys, flags,
                                                    samples, row, value,
                                                    reason):
    rec_path, header, body = _simulated_rows(tmp_path, capsys, flags)
    if samples is not None:
        assert len(samples) == len(body)
        for line, sample in zip(body, samples):
            line[1] = sample
    if row is not None:
        body[row][1] = value
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *flags, "--record", str(rec_path)], capsys)
    assert code == 4
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("flags,value,dim", [
    (CUBE1_FLAGS, "1e3", 9), (LADDER2_FLAGS, "1", 4),
], ids=["cube", "ladder"])
def test_estimate_refuses_order_above_model_dimension(tmp_path, capsys, flags,
                                                      value, dim):
    # one bad sample in a noiseless record realizes order 18, more than the
    # model has states; recovering from that realization gives wrong values
    rec_path, header, body = _simulated_rows(tmp_path, capsys, flags)
    body[25][1] = value
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        code, out, err = run_cli(
            ["estimate", *flags, "--record", str(rec_path)], capsys)
    assert code == 4 and out == ""
    assert err == (f"numeric failure: realized order 18 exceeds the model "
                   f"dimension {dim}; the record does not fit this scheme\n")


def test_estimate_refuses_a_realization_that_misses_the_record(tmp_path,
                                                               capsys):
    # one bad sample opens a Hankel gap at order 6, within the model's 9
    # states; that realization gave ha 4.93 and hb 5.54 against 1 and 0.8
    rec_path, header, body = _simulated_rows(tmp_path, capsys, CUBE1_FLAGS,
                                             count=60)
    body[57][1] = "1e3"
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, out, err = run_cli(
        ["estimate", *CUBE1_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 4 and out == ""
    assert err.startswith("numeric failure: realized model does not "
                          "reproduce the record")


def test_estimate_markov_overflow_is_numeric_failure(tmp_path, capsys):
    # a sampling interval of 1e-200 scales the realized generator by 1e200
    rec_path, header, body = _simulated_rows(tmp_path, capsys, CUBE1_FLAGS)
    for k, row in enumerate(body):
        row[0] = repr(k * 1e-200)
    rec_path.write_text("\n".join([header, *map(",".join, body)]) + "\n")
    code, _, err = run_cli(
        ["estimate", *CUBE1_FLAGS, "--record", str(rec_path)], capsys)
    assert code == 4
    assert "Markov parameters are not finite" in err


@pytest.mark.parametrize("name,data,reason", [
    ("missing.csv", None, "not found"),
    ("", None, ""),  # the directory itself
    ("latin1.csv", b"t,y,sigma,seed,scheme\n0.0,\xb5,0.0,0,ZaYb@2q\n",
     "not UTF-8"),
    ("empty.csv", b"", "header"),
], ids=["missing", "directory", "non-utf8", "empty"])
def test_estimate_unreadable_record_exits_2(tmp_path, capsys, name, data,
                                            reason):
    path = tmp_path / name if data is None else write_bytes(
        tmp_path / name, data)
    code, _, err = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(path)], capsys)
    assert code == 2
    assert one_line_error(err) and reason in err


@pytest.mark.parametrize("verb,flag", [("analyze", "--report"),
                                       ("simulate", "--record")])
def test_output_into_missing_directory_exits_2(tmp_path, capsys, verb, flag):
    target = tmp_path / "missing" / "out"
    flags = scheme_flags(CUBE_FLAGS) if verb == "analyze" else CUBE_FLAGS
    code, _, err = run_cli([verb, *flags, flag, str(target)], capsys)
    assert code == 2
    assert one_line_error(err) and "cannot write" in err


def test_estimate_missing_record_flag(capsys):
    code, _, err = run_cli(
        ["estimate", "--measurement", "YaZb", "--n-chain", "2"], capsys)
    assert code == 2
    assert "--record" in err


# -- oracle-check ------------------------------------------------------------


def test_oracle_check_ladder(capsys):
    code, out, _ = run_cli(
        ["oracle-check", "--measurement", "ZaYb", "--n-chain", "3"], capsys)
    assert code == 0
    assert "oracle_agreement = True" in out
    for n in (2, 3, 4, 5):
        assert f"det_cm_N{n} = True" in out
    for n in (3, 5):
        assert f"det_p_bar_N{n} = True" in out
    match = re.search(r"oracle_max_residual = (\S+)", out)
    assert float(match.group(1)) <= 1e-8


def test_oracle_check_size_cap(capsys):
    code, _, err = run_cli(
        ["oracle-check", "--measurement", "ZaYb", "--n-chain", "13"], capsys)
    assert code == 2
    assert "qubit" in err.lower()


@pytest.mark.parametrize("measurement", ["ZaYb", "YaZb"])
def test_oracle_check_builds_no_kronecker_product(monkeypatch, capsys,
                                                  measurement):
    def refuse(*_):
        raise AssertionError("the oracle built a 2^n x 2^n Kronecker product")

    for name, module in list(sys.modules.items()):
        if name.startswith("chainsense"):
            for helper in ("dense_matrix", "dense_state"):
                if hasattr(module, helper):
                    monkeypatch.setattr(module, helper, refuse)
    code, out, _ = run_cli(
        ["oracle-check", "--measurement", measurement, "--n-chain", "4"],
        capsys)
    assert code == 0
    assert "oracle_agreement = True" in out


@pytest.mark.parametrize("measurement", ["ZaYb", "YaZb"])
def test_oracle_check_at_ten_qubits(tmp_path, capsys, measurement):
    report = tmp_path / "oracle.json"
    code, _, _ = run_cli(
        ["oracle-check", "--measurement", measurement, "--n-chain", "8",
         "--report", str(report)], capsys)
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["verdicts"] == {"closed_forms_match": True,
                                   "oracle_agreement": True}
    assert payload["residuals"]["oracle_max_residual"] <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("measurement,initial", [
    ("YaZb", "xb"), ("ZaYb", "xa"),
], ids=["cube", "ladder"])
def test_oracle_check_overflow_is_numeric_failure(tmp_path, capsys,
                                                  measurement, initial):
    # the phases overflow to NaN, which no comparison catches
    report = tmp_path / "oracle.json"
    code, out, err = run_cli(
        ["oracle-check", "--measurement", measurement, "--initial", initial,
         "--n-chain", "2", "--set", "ha=1e308", "--set", "hb=0.8",
         "--set", "h1=0.6", "--report", str(report)], capsys)
    assert code == 4 and out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not report.exists()


ORACLE_CUBE2 = ["oracle-check", "--measurement", "YaZb", "--n-chain", "2",
                "--set", "hb=0.8", "--set", "h1=0.6"]


def test_oracle_check_tolerance_scales_with_the_couplings(capsys):
    # both sides round to about eps * t * |A|: at ha = 1e8 they differ by
    # 7.5e-8, above the 1e-8 floor, and still agree
    code, out, _ = run_cli([*ORACLE_CUBE2, "--set", "ha=1e8"], capsys)
    assert code == 0
    assert "oracle_agreement = True" in out
    match = re.search(r"oracle_max_residual = (\S+)", out)
    scale = 16 * np.finfo(float).eps * 10 * 2e8  # t_max 10, bound 2e8
    assert 1e-8 < float(match.group(1)) <= scale


def test_oracle_check_refuses_couplings_too_large_to_check(tmp_path, capsys):
    report = tmp_path / "oracle.json"
    code, out, err = run_cli(
        [*ORACLE_CUBE2, "--set", "ha=1e12", "--report", str(report)], capsys)
    assert code == 4 and out == ""
    assert err == ("numeric failure: spectral bound 2.000e+12 is too large "
                   "to check: the float error of either side reaches "
                   "7.1e-02, above 1e-3\n")
    assert not report.exists()


@pytest.mark.parametrize("verb,extra,named", [
    ("analyze", ["--set", "ha=1"], "--set"),
    ("analyze", ["--dt", "0.1"], "--dt"),
    ("analyze", ["--count", "5"], "--count"),
    ("analyze", ["--noise-sigma", "0.1"], "--noise-sigma"),
    ("analyze", ["--record", "rec.csv"], "--record"),
    ("analyze", ["--set", "zz=1", "--count", "5"], "--set, --count"),
    ("oracle-check", ["--dt", "0.1"], "--dt"),
    ("oracle-check", ["--count", "5"], "--count"),
    ("oracle-check", ["--noise-sigma", "0.1"], "--noise-sigma"),
    ("oracle-check", ["--record", "rec.csv", "--dt", "1"], "--dt, --record"),
], ids=["analyze-set", "analyze-dt", "analyze-count", "analyze-noise",
        "analyze-record", "analyze-two", "oracle-dt", "oracle-count",
        "oracle-noise", "oracle-two"])
def test_commands_refuse_flags_they_ignore(capsys, verb, extra, named):
    code, out, err = run_cli(
        [verb, "--measurement", "ZaYb", "--n-chain", "2", *extra], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {verb} does not use {named}\n"


def test_analyze_and_oracle_check_accept_a_shared_config_file(tmp_path,
                                                              capsys):
    # one file serves every command, so sections a command ignores pass
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[scheme]\nmeasurement = ZaYb\nn_chain = 2\n"
        "[truth]\nha = 1.0\nhb = 0.8\nh1 = 0.6\n"
        "[sampling]\ndt = 0.1\ncount = 40\nnoise_sigma = 0.01\n"
        f"[output]\nrecord = {tmp_path / 'rec.csv'}\n")
    for verb in ("analyze", "oracle-check"):
        assert run_cli([verb, "--config", str(cfg_path)], capsys)[0] == 0


@pytest.mark.parametrize("sets,named", [
    (["ha=1", "hb=0.8", "h1=inf"], "coupling h1 = inf is not finite"),
    (["ha=1"], "missing ['h1', 'hb']"),
    (["ha=1", "hb=0.8", "h1=0.6", "zz=3"], "unexpected ['zz']"),
], ids=["non-finite", "missing", "extra"])
def test_oracle_check_rejects_bad_couplings(capsys, sets, named):
    argv = ["oracle-check", "--measurement", "ZaYb", "--n-chain", "2"]
    code, out, err = run_cli(
        argv + [arg for item in sets for arg in ("--set", item)], capsys)
    assert code == 2 and out == ""
    assert one_line_error(err) and named in err


# -- reports and config files ------------------------------------------------


def test_machine_report_deterministic(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *CUBE_FLAGS, "--count", "120", "--record",
             str(rec_path)], capsys)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["estimate", *CUBE_FLAGS, "--record", str(rec_path)]
    assert run_cli(argv + ["--report", str(r1)], capsys)[0] == 0
    assert run_cli(argv + ["--report", str(r2)], capsys)[0] == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_machine_and_human_renderings_agree(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *CUBE_FLAGS, "--count", "120", "--record",
             str(rec_path)], capsys)
    report_path = tmp_path / "r.json"
    _, human, _ = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path),
         "--report", str(report_path)], capsys)
    payload = json.loads(report_path.read_text())
    for name, value in payload["estimates"].items():
        assert f"{name} = {value!r}" in human
    for name, value in payload["residuals"].items():
        assert f"{name} = {value!r}" in human


def test_report_verb_rerenders(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    run_cli(["simulate", *CUBE_FLAGS, "--count", "120", "--record",
             str(rec_path)], capsys)
    report_path = tmp_path / "r.json"
    _, human, _ = run_cli(
        ["estimate", *CUBE_FLAGS, "--record", str(rec_path),
         "--report", str(report_path)], capsys)
    code, rendered, _ = run_cli(["report", str(report_path)], capsys)
    assert code == 0
    # the re-rendered view carries the same values (runtime line differs)
    strip = lambda text: [
        ln for ln in text.splitlines()
        if not ln.startswith("  runtime") and "report written" not in ln
    ]
    assert strip(rendered) == strip(human)


def test_report_verb_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["report", str(bad)], capsys)
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("data,reason", [
    (None, ""),  # a directory
    (b'{"command": "\xff"}', "not UTF-8"),
    (b"[1, 2]", "not a chainsense report"),
    (b'"x"', "not a chainsense report"),
    (b"NaN", "not a chainsense report"),
    (b'{"verdicts": 5}', "not a chainsense report"),
], ids=["directory", "non-utf8", "list", "string", "nan", "bad-section"])
def test_report_verb_rejects_unreadable_or_non_report(tmp_path, capsys, data,
                                                      reason):
    path = tmp_path if data is None else write_bytes(tmp_path / "r.json", data)
    code, _, err = run_cli(["report", str(path)], capsys)
    assert code == 2
    assert one_line_error(err) and reason in err


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"verdicts": {"a": ' + "[" * 900 + "]" * 900 + "}}",
], ids=["parse", "render"])
def test_report_verb_rejects_deep_nesting(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(["report", str(path)], capsys)
    assert code == 2 and out == ""
    assert one_line_error(err) and "nested too deeply" in err


def test_config_file_drives_run(tmp_path, capsys):
    rec_path = tmp_path / "rec.csv"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[scheme]\n"
        "n_chain = 2\n"
        "sensor_qubits = 2\n"
        "measurement = YaZb\n"
        "initial = xb\n"
        "\n"
        "[truth]\n"
        "ha = 1.0\n"
        "hb = 0.8\n"
        "h1 = 0.6\n"
        "\n"
        "[sampling]\n"
        "count = 120\n"
        "seed = 4\n"
        "\n"
        f"[output]\nrecord = {rec_path}\n"
    )
    code, out, _ = run_cli(["simulate", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert "wrote 120 samples" in out
    code, out, _ = run_cli(["estimate", "--config", str(cfg_path)], capsys)
    assert code == 0
    match = re.search(r"max_abs_err = (\S+)", out)
    assert float(match.group(1)) < 1e-6


def test_config_file_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[scheme]\nn_chain = 2\nmeasurement = YaZb\n")
    rec_path = tmp_path / "rec.csv"
    code, out, _ = run_cli(
        ["simulate", "--config", str(cfg_path), "--n-chain", "1",
         "--set", "ha=1.0", "--set", "hb=0.7", "--count", "24",
         "--record", str(rec_path)], capsys)
    assert code == 0
    rec = estimate.record_from_text(rec_path.read_text())
    assert rec.scheme_tag == "YaZb@2q"
    assert rec.count == 24


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[scheme]\nn_chian = 2\n")
    code, _, err = run_cli(["analyze", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "n_chian" in err


def test_config_file_known_key_rejected(tmp_path, capsys):
    # nothing reads a list of known parameters; the key is not accepted
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[scheme]\nknown = hb\n")
    code, _, err = run_cli(["analyze", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "'known'" in err


@pytest.mark.parametrize("data,named", [
    (b"[scheme]\nn_chain = abc\n", "[scheme] n_chain"),
    (b"[truth]\nha = x\n", "[truth] ha"),
    (b"n_chain = 2\n", "no section headers"),
    (b"[scheme]\nn_chain\n", "'n_chain"),
    (b"[scheme]\nn_chain = 2\nn_chain = 3\n", "'n_chain' in section 'scheme'"),
    (b"[scheme]\nmeasurement = \xff\n", "not UTF-8"),
], ids=["bad-int", "bad-float", "no-section", "no-value", "duplicate-key",
        "non-utf8"])
def test_config_file_malformed_exits_2(tmp_path, capsys, data, named):
    cfg_path = write_bytes(tmp_path / "run.cfg", data)
    code, _, err = run_cli(["analyze", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert one_line_error(err) and named in err


def test_config_file_percent_is_literal(tmp_path, capsys):
    report_path = tmp_path / "r%(x)s.json"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"[scheme]\nn_chain = 1\n[output]\nreport = {report_path}\n")
    code, _, _ = run_cli(["analyze", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert json.loads(report_path.read_text())["command"] == "analyze"


# flag, config section, config key, RunConfig field, value
SETTINGS = [
    ("--n-chain", "scheme", "n_chain", "n_chain", "3"),
    ("--sensor-qubits", "scheme", "sensor_qubits", "sensor_qubits", "1"),
    ("--measurement", "scheme", "measurement", "measurement", "Yb"),
    ("--initial", "scheme", "initial", "initial", "xb"),
    ("--dt", "sampling", "dt", "dt", "0.125"),
    ("--count", "sampling", "count", "count", "77"),
    ("--noise-sigma", "sampling", "noise_sigma", "noise_sigma", "0.5"),
    ("--seed", "sampling", "seed", "seed", "9"),
    ("--record", "output", "record", "record_path", "a.csv"),
    ("--report", "output", "report", "report_path", "a.json"),
]


@pytest.mark.parametrize("flag,section,key,attr,value", SETTINGS,
                         ids=[row[0] for row in SETTINGS])
def test_each_setting_reads_from_file_and_flag(tmp_path, flag, section, key,
                                               attr, value):
    parser = cli.build_parser()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"[{section}]\n{key} = {value}\n")

    def setting(*argv):
        args = parser.parse_args(["analyze", *argv])
        return getattr(cli.build_run_config(args), attr)

    from_file = setting("--config", str(cfg_path))
    assert from_file != getattr(cli.RunConfig(), attr)
    assert setting(flag, value) == from_file
    assert str(from_file) == value or float(value) == from_file
    # a flag beats the file
    assert setting("--config", str(cfg_path), flag, "7") != from_file


def test_config_file_missing(capsys):
    code, _, err = run_cli(
        ["analyze", "--config", "/nonexistent/run.cfg"], capsys)
    assert code == 2
    assert "not found" in err


# -- model builds ------------------------------------------------------------


LADDER_FLAGS = ["--measurement", "ZaYb", "--n-chain", "4",
                "--set", "ha=1.0", "--set", "hb=0.9", "--set", "h1=1.2",
                "--set", "h2=0.7", "--set", "h3=1.1"]


def test_each_command_builds_each_model_once(tmp_path, capsys, monkeypatch):
    built = []
    build = ssm.build
    monkeypatch.setattr(
        ssm, "build", lambda config: built.append(config) or build(config))

    def builds(argv):
        built.clear()
        assert run_cli(argv, capsys)[0] == 0
        return list(built)

    for flags, estimate_builds in ((LADDER_FLAGS, 0), (CUBE_FLAGS, 1)):
        rec = tmp_path / "rec.csv"
        assert len(builds(["simulate", *flags, "--count", "120",
                           "--record", str(rec)])) == 1
        assert len(builds(["estimate", *flags, "--record", str(rec)])) \
            == estimate_builds
        assert len(builds(["analyze", *scheme_flags(flags)])) == 1
    # the command's own model, then each closed-form ladder N = 2..5 once
    for flags in (LADDER_FLAGS, CUBE_FLAGS):
        got = builds(["oracle-check", *flags])
        assert len(got) == 5
        assert len(set(got[1:])) == 4


def test_ladder_analyze_makes_one_arnoldi_pass_per_reduction(capsys, monkeypatch):
    # the observability rank, the two Kalman stages and one certificate for
    # the whole scan; at odd N one more for the scan's stacked reduction.  A
    # 2-D call runs as a stack of one, so counting stacks counts passes
    passes = []
    arnoldi = ssm.arnoldi

    def counted(a, v, count):
        if np.ndim(a) == 3:
            passes.append(len(a))
        return arnoldi(a, v, count)

    monkeypatch.setattr(ssm, "arnoldi", counted)
    for n_chain, expected in ((8, 4), (9, 5)):
        passes.clear()
        assert run_cli(["analyze", "--measurement", "ZaYb",
                        "--n-chain", str(n_chain)], capsys)[0] == 0
        assert len(passes) == expected


def test_benchmark_designated_functions_exist():
    # perfbench/run.py fails a traced run when one of these is never called;
    # read its table without importing the harness
    source = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tree = ast.parse(source.read_text())
    designated = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "DESIGNATED" for t in node.targets)
    )
    assert designated
    for dotted in designated:
        layer, name = dotted.split(".")
        module = importlib.import_module(f"chainsense.{layer}")
        func = getattr(module, name, None)
        assert inspect.isfunction(func), dotted
        assert not name.startswith("_") and func.__qualname__ == name, dotted
        assert func.__module__.split(".")[:2] == ["chainsense", layer], dotted


# -- module entry point --------------------------------------------------------


def source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_chainsense_matches_in_process_main(tmp_path, capsys):
    argv = ["analyze", "--measurement", "ZaYb", "--n-chain", "3"]
    in_process = tmp_path / "in_process.json"
    assert run_cli([*argv, "--report", str(in_process)], capsys)[0] == 0
    module = tmp_path / "module.json"
    done = subprocess.run(
        [sys.executable, "-m", "chainsense", *argv, "--report", str(module)],
        env=source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert module.read_bytes() == in_process.read_bytes()


def test_importing_the_entry_module_runs_nothing(capsys):
    importlib.import_module("chainsense.__main__")
    assert capsys.readouterr() == ("", "")


NO_SCIPY_RUN = """
import sys
from chainsense import cli

record, flag_sets = sys.argv[1], sys.argv[2:]
for flags in flag_sets:
    flags = flags.split()
    for argv in (["simulate", *flags, "--record", record],
                 ["estimate", *flags, "--record", record],
                 ["analyze", *flags[:flags.index("--set")]],
                 ["oracle-check", *flags]):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_import_no_scipy(tmp_path):
    # scipy is a test dependency only; importing it costs every command
    # about a quarter of a second
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path / "rec.csv"),
         " ".join(LADDER2_FLAGS), " ".join(CUBE1_FLAGS)],
        env=source_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
