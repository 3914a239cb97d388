"""Data-side tests: quantum oracle, records, ERA, parameter recovery.

The two-qubit ladder recovery is checked to machine precision for both
parities of the chain length; the cube recovery is checked both at a
generic ground truth (where the full order-12 structure appears and the
denominator route corroborates) and at the order-collapsing ground
truth (1, 0.8, 0.6), where only the realization-invariant route works.
"""

import csv
import hashlib
import io
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from chainsense import cli, estimate, ssm
from chainsense.accessible import SensorConfig
from chainsense.errors import (
    InadmissibleConfig,
    NumericFailure,
    OracleSizeLimit,
    UnidentifiableScheme,
)
from chainsense.pauli import HamiltonianSpec, from_letters
from chainsense.prng import spawn_rng
from chainsense.symca import solve_identifiability
from referees.prng import random_binding
from referees.transfer import cube_equations
from test_ssm import float_markov


def ladder_cfg(n):
    return SensorConfig(n, 2, "ZaYb", "xa")


def cube_cfg(n):
    return SensorConfig(n, 2, "YaZb", "xb")


def safe_dt(model, binding, margin=0.8):
    return margin * estimate.BRANCH_SAFETY / ssm.spectral_bound(model, binding)


def make_record(cfg, binding, count, noise=0.0, seed=0):
    model = ssm.build(cfg)
    return estimate.simulate_record(
        model, binding, safe_dt(model, binding), count, noise_sigma=noise,
        seed=seed,
    )


# -- exact quantum oracle ----------------------------------------------------


def test_oracle_zero_at_time_zero_for_ladder():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.7, "h1": 1.3}
    y = estimate.exact_quantum_expectation(
        cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
        binding, [0.0],
    )
    assert abs(y[0]) < 1e-12


def test_oracle_single_qubit_scheme_identically_zero():
    cfg = SensorConfig(3, 1, "Yb", "xb")
    binding = {"hb": 0.9, "h1": 1.1, "h2": -0.5}
    times = np.linspace(0.0, 8.0, 25)
    y = estimate.exact_quantum_expectation(
        cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
        binding, times,
    )
    assert np.max(np.abs(y)) < 1e-10


def test_oracle_matches_linear_model():
    rng = spawn_rng(5, "oracle-match")
    cfg = ladder_cfg(2)
    model = ssm.build(cfg)
    binding = random_binding(model.param_ids, rng)
    times = np.linspace(0.0, 6.0, 40)
    y_quantum = estimate.exact_quantum_expectation(
        cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
        binding, times,
    )
    y_model = ssm.impulse_response(model, binding, times)
    assert np.max(np.abs(y_quantum - y_model)) < 1e-8


def test_oracle_bounded_by_one():
    cfg = cube_cfg(1)
    binding = {"ha": 1.9, "hb": 1.7}
    times = np.linspace(0.0, 12.0, 60)
    y = estimate.exact_quantum_expectation(
        cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
        binding, times,
    )
    assert np.max(np.abs(y)) <= 1.0 + 1e-9


def test_oracle_refuses_a_hamiltonian_that_leaves_its_sectors():
    cfg = ladder_cfg(1)
    ham = cfg.hamiltonian()
    # XX of one bond without its YY partner
    xx = next(term for pid, term in ham.terms if pid == "hb")
    lone = HamiltonianSpec(ham.n_qubits, ham.sensor_qubits, ham.n_chain,
                           (("hb", xx),), ("hb",))
    with pytest.raises(InadmissibleConfig, match="outside their span"):
        estimate.exact_quantum_expectation(
            lone, cfg.initial_state(), cfg.measurement_string(), {"hb": 1.0},
            [0.5],
        )


def test_oracle_refuses_a_term_that_breaks_the_flip():
    # a Z field conserves excitations, but it anticommutes with the global
    # flip X^(x)n that the oracle uses to mirror the sectors
    cfg = ladder_cfg(1)
    ham = cfg.hamiltonian()
    z_field = ("hz", from_letters(ham.n_qubits, {0: "Z"}))
    spec = HamiltonianSpec(ham.n_qubits, ham.sensor_qubits, ham.n_chain,
                           (*ham.terms, z_field), (*ham.param_ids, "hz"))
    with pytest.raises(InadmissibleConfig, match="flip"):
        estimate.exact_quantum_expectation(
            spec, cfg.initial_state(), cfg.measurement_string(),
            {"ha": 1.0, "hb": 0.7, "hz": 0.3}, [0.5],
        )


def test_oracle_size_cap():
    cfg = ladder_cfg(13)  # 15 qubits total
    binding = {"ha": 1.0, "hb": 1.0, **{f"h{i}": 1.0 for i in range(1, 13)}}
    with pytest.raises(OracleSizeLimit):
        estimate.exact_quantum_expectation(
            cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
            binding, [0.5],
        )


# -- record generation -------------------------------------------------------


def test_noiseless_record_equals_impulse_response():
    cfg = ladder_cfg(3)
    binding = {"ha": -1.1, "hb": 0.6, "h1": 1.4, "h2": -0.9}
    rec = make_record(cfg, binding, 48)
    model = ssm.build(cfg)
    expect = ssm.impulse_response(model, binding, rec.times)
    assert np.array_equal(rec.values, expect)
    assert rec.count == 48
    assert rec.noise_sigma == 0.0


def test_record_deterministic_per_seed():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    rec1 = make_record(cfg, binding, 40, noise=1e-3, seed=77)
    rec2 = make_record(cfg, binding, 40, noise=1e-3, seed=77)
    rec3 = make_record(cfg, binding, 40, noise=1e-3, seed=78)
    assert np.array_equal(rec1.values, rec2.values)
    assert not np.array_equal(rec1.values, rec3.values)


def test_record_rejects_coarse_sampling():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 1.0, "h1": 1.0}
    model = ssm.build(cfg)
    bound = ssm.spectral_bound(model, binding)
    bad_dt = 1.01 * estimate.BRANCH_SAFETY / bound
    with pytest.raises(InadmissibleConfig) as err:
        estimate.simulate_record(model, binding, bad_dt, 30)
    assert f"{bound:.6f}" in str(err.value)


def test_noise_standard_deviation_calibrated():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    rec_clean = make_record(cfg, binding, 10_000)
    rec_noisy = make_record(cfg, binding, 10_000, noise=1e-3, seed=3)
    resid = rec_noisy.values - rec_clean.values
    std = float(np.std(resid))
    assert 0.8e-3 <= std <= 1.2e-3


def test_record_csv_roundtrip_bit_exact():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.6}
    rec = make_record(cfg, binding, 30, noise=1e-3, seed=9)
    text = estimate.save_record(rec)
    assert text.splitlines()[0] == "t,y,sigma,seed,scheme"
    back = estimate.load_record(text)
    assert np.array_equal(back.times, rec.times)
    assert np.array_equal(back.values, rec.values)
    assert back.noise_sigma == rec.noise_sigma
    assert back.seed == rec.seed
    assert back.scheme_tag == rec.scheme_tag
    assert back.dt == rec.dt
    # and the round-trip is a fixed point at the text level too
    assert estimate.save_record(back) == text


def test_record_csv_file_roundtrip(tmp_path):
    cfg = ladder_cfg(2)
    binding = {"ha": -0.9, "hb": 1.3, "h1": 0.4}
    rec = make_record(cfg, binding, 20)
    path = tmp_path / "record.csv"
    with open(path, "w", newline="") as fh:
        fh.write(estimate.save_record(rec))
    with open(path, newline="") as fh:
        back = estimate.load_record(fh.read())
    assert np.array_equal(back.values, rec.values)


def test_record_load_rejects_bad_header():
    with pytest.raises(InadmissibleConfig):
        estimate.load_record("time,value\n0.0,0.0\n")


def test_record_load_rejects_nonuniform_times():
    text = "t,y,sigma,seed,scheme\n0.0,0.0,0.0,0,ZaYb@2q\n0.1,0.1,0.0,0,ZaYb@2q\n0.3,0.2,0.0,0,ZaYb@2q\n"
    with pytest.raises(InadmissibleConfig):
        estimate.load_record(text)


def referee_save_record(record, fh):
    """Row-by-row writer: one csv row per sample."""
    writer = csv.writer(fh)
    writer.writerow(estimate.RECORD_HEADER)
    for t, y in zip(record.times, record.values):
        writer.writerow(
            [repr(float(t)), repr(float(y)), repr(record.noise_sigma),
             record.seed, record.scheme_tag]
        )


def referee_load_record(text):
    """Row-by-row loader: each row parsed and checked as it is read, five
    fields to a row, and a row csv cannot read refused with its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader, ()))
        if header != estimate.RECORD_HEADER:
            raise InadmissibleConfig(
                f"record header {header!r} does not match "
                f"{estimate.RECORD_HEADER!r}"
            )
        times, values, sigmas, seeds, tags = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t, y, sigma, seed, tag = row
                times.append(float(t))
                values.append(float(y))
                sigmas.append(float(sigma))
                seeds.append(int(seed))
                tags.append(tag)
            except ValueError:
                raise InadmissibleConfig(
                    f"record line {lineno}: malformed row {row!r}"
                ) from None
            if not all(map(math.isfinite,
                           (times[-1], values[-1], sigmas[-1]))):
                raise InadmissibleConfig(
                    f"record line {lineno}: non-finite value in row {row!r}"
                )
            if sigmas[-1] < 0:
                raise InadmissibleConfig(
                    f"record line {lineno}: negative sigma in row {row!r}"
                )
    except csv.Error as err:
        raise InadmissibleConfig(
            f"record line {reader.line_num}: {err}"
        ) from None
    if len(times) < 2:
        raise InadmissibleConfig("record has fewer than two samples")
    if len(set(sigmas)) != 1 or len(set(seeds)) != 1 or len(set(tags)) != 1:
        raise InadmissibleConfig("record rows disagree on sigma/seed/scheme")
    times_arr = np.array(times)
    steps = np.diff(times_arr)
    dt = steps[0]
    if np.any(steps <= 0) or np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, dt):
        raise InadmissibleConfig("record times must increase uniformly")
    return estimate.MeasurementRecord(
        times=times_arr, values=np.array(values), dt=float(dt),
        noise_sigma=sigmas[0], scheme_tag=tags[0], seed=seeds[0],
    )


def seeded_record(cfg, count, noise, seed):
    model = ssm.build(cfg)
    binding = random_binding(model.param_ids,
                             spawn_rng(seed, "pinned-record"))
    return estimate.simulate_record(
        model, binding, safe_dt(model, binding), count, noise_sigma=noise,
        seed=seed,
    )


#: sha256 of save_record for seeded_record(cfg, count, noise, N), as the
#: row-by-row writer produced it
PINNED_RECORD_TEXT = {
    ("ladder", 4):
        "9ae2a101f05d49362a273d1d1e3b01ae06f94041019ff29770af9283ef8c5c7b",
    ("ladder", 5):
        "7b914c0f4a7dad91156b48cc73b00bcf1d7f18c88afb3c292712adb62311954e",
    ("ladder", 6):
        "0580901cb31a8b019395288bda95e1e540f4c27b99706b03c83c1a64ba38e8f5",
    ("ladder", 7):
        "4b14ed1d6577f9dbc9ed7c9051cacbbae48a7d0f4d30f0a2f66fc87b46b03757",
    ("ladder", 8):
        "743a8e10e5f10f9ae9041f253b1244d72b15240af16832dbcfe42db061c9e211",
    ("cube", 1):
        "fb4bd21cc7578879aaf2fa967cdada6cc63dfe2d622d6f12e04eb927593d9c07",
    ("cube", 2):
        "a57bd2ce7a34f05b9cd2836feeced4b410c50c20a2c14588243aad7979ea91dc",
}


def test_record_text_is_pinned():
    for (scheme, n), digest in PINNED_RECORD_TEXT.items():
        if scheme == "ladder":
            rec = seeded_record(ladder_cfg(n), 400, 0.0, n)
        else:
            rec = seeded_record(cube_cfg(n), 240, 1e-3, n)
        text = estimate.save_record(rec)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (scheme, n)
    # tags that need quoting come out as a row-by-row csv.writer quotes them
    rec = seeded_record(cube_cfg(1), 12, 1e-3, 5)
    for tag in ("a,b", 'q"x'):
        rec.scheme_tag = tag
        referee = io.StringIO()
        referee_save_record(rec, referee)
        assert estimate.save_record(rec) == referee.getvalue()
        assert estimate.load_record(referee.getvalue()).scheme_tag == tag


#: raw CSV text pieces a mutated record is built from; '"0.5"' and
#: '"a,b"' are quoted fields, "0,junk" adds a column and "1\r2" holds a
#: carriage return csv refuses in an unquoted field
CELL_TOKENS = ["nan", "inf", "-0.0", "1e-320", "1e400", "1_0", " 2.5", "05",
               '"0.5"', "", "-1e-3", "0,junk", "x", "1\r2"]
SIGMA_TOKENS = ["0.002", "0.0010", "1e-3", "-0.0", "0.0"]
SEED_TOKENS = ["8", "07", " 7", "7_0", "7.0"]
TAG_TOKENS = ["YaZb@2q", '"a,b"', '"q""x"', "YaZb@1q "]


def mutated_record(rng, bases):
    rows = [row[:] for row in rng.choice(bases)]
    body = rows[1:rng.randint(1, len(rows))] if rng.random() < 0.2 \
        else rows[1:]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["cell", "short", "extra", "blank", "sigma",
                           "seed", "tag", "time", "swap"])
        if not body:
            continue
        i = rng.randrange(len(body))
        if kind == "cell" and body[i]:
            body[i][rng.randrange(len(body[i]))] = rng.choice(CELL_TOKENS)
        elif kind == "short":
            body[i] = body[i][:rng.randint(1, 4)]
        elif kind == "extra":
            body[i].append(rng.choice(CELL_TOKENS + ["junk"]))
        elif kind == "blank":
            body.insert(i, [])
        elif kind in ("sigma", "seed", "tag") and len(body[i]) == 5:
            column = {"sigma": 2, "seed": 3, "tag": 4}[kind]
            tokens = {"sigma": SIGMA_TOKENS, "seed": SEED_TOKENS,
                      "tag": TAG_TOKENS}[kind]
            body[i][column] = rng.choice(tokens)
        elif kind == "time" and body[i]:
            body[i][0] = repr(rng.uniform(0.0, 2.0))
        elif kind == "swap" and len(body) > 1:
            j = rng.randrange(len(body))
            body[i], body[j] = body[j], body[i]
    eol = rng.choice(["\n", "\r\n"])
    text = "".join(",".join(row) + eol for row in [rows[0], *body])
    if rng.random() < 0.1:
        text = text[:rng.randrange(len(text))]
    return text


REFUSALS = ("record header", "malformed row", "non-finite value",
            "negative sigma", "fewer than two samples", "disagree",
            "increase uniformly", "new-line character")


def load_outcome(load, text):
    try:
        rec = load(text)
    except InadmissibleConfig as err:
        return "refused", str(err)
    return ("loaded", rec.times.dtype, rec.times.tobytes(), rec.values.dtype,
            rec.values.tobytes(), rec.dt.hex(), type(rec.noise_sigma),
            rec.noise_sigma.hex(), type(rec.seed), rec.seed, rec.scheme_tag)


def test_record_loader_matches_row_by_row_referee():
    bases = []
    for cfg, noise in ((cube_cfg(1), 1e-3), (ladder_cfg(2), 0.0)):
        text = estimate.save_record(seeded_record(cfg, 8, noise, 7))
        bases.append([line.split(",") for line in text.splitlines()])
    rng = random.Random(1604)
    seen = set()
    for _ in range(6000):
        text = mutated_record(rng, bases)
        expected = load_outcome(referee_load_record, text)
        assert load_outcome(estimate.load_record, text) == expected, text
        seen.add("loaded" if expected[0] == "loaded" else
                 next(k for k in REFUSALS if k in expected[1]))
    # the corpus reaches a load and every kind of refusal
    assert seen == {"loaded", *REFUSALS}


# -- ERA ---------------------------------------------------------------------


def test_era_order_ladder_even():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    real = estimate.era(make_record(cfg, binding, 60))
    assert real.diagnostics["gap_ratio"] < estimate.NOISELESS_GAP
    assert real.order == 4


def test_era_order_ladder_odd_drops_one():
    cfg = ladder_cfg(3)
    binding = {"ha": 0.9, "hb": 0.8, "h1": -1.2, "h2": 0.6}
    real = estimate.era(make_record(cfg, binding, 60))
    assert real.diagnostics["gap_ratio"] < estimate.NOISELESS_GAP
    assert real.order == 4  # N + 1: one direction is invisible


def test_era_order_cube_full():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    real = estimate.era(make_record(cfg, binding, 120))
    assert real.diagnostics["gap_ratio"] < estimate.NOISELESS_GAP
    assert real.order == 12


def test_era_short_cube_record_is_ambiguous():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    with pytest.raises(NumericFailure, match="order ambiguous"):
        estimate.era(make_record(cfg, binding, 56))


def test_era_too_short_for_expected_order():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    with pytest.raises(NumericFailure):
        estimate.era(make_record(cfg, binding, 20), expected_order=12)


def test_era_svd_failure_is_numeric_failure():
    cfg = ladder_cfg(2)
    rec = make_record(cfg, {"ha": 1.0, "hb": 0.8, "h1": 0.5}, 40)
    rec.values[7] = np.nan
    with pytest.raises(NumericFailure) as err:
        estimate.era(rec)
    assert "SVD" in str(err.value)


def test_era_markov_consistency():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    rec = make_record(cfg, binding, 60)
    real = estimate.era(rec)
    realized = float_markov(real.a_hat, real.b_hat, real.c_hat, 2 * real.order)
    assert np.max(np.abs(realized - rec.values[: 2 * real.order])) < 1e-8


def test_era_refuses_a_realization_that_misses_a_noisy_record():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    rec = make_record(cfg, binding, 60, noise=1e-4, seed=1)
    assert estimate.era(rec).diagnostics["fit_residual"] < 3e-4
    rec.values[10] += 0.02  # 200 sigma, yet the Hankel gap still clears
    with pytest.raises(NumericFailure, match="does not reproduce"):
        estimate.era(rec)


def test_era_trailing_zeros_do_not_change_order():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    rec = make_record(cfg, binding, 60)
    base = estimate.era(rec)
    padded = estimate.MeasurementRecord(
        times=np.concatenate([rec.times, rec.times[-1] + rec.dt * np.arange(1, 11)]),
        values=np.concatenate([rec.values, np.zeros(10)]),
        dt=rec.dt,
        noise_sigma=rec.noise_sigma,
        scheme_tag=rec.scheme_tag,
        seed=rec.seed,
    )
    again = estimate.era(padded)
    assert again.order == base.order
    assert again.diagnostics["trimmed_zeros"] == 10


def test_era_continuous_generator_matches_spectrum():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    real = estimate.era(make_record(cfg, binding, 60))
    a, _, _ = ssm.evaluate(ssm.build(cfg), binding)
    got = real.poles
    want = np.linalg.eigvals(a)
    # the spectrum is purely imaginary, so compare along that axis
    assert np.max(np.abs(got.real)) < 1e-8
    assert np.max(np.abs(np.sort(got.imag) - np.sort(want.imag))) < 1e-8


@pytest.mark.parametrize("cfg,sigma", [
    *[pytest.param(ladder_cfg(n), 1e-4, id=f"ladder-N{n}")
      for n in range(2, 17)],
    *[pytest.param(cube_cfg(n), 1e-3, id=f"cube-N{n}") for n in (1, 2)],
])
def test_era_logarithm_matches_scipy_logm(cfg, sigma):
    # scipy's inverse scaling and squaring referees the modal form: the
    # poles are the eigenvalues of logm(a_hat)/dt, and the Markov parameters
    # are c_hat (logm(a_hat)/dt)^k b_hat, each to rounding of the modal
    # terms; a noisy record that ERA does not realize (no gap, or a
    # realization that misses the record) has no a_hat to compare
    model = ssm.build(cfg)
    count = 2 * cfg.n_chain + 2
    compared = 0
    for seed in range(5):
        binding = random_binding(model.param_ids, spawn_rng(seed, "era-logm"))
        for noise in (0.0, sigma):
            record = make_record(cfg, binding, 400, noise, seed)
            try:
                real = estimate.era(record, max_order=model.dim)
            except NumericFailure as exc:
                assert noise and ("does not reproduce" in str(exc)
                                  or "order ambiguous" in str(exc))
                continue
            log_a = scipy.linalg.logm(real.a_hat)
            scale = max(1.0, np.max(np.abs(log_a)))
            got, want = real.poles * record.dt, np.linalg.eigvals(log_a)
            gaps = np.abs(got[:, None] - want[None, :])
            assert max(np.max(np.min(gaps, axis=0)),
                       np.max(np.min(gaps, axis=1))) <= 1e-13 * scale
            markov = estimate._realized_markov(real, count)
            referee = float_markov(np.real(log_a) / record.dt, real.b_hat,
                                   real.c_hat, count)
            terms = real.residues[:, None] * np.vander(
                real.poles, count, increasing=True)
            assert np.all(np.abs(markov - referee)
                          <= 1e-12 * np.sum(np.abs(terms), axis=0))
            assert real.diagnostics["eigvec_cond"] <= 100
            compared += 1
    assert compared >= 5


def test_era_singular_values_descending():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    real = estimate.era(make_record(cfg, binding, 60))
    s = real.singular_values
    assert np.all(np.diff(s) <= 1e-15)


def svd_realization(values, order, dt):
    """Ho-Kalman from the SVD of the square Hankel: its singular values and
    the continuous eigenvalues log(eig a_hat) / dt of the order-``order``
    realization."""
    s = len(values) // 2
    windows = np.lib.stride_tricks.sliding_window_view(values, s)
    u, sing, vt = np.linalg.svd(windows[:s])
    root = np.sqrt(sing[:order])
    a_hat = (u[:, :order].T @ windows[1:s + 1] @ vt[:order].T
             / np.outer(root, root))
    return sing, np.log(np.linalg.eigvals(a_hat).astype(complex)) / dt


@pytest.mark.parametrize("cfg,count,sigma", [
    *[pytest.param(ladder_cfg(n), 400, 0.0, id=f"ladder-N{n}")
      for n in range(2, 9)],
    *[pytest.param(cube_cfg(n), 240, 1e-3, id=f"cube-N{n}") for n in (1, 2)],
])
def test_era_eigendecomposition_matches_svd_referee(cfg, count, sigma):
    # the square Hankel of a scalar sequence is symmetric, so its
    # eigendecomposition gives the SVD; a noisy record that ERA refuses
    # has no realization to compare
    model = ssm.build(cfg)
    compared = 0
    for seed in range(5):
        binding = random_binding(model.param_ids, spawn_rng(seed, "era-svd"))
        record = make_record(cfg, binding, count, sigma, seed)
        try:
            real = estimate.era(record, max_order=model.dim)
        except NumericFailure as exc:
            assert sigma and "does not reproduce" in str(exc)
            continue
        sing, want = svd_realization(record.values, real.order, record.dt)
        assert np.max(np.abs(real.singular_values - sing)) <= 1e-12 * sing[0]
        got = real.poles
        assert len(got) == len(want)
        miss = np.min(np.abs(got[:, None] - want[None, :]), axis=1)
        assert np.max(miss) <= 1e-10 * max(1.0, np.max(np.abs(want)))
        compared += 1
    assert compared >= 3


def test_era_odd_record_leaves_its_last_sample_to_the_fit():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    record = make_record(cfg, binding, 61)
    real = estimate.era(record)
    assert real.diagnostics["gap_ratio"] < estimate.NOISELESS_GAP
    assert real.order == 4
    assert real.diagnostics["hankel_shape"] == (30, 30)
    record.values[-1] += 1.0  # outside both Hankels, so only the fit sees it
    with pytest.raises(NumericFailure, match="does not reproduce"):
        estimate.era(record)


def test_era_eigh_failure_is_numeric_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    rec = make_record(ladder_cfg(2), {"ha": 1.0, "hb": 0.8, "h1": 0.5}, 40)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericFailure,
                       match="Hankel eigendecomposition .* did not converge"):
        estimate.era(rec)


def test_era_results_feed_the_benchmark_trace_hook():
    # perfbench/spans.py reads each returned realization's Hankel shape and
    # counts it "ok"; run the harness module's source without importing it,
    # so no bytecode cache lands in the harness directory
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    tracer = spans.Tracer()
    hook = spans._HOOKS["estimate.era"]
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    for count in (60, 61):
        hook(tracer, estimate.era(make_record(cfg, binding, count)), ())
    assert tracer.counters["estimate.era.ok"] == 2
    assert tracer.counters["estimate.era.hankel_cells"] == 2 * 30 * 30


# -- moment-chain factorization ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_moment_chain_from_exact_markov(n):
    model = ssm.build(ladder_cfg(n))
    binding = {"ha": Fraction(-7, 4), "hb": Fraction(5, 3)}
    for i in range(1, n):
        binding[f"h{i}"] = Fraction((-1) ** i * (i + 2), 2)
    a, b, c = ssm.evaluate_exact(model, binding)
    markov = np.array([float(v) for v in ssm.markov(a, b, c, 2 * n + 2)])
    betas = estimate.moment_chain_magnitudes(markov, n + 2)
    expect = [abs(float(binding[p])) for p in model.param_ids]
    assert np.max(np.abs(betas - np.array(expect))) < 1e-10


def test_moment_chain_rejects_zero_first_markov():
    with pytest.raises(NumericFailure):
        estimate.moment_chain_magnitudes(np.zeros(8), 4)


# -- end-to-end recovery -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ladder_recovery_noiseless(n):
    rng = spawn_rng(2024, "ladder-recovery", n)
    cfg = ladder_cfg(n)
    model = ssm.build(cfg)
    binding = random_binding(model.param_ids, rng)
    rec = make_record(cfg, binding, 72)
    out = estimate.recover_parameters(rec, cfg)
    assert out.method == "moment-chain"
    for pid in model.param_ids:
        assert abs(out.magnitudes[pid] - abs(binding[pid])) < 1e-6


def test_cube_recovery_noiseless_generic():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    out = estimate.recover_parameters(make_record(cfg, binding, 120), cfg)
    assert out.method == "markov-elimination"
    assert out.realization.order == 12
    for pid, true in binding.items():
        assert abs(out.magnitudes[pid] - abs(true)) < 1e-6
    route = out.diagnostics["denominator_route"]
    assert route["agrees"] is True


def test_cube_recovery_noiseless_on_collapse_surface():
    # at (1, 0.8, 0.6) the one-particle energies have e2 = 3 e1
    # (100 ha^2 h1^2 = 9 s^2 with s = ha^2 + hb^2 + h1^2); the minimal order
    # drops to 8 and the denominator route is unavailable, but the
    # Markov-data route still recovers every magnitude
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.6}
    out = estimate.recover_parameters(make_record(cfg, binding, 120), cfg)
    assert out.realization.order == 8
    for pid, true in binding.items():
        assert abs(out.magnitudes[pid] - abs(true)) < 1e-6
    assert "denominator_route" not in out.diagnostics


def _cube_invariants(t1, t2, t3):
    """(v1, v2, v3) of ``cube_equations`` at theta = (t1, t2, t3)."""
    return (t1, 10 * t1 ** 3 + 7 * t1 * t2 + 11 * t1 * t3,
            11 * (t1 ** 2 + t2 + t3))


Q = Fraction


@pytest.mark.parametrize("v,unique", [
    (_cube_invariants(Q(1), Q(16, 25), Q(9, 25)), True),
    (_cube_invariants(Q(-3, 2), Q(4), Q(25, 16)), True),
    (_cube_invariants(Q(7, 3), Q(0), Q(2, 9)), True),
    ((Q(5, 7), Q(13, 2), Q(11)), True),
    (_cube_invariants(Q(1), Q(-1, 4), Q(1)), False),
    (_cube_invariants(Q(2), Q(1), Q(-1, 9)), False),
    ((Q(0), Q(0), Q(5)), False),
    ((Q(0), Q(1), Q(5)), False),
], ids=["generic", "negative-ha", "zero-square", "raw-invariants",
        "negative-hb-square", "negative-h1-square", "v1-zero-underdetermined",
        "v1-zero-inconsistent"])
def test_cube_closed_forms_match_groebner_solve(v, unique):
    solved = solve_identifiability(cube_equations(*v)[1],
                                   square_vars=("t2", "t3"))
    theta = estimate._cube_theta(*v)
    assert (theta is not None) is unique
    assert (solved.verdict == "unique") is unique
    if unique:
        assert solved.solutions == [dict(zip(("t1", "t2", "t3"), theta))]


@pytest.mark.parametrize("n", [1, 2])
def test_cube_elimination_probe_basis_is_one_point(n):
    # every analyze probe's reduced basis is t_i - c_i, one per unknown
    cfg = cube_cfg(n)
    model = ssm.build(cfg)
    for seed in range(31):
        rng = spawn_rng(seed, "analyze", cfg.scheme_tag, str(n))
        probe = cli._generic_probe(model, rng, "cube")
        markov = ssm.markov(*ssm.evaluate_exact(model, probe), 2 * n + 2)
        solved, _ = estimate.cube_elimination(model, markov)
        assert solved.verdict == "unique"
        assert len(solved.basis) == n + 1
        assert all(g.total_degree() == 1 for g in solved.basis)
        theta = [probe["ha"], probe["hb"] ** 2]
        theta += [probe[f"h{i}"] ** 2 for i in range(1, n)]
        assert solved.solutions == [
            {f"t{i + 1}": value for i, value in enumerate(theta)}
        ]


@pytest.mark.parametrize("n", [1, 2])
def test_cube_elimination_zero_first_markov(n):
    # m1 = 0 sets t1 = 0, which every later odd Markov polynomial carries
    model = ssm.build(cube_cfg(n))
    zero = [Fraction(0)] * (2 * n + 2)
    solved, recovered = estimate.cube_elimination(model, zero)
    assert solved.verdict == "infinite" and recovered is None
    for k in range(3, 2 * n + 2, 2):
        markov = list(zero)
        markov[k] = Fraction(1, 3)
        solved, recovered = estimate.cube_elimination(model, markov)
        assert solved.verdict == "empty" and recovered is None


def test_cube_recovery_n1():
    cfg = cube_cfg(1)
    binding = {"ha": -1.2, "hb": 0.9}
    out = estimate.recover_parameters(make_record(cfg, binding, 60), cfg)
    for pid, true in binding.items():
        assert abs(out.magnitudes[pid] - abs(true)) < 1e-6


def test_recovery_sign_blind():
    cfg = ladder_cfg(3)
    base = {"ha": 1.0, "hb": 0.8, "h1": 1.2, "h2": 0.6}
    reference = estimate.recover_parameters(make_record(cfg, base, 72), cfg)
    for flip in ("ha", "hb", "h1", "h2"):
        flipped = dict(base)
        flipped[flip] = -flipped[flip]
        out = estimate.recover_parameters(make_record(cfg, flipped, 72), cfg)
        for pid in base:
            assert abs(out.magnitudes[pid] - reference.magnitudes[pid]) < 1e-9


def test_recovery_refuses_orthogonal_schemes():
    cfg = SensorConfig(2, 2, "YaYb", "xa")
    rec = make_record(cfg, {"ha": 1.0, "hb": 0.8, "h1": 0.5}, 20)
    with pytest.raises(UnidentifiableScheme) as err:
        estimate.recover_parameters(rec, cfg)
    assert "identically zero" in str(err.value)


def test_recovery_refuses_single_qubit_scheme():
    cfg = SensorConfig(2, 1, "Yb", "xb")
    rec = make_record(cfg, {"hb": 0.8, "h1": 0.5}, 20)
    with pytest.raises(UnidentifiableScheme):
        estimate.recover_parameters(rec, cfg)


def test_recovery_refuses_long_cube_chain():
    cfg = cube_cfg(3)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5, "h2": 0.9}
    rec = make_record(cfg, binding, 40)
    with pytest.raises(UnidentifiableScheme) as err:
        estimate.recover_parameters(rec, cfg)
    assert "undecided" in str(err.value)


def test_recovery_rejects_mismatched_record():
    cfg_rec = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    rec = make_record(cfg_rec, binding, 40)
    with pytest.raises(InadmissibleConfig):
        estimate.recover_parameters(rec, cube_cfg(2))


def test_cube_recovery_noise_statistics_sample():
    # 20-seed preview of the statistical acceptance run (full 100 seeds in
    # the acceptance suite)
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.6}
    good = 0
    for seed in range(20):
        rec = make_record(cfg, binding, 240, noise=1e-3, seed=seed)
        out = estimate.recover_parameters(rec, cfg)
        rel = max(
            abs(out.magnitudes[k] - abs(binding[k])) / abs(binding[k])
            for k in binding
        )
        if rel < 0.01:
            good += 1
    assert good >= 19
