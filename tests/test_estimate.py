"""Data-side tests: quantum oracle, records, ERA, parameter recovery.

The two-qubit ladder recovery is checked to machine precision for both
parities of the chain length; the cube recovery is checked both at a
generic ground truth (where the full order-12 structure appears and the
denominator route corroborates) and at the order-collapsing ground
truth (1, 0.8, 0.6), where only the realization-invariant route works.
"""

import io
import math

import numpy as np
import pytest

from chainsense import estimate, ssm
from chainsense.accessible import SensorConfig
from chainsense.errors import (
    InadmissibleConfig,
    NumericFailure,
    OracleSizeLimit,
    UnidentifiableScheme,
)
from chainsense.prng import random_binding, spawn_rng


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


def test_record_quantum_source_agrees():
    cfg = ladder_cfg(2)
    binding = {"ha": 0.9, "hb": -0.7, "h1": 1.2}
    model = ssm.build(cfg)
    dt = safe_dt(model, binding)
    rec_m = estimate.simulate_record(model, binding, dt, 25)
    rec_q = estimate.simulate_record(model, binding, dt, 25, source="quantum")
    assert np.max(np.abs(rec_m.values - rec_q.values)) < 1e-8


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
    text = estimate.record_to_text(rec)
    assert text.splitlines()[0] == "t,y,sigma,seed,scheme"
    back = estimate.record_from_text(text)
    assert np.array_equal(back.times, rec.times)
    assert np.array_equal(back.values, rec.values)
    assert back.noise_sigma == rec.noise_sigma
    assert back.seed == rec.seed
    assert back.scheme_tag == rec.scheme_tag
    assert back.dt == rec.dt
    # and the round-trip is a fixed point at the text level too
    assert estimate.record_to_text(back) == text


def test_record_csv_file_roundtrip(tmp_path):
    cfg = ladder_cfg(2)
    binding = {"ha": -0.9, "hb": 1.3, "h1": 0.4}
    rec = make_record(cfg, binding, 20)
    path = tmp_path / "record.csv"
    with open(path, "w", newline="") as fh:
        estimate.save_record(rec, fh)
    with open(path, newline="") as fh:
        back = estimate.load_record(fh)
    assert np.array_equal(back.values, rec.values)


def test_record_load_rejects_bad_header():
    with pytest.raises(InadmissibleConfig):
        estimate.record_from_text("time,value\n0.0,0.0\n")


def test_record_load_rejects_nonuniform_times():
    text = "t,y,sigma,seed,scheme\n0.0,0.0,0.0,0,ZaYb@2q\n0.1,0.1,0.0,0,ZaYb@2q\n0.3,0.2,0.0,0,ZaYb@2q\n"
    with pytest.raises(InadmissibleConfig):
        estimate.record_from_text(text)


# -- ERA ---------------------------------------------------------------------


def test_era_order_ladder_even():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.1, "hb": -0.7, "h1": 1.3}
    real = estimate.era(make_record(cfg, binding, 60))
    assert real.verdict == "ok"
    assert real.order == 4


def test_era_order_ladder_odd_drops_one():
    cfg = ladder_cfg(3)
    binding = {"ha": 0.9, "hb": 0.8, "h1": -1.2, "h2": 0.6}
    real = estimate.era(make_record(cfg, binding, 60))
    assert real.verdict == "ok"
    assert real.order == 4  # N + 1: one direction is invisible


def test_era_order_cube_full():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    real = estimate.era(make_record(cfg, binding, 120))
    assert real.verdict == "ok"
    assert real.order == 12


def test_era_short_cube_record_is_ambiguous():
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    real = estimate.era(make_record(cfg, binding, 56))
    assert real.verdict == "order ambiguous"
    assert real.order == 0


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
    realized = ssm.markov(real.a_hat, real.b_hat, real.c_hat, 2 * real.order)
    assert np.max(np.abs(realized - rec.values[: 2 * real.order])) < 1e-8


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
    got = np.linalg.eigvals(real.a_cont)
    want = np.linalg.eigvals(a)
    # the spectrum is purely imaginary, so compare along that axis
    assert np.max(np.abs(got.real)) < 1e-8
    assert np.max(np.abs(np.sort(got.imag) - np.sort(want.imag))) < 1e-8


def test_era_singular_values_descending():
    cfg = ladder_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.5}
    real = estimate.era(make_record(cfg, binding, 60))
    s = real.singular_values
    assert np.all(np.diff(s) <= 1e-15)


# -- moment-chain factorization ----------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_moment_chain_from_exact_markov(n):
    from fractions import Fraction

    model = ssm.build(ladder_cfg(n))
    binding = {"ha": Fraction(-7, 4), "hb": Fraction(5, 3)}
    for i in range(1, n):
        binding[f"h{i}"] = Fraction((-1) ** i * (i + 2), 2)
    a, b, c = ssm.evaluate_exact(model, binding)
    markov = np.array([float(v) for v in ssm.markov(a, b, c, 2 * n + 2)])
    betas = estimate.moment_chain_magnitudes(markov, n + 2)
    expect = [abs(float(binding[p])) for p in estimate.ladder_param_order(n)]
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
    # (1, 0.8, 0.6) satisfies ha^2 = hb^2 + h1^2; the minimal order drops
    # to 8 and the denominator route is unavailable, but the Markov-data
    # route still recovers every magnitude
    cfg = cube_cfg(2)
    binding = {"ha": 1.0, "hb": 0.8, "h1": 0.6}
    out = estimate.recover_parameters(make_record(cfg, binding, 120), cfg)
    assert out.realization.order == 8
    for pid, true in binding.items():
        assert abs(out.magnitudes[pid] - abs(true)) < 1e-6
    assert "denominator_route" not in out.diagnostics


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
