"""Similarity-transformation verdicts on ladder models.

The expected outcomes are pinned: sign flips away from the known coupling
are equivalent with a diagonal +-1 witness, magnitude perturbations are
inequivalent, and small cases are re-derived in exact rational arithmetic.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from chainsense import realization, ssm, sta
from chainsense.accessible import SensorConfig
from chainsense.prng import random_binding, rational_binding, spawn_rng

# a 0/0 or overflow inside the certificate is a bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def ladder(n_chain):
    return ssm.build(SensorConfig(n_chain, 2, "ZaYb", "xa"))


def expected_diag_witness(model, flipped_params):
    """diag(1, 1, d3, ...) with each step multiplying in the next flip."""
    d = [1.0, 1.0]
    for pid in model.param_ids[1:]:
        eps = -1.0 if pid in flipped_params else 1.0
        d.append(d[-1] * eps)
    return np.diag(d)


def certificate(model, binding, binding_prime):
    """Float certificate between two bindings of a minimal model."""
    a_h, b, c = ssm.evaluate(model, binding)
    a_hp, _, _ = ssm.evaluate(model, binding_prime)
    return sta.solve_similarity_raw(a_h, a_hp, b, c)


def test_identity_binding_gives_identity_s():
    model = ladder(2)
    binding = {"ha": 1.0, "hb": 0.7, "h1": 1.3}
    inst = certificate(model, binding, binding)
    assert inst.verdict == "equivalent"
    assert inst.affine_dim == 0
    assert np.allclose(inst.s_matrix, np.eye(4), atol=1e-9)


@pytest.mark.parametrize("n_chain", [2, 4])
def test_even_sign_flips_equivalent_with_diag_witness(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(3, "flips", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    for flip in [{"hb"}, {"h1"}, {"hb", "h1"}, set(model.param_ids) - {"ha"}]:
        flipped = sta.flip_binding(binding, flip)
        inst = certificate(model, binding, flipped)
        assert inst.verdict == "equivalent", flip
        assert inst.affine_dim == 0
        assert np.allclose(inst.s_matrix, expected_diag_witness(model, flip),
                           atol=1e-8)


def test_ha_flip_is_inequivalent():
    model = ladder(2)
    binding = {"ha": 1.0, "hb": 0.7, "h1": 1.3}
    inst = certificate(model, binding, sta.flip_binding(binding, {"ha"}))
    assert inst.verdict == "inequivalent"


def test_magnitude_perturbation_inequivalent():
    model = ladder(2)
    binding = {"ha": 1.0, "hb": 0.7, "h1": 1.3}
    bumped = dict(binding, h1=1.3 * 1.1)
    inst = certificate(model, binding, bumped)
    assert inst.verdict == "inequivalent"
    assert inst.residual >= sta.INEQUIV_RESIDUAL


def test_equivalent_witness_preserves_markov():
    model = ladder(4)
    rng = spawn_rng(5, "markov-inv")
    binding = random_binding(model.param_ids, rng)
    flipped = sta.flip_binding(binding, {"h2", "h3"})
    inst = certificate(model, binding, flipped)
    assert inst.verdict == "equivalent"
    count = 2 * model.dim
    mk_h = ssm.markov(*ssm.evaluate(model, binding), count)
    mk_hp = ssm.markov(*ssm.evaluate(model, flipped), count)
    scale = max(1.0, np.max(np.abs(mk_h)))
    assert np.max(np.abs(mk_h - mk_hp)) < 1e-8 * scale


def test_odd_n_after_reduction_equivalent_and_not():
    model = ladder(3)
    rng = spawn_rng(7, "odd")
    binding = rational_binding(model.param_ids, rng)
    a_h, b, c = sta._minimal_triple(model, binding)
    flipped = sta.flip_binding(binding, {"hb", "h2"})
    a_hp, _, _ = sta._minimal_triple(model, flipped)
    inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
    assert inst.verdict == "equivalent"
    bumped = dict(binding)
    bumped["h1"] = binding["h1"] * Fraction(9, 8)
    a_hp, _, _ = sta._minimal_triple(model, bumped)
    inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
    assert inst.verdict == "inequivalent"


def test_exact_rederivation_agrees_with_svd_route():
    model = ladder(2)
    rng = spawn_rng(11, "exact-agree")
    binding = rational_binding(model.param_ids, rng)
    a, b, c = ssm.evaluate_exact(model, binding)
    for flip in [set(), {"hb"}, {"h1"}, {"hb", "h1"}]:
        flipped = sta.flip_binding(binding, flip)
        a_p, _, _ = ssm.evaluate_exact(model, flipped)
        ex = sta.solve_similarity_exact(a, a_p, b, c)
        fl = certificate(model, binding, flipped)
        assert ex.verdict == fl.verdict == "equivalent"
        assert ex.affine_dim == fl.affine_dim == 0
    bumped = dict(binding)
    bumped["hb"] = binding["hb"] * 2
    a_p, _, _ = ssm.evaluate_exact(model, bumped)
    ex = sta.solve_similarity_exact(a, a_p, b, c)
    fl = certificate(model, binding, bumped)
    assert ex.verdict == fl.verdict == "inequivalent"


def test_orbit_members_share_even_markov_parameters():
    model = ladder(2)
    binding = {"ha": 0.9, "hb": 1.4, "h1": 0.6}
    base = ssm.markov(*ssm.evaluate(model, binding), 10)
    params = sorted(binding)
    for pattern in itertools.product((1, -1), repeat=len(params)):
        member = {p: eps * binding[p] for p, eps in zip(params, pattern)}
        if member["ha"] != binding["ha"]:
            continue  # known coupling is not scanned
        mk = ssm.markov(*ssm.evaluate(model, member), 10)
        assert np.allclose(mk, base, atol=1e-12)


@pytest.mark.parametrize("n_chain", [2, 3])
def test_identifiability_scan_ladder(n_chain):
    report = sta.identifiability_scan(
        ladder(n_chain), trials=2, seed=13, n_perturb=5)
    assert report.identifiable_in_magnitude is True
    for trial in report.trials:
        assert trial.sign_flips_equivalent == trial.sign_flips_checked
        assert trial.perturbations_inequivalent == trial.perturbations_checked


def test_identifiability_scan_orthogonal_and_cube():
    orth = sta.identifiability_scan(ssm.build(SensorConfig(2, 2, "YaYb", "xa")))
    assert orth.identifiable_in_magnitude is False
    assert "zero" in orth.reason
    cube = sta.identifiability_scan(ssm.build(SensorConfig(2, 2, "YaZb", "xb")))
    assert cube.identifiable_in_magnitude is None
    assert "symbolic" in cube.reason


@pytest.mark.parametrize("n_chain", [12, 16, 24, 41])
def test_certificate_verdicts_on_long_chains(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(17, "long", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    a_h, b, c = sta._minimal_triple(model, binding)
    flippable = [p for p in model.param_ids if p != "ha"]
    for _ in range(4):
        flip = {p for p in flippable if rng.random() < 0.5} or {"hb"}
        a_hp, _, _ = sta._minimal_triple(model, sta.flip_binding(binding, flip))
        inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
        assert inst.verdict == "equivalent", flip
        assert inst.affine_dim == 0
        assert abs(inst.s_matrix[0, 0] - 1.0) <= 1e-8
        assert np.allclose(np.abs(inst.s_matrix), np.eye(len(b)), atol=1e-8)
    for pid in ("ha", "hb", f"h{n_chain - 1}"):
        perturbed = dict(binding)
        perturbed[pid] = binding[pid] * Fraction(21, 20)  # +5 %
        a_hp, _, _ = sta._minimal_triple(model, perturbed)
        inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
        assert inst.verdict == "inequivalent", pid
        assert inst.residual >= 1e-4


@pytest.mark.parametrize("n_chain", range(3, 26, 2))
def test_float_spt_matches_exact_reduction(n_chain):
    model = ladder(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(19, str(n_chain)))
    a_min, b_min, c_min = sta._minimal_triple(model, binding)
    minimal, _ = realization.spt_minimal(model, binding)
    ref = np.array([[float(v) for v in row] for row in minimal.a_min])
    assert np.max(np.abs(a_min - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert b_min.tolist() == [float(v) for v in minimal.b_min]
    assert c_min.tolist() == [float(v) for v in minimal.c_min]


def test_krylov_breakdown_is_degenerate():
    a = np.diag([1.0, 2.0, 3.0])
    x0 = np.array([1.0, 0.0, 0.0])  # an eigenvector: the Krylov space is 1-d
    inst = sta.solve_similarity_raw(a, a, x0, x0)
    assert inst.verdict == "degenerate"
    assert inst.diagnostics["breakdown_step"] == 1
    assert inst.s_matrix is None


def test_stacked_certificate_breakdown_is_per_slice():
    a_h = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    x0 = np.array([1.0, 0.0, 0.0])
    same, closed = sta.solve_similarity_raw(
        a_h, np.stack([a_h, np.diag([1.0, 2.0, 3.0])]), x0, x0)
    assert same.verdict == "equivalent"
    assert np.allclose(same.s_matrix, np.eye(3), atol=1e-12)
    assert closed.verdict == "degenerate"
    assert closed.diagnostics["breakdown_step"] == 1
    assert closed.affine_dim == 2
    assert closed.s_matrix is None


def test_stacked_reference_breakdown_is_per_pair():
    """With a stack of references, matched one to one or through ``pair``,
    a reference whose Krylov space closes early leaves only its own pair
    degenerate."""
    full = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    flipped = full * np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    closed = np.diag([1.0, 2.0, 3.0])
    x0 = np.array([1.0, 0.0, 0.0])
    same, broken, flip = sta.solve_similarity_raw(
        np.stack([full, closed, full]), np.stack([full, full, flipped]), x0, x0)
    for got, want in zip(sta.solve_similarity_raw(
            np.stack([full, closed]), np.stack([full, full, flipped]), x0, x0,
            pair=[0, 1, 0]), (same, broken, flip)):
        assert got.verdict == want.verdict
        assert got.residual == want.residual
        assert got.diagnostics == want.diagnostics
    assert broken.verdict == "degenerate"
    assert broken.diagnostics["breakdown_step"] == 1
    assert broken.affine_dim == 2
    assert broken.s_matrix is None
    assert same.verdict == flip.verdict == "equivalent"
    assert np.allclose(same.s_matrix, np.eye(3), atol=1e-12)
    assert np.allclose(flip.s_matrix, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    for got, want in zip((same, flip), sta.solve_similarity_raw(
            full, np.stack([full, flipped]), x0, x0)):
        assert got.verdict == want.verdict
        assert got.residual == pytest.approx(want.residual, abs=1e-14)


@pytest.mark.parametrize("n_chain", range(2, 10))
def test_stacked_certificates_match_one_at_a_time(n_chain):
    """Every sign pattern of the unknown couplings and every coupling moved
    up and down by 1/16, in one stack, against one 2-D call each."""
    model = ladder(n_chain)
    rng = spawn_rng(29, "stack", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    flippable = [p for p in model.param_ids if p != "ha"]
    flips = [sta.flip_binding(binding, set(pat))
             for r in range(1, len(flippable) + 1)
             for pat in itertools.combinations(flippable, r)]
    bumps = [dict(binding, **{pid: binding[pid] * f})
             for pid in model.param_ids
             for f in (Fraction(17, 16), Fraction(16, 17))]
    a, b, c = sta._minimal_triple(model, [binding, *flips, *bumps])
    stacked = sta.solve_similarity_raw(a[0], a[1:], b, c)
    assert len(stacked) == len(flips) + len(bumps)
    for other, a_hp, inst in zip(flips + bumps, a[1:], stacked):
        a_one, b_one, c_one = sta._minimal_triple(model, other)
        assert np.allclose(a_hp, a_one, rtol=0,
                           atol=1e-12 * np.abs(a_one).max())
        assert np.array_equal(b, b_one) and np.array_equal(c, c_one)
        one = sta.solve_similarity_raw(a[0], a_one, b, c)
        assert inst.verdict == one.verdict
        assert inst.verdict == ("equivalent" if other in flips
                                else "inequivalent")
        # below 1e-12 * scale a residual is round-off; its verdict decides
        scale = one.diagnostics["scale"]
        assert inst.residual == pytest.approx(one.residual, rel=1e-12,
                                              abs=1e-12 * scale)
        assert inst.det_s == pytest.approx(one.det_s, rel=1e-12)
        if one.s_matrix is not None:
            assert np.allclose(inst.s_matrix, one.s_matrix, rtol=0, atol=1e-12)


def serial_scan_trials(model, trials, seed, n_perturb):
    """The scan's trials with one reduction and one certificate per binding:
    the referee of the stacked scan."""
    config = model.config
    flippable = [p for p in model.param_ids if p != "ha"]
    rows = []
    for t in range(trials):
        rng = spawn_rng(seed, "scan", config.scheme_tag, str(config.n_chain), str(t))
        binding = rational_binding(model.param_ids, rng)
        a_h, b, c = sta._minimal_triple(model, binding)
        if 2 ** len(flippable) <= sta.MAX_SIGN_PATTERNS:
            patterns = [pat for r in range(1, len(flippable) + 1)
                        for pat in itertools.combinations(flippable, r)]
        else:
            patterns = [tuple(p for p in flippable if rng.random() < 0.5)
                        for _ in range(sta.MAX_SIGN_PATTERNS)]
            patterns = [p if p else (flippable[0],) for p in patterns]
        worst_equiv, n_equiv, witness = 0.0, 0, None
        for pat in patterns:
            a_hp, _, _ = sta._minimal_triple(model, sta.flip_binding(binding, set(pat)))
            inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
            worst_equiv = max(worst_equiv, inst.residual)
            if inst.verdict == "equivalent":
                n_equiv += 1
                if witness is None:
                    witness = inst.s_matrix
        best_inequiv, n_inequiv = float("inf"), 0
        for _ in range(n_perturb):
            pid = model.param_ids[int(rng.integers(0, len(model.param_ids)))]
            delta = Fraction(int(rng.integers(1, 9)), 16)
            factor = 1 + delta if rng.random() < 0.5 else 1 / (1 + delta)
            perturbed = dict(binding)
            perturbed[pid] = binding[pid] * factor
            a_hp, _, _ = sta._minimal_triple(model, perturbed)
            inst = sta.solve_similarity_raw(a_h, a_hp, b, c)
            best_inequiv = min(best_inequiv, inst.residual)
            if inst.verdict == "inequivalent":
                n_inequiv += 1
        rows.append(sta.ScanTrial(
            {k: float(v) for k, v in binding.items()}, len(patterns), n_equiv,
            n_perturb, n_inequiv, worst_equiv, best_inequiv, witness))
    return rows


def check_scan_against_serial(model, trials, n_perturb):
    report = sta.identifiability_scan(model, trials=trials, seed=31,
                                      n_perturb=n_perturb)
    assert report.identifiable_in_magnitude is True
    serial = serial_scan_trials(model, trials=trials, seed=31, n_perturb=n_perturb)
    assert len(report.trials) == len(serial) == trials
    for got, want in zip(report.trials, serial):
        assert got.binding == want.binding
        assert got.sign_flips_checked == want.sign_flips_checked
        assert got.sign_flips_equivalent == want.sign_flips_equivalent
        assert got.perturbations_checked == want.perturbations_checked == n_perturb
        assert got.perturbations_inequivalent == want.perturbations_inequivalent
        # the worst equivalent residual is round-off, ~1e-15
        assert got.worst_equiv_residual == pytest.approx(
            want.worst_equiv_residual, rel=1e-12, abs=1e-12)
        assert got.best_inequiv_residual == pytest.approx(
            want.best_inequiv_residual, rel=1e-12)
        assert np.allclose(got.witness_s, want.witness_s, rtol=0, atol=1e-12)
    if n_perturb == 0:
        assert all(t.best_inequiv_residual == float("inf") for t in report.trials)


@pytest.mark.parametrize("n_perturb", [0, 8])
@pytest.mark.parametrize("n_chain", range(2, 10))
def test_identifiability_scan_matches_serial_referee(n_chain, n_perturb):
    check_scan_against_serial(ladder(n_chain), 2, n_perturb)


@pytest.mark.parametrize("n_chain", range(2, 10))
def test_identifiability_scan_matches_serial_referee_at_three_trials(n_chain):
    check_scan_against_serial(ladder(n_chain), 3, 8)


def test_exact_certificate_lifts_the_dim_cap():
    model = ladder(8)  # dim 10
    rng = spawn_rng(23, "exact-long")
    binding = rational_binding(model.param_ids, rng)
    a, b, c = ssm.evaluate_exact(model, binding)
    flipped = sta.flip_binding(binding, {"hb", "h3", "h7"})
    a_p, _, _ = ssm.evaluate_exact(model, flipped)
    inst = sta.solve_similarity_exact(a, a_p, b, c)
    assert inst.verdict == "equivalent"
    assert np.array_equal(inst.s_matrix,
                          expected_diag_witness(model, {"hb", "h3", "h7"}))
    bumped = dict(binding, h4=binding["h4"] * Fraction(21, 20))
    a_p, _, _ = ssm.evaluate_exact(model, bumped)
    inst = sta.solve_similarity_exact(a, a_p, b, c)
    assert inst.verdict == "inequivalent"
    assert inst.residual > 0
