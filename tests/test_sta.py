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
from chainsense.errors import DimensionMismatch
from chainsense.prng import rational_binding, spawn_rng
from referees.prng import random_binding
from referees.sta import solve_similarity_exact
from test_ssm import _arnoldi_referee

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
    """Float certificate between two bindings of a minimal model: a stack
    of one pair."""
    a_h, b, c = ssm.evaluate(model, [binding])
    a_hp, _, _ = ssm.evaluate(model, [binding_prime])
    (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
    return inst


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
    mk_h = ssm.markov(*ssm.evaluate_exact(model, binding), count)
    mk_hp = ssm.markov(*ssm.evaluate_exact(model, flipped), count)
    assert mk_h == mk_hp


def test_odd_n_after_reduction_equivalent_and_not():
    model = ladder(3)
    rng = spawn_rng(7, "odd")
    binding = rational_binding(model.param_ids, rng)
    a_h, b, c = sta._minimal_triple(model, [binding])
    flipped = sta.flip_binding(binding, {"hb", "h2"})
    a_hp, _, _ = sta._minimal_triple(model, [flipped])
    (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
    assert inst.verdict == "equivalent"
    bumped = dict(binding)
    bumped["h1"] = binding["h1"] * Fraction(9, 8)
    a_hp, _, _ = sta._minimal_triple(model, [bumped])
    (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
    assert inst.verdict == "inequivalent"


def test_exact_rederivation_agrees_with_svd_route():
    model = ladder(2)
    rng = spawn_rng(11, "exact-agree")
    binding = rational_binding(model.param_ids, rng)
    a, b, c = ssm.evaluate_exact(model, binding)
    for flip in [set(), {"hb"}, {"h1"}, {"hb", "h1"}]:
        flipped = sta.flip_binding(binding, flip)
        a_p, _, _ = ssm.evaluate_exact(model, flipped)
        ex = solve_similarity_exact(a, a_p, b, c)
        fl = certificate(model, binding, flipped)
        assert ex.verdict == fl.verdict == "equivalent"
        assert ex.affine_dim == fl.affine_dim == 0
    bumped = dict(binding)
    bumped["hb"] = binding["hb"] * 2
    a_p, _, _ = ssm.evaluate_exact(model, bumped)
    ex = solve_similarity_exact(a, a_p, b, c)
    fl = certificate(model, binding, bumped)
    assert ex.verdict == fl.verdict == "inequivalent"


def test_orbit_members_share_even_markov_parameters():
    model = ladder(2)
    binding = {"ha": 0.9, "hb": 1.4, "h1": 0.6}
    base = ssm.markov(*ssm.evaluate_exact(model, binding), 10)
    params = sorted(binding)
    for pattern in itertools.product((1, -1), repeat=len(params)):
        member = {p: eps * binding[p] for p, eps in zip(params, pattern)}
        if member["ha"] != binding["ha"]:
            continue  # known coupling is not scanned
        assert ssm.markov(*ssm.evaluate_exact(model, member), 10) == base


@pytest.mark.parametrize("n_chain", [2, 3])
def test_identifiability_scan_ladder(n_chain):
    report = sta.identifiability_scan(ladder(n_chain), seed=13)
    assert report.all_clean is True
    for trial in report.trials:
        assert trial.sign_flips_equivalent == trial.sign_flips_checked
        assert trial.perturbations_inequivalent == trial.perturbations_checked


@pytest.mark.parametrize("scheme, initial", [("YaYb", "xa"), ("YaZb", "xb")])
def test_identifiability_scan_refuses_other_schemes(scheme, initial):
    """The orthogonal schemes carry no output and the cube is decided by
    its elimination; the scan certifies ladders only."""
    model = ssm.build(SensorConfig(2, 2, scheme, initial))
    with pytest.raises(DimensionMismatch, match="certifies ladder models"):
        sta.identifiability_scan(model)


@pytest.mark.parametrize("n_chain", [12, 16, 24, 41])
def test_certificate_verdicts_on_long_chains(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(17, "long", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    a_h, b, c = sta._minimal_triple(model, [binding])
    flippable = [p for p in model.param_ids if p != "ha"]
    for _ in range(4):
        flip = {p for p in flippable if rng.random() < 0.5} or {"hb"}
        a_hp, _, _ = sta._minimal_triple(model, [sta.flip_binding(binding, flip)])
        (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
        assert inst.verdict == "equivalent", flip
        assert inst.affine_dim == 0
        assert abs(inst.s_matrix[0, 0] - 1.0) <= 1e-8
        assert np.allclose(np.abs(inst.s_matrix), np.eye(len(b)), atol=1e-8)
    for pid in ("ha", "hb", f"h{n_chain - 1}"):
        perturbed = dict(binding)
        perturbed[pid] = binding[pid] * Fraction(21, 20)  # +5 %
        a_hp, _, _ = sta._minimal_triple(model, [perturbed])
        (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
        assert inst.verdict == "inequivalent", pid
        assert inst.residual >= 1e-4


@pytest.mark.parametrize("n_chain", range(1, 66, 2))
def test_float_spt_matches_exact_reduction(n_chain):
    model = ladder(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(19, str(n_chain)))
    (a_min,), b_min, c_min = sta._minimal_triple(model, [binding])
    minimal, _ = realization.spt_minimal(model, binding)
    ref = np.array([[float(v) for v in row] for row in minimal.a_min])
    assert np.max(np.abs(a_min - ref)) <= 4e-15 * np.max(np.abs(ref))
    assert b_min.tolist() == [float(v) for v in minimal.b_min]
    assert c_min.tolist() == [float(v) for v in minimal.c_min]


@pytest.mark.parametrize("n_chain", range(1, 41))
def test_ladder_arnoldi_basis_is_the_signed_unit_basis(n_chain):
    """On the ladder's minimal A (tridiagonal at even N, one full last
    column at odd N) Arnoldi from x0 = e_1 returns Q = D = diag(+-1) and
    H = D A D, both exactly: the unit vectors are the Krylov basis the
    certificate works in."""
    model = ladder(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(37, str(n_chain)))
    if n_chain % 2:
        (a,), b, _ = sta._minimal_triple(model, [binding])
    else:
        a, b, _ = ssm.evaluate(model, binding)
    q, h = ssm.arnoldi(a, b, len(b))
    d = np.diagonal(q)
    assert np.array_equal(np.abs(q), np.eye(len(b)))
    assert np.array_equal(h, q.T @ a @ q)
    assert np.array_equal(h, d[:, None] * a * d)


def test_krylov_breakdown_is_degenerate():
    a = np.diag([1.0, 2.0, 3.0])
    x0 = np.array([1.0, 0.0, 0.0])  # an eigenvector: the Krylov space is 1-d
    (inst,) = sta.solve_similarity_raw(a[None], a[None], x0, x0)
    assert inst.verdict == "degenerate"
    assert inst.diagnostics["breakdown_step"] == 1
    assert inst.s_matrix is None


def test_certificate_refuses_input_off_its_krylov_basis():
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    x0 = np.array([1.0, 0.0, 0.0])
    dense = a.copy()
    dense[2, 0] = 0.5  # below the subdiagonal: not upper Hessenberg
    refusal = "needs upper Hessenberg A and x0 on e_1"
    for a_h, a_hp in ((dense, a), (a, dense)):
        with pytest.raises(DimensionMismatch, match=refusal):
            sta.solve_similarity_raw(a_h[None], a_hp[None], x0, x0)
    with pytest.raises(DimensionMismatch, match=refusal):
        sta.solve_similarity_raw(np.stack([a, a]), np.stack([a, dense]), x0, x0)
    for start in ([0.0, 1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(DimensionMismatch, match=refusal):
            sta.solve_similarity_raw(a[None], a[None], np.array(start), x0)
    (inst,) = sta.solve_similarity_raw(a[None], a[None], 2 * x0, x0)
    assert inst.verdict == "equivalent"


def test_certificate_refuses_stacks_not_matched_one_to_one():
    """Two (k, n, n) stacks of the same shape, and x0 and C of length n;
    a single matrix is a stack of one, not a reference for every pair."""
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    x0 = np.array([1.0, 0.0, 0.0])
    refusal = "pairs two \\(k, n, n\\) stacks"
    for a_h, a_hp, start, c in (
            (a, a, x0, x0),
            (a, np.stack([a, a]), x0, x0),
            (a[None], np.stack([a, a]), x0, x0),
            (a[None, :2, :2], a[None, :2, :2], x0, x0[:2]),
            (a[None, :, :2], a[None, :, :2], x0[:2], x0[:2]),
            (a[None], a[None], x0, x0[:2])):
        with pytest.raises(DimensionMismatch, match=refusal):
            sta.solve_similarity_raw(a_h, a_hp, start, c)


def test_stacked_certificate_breakdown_is_per_slice():
    a_h = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    x0 = np.array([1.0, 0.0, 0.0])
    same, closed = sta.solve_similarity_raw(
        np.stack([a_h, a_h]), np.stack([a_h, np.diag([1.0, 2.0, 3.0])]), x0, x0)
    assert same.verdict == "equivalent"
    assert np.allclose(same.s_matrix, np.eye(3), atol=1e-12)
    assert closed.verdict == "degenerate"
    assert closed.diagnostics["breakdown_step"] == 1
    assert closed.affine_dim == 2
    assert closed.s_matrix is None


def test_stacked_reference_breakdown_is_per_pair():
    """With a stack of references matched one to one, a reference whose
    Krylov space closes early leaves only its own pair degenerate."""
    full = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    flipped = full * np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    closed = np.diag([1.0, 2.0, 3.0])
    x0 = np.array([1.0, 0.0, 0.0])
    same, broken, flip = sta.solve_similarity_raw(
        np.stack([full, closed, full]), np.stack([full, full, flipped]), x0, x0)
    assert broken.verdict == "degenerate"
    assert broken.diagnostics["breakdown_step"] == 1
    assert broken.affine_dim == 2
    assert broken.s_matrix is None
    assert same.verdict == flip.verdict == "equivalent"
    assert np.allclose(same.s_matrix, np.eye(3), atol=1e-12)
    assert np.allclose(flip.s_matrix, np.diag([1.0, 1.0, -1.0]), atol=1e-12)
    for got, want in zip((same, flip), sta.solve_similarity_raw(
            np.stack([full, full]), np.stack([full, flipped]), x0, x0)):
        assert got.verdict == want.verdict
        assert got.residual == pytest.approx(want.residual, abs=1e-14)


def flip_and_bump_stack(model, n_chain):
    """A binding, every sign pattern of its unknown couplings and every
    coupling moved up and down by 1/16, reduced as one stack."""
    rng = spawn_rng(29, "stack", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    flippable = [p for p in model.param_ids if p != "ha"]
    flips = [sta.flip_binding(binding, set(pat))
             for r in range(1, len(flippable) + 1)
             for pat in itertools.combinations(flippable, r)]
    bumps = [dict(binding, **{pid: binding[pid] * f})
             for pid in model.param_ids
             for f in (Fraction(17, 16), Fraction(16, 17))]
    return flips, bumps, sta._minimal_triple(model, [binding, *flips, *bumps])


@pytest.mark.parametrize("n_chain", range(2, 10))
def test_stacked_certificates_match_one_at_a_time(n_chain):
    """The flip and perturbation stack in one call against one stack of
    one pair each."""
    model = ladder(n_chain)
    flips, bumps, (a, b, c) = flip_and_bump_stack(model, n_chain)
    stacked = sta.solve_similarity_raw(
        np.repeat(a[:1], len(a) - 1, axis=0), a[1:], b, c)
    assert len(stacked) == len(flips) + len(bumps)
    for other, a_hp, inst in zip(flips + bumps, a[1:], stacked):
        a_one, b_one, c_one = sta._minimal_triple(model, [other])
        assert np.allclose(a_hp, a_one[0], rtol=0,
                           atol=1e-12 * np.abs(a_one).max())
        assert np.array_equal(b, b_one) and np.array_equal(c, c_one)
        (one,) = sta.solve_similarity_raw(a[:1], a_one, b, c)
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


def serial_scan_trials(model, seed):
    """The scan's trials with one reduction and one certificate per binding:
    the referee of the stacked scan."""
    config = model.config
    flippable = [p for p in model.param_ids if p != "ha"]
    rows = []
    for t in range(sta.SCAN_TRIALS):
        rng = spawn_rng(seed, "scan", config.scheme_tag, str(config.n_chain), str(t))
        binding = rational_binding(model.param_ids, rng)
        a_h, b, c = sta._minimal_triple(model, [binding])
        if 2 ** len(flippable) <= sta.MAX_SIGN_PATTERNS:
            patterns = [pat for r in range(1, len(flippable) + 1)
                        for pat in itertools.combinations(flippable, r)]
        else:
            patterns = [tuple(p for p in flippable if rng.random() < 0.5)
                        for _ in range(sta.MAX_SIGN_PATTERNS)]
            patterns = [p if p else (flippable[0],) for p in patterns]
        worst_equiv, n_equiv, witness = 0.0, 0, None
        for pat in patterns:
            a_hp, _, _ = sta._minimal_triple(
                model, [sta.flip_binding(binding, set(pat))])
            (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
            worst_equiv = max(worst_equiv, inst.residual)
            if inst.verdict == "equivalent":
                n_equiv += 1
                if witness is None:
                    witness = inst.s_matrix
        best_inequiv, n_inequiv = float("inf"), 0
        for _ in range(sta.SCAN_PERTURBATIONS):
            pid = model.param_ids[int(rng.integers(0, len(model.param_ids)))]
            delta = Fraction(int(rng.integers(1, 9)), 16)
            factor = 1 + delta if rng.random() < 0.5 else 1 / (1 + delta)
            perturbed = dict(binding)
            perturbed[pid] = binding[pid] * factor
            a_hp, _, _ = sta._minimal_triple(model, [perturbed])
            (inst,) = sta.solve_similarity_raw(a_h, a_hp, b, c)
            best_inequiv = min(best_inequiv, inst.residual)
            if inst.verdict == "inequivalent":
                n_inequiv += 1
        rows.append(sta.ScanTrial(
            {k: float(v) for k, v in binding.items()}, len(patterns), n_equiv,
            sta.SCAN_PERTURBATIONS, n_inequiv, worst_equiv, best_inequiv,
            witness))
    return rows


@pytest.mark.parametrize("n_chain", range(2, 10))
def test_identifiability_scan_matches_serial_referee(n_chain):
    model = ladder(n_chain)
    report = sta.identifiability_scan(model, seed=31)
    assert report.all_clean is True
    serial = serial_scan_trials(model, seed=31)
    assert len(report.trials) == len(serial) == sta.SCAN_TRIALS
    for got, want in zip(report.trials, serial):
        assert got.binding == want.binding
        assert got.sign_flips_checked == want.sign_flips_checked
        assert got.sign_flips_equivalent == want.sign_flips_equivalent
        assert (got.perturbations_checked == want.perturbations_checked
                == sta.SCAN_PERTURBATIONS)
        assert got.perturbations_inequivalent == want.perturbations_inequivalent
        # the worst equivalent residual is round-off, ~1e-15
        assert got.worst_equiv_residual == pytest.approx(
            want.worst_equiv_residual, rel=1e-12, abs=1e-12)
        assert got.best_inequiv_residual == pytest.approx(
            want.best_inequiv_residual, rel=1e-12)
        assert np.allclose(got.witness_s, want.witness_s, rtol=0, atol=1e-12)


def test_exact_certificate_lifts_the_dim_cap():
    model = ladder(8)  # dim 10
    rng = spawn_rng(23, "exact-long")
    binding = rational_binding(model.param_ids, rng)
    a, b, c = ssm.evaluate_exact(model, binding)
    flipped = sta.flip_binding(binding, {"hb", "h3", "h7"})
    a_p, _, _ = ssm.evaluate_exact(model, flipped)
    inst = solve_similarity_exact(a, a_p, b, c)
    assert inst.verdict == "equivalent"
    assert np.array_equal(inst.s_matrix,
                          expected_diag_witness(model, {"hb", "h3", "h7"}))
    bumped = dict(binding, h4=binding["h4"] * Fraction(21, 20))
    a_p, _, _ = ssm.evaluate_exact(model, bumped)
    inst = solve_similarity_exact(a, a_p, b, c)
    assert inst.verdict == "inequivalent"
    assert inst.residual > 0


def arnoldi_certificate(a_h, a_hp, x0, c, pair):
    """The certificate in Arnoldi bases, the referee of
    ``sta.solve_similarity_raw``: Q, H of each reference and Q', H' of
    each candidate from ``_arnoldi_referee``, the upper-triangular T with
    T e_1 = e_1 and T H = H' T, then S = Q' T Q^T.  Returns each pair's
    (verdict, residual, det S, S or None, breakdown step or None)."""
    n = len(x0)

    def bases(stack):
        q, h, steps = np.zeros(stack.shape), np.zeros(stack.shape), []
        for q_i, h_i, a in zip(q, h, stack):
            basis, hess = _arnoldi_referee(a, x0, n)
            width = basis.shape[1]
            q_i[:, :width], h_i[:width, :width] = basis, hess
            steps.append(width)
        return q, h, np.array(steps)

    pair = np.asarray(pair, dtype=np.intp)
    q, h, steps = bases(a_h)
    q, h, paired = q[pair], h[pair], a_h[pair]
    qp, hp, steps_p = bases(a_hp)
    steps = np.minimum(steps[pair], steps_p)
    full = steps == n
    q, h, qp, hp = q[full], h[full], qp[full], hp[full]
    t = np.zeros(hp.shape)
    t[:, 0, 0] = 1.0
    for j in range(n - 1):
        t[:, :, j + 1] = ((hp @ t[:, :, j, None] - t[:, :, : j + 1]
                           @ h[:, : j + 1, j, None])[:, :, 0]
                          / h[:, j + 1, j, None])
    s = np.zeros(a_hp.shape)
    s[full] = qp @ t @ q.transpose(0, 2, 1)
    residuals = np.sqrt(
        np.sum((s @ paired - a_hp @ s) ** 2, axis=(1, 2))
        + np.sum((s @ x0 - x0) ** 2, axis=1)
        + np.sum((c @ s - c) ** 2, axis=1))
    dets = np.linalg.det(s)
    scales = np.maximum(1.0, np.linalg.norm(paired, axis=(1, 2)))
    out = []
    for i, reached in enumerate(steps):
        if reached < n:
            out.append(("degenerate", float("inf"), 0.0, None, int(reached)))
            continue
        if (residuals[i] <= sta.EQUIV_RESIDUAL_SCALE * scales[i]
                and abs(dets[i]) > sta.DET_THRESHOLD):
            verdict = "equivalent"
        elif residuals[i] >= sta.INEQUIV_RESIDUAL:
            verdict = "inequivalent"
        else:
            verdict = "degenerate"
        out.append((verdict, float(residuals[i]), float(dets[i]),
                    s[i] if verdict == "equivalent" else None, None))
    return out


# 18 seeds of the fixed 2-trial, 8-perturbation scan: 324 to 576
# certified instances per N
@pytest.mark.parametrize("seed", range(18))
@pytest.mark.parametrize("n_chain", range(1, 17))
def test_certificate_is_the_arnoldi_certificate_to_the_last_bit(
        n_chain, seed, monkeypatch):
    """On every instance the scan certifies, solving T A = A' T on the
    triples themselves gives the verdict, residual, det S and S of the
    certificate in Arnoldi bases, bit for bit."""
    calls = []
    solve = sta.solve_similarity_raw

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sta, "solve_similarity_raw", recorded)
    sta.identifiability_scan(ladder(n_chain), seed=seed)
    ((a_h, a_hp, x0, c),) = calls
    for got, (verdict, residual, det_s, s, breakdown) in zip(
            solve(a_h, a_hp, x0, c),
            arnoldi_certificate(a_h, a_hp, x0, c, range(len(a_hp))),
            strict=True):
        assert got.verdict == verdict
        assert got.residual == residual and got.det_s == det_s
        assert got.diagnostics.get("breakdown_step") == breakdown
        assert (got.s_matrix is None and s is None
                or np.array_equal(got.s_matrix, s))
