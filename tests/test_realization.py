"""Structural results checked in exact rational arithmetic.

Closed forms (determinants, reduction artifacts) are compared against
independent exact computations: Gaussian-elimination determinants, matrix
inverses, and Krylov stacks built entry by entry with Fractions.
"""

from fractions import Fraction

import numpy as np
import pytest

from chainsense import exact, realization, ssm
from chainsense.accessible import CATALOG, SensorConfig, generate
from chainsense.errors import AtypicalParameters, DimensionMismatch
from chainsense.prng import random_binding, rational_binding, spawn_rng

# a 0/0 or overflow inside a float rank decision is a bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def ladder(n_chain):
    return ssm.build(SensorConfig(n_chain, 2, "ZaYb", "xa"))


def cube(n_chain):
    return ssm.build(SensorConfig(n_chain, 2, "YaZb", "xb"))


def controllable_width(model, binding):
    """Width where Arnoldi on (A, B) stops, as the Kalman reduction reports it."""
    return realization.kalman_minimal(model, binding).diagnostics["controllable_rank"]


# -- controllability --------------------------------------------------------


@pytest.mark.parametrize("n_chain", [2, 3, 4, 5, 20, 33, 40])
def test_ladder_controllability_full_rank(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(3, "cm", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    rank = controllable_width(model, binding)
    assert rank == model.dim


def test_hb_zero_collapses_controllability():
    model = ladder(3)
    binding = {"ha": 1.1, "hb": 0.0, "h1": 0.8, "h2": 1.3}
    rank = controllable_width(model, binding)
    assert rank == 2  # Krylov space stops at the sensor pair


def test_det_cm_n2_by_hand():
    model = ladder(2)
    binding = {"ha": Fraction(2), "hb": Fraction(3), "h1": Fraction(5)}
    det = realization.det_cm_exact(model, binding)
    assert det == Fraction(2) ** 3 * Fraction(3) ** 2 * Fraction(5)
    assert det == realization.det_cm_closed_form(2, binding)


@pytest.mark.parametrize("n_chain", [2, 3, 4, 5, 6])
def test_det_cm_closed_form_identity(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(7, "detcm", str(n_chain))
    for _ in range(4):
        binding = rational_binding(model.param_ids, rng)
        det = realization.det_cm_exact(model, binding)
        assert det == realization.det_cm_closed_form(n_chain, binding)
        assert det != 0


# -- observability ----------------------------------------------------------


@pytest.mark.parametrize("n_chain,expect_deficiency", [(2, 0), (3, 1), (4, 0), (5, 1), (6, 0), (7, 1)])
def test_observability_rank_parity(n_chain, expect_deficiency):
    model = ladder(n_chain)
    rng = spawn_rng(13, "om", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    _, rank = realization.observability_rank(model, binding)
    assert rank == model.dim - expect_deficiency
    exact_rank = realization.exact_observability_rank(
        model, rational_binding(model.param_ids, rng))
    assert exact_rank == model.dim - expect_deficiency


@pytest.mark.parametrize("n_chain", [20, 21, 33, 40])
def test_observability_rank_parity_on_long_ladders(n_chain):
    # beyond EXACT_RANK_DIM; raw-power SVD ranks came out short here
    model = ladder(n_chain)
    binding = random_binding(model.param_ids, spawn_rng(3, "long", str(n_chain)))
    _, rank = realization.observability_rank(model, binding)
    assert rank == model.dim - n_chain % 2


@pytest.mark.parametrize("n_chain", [1, 2, 3])
def test_cube_krylov_ranks_match_exact_rank(n_chain):
    model = cube(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(3, "rk", str(n_chain)))
    _assert_arnoldi_ranks_are_exact(model, binding)


def _assert_arnoldi_ranks_are_exact(model, binding):
    a, b, c = ssm.evaluate_exact(model, binding)
    _, obs = realization.observability_rank(model, binding)
    ctrl = controllable_width(model, binding)
    assert obs == exact.rank(ssm.krylov(exact.transpose(a), c, model.dim))
    assert ctrl == exact.rank(ssm.krylov(a, b, model.dim))


def _catalog_configs_up_to_exact_rank_dim():
    for (label, sensor), initials in CATALOG.items():
        for initial in initials:
            n_chain = 1
            while True:
                config = SensorConfig(n_chain, sensor, label, initial)
                if len(generate(config)) > realization.EXACT_RANK_DIM:
                    break
                yield config
                n_chain += 1


@pytest.mark.parametrize(
    "config", list(_catalog_configs_up_to_exact_rank_dim()),
    ids=lambda c: f"{c.scheme_tag}-{c.initial_label}-N{c.n_chain}")
def test_catalog_krylov_ranks_match_exact_rank(config):
    model = ssm.build(config)
    binding = rational_binding(
        model.param_ids, spawn_rng(5, "rk", config.scheme_tag,
                                   config.initial_label, str(config.n_chain)))
    _assert_arnoldi_ranks_are_exact(model, binding)


@pytest.mark.parametrize("n_chain", [3, 5])
def test_pbh_odd_deficient_at_zero(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(17, "pbh", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    res = realization.pbh_test_exact(
        model, {k: Fraction(v) for k, v in binding.items()}, Fraction(0))
    assert res.deficient
    res_exact = realization.pbh_test_exact(
        model, rational_binding(model.param_ids, rng), Fraction(0))
    assert res_exact.deficient


@pytest.mark.parametrize("n_chain", [2, 4])
def test_pbh_even_full_at_zero(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(19, "pbh-even", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    binding = {k: Fraction(v) for k, v in binding.items()}
    assert not realization.pbh_test_exact(model, binding, Fraction(0)).deficient


# -- even-N permutation structure -------------------------------------------


@pytest.mark.parametrize("n_chain", [2, 4, 6])
def test_even_structure_blocks_and_diagonal(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(23, "even", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    st = realization.even_structure(model, binding)
    half = model.dim // 2
    t = st.t_block
    # upper bidiagonal: diag (-ha, -h1, -h3, ...), superdiag (hb, h2, h4, ...)
    diag_params = ["ha"] + [f"h{2 * i - 1}" for i in range(1, half)]
    super_params = ["hb"] + [f"h{2 * i}" for i in range(1, half - 1)]
    for i in range(half):
        for j in range(half):
            if j == i:
                assert t[i][j] == -binding[diag_params[i]]
            elif j == i + 1:
                assert t[i][j] == binding[super_params[i]]
            else:
                assert t[i][j] == 0
    assert st.q_diagonal == realization.even_q_diagonal_closed_form(n_chain, binding)


def test_even_structure_rejects_odd_or_cube():
    with pytest.raises(DimensionMismatch):
        realization.even_structure(ladder(3), {})
    with pytest.raises(DimensionMismatch):
        realization.even_structure(cube(2), {})


# -- SPT reduction ----------------------------------------------------------


def test_spt_n1_worked_example():
    model = ladder(1)
    binding = {"ha": Fraction(2), "hb": Fraction(3)}
    minimal, art = realization.spt_minimal(model, binding)
    assert art.p_bar == [[0, 1], [-2, 0]]
    assert art.p_vec == [0, 3]
    assert art.det_p_bar == 2
    assert art.a_tilde == [[0, Fraction(2) + Fraction(9, 2)], [-2, 0]]
    assert minimal.order == 2
    assert minimal.b_min == (1, 0) or list(minimal.b_min) == [1, 0]
    assert list(minimal.c_min) == [0, 1]


@pytest.mark.parametrize("n_chain", [3, 5, 7])
def test_spt_artifact_closed_forms(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(29, "spt", str(n_chain))
    for _ in range(3):
        binding = rational_binding(model.param_ids, rng)
        minimal, art = realization.spt_minimal(model, binding)
        assert art.p_vec == realization.p_vec_closed_form(n_chain, binding)
        assert art.det_p_bar == realization.det_p_bar_closed_form(n_chain, binding)
        inv = exact.inverse(art.p_bar)
        last_col = [row[-1] for row in inv]
        assert last_col == realization.p_bar_inverse_last_column_closed_form(
            n_chain, binding)
        a_full, _, _ = ssm.evaluate_exact(model, binding)
        m = model.dim - 1
        for j in range(n_chain):
            for i in range(m):
                assert art.a_tilde[i][j] == a_full[i][j]
        last = [art.a_tilde[i][m - 1] for i in range(m)]
        assert last == realization.a_tilde_last_column_closed_form(n_chain, binding)


@pytest.mark.parametrize("n_chain", [33, 65])
def test_spt_artifact_closed_forms_on_long_ladders(n_chain):
    model = ladder(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(29, "spt", str(n_chain)))
    _, art = realization.spt_minimal(model, binding)
    assert art.det_p_bar == realization.det_p_bar_closed_form(n_chain, binding)
    assert art.p_vec == realization.p_vec_closed_form(n_chain, binding)
    m = model.dim - 1
    last = [art.a_tilde[i][m - 1] for i in range(m)]
    assert last == realization.a_tilde_last_column_closed_form(n_chain, binding)


@pytest.mark.parametrize("build, n_chain", [(ladder, 9), (ladder, 10), (cube, 2)])
def test_exact_krylov_equals_repeated_matvec(build, n_chain):
    model = build(n_chain)
    binding = rational_binding(model.param_ids, spawn_rng(37, "krylov", str(n_chain)))
    a, b, c = ssm.evaluate_exact(model, binding)
    for mat, v in [(a, b), (exact.transpose(a), c)]:
        expected = [v]
        for _ in range(model.dim):
            expected.append(exact.matvec(mat, expected[-1]))
        assert ssm.krylov(mat, v, model.dim + 1) == expected


@pytest.mark.parametrize("n_chain", [1, 3, 5])
def test_spt_markov_exactly_preserved(n_chain):
    model = ladder(n_chain)
    rng = spawn_rng(31, "spt-markov", str(n_chain))
    binding = rational_binding(model.param_ids, rng)
    minimal, _ = realization.spt_minimal(model, binding)
    a, b, c = ssm.evaluate_exact(model, binding)
    full = ssm.markov(a, b, c, 2 * model.dim)
    red = ssm.markov(minimal.a_min, minimal.b_min, minimal.c_min, 2 * model.dim)
    assert full == red


def test_spt_rejects_wrong_scheme_and_zero():
    with pytest.raises(DimensionMismatch):
        realization.spt_minimal(ladder(2), {})
    with pytest.raises(DimensionMismatch):
        realization.spt_minimal(cube(2), {})
    model = ladder(3)
    zeros = {"ha": Fraction(1), "hb": Fraction(0), "h1": Fraction(1), "h2": Fraction(1)}
    with pytest.raises(AtypicalParameters):
        realization.spt_minimal(model, zeros)


# -- Kalman reduction -------------------------------------------------------


def test_kalman_cube_n2_minimal_order_12():
    model = cube(2)
    rng = spawn_rng(37, "kalman-cube")
    binding = random_binding(model.param_ids, rng)
    real = realization.kalman_minimal(model, binding)
    assert real.order == 12
    assert real.diagnostics["markov_residual"] < 1e-8


@pytest.mark.parametrize("n_chain,order", [
    (2, 4), (4, 6), (3, 4), (5, 6), (30, 32), (33, 34), (40, 42), (41, 42)])
def test_kalman_ladder_orders(n_chain, order):
    model = ladder(n_chain)
    rng = spawn_rng(41, "kalman-ladder", str(n_chain))
    binding = random_binding(model.param_ids, rng)
    real = realization.kalman_minimal(model, binding)
    assert real.order == order
    assert real.diagnostics["markov_residual"] < 1e-8


@pytest.mark.parametrize("build,n_chain", [
    (ladder, 1), (ladder, 2), (ladder, 3), (ladder, 4), (ladder, 5), (ladder, 6),
    (cube, 1), (cube, 2)])
def test_kalman_order_is_exact_hankel_rank(build, n_chain):
    # the minimal order of a SISO triple is the rank of its Markov Hankel matrix
    model = build(n_chain)
    binding = rational_binding(
        model.param_ids, spawn_rng(47, "kalman-hankel", str(n_chain)))
    real = realization.kalman_minimal(model, binding)
    assert real.order == exact_hankel_rank(model, binding)
    assert real.diagnostics["markov_residual"] < 1e-8


def exact_hankel_rank(model, binding):
    a, b, c = ssm.evaluate_exact(model, binding)
    markov = ssm.markov(a, b, c, 2 * model.dim)
    return exact.rank([markov[i:i + model.dim] for i in range(model.dim)])


@pytest.mark.parametrize("ha,hb,h1,order", [
    # one-particle energies e2 = 2 e1: 25 ha^2 h1^2 = 4 s^2
    (4, 3, 5, 10),
    # e2 = 3 e1: 100 ha^2 h1^2 = 9 s^2
    (3, 4, 5, 8),
    # ha^2 = hb^2 + h1^2 alone is no collapse surface
    (Fraction(13, 8), Fraction(5, 8), Fraction(12, 8), 12),
])
def test_cube_order_collapses_on_energy_ratio_surfaces(ha, hb, h1, order):
    binding = {"ha": Fraction(ha), "hb": Fraction(hb), "h1": Fraction(h1)}
    assert exact_hankel_rank(cube(2), binding) == order


@pytest.mark.parametrize("n_chain", [61, 70])
def test_ladder_orders_past_62_qubits(n_chain):
    # Pauli masks are Python ints, so the closure has no register cap
    model = ladder(n_chain)
    binding = random_binding(model.param_ids, spawn_rng(3, "wide", str(n_chain)))
    _, rank = realization.observability_rank(model, binding)
    real = realization.kalman_minimal(model, binding)
    assert rank == real.order == model.dim - n_chain % 2
    assert real.diagnostics["markov_residual"] < 1e-8


def test_kalman_and_spt_agree_on_markov():
    model = ladder(3)
    rng = spawn_rng(43, "kalman-vs-spt")
    rational = rational_binding(model.param_ids, rng)
    minimal_spt, _ = realization.spt_minimal(model, rational)
    float_binding = {k: float(v) for k, v in rational.items()}
    minimal_kal = realization.kalman_minimal(model, float_binding)
    count = 2 * model.dim
    spt_markov = np.array(
        [float(v) for v in ssm.markov(
            minimal_spt.a_min, minimal_spt.b_min, minimal_spt.c_min, count)])
    kal_markov = ssm.markov(
        minimal_kal.a_min, minimal_kal.b_min, minimal_kal.c_min, count)
    scale = np.max(np.abs(spt_markov))
    assert np.max(np.abs(spt_markov - kal_markov)) < 1e-8 * max(scale, 1.0)
