"""State-space construction against the dense quantum oracle.

The oracle here is deliberately independent of the ssm module: it
exponentiates the dense Hamiltonian and traces the evolved measurement
against the initial density matrix.  Agreement of C exp(At) B with that
is the load-bearing check for the whole linear-model layer.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import estimate, pauli, ssm
from chainsense.accessible import CATALOG, SensorConfig
from chainsense.pauli import dense_hamiltonian, dense_matrix, dense_state
from chainsense.prng import random_binding, spawn_rng


def quantum_impulse(cfg: SensorConfig, binding: dict[str, float], times) -> np.ndarray:
    """Tr(e^{iHt} M e^{-iHt} rho0), one eigendecomposition for all times."""
    ham = cfg.hamiltonian()
    h = dense_hamiltonian(ham, binding)
    m = dense_matrix(cfg.measurement_string())
    rho = dense_state(cfg.initial_state())
    w, v = np.linalg.eigh(h)
    m_eig = v.conj().T @ m @ v
    rho_eig = v.conj().T @ rho @ v
    # y(t) = sum_{jk} e^{i (w_j - w_k) t} M_jk rho_kj
    weights = m_eig * rho_eig.T
    gaps = np.subtract.outer(w, w).ravel()
    times = np.asarray(times, dtype=float)
    y = np.exp(1j * np.outer(times, gaps)) @ weights.ravel()
    assert np.max(np.abs(y.imag)) < 1e-10
    return y.real


def all_schemes(n_chain):
    for (label, sensors), initials in CATALOG.items():
        for ini in initials:
            yield SensorConfig(n_chain, sensors, label, ini)


def entry_map(model):
    """{(row, col): (coupling, sign)} of the model's A entries."""
    return {(e.row, e.col): (e.param_id, e.sign) for e in model.a_entries}


# -- structure --------------------------------------------------------------


def test_ladder_matrix_is_signed_tridiagonal():
    cfg = SensorConfig(3, 2, "ZaYb", "xa")
    model = ssm.build(cfg)
    assert model.dim == 5
    expected = {}
    params = ["ha", "hb", "h1", "h2"]
    for k, pid in enumerate(params):
        expected[(k, k + 1)] = (pid, 1)
        expected[(k + 1, k)] = (pid, -1)
    assert entry_map(model) == expected
    assert model.b == (1, 0, 0, 0, 0)
    assert model.c == (0, 1, 0, 0, 0)


@pytest.mark.parametrize("n_chain", [1, 2, 3, 4])
def test_catalog_b_and_c_are_ints(n_chain):
    for (label, sensor_qubits), initials in CATALOG.items():
        for initial in initials:
            model = ssm.build(SensorConfig(n_chain, sensor_qubits, label,
                                           initial))
            assert len(model.b) == len(model.c) == model.dim
            assert all(type(v) is int and v in (-1, 0, 1)
                       for v in model.b + model.c)


def test_single_qubit_yb_matrix_is_signed_tridiagonal():
    cfg = SensorConfig(3, 1, "Yb", "xb")
    model = ssm.build(cfg)
    assert model.dim == 4
    expected = {}
    for k, pid in enumerate(["hb", "h1", "h2"]):
        expected[(k, k + 1)] = (pid, 1)
        expected[(k + 1, k)] = (pid, -1)
    assert entry_map(model) == expected
    # Yb itself has zero expectation in the +x product state
    assert model.b == (0,) * 4
    assert model.c[0] == 1


def test_cube_pinned_entries_and_vectors():
    cfg = SensorConfig(2, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    assert model.dim == 24
    em = entry_map(model)
    assert em[(0, 1)] == ("ha", -1)
    assert em[(1, 0)] == ("ha", 1)
    # B reads the Xb expectation (basis position 1), C the YaZb position (0)
    assert model.b[1] == 1
    assert sum(abs(v) for v in model.b) == 1
    assert model.c[0] == 1
    assert sum(abs(v) for v in model.c) == 1


@pytest.mark.parametrize("n_chain", [1, 2, 3])
def test_antisymmetry_everywhere(n_chain):
    for cfg in all_schemes(n_chain):
        model = ssm.build(cfg)
        em = entry_map(model)
        for (i, j), (pid, sign) in em.items():
            assert em[(j, i)] == (pid, -sign)
        rng = spawn_rng(5, "antisym", cfg.scheme_tag, str(n_chain))
        binding = random_binding(model.param_ids, rng)
        a, _, _ = ssm.evaluate(model, binding)
        assert np.array_equal(a, -a.T)


def test_orthogonal_schemes_have_zero_b():
    for cfg in all_schemes(2):
        model = ssm.build(cfg)
        if cfg.capability == "orthogonal":
            assert model.b == (0,) * model.dim
            y = ssm.impulse_response(model, {p: 1.0 for p in model.param_ids}, [0.3, 1.7])
            assert np.array_equal(y, np.zeros(2))
        else:
            assert any(model.b)


# -- dynamics against the dense oracle --------------------------------------


@pytest.mark.parametrize("n_chain", [1, 2, 3])
def test_impulse_matches_quantum_oracle(n_chain):
    times = np.linspace(0.0, 8.0, 33)
    for cfg in all_schemes(n_chain):
        model = ssm.build(cfg)
        rng = spawn_rng(11, "oracle", cfg.scheme_tag, str(n_chain))
        for trial in range(3):
            binding = random_binding(model.param_ids, rng)
            y_model = ssm.impulse_response(model, binding, times)
            y_quantum = quantum_impulse(cfg, binding, times)
            assert np.max(np.abs(y_model - y_quantum)) < 1e-10


@pytest.mark.parametrize("n_chain", [1, 2, 3, 4])
def test_sector_oracle_matches_dense_referee(n_chain):
    times = np.linspace(0.0, 10.0, 50)
    for cfg in all_schemes(n_chain):
        ham = cfg.hamiltonian()
        rng = spawn_rng(13, "sector-oracle", cfg.scheme_tag, str(n_chain))
        binding = random_binding(ham.param_ids, rng)
        y = estimate.exact_quantum_expectation(
            ham, cfg.initial_state(), cfg.measurement_string(), binding, times
        )
        assert np.max(np.abs(y - quantum_impulse(cfg, binding, times))) <= 1e-13


def test_impulse_at_time_zero_is_cb():
    cfg = SensorConfig(2, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    binding = {p: 0.9 for p in model.param_ids}
    y0 = ssm.impulse_response(model, binding, [0.0])[0]
    assert y0 == pytest.approx(float(np.dot(model.c, model.b)), abs=1e-12)


def test_markov_parameters_match_series():
    cfg = SensorConfig(3, 2, "ZaYb", "xa")
    model = ssm.build(cfg)
    rng = spawn_rng(23, "markov")
    binding = random_binding(model.param_ids, rng)
    mk = ssm.markov(*ssm.evaluate(model, binding), 8)
    # first two by hand: CB = 0, CAB = -ha (row 2, col 1 of A)
    assert mk[0] == 0.0
    assert mk[1] == pytest.approx(-binding["ha"], abs=1e-12)
    # series consistency with the impulse response at small t
    t = 1e-3
    series = sum(mk[k] * t**k / math.factorial(k) for k in range(8))
    y = ssm.impulse_response(model, binding, [t])[0]
    assert y == pytest.approx(series, abs=1e-15)


def test_arnoldi_basis_spans_the_krylov_space():
    model = ssm.build(SensorConfig(5, 2, "ZaYb", "xa"))
    a, b, _ = ssm.evaluate(model, random_binding(model.param_ids,
                                                  spawn_rng(2, "arnoldi")))
    q, h = ssm.arnoldi(a, b, 4)
    assert q.shape == (model.dim, 4) and h.shape == (4, 4)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-14)
    assert np.allclose(h, q.T @ a @ q, atol=1e-13)
    assert np.allclose(np.tril(h, -2), 0.0)
    krylov = np.column_stack(ssm.krylov(a, b, 4))
    assert np.allclose(q @ (q.T @ krylov), krylov, atol=1e-12 * np.abs(krylov).max())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_arnoldi_stops_where_the_krylov_space_closes():
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    q, h = ssm.arnoldi(a, np.array([1.0, 1.0, 0.0, 0.0]), 4)
    assert q.shape == (4, 2) and h.shape == (2, 2)
    assert ssm.arnoldi(a, np.zeros(4), 4)[0].shape == (4, 0)


@pytest.mark.parametrize("n_chain", range(2, 10))
@pytest.mark.parametrize("scheme", [("ZaYb", "xa"), ("YaZb", "xb")])
def test_stacked_arnoldi_slices_match_single_calls(scheme, n_chain):
    """Each slice of a stack reaches the 2-D call's width with its Q and H,
    and is zero past it.  The binding with hb = 0 cuts the chain off, so
    both of its Krylov spaces close at step 2 while the others run on."""
    model = ssm.build(SensorConfig(n_chain, 2, *scheme))
    rng = spawn_rng(6, "stack", *scheme, str(n_chain))
    bindings = [random_binding(model.param_ids, rng) for _ in range(3)]
    bindings.append(dict(bindings[0], hb=0.0))
    a, b, c = ssm.evaluate(model, bindings)
    # the cube's spaces run to hundreds of steps from N = 4; 48 keep this fast
    count = min(model.dim, 48)
    starts = rng.normal(size=(len(a), model.dim))
    for stack, v in ((a, b), (a.transpose(0, 2, 1), c), (a, starts)):
        q, h, steps = ssm.arnoldi(stack, v, count)
        assert q.shape == (len(a), model.dim, count)
        assert h.shape == (len(a), count, count)
        for i, v_i in enumerate(np.broadcast_to(v, (len(a), model.dim))):
            q_i, h_i = ssm.arnoldi(stack[i], v_i, count)
            width = q_i.shape[1]
            assert steps[i] == width
            assert np.allclose(q[i, :, :width], q_i, rtol=0, atol=1e-12)
            assert np.allclose(h[i, :width, :width], h_i, rtol=0, atol=1e-12)
            assert not q[i, :, width:].any()
            assert not h[i, width:].any() and not h[i, :, width:].any()
        if v is not starts:
            assert steps[-1] == 2 < min(steps[:-1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_arnoldi_stops_each_slice_on_its_own():
    full = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
    stack = np.stack([np.diag([1.0, 2.0, 3.0]), full])
    q, h, steps = ssm.arnoldi(stack, np.array([1.0, 0.0, 0.0]), 3)
    assert steps.tolist() == [1, 3]
    assert np.allclose(q[0, :, 0], [1.0, 0.0, 0.0])
    assert not q[0, :, 1:].any() and not h[0, :, 1:].any()
    assert np.allclose(q[1].T @ q[1], np.eye(3), atol=1e-14)
    assert np.allclose(h[1], q[1].T @ full @ q[1], atol=1e-14)
    q, h, steps = ssm.arnoldi(stack, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), 3)
    assert steps.tolist() == [0, 3] and not q[0].any()


@pytest.mark.parametrize("n_chain", range(1, 61))
def test_arnoldi_steps_give_the_ladder_observability_rank(n_chain):
    """dim at even N, dim - 1 at odd N (one unobservable direction)."""
    model = ssm.build(SensorConfig(n_chain, 2, "ZaYb", "xa"))
    binding = random_binding(model.param_ids, spawn_rng(4, str(n_chain)))
    a, _, c = ssm.evaluate(model, binding)
    q, _ = ssm.arnoldi(a.T, c, model.dim)
    assert q.shape[1] == model.dim - n_chain % 2


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_impulse_bounded_by_vector_norms(t, seed):
    cfg = SensorConfig(2, 2, "ZaYb", "xa")
    model = ssm.build(cfg)
    rng = spawn_rng(seed, "bound")
    binding = random_binding(model.param_ids, rng)
    _, b, c = ssm.evaluate(model, binding)
    y = ssm.impulse_response(model, binding, [t])[0]
    assert abs(y) <= np.linalg.norm(b) * np.linalg.norm(c) + 1e-12


# -- exact tier and text form -----------------------------------------------


def test_exact_evaluation_matches_float():
    cfg = SensorConfig(2, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    binding = {p: Fraction(k + 1, 3) for k, p in enumerate(model.param_ids)}
    a_ex, b_ex, c_ex = ssm.evaluate_exact(model, binding)
    a_fl, b_fl, c_fl = ssm.evaluate(model, {k: float(v) for k, v in binding.items()})
    assert np.allclose([[float(x) for x in row] for row in a_ex], a_fl)
    assert [float(x) for x in b_ex] == list(b_fl)
    assert [float(x) for x in c_ex] == list(c_fl)


def test_spectral_bound_dominates_eigenvalues():
    cfg = SensorConfig(3, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    rng = spawn_rng(31, "spectral")
    binding = random_binding(model.param_ids, rng)
    a, _, _ = ssm.evaluate(model, binding)
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    assert ssm.spectral_bound(model, binding) >= radius - 1e-12


@pytest.mark.parametrize("config", [
    SensorConfig(2, 2, "YaZb", "xb"), SensorConfig(5, 2, "ZaYb", "xa"),
], ids=["cube-N2", "ladder-N5"])
def test_build_takes_each_commutator_once(config, monkeypatch):
    expanded = []
    derivative = pauli.heisenberg_derivative

    def counting(ham, op):
        expanded.append(op.key())
        return derivative(ham, op)

    # every module that bound the function by name
    for name, module in list(sys.modules.items()):
        if name.startswith("chainsense") and \
                getattr(module, "heisenberg_derivative", None) is derivative:
            monkeypatch.setattr(module, "heisenberg_derivative", counting)
    model = ssm.build(config)
    assert len(expanded) == model.dim
    assert len(set(expanded)) == model.dim
