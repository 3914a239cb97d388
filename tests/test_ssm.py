"""State-space construction against the dense quantum oracle.

The oracle here is deliberately independent of the ssm module: it
exponentiates the dense Hamiltonian and traces the evolved measurement
against the initial density matrix.  Agreement of C exp(At) B with that
is the load-bearing check for the whole linear-model layer.
"""

import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import estimate, pauli, ssm
from chainsense.accessible import CATALOG, SensorConfig, generate
from chainsense.errors import InadmissibleConfig, NumericFailure
from chainsense.pauli import dense_hamiltonian, dense_matrix, dense_state
from chainsense.prng import random_binding, rational_binding, spawn_rng


def quantum_impulse(cfg: SensorConfig, binding: dict[str, float], times) -> np.ndarray:
    """Tr(e^{iHt} M e^{-iHt} rho0), one eigendecomposition for all times."""
    ham = cfg.hamiltonian()
    h = dense_hamiltonian(ham, binding, [np.arange(2**ham.n_qubits)])[0]
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


def eigh_impulse(model, binding, times) -> np.ndarray:
    """C exp(At) B from one complex eigendecomposition of the hermitian iA:
    A = V diag(-i w) V^H, so y(t) = sum_k (C v_k)(v_k^H B) e^{-i w_k t}."""
    a, b, c = ssm.evaluate(model, binding)
    times = np.asarray(times, dtype=float)
    if not np.any(b) or not np.any(c):
        return np.zeros(times.shape)
    w, v = np.linalg.eigh(1j * a)
    phases = np.exp(-1j * np.outer(times, w))
    y = phases @ ((c @ v) * (v.conj().T @ b))
    assert np.max(np.abs(y.imag)) <= 1e-12
    return y.real


def y_parity_is_odd(string) -> bool:
    return sum(string.letter(q) == "Y" for q in range(string.n_qubits)) % 2 == 1


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


#: sha256 of each model's basis keys and signs, A entries, B, C and Y
#: parities (``model_digest``): the ladder at N = 1..9, the cube at N = 1..6
#: and every orthogonal scheme at N = 1..3, taken before the closure and
#: the build moved to mask keys, which changed none of them
MODEL_DIGESTS = {
    ("ZaYb", 2, "xa", 1):
        "a74dd5ac3d58bcd32e569b1a52f25de0113c1c1f7c3c2ac51209fa6918ac9540",
    ("ZaYb", 2, "xa", 2):
        "0c56745b8323e23b519272d047ce6f571c9994858f1cea67cd8f865e2b58af75",
    ("ZaYb", 2, "xa", 3):
        "7bb2b495777ec78b2fb0c665b41f931d6bd07f8f7e9066b46d716a86ef5997e1",
    ("ZaYb", 2, "xa", 4):
        "95fc114592ed2d3256a3a57346a6c7a4122c84fadccc4e06510754d877715938",
    ("ZaYb", 2, "xa", 5):
        "87ba9850466695dad30defe85a37cb7590a164ac243da629be75896c69dd9b91",
    ("ZaYb", 2, "xa", 6):
        "a7d00c9ea39823abdefdc516f4be22f7c6ec732aa9b8155c09b6f7ff02d4d018",
    ("ZaYb", 2, "xa", 7):
        "768657bce8f1107c6e8db1950d305362edeed3b4f13a90607d8df61a495e2480",
    ("ZaYb", 2, "xa", 8):
        "b2b4aa2da43d5ebd57f696f3a599fc61c36fa6b64959392ac2095ae16313f3d3",
    ("ZaYb", 2, "xa", 9):
        "82558bd31cc56b4c2b4431db478354ba0ffb890a20d514effd2a778e6b63a00b",
    ("YaZb", 2, "xb", 1):
        "fd04cc07a004014b399a5122f7d3f2172477161f791c2235a34f418b4fd67301",
    ("YaZb", 2, "xb", 2):
        "4aeda2b4c39fe0dd0fe221bace0c7c0f87e894ce1f513026467a3a74c9917779",
    ("YaZb", 2, "xb", 3):
        "7a138cb294f4bc2c4ecf0ae72146250763f307eb70e9eda6b7adc597d4edcbdd",
    ("YaZb", 2, "xb", 4):
        "487856c0921fbba410034fb73dcacc599f59bdc2847602e24d7b8447aa17ddda",
    ("YaZb", 2, "xb", 5):
        "a462b5c60046739a869c02255116883d50e22f27c0ebdf0eafb8497eddda0ece",
    ("YaZb", 2, "xb", 6):
        "5cce8ce1b039970ec72a0573f2c2c7a614970580c0ec780fe1d69a7d22452a4b",
    ("Yb", 1, "xb", 1):
        "c5588444dc6a24ab8d9d9617d735ec1915e9eb60457c7d8d082edf6cf57b397e",
    ("Yb", 1, "xb", 2):
        "a4d41c2d62fa9acc3d3a707de16c811c318dd56ff47a03b5851d484dec5e56f8",
    ("Yb", 1, "xb", 3):
        "05a7f0ba71fa645d96b4d9a03f7a3bb5fba41fad9f0915702ca910d716da222f",
    ("Zb", 1, "xb", 1):
        "53fbe32dd53204a850bf8874baa28d302c19384f5591e87f4b8c1f82cc2ad745",
    ("Zb", 1, "xb", 2):
        "cfe0211e52a621a19035dc76bb6027273a9f61eb64129045a2f7e6aab03f9081",
    ("Zb", 1, "xb", 3):
        "9c0d2284d45a577f5876225ff9b44ab2ef14759f4e268827c5953f6ec50f4d52",
    ("YaYb", 2, "xa", 1):
        "53740d1e489aafdc756b5a2bda3e43fedc16df3517db2e73730cb79d63c277da",
    ("YaYb", 2, "xa", 2):
        "da0764eac3f99bf96361e6aff6ee6a2ba0b4c482dbac3a15157a08bc82ddde00",
    ("YaYb", 2, "xa", 3):
        "804159239c4f04a4f9f3d3dfb1dc20675763e0e87f211d383f504768505b6048",
    ("ZaZb", 2, "xa", 1):
        "6a7c858caa44e52151db40282a7d414960df6f7fe5f7af40c466f569043704e3",
    ("ZaZb", 2, "xa", 2):
        "025af940ce0c8a685654251de228b60db22c6eec028b6eec837fd1da478df536",
    ("ZaZb", 2, "xa", 3):
        "0f88d0a0976243e3b6418ec780d18ea3297c350803d7faedd0ff411a7776e281",
    ("Yb", 2, "xa", 1):
        "d94f4aa6235d77e5b979bae3c147e91598dc65169559406253e125bffc99b627",
    ("Yb", 2, "xa", 2):
        "4299fb7cde4b9ef5a96047d59d5a45e2445a54862e8d4c4208eeae53f8e06a36",
    ("Yb", 2, "xa", 3):
        "d7249e8bbbafeb97de5d25a6150d7399dbfe36f78737f586a7027bc9a035b6df",
    ("Zb", 2, "xa", 1):
        "5dd724dac1cab76bbb6d837e4c220f2d3daf3d3373f57c2ff7765a45267c0cbf",
    ("Zb", 2, "xa", 2):
        "b908946902d7d436944a7eab11ecfea218e4b30327ec82c2263ceff5d1354cf9",
    ("Zb", 2, "xa", 3):
        "7c5299169ab8149de79f53371bc1ff25414f538f9e71c65178ea18ac1ab7d7c6",
}


def model_digest(cfg):
    model = ssm.build(cfg)
    payload = {
        "basis": [[sign, s.x_mask, s.z_mask] for sign, s in generate(cfg).basis],
        "a": [[e.row, e.col, e.param_id, e.sign] for e in model.a_entries],
        "b": list(model.b), "c": list(model.c), "odd": list(model.odd),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_pinned_models_cover_the_orthogonal_catalog():
    orthogonal = {(label, sensors) for (label, sensors), initials
                  in CATALOG.items()
                  if SensorConfig(1, sensors, label, initials[0]).capability
                  == "orthogonal"}
    assert orthogonal <= {(label, sensors) for label, sensors, _i, _n
                          in MODEL_DIGESTS}


@pytest.mark.parametrize("label,sensors,initial,n_chain", sorted(MODEL_DIGESTS))
def test_model_is_pinned(label, sensors, initial, n_chain):
    cfg = SensorConfig(n_chain, sensors, label, initial)
    assert model_digest(cfg) == MODEL_DIGESTS[label, sensors, initial, n_chain]


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


@pytest.mark.parametrize("n_chain", [1, 2, 3])
def test_evaluate_matches_an_entry_loop(n_chain):
    """A stack, filled by one indexed assignment, and a single binding both
    match a loop over the entries bit for bit, signed zeros included."""
    for cfg in all_schemes(n_chain):
        model = ssm.build(cfg)
        rng = spawn_rng(9, "evaluate", cfg.scheme_tag, str(n_chain))
        bindings = [rational_binding(model.param_ids, rng),
                    random_binding(model.param_ids, rng),
                    dict.fromkeys(model.param_ids, 0.0)]
        stack, _, _ = ssm.evaluate(model, bindings)
        for a, binding in zip(stack, bindings):
            ref = np.zeros((model.dim, model.dim))
            for e in model.a_entries:
                ref[e.row, e.col] = e.sign * float(binding[e.param_id])
            assert a.tobytes() == ref.tobytes()
            assert ssm.evaluate(model, binding)[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("n_chain", range(1, 8))
def test_parity_split_everywhere(n_chain):
    """A joins only opposite Y parities, B is even, and C is odd wherever B
    is not zero."""
    for cfg in all_schemes(n_chain):
        model = ssm.build(cfg)
        basis = generate(cfg).basis
        assert model.odd == tuple(y_parity_is_odd(s) for _sign, s in basis)
        for e in model.a_entries:
            assert model.odd[e.row] != model.odd[e.col]
        assert not any(v for v, odd in zip(model.b, model.odd) if odd)
        if any(model.b):
            assert all(odd for v, odd in zip(model.c, model.odd) if v)


def test_build_refuses_a_broken_parity_split(monkeypatch):
    # basis Xa, ZaYb, ZaZbX1, ZaZbZ1Y2: even, odd, even, odd
    cfg = SensorConfig(2, 2, "ZaYb", "xa")
    assert ssm.build(cfg).odd == (False, True, False, True)

    def tampered():
        aset = generate(cfg)
        monkeypatch.setattr(ssm, "generate", lambda config: aset)
        return aset

    # i[H, Xa] = ha ZaYb, sent to the even ZaZbX1 instead
    aset = tampered()
    xa, even = aset.basis[0][1], aset.basis[2][1]
    [(pid, coeff, _out)] = aset.derivatives[xa.key()]
    aset.derivatives[xa.key()] = [(pid, coeff, even.key())]
    with pytest.raises(InadmissibleConfig, match="same Y parity at \\(0,2\\)"):
        ssm.build(cfg)

    aset = tampered()
    aset.signed_expectations = lambda state: [1, 1, 0, 0]
    with pytest.raises(InadmissibleConfig, match="B has support on the odd "
                                                 "string 1"):
        ssm.build(cfg)

    tampered()
    monkeypatch.setattr(SensorConfig, "measurement_string",
                        lambda self: pauli.from_letters(4, {0: "X"}))
    with pytest.raises(InadmissibleConfig, match="readout string 0 is even"):
        ssm.build(cfg)


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


@pytest.mark.parametrize("n_chain", [1, 2, 3, 4])
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


@pytest.mark.parametrize("n_chain", range(1, 8))
def test_impulse_matches_complex_eigh_referee(n_chain):
    """The SVD of the even-to-odd block against exp(At) from the complex
    eigendecomposition of iA, up to the cube's dim 324 at N = 7."""
    times = np.linspace(0.0, 10.0, 50)
    for cfg in all_schemes(n_chain):
        model = ssm.build(cfg)
        rng = spawn_rng(17, "eigh-referee", cfg.scheme_tag, cfg.initial_label,
                        str(n_chain))
        for _ in range(3):
            binding = random_binding(model.param_ids, rng)
            y = ssm.impulse_response(model, binding, times)
            assert np.max(np.abs(y - eigh_impulse(model, binding, times))) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_response_is_numeric_failure():
    cfg = SensorConfig(2, 2, "YaZb", "xb")
    model = ssm.build(cfg)
    binding = {"ha": 1e308, "hb": 0.8, "h1": 0.6}
    times = np.linspace(0.0, 10.0, 50)
    with pytest.raises(NumericFailure, match="impulse response is not finite"):
        ssm.impulse_response(model, binding, times)
    with pytest.raises(NumericFailure, match="non-finite expectation"):
        estimate.exact_quantum_expectation(
            cfg.hamiltonian(), cfg.initial_state(), cfg.measurement_string(),
            binding, times)


def test_impulse_svd_failure_is_numeric_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    model = ssm.build(SensorConfig(2, 2, "ZaYb", "xa"))
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NumericFailure, match="SVD did not converge"):
        ssm.impulse_response(model, {p: 1.0 for p in model.param_ids}, [0.5])


@pytest.mark.parametrize("n_chain", [1, 2, 3, 4, 5])
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


@pytest.mark.parametrize("scheme,n_chain,count", [
    (("ZaYb", "xa"), 9, 34), (("YaZb", "xb"), 2, 17)])
def test_stacked_arnoldi_slices_are_bit_identical(scheme, n_chain, count):
    """A slice of a stack reproduces the one-matrix call to the last bit, so
    batching more bindings into one call cannot move a width or a verdict."""
    model = ssm.build(SensorConfig(n_chain, 2, *scheme))
    rng = spawn_rng(8, "bits", *scheme, str(n_chain))
    a, b, c = ssm.evaluate(
        model, [rational_binding(model.param_ids, rng) for _ in range(count)])
    for stack, v in ((a, b), (a.transpose(0, 2, 1), c)):
        q, h, steps = ssm.arnoldi(stack, v, model.dim)
        for i in range(count):
            q_i, h_i = ssm.arnoldi(stack[i], v, model.dim)
            width = q_i.shape[1]
            assert steps[i] == width
            assert np.array_equal(q[i, :, :width], q_i)
            assert np.array_equal(h[i, :width, :width], h_i)


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
