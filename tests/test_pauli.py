"""Bitmask Pauli algebra against the dense Kronecker oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import pauli
from chainsense.errors import (
    DimensionMismatch,
    NonHermitianOperator,
    OracleSizeLimit,
)
from chainsense.pauli import (
    PauliString,
    chain_hamiltonian,
    commutator,
    commutes,
    dense_hamiltonian,
    dense_matrix,
    dense_state,
    expectation,
    format_string,
    from_letters,
    heisenberg_derivative,
    identity,
    initial_state,
    multiply,
    parse_string,
)


def random_string(rng, n):
    return PauliString(
        n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n)), int(rng.integers(0, 4))
    )


strings_3q = st.builds(
    PauliString,
    st.just(3),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 3),
)


def test_single_qubit_relations():
    x = from_letters(1, {0: "X"})
    y = from_letters(1, {0: "Y"})
    z = from_letters(1, {0: "Z"})
    assert multiply(x, y) == PauliString(1, 0, 1, 1)  # XY = iZ
    assert multiply(y, x) == PauliString(1, 0, 1, 3)  # YX = -iZ
    assert multiply(y, z) == PauliString(1, 1, 0, 1)  # YZ = iX
    assert multiply(z, x) == PauliString(1, 1, 1, 1)  # ZX = iY
    assert multiply(x, x) == identity(1)


def test_two_qubit_example():
    # (X otimes I)(Y otimes I) = iZ otimes I
    p = from_letters(2, {0: "X"})
    q = from_letters(2, {0: "Y"})
    r = multiply(p, q)
    assert r.letter(0) == "Z" and r.letter(1) == "I" and r.phase_exp == 1


def test_self_product_is_signed_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_string(rng, 5)
        sq = multiply(p, p)
        assert sq.is_identity
        assert sq.phase_exp in (0, 2)


def test_named_two_qubit_product_matches_dense():
    p = parse_string("Za Yb", 2)
    q = parse_string("Za Zb", 2)
    r = multiply(p, q)
    np.testing.assert_allclose(
        dense_matrix(r), dense_matrix(p) @ dense_matrix(q), atol=1e-14
    )


@settings(max_examples=200, deadline=None)
@given(strings_3q, strings_3q)
def test_multiply_matches_dense(p, q):
    np.testing.assert_allclose(
        dense_matrix(multiply(p, q)), dense_matrix(p) @ dense_matrix(q), atol=1e-13
    )


@settings(max_examples=200, deadline=None)
@given(strings_3q, strings_3q)
def test_commutator_matches_dense(p, q):
    dense = dense_matrix(p) @ dense_matrix(q) - dense_matrix(q) @ dense_matrix(p)
    c = commutator(p, q)
    if c is None:
        assert commutes(p, q)
        np.testing.assert_allclose(dense, 0, atol=1e-13)
    else:
        two, prod = c
        np.testing.assert_allclose(two * dense_matrix(prod), dense, atol=1e-13)


def test_disjoint_support_commutes():
    p = from_letters(4, {0: "X", 1: "Y"})
    q = from_letters(4, {2: "Z", 3: "X"})
    assert commutator(p, q) is None


def test_basic_commutator():
    p = from_letters(2, {0: "X"})
    q = from_letters(2, {0: "Y"})
    two, prod = commutator(p, q)
    # [X, Y] = 2iZ
    assert two == 2
    assert (prod.x_mask, prod.z_mask, prod.phase_exp) == (0, 1, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(identity(2), identity(3))
    with pytest.raises(DimensionMismatch):
        PauliString(2, 5, 0, 0)
    with pytest.raises(DimensionMismatch):
        PauliString(0, 0, 0, 0)


def test_text_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_string(rng, 6)
        text = format_string(p)
        assert parse_string(text, 6) == p
    assert format_string(identity(3)) == "I"
    assert parse_string("Za Yb X1", 4) == from_letters(4, {0: "Z", 1: "Y", 2: "X"})
    # single-qubit sensor labels
    assert parse_string("Zb X1", 3, sensor_qubits=1) == from_letters(3, {0: "Z", 1: "X"})


def test_format_marks_phases():
    p = PauliString(1, 1, 0, 2)
    assert format_string(p) == "- Xa"
    assert parse_string("- Xa", 1) == p


def test_hermitian_sign():
    assert PauliString(2, 1, 0, 0).hermitian_sign() == 1
    assert PauliString(2, 1, 0, 2).hermitian_sign() == -1
    with pytest.raises(NonHermitianOperator):
        PauliString(2, 1, 0, 1).hermitian_sign()


# -- Hamiltonian and derivative --------------------------------------------


def test_chain_hamiltonian_layout():
    h = chain_hamiltonian(3, sensor_qubits=2)
    assert h.n_qubits == 5
    assert h.param_ids == ("ha", "hb", "h1", "h2")
    assert h.known == frozenset({"ha"})
    assert len(h.terms) == 8
    h1 = chain_hamiltonian(2, sensor_qubits=1)
    assert h1.n_qubits == 3
    assert h1.param_ids == ("hb", "h1")
    assert h1.known == frozenset()


def test_derivative_of_outer_sensor_x():
    # d<Xa>/dt couples only to Za Yb with coefficient +ha
    h = chain_hamiltonian(2)
    xa = parse_string("Xa", h.n_qubits)
    deriv = heisenberg_derivative(h, xa)
    assert len(deriv) == 1
    pid, coeff, op = deriv[0]
    assert pid == "ha" and coeff == 1
    assert format_string(op) == "Za Yb"


def test_derivative_of_identity_is_empty():
    h = chain_hamiltonian(2)
    assert heisenberg_derivative(h, identity(h.n_qubits)) == []


def test_derivative_coefficients_are_unit():
    h = chain_hamiltonian(3)
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_string(rng, h.n_qubits).positive()
        for pid, coeff, op in heisenberg_derivative(h, p):
            assert coeff in (Fraction(1), Fraction(-1))
            assert op.phase_exp == 0


def _hs_coefficient(op_dense, basis_string):
    dim = op_dense.shape[0]
    return np.trace(dense_matrix(basis_string).conj().T @ op_dense) / dim


def test_derivative_matches_dense_oracle():
    """i[H, O] expanded in the Pauli basis, checked by Hilbert-Schmidt
    projection at random numeric parameter values."""
    h = chain_hamiltonian(2)
    rng = np.random.default_rng(23)
    binding = {pid: float(rng.uniform(0.3, 1.7)) for pid in h.param_ids}
    hd = dense_hamiltonian(h, binding)
    for _ in range(25):
        p = random_string(rng, h.n_qubits).positive()
        target = 1j * (hd @ dense_matrix(p) - dense_matrix(p) @ hd)
        acc = np.zeros_like(target)
        for pid, coeff, op in heisenberg_derivative(h, p):
            acc += float(binding[pid]) * float(coeff) * dense_matrix(op)
        np.testing.assert_allclose(acc, target, atol=1e-12)
        # and the expansion really is supported on the reported strings only
        for pid, coeff, op in heisenberg_derivative(h, p):
            proj = _hs_coefficient(target, op)
            assert abs(proj.imag) < 1e-12


# -- expectations -----------------------------------------------------------


def test_expectation_rules():
    state = initial_state("xa", 4, sensor_qubits=2)
    assert expectation(parse_string("Xa", 4), state) == 1
    assert expectation(parse_string("Ya", 4), state) == 0
    assert expectation(parse_string("Za Yb", 4), state) == 0
    assert expectation(identity(4), state) == 1
    assert expectation(parse_string("X1", 4), state) == 0
    both = initial_state("xaxb", 4)
    assert expectation(parse_string("Xa Xb", 4), both) == 1
    assert expectation(PauliString(4, 0b11, 0, 2), both) == -1


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for label in ("xa", "xb", "xaxb"):
        state = initial_state(label, 4)
        rho = dense_state(state)
        for _ in range(40):
            p = random_string(rng, 4)
            if not p.is_hermitian:
                continue
            val = float(expectation(p, state))
            tr = np.trace(dense_matrix(p) @ rho).real
            assert abs(val - tr) < 1e-13


def test_expectation_values_in_range():
    rng = np.random.default_rng(9)
    state = initial_state("xb", 5)
    vals = set()
    for _ in range(200):
        p = random_string(rng, 5)
        if p.is_hermitian:
            vals.add(expectation(p, state))
    assert vals <= {Fraction(-1), Fraction(0), Fraction(1)}


def test_oracle_size_cap():
    with pytest.raises(OracleSizeLimit):
        dense_matrix(identity(15))
    big = chain_hamiltonian(14)  # 16 qubits
    with pytest.raises(OracleSizeLimit):
        dense_hamiltonian(big, {pid: 1.0 for pid in big.param_ids})
    with pytest.raises(OracleSizeLimit):
        dense_state(initial_state("xb", 15))
