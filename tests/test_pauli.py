"""Bitmask Pauli algebra against the dense Kronecker oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import pauli
from chainsense.accessible import CATALOG, SensorConfig, closure
from chainsense.errors import (
    DimensionMismatch,
    InadmissibleConfig,
    NonHermitianOperator,
    OracleSizeLimit,
)
from chainsense.pauli import (
    EXCHANGE_PREFACTOR,
    HamiltonianSpec,
    PauliString,
    basis_action,
    chain_hamiltonian,
    commutes,
    dense_hamiltonian,
    dense_matrix,
    dense_state,
    excitation_sectors,
    expectation,
    format_string,
    from_letters,
    heisenberg_derivative,
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
    assert multiply(x, x) == PauliString(1, 0, 0)


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
        assert sq.x_mask == sq.z_mask == 0
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
    # [p, q] = 2 p q when the strings anticommute, and 0 otherwise
    dense = dense_matrix(p) @ dense_matrix(q) - dense_matrix(q) @ dense_matrix(p)
    if commutes(p, q):
        np.testing.assert_allclose(dense, 0, atol=1e-13)
    else:
        np.testing.assert_allclose(
            2 * dense_matrix(multiply(p, q)), dense, atol=1e-13
        )


def test_disjoint_support_commutes():
    p = from_letters(4, {0: "X", 1: "Y"})
    q = from_letters(4, {2: "Z", 3: "X"})
    assert commutes(p, q)


def test_basic_commutator():
    p = from_letters(2, {0: "X"})
    q = from_letters(2, {0: "Y"})
    # [X, Y] = 2 X Y = 2iZ
    assert not commutes(p, q)
    prod = multiply(p, q)
    assert (prod.x_mask, prod.z_mask, prod.phase_exp) == (0, 1, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(PauliString(2, 0, 0), PauliString(3, 0, 0))
    with pytest.raises(DimensionMismatch):
        PauliString(2, 5, 0, 0)
    with pytest.raises(DimensionMismatch):
        PauliString(0, 0, 0, 0)
    # every term commutes with Z on a qubit the Hamiltonian does not have
    with pytest.raises(DimensionMismatch):
        heisenberg_derivative(chain_hamiltonian(1), from_letters(5, {4: "Z"}))


def test_text_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = random_string(rng, 6)
        text = format_string(p)
        assert parse_string(text, 6) == p
    assert format_string(PauliString(3, 0, 0)) == "I"
    assert parse_string("Za Yb X1", 4) == from_letters(4, {0: "Z", 1: "Y", 2: "X"})
    # single-qubit sensor labels
    assert parse_string("Zb X1", 3, sensor_qubits=1) == from_letters(3, {0: "Z", 1: "X"})


@pytest.mark.parametrize("text,n_qubits,sensor_qubits,reason", [
    ("Zb1", 1, 1, "bad site label"), ("Xq", 3, 2, "bad site label"),
    ("X0", 3, 2, "bad site label"), ("X01", 3, 2, "bad site label"),
    ("X" + "1" * 5000, 3, 2, "bad site label"),
    ("Xb", 3, 3, "expected 1 or 2"), ("X1", 3, 0, "expected 1 or 2"),
])
def test_parse_refuses_bad_site_labels(text, n_qubits, sensor_qubits, reason):
    with pytest.raises(InadmissibleConfig, match=reason):
        parse_string(text, n_qubits, sensor_qubits)


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
    assert len(h.terms) == 8
    assert [pid for pid, _term in h.terms] == [
        pid for pid in h.param_ids for _ in range(2)]
    assert all(isinstance(term, PauliString) for _pid, term in h.terms)
    h1 = chain_hamiltonian(2, sensor_qubits=1)
    assert h1.n_qubits == 3
    assert h1.param_ids == ("hb", "h1")


def test_derivative_of_outer_sensor_x():
    # d<Xa>/dt couples only to Za Yb with coefficient +ha
    h = chain_hamiltonian(2)
    xa = parse_string("Xa", h.n_qubits)
    deriv = heisenberg_derivative(h, xa)
    assert len(deriv) == 1
    pid, coeff, key = deriv[0]
    assert pid == "ha" and coeff == 1
    assert format_string(PauliString(h.n_qubits, *key)) == "Za Yb"


def test_derivative_refuses_non_hermitian_term():
    h = chain_hamiltonian(1)
    ixx = from_letters(h.n_qubits, {0: "X", 1: "X"}, phase_exp=1)
    bad = HamiltonianSpec(h.n_qubits, h.sensor_qubits, h.n_chain,
                          (("ha", ixx),), ("ha",))
    with pytest.raises(NonHermitianOperator):
        heisenberg_derivative(bad, parse_string("Za", h.n_qubits))


def test_derivative_of_identity_is_empty():
    h = chain_hamiltonian(2)
    assert heisenberg_derivative(h, PauliString(h.n_qubits, 0, 0)) == []


def test_derivative_coefficients_are_unit():
    h = chain_hamiltonian(3)
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = random_string(rng, h.n_qubits).positive()
        for pid, coeff, key in heisenberg_derivative(h, p):
            assert type(coeff) is int and coeff in (1, -1)
            # a phase-0 string travels as its bare (X mask, Z mask) key
            assert type(key) is tuple and len(key) == 2
            assert all(type(m) is int and 0 <= m < 1 << h.n_qubits
                       for m in key)


@pytest.mark.parametrize("n_chain", [1, 2, 3, 4])
def test_catalog_derivative_coefficients_are_ints(n_chain):
    # the closure's coefficients reach A unconverted, so they must be
    # plain ints, not rationals that merely compare equal to +-1
    for (label, sensor_qubits), initials in CATALOG.items():
        cfg = SensorConfig(n_chain, sensor_qubits, label, initials[0])
        _, derivatives, _ = closure(cfg.hamiltonian(), cfg.measurement_string())
        for terms in derivatives.values():
            for _pid, coeff, _out in terms:
                assert type(coeff) is int and coeff in (1, -1)


def _derivative_referee(h, o):
    """i[H, o] expanded term by term with ``multiply`` and ``commutes``."""
    acc = {}
    for pid, term in h.terms:
        if commutes(term, o):
            continue
        prod = multiply(term, o)
        if prod.is_hermitian:
            raise NonHermitianOperator("Hamiltonian term is not hermitian")
        key = (pid, prod.key())
        acc[key] = acc.get(key, 0) + (1 if prod.phase_exp == 3 else -1)
    return [(pid, coeff, key) for (pid, key), coeff in acc.items() if coeff]


def _random_spec(rng, n, phases=(0, 2)):
    """A term list of single-site, Z-type and three-site strings with a few
    shared parameters, repeats and opposite signs included."""
    terms = []
    for _ in range(int(rng.integers(4, 12))):
        shape = int(rng.integers(0, 3))
        sites = rng.choice(n, size=(1, int(rng.integers(2, 4)), 3)[shape],
                           replace=False)
        letters = {int(q): ("Z" if shape == 1 else "XYZ"[int(rng.integers(3))])
                   for q in sites}
        phase = int(rng.choice(phases))
        term = from_letters(n, letters, phase)
        pid = f"g{int(rng.integers(0, 3))}"
        terms.append((pid, term))
        if rng.random() < 0.3:  # the same string again, either sign
            terms.append((pid, from_letters(n, letters,
                                            int(rng.choice((0, 2))))))
    return HamiltonianSpec(n, 2, n - 2, tuple(terms),
                           tuple(sorted({pid for pid, _t in terms})))


def test_derivative_matches_multiply_commutes_referee():
    rng = np.random.default_rng(41)
    specs = [chain_hamiltonian(3), chain_hamiltonian(2, sensor_qubits=1)]
    specs += [_random_spec(rng, int(rng.integers(3, 7))) for _ in range(30)]
    for h in specs:
        for _ in range(20):
            o = random_string(rng, h.n_qubits)
            o = PauliString(o.n_qubits, o.x_mask, o.z_mask, 2 * (o.phase_exp % 2))
            assert heisenberg_derivative(h, o) == _derivative_referee(h, o)


def test_derivative_refuses_non_hermitian_terms_like_its_referee():
    rng = np.random.default_rng(43)
    refused = 0
    for _ in range(40):
        h = _random_spec(rng, 5, phases=(0, 1, 2, 3))
        for _ in range(10):
            o = random_string(rng, h.n_qubits).positive()
            try:
                expected = _derivative_referee(h, o)
            except NonHermitianOperator:
                refused += 1
                with pytest.raises(NonHermitianOperator):
                    heisenberg_derivative(h, o)
            else:
                assert heisenberg_derivative(h, o) == expected
    assert refused


def _hs_coefficient(op_dense, basis_string):
    dim = op_dense.shape[0]
    return np.trace(dense_matrix(basis_string).conj().T @ op_dense) / dim


def test_derivative_matches_dense_oracle():
    """i[H, O] expanded in the Pauli basis, checked by Hilbert-Schmidt
    projection at random numeric parameter values."""
    h = chain_hamiltonian(2)
    rng = np.random.default_rng(23)
    binding = {pid: float(rng.uniform(0.3, 1.7)) for pid in h.param_ids}
    hd = dense_hamiltonian(h, binding, [np.arange(2**h.n_qubits)])[0]
    for _ in range(25):
        p = random_string(rng, h.n_qubits).positive()
        target = 1j * (hd @ dense_matrix(p) - dense_matrix(p) @ hd)
        acc = np.zeros_like(target)
        for pid, coeff, key in heisenberg_derivative(h, p):
            op = PauliString(h.n_qubits, *key)
            acc += float(binding[pid]) * float(coeff) * dense_matrix(op)
        np.testing.assert_allclose(acc, target, atol=1e-12)
        # and the expansion really is supported on the reported strings only
        for pid, coeff, key in heisenberg_derivative(h, p):
            proj = _hs_coefficient(target, PauliString(h.n_qubits, *key))
            assert abs(proj.imag) < 1e-12


# -- expectations -----------------------------------------------------------


# -- computational basis ------------------------------------------------------


def test_basis_action_matches_dense():
    rng = np.random.default_rng(9)
    states = np.arange(16)
    for _ in range(200):
        p = random_string(rng, 4)
        targets, signs, phase = basis_action(p, states)
        mat = np.zeros((16, 16), dtype=complex)
        mat[targets, states] = phase * signs
        np.testing.assert_array_equal(mat, dense_matrix(p))


@pytest.mark.parametrize("n_chain,sensor_qubits", [(1, 2), (3, 2), (4, 1)])
def test_dense_hamiltonian_blocks_match_kronecker_sum(n_chain, sensor_qubits):
    h = chain_hamiltonian(n_chain, sensor_qubits)
    rng = np.random.default_rng(n_chain)
    binding = {pid: float(rng.normal()) for pid in h.param_ids}
    kron = np.zeros((2**h.n_qubits,) * 2, dtype=complex)
    # H = sum over bonds of h/2 (XX + YY)
    assert EXCHANGE_PREFACTOR == 0.5
    for pid, term in h.terms:
        kron += binding[pid] * 0.5 * dense_matrix(term)
    full = dense_hamiltonian(h, binding, [np.arange(2**h.n_qubits)])[0]
    np.testing.assert_array_equal(full, kron)
    sectors = excitation_sectors(h.n_qubits)
    assert sorted(np.concatenate(sectors)) == list(range(2**h.n_qubits))
    for sector in sectors:
        np.testing.assert_array_equal(
            dense_hamiltonian(h, binding, [sector])[0],
            kron[np.ix_(sector, sector)],
        )
    # H has no entries between sectors
    outside = kron.copy()
    for sector in sectors:
        outside[np.ix_(sector, sector)] = 0
    assert not outside.any()


def test_lone_exchange_term_leaves_its_sector():
    h = chain_hamiltonian(1)
    xx = next(term for pid, term in h.terms if pid == "hb")
    lone = HamiltonianSpec(h.n_qubits, h.sensor_qubits, h.n_chain,
                           (("hb", xx),), ("hb",))
    # the whole space is closed
    dense_hamiltonian(lone, {"hb": 1.0}, [np.arange(2**lone.n_qubits)])
    with pytest.raises(InadmissibleConfig, match="outside their span"):
        dense_hamiltonian(lone, {"hb": 1.0}, [excitation_sectors(3)[1]])


@pytest.mark.parametrize("states", [[0, 0], [8], [-1], [[1, 2]]])
def test_dense_hamiltonian_refuses_bad_states(states):
    with pytest.raises(DimensionMismatch):
        dense_hamiltonian(chain_hamiltonian(1), {"ha": 1.0, "hb": 1.0},
                          [states])


@pytest.mark.parametrize("sensor_qubits", [1, 2])
def test_flip_mirrors_each_sector_block(sensor_qubits):
    # F = X^(x)n maps sector k onto sector n - k in reversed order and
    # commutes with every catalog H, so block n - k is block k reversed,
    # bit for bit; the one-pass blocks equal the single-span calls
    for n_chain in range(1, 11 - sensor_qubits):
        h = chain_hamiltonian(n_chain, sensor_qubits)
        n = h.n_qubits
        rng = np.random.default_rng(n_chain)
        binding = {pid: float(rng.normal()) for pid in h.param_ids}
        sectors = excitation_sectors(n)
        blocks = dense_hamiltonian(h, binding, spans=sectors)
        for k, block in enumerate(blocks):
            assert np.array_equal(sectors[n - k], (2**n - 1 - sectors[k])[::-1])
            mirrored = np.ascontiguousarray(block[::-1, ::-1])
            assert blocks[n - k].tobytes() == mirrored.tobytes()
            single = dense_hamiltonian(h, binding, [sectors[k]])[0]
            assert single.tobytes() == block.tobytes()


def test_dense_hamiltonian_spans_refuse_like_one_span():
    h = chain_hamiltonian(1)
    xx = next(term for pid, term in h.terms if pid == "hb")
    lone = HamiltonianSpec(h.n_qubits, h.sensor_qubits, h.n_chain,
                           (("hb", xx),), ("hb",))
    sectors = excitation_sectors(3)
    with pytest.raises(InadmissibleConfig, match="outside their span"):
        dense_hamiltonian(lone, {"hb": 1.0}, spans=sectors)
    binding = {"ha": 1.0, "hb": 1.0}
    for spans in ([[1, 2], [2]], [[0], [8]], [[[1, 2]]]):
        with pytest.raises(DimensionMismatch):
            dense_hamiltonian(h, binding, spans=spans)


def test_expectation_rules():
    state = initial_state("xa", 4, sensor_qubits=2)
    assert expectation(parse_string("Xa", 4), state) == 1
    assert expectation(parse_string("Ya", 4), state) == 0
    assert expectation(parse_string("Za Yb", 4), state) == 0
    assert expectation(PauliString(4, 0, 0), state) == 1
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
            val = expectation(p, state)
            assert type(val) is int
            vals.add(val)
    assert vals <= {-1, 0, 1}


def test_oracle_size_cap():
    with pytest.raises(OracleSizeLimit):
        dense_matrix(PauliString(15, 0, 0))
    big = chain_hamiltonian(14)  # 16 qubits
    with pytest.raises(OracleSizeLimit):
        dense_hamiltonian(big, {pid: 1.0 for pid in big.param_ids},
                          [np.arange(2**big.n_qubits)])
    with pytest.raises(OracleSizeLimit):
        dense_state(initial_state("xb", 15))
