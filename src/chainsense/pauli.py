"""Pauli-string algebra on bitmasks, plus the exchange-chain Hamiltonians.

A Pauli string on ``n`` qubits is stored as two bitmasks (X part, Z part)
and a power of i.  Bit ``k`` of a mask refers to qubit ``k``; qubit 0 is
the first sensor qubit.  The letter at a site is read from the mask pair:
(0,0) is I, (1,0) is X, (1,1) is Y, (0,1) is Z.

Internally a string means ``i**phase_exp`` times the tensor product of its
letters.  Hermitian strings therefore have ``phase_exp`` in {0, 2}; the
accessible-set machinery keeps basis elements in the sign-stripped form
(phase 0) and carries signs separately, as plain ``int`` coefficients.

The helpers at the bottom act on the computational basis for the quantum
oracle: a string sends a basis state to one signed basis state, and H is
built block by block on any set of basis states that it maps into itself.
``dense_matrix`` and ``dense_state`` build literal Kronecker products; the
tests use them as the independent referee.  All of them refuse to run
above 14 qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianOperator,
    OracleSizeLimit,
    InadmissibleConfig,
)

ORACLE_MAX_QUBITS = 14

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _LETTERS.items()}

_DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """``i**phase_exp`` times a tensor product of Pauli letters."""

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DimensionMismatch(f"qubit count {self.n_qubits} below 1")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise DimensionMismatch("mask has bits beyond the register")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- basic structure ----------------------------------------------------

    def letter(self, qubit: int) -> str:
        return _LETTERS[((self.x_mask >> qubit) & 1, (self.z_mask >> qubit) & 1)]

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    def hermitian_sign(self) -> int:
        """+1 or -1 for a hermitian string; error otherwise."""
        if not self.is_hermitian:
            raise NonHermitianOperator(f"phase i^{self.phase_exp} is not real")
        return 1 if self.phase_exp == 0 else -1

    def positive(self) -> "PauliString":
        """The sign-stripped (phase 0) copy of this string."""
        return PauliString(self.n_qubits, self.x_mask, self.z_mask, 0)

    def key(self) -> tuple[int, int]:
        """Hashable identity ignoring phase (for set membership)."""
        return (self.x_mask, self.z_mask)

    def __str__(self) -> str:
        return format_string(self)

    # -- algebra ------------------------------------------------------------

    def _n_y(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()


def from_letters(n_qubits: int, letters: dict[int, str], phase_exp: int = 0) -> PauliString:
    """Build a string from a {qubit index: letter} map; unlisted sites are I."""
    x = z = 0
    for q, letter in letters.items():
        if not 0 <= q < n_qubits:
            raise DimensionMismatch(f"qubit {q} outside register of {n_qubits}")
        xb, zb = _MASKS[letter]
        x |= xb << q
        z |= zb << q
    return PauliString(n_qubits, x, z, phase_exp)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Operator product p*q with exact phase bookkeeping.

    Per site X^x Z^z normal form gives the phase rule: commuting the Z part
    of ``p`` past the X part of ``q`` contributes (-1) per overlapping site,
    and converting letters to/from the normal form contributes one power of
    i per Y.
    """
    if p.n_qubits != q.n_qubits:
        raise DimensionMismatch(f"{p.n_qubits} vs {q.n_qubits} qubits")
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    phase = (
        p.phase_exp
        + q.phase_exp
        + p._n_y()
        + q._n_y()
        - (x & z).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
    )
    return PauliString(p.n_qubits, x, z, phase % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic-parity test: strings commute iff the overlap count is even."""
    anti = (p.x_mask & q.z_mask).bit_count() + (p.z_mask & q.x_mask).bit_count()
    return anti % 2 == 0


# -- text form --------------------------------------------------------------

_PHASE_PREFIX = {0: "", 1: "i ", 2: "- ", 3: "-i "}


def site_label(qubit: int, sensor_qubits: int = 2) -> str:
    if sensor_qubits == 2:
        return ("a", "b")[qubit] if qubit < 2 else str(qubit - 1)
    if sensor_qubits == 1:
        return "b" if qubit == 0 else str(qubit)
    raise InadmissibleConfig(f"sensor has {sensor_qubits} qubits; expected 1 or 2")


def format_string(p: PauliString, sensor_qubits: int = 2) -> str:
    """Render as e.g. ``Za Yb X1`` (identity renders as ``I``)."""
    parts = [
        p.letter(qb) + site_label(qb, sensor_qubits)
        for qb in range(p.n_qubits)
        if p.letter(qb) != "I"
    ]
    body = " ".join(parts) if parts else "I"
    return _PHASE_PREFIX[p.phase_exp] + body


def parse_string(text: str, n_qubits: int, sensor_qubits: int = 2) -> PauliString:
    """Inverse of :func:`format_string` for the same register shape."""
    if sensor_qubits not in (1, 2):
        raise InadmissibleConfig(
            f"sensor has {sensor_qubits} qubits; expected 1 or 2"
        )
    tokens = text.split()
    phase = 0
    if tokens and tokens[0] in ("-", "i", "-i"):
        phase = {"-": 2, "i": 1, "-i": 3}[tokens.pop(0)]
    if tokens == ["I"]:
        return PauliString(n_qubits, 0, 0, phase)
    letters: dict[int, str] = {}
    for tok in tokens:
        letter, label = tok[0], tok[1:]
        if letter not in "XYZ" or not label:
            raise InadmissibleConfig(f"bad Pauli token {tok!r}")
        if label == "a":
            if sensor_qubits != 2:
                raise InadmissibleConfig("site 'a' needs a two-qubit sensor")
            q = 0
        elif label == "b":
            q = 1 if sensor_qubits == 2 else 0
        elif (label.isascii() and label.isdigit() and label[0] != "0"
              and len(label) <= len(str(n_qubits))):
            q = sensor_qubits - 1 + int(label)
        else:
            raise InadmissibleConfig(f"bad site label in Pauli token {tok!r}")
        if q in letters:
            raise InadmissibleConfig(f"site {label!r} listed twice")
        letters[q] = letter
    return from_letters(n_qubits, letters, phase)


# -- Hamiltonians -----------------------------------------------------------


#: the exchange coupling's prefactor: each bond contributes h/2 (XX + YY)
EXCHANGE_PREFACTOR = 0.5


@dataclass(frozen=True)
class HamiltonianSpec:
    """Exchange-coupling Hamiltonian as a parametrised Pauli-term list.

    Each term is (param_id, string); the operator is
    sum_k binding[param_id_k] * EXCHANGE_PREFACTOR * string_k.
    ``term_masks`` is derived from ``terms``: one (param_id, X mask, Z mask,
    phase exponent + Y count) row per term, the parts of a product's phase
    that :func:`heisenberg_derivative` would otherwise recount per call.
    """

    n_qubits: int
    sensor_qubits: int
    n_chain: int
    terms: tuple[tuple[str, PauliString], ...]
    param_ids: tuple[str, ...]
    term_masks: tuple[tuple[str, int, int, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "term_masks", tuple(
            (pid, t.x_mask, t.z_mask, t.phase_exp + t._n_y())
            for pid, t in self.terms
        ))


def _exchange_term(n: int, i: int, j: int) -> tuple[PauliString, PauliString]:
    return (
        from_letters(n, {i: "X", j: "X"}),
        from_letters(n, {i: "Y", j: "Y"}),
    )


def chain_hamiltonian(n_chain: int, sensor_qubits: int = 2) -> HamiltonianSpec:
    """Sensor + chain exchange Hamiltonian.

    Two-qubit sensor: qubit 0 is the outer sensor qubit (coupling ``ha``,
    known), qubit 1 the inner one (coupling ``hb`` to chain site 1), then
    chain couplings ``h1``..``h{n_chain-1}``.  Single-qubit sensor drops
    qubit 0 and ``ha``.
    """
    if n_chain < 1:
        raise InadmissibleConfig("chain needs at least one spin")
    if sensor_qubits not in (1, 2):
        raise InadmissibleConfig("sensor has 1 or 2 qubits")
    n = sensor_qubits + n_chain
    terms: list[tuple[str, PauliString]] = []
    params: list[str] = []
    if sensor_qubits == 2:
        xx, yy = _exchange_term(n, 0, 1)
        terms += [("ha", xx), ("ha", yy)]
        params.append("ha")
    # inner sensor qubit to chain site 1
    b = sensor_qubits - 1
    xx, yy = _exchange_term(n, b, b + 1)
    terms += [("hb", xx), ("hb", yy)]
    params.append("hb")
    for k in range(1, n_chain):
        i = sensor_qubits - 1 + k
        xx, yy = _exchange_term(n, i, i + 1)
        pid = f"h{k}"
        terms += [(pid, xx), (pid, yy)]
        params.append(pid)
    return HamiltonianSpec(
        n_qubits=n,
        sensor_qubits=sensor_qubits,
        n_chain=n_chain,
        terms=tuple(terms),
        param_ids=tuple(params),
    )


def heisenberg_derivative(
    h: HamiltonianSpec, o: PauliString
) -> list[tuple[str, int, tuple[int, int]]]:
    """Expand i[H, o] as [(param_id, coefficient, (X mask, Z mask)), ...].

    ``o`` must be hermitian.  A term P anticommutes with ``o`` or drops
    out; when it anticommutes, [P, o] = 2 P o, so the prefactor 1/2 cancels
    and i[P/2, o] = i P o = +-(P o with its phase stripped).  The sign is
    the ``int`` coefficient and the phase-0 string is returned as its mask
    key; terms that land on the same string are summed in the order they
    first appear.  The anticommutation test and the product phase are those
    of :func:`commutes` and :func:`multiply`, taken on the masks.
    """
    if o.n_qubits != h.n_qubits:
        raise DimensionMismatch(f"{h.n_qubits} vs {o.n_qubits} qubits")
    if not o.is_hermitian:
        raise NonHermitianOperator("Heisenberg derivative of a non-hermitian string")
    ox, oz = o.x_mask, o.z_mask
    base = o.phase_exp + o._n_y()
    acc: dict[tuple[str, int, int], int] = {}
    for pid, px, pz, p_phase in h.term_masks:
        if not ((px & oz) ^ (pz & ox)).bit_count() & 1:
            continue
        x, z = px ^ ox, pz ^ oz
        phase = (p_phase + base - (x & z).bit_count()
                 + 2 * (pz & ox).bit_count()) & 3
        # P o is antihermitian, so i P o has phase 0 (sign +1) or 2 (-1)
        if not phase & 1:
            raise NonHermitianOperator("Hamiltonian term is not hermitian")
        key = (pid, x, z)
        acc[key] = acc.get(key, 0) + (1 if phase == 3 else -1)
    return [(pid, coeff, (x, z)) for (pid, x, z), coeff in acc.items() if coeff]


# -- initial states ---------------------------------------------------------


@dataclass(frozen=True)
class InitialState:
    """Product state: listed qubits in the +1 eigenstate of X, rest I/2."""

    n_qubits: int
    prepared_x: frozenset[int]

    def __post_init__(self):
        for q in self.prepared_x:
            if not 0 <= q < self.n_qubits:
                raise DimensionMismatch(f"prepared qubit {q} outside register")


_INITIAL_LABELS = {
    (2, "xa"): (0,),
    (2, "xb"): (1,),
    (2, "xaxb"): (0, 1),
    (1, "xb"): (0,),
}


def initial_state(label: str, n_qubits: int, sensor_qubits: int = 2) -> InitialState:
    """Catalog initial states: ``xa``, ``xb``, ``xaxb`` (sensor sites only)."""
    try:
        qubits = _INITIAL_LABELS[(sensor_qubits, label)]
    except KeyError:
        raise InadmissibleConfig(
            f"no initial state {label!r} for a {sensor_qubits}-qubit sensor"
        ) from None
    return InitialState(n_qubits, frozenset(qubits))


def expectation(p: PauliString, state: InitialState) -> int:
    """Tr(p rho) for a product state of X-prepared and maximally mixed sites.

    Exact by the product rule: I contributes 1, X on a prepared site 1,
    anything else 0.  Always one of -1, 0, +1.
    """
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatch("operator and state disagree on qubit count")
    sign = p.hermitian_sign()
    for q in range(p.n_qubits):
        letter = p.letter(q)
        if letter == "I":
            continue
        if q in state.prepared_x and letter == "X":
            continue
        return 0
    return sign


# -- computational basis and dense oracles -----------------------------------
#
# Basis states are integers in Kronecker order: qubit 0 is the most
# significant bit, as in the rows of ``dense_matrix``.

_PHASES = (1, 1j, -1, -1j)


def _check_oracle_size(n_qubits: int):
    if n_qubits > ORACLE_MAX_QUBITS:
        raise OracleSizeLimit(
            f"dense oracle capped at {ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )


def _kron_mask(mask: int, n_qubits: int) -> int:
    return int(format(mask, f"0{n_qubits}b")[::-1], 2)


def excitation_sectors(n_qubits: int) -> list[np.ndarray]:
    """The basis states of Hamming weight k = 0..n, each in ascending order."""
    _check_oracle_size(n_qubits)
    weight = np.bitwise_count(np.arange(1 << n_qubits))
    return [np.flatnonzero(weight == k) for k in range(n_qubits + 1)]


def basis_action(p: PauliString, states) -> tuple[np.ndarray, np.ndarray, complex]:
    """``(targets, signs, phase)`` with p|s> = phase * sign_s * |target_s>.

    A letter is i**(x z) X**x Z**z, so the Z part gives -1 for each set
    bit of s under the Z mask and the X part flips the X mask.  Signs are
    +-1; the phase is the power of i common to every state.
    """
    states = np.asarray(states, dtype=np.int64)
    flip = _kron_mask(p.x_mask, p.n_qubits)
    zmask = _kron_mask(p.z_mask, p.n_qubits)
    signs = 1.0 - 2.0 * (np.bitwise_count(states & zmask) & 1)
    return states ^ flip, signs, _PHASES[(p.phase_exp + p._n_y()) % 4]


@lru_cache(maxsize=4096)
def _dense_cached(n: int, x: int, z: int, phase: int) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for q in range(n):
        mat = np.kron(mat, _DENSE_1Q[_LETTERS[((x >> q) & 1, (z >> q) & 1)]])
    mat = (1j**phase) * mat
    mat.setflags(write=False)
    return mat


def dense_matrix(p: PauliString) -> np.ndarray:
    """Literal Kronecker-product matrix of a string (oracle; <= 14 qubits)."""
    _check_oracle_size(p.n_qubits)
    return _dense_cached(p.n_qubits, p.x_mask, p.z_mask, p.phase_exp)


def dense_hamiltonian(
    h: HamiltonianSpec, binding: dict[str, float], states=None
) -> np.ndarray:
    """H at a numeric binding on the span of ``states`` (oracle; <= 14 qubits).

    Entry [i, j] is <states[i]|H|states[j]>.  Without ``states`` this is
    the whole 2**n x 2**n matrix.  H must map the span into itself: a
    term may leave it only where terms with the same X mask cancel (XX
    and YY on one bond do), and any other amplitude outside the span
    raises :class:`InadmissibleConfig`.
    """
    _check_oracle_size(h.n_qubits)
    dim = 1 << h.n_qubits
    if states is None:
        states = np.arange(dim)
    states = np.asarray(states, dtype=np.int64)
    if (
        states.ndim != 1
        or np.any((states < 0) | (states >= dim))
        or len(np.unique(states)) != len(states)
    ):
        raise DimensionMismatch(
            f"basis states must be distinct integers below {dim}"
        )
    index = np.full(dim, -1)
    index[states] = np.arange(len(states))
    # terms with one X mask send each state to the same target, so their
    # amplitudes are summed before they are placed
    amplitudes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for pid, term in h.terms:
        targets, signs, phase = basis_action(term, states)
        value = float(binding[pid]) * EXCHANGE_PREFACTOR * phase * signs
        if term.x_mask in amplitudes:
            value = amplitudes[term.x_mask][1] + value
        amplitudes[term.x_mask] = (targets, value)
    block = np.zeros((len(states), len(states)), dtype=complex)
    for x_mask, (targets, value) in amplitudes.items():
        rows = index[targets]
        inside = rows >= 0
        if np.any(value[~inside]):
            raise InadmissibleConfig(
                f"Hamiltonian terms with X mask {x_mask:#b} map the given "
                "basis states outside their span"
            )
        block[rows[inside], np.flatnonzero(inside)] = value[inside]
    return block


def dense_state(state: InitialState) -> np.ndarray:
    """Dense density matrix of an :class:`InitialState` (oracle)."""
    _check_oracle_size(state.n_qubits)
    plus = 0.5 * (np.eye(2) + _DENSE_1Q["X"])
    mixed = 0.5 * np.eye(2)
    rho = np.array([[1.0 + 0j]])
    for q in range(state.n_qubits):
        rho = np.kron(rho, plus if q in state.prepared_x else mixed)
    return rho
