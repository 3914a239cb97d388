"""Pauli-string algebra on bitmasks, plus the exchange-chain Hamiltonians.

A Pauli string on ``n`` qubits is stored as two bitmasks (X part, Z part)
and a power of i.  Bit ``k`` of a mask refers to qubit ``k``; qubit 0 is
the first sensor qubit.  The letter at a site is read from the mask pair:
(0,0) is I, (1,0) is X, (1,1) is Y, (0,1) is Z.

Internally a string means ``i**phase_exp`` times the tensor product of its
letters.  Hermitian strings therefore have ``phase_exp`` in {0, 2}; the
accessible-set machinery keeps basis elements in the sign-stripped form
(phase 0) and carries signs separately.

The dense-matrix helpers at the bottom are the independent oracle used by
the tests: they build literal Kronecker products and refuse to run above
14 qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    def support(self) -> int:
        """Mask of non-identity sites."""
        return self.x_mask | self.z_mask

    @property
    def weight(self) -> int:
        return self.support.bit_count()

    @property
    def is_identity(self) -> bool:
        return self.support == 0

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

    def canon_hermitian(self) -> tuple[int, "PauliString"]:
        """Split a hermitian string into (sign, phase-0 string)."""
        return self.hermitian_sign(), self.positive()

    def key(self) -> tuple[int, int]:
        """Hashable identity ignoring phase (for set membership)."""
        return (self.x_mask, self.z_mask)

    def __str__(self) -> str:
        return format_string(self)

    # -- algebra ------------------------------------------------------------

    def _n_y(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()


def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0, 0)


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


def commutator(p: PauliString, q: PauliString) -> tuple[int, PauliString] | None:
    """[p, q] as (2, p*q), or None when the strings commute.

    For anticommuting Pauli strings [p, q] = 2 p q; the integer 2 is
    returned explicitly so the caller never forgets it.
    """
    if p.n_qubits != q.n_qubits:
        raise DimensionMismatch(f"{p.n_qubits} vs {q.n_qubits} qubits")
    if commutes(p, q):
        return None
    return 2, multiply(p, q)


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
        else:
            q = sensor_qubits - 1 + int(label)
        if q in letters:
            raise InadmissibleConfig(f"site {label!r} listed twice")
        letters[q] = letter
    return from_letters(n_qubits, letters, phase)


# -- Hamiltonians -----------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianSpec:
    """Exchange-coupling Hamiltonian as a parametrised Pauli-term list.

    Each term is (param_id, prefactor, string); the operator is
    sum_k binding[param_id_k] * prefactor_k * string_k.  ``known`` marks
    parameters the experimenter controls (the sensor's internal coupling).
    """

    n_qubits: int
    sensor_qubits: int
    n_chain: int
    terms: tuple[tuple[str, Fraction, PauliString], ...]
    param_ids: tuple[str, ...]
    known: frozenset[str]

    def coupling_sequence(self) -> tuple[str, ...]:
        """Parameter ids in chain order (the ladder superdiagonal order)."""
        return self.param_ids


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
    half = Fraction(1, 2)
    terms: list[tuple[str, Fraction, PauliString]] = []
    params: list[str] = []
    if sensor_qubits == 2:
        xx, yy = _exchange_term(n, 0, 1)
        terms += [("ha", half, xx), ("ha", half, yy)]
        params.append("ha")
    # inner sensor qubit to chain site 1
    b = sensor_qubits - 1
    xx, yy = _exchange_term(n, b, b + 1)
    terms += [("hb", half, xx), ("hb", half, yy)]
    params.append("hb")
    for k in range(1, n_chain):
        i = sensor_qubits - 1 + k
        xx, yy = _exchange_term(n, i, i + 1)
        pid = f"h{k}"
        terms += [(pid, half, xx), (pid, half, yy)]
        params.append(pid)
    known = frozenset({"ha"}) if sensor_qubits == 2 else frozenset()
    return HamiltonianSpec(
        n_qubits=n,
        sensor_qubits=sensor_qubits,
        n_chain=n_chain,
        terms=tuple(terms),
        param_ids=tuple(params),
        known=known,
    )


def heisenberg_derivative(
    h: HamiltonianSpec, o: PauliString
) -> list[tuple[str, Fraction, PauliString]]:
    """Expand i[H, o] as [(param_id, coefficient, phase-0 string), ...].

    ``o`` must be hermitian.  Each output string is sign-stripped; its sign
    is folded into the (rational) coefficient.  For the exchange model every
    surviving entry has coefficient +-1 times one parameter, but the merge
    is done generically.
    """
    if not o.is_hermitian:
        raise NonHermitianOperator("Heisenberg derivative of a non-hermitian string")
    acc: dict[tuple[str, int, int], Fraction] = {}
    order: list[tuple[str, int, int]] = []
    for pid, pref, term in h.terms:
        c = commutator(term, o)
        if c is None:
            continue
        two, prod = c
        # i * [term, o] = i * 2 * prod; hermitian iff phase+1 is even
        phase = (prod.phase_exp + 1) % 4
        if phase == 0:
            sign = 1
        elif phase == 2:
            sign = -1
        else:  # pragma: no cover - impossible for hermitian inputs
            raise NonHermitianOperator("commutator lost hermiticity")
        coeff = pref * two * sign
        key = (pid, prod.x_mask, prod.z_mask)
        if key not in acc:
            acc[key] = Fraction(0)
            order.append(key)
        acc[key] += coeff
    out = []
    for key in order:
        if acc[key] != 0:
            pid, x, z = key
            out.append((pid, acc[key], PauliString(o.n_qubits, x, z, 0)))
    return out


# -- initial states ---------------------------------------------------------


@dataclass(frozen=True)
class InitialState:
    """Product state: listed qubits in the +1 eigenstate of X, rest I/2."""

    n_qubits: int
    prepared_x: frozenset[int]
    label: str = ""

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
    return InitialState(n_qubits, frozenset(qubits), label)


def expectation(p: PauliString, state: InitialState) -> Fraction:
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
        return Fraction(0)
    return Fraction(sign)


# -- dense oracles ----------------------------------------------------------


def _check_oracle_size(n_qubits: int):
    if n_qubits > ORACLE_MAX_QUBITS:
        raise OracleSizeLimit(
            f"dense oracle capped at {ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )


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


def dense_hamiltonian(h: HamiltonianSpec, binding: dict[str, float]) -> np.ndarray:
    """Dense H at a numeric binding (oracle; <= 14 qubits)."""
    _check_oracle_size(h.n_qubits)
    dim = 2**h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for pid, pref, term in h.terms:
        mat += float(binding[pid]) * float(pref) * dense_matrix(term)
    return mat


def dense_state(state: InitialState) -> np.ndarray:
    """Dense density matrix of an :class:`InitialState` (oracle)."""
    _check_oracle_size(state.n_qubits)
    plus = 0.5 * (np.eye(2) + _DENSE_1Q["X"])
    mixed = 0.5 * np.eye(2)
    rho = np.array([[1.0 + 0j]])
    for q in range(state.n_qubits):
        rho = np.kron(rho, plus if q in state.prepared_x else mixed)
    return rho
