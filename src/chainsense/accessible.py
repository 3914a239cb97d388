"""Accessible sets: commutator closure of a measurement under the chain
Hamiltonian, with canonical orderings.

The catalog covers both sensor shapes.  A two-qubit sensor measuring
``Za Yb`` (with the outer qubit prepared along X) generates a ladder of
N+2 operators; measuring ``Ya Zb`` (inner qubit prepared) generates the
large set of (N+2)^3/2 - (N+2)^2/2 operators; every other catalog
measurement generates a set orthogonal to every preparable initial state.

Basis elements are (sign, phase-0 string) pairs.  The ladder's signs
follow the period-4 generation convention (+, +, -, -, ...) so that the
state matrix comes out with an all-positive superdiagonal; the large set
uses positive strings in the documented element order (embedded below for
one and two chain spins, where the order is documented element by
element) and a (closure depth, bitmask) order for longer chains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InadmissibleConfig
from .pauli import (
    HamiltonianSpec,
    InitialState,
    PauliString,
    chain_hamiltonian,
    expectation,
    from_letters,
    heisenberg_derivative,
    initial_state,
    parse_string,
)

# -- catalog ----------------------------------------------------------------

#: measurement label -> admissible initial-state labels, by sensor size
CATALOG: dict[tuple[str, int], tuple[str, ...]] = {
    ("Yb", 1): ("xb",),
    ("Zb", 1): ("xb",),
    ("ZaYb", 2): ("xa",),
    ("YaZb", 2): ("xb",),
    ("YaYb", 2): ("xa", "xb", "xaxb"),
    ("ZaZb", 2): ("xa", "xb", "xaxb"),
    ("Yb", 2): ("xa", "xb", "xaxb"),
    ("Zb", 2): ("xa", "xb", "xaxb"),
}

#: the two measurement schemes whose accessible set meets its initial state
CAPABLE_SCHEMES = {("ZaYb", 2): "ladder", ("YaZb", 2): "cube"}


def capability_class(measurement_label: str, sensor_qubits: int) -> str:
    """'ladder', 'cube', or 'orthogonal' for catalog schemes."""
    key = (measurement_label, sensor_qubits)
    if key not in CATALOG:
        raise InadmissibleConfig(
            f"measurement {measurement_label!r} with a {sensor_qubits}-qubit "
            "sensor is not in the catalog"
        )
    return CAPABLE_SCHEMES.get(key, "orthogonal")


@dataclass(frozen=True)
class SensorConfig:
    """A catalog scheme instance: chain length, sensor shape, measurement,
    initial state."""

    n_chain: int
    sensor_qubits: int
    measurement_label: str
    initial_label: str

    def __post_init__(self):
        key = (self.measurement_label, self.sensor_qubits)
        if key not in CATALOG:
            raise InadmissibleConfig(
                f"measurement {self.measurement_label!r} with a "
                f"{self.sensor_qubits}-qubit sensor is not in the catalog"
            )
        if self.initial_label not in CATALOG[key]:
            raise InadmissibleConfig(
                f"initial state {self.initial_label!r} is not preparable for "
                f"measurement {self.measurement_label!r} "
                f"({self.sensor_qubits}-qubit sensor); allowed: "
                f"{', '.join(CATALOG[key])}"
            )
        if self.n_chain < 1:
            raise InadmissibleConfig("chain needs at least one spin")

    @property
    def n_qubits(self) -> int:
        return self.sensor_qubits + self.n_chain

    @property
    def scheme_tag(self) -> str:
        return f"{self.measurement_label}@{self.sensor_qubits}q"

    @property
    def capability(self) -> str:
        return capability_class(self.measurement_label, self.sensor_qubits)

    def hamiltonian(self) -> HamiltonianSpec:
        return chain_hamiltonian(self.n_chain, self.sensor_qubits)

    def measurement_string(self) -> PauliString:
        letters = {}
        for tok in re.findall(r"[XYZ][ab]", self.measurement_label):
            qubit = 0 if (tok[1] == "a" or self.sensor_qubits == 1) else 1
            letters[qubit] = tok[0]
        return from_letters(self.n_qubits, letters)

    def initial_state(self) -> InitialState:
        return initial_state(self.initial_label, self.n_qubits, self.sensor_qubits)


# -- closure ----------------------------------------------------------------


#: one term of i[H, o]: (param_id, coefficient, (X mask, Z mask)) of a
#: phase-0 string
Term = tuple[str, int, tuple[int, int]]


def closure(
    ham: HamiltonianSpec, seed: PauliString
) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], list[Term]],
           dict[tuple[int, int], PauliString]]:
    """Breadth-first commutator closure.

    Returns ({string key: depth}, {string key: derivative terms},
    {string key: phase-0 string}), all keyed by (X mask, Z mask).  Each
    element's i[H, .] is expanded exactly once, from the one
    :class:`PauliString` made for that element (the third table), and every
    string it produces joins the set, so the second table covers the set and
    stays inside it.
    """
    start = seed.key()
    depths = {start: 0}
    derivatives: dict[tuple[int, int], list[Term]] = {}
    strings: dict[tuple[int, int], PauliString] = {}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            string = strings[key] = PauliString(seed.n_qubits, *key)
            terms = derivatives[key] = heisenberg_derivative(ham, string)
            for _pid, _coeff, out in terms:
                if out not in depths:
                    depths[out] = depths[key] + 1
                    nxt.append(out)
        frontier = nxt
    return depths, derivatives, strings


# -- canonical orders -------------------------------------------------------

# documented element order for the cube scheme, one and two chain spins
_CUBE_ORDER_N1 = [
    "Ya Zb", "Xb", "Zb Y1", "Ya Xb Y1", "Ya Z1", "Ya Yb X1", "Xa Yb Y1",
    "Za Y1", "Za Xb Z1",
]
_CUBE_ORDER_N2 = _CUBE_ORDER_N1 + [
    "Ya Yb Z1 Y2", "Ya X1 Y2", "Za Xb X1 Y2", "Ya Z2", "Za Xb Z2",
    "Za Zb Y1 Z2", "Ya Y1 X2", "Za Xb Y1 X2", "Za Zb X2", "Ya Xb Z1 X2",
    "Za Z1 X2", "Za Yb X1 X2", "Zb Z1 X2", "Xa Yb Z1 X2", "Xa X1 X2",
]


def _ladder_sign(position: int) -> int:
    """Generation-convention sign of ladder element at 1-based position."""
    return 1 if (position - 1) % 4 < 2 else -1


def ladder_basis(n_chain: int) -> list[tuple[int, PauliString]]:
    """Signed ladder basis [Xa, ZaYb, ZaZbX1, ZaZbZ1Y2, ...]."""
    n = n_chain + 2
    out = [(1, from_letters(n, {0: "X"})), (1, from_letters(n, {0: "Z", 1: "Y"}))]
    for site in range(1, n_chain + 1):
        letters = {0: "Z", 1: "Z"}
        for j in range(1, site):
            letters[1 + j] = "Z"
        letters[1 + site] = "X" if site % 2 == 1 else "Y"
        out.append((_ladder_sign(site + 2), from_letters(n, letters)))
    return out


def single_yb_basis(n_chain: int) -> list[tuple[int, PauliString]]:
    """[Yb, ZbX1, ZbZ1Y2, ...] for the single-qubit Y measurement.

    Signs follow the same convention as the ladder: the diagonal gauge that
    turns every superdiagonal coupling of the induced dynamics matrix
    positive.  Here the raw couplings alternate starting negative, giving a
    +,-,-,+ period-4 pattern.
    """
    n = n_chain + 1
    out = [(1, from_letters(n, {0: "Y"}))]
    for site in range(1, n_chain + 1):
        letters = {0: "Z"}
        for j in range(1, site):
            letters[j] = "Z"
        letters[site] = "X" if site % 2 == 1 else "Y"
        pos = site + 1
        sign = 1 if pos % 4 in (0, 1) else -1
        out.append((sign, from_letters(n, letters)))
    return out


@dataclass
class AccessibleSet:
    """Ordered, signed operator basis generated by a measurement, with the
    derivative terms of each element keyed by its (X mask, Z mask)."""

    basis: tuple[tuple[int, PauliString], ...]
    derivatives: dict[tuple[int, int], list[Term]]
    _index: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {s.key(): i for i, (_sg, s) in enumerate(self.basis)}
        if len(self._index) != len(self.basis):
            raise InadmissibleConfig("duplicate strings in basis")

    def __len__(self) -> int:
        return len(self.basis)

    def position(self, key: tuple[int, int]) -> int:
        """0-based index of the string with this (X mask, Z mask) key;
        KeyError if absent."""
        return self._index[key]

    def __contains__(self, string: PauliString) -> bool:
        return string.key() in self._index

    def signed_expectations(self, state: InitialState) -> list[int]:
        return [sign * expectation(s, state) for sign, s in self.basis]


def generate(config: SensorConfig) -> AccessibleSet:
    """Accessible set of a catalog scheme in its canonical order.

    The constructive orders are cross-checked against the breadth-first
    closure: same elements, no more, no fewer.  Since the closure adds every
    derivative output, that check also proves the set closed.
    """
    depths, derivatives, strings = closure(config.hamiltonian(),
                                           config.measurement_string())
    cls = config.capability
    n = config.n_qubits

    if cls == "ladder":
        basis = ladder_basis(config.n_chain)
    elif cls == "cube":
        if config.n_chain == 1:
            basis = [(1, parse_string(t, n)) for t in _CUBE_ORDER_N1]
        elif config.n_chain == 2:
            basis = [(1, parse_string(t, n)) for t in _CUBE_ORDER_N2]
        else:
            ordered = sorted(depths, key=lambda k: (depths[k], k[0], k[1]))
            basis = [(1, strings[key]) for key in ordered]
    elif config.scheme_tag == "Yb@1q":
        basis = single_yb_basis(config.n_chain)
    else:
        ordered = sorted(depths, key=lambda k: (depths[k], k[0], k[1]))
        basis = [(1, strings[key]) for key in ordered]

    aset = AccessibleSet(basis=tuple(basis), derivatives=derivatives)
    if {s.key() for _sg, s in basis} != set(depths):
        raise InadmissibleConfig(
            f"constructive order for {config.scheme_tag} disagrees with the "
            "commutator closure"
        )
    return aset
