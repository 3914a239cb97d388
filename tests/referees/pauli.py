"""Referees of ``chainsense.pauli``: the operator product and commutation
test that the inlined Heisenberg derivative must agree with, and literal
Kronecker products of strings and initial states for the sector
Hamiltonian and the quantum oracle (capped at 14 qubits, as the oracle
is)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from chainsense.errors import DimensionMismatch
from chainsense.pauli import (
    _LETTERS,
    InitialState,
    PauliString,
    _check_oracle_size,
)

_DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


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


def dense_state(state: InitialState) -> np.ndarray:
    """Dense density matrix of an :class:`InitialState` (oracle)."""
    _check_oracle_size(state.n_qubits)
    plus = 0.5 * (np.eye(2) + _DENSE_1Q["X"])
    mixed = 0.5 * np.eye(2)
    rho = np.array([[1.0 + 0j]])
    for q in range(state.n_qubits):
        rho = np.kron(rho, plus if q in state.prepared_x else mixed)
    return rho
