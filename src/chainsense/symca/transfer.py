"""Symbolic Markov parameters and transfer functions of the chain models.

Everything here is exact: coefficients live in QQ (or QQ(v) downstream)
and the characteristic polynomial comes from the Faddeev-LeVerrier
recursion with its closing identity asserted, so a wrong intermediate
cannot survive to the return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import exact, ssm
from ..errors import BudgetExceeded, DimensionMismatch, NumericFailure
from ..ssm import StateSpaceModel
from .poly import MPoly, PolyRing

TRANSFER_DIM_CAP = 24
MARKOV_TERM_BUDGET = 200_000


def model_ring(model: StateSpaceModel) -> PolyRing:
    return PolyRing(variables=tuple(model.param_ids), order="grevlex")


def _symbolic_vectors(model: StateSpaceModel, ring: PolyRing):
    """(sparse A, B column, C row) with MPoly entries."""
    n = model.dim
    a_sparse: list[tuple[int, int, MPoly]] = []
    for entry in model.a_entries:
        var = MPoly.var(ring, entry.param_id)
        a_sparse.append((entry.row, entry.col, var.scale(Fraction(entry.sign))))
    def int_vec(values):
        out = []
        for v in values:
            iv = int(round(float(v)))
            if iv != float(v):
                raise NumericFailure("structural vector entry is not integral")
            out.append(MPoly.const(ring, Fraction(iv)))
        return out
    b = int_vec(model.b)
    c = int_vec(model.c)
    if len(b) != n or len(c) != n:
        raise DimensionMismatch("B/C length does not match the state dimension")
    return a_sparse, b, c


def _apply_sparse(a_sparse, vec, ring):
    n = len(vec)
    out = [MPoly.zero(ring) for _ in range(n)]
    for i, j, coeff in a_sparse:
        if vec[j]:
            out[i] = out[i] + coeff * vec[j]
    return out


def symbolic_markov(model: StateSpaceModel, count: int) -> list[MPoly]:
    """First ``count`` Markov parameters C A^k B as polynomials in the couplings."""
    ring = model_ring(model)
    a_sparse, b, c = _symbolic_vectors(model, ring)
    out = []
    vec = b
    for _ in range(count):
        m = MPoly.zero(ring)
        for ci, vi in zip(c, vec):
            if ci and vi:
                m = m + ci * vi
        out.append(m)
        vec = _apply_sparse(a_sparse, vec, ring)
        if sum(len(v) for v in vec) > MARKOV_TERM_BUDGET:
            raise BudgetExceeded("symbolic Markov term budget exceeded")
    return out


@dataclass
class RationalTransfer:
    """Strictly proper scalar transfer function C (sI - A)^{-1} B.

    Coefficient lists are descending in s: ``den_coeffs[0]`` is the monic
    leading 1 of s^n, ``num_coeffs[0]`` multiplies s^(n-1).
    """

    num_coeffs: list[MPoly]
    den_coeffs: list[MPoly]
    ring: PolyRing

    @property
    def order(self) -> int:
        return len(self.den_coeffs) - 1

    def evaluate(self, binding: dict) -> tuple[list[Fraction], list[Fraction]]:
        point = {k: Fraction(v) for k, v in binding.items()}
        num = [p.evaluate(point) for p in self.num_coeffs]
        den = [p.evaluate(point) for p in self.den_coeffs]
        return num, den

    def response(self, binding: dict, s: complex) -> complex:
        num, den = self.evaluate(binding)
        nv = sum(complex(c) * s ** (len(num) - 1 - i) for i, c in enumerate(num))
        dv = sum(complex(c) * s ** (len(den) - 1 - i) for i, c in enumerate(den))
        return nv / dv


def symbolic_transfer(
    model: StateSpaceModel, dim_cap: int = TRANSFER_DIM_CAP
) -> RationalTransfer:
    """Exact transfer function via the Faddeev-LeVerrier recursion."""
    n = model.dim
    if n > dim_cap:
        raise BudgetExceeded(
            f"state dimension {n} exceeds the symbolic transfer cap {dim_cap}"
        )
    ring = model_ring(model)
    a_sparse, b, c = _symbolic_vectors(model, ring)
    zero = MPoly.zero(ring)
    one = MPoly.const(ring, Fraction(1))
    # N_0 = I; den and num are accumulated as the recursion walks down.
    n_mat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    den = [one]
    num = []
    num.append(_bilinear(c, n_mat, b, ring))
    for k in range(1, n + 1):
        an = _sparse_times_dense(a_sparse, n_mat, n, ring)
        trace = zero
        for i in range(n):
            trace = trace + an[i][i]
        ck = trace.scale(Fraction(-1, k))
        den.append(ck)
        for i in range(n):
            an[i][i] = an[i][i] + ck
        n_mat = an
        if k < n:
            num.append(_bilinear(c, n_mat, b, ring))
    # closing identity: A N_{n-1} + c_n I must vanish (n_mat is that sum now)
    for i in range(n):
        for j in range(n):
            if n_mat[i][j]:
                raise NumericFailure(
                    "Faddeev-LeVerrier closing identity failed; "
                    "the symbolic state matrix is inconsistent"
                )
    return RationalTransfer(num_coeffs=num, den_coeffs=den, ring=ring)


def _sparse_times_dense(a_sparse, m, n, ring):
    out = [[MPoly.zero(ring) for _ in range(n)] for _ in range(n)]
    for i, j, coeff in a_sparse:
        row = m[j]
        for col in range(n):
            if row[col]:
                out[i][col] = out[i][col] + coeff * row[col]
    return out


def _bilinear(c, m, b, ring):
    total = MPoly.zero(ring)
    for i, ci in enumerate(c):
        if not ci:
            continue
        for j, bj in enumerate(b):
            if bj and m[i][j]:
                total = total + ci * m[i][j] * bj
    return total


def markov_from_transfer(rt: RationalTransfer, count: int) -> list[MPoly]:
    """Markov parameters recovered from the transfer coefficients.

    Uses the long-division recurrence
    M_k = num_{k} - sum_{i=1..k} den_i M_{k-i} (indices past the lists are 0),
    which gives an independent cross-check on symbolic_markov.
    """
    ring = rt.ring
    out: list[MPoly] = []
    for k in range(count):
        m = rt.num_coeffs[k] if k < len(rt.num_coeffs) else MPoly.zero(ring)
        for i in range(1, min(k, rt.order) + 1):
            m = m - rt.den_coeffs[i] * out[k - i]
        out.append(m)
    return out


def minimal_denominator_exact(
    model: StateSpaceModel, binding: dict, order: int
) -> list[Fraction]:
    """Monic denominator of the minimal I/O realization at a rational binding.

    Solves the linear recurrence M_{k+order} + sum_i d_i M_{k+order-i} = 0
    satisfied by the Markov sequence, exactly.  Raises NumericFailure if the
    system is inconsistent or the solution is not unique (wrong order).
    """
    count = 2 * order + 8
    a, b, c = ssm.evaluate_exact(model, binding)
    markov = ssm.markov(a, b, c, count)
    rows = []
    rhs = []
    for k in range(count - order):
        rows.append([markov[k + order - i] for i in range(1, order + 1)])
        rhs.append(-markov[k + order])
    solved = exact.solve_general(rows, rhs)
    if solved is None:
        raise NumericFailure("Markov recurrence is inconsistent at this order")
    particular, nullspace = solved
    if nullspace:
        raise NumericFailure(
            "Markov recurrence underdetermined; true minimal order is lower"
        )
    return [Fraction(1)] + list(particular)


def cube_equations(v1: Fraction, v2: Fraction, v3: Fraction) -> tuple[PolyRing, list[MPoly]]:
    """Pinned elimination system for the two-sensor cube scheme at N = 2.

    Unknowns t1 = h_alpha, t2 = h_beta^2, t3 = h_1^2; the v's are the
    measured invariants (signed first Markov parameter, third-Markov
    combination, and the s^(2n-2) denominator coefficient).
    """
    ring = PolyRing(variables=("t1", "t2", "t3"), order="lex")
    t1 = MPoly.var(ring, "t1")
    t2 = MPoly.var(ring, "t2")
    t3 = MPoly.var(ring, "t3")
    c = lambda q: MPoly.const(ring, Fraction(q))
    eq1 = t1 - c(v1)
    eq2 = (
        t1 * t1 * t1 * Fraction(10)
        + t1 * t2 * Fraction(7)
        + t1 * t3 * Fraction(11)
        - c(v2)
    )
    eq3 = (t1 * t1 + t2 + t3) * Fraction(11) - c(v3)
    return ring, [eq1, eq2, eq3]


def numeric_denominator(model: StateSpaceModel, binding: dict) -> np.ndarray:
    """Float characteristic polynomial of A at a binding (descending powers)."""
    a, _, _ = ssm.evaluate(model, binding)
    return np.poly(a)
