"""Symbolic Markov parameters and transfer functions of the chain models.

Everything here is exact: coefficients live in QQ (or QQ(v) downstream)
and the characteristic polynomial comes from the Faddeev-LeVerrier
recursion with its closing identity asserted, so a wrong intermediate
cannot survive to the return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import exact, ssm
from ..errors import BudgetExceeded, DimensionMismatch, NumericFailure
from ..ssm import StateSpaceModel
from .poly import MPoly, PolyRing

TRANSFER_DIM_CAP = 24


def model_ring(model: StateSpaceModel) -> PolyRing:
    return PolyRing(variables=tuple(model.param_ids), order="grevlex")


def _symbolic_triple(model: StateSpaceModel, ring: PolyRing):
    """(A, B, C) with A's entries the signed coupling variables and B, C
    Fractions, for the exact kernels of ``exact`` and ``ssm``."""
    n = model.dim
    # exact.matvec zips, so a short B or C would be cut without an error
    if len(model.b) != n or len(model.c) != n:
        raise DimensionMismatch("B/C length does not match the state dimension")
    var = {pid: MPoly.var(ring, pid) for pid in ring.variables}
    a = exact.zeros(n, n)
    for e in model.a_entries:
        a[e.row][e.col] = var[e.param_id].scale(e.sign)
    return a, [Fraction(v) for v in model.b], [Fraction(v) for v in model.c]


def symbolic_markov(model: StateSpaceModel, count: int) -> list[MPoly]:
    """First ``count`` Markov parameters C A^k B as polynomials in the
    couplings: ``ssm.markov`` over the polynomial triple."""
    ring = model_ring(model)
    zero = MPoly.zero(ring)
    # a Markov parameter with no nonzero term comes back as Fraction(0)
    return [zero + m for m in ssm.markov(*_symbolic_triple(model, ring), count)]


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


def symbolic_transfer(model: StateSpaceModel) -> RationalTransfer:
    """Exact transfer function via the Faddeev-LeVerrier recursion."""
    n = model.dim
    if n > TRANSFER_DIM_CAP:
        raise BudgetExceeded(
            f"state dimension {n} exceeds the symbolic transfer cap "
            f"{TRANSFER_DIM_CAP}"
        )
    ring = model_ring(model)
    a, b, c = _symbolic_triple(model, ring)
    zero = MPoly.zero(ring)

    def bilinear(m):
        return zero + exact.matvec([c], exact.matvec(m, b))[0]

    # N_0 = I; den and num are accumulated as the recursion walks down.
    n_mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    den = [MPoly.const(ring, 1)]
    num = [bilinear(n_mat)]
    for k in range(1, n + 1):
        an = exact.matmul(a, n_mat)
        ck = sum((an[i][i] for i in range(n)), zero).scale(Fraction(-1, k))
        den.append(ck)
        for i in range(n):
            an[i][i] = an[i][i] + ck
        n_mat = an
        if k < n:
            num.append(bilinear(n_mat))
    # closing identity: A N_{n-1} + c_n I must vanish (n_mat is that sum now)
    if any(x for row in n_mat for x in row):
        raise NumericFailure(
            "Faddeev-LeVerrier closing identity failed; "
            "the symbolic state matrix is inconsistent"
        )
    return RationalTransfer(num_coeffs=num, den_coeffs=den, ring=ring)


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
