"""Structural analysis of the linear models: minimal realizations, the
exact controllability determinant and the closed-form oracles.

Two arithmetic tiers.  In floating point the Krylov ranks are the two
projections of the Kalman reduction, each the step where ``ssm.arnoldi``
stops; where the controllable one is full, the observable one is the
model's observability rank.  Exact rationals certify the determinant
verdicts and the odd-N reduction at sampled rational bindings, since
genericity claims are best pinned down by identities rather than
tolerances.  The exact ranks, PBH test and even-N structure that referee
the float ranks are test code (``tests/referees/realization.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exact, ssm
from .errors import AtypicalParameters, DimensionMismatch, NumericFailure
from .ssm import StateSpaceModel

RATIONAL = dict[str, Fraction]


# -- exact tier -------------------------------------------------------------


def det_cm_exact(model: StateSpaceModel, binding: RATIONAL) -> Fraction:
    """Exact determinant of the controllability matrix [B, AB, ..., A^{n-1}B].

    With A = a / d and integer a, column k is a^k B / d^k, so the
    determinant is that of the integer Krylov matrix over d^(n(n-1)/2).
    """
    a, d = ssm.evaluate_integer(model, binding)
    n = model.dim
    return (exact.det(exact.transpose(ssm.krylov(a, list(model.b), n)))
            / d ** (n * (n - 1) // 2))


def det_cm_closed_form(n_chain: int, binding: RATIONAL) -> Fraction:
    """Closed form for det(CM) of the two-qubit ladder scheme.

    The magnitude is h_a^{N+1} h_b^N prod_{i=1}^{N-1} h_i^{N-i}; the sign is
    (-1)^{(N+1)(N+2)/2}, which is what the last-entry recursion of the
    Krylov columns actually yields (each A^k B picks up one factor of -1).
    """
    ha, hb = binding["ha"], binding["hb"]
    value = Fraction(ha) ** (n_chain + 1) * Fraction(hb) ** n_chain
    for i in range(1, n_chain):
        value *= Fraction(binding[f"h{i}"]) ** (n_chain - i)
    sign = -1 if ((n_chain + 1) * (n_chain + 2) // 2) % 2 else 1
    return sign * value


# -- SPT minimal realization (odd-N ladder) ---------------------------------


@dataclass
class SPTArtifacts:
    """Intermediate objects of the structure-preserving reduction, exact.

    The Krylov rows are kept as integers, row k being d^k c A^k; ``p_bar``
    and ``p_vec`` are their Fraction values, formed when read.
    """

    krylov_rows: list[list[int]]
    d: int
    a_tilde: list[list[Fraction]]
    det_p_bar: Fraction

    @property
    def p_bar(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.d ** k) for x in r[:-1]]
                for k, r in enumerate(self.krylov_rows)]

    @property
    def p_vec(self) -> list[Fraction]:
        return [Fraction(r[-1], self.d ** k)
                for k, r in enumerate(self.krylov_rows)]


@dataclass
class MinimalRealization:
    a_min: object
    b_min: object
    c_min: object
    diagnostics: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.diagnostics["order"]


def spt_minimal(
    model: StateSpaceModel, binding: RATIONAL
) -> tuple[MinimalRealization, SPTArtifacts]:
    """Reduce the odd-N ladder by one unobservable direction, exactly.

    Splits the rows C, CA, ..., CA^N as [Pbar, p], p being the last
    coordinate, and transforms with Q = [[I, Pbar^{-1} p], [0, 1]].  The
    reduced triple keeps B and C verbatim (their last entries are zero) and
    its first N columns coincide with A's.
    """
    cfg = model.config
    if cfg.capability != "ladder" or cfg.n_chain % 2 == 0:
        raise DimensionMismatch("the SPT reduction applies to the ladder at odd N")
    if any(v == 0 for v in binding.values()):
        raise AtypicalParameters("zero coupling: reduction formulas degenerate")
    dim = model.dim
    # with A = a / d, row k of the integer rows is d^k c A^k: scaling row k
    # by d^k multiplies det(Pbar) by d^(N(N+1)/2) and leaves Pbar^{-1} p alone
    a, d = ssm.evaluate_integer(model, binding)
    rows = ssm.krylov(exact.transpose(a), list(model.c), cfg.n_chain + 1)
    # Pbar is lower Hessenberg, so J Pbar J (rows and columns reversed) is
    # upper Hessenberg, with one row below each pivot to eliminate; it has
    # Pbar's determinant, and Pbar^{-1} p = J (J Pbar J)^{-1} J p
    rev = rows[::-1]
    p_rev = [r[dim - 2::-1] for r in rev]
    det_p_bar = exact.det(p_rev) / d ** (cfg.n_chain * (cfg.n_chain + 1) // 2)
    if det_p_bar == 0:
        raise AtypicalParameters("singular reduced row matrix at this binding")
    w = exact.solve(p_rev, [r[dim - 1] for r in rev])[::-1]
    m = dim - 1
    # A~ = A[:m, :m] + w A[m, :m], and row m of the ladder A has one nonzero
    zero = Fraction(0)
    a_tilde = [[Fraction(x, d) if x else zero for x in row[:m]] for row in a[:m]]
    for j, a_mj in enumerate(a[m][:m]):
        if a_mj:
            a_mj = Fraction(a_mj, d)
            for row, w_i in zip(a_tilde, w):
                if w_i:
                    row[j] += w_i * a_mj
    if model.b[m] != 0 or model.c[m] != 0:
        raise NumericFailure("last entries of B or C are unexpectedly nonzero")
    art = SPTArtifacts(
        krylov_rows=rows, d=d, a_tilde=a_tilde, det_p_bar=det_p_bar)
    minimal = MinimalRealization(
        a_min=a_tilde,
        b_min=[Fraction(v) for v in model.b[:m]],
        c_min=[Fraction(v) for v in model.c[:m]],
        diagnostics={"order": m},
    )
    return minimal, art


def det_p_bar_closed_form(n_chain: int, binding: RATIONAL) -> Fraction:
    """Closed-form det(Pbar) for odd N.

    N = 1 reduces to h_a by direct computation; for N >= 3 the pattern is
    h_a h_b^{N-1} h_{N-2}^3 prod_i h_{2i-1}^{N+2-2i} h_{2i}^{N-1-2i}.
    """
    if n_chain % 2 == 0:
        raise DimensionMismatch("closed form applies at odd N")
    if n_chain == 1:
        return Fraction(binding["ha"])
    value = Fraction(binding["ha"]) * Fraction(binding["hb"]) ** (n_chain - 1)
    value *= Fraction(binding[f"h{n_chain - 2}"]) ** 3
    for i in range(1, (n_chain - 3) // 2 + 1):
        value *= Fraction(binding[f"h{2 * i - 1}"]) ** (n_chain + 2 - 2 * i)
        value *= Fraction(binding[f"h{2 * i}"]) ** (n_chain - 1 - 2 * i)
    return value


def a_tilde_last_column_closed_form(n_chain: int, binding: RATIONAL) -> list[Fraction]:
    """Last column of the reduced matrix for odd N >= 3.

    Even rows vanish (N+1 is even, so the bottom row is zero).  Odd rows
    carry ratios of alternating couplings scaled by h_{N-1}; at row k = N
    the untransformed matrix contributes its superdiagonal entry h_{N-2}
    on top of the correction, giving h_{N-2} + h_{N-1}^2/h_{N-2}.
    """
    if n_chain < 3 or n_chain % 2 == 0:
        raise DimensionMismatch("closed form applies at odd N >= 3")
    n = n_chain
    hlast = Fraction(binding[f"h{n - 1}"])
    hprev = Fraction(binding[f"h{n - 2}"])
    out = []
    for k in range(1, n + 2):
        if k == 1:
            value = Fraction(binding["hb"]) * hlast
            for i in range(1, (n - 1) // 2 + 1):
                value *= Fraction(binding[f"h{2 * i}"])
            den = Fraction(binding["ha"])
            for i in range(1, (n - 1) // 2 + 1):
                den *= Fraction(binding[f"h{2 * i - 1}"])
            out.append(value / den)
        elif k % 2 == 0:
            out.append(Fraction(0))
        elif k == n:
            out.append(hprev + hlast * hlast / hprev)
        else:
            value = hlast
            for i in range((k - 1) // 2, (n - 1) // 2 + 1):
                value *= Fraction(binding[f"h{2 * i}"])
                value /= Fraction(binding[f"h{2 * i - 1}"])
            out.append(value)
    return out


# -- Kalman reduction -------------------------------------------------------


def kalman_minimal(model: StateSpaceModel, binding) -> MinimalRealization:
    """Minimal realization by projecting onto the controllable subspace and
    then the observable subspace, each the orthonormal basis where Arnoldi
    stops (the Krylov route to the Kalman decomposition)."""
    a, b, c = ssm.evaluate(model, binding)
    vc, a1 = ssm.arnoldi(a, b, model.dim)
    rc = vc.shape[1]
    b1 = vc.T @ b
    c1 = c @ vc
    vo, ho = ssm.arnoldi(a1.T, c1, rc)
    ro = vo.shape[1]
    return MinimalRealization(
        a_min=ho.T,
        b_min=vo.T @ b1,
        c_min=c1 @ vo,
        diagnostics={"order": ro, "controllable_rank": rc, "observable_rank": ro},
    )
