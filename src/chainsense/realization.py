"""Structural analysis of the linear models: Krylov ranks, PBH, minimal
realizations, and the closed-form determinant oracles.

Two arithmetic tiers.  In floating point every Krylov rank (observable,
and the two projections of the Kalman reduction) is the step where
``ssm.arnoldi`` stops.  Exact rationals certify every rank, PBH or
determinant verdict at sampled rational bindings, since genericity claims
are best pinned down by identities rather than tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact, ssm
from .errors import AtypicalParameters, DimensionMismatch, NumericFailure
from .ssm import StateSpaceModel

RATIONAL = dict[str, Fraction]


# -- Krylov ranks -----------------------------------------------------------


def observability_rank(model: StateSpaceModel, binding) -> tuple[np.ndarray, int]:
    """Orthonormal basis of span[C^T, A^T C^T, ...] and its rank.

    The rank is where Arnoldi on (A^T, C^T) closes its Krylov space; an SVD
    of the raw powers (A^T)^k C^T loses rank on long chains.
    """
    a, _, c = ssm.evaluate(model, binding)
    q, _ = ssm.arnoldi(a.T, c, model.dim)
    return q, q.shape[1]


# -- exact tier -------------------------------------------------------------

EXACT_RANK_DIM = 12


def exact_observability_rank(model: StateSpaceModel, binding: RATIONAL) -> int:
    if model.dim > EXACT_RANK_DIM:
        raise DimensionMismatch(
            f"exact rank limited to dim <= {EXACT_RANK_DIM}, got {model.dim}"
        )
    a, _, c = ssm.evaluate_exact(model, binding)
    return exact.rank(ssm.krylov(exact.transpose(a), c, model.dim))


def det_cm_exact(model: StateSpaceModel, binding: RATIONAL) -> Fraction:
    """Exact determinant of the controllability matrix [B, AB, ..., A^{n-1}B]."""
    a, b, _ = ssm.evaluate_exact(model, binding)
    return exact.det(exact.transpose(ssm.krylov(a, b, model.dim)))


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


# -- PBH test ---------------------------------------------------------------


@dataclass(frozen=True)
class PBHResult:
    lam: complex
    rank: int
    dim: int

    @property
    def deficient(self) -> bool:
        return self.rank < self.dim


def pbh_test_exact(model: StateSpaceModel, binding: RATIONAL, lam: Fraction) -> PBHResult:
    """Exact column rank of [A - lam I; C] stacked."""
    if model.dim > EXACT_RANK_DIM:
        raise DimensionMismatch("exact PBH limited to small models")
    a, _, c = ssm.evaluate_exact(model, binding)
    rows = [[a[i][j] - (lam if i == j else 0) for j in range(model.dim)]
            for i in range(model.dim)]
    rows.append(list(c))
    return PBHResult(complex(lam), exact.rank(rows), model.dim)


# -- even-N observability structure -----------------------------------------


@dataclass
class EvenStructure:
    """Permutation form of the ladder A for even chain length.

    Reordering the basis as (even positions, then odd positions) maps A to
    [[0, T], [-T^t, 0]] with T upper bidiagonal, and C to e_1^t.  Stacking
    the rows e_1^t (-T T^t)^k gives a lower-triangular matrix whose diagonal
    certifies full observability whenever no coupling vanishes.
    """

    t_block: list[list[Fraction]]
    q_diagonal: tuple[Fraction, ...]


def even_structure(model: StateSpaceModel, binding: RATIONAL) -> EvenStructure:
    n_chain = model.config.n_chain
    if n_chain % 2 or model.config.capability != "ladder":
        raise DimensionMismatch("even structure applies to the ladder at even N")
    dim = model.dim
    a, _, c = ssm.evaluate_exact(model, binding)
    evens = [i for i in range(dim) if i % 2 == 1]  # 0-based odd index = even position
    odds = [i for i in range(dim) if i % 2 == 0]
    perm = tuple(evens + odds)
    half = dim // 2
    bar = [[a[perm[i]][perm[j]] for j in range(dim)] for i in range(dim)]
    for i in range(half):
        for j in range(half):
            if bar[i][j] != 0 or bar[half + i][half + j] != 0:
                raise NumericFailure("diagonal blocks of the permuted A are not zero")
    t_block = [[bar[i][half + j] for j in range(half)] for i in range(half)]
    for i in range(half):
        for j in range(half):
            if bar[half + i][j] != -t_block[j][i]:
                raise NumericFailure("permuted A is not [[0, T], [-T^t, 0]]")
    # C maps to e_1 under the permutation (measurement sits at position 2)
    c_bar = [c[perm[j]] for j in range(dim)]
    if c_bar[0] != 1 or any(v != 0 for v in c_bar[1:]):
        raise NumericFailure("permuted C is not e_1")
    tt = exact.matmul(t_block, exact.transpose(t_block))
    minus_tt = [[-v for v in row] for row in tt]
    # -T T^t is symmetric, so the row recursion r -> r (-T T^t) is a Krylov one
    e_1 = [Fraction(1)] + [Fraction(0)] * (half - 1)
    q_stack = ssm.krylov(minus_tt, e_1, half)
    for i, r in enumerate(q_stack):
        if any(r[j] != 0 for j in range(i + 1, half)):
            raise NumericFailure("stacked observability factor is not lower triangular")
    return EvenStructure(
        t_block=t_block,
        q_diagonal=tuple(q_stack[i][i] for i in range(half)),
    )


def even_q_diagonal_closed_form(n_chain: int, binding: RATIONAL) -> tuple[Fraction, ...]:
    """(1, hb*h1, hb*h1*h2*h3, ..., hb*prod_{i<=N-1} h_i).

    Each step down the stack multiplies the diagonal by the next
    superdiagonal entry of -T T^t, which is the (positive) product of the
    two couplings crossed at that depth.
    """
    hb = Fraction(binding["hb"])
    out = [Fraction(1)]
    for k in range(1, n_chain // 2 + 1):
        acc = Fraction(1)
        for i in range(1, 2 * k):
            acc *= Fraction(binding[f"h{i}"])
        out.append(hb * acc)
    return tuple(out)


# -- SPT minimal realization (odd-N ladder) ---------------------------------


@dataclass
class SPTArtifacts:
    """Intermediate objects of the structure-preserving reduction, exact."""

    p_bar: list[list[Fraction]]
    p_vec: list[Fraction]
    a_tilde: list[list[Fraction]]
    det_p_bar: Fraction


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
    a, b, c = ssm.evaluate_exact(model, binding)
    rows = ssm.krylov(exact.transpose(a), c, cfg.n_chain + 1)
    p_bar = [r[: dim - 1] for r in rows]
    p_vec = [r[dim - 1] for r in rows]
    det_p_bar = exact.det(p_bar)
    if det_p_bar == 0:
        raise AtypicalParameters("singular reduced row matrix at this binding")
    w = exact.solve(p_bar, p_vec)  # Pbar^{-1} p
    m = dim - 1
    # A~ = A[:m, :m] + w A[m, :m], and row m of the ladder A has one nonzero
    a_tilde = [row[:m] for row in a[:m]]
    for j, a_mj in enumerate(a[m][:m]):
        if a_mj:
            for row, w_i in zip(a_tilde, w):
                row[j] += w_i * a_mj
    b_min = b[:m]
    c_min = c[:m]
    if b[m] != 0 or c[m] != 0:
        raise NumericFailure("last entries of B or C are unexpectedly nonzero")
    art = SPTArtifacts(
        p_bar=p_bar, p_vec=p_vec, a_tilde=a_tilde, det_p_bar=det_p_bar)
    minimal = MinimalRealization(
        a_min=a_tilde,
        b_min=b_min,
        c_min=c_min,
        diagnostics={"order": m, "unobservable_dim": 1, "method": "spt"},
    )
    return minimal, art


def p_vec_closed_form(n_chain: int, binding: RATIONAL) -> list[Fraction]:
    """(0, ..., 0, hb * prod_{i=1}^{N-1} h_i)."""
    tail = Fraction(binding["hb"])
    for i in range(1, n_chain):
        tail *= Fraction(binding[f"h{i}"])
    return [Fraction(0)] * n_chain + [tail]


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


def k_const_closed_form(n_chain: int, binding: RATIONAL) -> Fraction:
    """K = hb^{N-1} prod_{i=1}^{N-2} h_i^{N-1-i} (1 for N = 1)."""
    if n_chain == 1:
        return Fraction(1)
    value = Fraction(binding["hb"]) ** (n_chain - 1)
    for i in range(1, n_chain - 1):
        value *= Fraction(binding[f"h{i}"]) ** (n_chain - 1 - i)
    return value


def p_bar_inverse_last_column_closed_form(
    n_chain: int, binding: RATIONAL
) -> list[Fraction]:
    """Last column of Pbar^{-1}: row 1 carries -K/det, even rows vanish,
    odd rows k >= 3 scale K by ha/hb times a ratio of alternating couplings."""
    det = det_p_bar_closed_form(n_chain, binding)
    k_const = k_const_closed_form(n_chain, binding)
    out = []
    for k in range(1, n_chain + 2):
        if k == 1:
            out.append(-k_const / det)
        elif k % 2 == 0:
            out.append(Fraction(0))
        else:
            value = -k_const * Fraction(binding["ha"]) / Fraction(binding["hb"])
            for i in range(1, (k - 3) // 2 + 1):
                value *= Fraction(binding[f"h{2 * i - 1}"])
                value /= Fraction(binding[f"h{2 * i}"])
            out.append(value / det)
    return out


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
    a2 = ho.T
    b2 = vo.T @ b1
    c2 = c1 @ vo
    probe = min(2 * a.shape[0], 64)
    full = ssm.markov(a, b, c, probe)
    red = ssm.markov(a2, b2, c2, probe)
    scale = max(1.0, float(np.max(np.abs(full))))
    residual = float(np.max(np.abs(full - red))) / scale
    return MinimalRealization(
        a_min=a2,
        b_min=b2,
        c_min=c2,
        diagnostics={
            "order": ro,
            "controllable_rank": rc,
            "observable_rank": ro,
            "markov_residual": residual,
            "method": "kalman",
        },
    )
