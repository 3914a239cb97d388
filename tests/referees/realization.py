"""Exact referees of ``chainsense.realization``: the observability rank
and PBH test behind acceptance 04, the even-N structure of the ladder and
the SPT closed forms of acceptance 05, which the tests compare the
package's float ranks and exact reduction against."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from chainsense import ssm
from chainsense.errors import DimensionMismatch, NumericFailure
from chainsense.realization import RATIONAL, det_p_bar_closed_form
from chainsense.ssm import StateSpaceModel

from . import exact


def exact_observability_rank(model: StateSpaceModel, binding: RATIONAL) -> int:
    a, _, c = ssm.evaluate_exact(model, binding)
    return exact.rank(ssm.krylov(exact.transpose(a), c, model.dim))


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


# -- SPT closed forms (odd-N ladder) ---------------------------------------


def p_vec_closed_form(n_chain: int, binding: RATIONAL) -> list[Fraction]:
    """(0, ..., 0, hb * prod_{i=1}^{N-1} h_i)."""
    tail = Fraction(binding["hb"])
    for i in range(1, n_chain):
        tail *= Fraction(binding[f"h{i}"])
    return [Fraction(0)] * n_chain + [tail]


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
