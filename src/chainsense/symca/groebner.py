"""Buchberger's algorithm and the identifiability decision built on it.

The implementation favours checkability over speed: normal selection
strategy, the coprime-criterion skip, a hard pair budget, and a final
S-polynomial sweep over the returned basis (asserted, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import BudgetExceeded, DimensionMismatch
from .poly import Exponents, MPoly, PolyRing

PAIR_BUDGET = 4000


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_exp(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _coprime(a: Exponents, b: Exponents) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def reduce_poly(f: MPoly, basis: list[MPoly]) -> MPoly:
    """Full normal form of f against the basis (every term reduced)."""
    ring = f.ring
    remainder = MPoly.zero(ring)
    work = f
    leads = [(g.leading(), g) for g in basis if g]
    while work:
        e, c = work.leading()
        hit = None
        for (ge, gc), g in leads:
            if _divides(ge, e):
                hit = (ge, gc, g)
                break
        if hit is None:
            remainder = remainder + MPoly(ring, {e: c})
            work = work - MPoly(ring, {e: c})
        else:
            ge, gc, g = hit
            factor = MPoly(ring, {_sub_exp(e, ge): c / gc})
            work = work - factor * g
    return remainder


def s_poly(f: MPoly, g: MPoly) -> MPoly:
    ring = f.ring
    (fe, fc), (ge, gc) = f.leading(), g.leading()
    lcm = _lcm(fe, ge)
    mf = MPoly(ring, {_sub_exp(lcm, fe): ring.one_coeff() / fc})
    mg = MPoly(ring, {_sub_exp(lcm, ge): ring.one_coeff() / gc})
    return mf * f - mg * g


def _monic(f: MPoly) -> MPoly:
    _, c = f.leading()
    one = f.ring.one_coeff()
    return f * MPoly(f.ring, {(0,) * f.ring.nvars: one / c})


@dataclass
class GroebnerBasis:
    generators: list[MPoly]
    ring: PolyRing
    pair_count: int


def buchberger(gens: list[MPoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``, refused
    with ``BudgetExceeded`` after ``PAIR_BUDGET`` pairs."""
    gens = [g for g in gens if g]
    if not gens:
        raise DimensionMismatch("no nonzero generators")
    ring = gens[0].ring
    basis = [_monic(g) for g in gens]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        # normal selection: smallest lcm in the ring order
        i, j = min(
            pairs,
            key=lambda ij: ring.key(
                _lcm(basis[ij[0]].leading()[0], basis[ij[1]].leading()[0])
            ),
        )
        pairs.discard((i, j))
        processed += 1
        if processed > PAIR_BUDGET:
            raise BudgetExceeded(
                f"Buchberger pair budget {PAIR_BUDGET} exceeded"
            )
        fe = basis[i].leading()[0]
        ge = basis[j].leading()[0]
        if _coprime(fe, ge):
            continue
        r = reduce_poly(s_poly(basis[i], basis[j]), basis)
        if r:
            basis.append(_monic(r))
            k = len(basis) - 1
            pairs.update((m, k) for m in range(k))
    reduced = _interreduce(basis)
    gb = GroebnerBasis(reduced, ring, processed)
    _assert_closed(gb)
    return gb


def _interreduce(basis: list[MPoly]) -> list[MPoly]:
    # drop generators whose leading monomial is divisible by another's
    kept: list[MPoly] = []
    leads = [g.leading()[0] for g in basis]
    for idx, g in enumerate(basis):
        e = leads[idx]
        if any(
            other != idx and _divides(leads[other], e)
            and not (leads[other] == e and other > idx)
            for other in range(len(basis))
        ):
            continue
        kept.append(g)
    # fully reduce each against the rest
    out = []
    for idx, g in enumerate(kept):
        rest = [h for jdx, h in enumerate(kept) if jdx != idx]
        r = reduce_poly(g, rest) if rest else g
        if r:
            out.append(_monic(r))
    out.sort(key=lambda p: p.ring.key(p.leading()[0]), reverse=True)
    return out


def _assert_closed(gb: GroebnerBasis):
    if not verify_groebner(gb.generators):
        raise DimensionMismatch("returned basis fails the Buchberger criterion")


def verify_groebner(gens: list[MPoly]) -> bool:
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not reduce_poly(s_poly(gens[i], gens[j]), gens).is_zero():
                return False
    return True


# -- identifiability decision ------------------------------------------------


@dataclass
class SolveResult:
    verdict: str  # unique | finite | infinite | empty
    solutions: list[dict[str, Fraction]]
    count: int | None
    basis: list[MPoly]
    detail: str = ""


def solve_identifiability(
    equations: list[MPoly], square_vars: tuple[str, ...] = ()
) -> SolveResult:
    """Decide the real solution set of a polynomial system from its basis.

    The systems this package forms are triangular, and each new unknown
    enters linearly, so their reduced basis is a unit, leaves some variable
    free, or is t_i - c_i for every variable: the reduced basis of a single
    point, in any monomial order.  That point is read off the basis; any
    other zero-dimensional system is ``finite`` and its solutions are not
    enumerated.  square_vars are magnitudes-squared, so a negative value
    for one of them leaves no admissible solution.
    """
    if not equations:
        raise DimensionMismatch("no equations")
    gb = buchberger(equations)
    ring = gb.ring
    gens = gb.generators
    if any(g.is_constant() for g in gens):
        return SolveResult("empty", [], 0, gens, "ideal contains a unit")
    leads = [g.leading()[0] for g in gens]
    # zero-dimensionality: every variable needs a pure-power leading monomial
    missing = [
        name for idx, name in enumerate(ring.variables)
        if not any(e[idx] == sum(e) for e in leads)
    ]
    if missing:
        return SolveResult(
            "infinite", [], None, gens,
            f"no pure power of {', '.join(missing)} in the leading ideal",
        )
    if any(sum(e) > 1 for e in leads):
        return SolveResult("finite", [], None, gens,
                           "solutions not enumerated")
    # each generator is the monic t_i - c_i
    constant = (0,) * ring.nvars
    solution = {
        ring.variables[e.index(1)]: -g.coeff_of(constant)
        for e, g in zip(leads, gens)
    }
    if any(eq.evaluate(solution) != 0 for eq in equations):
        raise DimensionMismatch("basis point fails the input equations")
    if any(solution[name] < 0 for name in square_vars if name in solution):
        return SolveResult("empty", [], 0, gens,
                           "no real solution with admissible squares")
    return SolveResult("unique", [solution], 1, gens)
