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

    def reduce(self, f: MPoly) -> MPoly:
        return reduce_poly(f, self.generators)


def buchberger(gens: list[MPoly], pair_budget: int = PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
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
        if processed > pair_budget:
            raise BudgetExceeded(
                f"Buchberger pair budget {pair_budget} exceeded"
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


# -- univariate helpers for the solver --------------------------------------


def _univariate_profile(p: MPoly) -> int | None:
    """Index of the single variable p depends on, or None."""
    seen = None
    for e in p.terms:
        for idx, power in enumerate(e):
            if power:
                if seen is None:
                    seen = idx
                elif seen != idx:
                    return None
    return seen


def _to_coeff_list(p: MPoly, var_idx: int) -> list[Fraction]:
    """Dense ascending coefficient list of a univariate polynomial."""
    deg = max(e[var_idx] for e in p.terms)
    out = [Fraction(0)] * (deg + 1)
    for e, c in p.terms.items():
        out[e[var_idx]] += c
    return out


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _poly_div(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return q, num


def count_real_roots(coeffs: list[Fraction]) -> int:
    """Distinct real roots of a univariate rational polynomial (Sturm)."""
    coeffs = coeffs[:]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return 0
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    chain = [coeffs, deriv]
    while len(chain[-1]) > 1:
        _, r = _poly_div(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def signs_at_inf(sign: int) -> int:
        changes = 0
        prev = 0
        for p in chain:
            lead = p[-1]
            s = (1 if lead > 0 else -1) * (sign ** ((len(p) - 1) % 2))
            if prev and s and s != prev:
                changes += 1
            if s:
                prev = s
        return changes

    return signs_at_inf(-1) - signs_at_inf(1)


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots (with multiplicity collapsed)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // _gcd_int(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
        # x = 0 was a root of the original if constant term vanished
    roots = set()
    if len(ints) != len(coeffs):
        roots.add(Fraction(0))
    if not ints:
        return sorted(roots)
    p0, pn = abs(ints[0]), abs(ints[-1])
    for p in _divisors(p0):
        for q in _divisors(pn):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(coeffs, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a) if a else 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [0]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


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
    """Decide the solution set of a polynomial system over the reals.

    Returns every real solution when the lex basis is triangular with
    rational roots; square_vars are magnitudes-squared, so negative values
    for them are discarded before the verdict is taken.
    """
    if not equations:
        raise DimensionMismatch("no equations")
    ring0 = equations[0].ring
    if ring0.order != "lex":
        lex_ring = PolyRing(ring0.variables, "lex", ring0.domain)
        equations = [MPoly(lex_ring, p.terms) for p in equations]
    gb = buchberger(equations)
    ring = gb.ring
    gens = gb.generators
    if any(g.is_constant() and g for g in gens):
        return SolveResult("empty", [], 0, gens, "ideal contains a unit")
    # zero-dimensionality: every variable needs a pure-power leading monomial
    missing = []
    for idx, name in enumerate(ring.variables):
        if not any(
            g.leading()[0][idx] > 0
            and all(p == 0 for i, p in enumerate(g.leading()[0]) if i != idx)
            for g in gens
        ):
            missing.append(name)
    if missing:
        return SolveResult(
            "infinite", [], None, gens,
            f"no pure power of {', '.join(missing)} in the leading ideal",
        )
    # back-substitution from the lowest-priority variable upward
    solutions: list[dict[str, Fraction]] = [{}]
    complete = True
    for idx in reversed(range(ring.nvars)):
        name = ring.variables[idx]
        new_solutions = []
        for partial in solutions:
            cands = _solve_for(gens, ring, idx, partial)
            if cands is None:
                complete = False
                continue
            for value in cands:
                ext = dict(partial)
                ext[name] = value
                new_solutions.append(ext)
        solutions = new_solutions
        if not solutions and complete:
            return SolveResult("empty", [], 0, gens, f"no real value for {name}")
        if not complete:
            break
    if not complete:
        # count via Sturm on the last eliminated variable where possible
        uni = _pure_univariate(gens, ring)
        count = count_real_roots(uni) if uni else None
        return SolveResult("finite", [], count, gens,
                           "irrational roots; solutions not enumerated")
    # verify and filter square vars
    kept = []
    for sol in solutions:
        if any(sol[name] < 0 for name in square_vars if name in sol):
            continue
        if all(g.evaluate(sol) == 0 for g in gens):
            kept.append(sol)
    if not kept:
        return SolveResult("empty", [], 0, gens,
                           "no real solution with admissible squares")
    verdict = "unique" if len(kept) == 1 else "finite"
    return SolveResult(verdict, kept, len(kept), gens)


def _pure_univariate(gens, ring) -> list[Fraction] | None:
    for g in gens:
        idx = _univariate_profile(g)
        if idx is not None:
            return _to_coeff_list(g, idx)
    return None


def _solve_for(gens, ring, idx, partial) -> list[Fraction] | None:
    """Real rational candidates for variable idx given later variables."""
    name = ring.variables[idx]
    best = None
    for g in gens:
        dg = g.degree_in(name)
        if dg == 0:
            continue
        if any(
            e[i] > 0
            for e in g.terms
            for i in range(idx)
        ):
            continue  # depends on not-yet-solved variables
        spec = _specialise(g, partial)
        if spec is None or not spec:
            continue
        prof = _univariate_profile(spec)
        if prof is None:
            continue
        coeffs = _to_coeff_list(spec, prof)
        if best is None or len(coeffs) < len(best):
            best = coeffs
    if best is None:
        return []
    if len(best) == 2:  # linear
        return [-best[0] / best[1]]
    roots = rational_roots(best)
    if count_real_roots(best) != len(roots):
        return None  # some real roots are irrational
    return roots


def _specialise(g: MPoly, partial: dict[str, Fraction]) -> MPoly | None:
    ring = g.ring
    out: dict[Exponents, Fraction] = {}
    for e, c in g.terms.items():
        coeff = c
        new_e = list(e)
        for name, value in partial.items():
            i = ring.var_index(name)
            if new_e[i]:
                coeff = coeff * value ** new_e[i]
                new_e[i] = 0
        key = tuple(new_e)
        out[key] = out.get(key, Fraction(0)) + coeff
    return MPoly(ring, out)
