"""Sparse multivariate polynomials with exact coefficients.

Coefficients are either plain Fractions (domain "QQ") or elements of a
rational-function field over a second variable set (RatFuncField).  The
latter deliberately skips multivariate gcd: fractions are compared by
cross-multiplication and only scalar content is normalised, which is
plenty for the small elimination problems this package solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DimensionMismatch, InadmissibleConfig

Exponents = tuple[int, ...]


def grevlex_key(e: Exponents):
    return (sum(e), tuple(-x for x in reversed(e)))


def lex_key(e: Exponents):
    return e


_ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}


@dataclass(frozen=True)
class PolyRing:
    """Variable universe plus monomial order plus coefficient domain."""

    variables: tuple[str, ...]
    order: str = "grevlex"
    domain: object = "QQ"

    def __post_init__(self):
        if self.order not in _ORDER_KEYS:
            raise InadmissibleConfig(f"unknown monomial order {self.order!r}")
        if len(set(self.variables)) != len(self.variables):
            raise InadmissibleConfig("duplicate variable names")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, e: Exponents):
        return _ORDER_KEYS[self.order](e)

    def zero_coeff(self):
        return Fraction(0) if self.domain == "QQ" else self.domain.zero()

    def one_coeff(self):
        return Fraction(1) if self.domain == "QQ" else self.domain.one()

    def coerce_coeff(self, value):
        if self.domain == "QQ":
            return Fraction(value)
        return self.domain.coerce(value)

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise InadmissibleConfig(f"{name!r} is not a ring variable") from None


class MPoly:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient.

    A number added to it or multiplied with it, on either side, stands for
    the constant polynomial, so the exact kernels of ``exact`` and ``ssm``
    (whose sums start at ``Fraction(0)``) take polynomial entries too.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponents, object]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: PolyRing) -> "MPoly":
        return MPoly(ring, {})

    @staticmethod
    def const(ring: PolyRing, value) -> "MPoly":
        c = ring.coerce_coeff(value)
        if not c:
            return MPoly.zero(ring)
        return MPoly(ring, {(0,) * ring.nvars: c})

    @staticmethod
    def var(ring: PolyRing, name: str, power: int = 1) -> "MPoly":
        e = [0] * ring.nvars
        e[ring.var_index(name)] = power
        return MPoly(ring, {tuple(e): ring.one_coeff()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.ring.var_index(name)
        return max((e[idx] for e in self.terms), default=0)

    def leading(self) -> tuple[Exponents, object]:
        if not self.terms:
            raise DimensionMismatch("zero polynomial has no leading term")
        e = max(self.terms, key=self.ring.key)
        return e, self.terms[e]

    def coeff_of(self, e: Exponents):
        return self.terms.get(e, self.ring.zero_coeff())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self.ring.key(t[0]),
                      reverse=True)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def const_value(self):
        if not self.terms:
            return self.ring.zero_coeff()
        if not self.is_constant():
            raise DimensionMismatch("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise DimensionMismatch("polynomials live in different rings")

    def __add__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            other = MPoly.const(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return MPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        out: dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return MPoly(self.ring, out)

    __rmul__ = __mul__

    def scale(self, value) -> "MPoly":
        c0 = self.ring.coerce_coeff(value)
        if not c0:
            return MPoly.zero(self.ring)
        return MPoly(self.ring, {e: c * c0 for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise DimensionMismatch("negative power")
        result = MPoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ring == other.ring and (self - other).is_zero()

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(),
                                             key=lambda t: t[0]))))

    def __repr__(self):
        return f"MPoly({render(self)!r})"

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: dict[str, Fraction]):
        """Exact evaluation; the point must bind every variable appearing."""
        idx_val = {}
        for name, value in point.items():
            idx_val[self.ring.var_index(name)] = Fraction(value)
        total = self.ring.zero_coeff()
        for e, c in self.terms.items():
            factor = Fraction(1)
            for i, p in enumerate(e):
                if p:
                    factor *= idx_val[i] ** p
            total = total + c * factor
        return total


# -- rational function coefficients -----------------------------------------


class RatFunc:
    """num/den of MPolys over a QQ base ring; no gcd cancellation.

    Normalised only by scalar content: the denominator's leading
    coefficient is made 1.  Equality is cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise DimensionMismatch("zero denominator")
        if num.is_zero():
            den = MPoly.const(num.ring, 1)
        else:
            if len(num) == 1 and len(den) == 1:
                # monomial/monomial: cancel shared exponents outright
                (en, cn), = num.terms.items()
                (ed, cd), = den.terms.items()
                shared = tuple(min(a, b) for a, b in zip(en, ed))
                num = MPoly(num.ring,
                            {tuple(a - s for a, s in zip(en, shared)): cn / cd})
                den = MPoly(den.ring,
                            {tuple(a - s for a, s in zip(ed, shared)): Fraction(1)})
            elif num == den:
                num = MPoly.const(num.ring, 1)
                den = MPoly.const(den.ring, 1)
            _, lead = den.leading()
            if lead != 1:
                num = num.scale(Fraction(1) / lead)
                den = den.scale(Fraction(1) / lead)
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (no canonical form)")

    def __repr__(self):
        if self.den.is_constant() and self.den.const_value() == 1:
            return f"({render(self.num)})"
        return f"({render(self.num)})/({render(self.den)})"

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(point) / den


class RatFuncField:
    """Field of fractions over a base polynomial ring with QQ coefficients."""

    def __init__(self, base_ring: PolyRing):
        if base_ring.domain != "QQ":
            raise InadmissibleConfig("rational functions need a QQ base ring")
        self.base_ring = base_ring

    def zero(self) -> RatFunc:
        return RatFunc(MPoly.zero(self.base_ring), MPoly.const(self.base_ring, 1))

    def one(self) -> RatFunc:
        return RatFunc(MPoly.const(self.base_ring, 1),
                       MPoly.const(self.base_ring, 1))

    def coerce(self, value) -> RatFunc:
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MPoly):
            return RatFunc(value, MPoly.const(self.base_ring, 1))
        return RatFunc(MPoly.const(self.base_ring, value),
                       MPoly.const(self.base_ring, 1))

    def var(self, name: str) -> RatFunc:
        return self.coerce(MPoly.var(self.base_ring, name))

    def __eq__(self, other):
        return isinstance(other, RatFuncField) and self.base_ring == other.base_ring

    def __hash__(self):
        return hash(("RatFuncField", self.base_ring))


# -- text form ---------------------------------------------------------------


def _render_monomial(ring: PolyRing, e: Exponents) -> str:
    parts = []
    for name, p in zip(ring.variables, e):
        if p == 1:
            parts.append(name)
        elif p > 1:
            parts.append(f"{name}^{p}")
    return "*".join(parts)


def render(p: MPoly) -> str:
    """Canonical ASCII form, e.g. ``10*t1^3 + 7*t1*t2 - v2``."""
    if p.is_zero():
        return "0"
    chunks = []
    for i, (e, c) in enumerate(p.sorted_terms()):
        mono = _render_monomial(p.ring, e)
        if isinstance(c, RatFunc):
            body = f"{c!r}" + (f"*{mono}" if mono else "")
            chunks.append(("+ " if i else "") + body)
            continue
        negative = c < 0
        mag = -c if negative else c
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = f"{mag}"
        if i == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(("- " if negative else "+ ") + body)
    return " ".join(chunks)


# -- structured substitution -------------------------------------------------


def square_substitute(
    p: MPoly,
    target_ring: PolyRing,
    linear: dict[str, str],
    squared: dict[str, str],
) -> MPoly:
    """Map variables to new symbols, halving exponents of the squared ones.

    Errors out unless the polynomial is even in every squared variable, so
    that e.g. a coupling appearing only through its square can be renamed
    to a single magnitude symbol.
    """
    out: dict[Exponents, object] = {}
    for e, c in p.terms.items():
        new_e = [0] * target_ring.nvars
        for name, p_exp in zip(p.ring.variables, e):
            if p_exp == 0:
                continue
            if name in linear:
                new_e[target_ring.var_index(linear[name])] += p_exp
            elif name in squared:
                if p_exp % 2:
                    raise InadmissibleConfig(
                        f"polynomial is odd in {name!r}; cannot substitute "
                        "its square"
                    )
                new_e[target_ring.var_index(squared[name])] += p_exp // 2
            else:
                raise InadmissibleConfig(f"no substitution given for {name!r}")
        key = tuple(new_e)
        prev = out.get(key)
        coerced = target_ring.coerce_coeff(c)
        out[key] = coerced if prev is None else prev + coerced
    return MPoly(target_ring, out)
