"""Text form of polynomials: the inverse of ``chainsense.symca.poly.render``
for QQ rings, so the tests can write polynomials as text."""

from __future__ import annotations

import re
from fractions import Fraction

from chainsense.errors import InadmissibleConfig
from chainsense.symca.poly import MPoly, PolyRing


_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse(text: str, ring: PolyRing) -> MPoly:
    """Inverse of :func:`render` for QQ rings."""
    if ring.domain != "QQ":
        raise InadmissibleConfig("parser supports QQ coefficient rings only")
    s = text.strip()
    if s == "0":
        return MPoly.zero(ring)
    # normalise to explicit leading sign then split into signed terms
    if not s.startswith(("+", "-")):
        s = "+" + s
    tokens = re.findall(r"([+-])\s*([^+-]+(?:\s*)?)", s)
    rebuilt = "".join(sign + part for sign, part in tokens)
    if rebuilt.replace(" ", "") != s.replace(" ", ""):
        raise InadmissibleConfig(f"cannot parse polynomial text {text!r}")
    total = MPoly.zero(ring)
    for sign, part in tokens:
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * ring.nvars
        for factor in part.strip().split("*"):
            factor = factor.strip()
            if not factor:
                raise InadmissibleConfig(f"empty factor in {text!r}")
            m = _FACTOR.match(factor)
            try:
                if re.match(r"^\d+(/\d+)?$", factor):
                    coeff *= Fraction(factor)
                    continue
                power = int(m.group(2) or 1) if m else None
            except (ValueError, ZeroDivisionError):  # 1/0, or too many digits
                power = None
            if power is None:
                raise InadmissibleConfig(f"bad factor {factor!r} in {text!r}")
            exps[ring.var_index(m.group(1))] += power
        term = MPoly(ring, {tuple(exps): ring.coerce_coeff(coeff)})
        total = total + term
    return total
