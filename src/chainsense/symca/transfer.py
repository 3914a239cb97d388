"""Symbolic Markov parameters of the chain models.

Everything here is exact: coefficients live in QQ (or QQ(v) downstream),
and the Markov parameters are ``ssm.markov`` over A with one variable per
coupling.  The Faddeev-LeVerrier transfer function that referees them is
test code (``tests/referees/transfer.py``).
"""

from __future__ import annotations

from fractions import Fraction

from .. import exact, ssm
from ..errors import DimensionMismatch
from ..ssm import StateSpaceModel
from .poly import MPoly, PolyRing


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
