"""Exact symbolic layer: polynomials, Groebner bases, transfer functions."""

from .groebner import (
    GroebnerBasis,
    SolveResult,
    buchberger,
    reduce_poly,
    s_poly,
    solve_identifiability,
    verify_groebner,
)
from .poly import (
    MPoly,
    PolyRing,
    RatFunc,
    RatFuncField,
    parse,
    render,
    square_substitute,
)
from .transfer import (
    RationalTransfer,
    cube_equations,
    markov_from_transfer,
    minimal_denominator_exact,
    model_ring,
    symbolic_markov,
    symbolic_transfer,
)

__all__ = [
    "GroebnerBasis",
    "MPoly",
    "PolyRing",
    "RatFunc",
    "RatFuncField",
    "RationalTransfer",
    "SolveResult",
    "buchberger",
    "cube_equations",
    "markov_from_transfer",
    "minimal_denominator_exact",
    "model_ring",
    "parse",
    "reduce_poly",
    "render",
    "s_poly",
    "solve_identifiability",
    "square_substitute",
    "symbolic_markov",
    "symbolic_transfer",
    "verify_groebner",
]
