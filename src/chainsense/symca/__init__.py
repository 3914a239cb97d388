"""Exact symbolic layer: polynomials, Groebner bases, symbolic Markov
parameters."""

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
    render,
    square_substitute,
)
from .transfer import (
    model_ring,
    symbolic_markov,
)

__all__ = [
    "GroebnerBasis",
    "MPoly",
    "PolyRing",
    "RatFunc",
    "RatFuncField",
    "SolveResult",
    "buchberger",
    "model_ring",
    "reduce_poly",
    "render",
    "s_poly",
    "solve_identifiability",
    "square_substitute",
    "symbolic_markov",
    "verify_groebner",
]
