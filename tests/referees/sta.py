"""Exact referee of ``chainsense.sta``'s float Krylov certificate."""

from __future__ import annotations

import math

import numpy as np

from chainsense import ssm
from chainsense.errors import AtypicalParameters
from chainsense.sta import STAInstance

from . import exact


def solve_similarity_exact(a_h, a_hp, x0, c) -> STAInstance:
    """Exact-rational re-derivation of the verdict.

    S = K' K^{-1} from the exact Krylov matrices K = [x0, A x0, ...] and K'
    is the only candidate; whether it meets S A = A' S and C S = C is an
    identity, not a tolerance, and its nonsingularity an exact determinant.
    """
    n = len(a_h)
    k_h = exact.transpose(ssm.krylov(a_h, x0, n))
    k_hp = exact.transpose(ssm.krylov(a_hp, x0, n))
    try:
        s = exact.matmul(k_hp, exact.inverse(k_h))
    except AtypicalParameters:
        return STAInstance(
            dim=n, residual=float("inf"), affine_dim=n - exact.rank(k_h),
            s_matrix=None, det_s=0.0, verdict="degenerate",
        )
    sa = exact.matmul(s, a_h)
    as_ = exact.matmul(a_hp, s)
    gaps = [u - v for row, row_p in zip(sa, as_) for u, v in zip(row, row_p)]
    gaps += [u - v for u, v in zip(exact.matvec(exact.transpose(s), c), c)]
    d = exact.det(s)
    if any(gaps):
        verdict = "inequivalent"
    else:
        verdict = "equivalent" if d != 0 else "degenerate"
    return STAInstance(
        dim=n, residual=math.sqrt(sum(g * g for g in gaps)), affine_dim=0,
        s_matrix=np.array(exact.to_floats(s)) if verdict == "equivalent" else None,
        det_s=float(d), verdict=verdict,
    )
