"""Fraction linear algebra against numpy on random integer matrices."""

from fractions import Fraction

import numpy as np
import pytest

from chainsense import exact
from chainsense.errors import AtypicalParameters


def _rand_mat(rng, rows, cols, lo=-5, hi=6):
    return [[Fraction(int(rng.integers(lo, hi))) for _ in range(cols)] for _ in range(rows)]


def test_det_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = _rand_mat(rng, 5, 5)
        d = exact.det(m)
        nd = np.linalg.det(np.array(exact.to_floats(m)))
        assert abs(float(d) - nd) < 1e-6 * max(1.0, abs(nd))


def test_rank_matches_numpy():
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = _rand_mat(rng, 4, 3)
        b = _rand_mat(rng, 3, 5)
        m = exact.matmul(a, b)  # rank <= 3 by construction
        r = exact.rank(m)
        nr = np.linalg.matrix_rank(np.array(exact.to_floats(m)))
        assert r == nr <= 3


def test_inverse_and_solve():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = _rand_mat(rng, 4, 4)
        if exact.det(m) == 0:
            continue
        inv = exact.inverse(m)
        assert exact.matmul(m, inv) == exact.identity(4)
        b = [Fraction(int(rng.integers(-4, 5))) for _ in range(4)]
        x = exact.solve(m, b)
        assert exact.matvec(m, x) == b


def test_singular_inverse_raises():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(AtypicalParameters):
        exact.inverse(m)


def test_nullspace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = _rand_mat(rng, 5, 2)
        b = _rand_mat(rng, 2, 6)
        m = exact.matmul(a, b)
        ns = exact.nullspace(m)
        assert len(ns) == 6 - exact.rank(m)
        for v in ns:
            assert all(x == 0 for x in exact.matvec(m, v))


def test_solve_general_consistent_and_not():
    from chainsense.exact import matvec, solve_general

    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)]]
    assert solve_general(m, [Fraction(1), Fraction(3)]) is None
    got = solve_general(m, [Fraction(1), Fraction(2)])
    assert got is not None
    particular, basis = got
    assert matvec(m, particular) == [Fraction(1), Fraction(2)]
    assert len(basis) == 2
    for v in basis:
        assert matvec(m, v) == [Fraction(0), Fraction(0)]
