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


# -- det and solve against elimination-free referees ---------------------------


def _laplace_det(m):
    """Determinant by cofactor expansion along the rows, memoized over the
    remaining column set: no elimination, no pivoting."""
    n = len(m)
    memo = {}

    def minor(row, cols):
        if row == n:
            return Fraction(1)
        if cols not in memo:
            total = Fraction(0)
            for k, j in enumerate(cols):
                if m[row][j]:
                    rest = cols[:k] + cols[k + 1:]
                    total += (-1) ** k * m[row][j] * minor(row + 1, rest)
            memo[cols] = total
        return memo[cols]

    return minor(0, tuple(range(n)))


def _rand_rational(rng, rows, cols):
    return [[Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
             for _ in range(cols)] for _ in range(rows)]


def _patterned(rng, n, pattern):
    m = _rand_rational(rng, n, n)
    for i in range(n):
        for j in range(n):
            hessenberg = j > i + 1
            checker = (i + j) % 2 == 1
            if (pattern == "hessenberg" and hessenberg
                    or pattern == "checkerboard" and checker
                    or pattern == "krylov" and (hessenberg or checker)):
                m[i][j] = Fraction(0)
    if pattern == "zero-lead":
        # the first column is zero down to its last row, so the first
        # pivot is a row swap that flips the sign
        for i in range(n - 1):
            m[i][0] = Fraction(0)
        m[n - 1][0] = Fraction(int(rng.integers(1, 5)))
    return m


PATTERNS = ("dense", "hessenberg", "checkerboard", "krylov", "zero-lead")


@pytest.mark.parametrize("pattern", PATTERNS)
def test_det_and_solve_match_referees(pattern):
    rng = np.random.default_rng([6, PATTERNS.index(pattern)])
    nonsingular = 0
    for n in [1, 2, 3, 5, 8, 12] * 3:
        m = _patterned(rng, n, pattern)
        d = exact.det(m)
        assert d == _laplace_det(m)
        assert (d != 0) == (exact.rank(m) == n)
        b = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
             for _ in range(n)]
        if d == 0:
            with pytest.raises(AtypicalParameters):
                exact.solve(m, b)
            continue
        nonsingular += 1
        assert exact.solve(m, b) == exact.matvec(exact.inverse(m), b)
    assert nonsingular >= 12


def test_det_sign_follows_row_swaps():
    # an anti-diagonal permutation of n rows: floor(n/2) swaps
    for n in range(1, 9):
        m = [[Fraction(1) if i + j == n - 1 else Fraction(0) for j in range(n)]
             for i in range(n)]
        assert exact.det(m) == (-1) ** (n // 2)
        assert exact.solve(m, [Fraction(k) for k in range(n)]) == [
            Fraction(n - 1 - k) for k in range(n)]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_singular_det_is_zero_and_solve_raises(pattern):
    rng = np.random.default_rng([7, PATTERNS.index(pattern)])
    for n in [2, 3, 6, 12]:
        m = _patterned(rng, n, pattern)
        # the last row becomes a rational combination of the first two
        f, g = Fraction(int(rng.integers(1, 5)), 3), Fraction(-2, 7)
        m[n - 1] = [f * x + g * y for x, y in zip(m[0], m[1 % (n - 1)])]
        assert exact.det(m) == 0 == _laplace_det(m)
        assert exact.rank(m) < n
        with pytest.raises(AtypicalParameters):
            exact.solve(m, [Fraction(1)] * n)


def test_det_and_solve_leave_their_inputs_alone():
    rng = np.random.default_rng(5)
    m = _rand_rational(rng, 6, 6)
    b = [Fraction(k, 3) for k in range(6)]
    before = exact.copy(m), b[:]
    exact.det(m)
    exact.solve(m, b)
    assert (m, b) == before
