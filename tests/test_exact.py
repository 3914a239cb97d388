"""Exact linear algebra against numpy, elimination-free referees and the
Fraction elimination it replaced, which the other referees run on."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsense import exact
from chainsense.errors import AtypicalParameters
from referees import exact as referee


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _copy(m):
    return [row[:] for row in m]


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
        m = referee.matmul(a, b)  # rank <= 3 by construction
        r = referee.rank(m)
        nr = np.linalg.matrix_rank(np.array(exact.to_floats(m)))
        assert r == nr <= 3


def test_inverse_and_solve():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = _rand_mat(rng, 4, 4)
        if exact.det(m) == 0:
            continue
        inv = referee.inverse(m)
        assert referee.matmul(m, inv) == _identity(4)
        b = [Fraction(int(rng.integers(-4, 5))) for _ in range(4)]
        x = exact.solve(m, b)
        assert exact.matvec(m, x) == b


def test_singular_inverse_raises():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(AtypicalParameters):
        referee.inverse(m)


def test_nullspace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = _rand_mat(rng, 5, 2)
        b = _rand_mat(rng, 2, 6)
        m = referee.matmul(a, b)
        ns = referee.nullspace(m)
        assert len(ns) == 6 - referee.rank(m)
        for v in ns:
            assert all(x == 0 for x in exact.matvec(m, v))


def test_solve_general_consistent_and_not():
    from referees.exact import matvec, solve_general

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
        assert (d != 0) == (referee.rank(m) == n)
        b = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
             for _ in range(n)]
        if d == 0:
            with pytest.raises(AtypicalParameters):
                exact.solve(m, b)
            continue
        nonsingular += 1
        assert exact.solve(m, b) == exact.matvec(referee.inverse(m), b)
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
        assert referee.rank(m) < n
        with pytest.raises(AtypicalParameters):
            exact.solve(m, [Fraction(1)] * n)


def test_det_and_solve_leave_their_inputs_alone():
    rng = np.random.default_rng(5)
    m = _rand_rational(rng, 6, 6)
    b = [Fraction(k, 3) for k in range(6)]
    before = _copy(m), b[:]
    exact.det(m)
    exact.solve(m, b)
    assert (m, b) == before


# -- elimination on rectangular and rank-deficient matrices ---------------------


def _deficient(rng, rows, cols, pattern):
    """A rows x cols rational matrix of rank at most min(rows, cols) - 1
    whose echelon form skips a column: the first ("lead"), one in the
    middle ("middle", a combination of the columns before it), or none in
    particular ("low rank", a product through a thinner inner dimension)."""
    inner = max(1, min(rows, cols) - 1)
    m = referee.matmul(_rand_rational(rng, rows, inner),
                       _rand_rational(rng, inner, cols))
    if pattern == "lead":
        for row in m:
            row[0] = Fraction(0)
    elif pattern == "middle":
        mid = cols // 2
        f, g = Fraction(int(rng.integers(1, 5)), 3), Fraction(-2, 7)
        for row in m:
            row[mid] = f * row[0] + g * row[mid - 1]
    return m


DEFICIENT = ("lead", "middle", "low rank")
SHAPES = ((3, 3), (3, 5), (5, 3), (4, 7), (7, 4), (6, 6))


@pytest.mark.parametrize("pattern", DEFICIENT)
def test_elimination_skips_pivotless_columns(pattern):
    rng = np.random.default_rng([8, DEFICIENT.index(pattern)])
    for rows, cols in SHAPES * 2:
        m = _deficient(rng, rows, cols, pattern)
        r = referee.rank(m)
        assert r == np.linalg.matrix_rank(np.array(exact.to_floats(m)))
        assert r < min(rows, cols) or pattern == "low rank" and r < rows
        basis = referee.nullspace(m)
        assert len(basis) == cols - r
        for v in basis:
            assert exact.matvec(m, v) == [Fraction(0)] * rows
        x0 = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
              for _ in range(cols)]
        b = exact.matvec(m, x0)
        particular, general = referee.solve_general(m, b)
        assert exact.matvec(m, particular) == b
        assert general == basis
        if pattern == "lead":
            # the first unknown is free, so the particular solution leaves it 0
            assert particular[0] == 0 and basis[0][0] == 1


@pytest.mark.parametrize("pattern", DEFICIENT)
def test_solve_general_refuses_inconsistent_rectangular_systems(pattern):
    rng = np.random.default_rng([9, DEFICIENT.index(pattern)])
    for rows, cols in SHAPES:
        m = _deficient(rng, rows, cols, pattern)
        b = exact.matvec(m, [Fraction(k + 1, 2) for k in range(cols)])
        # a repeated row with another right-hand side cannot hold
        assert referee.solve_general(m + [m[0][:]], b + [b[0] + 1]) is None
        assert referee.solve_general(m + [m[0][:]], b + [b[0]]) is not None


# -- integer entries and the Fraction referee ------------------------------------


def test_integer_matrices_stay_exact():
    d = exact.det([[1, 2], [3, 4]])
    assert d == -2 and type(d) is Fraction
    # the two rows differ by (1, 0): a float ratio would make them equal
    m = [[10**20 + 1, 1], [10**20, 1]]
    assert exact.det(m) == 1
    assert exact.solve(m, [1, 0]) == [1, -10**20]


def _check_against_referee(m, b):
    """det and solve return the referee's values, as Fractions, and leave
    their inputs alone."""
    before = _copy(m), b[:]
    rows, cols = len(m), len(m[0])
    results = []
    if rows == cols:
        d = exact.det(m)
        assert d == referee.det(m) and type(d) is Fraction
        solved = referee.solve_columns(m, [b])
        if solved is None:
            with pytest.raises(AtypicalParameters):
                exact.solve(m, b)
        else:
            x = exact.solve(m, b)
            assert x == solved[0]
            results += [[x]]
    assert all(type(v) is Fraction for r in results for row in r for v in row)
    assert (m, b) == before


ENTRY = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 97)),
)


@st.composite
def mixed_systems(draw):
    """A matrix with int and Fraction entries, square or rectangular, and a
    right-hand side.  Some rows are combinations of earlier ones and some
    columns of earlier columns, so ranks fall short and columns go without
    a pivot."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 7)))
    m = [[draw(ENTRY) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.integers(0, 3)) == 0:
            f, g = draw(ENTRY), draw(ENTRY)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            m[i] = [f * x + g * y for x, y in zip(m[j], m[k])]
    for c in range(1, cols):
        if draw(st.integers(0, 3)) == 0:
            f, j = draw(ENTRY), draw(st.integers(0, c - 1))
            for row in m:
                row[c] = f * row[j]
    b = [draw(ENTRY) for _ in range(rows)]
    return m, b


@settings(max_examples=300, deadline=None)
@given(mixed_systems())
def test_elimination_matches_the_fraction_referee(system):
    _check_against_referee(*system)


def test_dense_elimination_matches_the_fraction_referee():
    # 30 x 30 with denominators up to 97: entries of a dense elimination
    # grow with every step, so the content division is what bounds them
    rng = np.random.default_rng(10)

    def entry():
        num = int(rng.integers(-40, 41))
        return num if rng.random() < 0.3 else Fraction(num, int(rng.integers(1, 98)))

    m = [[entry() for _ in range(30)] for _ in range(30)]
    b = [entry() for _ in range(30)]
    assert exact.det(m) != 0
    _check_against_referee(m, b)
    m[29] = [x - 2 * y for x, y in zip(m[3], m[17])]
    assert exact.det(m) == 0
    _check_against_referee(m, b)
