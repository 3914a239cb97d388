"""Exact linear algebra over Fraction matrices.

Used for the zero-tolerance structural checks (determinants, ranks,
nullspaces, the SPT closed forms).  Matrices are lists of lists of
Fraction.  ``det``, ``solve`` and ``matvec`` are on the ``analyze`` path:
the ladder's controllability determinant is an elimination at dimension
N + 2, and at odd N the SPT reduction takes the determinant of, and
solves with, the Krylov rows c A^k, which form a lower Hessenberg
matrix with a checkerboard of zeros.  Every routine here runs on one
forward elimination that visits only nonzeros (Golub and Van Loan,
*Matrix Computations*, section 4.3): on those rows at N = 65 it does 528
multiplications where a dense sweep does about 96 000.  ``rank`` counts
its pivots; ``solve``, ``inverse``, ``nullspace`` and ``solve_general``
finish with one back substitution on its echelon rows.

``matmul`` and ``matvec`` also take ``symca`` polynomial entries: the
symbolic Markov parameters and the Faddeev-LeVerrier referee form their
products with them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AtypicalParameters

Mat = list[list[Fraction]]


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def matmul(a: Mat, b: Mat) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                row = b[k]
                orow = out[i]
                for j in range(cols):
                    orow[j] += aik * row[j]
    return out


def matvec(a: Mat, v: list[Fraction]) -> list[Fraction]:
    """Dense a @ v: visits every entry and multiplies where both factors
    are nonzero.  ``ssm.krylov`` gathers a matrix's nonzeros once for
    repeated products."""
    return [
        sum((aij * vj for aij, vj in zip(row, v) if aij and vj), Fraction(0))
        for row in a
    ]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def _eliminate(a: Mat, cols: int) -> tuple[list[int], int]:
    """Reduce the leading cols columns of a to row echelon form in place.

    Rows may run past column cols (augmented right-hand sides); the same
    row operations reach those columns.  In each column the pivot is the
    first nonzero entry at or below the next pivot row, and a column with
    none is skipped.  Each elimination subtracts a multiple of the pivot
    row at its nonzero columns only: a tridiagonal or Hessenberg matrix
    costs O(n^2) instead of O(n^3).  Entries below a pivot are left as
    they were and are never read.  Returns the pivot columns, pivot i in
    row i, and the sign of the row permutation.
    """
    pivots: list[int] = []
    sign = 1
    rows = len(a)
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        p = a[r][col]
        nonzero = [(c, v) for c, v in enumerate(a[r][col + 1:], col + 1) if v]
        for i in range(r + 1, rows):
            row = a[i]
            if row[col]:
                factor = row[col] / p
                for c, v in nonzero:
                    row[c] -= factor * v
        pivots.append(col)
    return pivots, sign


def _back_substitute(
    a: Mat, pivots: list[int], rhs: list[Fraction], x: list[Fraction]
) -> list[Fraction]:
    """Fill the pivot entries of x so that echelon row i times x is rhs[i];
    the other entries of x are the free unknowns, taken as given."""
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        row = a[i]
        acc = rhs[i]
        for j in range(c + 1, len(x)):
            if row[j] and x[j]:
                acc -= row[j] * x[j]
        x[c] = acc / row[c]
    return x


def det(m: Mat) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    a = [row[:] for row in m]
    pivots, sign = _eliminate(a, len(a))
    if len(pivots) < len(a):
        return Fraction(0)
    result = Fraction(sign)
    for i, row in enumerate(a):
        result *= row[i]
    return result


def rank(m: Mat) -> int:
    return len(_eliminate([row[:] for row in m], len(m[0]) if m else 0)[0])


def inverse(m: Mat) -> Mat:
    n = len(m)
    a = [row + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    pivots, _ = _eliminate(a, n)
    if len(pivots) < n:
        raise AtypicalParameters("matrix is singular at this binding")
    columns = [_back_substitute(a, pivots, [row[n + k] for row in a],
                                [Fraction(0)] * n) for k in range(n)]
    return transpose(columns)


def solve(m: Mat, b: list[Fraction]) -> list[Fraction]:
    """Unique solution of m x = b (square nonsingular m): forward
    elimination of [m | b], then back substitution."""
    n = len(m)
    a = [row + [bv] for row, bv in zip(m, b)]
    pivots, _ = _eliminate(a, n)
    if len(pivots) < n:
        raise AtypicalParameters("matrix is singular at this binding")
    return _back_substitute(a, pivots, [row[n] for row in a], [Fraction(0)] * n)


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace: vector f sets free unknown f to 1 and
    the other free unknowns to 0."""
    cols = len(m[0])
    a = [row[:] for row in m]
    pivots, _ = _eliminate(a, cols)
    zero = [Fraction(0)] * len(pivots)
    return [_back_substitute(a, pivots, zero,
                             [Fraction(int(c == f)) for c in range(cols)])
            for f in range(cols) if f not in pivots]


def solve_general(
    m: Mat, b: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Particular solution (every free unknown 0) and nullspace basis of
    m x = b, or None if the system is inconsistent.  m may be rectangular
    or rank deficient."""
    cols = len(m[0]) if m else 0
    a = [row + [bv] for row, bv in zip(m, b)]
    pivots, _ = _eliminate(a, cols + 1)
    if cols in pivots:
        return None
    particular = _back_substitute(a, pivots, [row[cols] for row in a],
                                  [Fraction(0)] * cols)
    return particular, nullspace(m)


def to_floats(m: Mat):
    return [[float(x) for x in row] for row in m]
