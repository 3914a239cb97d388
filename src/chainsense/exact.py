"""Exact linear algebra over rational matrices, computed on integers.

Used for the zero-tolerance structural checks (determinants, ranks,
nullspaces, the SPT closed forms).  Matrices are lists of lists whose
entries are ints or Fractions; every result is a Fraction.  ``det``,
``solve`` and ``matvec`` are on the ``analyze`` path: the ladder's
controllability determinant is an elimination at dimension N + 2, and at
odd N the SPT reduction takes the determinant of, and solves with, the
Krylov rows c A^k, which form a lower Hessenberg matrix with a
checkerboard of zeros.

Every routine here runs on one forward elimination that operates only on
rows with a nonzero below the pivot (Golub and Van Loan, *Matrix
Computations*, section 4.3).  The elimination is fraction-free (Bareiss, *Math. Comp.*
22, 1968): each row is cleared of its denominators on entry and the row
operations stay on integers, with each updated row divided by its
content, so entries stay bounded by the minors of the matrix.  A
Fraction normalises by a gcd after every single operation; here ``det``
divides by the accumulated row multiplier once, and back substitution
divides once per pivot.  ``rank`` counts the pivots; ``solve``,
``inverse``, ``nullspace`` and ``solve_general`` finish with one back
substitution on the echelon rows.

``matmul`` and ``matvec`` also take ``symca`` polynomial entries: the
symbolic Markov parameters and the Faddeev-LeVerrier referee form their
products with them.
"""

from __future__ import annotations

import math
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


def _eliminate(m, cols: int):
    """Row echelon form of the leading cols columns of m, over the integers.

    m is not modified.  Each row is first multiplied by the lcm of its
    denominators, so int and Fraction entries are both accepted; rows may
    run past column cols (augmented right-hand sides), and the same row
    operations reach those columns.  In each column the pivot is the first
    nonzero entry at or below the next pivot row, and a column with none
    is skipped.  A row with a nonzero f below the pivot p becomes
    (p/g) row - (f/g) pivot row, g = gcd(p, f): its remaining entries are
    scaled by p/g, the pivot row's nonzero columns are subtracted, and the
    row is divided by the gcd of its remaining entries, which keeps every
    entry a divisor of the Bareiss minor at its place.  Other rows get no
    operation, so a tridiagonal or upper Hessenberg matrix, with one row
    below each pivot to update, costs O(n^2) instead of O(n^3).  Entries
    below a pivot are left as they were and are never read.

    Returns the integer echelon rows, the pivot columns (pivot i in row
    i), the sign of the row permutation and the accumulated row
    multiplier: the determinant of the echelon rows is the multiplier
    times that of m.
    """
    a, scale, content = [], 1, 1
    for row in m:
        lcm = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
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
            f = row[col]
            if f:
                g = math.gcd(p, f)
                pg, fg = p // g, f // g
                if pg != 1:
                    row[col + 1:] = [pg * v for v in row[col + 1:]]
                    scale *= pg
                for c, v in nonzero:
                    row[c] -= fg * v
                k = math.gcd(*row[col + 1:])
                if k > 1:
                    row[col + 1:] = [v // k for v in row[col + 1:]]
                    content *= k
        pivots.append(col)
    return a, pivots, sign, Fraction(scale, content)


def _back_substitute(a, pivots: list[int], rhs, x: list[int]) -> list[Fraction]:
    """Fill the pivot entries of x so that echelon row i times x is rhs[i];
    the other entries of x are the free unknowns, taken as given.

    The rows, rhs and the free unknowns are integers.  x is carried as
    integer numerators over one common denominator, so each pivot costs
    one gcd and one exact division, and the Fractions are formed at the
    end.
    """
    x, den = list(x), 1
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        row = a[i]
        acc = rhs[i] * den
        for j in range(c + 1, len(x)):
            if row[j] and x[j]:
                acc -= row[j] * x[j]
        g = math.gcd(acc, row[c])
        step = row[c] // g
        if step != 1:
            x = [v * step for v in x]
            den *= step
        x[c] = acc // g
    return [Fraction(v, den) for v in x]


def det(m: Mat) -> Fraction:
    """Exact determinant by fraction-free elimination with pivoting."""
    a, pivots, sign, multiplier = _eliminate(m, len(m))
    if len(pivots) < len(a):
        return Fraction(0)
    result = sign
    for i, row in enumerate(a):
        result *= row[i]
    return result / multiplier


def rank(m: Mat) -> int:
    return len(_eliminate(m, len(m[0]) if m else 0)[1])


def inverse(m: Mat) -> Mat:
    n = len(m)
    a, pivots, _, _ = _eliminate(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise AtypicalParameters("matrix is singular at this binding")
    columns = [_back_substitute(a, pivots, [row[n + k] for row in a], [0] * n)
               for k in range(n)]
    return transpose(columns)


def solve(m: Mat, b: list[Fraction]) -> list[Fraction]:
    """Unique solution of m x = b (square nonsingular m): forward
    elimination of [m | b], then back substitution."""
    n = len(m)
    a, pivots, _, _ = _eliminate([row + [bv] for row, bv in zip(m, b)], n)
    if len(pivots) < n:
        raise AtypicalParameters("matrix is singular at this binding")
    return _back_substitute(a, pivots, [row[n] for row in a], [0] * n)


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace: vector f sets free unknown f to 1 and
    the other free unknowns to 0."""
    cols = len(m[0])
    a, pivots, _, _ = _eliminate(m, cols)
    zero = [0] * len(pivots)
    return [_back_substitute(a, pivots, zero, [int(c == f) for c in range(cols)])
            for f in range(cols) if f not in pivots]


def solve_general(
    m: Mat, b: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Particular solution (every free unknown 0) and nullspace basis of
    m x = b, or None if the system is inconsistent.  m may be rectangular
    or rank deficient."""
    cols = len(m[0]) if m else 0
    a, pivots, _, _ = _eliminate([row + [bv] for row, bv in zip(m, b)], cols + 1)
    if cols in pivots:
        return None
    particular = _back_substitute(a, pivots, [row[cols] for row in a], [0] * cols)
    return particular, nullspace(m)


def to_floats(m: Mat):
    return [[float(x) if x else 0.0 for x in row] for row in m]
