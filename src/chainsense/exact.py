"""Exact linear algebra over Fraction matrices.

Used for the zero-tolerance structural checks (determinants, ranks,
nullspaces, the SPT closed forms).  Matrices are lists of lists of
Fraction.  ``det``, ``solve`` and ``matvec`` are on the ``analyze`` path:
the ladder's controllability determinant is an elimination at dimension
N + 2, and at odd N the SPT reduction takes the determinant of, and
solves with, the Krylov rows c A^k, which form a lower Hessenberg
matrix with a checkerboard of zeros.  ``det`` and ``solve`` share one
forward elimination that visits only nonzeros (Golub and Van Loan,
*Matrix Computations*, section 4.3): on those rows at N = 65 it does 528
multiplications where a dense sweep does about 96 000.  ``rank``,
``inverse``, ``nullspace`` and ``solve_general`` go through a dense
reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AtypicalParameters

Mat = list[list[Fraction]]


def zeros(rows: int, cols: int) -> Mat:
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def copy(m: Mat) -> Mat:
    return [row[:] for row in m]


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


def _eliminate(a: Mat, n: int) -> int:
    """Reduce the leading n x n block of a to upper triangular form in place.

    Rows may run past column n (an augmented right-hand side); the same row
    operations reach those columns.  The pivot is the first nonzero entry
    at or below the diagonal, and each elimination subtracts a multiple of
    the pivot row at its nonzero columns only: a tridiagonal or Hessenberg
    matrix costs O(n^2) instead of O(n^3).  Entries below the diagonal are
    left as they were and are never read.  Returns the sign of the row
    permutation, or 0 if the block is singular.
    """
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        nonzero = [(c, v) for c, v in enumerate(a[col][col + 1:], col + 1) if v]
        for r in range(col + 1, n):
            row = a[r]
            if row[col]:
                factor = row[col] / p
                for c, v in nonzero:
                    row[c] -= factor * v
    return sign


def det(m: Mat) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    a = copy(m)
    result = Fraction(_eliminate(a, len(a)))
    if result:
        for i, row in enumerate(a):
            result *= row[i]
    return result


def _row_echelon(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        a[r] = [v / p for v in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: Mat) -> int:
    _, pivots = _row_echelon(m)
    return len(pivots)


def inverse(m: Mat) -> Mat:
    n = len(m)
    aug = [row[:] + ident_row for row, ident_row in zip(m, identity(n))]
    red, pivots = _row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise AtypicalParameters("matrix is singular at this binding")
    return [row[n:] for row in red]


def solve(m: Mat, b: list[Fraction]) -> list[Fraction]:
    """Unique solution of m x = b (square nonsingular m): forward
    elimination of [m | b], then back substitution."""
    n = len(m)
    a = [row + [bv] for row, bv in zip(m, b)]
    if not _eliminate(a, n):
        raise AtypicalParameters("matrix is singular at this binding")
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = row[n]
        for j in range(i + 1, n):
            if row[j]:
                acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return x


def nullspace(m: Mat) -> list[list[Fraction]]:
    """Basis of the right nullspace (one vector per free column)."""
    red, pivots = _row_echelon(m)
    cols = len(m[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve_general(
    m: Mat, b: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Particular solution and nullspace basis of m x = b, or None if the
    system is inconsistent.  m may be rectangular or rank deficient."""
    cols = len(m[0]) if m else 0
    aug = [row[:] + [bv] for row, bv in zip(m, b)]
    red, pivots = _row_echelon(aug)
    if cols in pivots:
        return None
    particular = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        particular[c] = red[r][cols]
    return particular, nullspace(m)


def to_floats(m: Mat):
    return [[float(x) for x in row] for row in m]
