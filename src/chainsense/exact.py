"""Exact linear algebra over Fraction matrices.

Used for the zero-tolerance structural checks (determinants, ranks,
nullspaces, the SPT closed forms).  Matrices are lists of lists of
Fraction; nothing here is performance-critical (dims stay below ~30).
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
    """a @ v, multiplying only where both factors are nonzero (the ladder A
    is tridiagonal)."""
    return [
        sum((aij * vj for aij, vj in zip(row, v) if aij and vj), Fraction(0))
        for row in a
    ]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def det(m: Mat) -> Fraction:
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    n = len(m)
    a = copy(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] / p
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return sign * result


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
    """Unique solution of m x = b (square nonsingular m)."""
    n = len(m)
    red, pivots = _row_echelon([row + [bv] for row, bv in zip(m, b)])
    if pivots[:n] != list(range(n)):
        raise AtypicalParameters("matrix is singular at this binding")
    return [row[n] for row in red]


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


def from_floats(m, denominator_limit: int = 10**12) -> Mat:
    """Nearest-rational lift of a float matrix (for exact re-checks)."""
    return [
        [Fraction(x).limit_denominator(denominator_limit) for x in row] for row in m
    ]


def to_floats(m: Mat):
    return [[float(x) for x in row] for row in m]
