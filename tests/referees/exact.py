"""Exact linear algebra over Fractions, independent of the package's
elimination.

``eliminate`` is the Fraction elimination that ``chainsense.exact``'s
fraction-free one replaced: the same pivot rule, one Fraction operation
per entry.  The tests compare the package's ``det`` and ``solve`` against
it, and the other referees take their ranks, inverses, nullspaces and
general solutions from it.  The elimination-free helpers (``matvec``,
``transpose``, ``to_floats``, ``zeros``) are the package's own, so a
referee moved out of the package reads ``exact.<name>`` as it did there.
"""

from fractions import Fraction

from chainsense.errors import AtypicalParameters
from chainsense.exact import Mat, matvec, to_floats, transpose, zeros

__all__ = [
    "back_substitute",
    "det",
    "eliminate",
    "inverse",
    "matmul",
    "matvec",
    "nullspace",
    "rank",
    "solve_columns",
    "solve_general",
    "to_floats",
    "transpose",
    "zeros",
]


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


def eliminate(a, cols):
    """Row echelon form of the leading cols columns of a, in place.

    Returns the pivot columns (pivot i in row i) and the sign of the row
    permutation."""
    pivots, sign, rows = [], 1, len(a)
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


def back_substitute(a, pivots, rhs, x):
    """Fill the pivot entries of x so that echelon row i times x is rhs[i];
    the other entries of x are the free unknowns, taken as given."""
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        acc = rhs[i]
        for j in range(c + 1, len(x)):
            if a[i][j] and x[j]:
                acc -= a[i][j] * x[j]
        x[c] = acc / a[i][c]
    return x


def _fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def det(m):
    a = _fractions(m)
    pivots, sign = eliminate(a, len(a))
    if len(pivots) < len(a):
        return Fraction(0)
    result = Fraction(sign)
    for i, row in enumerate(a):
        result *= row[i]
    return result


def rank(m):
    return len(eliminate(_fractions(m), len(m[0]))[0])


def solve_columns(m, columns):
    """Solutions of m x = column for each column, None if m is singular."""
    n = len(m)
    a = [row + list(extra) for row, extra in
         zip(_fractions(m), zip(*_fractions(columns)))]
    pivots, _ = eliminate(a, n)
    if len(pivots) < n:
        return None
    return [back_substitute(a, pivots, [row[n + k] for row in a],
                            [Fraction(0)] * n)
            for k in range(len(columns))]


def inverse(m):
    """m^{-1} from the solutions of m x = e_k; a singular m raises
    ``AtypicalParameters``."""
    n = len(m)
    solved = solve_columns(m, [[int(i == j) for j in range(n)]
                               for i in range(n)])
    if solved is None:
        raise AtypicalParameters("matrix is singular at this binding")
    return transpose(solved)


def nullspace(m):
    """Basis of the right nullspace: vector f sets free unknown f to 1 and
    the other free unknowns to 0."""
    cols = len(m[0])
    a = _fractions(m)
    pivots, _ = eliminate(a, cols)
    zero = [Fraction(0)] * len(pivots)
    return [back_substitute(a, pivots, zero,
                            [Fraction(int(c == f)) for c in range(cols)])
            for f in range(cols) if f not in pivots]


def solve_general(m, b):
    """Particular solution (every free unknown 0) and nullspace basis of
    m x = b, or None if the system is inconsistent."""
    cols = len(m[0])
    a = [row + [bv] for row, bv in zip(_fractions(m), _fractions([b])[0])]
    pivots, _ = eliminate(a, cols + 1)
    if cols in pivots:
        return None
    particular = back_substitute(a, pivots, [row[cols] for row in a],
                                 [Fraction(0)] * cols)
    return particular, nullspace(m)
