"""State-space models over accessible sets.

The state vector collects the expectations of the accessible set's signed
basis elements; its dynamics under the Heisenberg equation are linear with
a matrix A whose entries are +- one coupling parameter each.  B is the
initial-state expectation vector (the impulse enters through u = delta(t)),
and C reads out the measurement's position in the basis.

A is provably antisymmetric: the basis is Hilbert-Schmidt orthonormal (up
to the uniform 2^n factor) and i[H, .] is a hermitian superoperator with
purely imaginary matrix elements between hermitian strings, so
A_ij = -A_ji entry for entry.  ``build`` asserts this.

A is also bipartite in the Y parity of the strings.  X, Z and I are real
matrices and Y is imaginary, so a string with an even number of Ys is real
and one with an odd number is imaginary.  H = sum h (XX + YY)/2 is real, so
i[H, .] maps a real string to an imaginary combination and back: every
entry of A joins an even string to an odd one, and over (even, odd)
A = [[0, K], [-K^T, 0]] with spectrum +-i times the singular values of K
(Golub and Kahan, SIAM J. Numer. Anal. B 2, 1965).  A preparable state is a
product of X eigenstates, so its density matrix is a sum of products of X
and I and B lives on the even strings; every scheme with B != 0 measures
an odd string.  ``build`` asserts all three, and ``impulse_response``
works from the one real block K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import exact
from .accessible import SensorConfig, generate
from .errors import InadmissibleConfig, NumericFailure
from .pauli import HamiltonianSpec

Binding = dict[str, float]


class AEntry(NamedTuple):
    """One nonzero of A: A[row, col] = sign * binding[param_id]."""

    row: int
    col: int
    param_id: str
    sign: int


@dataclass
class StateSpaceModel:
    """Parametrised (A, B, C) triple tied to an accessible set."""

    config: SensorConfig
    ham: HamiltonianSpec
    dim: int
    a_entries: tuple[AEntry, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    #: whether each basis string holds an odd number of Ys
    odd: tuple[bool, ...]

    @property
    def param_ids(self) -> tuple[str, ...]:
        return self.ham.param_ids

    @cached_property
    def _entry_arrays(self):
        """a_entries as arrays: (rows, columns, the parameters in order of
        first use, each entry's parameter slot, signs as floats)."""
        rows, cols, pids, signs = tuple(zip(*self.a_entries)) or ((),) * 4
        params = tuple(dict.fromkeys(pids))
        slot = {p: k for k, p in enumerate(params)}
        return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                params, np.array([slot[p] for p in pids], dtype=np.intp),
                np.array(signs, dtype=float))


def check_binding(model: StateSpaceModel, binding: Binding) -> None:
    """Refuse a binding that does not give every coupling of the model, and
    nothing else, a finite value."""
    missing = sorted(set(model.param_ids) - set(binding))
    extra = sorted(set(binding) - set(model.param_ids))
    if missing or extra:
        raise InadmissibleConfig(
            f"couplings must bind exactly {', '.join(model.param_ids)}; "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    for name, value in binding.items():
        if not math.isfinite(value):
            raise InadmissibleConfig(f"coupling {name} = {value} is not finite")


def build(config: SensorConfig) -> StateSpaceModel:
    """Construct the state-space model for a catalog scheme.

    A is read from the derivative table the closure recorded, so no
    commutator is taken twice; each derivative term's string is found in the
    basis by its (X mask, Z mask) key.
    """
    aset = generate(config)
    dim = len(aset)
    odd = tuple((s.x_mask & s.z_mask).bit_count() % 2 == 1
                for _sign, s in aset.basis)
    entries: dict[tuple[int, int], AEntry] = {}
    for i, (sign_i, op) in enumerate(aset.basis):
        for pid, coeff, out in aset.derivatives[op.key()]:
            j = aset.position(out)
            sign_j = aset.basis[j][0]
            total = sign_i * sign_j * coeff
            if total not in (1, -1):
                raise InadmissibleConfig(
                    f"unexpected derivative coefficient {total} at ({i},{j})"
                )
            if odd[i] == odd[j]:
                raise InadmissibleConfig(
                    f"A joins two strings of the same Y parity at ({i},{j})"
                )
            if (i, j) in entries:
                raise InadmissibleConfig(f"two parameters map to entry ({i},{j})")
            entries[(i, j)] = AEntry(i, j, pid, total)
    for (i, j), e in entries.items():
        partner = entries.get((j, i))
        if partner is None or partner.param_id != e.param_id or partner.sign != -e.sign:
            raise InadmissibleConfig(f"A is not antisymmetric at ({i},{j})")
    b = tuple(aset.signed_expectations(config.initial_state()))
    for k, value in enumerate(b):
        if value and odd[k]:
            raise InadmissibleConfig(f"B has support on the odd string {k}")
    m = config.measurement_string()
    c = [0] * dim
    pos = aset.position(m.key())
    c[pos] = aset.basis[pos][0]
    if any(b) and not odd[pos]:
        raise InadmissibleConfig(
            f"the readout string {pos} is even, so C exp(At) B would need "
            "the even-to-even block"
        )
    order = sorted(entries)
    return StateSpaceModel(
        config=config,
        ham=config.hamiltonian(),
        dim=dim,
        a_entries=tuple(entries[k] for k in order),
        b=b,
        c=tuple(c),
        odd=odd,
    )


# -- evaluation -------------------------------------------------------------


def evaluate(model: StateSpaceModel, binding: Binding | list[Binding]):
    """Dense float (A, B, C) at a numeric binding.  A list of k bindings
    gives A as a stack of shape (k, dim, dim), filled by one indexed
    assignment; B and C do not depend on the binding."""
    bindings = binding if isinstance(binding, list) else [binding]
    rows, cols, params, slots, signs = model._entry_arrays
    values = np.array([[float(bound[p]) for p in params] for bound in bindings],
                      dtype=float).reshape(len(bindings), len(params))
    a = np.zeros((len(bindings), model.dim, model.dim))
    a[:, rows, cols] = signs * values[:, slots]
    b = np.array(model.b, dtype=float)
    c = np.array(model.c, dtype=float)
    return (a if isinstance(binding, list) else a[0]), b, c


def evaluate_integer(model: StateSpaceModel, binding: dict[str, Fraction]):
    """A at a rational binding as an integer matrix and a scale: A = a / d,
    with d the lcm of the couplings' denominators.  Float couplings are
    taken at their exact binary values."""
    values = {p: Fraction(binding[p]) for p in model._entry_arrays[2]}
    d = math.lcm(*(v.denominator for v in values.values()))
    scaled = {p: v.numerator * (d // v.denominator) for p, v in values.items()}
    a = [[0] * model.dim for _ in range(model.dim)]
    for e in model.a_entries:
        a[e.row][e.col] = e.sign * scaled[e.param_id]
    return a, d


def evaluate_exact(model: StateSpaceModel, binding: dict[str, Fraction]):
    """Fraction-exact (A, B, C) at a rational binding: the Fraction view of
    ``evaluate_integer``."""
    a_int, d = evaluate_integer(model, binding)
    zero = Fraction(0)
    a = [[Fraction(x, d) if x else zero for x in row] for row in a_int]
    b = [Fraction(v) for v in model.b]
    c = [Fraction(v) for v in model.c]
    return a, b, c


def spectral_bound(model: StateSpaceModel, binding: Binding) -> float:
    """Upper bound on the spectral radius of A (max abs row sum)."""
    rows, _cols, params, slots, _signs = model._entry_arrays
    magnitudes = np.array([abs(float(binding[p])) for p in params],
                          dtype=float)
    sums = np.bincount(rows, weights=magnitudes[slots], minlength=model.dim)
    return float(sums.max()) if model.dim else 0.0


def impulse_response(model: StateSpaceModel, binding: Binding, times) -> np.ndarray:
    """y(t) = C exp(A t) B at each requested time.

    Over (even, odd) strings A = [[0, K], [-K^T, 0]].  With the thin SVD
    K = U S V^T, the odd-from-even block of exp(A t) is -V sin(S t) U^T,
    and B is even and C odd (``build`` checks both), so
    y(t) = -(V^T c_odd)^T sin(S t) (U^T b_even): one real SVD of the
    half-size block serves every sample time.  K is filled from the
    entries in even rows alone; A itself is never formed.
    """
    times = np.asarray(times, dtype=float)
    if not any(model.b) or not any(model.c):
        return np.zeros(times.shape)
    rows, cols, params, slots, signs = model._entry_arrays
    odd = np.array(model.odd)
    even = ~odd
    place = np.empty(model.dim, dtype=np.intp)  # index within its parity
    place[even] = np.arange(np.count_nonzero(even))
    place[odd] = np.arange(np.count_nonzero(odd))
    values = np.array([float(binding[p]) for p in params], dtype=float)
    down = even[rows]
    k = np.zeros((np.count_nonzero(even), np.count_nonzero(odd)))
    k[place[rows[down]], place[cols[down]]] = signs[down] * values[slots[down]]
    b = np.array(model.b, dtype=float)
    c = np.array(model.c, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u, s, vt = np.linalg.svd(k, full_matrices=False)
        except np.linalg.LinAlgError as err:
            raise NumericFailure(f"impulse response: {err}") from None
        y = np.sin(np.outer(times, s)) @ ((vt @ c[odd]) * (u.T @ b[even]))
    if not np.isfinite(y).all():
        raise NumericFailure("impulse response is not finite")
    return 0.0 - y  # not -y: the sample at t = 0 stays +0.0


def krylov(a, v, count: int) -> list:
    """[v, Av, ..., A^{count-1} v] for a float ndarray A or an exact matrix
    (lists of ints, Fractions or ``symca`` polynomials).  Over an int
    matrix and an int v every step stays int.

    An exact matrix is read once into each row's nonzero (column, value)
    pairs, and each step multiplies only those by the nonzero entries of
    the previous vector: a ladder step costs O(nnz) rather than O(dim^2).
    """
    out = [v][:count]
    if isinstance(a, np.ndarray):
        while len(out) < count:
            out.append(a @ out[-1])
        return out
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    # the sum of no terms; a zero start would cost one more addition per entry
    zero = 0 if all(type(x) is int for x in v) else Fraction(0)
    while len(out) < count:
        prev = out[-1]
        step = []
        for row in rows:
            terms = [x * pj for j, x in row if (pj := prev[j])]
            step.append(sum(terms[1:], terms[0]) if terms else zero)
        out.append(step)
    return out


#: Arnoldi's breakdown tolerance in units of dim * eps * |A|_F
ARNOLDI_BREAKDOWN = 64


def breakdown_tolerance(a: np.ndarray):
    """The norm at or below which Arnoldi stops, for one matrix A or for
    each slice of a stack: ARNOLDI_BREAKDOWN * dim * eps * |A|_F."""
    return (ARNOLDI_BREAKDOWN * a.shape[-1] * np.finfo(float).eps
            * np.sqrt(np.sum(a ** 2, axis=(-2, -1))))


def arnoldi(a: np.ndarray, v: np.ndarray, count: int):
    """Orthonormal basis Q of span[v, Av, ..., A^{count-1} v] and the
    Hessenberg matrix H = Q^T A Q.

    Each new direction is orthogonalized against every earlier one twice
    (classical Gram-Schmidt with one reorthogonalization).  If the Krylov
    space closes early (the new direction's norm is at or below
    ``breakdown_tolerance``), the iteration stops there: Q has fewer than
    ``count`` columns, and that width is the number of steps reached.  H
    is formed once from the finished basis, as Q^T A Q with exact zeros
    below the subdiagonal.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(v)
    q = np.zeros((n, count))
    beta = np.sqrt(np.sum(v ** 2))
    if count == 0 or not beta > 0:
        return q[:, :0], np.zeros((0, 0))
    q[:, 0] = v / beta
    tol = breakdown_tolerance(a)
    for j in range(1, count):
        w = a @ q[:, j - 1, None]
        for _ in range(2):
            w -= q[:, :j] @ (q[:, :j].T @ w)
        norm = np.sqrt(np.sum(w[:, 0] ** 2))
        if not norm > tol:
            count = j
            break
        q[:, j] = w[:, 0] / norm
    q = q[:, :count]
    return q, np.triu(q.T @ a @ q, -1)


def markov(a, b, c, count: int):
    """Markov parameters [CB, CAB, ..., CA^{count-1}B]: a float array for an
    ndarray A, a list of exact entries for an exact matrix.  A parameter
    whose sum has no nonzero term is Fraction(0), also over polynomials."""
    vectors = krylov(a, b, count)
    if isinstance(a, np.ndarray):
        return np.array([float(c @ v) for v in vectors])
    return [exact.matvec([c], v)[0] for v in vectors]
