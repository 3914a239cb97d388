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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .accessible import SensorConfig, generate
from .errors import InadmissibleConfig, NumericFailure
from .pauli import HamiltonianSpec

Binding = dict[str, float]


@dataclass(frozen=True)
class AEntry:
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

    @property
    def param_ids(self) -> tuple[str, ...]:
        return self.ham.param_ids


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
    commutator is taken twice.
    """
    aset = generate(config)
    dim = len(aset)
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
            if (i, j) in entries:
                raise InadmissibleConfig(f"two parameters map to entry ({i},{j})")
            entries[(i, j)] = AEntry(i, j, pid, total)
    for (i, j), e in entries.items():
        partner = entries.get((j, i))
        if partner is None or partner.param_id != e.param_id or partner.sign != -e.sign:
            raise InadmissibleConfig(f"A is not antisymmetric at ({i},{j})")
    b = tuple(aset.signed_expectations(config.initial_state()))
    m = config.measurement_string()
    c = [0] * dim
    pos = aset.position(m)
    c[pos] = aset.basis[pos][0]
    order = sorted(entries)
    return StateSpaceModel(
        config=config,
        ham=config.hamiltonian(),
        dim=dim,
        a_entries=tuple(entries[k] for k in order),
        b=b,
        c=tuple(c),
    )


# -- evaluation -------------------------------------------------------------


def evaluate(model: StateSpaceModel, binding: Binding | list[Binding]):
    """Dense float (A, B, C) at a numeric binding.  A list of k bindings
    gives A as a stack of shape (k, dim, dim); B and C do not depend on the
    binding."""
    bindings = binding if isinstance(binding, list) else [binding]
    params = {e.param_id for e in model.a_entries}
    a = np.zeros((len(bindings), model.dim, model.dim))
    for i, bound in enumerate(bindings):
        value = {p: float(bound[p]) for p in params}
        for e in model.a_entries:
            a[i, e.row, e.col] = e.sign * value[e.param_id]
    b = np.array(model.b, dtype=float)
    c = np.array(model.c, dtype=float)
    return (a if isinstance(binding, list) else a[0]), b, c


def evaluate_exact(model: StateSpaceModel, binding: dict[str, Fraction]):
    """Fraction-exact (A, B, C) at a rational binding."""
    a = exact.zeros(model.dim, model.dim)
    for e in model.a_entries:
        a[e.row][e.col] = e.sign * Fraction(binding[e.param_id])
    b = [Fraction(v) for v in model.b]
    c = [Fraction(v) for v in model.c]
    return a, b, c


def spectral_bound(model: StateSpaceModel, binding: Binding) -> float:
    """Upper bound on the spectral radius of A (max abs row sum)."""
    sums = np.zeros(model.dim)
    for e in model.a_entries:
        sums[e.row] += abs(float(binding[e.param_id]))
    return float(sums.max()) if model.dim else 0.0


def impulse_response(model: StateSpaceModel, binding: Binding, times) -> np.ndarray:
    """y(t) = C exp(A t) B at each requested time.

    A is real antisymmetric, so iA is hermitian; one eigendecomposition
    serves every sample time.
    """
    a, b, c = evaluate(model, binding)
    times = np.asarray(times, dtype=float)
    if not np.any(b) or not np.any(c):
        return np.zeros(times.shape)
    w, v = np.linalg.eigh(1j * a)
    # A = V diag(-i w) V^dagger
    left = c @ v
    right = v.conj().T @ b
    phases = np.exp(-1j * np.outer(times, w))
    y = (phases * (left * right)).sum(axis=1)
    if np.max(np.abs(y.imag)) > 1e-9 * max(1.0, np.max(np.abs(y.real))):
        raise NumericFailure("impulse response came out non-real")
    return y.real


def krylov(a, v, count: int) -> list:
    """[v, Av, ..., A^{count-1} v] for a float ndarray A or a Fraction matrix."""
    out = [v][:count]
    while len(out) < count:
        prev = out[-1]
        out.append(a @ prev if isinstance(a, np.ndarray) else exact.matvec(a, prev))
    return out


#: Arnoldi stops when the orthogonalized vector's norm falls to this many
#: units of dim * eps * |A|_F
ARNOLDI_BREAKDOWN = 64


def arnoldi(a: np.ndarray, v: np.ndarray, count: int):
    """Orthonormal basis Q of span[v, Av, ..., A^{count-1} v] and the
    Hessenberg matrix H = Q^T A Q.

    Each new direction is orthogonalized against every earlier one twice
    (classical Gram-Schmidt with full reorthogonalization).  If the Krylov
    space closes early, the iteration stops there: Q has fewer than
    ``count`` columns, and that width is the number of steps reached.

    A may also be a stack of shape (k, n, n), with v of shape (n,) or
    (k, n).  The slices run side by side and each stops where its own
    Krylov space closes.  A stack returns Q of shape (k, n, count) and H of
    shape (k, count, count), both zero past each slice's width, and the
    widths as an int array of shape (k,).  A 2-D A is a stack of one whose
    Q and H come back trimmed to its width.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 2:
        q, h, steps = arnoldi(a[None], v, count)
        width = int(steps[0])
        return q[0, :, :width], h[0, :width, :width]
    k, n, _ = a.shape
    v = np.broadcast_to(np.asarray(v, dtype=float), (k, n))
    q = np.zeros((k, n, count))
    h = np.zeros((k, count, count))
    tol = (ARNOLDI_BREAKDOWN * n * np.finfo(float).eps
           * np.linalg.norm(a, axis=(1, 2)))
    if count == 0:
        return q, h, np.zeros(k, dtype=int)
    beta = np.linalg.norm(v, axis=1)
    live = beta > 0
    steps = live.astype(int)
    q[live, :, 0] = v[live] / beta[live, None]
    for j in range(count):
        w = a @ q[:, :, j, None]
        for _ in range(2):
            coef = q[:, :, : j + 1].transpose(0, 2, 1) @ w
            w = w - q[:, :, : j + 1] @ coef
            h[:, : j + 1, j] += coef[:, :, 0]
        if j + 1 == count:
            break
        norm = np.sqrt(np.sum(w[:, :, 0] ** 2, axis=1))
        live &= norm > tol
        if not live.any():
            break
        steps += live
        h[:, j + 1, j] = np.where(live, norm, 0.0)
        np.divide(w[:, :, 0], norm[:, None], out=q[:, :, j + 1],
                  where=live[:, None])
    return q, h, steps


def markov(a, b, c, count: int):
    """Markov parameters [CB, CAB, ..., CA^{count-1}B]: a float array for an
    ndarray A, a list of Fractions for a Fraction matrix."""
    vectors = krylov(a, b, count)
    if isinstance(a, np.ndarray):
        return np.array([float(c @ v) for v in vectors])
    return [exact.matvec([c], v)[0] for v in vectors]
