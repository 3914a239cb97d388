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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .accessible import AccessibleSet, SensorConfig, generate
from .errors import InadmissibleConfig, NumericFailure
from .pauli import HamiltonianSpec, heisenberg_derivative

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
    aset: AccessibleSet
    ham: HamiltonianSpec
    dim: int
    a_entries: tuple[AEntry, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    @property
    def param_ids(self) -> tuple[str, ...]:
        return self.ham.param_ids

    def entry_map(self) -> dict[tuple[int, int], tuple[str, int]]:
        return {(e.row, e.col): (e.param_id, e.sign) for e in self.a_entries}


def is_atypical(binding: Binding) -> bool:
    """True if any coupling is bound to zero (excluded, measure-zero case)."""
    return any(v == 0 for v in binding.values())


def build(config: SensorConfig) -> StateSpaceModel:
    """Construct the state-space model for a catalog scheme."""
    aset = generate(config)
    ham = config.hamiltonian()
    dim = len(aset)
    entries: dict[tuple[int, int], AEntry] = {}
    for i, (sign_i, op) in enumerate(aset.basis):
        for pid, coeff, out in heisenberg_derivative(ham, op):
            j = aset.position(out)
            sign_j = aset.basis[j][0]
            total = sign_i * sign_j * coeff
            if total not in (1, -1):
                raise InadmissibleConfig(
                    f"unexpected derivative coefficient {total} at ({i},{j})"
                )
            if (i, j) in entries:
                raise InadmissibleConfig(f"two parameters map to entry ({i},{j})")
            entries[(i, j)] = AEntry(i, j, pid, int(total))
    for (i, j), e in entries.items():
        partner = entries.get((j, i))
        if partner is None or partner.param_id != e.param_id or partner.sign != -e.sign:
            raise InadmissibleConfig(f"A is not antisymmetric at ({i},{j})")
    b = tuple(aset.signed_expectations(config.initial_state()))
    m = config.measurement_string()
    c = [Fraction(0)] * dim
    pos = aset.position(m)
    c[pos] = Fraction(aset.basis[pos][0])
    order = sorted(entries)
    return StateSpaceModel(
        config=config,
        aset=aset,
        ham=ham,
        dim=dim,
        a_entries=tuple(entries[k] for k in order),
        b=b,
        c=tuple(c),
    )


# -- evaluation -------------------------------------------------------------


def evaluate(model: StateSpaceModel, binding: Binding):
    """Dense float (A, B, C) at a numeric binding."""
    a = np.zeros((model.dim, model.dim))
    for e in model.a_entries:
        a[e.row, e.col] = e.sign * float(binding[e.param_id])
    b = np.array([float(v) for v in model.b])
    c = np.array([float(v) for v in model.c])
    return a, b, c


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
    """
    n = a.shape[0]
    q = np.zeros((n, count))
    h = np.zeros((count, count))
    tol = ARNOLDI_BREAKDOWN * n * np.finfo(float).eps * np.linalg.norm(a)
    beta = float(np.linalg.norm(v))
    if count == 0 or beta == 0:
        return q[:, :0], h[:0, :0]
    q[:, 0] = v / beta
    for j in range(count):
        w = a @ q[:, j]
        for _ in range(2):
            coef = q[:, : j + 1].T @ w
            w = w - q[:, : j + 1] @ coef
            h[: j + 1, j] += coef
        if j + 1 == count:
            break
        norm = float(np.linalg.norm(w))
        if norm <= tol:
            return q[:, : j + 1], h[: j + 1, : j + 1]
        h[j + 1, j] = norm
        q[:, j + 1] = w / norm
    return q, h


def markov(a, b, c, count: int):
    """Markov parameters [CB, CAB, ..., CA^{count-1}B]: a float array for an
    ndarray A, a list of Fractions for a Fraction matrix."""
    vectors = krylov(a, b, count)
    if isinstance(a, np.ndarray):
        return np.array([float(c @ v) for v in vectors])
    return [exact.matvec([c], v)[0] for v in vectors]


# -- text form --------------------------------------------------------------


def dump_text(model: StateSpaceModel) -> str:
    cfg = model.config
    lines = [
        f"model scheme={cfg.scheme_tag} n_chain={cfg.n_chain} "
        f"initial={cfg.initial_label} dim={model.dim}",
        "params " + " ".join(model.param_ids),
    ]
    for e in model.a_entries:
        sign = "+" if e.sign > 0 else "-"
        lines.append(f"A {e.row} {e.col} {sign}{e.param_id}")
    for i, v in enumerate(model.b):
        if v:
            lines.append(f"B {i} {v}")
    for i, v in enumerate(model.c):
        if v:
            lines.append(f"C {i} {v}")
    return "\n".join(lines) + "\n"


def load_text(text: str) -> StateSpaceModel:
    """Rebuild from the dump; the scheme is reconstructed and must agree."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(kv.split("=") for kv in lines[0].split()[1:])
    tag = header["scheme"]
    label, sensor = tag.rsplit("@", 1)
    cfg = SensorConfig(
        int(header["n_chain"]), int(sensor.rstrip("q")), label, header["initial"]
    )
    model = build(cfg)
    entry_map = model.entry_map()
    dumped = {}
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "A":
            i, j = int(parts[1]), int(parts[2])
            sign = 1 if parts[3][0] == "+" else -1
            dumped[(i, j)] = (parts[3][1:], sign)
    if dumped != entry_map:
        raise InadmissibleConfig("dumped A entries disagree with reconstruction")
    return model
