"""Data side: quantum simulation oracle, record generation, ERA, recovery.

A record is the sampled impulse response of the linear model (each sample
an ensemble expectation; shot noise enters as additive Gaussian terms).
ERA realizes a minimal discrete model from the Hankel of those samples,
then the continuous generator comes back through the principal matrix
logarithm, which the sampling-interval guard keeps branch-safe.

Recovery never uses the realized basis directly: everything is read off
realization-invariant data (Markov parameters), so it survives the
order collapse that occurs on degenerate parameter surfaces.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import ssm
from .accessible import SensorConfig
from .errors import (
    InadmissibleConfig,
    NumericFailure,
    UnidentifiableScheme,
)
from .pauli import (
    HamiltonianSpec,
    InitialState,
    PauliString,
    dense_hamiltonian,
    dense_matrix,
    dense_state,
)
from .ssm import StateSpaceModel
from .symca import (
    SolveResult,
    solve_identifiability,
    square_substitute,
    symbolic_markov,
)
from .symca.poly import MPoly, PolyRing

#: sampling-interval guard: dt * (spectral bound) must stay below this
BRANCH_SAFETY = math.pi / 4

#: noiseless order-gap acceptance on sigma_{k+1}/sigma_k
NOISELESS_GAP = 1e-6

RECORD_HEADER = ("t", "y", "sigma", "seed", "scheme")


# -- exact quantum oracle ----------------------------------------------------


def exact_quantum_expectation(
    ham: HamiltonianSpec,
    state: InitialState,
    meas: PauliString,
    binding: dict[str, float],
    times,
) -> np.ndarray:
    """Tr(e^{iHt} M e^{-iHt} rho0) at each time, by dense eigendecomposition.

    One eigendecomposition serves all the requested times.  The dense
    layer enforces the qubit cap.
    """
    h = dense_hamiltonian(ham, binding)
    m = dense_matrix(meas)
    rho = dense_state(state)
    w, v = np.linalg.eigh(h)
    m_eig = v.conj().T @ m @ v
    rho_eig = v.conj().T @ rho @ v
    weights = (m_eig * rho_eig.T).ravel()
    gaps = np.subtract.outer(w, w).ravel()
    t = np.atleast_1d(np.asarray(times, dtype=float))
    y = np.exp(1j * np.outer(t, gaps)) @ weights
    if np.max(np.abs(y.imag)) > 1e-9:
        raise NumericFailure("quantum oracle produced a non-real expectation")
    y = y.real
    if np.max(np.abs(y)) > 1.0 + 1e-9:
        raise NumericFailure("quantum oracle expectation left [-1, 1]")
    return y


# -- measurement records -----------------------------------------------------


@dataclass
class MeasurementRecord:
    """Uniformly sampled sensor readout with optional additive noise."""

    times: np.ndarray
    values: np.ndarray
    dt: float
    noise_sigma: float
    scheme_tag: str
    seed: int

    @property
    def count(self) -> int:
        return len(self.values)


def simulate_record(
    model: StateSpaceModel,
    binding: dict[str, float],
    dt: float,
    count: int,
    noise_sigma: float = 0.0,
    seed: int = 0,
    source: str = "model",
) -> MeasurementRecord:
    """Sample the impulse response on a uniform grid, optionally with noise.

    ``source="model"`` integrates the linear model; ``source="quantum"``
    evaluates the dense quantum oracle instead (identical up to numeric
    round-off, far slower, capped in system size).
    """
    if count < 2:
        raise InadmissibleConfig("a record needs at least two samples")
    for name, value in binding.items():
        if not math.isfinite(value):
            raise InadmissibleConfig(f"coupling {name} = {value} is not finite")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise InadmissibleConfig(
            f"noise_sigma {noise_sigma} must be finite and nonnegative"
        )
    if not (math.isfinite(dt) and dt > 0):
        raise InadmissibleConfig(
            f"sampling interval {dt} must be finite and positive"
        )
    config = model.config
    bound = ssm.spectral_bound(model, binding)
    if dt * bound >= BRANCH_SAFETY:
        raise InadmissibleConfig(
            f"sampling interval {dt} too coarse: dt*bound = {dt * bound:.6f} "
            f"must stay below {BRANCH_SAFETY:.6f} (bound {bound:.6f}); "
            f"use dt < {BRANCH_SAFETY / bound:.6f}"
        )
    times = dt * np.arange(count)
    if source == "model":
        values = ssm.impulse_response(model, binding, times)
    elif source == "quantum":
        values = exact_quantum_expectation(
            model.ham,
            config.initial_state(),
            config.measurement_string(),
            binding,
            times,
        )
    else:
        raise InadmissibleConfig(f"unknown record source {source!r}")
    values = np.asarray(values, dtype=float)
    if noise_sigma:
        rng = np.random.default_rng(seed)
        values = values + noise_sigma * rng.standard_normal(count)
    return MeasurementRecord(
        times=times,
        values=values,
        dt=float(dt),
        noise_sigma=float(noise_sigma),
        scheme_tag=config.scheme_tag,
        seed=int(seed),
    )


def save_record(record: MeasurementRecord, fh) -> None:
    """CSV with header t,y,sigma,seed,scheme; floats via repr (bit-exact)."""
    writer = csv.writer(fh)
    writer.writerow(RECORD_HEADER)
    for t, y in zip(record.times, record.values):
        writer.writerow(
            [repr(float(t)), repr(float(y)), repr(record.noise_sigma),
             record.seed, record.scheme_tag]
        )


def load_record(fh) -> MeasurementRecord:
    """Parse the CSV that save_record writes; any defect is inadmissible."""
    reader = csv.reader(fh)
    header = tuple(next(reader, ()))
    if header != RECORD_HEADER:
        raise InadmissibleConfig(
            f"record header {header!r} does not match {RECORD_HEADER!r}"
        )
    times, values, sigmas, seeds, tags = [], [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
            sigmas.append(float(row[2]))
            seeds.append(int(row[3]))
            tags.append(row[4])
        except (ValueError, IndexError):
            raise InadmissibleConfig(
                f"record line {lineno}: malformed row {row!r}"
            ) from None
        if not all(map(math.isfinite, (times[-1], values[-1], sigmas[-1]))):
            raise InadmissibleConfig(
                f"record line {lineno}: non-finite value in row {row!r}"
            )
        if sigmas[-1] < 0:
            raise InadmissibleConfig(
                f"record line {lineno}: negative sigma in row {row!r}"
            )
    if len(times) < 2:
        raise InadmissibleConfig("record has fewer than two samples")
    if len(set(sigmas)) != 1 or len(set(seeds)) != 1 or len(set(tags)) != 1:
        raise InadmissibleConfig("record rows disagree on sigma/seed/scheme")
    times_arr = np.array(times)
    steps = np.diff(times_arr)
    dt = steps[0]
    if np.any(steps <= 0) or np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, dt):
        raise InadmissibleConfig("record times must increase uniformly")
    return MeasurementRecord(
        times=times_arr,
        values=np.array(values),
        dt=float(dt),
        noise_sigma=sigmas[0],
        scheme_tag=tags[0],
        seed=seeds[0],
    )


def record_to_text(record: MeasurementRecord) -> str:
    buf = io.StringIO()
    save_record(record, buf)
    return buf.getvalue()


def record_from_text(text: str) -> MeasurementRecord:
    return load_record(io.StringIO(text))


# -- ERA ---------------------------------------------------------------------


@dataclass
class ERARealization:
    """Balanced discrete realization plus its continuous-time generator."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    c_hat: np.ndarray
    order: int
    singular_values: np.ndarray
    a_cont: np.ndarray
    dt: float
    verdict: str  # "ok" | "order ambiguous"
    diagnostics: dict = field(default_factory=dict)


def era(record: MeasurementRecord, expected_order: int | None = None) -> ERARealization:
    """Hankel-SVD realization of the record's sample sequence.

    The samples of a continuous impulse response are the Markov sequence
    of the discrete pair (e^{A dt}, B, C), so the realized a_hat estimates
    e^{A dt} and the principal logarithm recovers A.
    """
    values = np.asarray(record.values, dtype=float)
    trimmed = 0
    while len(values) > 2 and values[-1] == 0.0:
        values = values[:-1]
        trimmed += 1
    count = len(values)
    if expected_order is not None and count < 2 * expected_order + 2:
        raise NumericFailure(
            f"record too short: {count} samples for expected order "
            f"{expected_order} (need at least {2 * expected_order + 2})"
        )
    r = (count + 1) // 2
    s = count // 2
    h0 = np.empty((r, s))
    h1 = np.empty((r, s))
    for i in range(r):
        h0[i] = values[i : i + s]
        h1[i] = values[i + 1 : i + 1 + s]
    try:
        u, sing, vt = np.linalg.svd(h0, full_matrices=False)
    except np.linalg.LinAlgError:
        raise NumericFailure(
            "Hankel SVD did not converge; the record's values are out of "
            "working range"
        ) from None
    diagnostics = {"hankel_shape": (r, s), "trimmed_zeros": trimmed}

    order, verdict, gap = _select_order(sing, record.noise_sigma, r, s)
    diagnostics["gap_ratio"] = gap
    if verdict != "ok":
        return ERARealization(
            a_hat=np.empty((0, 0)), b_hat=np.empty(0), c_hat=np.empty(0),
            order=0, singular_values=sing, a_cont=np.empty((0, 0)),
            dt=record.dt, verdict=verdict, diagnostics=diagnostics,
        )

    un = u[:, :order]
    vn = vt[:order, :].T
    root = np.sqrt(sing[:order])
    with np.errstate(over="ignore", invalid="ignore"):
        a_hat = (un.T @ h1 @ vn) / np.outer(root, root)
    if not np.all(np.isfinite(a_hat)):
        raise NumericFailure(
            "realized state matrix is not finite; the record's values are "
            "out of working range"
        )
    if np.linalg.cond(a_hat) > 1 / np.finfo(float).eps:
        # e^{A dt} is never singular, and logm can stall on one that is
        raise NumericFailure(
            "realized state matrix is singular, so it is no matrix "
            "exponential; the record's values are out of working range"
        )
    b_hat = root * vn[0, :]
    c_hat = un[0, :] * root
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            log_a = scipy.linalg.logm(a_hat)
    except ValueError:  # an extreme a_hat overflows inside logm
        raise NumericFailure(
            "matrix logarithm failed; the record's values are out of "
            "working range"
        ) from None
    if np.max(np.abs(np.imag(log_a))) > 1e-8 * max(1.0, np.max(np.abs(log_a))):
        raise NumericFailure(
            "matrix logarithm came back complex; sampling likely crossed "
            "the principal branch"
        )
    a_cont = np.real(log_a) / record.dt
    return ERARealization(
        a_hat=a_hat, b_hat=b_hat, c_hat=c_hat, order=order,
        singular_values=sing, a_cont=a_cont, dt=record.dt,
        verdict="ok", diagnostics=diagnostics,
    )


def _select_order(sing: np.ndarray, noise_sigma: float, r: int, s: int):
    """First spectral gap that clears the threshold.

    Later gaps are ratios between noise-floor singular values and can dip
    arbitrarily low by chance, so the scan stops at the first qualifying
    drop: that is the signal/noise boundary.
    """
    positive = sing > 0
    if not positive.any():
        return 0, "order ambiguous", math.inf
    limit = min(int(positive.sum()), len(sing) - 1)
    if limit == 0:
        return 0, "order ambiguous", math.inf
    ratios = sing[1 : limit + 1] / sing[:limit]
    threshold = (
        NOISELESS_GAP
        if noise_sigma == 0
        else 10.0 * noise_sigma * math.sqrt(float(max(r, s)))
    )
    for k, gap in enumerate(ratios):
        if gap < threshold:
            return k + 1, "ok", float(gap)
    return 0, "order ambiguous", float(ratios.min())


# -- parameter recovery ------------------------------------------------------


@dataclass
class RecoveryResult:
    magnitudes: dict[str, float]
    method: str
    realization: ERARealization
    diagnostics: dict = field(default_factory=dict)


def ladder_param_order(n_chain: int) -> list[str]:
    return ["ha", "hb"] + [f"h{i}" for i in range(1, n_chain)]


def moment_chain_magnitudes(markov: np.ndarray, size: int) -> np.ndarray:
    """Coupling magnitudes from Markov data by moment-matrix factorization.

    The measured sequence determines the power moments of the full
    antisymmetric generator against its cyclic vector; the Cholesky factor
    of the (interleaved) moment matrix is the change of basis that
    tridiagonalizes the generator, and consecutive diagonal ratios are the
    off-diagonal entries, i.e. the coupling magnitudes in chain order.
    """
    first = markov[1]
    if first == 0:
        raise NumericFailure(
            "first Markov parameter vanished; the sensor coupling is "
            "indistinguishable from zero"
        )
    signed_first = -first
    moments = np.zeros(2 * size - 1)
    moments[0] = 1.0
    for j in range(1, size):
        mu = signed_first * markov[2 * j - 1]
        moments[2 * j] = (-1.0) ** j * mu
    hank = np.empty((size, size))
    for i in range(size):
        hank[i] = moments[i : i + size]
    try:
        chol = np.linalg.cholesky(hank)
    except np.linalg.LinAlgError:
        raise NumericFailure(
            "moment matrix is not positive definite; the record does not "
            "look like a full-length coupling chain (degenerate or too "
            "noisy data)"
        ) from None
    diag = np.diagonal(chol)
    return diag[1:] / diag[:-1]


def cube_theta_ring(n_chain: int) -> tuple[PolyRing, dict, dict]:
    names = ["t1", "t2"] + [f"t{i + 2}" for i in range(1, n_chain)]
    ring = PolyRing(tuple(names), "lex")
    linear = {"ha": "t1"}
    squared = {"hb": "t2"}
    for i in range(1, n_chain):
        squared[f"h{i}"] = f"t{i + 2}"
    return ring, linear, squared


def cube_elimination(
    model: StateSpaceModel, markov
) -> tuple[SolveResult, dict[str, float] | None]:
    """Solve the cube scheme's odd Markov parameters for the couplings.

    ``markov`` holds exact values of C A^k B for k < 2N + 2.  Equating the
    odd ones to the symbolic Markov polynomials, written in theta = (h_a,
    h_b^2, h_1^2, ...), gives a triangular system.  Returns the elimination
    result and, when its verdict is unique, the coupling magnitudes.
    """
    n = model.config.n_chain
    sym = symbolic_markov(model, 2 * n + 2)
    ring, linear, squared = cube_theta_ring(n)
    equations = [
        square_substitute(sym[k], ring, linear, squared)
        - MPoly.const(ring, markov[k])
        for k in range(1, 2 * n + 2, 2)
    ]
    square_vars = tuple(name for name in ring.variables if name != "t1")
    solved = solve_identifiability(equations, square_vars=square_vars)
    if solved.verdict != "unique":
        return solved, None
    theta = solved.solutions[0]
    magnitudes = {"ha": abs(float(theta["t1"])), "hb": math.sqrt(float(theta["t2"]))}
    for i in range(1, n):
        magnitudes[f"h{i}"] = math.sqrt(float(theta[f"t{i + 2}"]))
    return solved, magnitudes


def recover_parameters(
    record: MeasurementRecord, config: SensorConfig
) -> RecoveryResult:
    """End-to-end magnitude recovery appropriate to the scheme.

    Two-qubit ladder: moment-chain factorization of the Markov data.
    Two-qubit cube (short chains): exact polynomial elimination on the
    odd Markov parameters.  Everything else carries no information and
    is refused.
    """
    capability = config.capability
    if capability == "orthogonal":
        raise UnidentifiableScheme(
            f"scheme {config.scheme_tag} with initial state "
            f"{config.initial_label!r}: the accessible operators all have "
            "zero overlap with the preparable states, so the readout is "
            "identically zero and carries no parameter information"
        )
    if record.scheme_tag != config.scheme_tag:
        raise InadmissibleConfig(
            f"record was taken under {record.scheme_tag}, not "
            f"{config.scheme_tag}"
        )
    n = config.n_chain
    if capability == "ladder":
        expected = n + 2 if n % 2 == 0 else n + 1
        real = era(record, expected_order=expected)
        if real.verdict != "ok":
            raise NumericFailure(
                "model order ambiguous: no singular-value gap cleared the "
                f"threshold (gap ratio {real.diagnostics['gap_ratio']:.3e})"
            )
        markov = _realized_markov(real, 2 * n + 2)
        betas = moment_chain_magnitudes(markov, n + 2)
        names = ladder_param_order(n)
        result = RecoveryResult(
            magnitudes={name: float(b) for name, b in zip(names, betas)},
            method="moment-chain",
            realization=real,
            diagnostics={
                "signed_first_coupling": float(-markov[1]),
                "expected_order": expected,
            },
        )
        return result
    # cube
    if n > 2:
        raise UnidentifiableScheme(
            f"cube scheme recovery is established for chains of one or two "
            f"spins; N={n} is undecided here"
        )
    real = era(record, expected_order=2 * n + 2)
    if real.verdict != "ok":
        raise NumericFailure(
            "model order ambiguous: no singular-value gap cleared the "
            f"threshold (gap ratio {real.diagnostics['gap_ratio']:.3e})"
        )
    markov = _realized_markov(real, 2 * n + 2)
    solved, magnitudes = cube_elimination(
        ssm.build(config), [Fraction(float(v)) for v in markov]
    )
    if magnitudes is None:
        raise NumericFailure(
            f"elimination verdict {solved.verdict!r} on the Markov system; "
            f"detail: {solved.detail or solved.count}"
        )
    diagnostics = {
        "markov_indices": list(range(1, 2 * n + 2, 2)),
        "signed_first_coupling": float(-markov[1]),
        "theta": {k: float(v) for k, v in solved.solutions[0].items()},
    }
    result = RecoveryResult(
        magnitudes=magnitudes,
        method="markov-elimination",
        realization=real,
        diagnostics=diagnostics,
    )
    if record.noise_sigma == 0 and n == 2 and real.order == 12:
        diagnostics["denominator_route"] = _cube_denominator_route(
            real, markov, magnitudes
        )
    return result


def _realized_markov(real: ERARealization, count: int) -> list[float]:
    with np.errstate(over="ignore", invalid="ignore"):
        markov = ssm.markov(real.a_cont, real.b_hat, real.c_hat, count)
    if not all(map(math.isfinite, markov)):
        raise NumericFailure(
            "realized Markov parameters are not finite; the record's values "
            "are out of working range"
        )
    return markov


def _cube_denominator_route(real, markov, magnitudes) -> dict:
    """Cross-check: the order-12 characteristic polynomial route.

    Generic bindings realize the full order 12, where the s^10 coefficient
    v3 plus the first and third Markov parameters pin the same three
    parameters through the pinned elimination system.
    """
    from .symca import cube_equations

    char = np.poly(real.a_cont)
    v1 = Fraction(float(-markov[1]))
    v3 = Fraction(float(char[2]))
    v2 = -(Fraction(float(markov[3])) + v3 * Fraction(float(markov[1])))
    _, eqs = cube_equations(v1, v2, v3)
    solved = solve_identifiability(eqs, square_vars=("t2", "t3"))
    if solved.verdict != "unique":
        return {"agrees": False, "verdict": solved.verdict}
    theta = solved.solutions[0]
    alt = {
        "ha": abs(float(theta["t1"])),
        "hb": math.sqrt(float(theta["t2"])),
        "h1": math.sqrt(float(theta["t3"])),
    }
    worst = max(abs(alt[k] - magnitudes[k]) for k in alt)
    return {"agrees": worst < 1e-6, "worst_gap": worst, "magnitudes": alt}
