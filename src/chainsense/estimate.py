"""Data side: quantum simulation oracle, record generation, ERA, recovery.

A record is the sampled impulse response of the linear model (each sample
an ensemble expectation; shot noise enters as additive Gaussian terms).
ERA realizes a minimal discrete model from the Hankel of those samples and
returns its modal form: poles from the principal logarithms of its
eigenvalues, which the sampling-interval guard keeps branch-safe, and residues.

Recovery never uses the realized basis directly: everything is read off
realization-invariant data (Markov parameters), so it survives the
order collapse that occurs on degenerate parameter surfaces.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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
    basis_action,
    dense_hamiltonian,
    excitation_sectors,
    from_letters,
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

#: a noiseless record's largest sample times this bounds the realized
#: model's miss on any sample
FIT_RELATIVE = 1e-8

#: a noisy record's realized model must miss by at most this many sigma (RMS)
FIT_NOISE_RMS = 3.0

RECORD_HEADER = ("t", "y", "sigma", "seed", "scheme")


# -- exact quantum oracle ----------------------------------------------------


def exact_quantum_expectation(
    ham: HamiltonianSpec,
    state: InitialState,
    meas: PauliString,
    binding: dict[str, float],
    times,
) -> np.ndarray:
    """Tr(e^{iHt} M e^{-iHt} rho0) at each time, solved per excitation sector.

    The exchange Hamiltonian conserves the number of excitations, so it is
    block diagonal on the Hamming-weight sectors of the computational
    basis, and each block is diagonalized on its own.  M and each string
    X_S of rho0 = 2^-n sum_{S within the prepared qubits} X_S send a basis
    state to one signed basis state, so their blocks between two sectors
    are gathered rows of an eigenbasis.  In eigenbases (V_k, w_k),
    y(t) = sum over sector pairs of e_k(t)^T W e_k'(t)^*, with
    e_k(t) = e^{i w_k t} and W = (V_k^H M V_k') * conj(V_k^H rho0 V_k').
    No 2^n x 2^n matrix is formed; the oracle keeps the 14-qubit cap.

    H also commutes with the global flip F = X^{(x)n}, which maps sector k
    onto sector n - k in reversed order.  So H_{n-k} = R H_k R, with R the
    order reversal, and V_{n-k} = V_k[::-1] with the same eigenvalues:
    only the sectors k <= n/2 are diagonalized.  F M F = eps M, with
    eps = -1 to the number of Y and Z letters of M, and F fixes every X_S,
    so the pair (n - k, n - k') contributes eps times the pair (k, k').
    Each mirrored pair is summed once with weight 1 + eps; a pair that is
    its own mirror has weight 1.  A term with an odd number of Y and Z
    letters (a Z field, say) breaks F and is refused.
    """
    n = ham.n_qubits
    sectors = excitation_sectors(n)
    for pid, term in ham.terms:
        if term.z_mask.bit_count() & 1:
            raise InadmissibleConfig(
                f"Hamiltonian term {pid} has an odd number of Y and Z "
                "letters, so it breaks the global flip symmetry the oracle "
                "uses"
            )
    position = np.empty(1 << n, dtype=np.intp)
    for sector in sectors:
        position[sector] = np.arange(len(sector))
    t = np.atleast_1d(np.asarray(times, dtype=float))
    everything = np.arange(1 << n)
    m_targets, m_signs, m_phase = basis_action(meas, everything)
    flip = -1 if meas.z_mask.bit_count() & 1 else 1
    prepared = sorted(state.prepared_x)
    rho_strings = [
        basis_action(from_letters(n, {q: "X" for q in subset}), everything)[:2]
        for r in range(len(prepared) + 1)
        for subset in itertools.combinations(prepared, r)
    ]
    half = n // 2

    # huge couplings overflow the phases; the finiteness check below
    # refuses what comes out
    with np.errstate(over="ignore", invalid="ignore"):
        # the blocks share one buffer, freed once the last is solved, so
        # the largest (the middle sector) is solved first, before any
        # eigenbasis is kept
        solved = [np.linalg.eigh(block) for block in reversed(
            dense_hamiltonian(ham, binding, spans=sectors[:half + 1]))]
        eigen = [(v, np.exp(1j * np.outer(t, w))) for w, v in reversed(solved)]
        eigen += [(v[::-1], e) for v, e in reversed(eigen[:n - half])]

        y = np.zeros(len(t), dtype=complex)
        for j, src in enumerate(sectors[:half + 1]):
            v_src, e_src = eigen[j]
            targets = m_targets[src]
            m_sectors = np.bitwise_count(targets)
            x_sectors = [(x[src], x_sign[src], np.bitwise_count(x[src]))
                         for x, x_sign in rho_strings]
            for k in np.unique(m_sectors):
                if (k, j) == (n - k, n - j):
                    weight = 1
                elif j == n - j and k > n - k:
                    continue  # its mirror (n - k, j) is summed instead
                else:
                    weight = 1 + flip
                if not weight:
                    continue
                v_dst, e_dst = eigen[k]
                # a string that reaches no state of sector k (the identity
                # string whenever k != j) has a zero block there
                x_hits = [(x, x_sign, hit) for x, x_sign, x_sec in x_sectors
                          if (hit := x_sec == k).any()]
                if not x_hits:
                    continue
                m_eig = _eigen_block(targets, m_signs[src], m_sectors == k,
                                     position, v_dst, v_src)
                rho_eig = sum(_eigen_block(x, x_sign, hit, position, v_dst, v_src)
                              for x, x_sign, hit in x_hits)
                y += weight * np.sum((e_dst @ (m_eig * rho_eig.conj()))
                                     * e_src.conj(), axis=1)
        y *= m_phase / (1 << n)
    if not np.isfinite(y).all():
        raise NumericFailure("quantum oracle produced a non-finite expectation")
    if np.max(np.abs(y.imag)) > 1e-9:
        raise NumericFailure("quantum oracle produced a non-real expectation")
    y = y.real
    if np.max(np.abs(y)) > 1.0 + 1e-9:
        raise NumericFailure("quantum oracle expectation left [-1, 1]")
    return y


def _eigen_block(targets, signs, hit, position, v_dst, v_src) -> np.ndarray:
    """V_k^H P V_src for P|s> = sign_s |target_s> on the source sector.

    Only the source states ``hit`` marks, those P sends into sector k,
    contribute, each pairing its row of V_src with its target's row of V_k.
    """
    rows = v_dst[position[targets[hit]]]
    return rows.conj().T @ (signs[hit, None] * v_src[hit])


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
) -> MeasurementRecord:
    """Sample the linear model's impulse response on a uniform grid,
    optionally with noise."""
    if count < 2:
        raise InadmissibleConfig("a record needs at least two samples")
    ssm.check_binding(model, binding)
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
    values = ssm.impulse_response(model, binding, times)
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


def save_record(record: MeasurementRecord) -> str:
    """CSV text with header t,y,sigma,seed,scheme; floats via repr
    (bit-exact).

    sigma, seed and scheme are the same on every row, so the writer quotes
    them once, as the suffix every ``t,y`` pair gets.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RECORD_HEADER)
    header = buf.getvalue()
    writer.writerow(
        ["", repr(record.noise_sigma), record.seed, record.scheme_tag]
    )
    suffix = buf.getvalue()[len(header):]
    times = np.asarray(record.times, dtype=float).tolist()
    values = np.asarray(record.values, dtype=float).tolist()
    return header + "".join(
        [f"{t!r},{y!r}{suffix}" for t, y in zip(times, values)]
    )


def load_record(text: str) -> MeasurementRecord:
    """Parse the CSV text that save_record writes; any defect is
    inadmissible.

    One csv pass appends each row's fields to one flat list, so no row's
    list outlives its line, and the columns convert whole.  Only a record
    with a defect is parsed a second time, row by row, to name its first
    bad line.
    """
    lines = io.StringIO(text).readlines()
    reader = csv.reader(lines)
    width = len(RECORD_HEADER)
    fields: list[str] = []
    columns = None
    try:
        header = tuple(next(reader, ()))
        for row in reader:
            if len(row) == width:
                fields += row
            elif row:  # blank lines carry no sample; any other row is bad
                break
        else:
            if header == RECORD_HEADER:
                columns = _record_columns(fields)
    except csv.Error:
        pass  # the second parse below names the line
    if columns is None:
        _refuse_record(lines)  # raises: some line of the record is bad
    times, values, sigmas, seeds, tags = columns
    if len(times) < 2:
        raise InadmissibleConfig("record has fewer than two samples")
    if (len(set(sigmas.values())) != 1 or len(set(seeds.values())) != 1
            or len(set(tags)) != 1):
        raise InadmissibleConfig("record rows disagree on sigma/seed/scheme")
    steps = np.diff(times)
    dt = steps[0]
    if np.any(steps <= 0) or np.max(np.abs(steps - dt)) > 1e-12 * max(1.0, dt):
        raise InadmissibleConfig("record times must increase uniformly")
    return MeasurementRecord(
        times=times,
        values=values,
        dt=float(dt),
        noise_sigma=sigmas[fields[2]],
        scheme_tag=tags[0],
        seed=seeds[fields[3]],
    )


def _record_columns(fields: list[str]):
    """(times, values, sigma by string, seed by string, tags) of the
    samples' flat fields, or None when a value is malformed or out of
    range."""
    t_col, y_col, sigma_col, seed_col, tags = (
        fields[k::len(RECORD_HEADER)] for k in range(len(RECORD_HEADER)))
    try:
        times = np.fromiter(map(float, t_col), float, len(t_col))
        values = np.fromiter(map(float, y_col), float, len(y_col))
        sigmas = {text: float(text) for text in set(sigma_col)}
        seeds = {text: int(text) for text in set(seed_col)}
    except ValueError:
        return None
    if not (np.isfinite(times).all() and np.isfinite(values).all()
            and all(math.isfinite(s) and s >= 0 for s in sigmas.values())):
        return None
    return times, values, sigmas, seeds, tags


def _refuse_record(lines: list[str]) -> None:
    """Raise on the first defect of a record: a line csv cannot read, the
    header, or a bad row, whichever comes first."""
    reader = csv.reader(lines)
    rows: list[list[str]] = []
    try:
        rows.extend(reader)
    except csv.Error as err:
        if rows:  # a defect on an earlier line is named first
            _check_header(rows[0])
            _refuse_first_bad_row(rows[1:])
        raise InadmissibleConfig(
            f"record line {reader.line_num}: {err}"
        ) from None
    _check_header(rows[0] if rows else [])
    _refuse_first_bad_row(rows[1:])


def _check_header(row: list[str]) -> None:
    header = tuple(row)
    if header != RECORD_HEADER:
        raise InadmissibleConfig(
            f"record header {header!r} does not match {RECORD_HEADER!r}"
        )


def _refuse_first_bad_row(body: list[list[str]]) -> None:
    """Raise on the first row that is malformed, non-finite or has a
    negative sigma; line numbers count the header and blank lines."""
    for lineno, row in enumerate(body, start=2):
        if not row:
            continue
        try:
            t, y, sigma, seed, _ = row
            t, y, sigma = float(t), float(y), float(sigma)
            int(seed)
        except ValueError:
            raise InadmissibleConfig(
                f"record line {lineno}: malformed row {row!r}"
            ) from None
        if not all(map(math.isfinite, (t, y, sigma))):
            raise InadmissibleConfig(
                f"record line {lineno}: non-finite value in row {row!r}"
            )
        if sigma < 0:
            raise InadmissibleConfig(
                f"record line {lineno}: negative sigma in row {row!r}"
            )


# -- ERA ---------------------------------------------------------------------


@dataclass
class ERARealization:
    """Balanced discrete realization plus its continuous modal form: the
    realized samples are y(k dt) = Re sum_j residues_j e^{poles_j k dt}."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    c_hat: np.ndarray
    order: int
    singular_values: np.ndarray
    poles: np.ndarray
    residues: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    #: era raises rather than return an unusable realization; the
    #: benchmark's trace (``perfbench/spans.py``) counts this
    verdict = "ok"


def era(
    record: MeasurementRecord,
    expected_order: int | None = None,
    max_order: int | None = None,
) -> ERARealization:
    """Ho-Kalman realization of the record's sample sequence.

    The samples of a continuous impulse response are the Markov sequence
    of the discrete pair (e^{A dt}, B, C), so the realized a_hat estimates
    e^{A dt}.  With a_hat V = V diag(lambda), the poles of A are the
    principal logarithms s_j = log(lambda_j)/dt, with residues
    rho_j = (c_hat V)_j (V^-1 b_hat)_j.  A Hankel spectrum with no gap that
    clears the threshold leaves the order ambiguous, and a selected order
    above ``max_order`` (the model dimension) cannot come from the model:
    both are refused before any realization is formed.

    The readout is scalar, so the square Hankel H0 of the first samples
    is symmetric and its symmetric eigendecomposition Q diag(lambda) Q^T
    is its SVD: singular values |lambda|, U = Q and V = Q diag(sign
    lambda).  H0 and the shifted H1 are count // 2 square, which uses
    every sample of an even-length record; of an odd-length one the last
    sample enters only the fit check.
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
    s = count // 2
    windows = np.lib.stride_tricks.sliding_window_view(values, s)
    h0, h1 = windows[:s], windows[1:s + 1]
    try:
        w, q = np.linalg.eigh(h0)
    except np.linalg.LinAlgError:
        raise NumericFailure(
            "Hankel eigendecomposition (the symmetric Hankel's SVD) did not "
            "converge; the record's values are out of working range"
        ) from None
    by_size = np.argsort(-np.abs(w), kind="stable")
    w, u = w[by_size], q[:, by_size]
    sing = np.abs(w)
    diagnostics = {"hankel_shape": (s, s), "trimmed_zeros": trimmed}

    order, gap = _select_order(sing, record.noise_sigma, s)
    diagnostics["gap_ratio"] = gap
    if not order:
        raise NumericFailure(
            "model order ambiguous: no singular-value gap cleared the "
            f"threshold (gap ratio {gap:.3e})"
        )
    if max_order is not None and order > max_order:
        raise NumericFailure(
            f"realized order {order} exceeds the model dimension {max_order}; "
            "the record does not fit this scheme"
        )
    un = u[:, :order]
    vn = un * np.where(w[:order] < 0, -1.0, 1.0)  # lambda = 0 counts as +1
    root = np.sqrt(sing[:order])
    with np.errstate(over="ignore", invalid="ignore"):
        a_hat = (un.T @ h1 @ vn) / np.outer(root, root)
    if not np.all(np.isfinite(a_hat)):
        raise NumericFailure(
            "realized state matrix is not finite; the record's values are "
            "out of working range"
        )
    eps = np.finfo(float).eps
    if np.linalg.cond(a_hat) > 1 / eps:
        # e^{A dt} is never singular, and log 0 has no value
        raise NumericFailure(
            "realized state matrix is singular, so it is no matrix "
            "exponential; the record's values are out of working range"
        )
    b_hat = root * vn[0, :]
    c_hat = un[0, :] * root
    # a_hat is similar to the orthogonal e^{A dt}, so its eigenbasis is well
    # conditioned, and the residues need V^-1
    lam, v = np.linalg.eig(a_hat)
    eigvec_cond = float(np.linalg.cond(v))
    diagnostics["eigvec_cond"] = eigvec_cond
    if not eigvec_cond * eps <= FIT_RELATIVE:
        raise NumericFailure(
            f"modal form failed: eigenvector condition "
            f"{eigvec_cond:.3e}; the record's values are out of working range"
        )
    residues = (c_hat @ v) * np.linalg.solve(v, b_hat)
    diagnostics["fit_residual"] = _check_fit(
        values, lam, residues, record.noise_sigma
    )
    return ERARealization(
        a_hat=a_hat, b_hat=b_hat, c_hat=c_hat, order=order,
        singular_values=sing, poles=np.log(lam.astype(complex)) / record.dt,
        residues=residues, diagnostics=diagnostics,
    )


def _check_fit(values, lam, residues, noise_sigma: float) -> float:
    """How far the realized sequence misses the samples.

    A gap in the Hankel spectrum does not by itself make the realization
    fit: one wild sample can open a gap at a wrong order.  Noiseless
    records must be reproduced to FIT_RELATIVE of their largest sample,
    noisy ones to an RMS residual of FIT_NOISE_RMS sigma.

    Sample k of the realized sequence is the modal sum
    sum_j rho_j lambda_j^k, real even where log lambda_j crosses the branch.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = residues @ np.vander(lam, len(values), increasing=True)
        residual = fitted.real - values
        if noise_sigma == 0:
            miss = float(np.max(np.abs(residual)) / np.max(np.abs(values)))
            limit = FIT_RELATIVE
        else:
            miss = float(np.sqrt(np.mean(residual**2)))
            limit = FIT_NOISE_RMS * noise_sigma
    if not miss <= limit:
        raise NumericFailure(
            f"realized model does not reproduce the record: residual "
            f"{miss:.3e} against a limit of {limit:.3e}"
        )
    return miss


def _select_order(sing: np.ndarray, noise_sigma: float, size: int):
    """(order, gap ratio) at the first spectral gap that clears the
    threshold; order 0 when none does.

    Later gaps are ratios between noise-floor singular values and can dip
    arbitrarily low by chance, so the scan stops at the first qualifying
    drop: that is the signal/noise boundary.
    """
    limit = min(int((sing > 0).sum()), len(sing) - 1)
    if limit == 0:
        return 0, math.inf
    ratios = sing[1 : limit + 1] / sing[:limit]
    threshold = (
        NOISELESS_GAP
        if noise_sigma == 0
        else 10.0 * noise_sigma * math.sqrt(float(size))
    )
    for k, gap in enumerate(ratios):
        if gap < threshold:
            return k + 1, float(gap)
    return 0, float(ratios.min())


# -- parameter recovery ------------------------------------------------------


@dataclass
class RecoveryResult:
    magnitudes: dict[str, float]
    method: str
    realization: ERARealization
    diagnostics: dict = field(default_factory=dict)


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
    # a record far out of range overflows; recover_parameters refuses it
    with np.errstate(over="ignore"):
        for j in range(1, size):
            moments[2 * j] = (-1.0) ** j * (signed_first * markov[2 * j - 1])
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
    is refused, and so is a ladder realization whose order is not the
    structural N + 2 - (N mod 2): read at a longer N, a shorter chain's
    record would give made-up couplings.
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
        max_order = n + 2
    elif n > 2:
        raise UnidentifiableScheme(
            f"cube scheme recovery is established for chains of one or two "
            f"spins; N={n} is undecided here"
        )
    else:
        model = ssm.build(config)
        expected, max_order = 2 * n + 2, model.dim
    real = era(record, expected_order=expected, max_order=max_order)
    markov = _realized_markov(real, 2 * n + 2)
    diagnostics = {"signed_first_coupling": float(-markov[1])}
    if capability == "ladder":
        betas = moment_chain_magnitudes(markov, n + 2)
        names = config.hamiltonian().param_ids
        magnitudes = {name: float(b) for name, b in zip(names, betas)}
        method = "moment-chain"
    else:
        solved, magnitudes = cube_elimination(
            model, [Fraction(float(v)) for v in markov]
        )
        if magnitudes is None:
            raise NumericFailure(
                f"elimination verdict {solved.verdict!r} on the Markov "
                f"system; detail: {solved.detail or solved.count}"
            )
        method = "markov-elimination"
        if record.noise_sigma == 0 and n == 2 and real.order == 12:
            diagnostics["denominator_route"] = _cube_denominator_route(
                real, markov, magnitudes
            )
    if not all(map(math.isfinite, magnitudes.values())):
        raise NumericFailure(
            "recovered magnitudes are not finite; the record's values are "
            "out of working range"
        )
    if capability == "ladder" and real.order != expected:
        raise NumericFailure(
            f"realized order {real.order} differs from the ladder's structural "
            f"order {expected} at N={n}; the record does not fit this scheme"
        )
    return RecoveryResult(magnitudes, method, real, diagnostics)


def _realized_markov(real: ERARealization, count: int) -> np.ndarray:
    """Markov parameters m_k = Re sum_j rho_j s_j^k, k < count.

    A real A has conjugate poles and residues, so each sum is real to
    rounding.  A realized eigenvalue on the negative real axis has no
    partner (its logarithm is log|lambda| + i pi), so the sums come back
    complex: only these continuous sums see a crossed principal branch.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = real.residues[:, None] * np.vander(
            real.poles, count, increasing=True)
        markov = terms.sum(axis=0)
        scale = np.abs(terms).sum(axis=0)
    if not np.isfinite(markov).all():
        raise NumericFailure(
            "realized Markov parameters are not finite; the record's values "
            "are out of working range"
        )
    if np.any(np.abs(markov.imag) > 1e-8 * scale):
        raise NumericFailure(
            "realized Markov parameters came back complex; sampling likely "
            "crossed the principal branch"
        )
    return markov.real


def _cube_theta(v1: Fraction, v2: Fraction, v3: Fraction):
    """(t1, t2, t3) = (h_alpha, h_beta^2, h_1^2) from the cube's N = 2
    invariants, or None when v1 = 0 or a square comes out negative.

    The pinned N = 2 cube system (``cube_equations`` in the tests'
    referees) is triangular; these are its closed forms (acceptance 07).
    """
    if v1 == 0:
        return None
    t2 = (-v1 ** 3 + v1 * v3 - v2) / (4 * v1)
    t3 = (-33 * v1 ** 3 - 7 * v1 * v3 + 11 * v2) / (44 * v1)
    return None if t2 < 0 or t3 < 0 else (v1, t2, t3)


def _cube_denominator_route(real, markov, magnitudes) -> dict:
    """Cross-check: the order-12 characteristic polynomial route.

    Generic bindings realize the full order 12, where the s^10 coefficient
    v3 plus the first and third Markov parameters pin the same three
    parameters in closed form.
    """
    char = np.poly(real.poles).real
    v1 = Fraction(float(-markov[1]))
    v3 = Fraction(float(char[2]))
    v2 = -(Fraction(float(markov[3])) + v3 * Fraction(float(markov[1])))
    theta = _cube_theta(v1, v2, v3)
    if theta is None:
        return {"agrees": False}
    t1, t2, t3 = theta
    alt = {
        "ha": abs(float(t1)),
        "hb": math.sqrt(float(t2)),
        "h1": math.sqrt(float(t3)),
    }
    worst = max(abs(alt[k] - magnitudes[k]) for k in alt)
    return {"agrees": worst < 1e-6, "worst_gap": worst, "magnitudes": alt}
