"""Similarity-transformation identifiability tests.

Two minimal numeric models share the same impulse response iff a
nonsingular S exists with S A(h) = A(h') S, S x0 = x0, C = C S, and then S
is unique (Kalman/Ho-Kalman realization theory).  The ladder's minimal A
is upper Hessenberg and x0 = e_1, so the unit vectors are its own Krylov
basis (Lanczos; Parlett, The Symmetric Eigenvalue Problem, ch. 7), and S
is the upper-triangular T with T e_1 = e_1 and T A = A' T, fixed column by
column in O(dim^3).  T x0 = x0 then holds by construction, so the
residual of S A = A' S and C S = C decides.  The scan certifies the
ladder only, on one rectangular block of bindings per call.

Verdicts are deliberately three-valued: "equivalent" needs a small residual
and a clearly nonsingular S, "inequivalent" needs a clearly violated
constraint, and anything in between (or a Krylov space that closes early)
stays "degenerate" with diagnostics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact, realization, ssm
from .errors import AtypicalParameters, DimensionMismatch, NumericFailure
from .prng import rational_binding, spawn_rng
from .ssm import StateSpaceModel

EQUIV_RESIDUAL_SCALE = 1e-9
INEQUIV_RESIDUAL = 1e-4
DET_THRESHOLD = 1e-6
#: largest relative gap allowed between the float and the exact reduction
REFEREE_TOLERANCE = 1e-9
#: sign patterns checked per scan trial; more flippable couplings than
#: log2 of this are sampled instead of enumerated
MAX_SIGN_PATTERNS = 8


@dataclass
class STAInstance:
    dim: int
    residual: float
    #: 0 when the certificate is unique; otherwise the Krylov directions
    #: it could not pin down
    affine_dim: int
    s_matrix: np.ndarray | None
    det_s: float
    verdict: str
    diagnostics: dict = field(default_factory=dict)


def _breakdown_steps(stack) -> np.ndarray:
    """Steps Arnoldi from e_1 reaches on each upper Hessenberg A of a
    stack: it stops after step j where |A[j+1, j]| is at or below its
    breakdown tolerance."""
    tol = ssm.breakdown_tolerance(stack)[:, None]
    alive = np.abs(np.diagonal(stack, -1, axis1=1, axis2=2)) > tol
    return 1 + np.logical_and.accumulate(alive, axis=1).sum(axis=1)


def solve_similarity_raw(a_h, a_hp, x0, c) -> STAInstance | list[STAInstance]:
    """Krylov certificate on explicit numeric triples (no minimality check).

    Every A must be upper Hessenberg and x0 a nonzero multiple of e_1;
    other input is refused with ``DimensionMismatch``.  ``a_hp`` is one
    matrix, which gives one instance, or a stack of shape (k, n, n), which
    gives a list of k instances.  ``a_h`` is one matrix, the reference of
    every candidate, or a stack matched one to one with ``a_hp``.  Each
    pair gets its own verdict, and a pair in which either Krylov space
    closes early is degenerate with its own ``breakdown_step``.  S x0 = x0
    holds by construction, so the residual is that of S A = A' S and
    C S = C.
    """
    a_h, a_hp, x0, c = (np.asarray(x, dtype=float) for x in (a_h, a_hp, x0, c))
    stack = a_hp[None] if a_hp.ndim == 2 else a_hp
    n = stack.shape[-1]
    if (np.tril(a_h, -2).any() or np.tril(stack, -2).any()
            or not x0[0] or x0[1:].any()):
        raise DimensionMismatch(
            "the certificate needs upper Hessenberg A and x0 on e_1")
    refs = np.broadcast_to(a_h, stack.shape)
    scales = np.maximum(1.0, np.linalg.norm(refs, axis=(1, 2)))
    steps = np.minimum(_breakdown_steps(refs), _breakdown_steps(stack))
    full = steps == n
    a, ap = refs[full], stack[full]
    t = np.zeros(ap.shape)
    t[:, 0, 0] = 1.0
    for j in range(n - 1):
        t[:, :, j + 1] = ((ap @ t[:, :, j, None] - t[:, :, : j + 1]
                           @ a[:, : j + 1, j, None])[:, :, 0]
                          / a[:, j + 1, j, None])
    s = np.zeros(stack.shape)
    s[full] = t
    residuals = np.sqrt(np.sum((s @ refs - stack @ s) ** 2, axis=(1, 2))
                        + np.sum((c @ s - c) ** 2, axis=1))
    dets = np.linalg.det(s)
    out = []
    for reached, scale, residual, det_s, s_i in zip(
            steps.tolist(), scales.tolist(), residuals.tolist(), dets.tolist(), s):
        if reached < n:
            out.append(STAInstance(
                dim=n, residual=float("inf"), affine_dim=n - reached,
                s_matrix=None, det_s=0.0, verdict="degenerate",
                diagnostics={"breakdown_step": reached, "scale": scale},
            ))
            continue
        if residual <= EQUIV_RESIDUAL_SCALE * scale and abs(det_s) > DET_THRESHOLD:
            verdict = "equivalent"
        elif residual >= INEQUIV_RESIDUAL:
            verdict = "inequivalent"
        else:
            verdict = "degenerate"
        out.append(STAInstance(
            dim=n, residual=residual, affine_dim=0,
            s_matrix=s_i if verdict == "equivalent" else None,
            det_s=det_s, verdict=verdict, diagnostics={"scale": scale},
        ))
    return out[0] if a_hp.ndim == 2 else out


def solve_similarity_exact(a_h, a_hp, x0, c) -> STAInstance:
    """Exact-rational re-derivation of the verdict.

    S = K' K^{-1} from the exact Krylov matrices K = [x0, A x0, ...] and K'
    is the only candidate; whether it meets S A = A' S and C S = C is an
    identity, not a tolerance, and its nonsingularity an exact determinant.
    """
    n = len(a_h)
    k_h = exact.transpose(ssm.krylov(a_h, x0, n))
    k_hp = exact.transpose(ssm.krylov(a_hp, x0, n))
    try:
        s = exact.matmul(k_hp, exact.inverse(k_h))
    except AtypicalParameters:
        return STAInstance(
            dim=n, residual=float("inf"), affine_dim=n - exact.rank(k_h),
            s_matrix=None, det_s=0.0, verdict="degenerate",
        )
    sa = exact.matmul(s, a_h)
    as_ = exact.matmul(a_hp, s)
    gaps = [u - v for row, row_p in zip(sa, as_) for u, v in zip(row, row_p)]
    gaps += [u - v for u, v in zip(exact.matvec(exact.transpose(s), c), c)]
    d = exact.det(s)
    if any(gaps):
        verdict = "inequivalent"
    else:
        verdict = "equivalent" if d != 0 else "degenerate"
    return STAInstance(
        dim=n, residual=math.sqrt(sum(g * g for g in gaps)), affine_dim=0,
        s_matrix=np.array(exact.to_floats(s)) if verdict == "equivalent" else None,
        det_s=float(d), verdict=verdict,
    )


# -- sign flips -------------------------------------------------------------


def flip_binding(binding: dict, flip_params) -> dict:
    return {k: (-v if k in flip_params else v) for k, v in binding.items()}


# -- identifiability scan ---------------------------------------------------


@dataclass
class ScanTrial:
    binding: dict
    sign_flips_checked: int
    sign_flips_equivalent: int
    perturbations_checked: int
    perturbations_inequivalent: int
    worst_equiv_residual: float
    best_inequiv_residual: float
    witness_s: np.ndarray | None


@dataclass
class ScanReport:
    scheme_tag: str
    n_chain: int
    trials: list[ScanTrial]

    @property
    def all_clean(self) -> bool:
        return all(
            t.sign_flips_equivalent == t.sign_flips_checked
            and t.perturbations_inequivalent == t.perturbations_checked
            for t in self.trials
        )


def _minimal_triple(model: StateSpaceModel, bindings):
    """Float (A, x0, C) of the minimal system at a float or exact binding.
    A list of k bindings gives A as a stack of shape (k, m, m); x0 and C do
    not depend on the binding.

    At odd N the ladder has one unobservable direction: the kernel z of A.
    With a_i = A[i, i+1], z_odd = 0 and z_{2j+2} = z_{2j} a_{2j} / a_{2j+1}.
    The structure-preserving reduction keeps the first m = dim - 1 entries
    of B and C and adds w = -z[:m] / z[m] times A[m, m-1], the last row's
    one nonzero, into column m-1: the float form of
    ``realization.a_tilde_last_column_closed_form``.
    """
    stack = isinstance(bindings, list)
    a, b, c = ssm.evaluate(model, bindings if stack else [bindings])
    if model.config.n_chain % 2:
        m = model.dim - 1
        sup = np.diagonal(a, 1, axis1=1, axis2=2)
        z = np.zeros((len(a), m + 1))
        z[:, 0] = 1.0
        z[:, 2::2] = np.cumprod(sup[:, 0::2] / sup[:, 1::2], axis=1)
        w = -z[:, :m] / z[:, m, None]
        a[:, :m, m - 1] += w * a[:, m, m - 1, None]
        a, b, c = a[:, :m, :m].copy(), b[:m], c[:m]
    return (a if stack else a[0]), b, c


def _referee(model: StateSpaceModel, binding: dict[str, Fraction], a_min) -> None:
    """Check a float odd-N reduction against the exact SPT at one binding."""
    minimal, _ = realization.spt_minimal(model, binding)
    ref = np.array(exact.to_floats(minimal.a_min))
    gap = float(np.max(np.abs(a_min - ref))) / float(np.max(np.abs(ref)))
    if gap > REFEREE_TOLERANCE:
        raise NumericFailure(
            f"float SPT reduction is {gap:.1e} (relative) away from the exact "
            f"one at N={model.config.n_chain}, above {REFEREE_TOLERANCE:g}"
        )


def identifiability_scan(
    model: StateSpaceModel,
    trials: int = 5,
    seed: int = 0,
    n_perturb: int = 20,
) -> ScanReport:
    """Identifiability-in-magnitude check of the ladder at one N.

    Every sign flip away from the known coupling must admit a nonsingular
    S (equivalent), every magnitude perturbation must not (inequivalent).
    Other schemes are refused with ``DimensionMismatch``: the orthogonal
    ones carry no output and the cube is decided by its elimination.

    Each trial draws its binding, its sign patterns and its perturbations
    from its own ``spawn_rng`` stream.  Every trial draws as many of each,
    so the bindings form a (trials, 1 + patterns + n_perturb) block,
    reduced in one stack.  At odd N each trial's reference is refereed by
    the exact reduction, and one certificate call pairs every candidate
    with its own trial's reference.
    """
    config = model.config
    if config.capability != "ladder":
        raise DimensionMismatch(
            f"the scan certifies ladder models; {config.scheme_tag} is "
            f"{config.capability}")
    flippable = [p for p in model.param_ids if p != "ha"]
    enumerated = 2 ** len(flippable) <= MAX_SIGN_PATTERNS
    n_flips = 2 ** len(flippable) - 1 if enumerated else MAX_SIGN_PATTERNS
    drawn, block = [], []
    for t in range(trials):
        rng = spawn_rng(seed, "scan", config.scheme_tag, str(config.n_chain), str(t))
        binding = rational_binding(model.param_ids, rng)
        # the block is float: float(-x) = -float(x), so a flip negates the
        # converted couplings, and a perturbation converts the one it changes
        floats = {k: float(v) for k, v in binding.items()}
        if enumerated:
            patterns = [pat for r in range(1, len(flippable) + 1)
                        for pat in itertools.combinations(flippable, r)]
        else:
            patterns = [tuple(p for p in flippable if rng.random() < 0.5)
                        or (flippable[0],) for _ in range(n_flips)]
        perturbed = []
        for _ in range(n_perturb):
            pid = model.param_ids[int(rng.integers(0, len(model.param_ids)))]
            delta = Fraction(int(rng.integers(1, 9)), 16)  # 1/16 .. 1/2, >= 5%
            factor = 1 + delta if rng.random() < 0.5 else 1 / (1 + delta)
            perturbed.append({**floats, pid: float(binding[pid] * factor)})
        drawn.append((binding, floats))
        block += [floats, *(flip_binding(floats, set(pat)) for pat in patterns),
                  *perturbed]
    a, b, c = _minimal_triple(model, block)
    m, width = len(b), n_flips + n_perturb
    a = a.reshape(trials, 1 + width, m, m)
    if config.n_chain % 2:
        for (binding, _), a_t in zip(drawn, a):
            _referee(model, binding, a_t[0])
    insts = solve_similarity_raw(np.repeat(a[:, 0], width, axis=0),
                                 a[:, 1:].reshape(-1, m, m), b, c)
    trial_rows = []
    for t, (_, floats) in enumerate(drawn):
        flips = insts[t * width: t * width + n_flips]
        perturbs = insts[t * width + n_flips: (t + 1) * width]
        equivalent = [i for i in flips if i.verdict == "equivalent"]
        trial_rows.append(ScanTrial(
            binding=floats,
            sign_flips_checked=n_flips,
            sign_flips_equivalent=len(equivalent),
            perturbations_checked=n_perturb,
            perturbations_inequivalent=sum(
                i.verdict == "inequivalent" for i in perturbs),
            worst_equiv_residual=max([0.0] + [i.residual for i in flips]),
            best_inequiv_residual=min(
                [float("inf")] + [i.residual for i in perturbs]),
            witness_s=equivalent[0].s_matrix if equivalent else None,
        ))
    return ScanReport(config.scheme_tag, config.n_chain, trial_rows)
