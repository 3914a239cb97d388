"""Similarity-transformation identifiability tests.

Two minimal numeric models share the same impulse response iff a
nonsingular S exists with S A(h) = A(h') S, S x0 = x0, C = C S, and then S
is unique (Kalman/Ho-Kalman realization theory).  The certificate builds S
in orthonormal Krylov bases: Arnoldi on (A, x0) and (A', x0) gives Q, H and
Q', H', and any such S becomes an upper-triangular T = Q'^T S Q with
T e_1 = e_1 and T H = H' T, which fixes T column by column in O(dim^3).
The residual of all three constraints at S = Q' T Q^T then decides.

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
from .errors import AtypicalParameters, NumericFailure
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


def solve_similarity_raw(a_h, a_hp, x0, c, pair=None) -> STAInstance | list[STAInstance]:
    """Krylov certificate on explicit numeric triples (no minimality check).

    ``a_hp`` is one matrix, which gives one instance, or a stack of shape
    (k, n, n), which gives a list of k instances.  ``a_h`` is one matrix,
    the reference of every candidate, or a stack of references: candidate
    i pairs with ``a_h[pair[i]]``, and without ``pair`` the stack is
    matched one to one with ``a_hp``.  One stacked ``ssm.arnoldi`` call
    forms the bases of the references and of the candidates together.  Each
    pair gets its own verdict, and a pair in which either Krylov space
    closes early is degenerate with its own ``breakdown_step``.
    """
    a_h = np.asarray(a_h, dtype=float)
    a_hp = np.asarray(a_hp, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    c = np.asarray(c, dtype=float)
    stack = a_hp[None] if a_hp.ndim == 2 else a_hp
    n = stack.shape[-1]
    refs = a_h.reshape(-1, n, n)
    if pair is None:
        pair = range(len(stack)) if a_h.ndim == 3 else [0] * len(stack)
    pair = np.asarray(pair, dtype=np.intp)
    r = len(refs)
    paired = refs[pair]
    scales = np.maximum(1.0, np.linalg.norm(paired, axis=(1, 2)))
    q, h, steps = ssm.arnoldi(np.concatenate([refs, stack]), x0, n)
    # a pair is degenerate where either of its Krylov spaces closes early
    steps = np.minimum(steps[:r][pair], steps[r:])
    full = steps == n
    if full.any():
        q, h, qp, hp = (q[:r][pair][full], h[:r][pair][full],
                        q[r:][full], h[r:][full])
        t = np.zeros(hp.shape)
        t[:, 0, 0] = 1.0
        for j in range(n - 1):
            t[:, :, j + 1] = ((hp @ t[:, :, j, None] - t[:, :, : j + 1]
                               @ h[:, : j + 1, j, None])[:, :, 0]
                              / h[:, j + 1, j, None])
        s = np.zeros(stack.shape)
        s[full] = qp @ t @ q.transpose(0, 2, 1)
        residuals = np.sqrt(
            np.sum((s @ paired - stack @ s) ** 2, axis=(1, 2))
            + np.sum((s @ x0 - x0) ** 2, axis=1)
            + np.sum((c @ s - c) ** 2, axis=1))
        dets = np.linalg.det(s)
        s_fros = np.linalg.norm(s, axis=(1, 2))
    out = []
    for i, reached in enumerate(steps):
        scale = float(scales[i])
        if reached < n:
            out.append(STAInstance(
                dim=n, residual=float("inf"), affine_dim=n - int(reached),
                s_matrix=None, det_s=0.0, verdict="degenerate",
                diagnostics={"breakdown_step": int(reached), "scale": scale},
            ))
            continue
        residual = float(residuals[i])
        det_s = float(dets[i])
        if residual <= EQUIV_RESIDUAL_SCALE * scale and abs(det_s) > DET_THRESHOLD:
            verdict = "equivalent"
        elif residual >= INEQUIV_RESIDUAL:
            verdict = "inequivalent"
        else:
            verdict = "degenerate"
        out.append(STAInstance(
            dim=n,
            residual=residual,
            affine_dim=0,
            s_matrix=s[i] if verdict == "equivalent" else None,
            det_s=det_s,
            verdict=verdict,
            diagnostics={"s_fro": float(s_fros[i]), "scale": scale},
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
    identifiable_in_magnitude: bool | None
    reason: str

    @property
    def all_clean(self) -> bool:
        return all(
            t.sign_flips_equivalent == t.sign_flips_checked
            and t.perturbations_inequivalent == t.perturbations_checked
            for t in self.trials
        )


def _minimal_triple(model: StateSpaceModel, bindings):
    """Float (A, x0, C) of the minimal system at an exact binding.  A list
    of k bindings gives A as a stack of shape (k, m, m), reduced by one
    stacked Arnoldi; x0 and C do not depend on the binding.

    At odd N the ladder has one unobservable direction z, orthogonal to the
    observability Krylov space of dim m = dim - 1.  The structure-preserving
    reduction keeps the first m entries of B and C and folds A's last row
    into the rest with w = -z[:m] / z[m]: the float form of
    ``realization.spt_minimal``, whose w = Pbar^{-1} p.
    """
    stack = isinstance(bindings, list)
    a, b, c = ssm.evaluate(model, bindings if stack else [bindings])
    if model.config.n_chain % 2:
        m = model.dim - 1
        q, _, steps = ssm.arnoldi(a.transpose(0, 2, 1), c, m)
        if np.any(steps < m):
            raise AtypicalParameters("observability space closes early at this binding")
        z = np.zeros((len(a), m + 1))
        z[:, m] = 1.0
        for _ in range(2):
            z -= (q @ (q.transpose(0, 2, 1) @ z[:, :, None]))[:, :, 0]
        w = -z[:, :m] / z[:, m, None]
        a = a[:, :m, :m] + w[:, :, None] * a[:, None, m, :m]
        b, c = b[:m], c[:m]
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
    """Generic identifiability-in-magnitude check for one scheme and N.

    Ladder: every sign flip away from the known coupling must admit a
    nonsingular S (equivalent), every magnitude perturbation must not
    (inequivalent).  Orthogonal schemes are vacuously unidentifiable; the
    cube scheme is decided by the symbolic route, not here.

    Each trial draws its binding, sign patterns and perturbations from its
    own ``spawn_rng`` stream.  Every trial's bindings are then reduced as
    one stack, each trial's reference is refereed on its own slice at odd
    N, and one certificate call takes the trials' references and pairs
    every candidate with its own trial's.
    """
    config = model.config
    if config.capability == "orthogonal":
        return ScanReport(config.scheme_tag, config.n_chain, [],
                          identifiable_in_magnitude=False,
                          reason="output is identically zero for this scheme")
    if config.capability == "cube":
        return ScanReport(config.scheme_tag, config.n_chain, [],
                          identifiable_in_magnitude=None,
                          reason="decided by the symbolic elimination route")
    flippable = [p for p in model.param_ids if p != "ha"]
    drawn, bindings = [], []
    for t in range(trials):
        rng = spawn_rng(seed, "scan", config.scheme_tag, str(config.n_chain), str(t))
        binding = rational_binding(model.param_ids, rng)
        patterns = []
        if 2 ** len(flippable) <= MAX_SIGN_PATTERNS:
            for r in range(1, len(flippable) + 1):
                patterns.extend(itertools.combinations(flippable, r))
        else:
            patterns = [tuple(p for p in flippable if rng.random() < 0.5)
                        for _ in range(MAX_SIGN_PATTERNS)]
            patterns = [p if p else (flippable[0],) for p in patterns]
        perturbed = []
        for _ in range(n_perturb):
            pid = model.param_ids[int(rng.integers(0, len(model.param_ids)))]
            delta = Fraction(int(rng.integers(1, 9)), 16)  # 1/16 .. 1/2, >= 5%
            factor = 1 + delta if rng.random() < 0.5 else 1 / (1 + delta)
            perturbed.append({**binding, pid: binding[pid] * factor})
        flipped = [flip_binding(binding, set(pat)) for pat in patterns]
        drawn.append((binding, len(patterns), len(bindings)))
        bindings += [binding, *flipped, *perturbed]
    a, b, c = _minimal_triple(model, bindings)
    pair, cands = [], []
    for t, (binding, n_flips, start) in enumerate(drawn):
        if config.n_chain % 2:
            _referee(model, binding, a[start])
        pair += [t] * (n_flips + n_perturb)
        cands += range(start + 1, start + 1 + n_flips + n_perturb)
    insts = iter(solve_similarity_raw(
        a[[start for _, _, start in drawn]], a[cands], b, c, pair))
    trial_rows = []
    for binding, n_flips, _ in drawn:
        flips = [next(insts) for _ in range(n_flips)]
        perturbs = [next(insts) for _ in range(n_perturb)]
        equivalent = [i for i in flips if i.verdict == "equivalent"]
        trial_rows.append(ScanTrial(
            binding={k: float(v) for k, v in binding.items()},
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
    report = ScanReport(config.scheme_tag, config.n_chain, trial_rows, None, "")
    report.identifiable_in_magnitude = report.all_clean
    report.reason = ("sign flips equivalent, magnitude perturbations "
                     "inequivalent at every trial" if report.all_clean
                     else "at least one trial failed its expected verdict")
    return report
