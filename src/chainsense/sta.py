"""Similarity-transformation identifiability tests.

Two numeric models share the same impulse response iff a nonsingular S
exists with S A(h) = A(h') S, S x0 = x0, C = C S.  The three constraints
are linear in the dim^2 entries of S, so the solution set is an affine
subspace; we compute it by least squares plus an SVD nullspace, then
search it for a nonsingular element.

Verdicts are deliberately three-valued: "equivalent" needs a certified
nonsingular witness, "inequivalent" needs a clearly infeasible constraint
system, and anything in between stays "degenerate" with diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exact, realization, ssm
from .errors import BudgetExceeded, DimensionMismatch
from .prng import rational_binding, spawn_rng
from .ssm import StateSpaceModel

EQUIV_RESIDUAL_SCALE = 1e-9
INEQUIV_RESIDUAL = 1e-4
DET_THRESHOLD = 1e-6
NONSINGULAR_DRAWS = 64
SIGN_ORBIT_CAP = 20
#: sign patterns checked per scan trial; more flippable couplings than
#: log2 of this are sampled instead of enumerated
MAX_SIGN_PATTERNS = 8


@dataclass
class STAInstance:
    dim: int
    binding_h: dict
    binding_h_prime: dict
    residual: float
    affine_dim: int
    s_matrix: np.ndarray | None
    det_s: float
    verdict: str
    diagnostics: dict = field(default_factory=dict)


def _stacked_system(a_h, a_hp, x0, c):
    n = a_h.shape[0]
    eye = np.eye(n)
    m_h = np.kron(eye, a_h.T) - np.kron(a_hp, eye)
    g_x0 = np.kron(eye, x0[None, :])
    g_c = np.kron(c[None, :], eye)
    m = np.vstack([m_h, g_x0, g_c])
    rhs = np.concatenate([np.zeros(n * n), x0, c])
    return m, rhs


def solve_similarity_raw(a_h, a_hp, x0, c, seed: int = 0) -> STAInstance:
    """Core affine solve on explicit numeric triples (no minimality check)."""
    a_h = np.asarray(a_h, dtype=float)
    a_hp = np.asarray(a_hp, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    c = np.asarray(c, dtype=float)
    n = a_h.shape[0]
    m, rhs = _stacked_system(a_h, a_hp, x0, c)
    vec_p, _, _, svals = np.linalg.lstsq(m, rhs, rcond=None)
    residual = float(np.linalg.norm(m @ vec_p - rhs))
    tol = (svals[0] if len(svals) and svals[0] > 0 else 1.0)
    tol *= max(m.shape) * np.finfo(float).eps * 64
    _, s_all, vt = np.linalg.svd(m)
    null_mask = np.ones(m.shape[1], dtype=bool)
    null_mask[: len(s_all)] = s_all < tol
    null_basis = vt[null_mask]
    affine_dim = null_basis.shape[0]
    scale = max(1.0, float(np.linalg.norm(a_h)))
    best_s = vec_p.reshape(n, n)
    best_det = float(np.linalg.det(best_s))
    if affine_dim and residual <= EQUIV_RESIDUAL_SCALE * scale:
        rng = np.random.default_rng(seed)
        for _ in range(NONSINGULAR_DRAWS):
            if abs(best_det) > DET_THRESHOLD:
                break
            cand = (vec_p + null_basis.T @ rng.normal(size=affine_dim)).reshape(n, n)
            d = float(np.linalg.det(cand))
            if abs(d) > abs(best_det):
                best_s, best_det = cand, d
    if residual <= EQUIV_RESIDUAL_SCALE * scale and abs(best_det) > DET_THRESHOLD:
        verdict = "equivalent"
    elif residual >= INEQUIV_RESIDUAL:
        verdict = "inequivalent"
    else:
        verdict = "degenerate"
    return STAInstance(
        dim=n,
        binding_h={},
        binding_h_prime={},
        residual=residual,
        affine_dim=affine_dim,
        s_matrix=best_s if verdict == "equivalent" else None,
        det_s=best_det,
        verdict=verdict,
        diagnostics={"s_fro": float(np.linalg.norm(best_s)), "scale": scale},
    )


def solve_similarity(
    model: StateSpaceModel, binding_h, binding_h_prime, seed: int = 0
) -> STAInstance:
    """STA solve on a catalog model; requires minimality at both bindings."""
    for binding in (binding_h, binding_h_prime):
        real = realization.kalman_minimal(model, binding)
        if real.order != model.dim:
            raise DimensionMismatch(
                f"model of dim {model.dim} is minimal only to order {real.order} "
                "at this binding; reduce with realization.spt_minimal or "
                "realization.kalman_minimal first"
            )
    a_h, b, c = ssm.evaluate(model, binding_h)
    a_hp, _, _ = ssm.evaluate(model, binding_h_prime)
    inst = solve_similarity_raw(a_h, a_hp, b, c, seed=seed)
    inst.binding_h = dict(binding_h)
    inst.binding_h_prime = dict(binding_h_prime)
    return inst


def solve_similarity_exact(a_h, a_hp, x0, c, seed: int = 0) -> STAInstance:
    """Exact-rational re-derivation of the verdict (small dims only).

    Consistency is a rank fact, not a tolerance; nonsingularity of the
    witness is an exact determinant.
    """
    n = len(a_h)
    if n > 8:
        raise DimensionMismatch("exact STA re-derivation limited to dim <= 8")
    nn = n * n
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * nn
            # (S a_h)_{ij} = sum_k S[i,k] a_h[k][j]
            for k in range(n):
                row[i * n + k] += Fraction(a_h[k][j])
            # (a_hp S)_{ij} = sum_k a_hp[i][k] S[k,j]
            for k in range(n):
                row[k * n + j] -= Fraction(a_hp[i][k])
            rows.append(row)
            rhs.append(Fraction(0))
    for i in range(n):
        row = [Fraction(0)] * nn
        for j in range(n):
            row[i * n + j] = Fraction(x0[j])
        rows.append(row)
        rhs.append(Fraction(x0[i]))
    for j in range(n):
        row = [Fraction(0)] * nn
        for i in range(n):
            row[i * n + j] = Fraction(c[i])
        rows.append(row)
        rhs.append(Fraction(c[j]))
    got = exact.solve_general(rows, rhs)
    if got is None:
        return STAInstance(
            dim=n, binding_h={}, binding_h_prime={}, residual=float("inf"),
            affine_dim=0, s_matrix=None, det_s=0.0, verdict="inequivalent",
        )
    particular, basis = got
    s_mat = [[particular[i * n + j] for j in range(n)] for i in range(n)]
    d = exact.det(s_mat)
    best = s_mat
    if d == 0 and basis:
        rng = spawn_rng(seed, "exact-sta")
        for _ in range(NONSINGULAR_DRAWS):
            coeffs = [Fraction(int(z), 8) for z in rng.integers(-16, 17, len(basis))]
            vec = list(particular)
            for t, v in zip(coeffs, basis):
                for idx in range(nn):
                    vec[idx] += t * v[idx]
            cand = [[vec[i * n + j] for j in range(n)] for i in range(n)]
            d_cand = exact.det(cand)
            if d_cand != 0:
                best, d = cand, d_cand
                break
    verdict = "equivalent" if d != 0 else "degenerate"
    return STAInstance(
        dim=n, binding_h={}, binding_h_prime={}, residual=0.0,
        affine_dim=len(basis),
        s_matrix=np.array([[float(v) for v in row] for row in best]),
        det_s=float(d), verdict=verdict,
    )


# -- sign orbits ------------------------------------------------------------


def sign_orbit(binding: dict) -> list[dict]:
    """All sign patterns of the binding (2^k members, k capped at 20)."""
    params = sorted(binding)
    if len(params) > SIGN_ORBIT_CAP:
        raise BudgetExceeded(f"sign orbit over {len(params)} parameters")
    out = []
    for pattern in itertools.product((1, -1), repeat=len(params)):
        out.append({p: eps * binding[p] for p, eps in zip(params, pattern)})
    return out


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


def _minimal_triple(model: StateSpaceModel, binding: dict[str, Fraction]):
    """Float (A, x0, C) of the minimal system at an exact binding."""
    cfg = model.config
    if cfg.n_chain % 2 == 1:
        minimal, _ = realization.spt_minimal(model, binding)
        a = np.array([[float(v) for v in row] for row in minimal.a_min])
        b = np.array([float(v) for v in minimal.b_min])
        c = np.array([float(v) for v in minimal.c_min])
        return a, b, c
    return ssm.evaluate(model, binding)


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
    trial_rows = []
    for t in range(trials):
        rng = spawn_rng(seed, "scan", config.scheme_tag, str(config.n_chain), str(t))
        binding = rational_binding(model.param_ids, rng)
        a_h, b, c = _minimal_triple(model, binding)
        patterns = []
        if 2 ** len(flippable) <= MAX_SIGN_PATTERNS:
            for r in range(1, len(flippable) + 1):
                patterns.extend(itertools.combinations(flippable, r))
        else:
            patterns = [tuple(p for p in flippable if rng.random() < 0.5)
                        for _ in range(MAX_SIGN_PATTERNS)]
            patterns = [p if p else (flippable[0],) for p in patterns]
        worst_equiv = 0.0
        n_equiv = 0
        witness = None
        for pat in patterns:
            flipped = flip_binding(binding, set(pat))
            a_hp, _, _ = _minimal_triple(model, flipped)
            inst = solve_similarity_raw(a_h, a_hp, b, c, seed=seed + 1)
            worst_equiv = max(worst_equiv, inst.residual)
            if inst.verdict == "equivalent":
                n_equiv += 1
                if witness is None:
                    witness = inst.s_matrix
        best_inequiv = float("inf")
        n_inequiv = 0
        for k in range(n_perturb):
            pid = model.param_ids[int(rng.integers(0, len(model.param_ids)))]
            delta = Fraction(int(rng.integers(1, 9)), 16)  # 1/16 .. 1/2, >= 5%
            factor = 1 + delta if rng.random() < 0.5 else 1 / (1 + delta)
            perturbed = dict(binding)
            perturbed[pid] = binding[pid] * factor
            a_hp, _, _ = _minimal_triple(model, perturbed)
            inst = solve_similarity_raw(a_h, a_hp, b, c, seed=seed + 2)
            best_inequiv = min(best_inequiv, inst.residual)
            if inst.verdict == "inequivalent":
                n_inequiv += 1
        trial_rows.append(ScanTrial(
            binding={k: float(v) for k, v in binding.items()},
            sign_flips_checked=len(patterns),
            sign_flips_equivalent=n_equiv,
            perturbations_checked=n_perturb,
            perturbations_inequivalent=n_inequiv,
            worst_equiv_residual=worst_equiv,
            best_inequiv_residual=best_inequiv,
            witness_s=witness,
        ))
    report = ScanReport(config.scheme_tag, config.n_chain, trial_rows, None, "")
    report.identifiable_in_magnitude = report.all_clean
    report.reason = ("sign flips equivalent, magnitude perturbations "
                     "inequivalent at every trial" if report.all_clean
                     else "at least one trial failed its expected verdict")
    return report
