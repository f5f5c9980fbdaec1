"""Single-step maps and limit-map drivers for intersection retractions.

Every retraction here produces a point of M_r = M1 cap M2 by iterating a
cheap step map from V = x + eta:

 - apm_step: alternate the two exact projections (linear rate),
 - iap_step: replace the sphere projection by its linearization,
 - newton_slra_step: project onto M1 intersected with the tangent slice of
   M2 at the projected point (quadratic rate, Schur or Woodbury solve),
 - relaxed_newton_slra_step: same with the s slice constraints aggregated
   into one (scalar Schur system),
 - aphl_step: dissolve the affine block into a correction along the sphere
   tangents (iterates live on M2),
 - gwa_iterate / gwa_newton_iterate: dual ascent for the exact metric
   projection, wrapped by metric_project. gwa_iterate solves its weighted
   Gram system by one LAPACK posv call (_pos_solve), bit-identical to
   scipy.linalg.solve(..., assume_a="pos") and with the same checks.

retract() is the only way into a retraction. It checks (x, eta), forms
V = x + eta and V's residual, and hands them to one loop, _iterate, which
records the start, tests the residual bound, records each step (phase tag,
residuals, step norm) and raises MaxIterExceeded with the partial result.
_iterate is also the one place that retries a step: a step that meets a
binary row at its sphere's centre (DegenerateRow) runs once more from a
seeded 1e-12 bump of that row, and any error that escapes carries its
iteration. A kind supplies only its step policy: a step map above with the
Newton family's APM fallback, one metric_project call, or tapr's phase
machine (APM far out, iAP in a moderate neighborhood, NewtonSLRA near the
set, with merit-decrease safeguards). One RetractionConfig picks the policy
and is the only thing that configures a retraction: tapr's thresholds are
constants, and mf.schur_solve picks its route from the problem sizes.

The two linear-rate sweeps are one fused kernel, mf.sweep: the sphere step
on the binary rows, the affine projection through the cached
K = A^T (A A^T)^{-1} and the residual pass of the result, with no input
checks inside the loop. apm_step and iap_step wrap it and return its pair
(P, residual_norms(M, P)), so each linear-rate step costs one residual pass,
whose sphere violations h the next iAP sweep reuses. The policies call the
wrappers, not mf.sweep, so that a tracer of the step maps sees one span per
step.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy import linalg as sla

from . import manifold as mf
from .errors import (
    DegenerateRow,
    InitialResidualTooLarge,
    IsectError,
    MaxIterExceeded,
    SingularGram,
    SingularSchur,
    VanishingDirection,
)

__all__ = [
    "RetractionKind",
    "RetractionConfig",
    "IterTrace",
    "RetractionResult",
    "apm_step",
    "iap_step",
    "newton_slra_step",
    "relaxed_newton_slra_step",
    "aphl_step",
    "gwa_objective",
    "gwa_iterate",
    "gwa_newton_iterate",
    "metric_project",
    "retract",
    "retract_tol",
]

# weight floor for the dual iteration; keeps A Diag(v) A^T bounded
_GWA_WEIGHT_FLOOR = 1e-12

# the LAPACK routines of the dual step's weighted-Gram solve, looked up once
_POSV, _POCON, _LANGE = sla.get_lapack_funcs(("posv", "pocon", "lange"), (np.empty((1, 1)),))
_EPS = np.finfo(float).eps

# tapr's thresholds: the guard a0 on the start residual, the APM -> iAP
# switch a1 (a2 = min(a1, tol * 10^3) opens the second-order phase), and the
# merit factors: an iAP probe is slow above (1 - mu0), accepted within
# (1 - mu1), and a NewtonSLRA probe accepted within (1 - mu2) of err^2
_TAPR_A0 = 1.0
_TAPR_A1 = 1e-2
_TAPR_MU0, _TAPR_MU1, _TAPR_MU2 = 0.05, 0.1, 0.3


class RetractionKind(Enum):
    APM = "apm"
    IAP = "iap"
    NewtonSLRA = "newton-slra"
    RelaxedNewtonSLRA = "relaxed-newton-slra"
    APHL = "aphl"
    MetricGWA = "metric-gwa"
    MetricGWANewton = "metric-gwa-newton"
    TAPR = "tapr"


@dataclass(frozen=True)
class RetractionConfig:
    kind: RetractionKind = RetractionKind.APM
    tol: float = 1e-9
    maxiter: int = 200
    # residual bound is tol * (||y||_F + 1) unless this flag makes it plain tol
    tol_absolute: bool = False

    def __post_init__(self):
        if not isinstance(self.kind, RetractionKind):
            raise ValueError("kind must be a RetractionKind")
        if not self.tol >= 1e-15:
            raise ValueError("tol must be >= 1e-15")
        object.__setattr__(self, "maxiter", mf.check_count("maxiter", self.maxiter))


@dataclass
class IterTrace:
    """Parallel per-iteration records; entry 0 describes the start point."""

    phases: list = field(default_factory=list)
    combined: list = field(default_factory=list)
    binary: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)

    def record(self, phase, combined, binary, step_norm):
        self.phases.append(str(phase))
        self.combined.append(float(combined))
        self.binary.append(float(binary))
        self.step_norms.append(float(step_norm))

    def __len__(self):
        return len(self.phases)


@dataclass(frozen=True)
class RetractionResult:
    point: np.ndarray
    converged: bool
    trace: IterTrace


def retract_tol(grad_norm: float, i: int) -> float:
    """Inexactness schedule for the retraction subproblem at outer step i."""
    return max(min(grad_norm / 100.0, 1.0 / i**3), 1e-9)


# ---------------------------------------------------------------------------
# single-step maps


def apm_step(M, R):
    """One alternating-projection sweep by the fused kernel mf.sweep:
    (P, residual_norms(M, P)), P on M1 exactly."""
    return mf.sweep(M, np.asarray(R, dtype=float))


def iap_step(M, R, h=None):
    """Like apm_step with the sphere projection linearized at R. h is R's
    sphere violations (residual_norms(M, R)[2]) when the caller holds them;
    the linearization then reuses them."""
    return mf.sweep(M, np.asarray(R, dtype=float), linearized=True, h=h)


def newton_slra_step(M, R):
    """Project R onto M1 intersected with the tangent slice of M2 at
    Rt = project_binary(R): mf.project_slice with unit d, E = None (R is
    already on M1) and h_i = <R_i - Rt_i, c_i>. Quadratically convergent
    near the intersection."""
    R = np.asarray(R, dtype=float)
    scale = mf.frobenius_norm(R) + 1.0
    if mf.frobenius_norm(mf.affine_residual(M, R)) > 1e-8 * scale:
        raise ValueError("newton_slra_step needs a base point on the affine set")
    Rt = mf.project_binary(M, R)
    C = mf.row_normals(M, Rt)  # unit rows since Rt is on M2
    h = np.einsum("ij,ij->i", M.binary_block(R) - M.binary_block(Rt), C)
    return mf.project_slice(M, R, C, np.ones(M.dims.s), h)


def relaxed_newton_slra_step(M, R):
    """NewtonSLRA with the s slice constraints aggregated into the single
    constraint <D, X - Rt> = 0, D = R - Rt; its Schur system is 1x1."""
    R = np.asarray(R, dtype=float)
    Rt = mf.project_binary(M, R)
    D = R - Rt
    nD = mf.frobenius_norm(D)
    if nD < 1e-14:
        raise VanishingDirection(
            f"displacement norm {nD:.3e} below 1e-14; point already on M2"
        )
    A = M.affine.A
    E = mf.affine_residual(M, R)
    AD = A @ D
    q = float(np.vdot(AD, M.affine.gram_solve(AD)))
    d2 = float(np.vdot(D, D))
    denom = d2 - q
    if abs(denom) < 1e-14 * d2:
        raise SingularSchur("relaxed direction lies in the affine row space")
    mu = (d2 - float(np.vdot(AD, M.affine.gram_solve(E)))) / denom
    Lam = M.affine.gram_solve(E - mu * AD)
    return R - A.T @ Lam - mu * D


def aphl_step(M, R):
    """Cancel the affine residual E by a correction that is tangent to every
    row sphere (mf.project_slice with d_i = ||c_i||^2, that E and h = 0),
    then re-project onto M2. Iterates stay on M2, where d = 1; the affine
    residual decays quadratically near the intersection."""
    R = np.asarray(R, dtype=float)
    E = mf.affine_residual(M, R)
    C = mf.row_normals(M, R)
    d = np.einsum("ij,ij->i", C, C)
    Rtil = mf.project_slice(M, R, C, d, np.zeros(M.dims.s), E=E)
    return mf.project_binary(M, Rtil)


# ---------------------------------------------------------------------------
# dual (metric-projection) iterations


def _gwa_weights(M, Y):
    v = np.full(M.dims.N, 2.0)
    YB = M.binary_block(Y)
    # np.linalg.norm(YB, axis=1), computed as numpy computes it
    nb = np.sqrt(np.add.reduce(YB * YB, axis=1))
    v[M.binary_index] = 1.0 / np.maximum(nb, _GWA_WEIGHT_FLOOR)
    return v


def gwa_objective(M, Vprime, gamma, Theta) -> float:
    """Dual objective sum_B ||Y_i|| + sum_notB ||Y_i||^2 + <gamma, Theta e1>."""
    Y = Vprime + M.affine.A.T @ Theta
    norms = np.sqrt(np.add.reduce(Y * Y, axis=1))
    return float(
        norms[M.binary_index].sum() + (norms[M.free_index] ** 2).sum() + gamma @ Theta[:, 0]
    )


@functools.lru_cache(maxsize=8)
def _upper_mask(m):
    """The read-only m x m mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((m, m), dtype=bool))
    mask.setflags(write=False)
    return mask


def _pos_solve(G, rhs):
    """G^{-1} rhs for a symmetric positive definite G read from its upper
    triangle, by the one LAPACK posv call sla.solve(G, rhs, assume_a="pos")
    makes, so with the same bits, and with its checks: ValueError on NaN or
    inf, SingularGram where the Cholesky factorization breaks down (or a
    1 x 1 G, divided out directly, is zero), and a LinAlgWarning when
    pocon's reciprocal condition estimate is below eps. The result is
    C-ordered like sla.solve's: posv's Fortran-ordered one takes another
    BLAS path in later dot products (gwa_objective's gamma @ Theta[:, 0])
    and can change their last bit."""
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if G.size == 1:
        if G.item() == 0:
            raise SingularGram("weighted Gram singular in dual update: 1 x 1 Gram is zero")
        return rhs / G
    # pocon needs the 1-norm of the symmetric matrix that G's upper triangle
    # stands for (what LAPACK's lansy computes; scipy does not export it)
    anorm = _LANGE("1", np.where(_upper_mask(G.shape[0]), G, G.T))
    c, x, info = _POSV(G, rhs, lower=False)
    if info > 0:
        raise SingularGram(
            f"weighted Gram singular in dual update: leading minor {info} not positive"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of posv")
    rcond, _ = _POCON(c, anorm)
    if rcond < _EPS:
        warnings.warn(
            f"ill-conditioned weighted Gram in dual update: rcond = {rcond}",
            sla.LinAlgWarning,
            stacklevel=3,
        )
    return np.ascontiguousarray(x)


def gwa_iterate(M, Vprime, gamma, Theta):
    """One weighted-least-squares (Weiszfeld) update of the dual variable:
    Theta = -(A Diag(v) A^T)^{-1} (A Diag(v) V' + gamma e1^T), v the GWA
    weights at Y = V' + A^T Theta, solved by _pos_solve."""
    A = M.affine.A
    Y = Vprime + A.T @ Theta
    v = _gwa_weights(M, Y)
    Gv = A @ (v[:, None] * A.T)
    rhs = A @ (v[:, None] * Vprime)
    rhs[:, 0] += gamma
    return -_pos_solve(Gv, rhs)


def gwa_newton_iterate(M, Vprime, gamma, Theta):
    """Newton update for the dual objective. The Hessian is the weighted
    Gram M0 = A Diag(v) A^T (times I_r) minus a rank-s correction along the
    normalized binary rows Yhat. Woodbury reduces the Newton system to an
    s x s one, which scaling by sqrt(v_B) makes symmetric:
    I - (C C^T) o (U U^T) with C = sqrt(v_B) Yhat and U = (L0^{-1} A_B)^T,
    L0 the Cholesky factor of M0, solved by mf.schur_solve. A binary row of
    Y = V' + A^T Theta that vanishes (row i of V + A^T Theta at its sphere's
    center) has no weight and raises DegenerateRow."""
    A = M.affine.A
    B = M.binary_index
    Y = Vprime + A.T @ Theta
    YB = M.binary_block(Y)
    nb = np.linalg.norm(YB, axis=1)
    if np.min(nb) < _GWA_WEIGHT_FLOOR:
        raise DegenerateRow(int(M.binary_rows[np.flatnonzero(nb < _GWA_WEIGHT_FLOOR)[0]]))
    v = np.full(M.dims.N, 2.0)
    v[B] = 1.0 / nb
    grad = A @ (v[:, None] * Y)
    grad[:, 0] += gamma
    M0 = A @ (v[:, None] * A.T)
    try:
        L0 = np.linalg.cholesky(M0)
    except np.linalg.LinAlgError as exc:
        raise SingularSchur(f"weighted Gram not positive definite: {exc}") from exc
    U0 = sla.solve_triangular(L0, M.affine.A_B, lower=True).T
    G0 = sla.solve_triangular(L0, grad, lower=True)
    C = np.sqrt(v[B])[:, None] * (YB / nb[:, None])  # sqrt(v_B) Yhat
    rhs = np.einsum("ij,ij->i", U0 @ G0, C)  # sqrt(v_B) beta0
    try:
        gam = mf.schur_solve(np.ones(M.dims.s), C, U0, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSchur(f"newton schur system singular: {exc}") from exc
    # delta = M0^{-1} (grad + A_B Diag(gam) C), applied through L0
    delta = sla.solve_triangular(L0, G0 + U0.T @ (gam[:, None] * C), lower=True, trans="T")
    return Theta - delta


def metric_project(M, V, method="gwa", tol=1e-9, maxiter=500):
    """Exact metric projection of V onto M_r via its dual formulation.

    Runs the chosen dual iteration from Theta = 0 until the update is small
    and the dual objective did not increase, then recovers the primal point
    as project_binary(V + A^T Theta*). Raises MaxIterExceeded if the dual
    loop does not settle, or if the recovered point misses the bound
    tol * (||P|| + 1) and is also less feasible than V (a stalled dual step).
    """
    if method not in ("gwa", "gwa-newton"):
        raise ValueError("method must be 'gwa' or 'gwa-newton'")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    maxiter = mf.check_count("maxiter", maxiter)
    V = mf.check_point(M, V, "V")
    A = M.affine.A
    Vp = V.copy()
    Vp[:, 0] -= 0.5
    gamma = A @ np.ones(M.dims.N) - 2.0 * M.affine.b_col
    step = gwa_iterate if method == "gwa" else gwa_newton_iterate
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    g_cur = gwa_objective(M, Vp, gamma, Theta)
    for _ in range(maxiter):
        nxt = step(M, Vp, gamma, Theta)
        g_nxt = gwa_objective(M, Vp, gamma, nxt)
        change = mf.frobenius_norm(nxt - Theta)
        done = change <= tol * (mf.frobenius_norm(Theta) + 1.0) and g_nxt <= g_cur + 1e-12 * (
            abs(g_cur) + 1.0
        )
        Theta, g_cur = nxt, g_nxt
        if done:
            P = mf.project_binary(M, V + A.T @ Theta)
            res = mf.combined_residual(M, P)
            if res > tol * (mf.frobenius_norm(P) + 1.0) and res > mf.combined_residual(M, V):
                raise MaxIterExceeded(
                    f"dual iteration ({method}) stalled: recovered residual {res:.3e} "
                    "exceeds both its bound and the input's residual"
                )
            return P
    raise MaxIterExceeded(f"dual iteration ({method}) did not settle in {maxiter} steps")


# ---------------------------------------------------------------------------
# drivers


def _attempt(M, policy, y, res, iteration):
    """policy(y, res), y's step at the given iteration. On a degenerate-row
    failure perturb the offending row by 1e-12 (deterministically seeded)
    and run the policy once more from that copy, with its own residual.
    Any error escaping here carries the iteration index."""
    try:
        return policy(y, res)
    except DegenerateRow as first:
        rng = np.random.default_rng(7_654_321 + iteration)
        bump = rng.standard_normal(y.shape[1])
        bump *= 1e-12 / np.linalg.norm(bump)
        bumped = y.copy()
        bumped[first.row] += bump
        try:
            return policy(bumped, mf.residual_norms(M, bumped))
        except IsectError as second:
            second.iteration = iteration
            raise
    except IsectError as err:
        err.iteration = iteration
        raise


def _validate_base_and_tangent(M, x, eta, base_res=None):
    x = mf.check_point(M, x, "x")
    eta = mf.check_point(M, eta, "eta")
    mf.check_base(M, x, base_res)
    esc = mf.frobenius_norm(eta) + 1.0
    if mf.frobenius_norm(M.affine.A @ eta) > 1e-8 * esc:
        raise ValueError("eta violates the linearized affine constraints")
    dots = np.einsum("ij,ij->i", mf.row_normals(M, x), M.binary_block(eta))
    if dots.size and np.max(np.abs(dots)) > 1e-8 * esc:
        raise ValueError("eta violates the linearized row-sphere constraints")
    return x, eta


def _iterate(M, V, res, cfg, advance, init_tag="init", start=None):
    """The one retraction loop. Records V and returns it if it already meets
    the bound (cfg.tol, relative to ||y||_F + 1 unless cfg.tol_absolute),
    else runs start(y, res) -> (y, res) once (iteration 0) and then
    advance(y, res) -> (y, res, tag) for iterations 1..cfg.maxiter until the
    bound holds, each through _attempt. Raises MaxIterExceeded carrying the
    partial result when the budget runs out.

    res is always mf.residual_norms(M, y) = (combined residual, ||h||, h)
    of the current point, computed once per step (by the step's own kernel
    for APM and iAP): the bound test, the trace and the next iAP sweep all
    read it."""
    trace = IterTrace()
    trace.record(init_tag, res[0], res[1], 0.0)
    y, i = V, 0
    while res[0] > (cfg.tol if cfg.tol_absolute else cfg.tol * (mf.frobenius_norm(y) + 1.0)):
        if i == cfg.maxiter:
            raise MaxIterExceeded(
                f"retraction ({cfg.kind.value}) missed tol {cfg.tol:g} "
                f"in {cfg.maxiter} iterations",
                result=RetractionResult(point=y, converged=False, trace=trace),
            )
        if i == 0 and start is not None:
            y, res = _attempt(M, start, y, res, 0)
        i += 1
        y_new, res, tag = _attempt(M, advance, y, res, i)
        trace.record(tag, res[0], res[1], mf.frobenius_norm(y_new - y))
        y = y_new
    return RetractionResult(point=y, converged=True, trace=trace)


def retract(M, x, eta, cfg: RetractionConfig, base_res=None) -> RetractionResult:
    """Retraction driver: iterate cfg.kind's step policy from V = x + eta
    until the combined residual meets the bound. Raises MaxIterExceeded
    (carrying the partial result) when the budget runs out. APM and iAP run
    the fused sweep (mf.sweep), which returns each step's residual with its
    point; the metric kinds take one metric_project step; TAPR runs tapr's
    phase machine.

    x must pass mf.check_base unless base_res, x's combined residual when
    the caller holds it (a base that carries the residual of an earlier
    inexact retraction), is given; then that guard is skipped."""
    if not isinstance(cfg, RetractionConfig):
        raise TypeError("cfg must be a RetractionConfig")
    x, eta = _validate_base_and_tangent(M, x, eta, base_res=base_res)
    V = x + eta
    res = mf.residual_norms(M, V)
    kind = cfg.kind
    # the step maps and tapr are looked up per call: they are module globals
    # that may be rebound
    if kind is RetractionKind.TAPR:
        return tapr(M, V, res, cfg)
    if kind in (RetractionKind.MetricGWA, RetractionKind.MetricGWANewton):
        method = "gwa" if kind is RetractionKind.MetricGWA else "gwa-newton"

        def project(y, res):
            # dual tolerance sits below the primal target so the recovered
            # point clears the residual bound
            point = metric_project(M, y, method=method, tol=cfg.tol * 1e-2, maxiter=cfg.maxiter)
            return point, mf.residual_norms(M, point), kind.value

        return _iterate(M, V, res, replace(cfg, maxiter=1), project)

    if kind is RetractionKind.APM:
        return _iterate(M, V, res, cfg, lambda y, res: (*apm_step(M, y), kind.value))
    if kind is RetractionKind.IAP:
        return _iterate(M, V, res, cfg, lambda y, res: (*iap_step(M, y, res[2]), kind.value))

    step = {
        RetractionKind.NewtonSLRA: lambda R: newton_slra_step(M, R),
        RetractionKind.RelaxedNewtonSLRA: lambda R: relaxed_newton_slra_step(M, R),
        RetractionKind.APHL: lambda R: aphl_step(M, R),
    }[kind]

    def advance(y, res):
        tag = kind.value
        try:
            y_new = step(y)
            res_new = mf.residual_norms(M, y_new)
        except VanishingDirection:
            # only relaxed_newton_slra_step raises it
            y_new, res_new = None, (np.inf,)
        if res_new[0] > res[0]:
            # the local guarantees failed; take one safe sweep instead
            y_new, res_new = apm_step(M, y)
            tag = "apm-fallback"
        return y_new, res_new, tag

    def start(y, res):
        P = mf.project_binary(M, y)
        return P, mf.residual_norms(M, P)

    return _iterate(M, V, res, cfg, advance, start=start if kind is RetractionKind.APHL else None)


def tapr(M, V, res, cfg: RetractionConfig) -> RetractionResult:
    """retract's TAPR policy from V = x + eta, whose residual_norms are res:
    APM until err < a1, then iAP with a merit-decrease test, then NewtonSLRA
    once err <= a2 or an iAP probe stalls (the _TAPR_* thresholds). Raises
    InitialResidualTooLarge when err > a0 at V. Rejected trials keep the
    current point (step norm 0), fall back one phase, and still count
    against cfg.maxiter."""
    if res[0] > _TAPR_A0:
        raise InitialResidualTooLarge(res[0], _TAPR_A0)
    a2 = min(_TAPR_A1, cfg.tol * 1e3)
    phase = "apm"

    def advance(y, res):
        # res = mf.residual_norms(M, y) = (err, ||h||, h); a reject returns y
        # with its res unchanged
        nonlocal phase
        err = res[0]
        if phase == "apm":
            y, res = apm_step(M, y)
            if res[0] < _TAPR_A1:
                phase = "iap"
            return y, res, "apm"
        if phase == "iap":
            probe, res_probe = iap_step(M, y, res[2])
            err_probe = res_probe[0]
            slow = err_probe**2 > (1.0 - _TAPR_MU0) * err**2
            if err_probe**2 <= (1.0 - _TAPR_MU1) * err**2:
                y, res, tag = probe, res_probe, "iap"
            else:
                tag, phase = "iap-reject", "apm"
            if res[0] <= a2 or slow:
                phase = "newton"
            return y, res, tag
        probe = newton_slra_step(M, y)
        res_probe = mf.residual_norms(M, probe)
        if res_probe[0] ** 2 <= (1.0 - _TAPR_MU2) * err**2:
            return probe, res_probe, "newton"
        phase = "iap"
        return y, res, "newton-reject"

    return _iterate(M, V, res, cfg, advance, init_tag="apm")
