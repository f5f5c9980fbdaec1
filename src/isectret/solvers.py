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
   projection, wrapped by metric_project. Each step factors its weighted
   Gram A Diag(v) A^T once, through mf._spd_solve, the package's one
   Cholesky kernel (the Schur solves and the affine Gram use it too), and
   raises SingularGram where it breaks down. gwa_iterate returns the
   Weiszfeld point it solves for;
   gwa_newton_iterate corrects that point by its s x s Schur solve,
   reusing the same Cholesky factor.
   metric_project's loop reads each dual iterate's rows once: it forms
   Y = V' + A^T Theta and its row norms (_gwa_rows) and hands them to the
   next step, so neither is recomputed. Called alone, a step forms them
   itself, with the same bits. The dual objective is evaluated only at
   candidate stops, the steps whose update met its bound, from the rows
   the loop already holds for the two iterates it compares.

retract() is the only way into a retraction. It checks (x, eta), forms
V = x + eta and V's residual, rejects a V whose norm or residual overflows
float64, and hands them to one loop, _iterate, which records the start,
tests the residual bound, records each step (phase tag, residuals, step
norm) and raises MaxIterExceeded with the partial result.
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

import math
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

# the floor of the metric kinds' dual tolerance (relative to ||Theta|| + 1):
# near their limit the dual updates cycle at relative sizes of 3e-14 to
# 4e-14 (1.6e-13 seen), so a smaller bound is never met
_DUAL_TOL_FLOOR = 1e3 * np.finfo(float).eps

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
    """maxiter counts retraction iterations only: a metric kind takes one,
    and its dual loop keeps metric_project's own budget."""

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
    Rt = project_binary(R): mf.project_slice with unit d, R's affine gap
    E = A R - b e1^T and h_i = <R_i - Rt_i, c_i>. R need not lie on M1:
    the step lands on {A X = b e1^T} either way. Quadratically convergent
    near the intersection."""
    R = np.asarray(R, dtype=float)
    E = mf.affine_residual(M, R)
    Rt = mf.project_binary(M, R)
    C = mf.row_normals(M, Rt)  # unit rows since Rt is on M2
    h = np.einsum("ij,ij->i", M.binary_block(R) - M.binary_block(Rt), C)
    return mf.project_slice(M, R, C, np.ones(M.dims.s), h, E=E)


def relaxed_newton_slra_step(M, R):
    """NewtonSLRA with the s slice constraints aggregated into the single
    constraint <D, X - Rt> = 0, D = R - Rt; its Schur system is 1x1. The
    affine rows are eliminated through the cached K = A^T (A A^T)^{-1}:
    with P = project_affine(M, R) and Dp = D - K (A D), the part of D in
    the affine null space, the step is P - mu Dp with
    mu = <D, P - Rt> / <D, Dp>."""
    R = np.asarray(R, dtype=float)
    Rt = mf.project_binary(M, R)
    D = R - Rt
    nD = mf.frobenius_norm(D)
    if nD < 1e-14:
        raise VanishingDirection(
            f"displacement norm {nD:.3e} below 1e-14; point already on M2"
        )
    P = mf.project_affine(M, R)
    Dp = D - M.affine.K @ (M.affine.A @ D)
    d2 = float(np.vdot(D, D))
    denom = float(np.vdot(D, Dp))
    if abs(denom) < 1e-14 * d2:
        raise SingularSchur("relaxed direction lies in the affine row space")
    mu = float(np.vdot(D, P - Rt)) / denom
    return P - mu * Dp


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


def _gwa_rows(M, Vprime, Theta):
    """The dual iterate's rows (Y, norms): Y = V' + A^T Theta and its row
    norms, computed as np.linalg.norm(Y, axis=1) computes them. Each row is
    reduced on its own, so norms[binary_index] has the bits of the same
    reduction over the binary block alone."""
    Y = Vprime + M.affine.A.T @ Theta
    return Y, np.sqrt(np.add.reduce(Y * Y, axis=1))


def _gwa_value(M, gamma, Theta, norms):
    """The dual objective at Theta from the row norms of its Y."""
    return float(
        norms[M.binary_index].sum() + (norms[M.free_index] ** 2).sum() + gamma @ Theta[:, 0]
    )


def _gwa_weights(M, norms):
    """The GWA weights from the row norms: 1 / max(||Y_i||, floor) on B and
    2 off B, filled into the one array the reciprocal allocates."""
    v = 1.0 / np.maximum(norms, _GWA_WEIGHT_FLOOR)
    v[M.free_index] = 2.0
    return v


def gwa_objective(M, Vprime, gamma, Theta) -> float:
    """Dual objective sum_B ||Y_i|| + sum_notB ||Y_i||^2 + <gamma, Theta e1>
    at Y = V' + A^T Theta. metric_project's loop takes the same value from
    the rows it already holds (_gwa_rows, then _gwa_value)."""
    return _gwa_value(M, gamma, Theta, _gwa_rows(M, Vprime, Theta)[1])


def _gwa_weiszfeld(M, Vprime, gamma, norms):
    """(Theta_w, L): the Weiszfeld point
    Theta_w = -(A Diag(v) A^T)^{-1} (A Diag(v) V' + gamma e1^T), v the GWA
    weights from the row norms, and L, whose lower triangle is the Cholesky
    factor of the weighted Gram A Diag(v) A^T, both from one mf._spd_solve
    on the temporary Gram. This is the one place that turns the kernel's
    LinAlgError (a Gram that is not positive definite, or not finite) into
    SingularGram."""
    A = M.affine.A
    v = _gwa_weights(M, norms)[:, None]
    Gv = A @ (v * A.T)
    rhs = A @ (v * Vprime)
    rhs[:, 0] += gamma
    try:
        x, L = mf._spd_solve(Gv, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"weighted Gram singular in dual update: {exc}") from exc
    return -x, L


def gwa_iterate(M, Vprime, gamma, Theta, rows=None):
    """One weighted-least-squares (Weiszfeld) update of the dual variable:
    Theta = -(A Diag(v) A^T)^{-1} (A Diag(v) V' + gamma e1^T), v the GWA
    weights at Y = V' + A^T Theta, solved by mf._spd_solve. rows is Theta's
    (Y, norms) from _gwa_rows when the caller holds them; the weights are
    then built from those norms, with the same bits."""
    _, norms = _gwa_rows(M, Vprime, Theta) if rows is None else rows
    return _gwa_weiszfeld(M, Vprime, gamma, norms)[0]


def gwa_newton_iterate(M, Vprime, gamma, Theta, rows=None):
    """Newton update for the dual objective. The Hessian is the weighted
    Gram M0 = A Diag(v) A^T (times I_r) minus a rank-s correction along the
    normalized binary rows Yhat, and the step lands at
    Theta_w - M0^{-1} A_B (gam o C), Theta_w the Weiszfeld point of
    gwa_iterate. M0 is factored once, by the mf._spd_solve that gives
    Theta_w (M0 = L L^T, L lower), so a breakdown raises SingularGram as in
    gwa_iterate. Woodbury reduces the Newton system to an s x s one, which
    scaling by sqrt(v_B) makes symmetric: I - (C C^T) o (U0 U0^T) with
    C = sqrt(v_B) Yhat and U0 = (L^{-1} A_B)^T, solved by mf.schur_solve for
    gam with right-hand side <(A_B^T (Theta - Theta_w))_i, C_i>. A binary row
    of Y = V' + A^T Theta that vanishes (row i of V + A^T Theta at its
    sphere's center) has no weight and raises DegenerateRow. rows is
    Theta's (Y, norms) from _gwa_rows when the caller holds them; the step
    then reads Y_B and its norms from them, with the same bits."""
    Y, norms = _gwa_rows(M, Vprime, Theta) if rows is None else rows
    nb = norms[M.binary_index]
    if np.min(nb) < _GWA_WEIGHT_FLOOR:
        raise DegenerateRow(int(M.binary_rows[np.flatnonzero(nb < _GWA_WEIGHT_FLOOR)[0]]))
    Theta_w, L = _gwa_weiszfeld(M, Vprime, gamma, norms)
    AB = M.affine.A_B
    # no binary norm is below the floor, so v_B = 1 / nb exactly
    C = np.sqrt(1.0 / nb)[:, None] * (M.binary_block(Y) / nb[:, None])  # sqrt(v_B) Yhat
    U0 = sla.solve_triangular(L, AB, lower=True).T
    rhs = np.einsum("ij,ij->i", AB.T @ (Theta - Theta_w), C)
    try:
        gam = mf.schur_solve(np.ones(M.dims.s), C, U0, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSchur(f"newton schur system singular: {exc}") from exc
    return Theta_w - sla.solve_triangular(L, U0.T @ (gam[:, None] * C), lower=True, trans="T")


def metric_project(M, V, method="gwa", tol=1e-9, maxiter=500):
    """Exact metric projection of V onto M_r via its dual formulation.

    Runs the chosen dual iteration from Theta = 0 until the update is small
    and the dual objective did not increase, then recovers the primal point
    as project_binary(V + A^T Theta*). Each iterate's rows Y = V' + A^T Theta
    and their norms are computed once, and the step taken from it reads
    them. The objective is evaluated only at candidate stops, the steps
    whose update met its bound, from the rows the loop holds for the two
    iterates it compares: a loop whose updates never meet their bound never
    evaluates it. Raises MaxIterExceeded if the dual loop does not settle
    (its message gives the last update and the bound it missed), or if the
    recovered point misses the bound tol * (||P|| + 1) and is also less
    feasible than V (a stalled dual step).
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
    rows = _gwa_rows(M, Vp, Theta)
    for _ in range(maxiter):
        # Theta_{k+1}'s rows serve the next step and, at a candidate stop,
        # its objective value
        nxt = step(M, Vp, gamma, Theta, rows)
        nxt_rows = _gwa_rows(M, Vp, nxt)
        change = mf.frobenius_norm(nxt - Theta)
        bound = tol * (mf.frobenius_norm(Theta) + 1.0)
        done = False
        if change <= bound:
            g_cur = _gwa_value(M, gamma, Theta, rows[1])
            done = _gwa_value(M, gamma, nxt, nxt_rows[1]) <= g_cur + 1e-12 * (abs(g_cur) + 1.0)
        Theta, rows = nxt, nxt_rows
        if done:
            P = mf.project_binary(M, V + A.T @ Theta)
            res = mf.combined_residual(M, P)
            if res > tol * (mf.frobenius_norm(P) + 1.0) and res > mf.combined_residual(M, V):
                raise MaxIterExceeded(
                    f"dual iteration ({method}) stalled: recovered residual {res:.3e} "
                    "exceeds both its bound and the input's residual"
                )
            return P
    raise MaxIterExceeded(
        f"dual iteration ({method}) did not settle in {maxiter} steps: "
        f"last update {change:.3e} against its bound {bound:.3e}"
    )


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


def _bound(cfg, y):
    """The residual bound at y: cfg.tol, relative to ||y||_F + 1 unless
    cfg.tol_absolute."""
    return cfg.tol if cfg.tol_absolute else cfg.tol * (mf.frobenius_norm(y) + 1.0)


def _iterate(M, V, res, cfg, advance, init_tag="init", start=None):
    """The one retraction loop. Records V and returns it if it already meets
    the bound _bound(cfg, V) (a NaN residual never does), else runs
    start(y, res) -> (y, res) once (iteration 0) and then
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
    while not res[0] <= _bound(cfg, y):
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
    point; the metric kinds take one metric_project step, with its default
    budget and a dual tolerance of cfg.tol * 1e-2 floored at
    _DUAL_TOL_FLOOR; TAPR runs tapr's phase machine.

    x must pass mf.check_base unless base_res, x's combined residual when
    the caller holds it (a base that carries the residual of an earlier
    inexact retraction), is given; then that guard is skipped. A V whose
    norm or combined residual is not finite in float64 (an eta so large
    that its squares overflow) raises ValueError, as nan or inf input
    does, instead of meeting an infinite bound."""
    if not isinstance(cfg, RetractionConfig):
        raise TypeError("cfg must be a RetractionConfig")
    # overflow here is reported by the finiteness test below, not as a
    # warning; comparisons with an overflowed norm pass, so that test is
    # what rejects such input
    with np.errstate(over="ignore", invalid="ignore"):
        x, eta = _validate_base_and_tangent(M, x, eta, base_res=base_res)
        V = x + eta
        res = mf.residual_norms(M, V)
        size = mf.frobenius_norm(V)
    if not (math.isfinite(size) and math.isfinite(res[0])):
        raise ValueError(
            f"x + eta overflows float64: norm {size:.3e}, combined residual {res[0]:.3e}"
        )
    kind = cfg.kind
    # the step maps and tapr are looked up per call: they are module globals
    # that may be rebound
    if kind is RetractionKind.TAPR:
        return tapr(M, V, res, cfg)
    if kind in (RetractionKind.MetricGWA, RetractionKind.MetricGWANewton):
        method = "gwa" if kind is RetractionKind.MetricGWA else "gwa-newton"

        def project(y, res):
            # dual tolerance sits below the primal target so the recovered
            # point clears the residual bound, but not below roundoff
            point = metric_project(M, y, method=method, tol=max(cfg.tol * 1e-2, _DUAL_TOL_FLOOR))
            return point, mf.residual_norms(M, point), kind.value

        try:
            return _iterate(M, V, res, replace(cfg, maxiter=1), project)
        except MaxIterExceeded as err:
            if err.result is None:
                raise  # metric_project's own: a dual loop that did not settle or stalled
            # the dual loop settled, on a point that misses the retraction's bound
            raise MaxIterExceeded(
                f"retraction ({kind.value}): the {method} dual loop settled on a point with "
                f"residual {err.result.trace.combined[-1]:.3e} against its bound "
                f"{_bound(cfg, err.result.point):.3e}",
                result=err.result,
            ) from None

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
