"""Riemannian gradient descent with BB stepsizes on the lifted quadratic.

The loop minimizes trace(R^T Q' R) + 2 c'^T R e1 over the intersection
manifold by retracting along the negative projected gradient. Any
retraction kind plugs in unchanged; the driver only varies the per-step
tolerance through the inexactness schedule. A nonmonotone backtracking
test keeps the unbounded BB proposals from running away on indefinite
quadratics.

Practical notes for callers:

- The constructive rank-one starts are first-order stationary for any
  objective supported on the binary block (the sphere-row normals there
  reduce to +-e1, so the tangent space annihilates exactly the rows and
  column the gradient lives in); the loop stops immediately from them.
  Pass a moved start R0 to descend.
- Iterates carry feasibility error up to the schedule tolerance, and the
  restoration part of the next step perturbs the objective at first order
  in that error, independently of the trial step. Gradient targets far
  below ~1e-2 on generic instances therefore starve the nonmonotone test
  (LineSearchFailed) rather than converge; this loop is a comparison
  harness, not a high-accuracy solver.
- BB proposals are clamped to _STEP_BOUNDS = (1e-8, 1e2). A non-positive
  curvature estimate falls back to the lower bound and the loop may crawl
  at that step until max_outer; the per-iteration log shows such stalls
  plainly.
- The three-phase retraction guards its validity region and the metric
  dual Newton is undamped; long BB proposals can trip their guard errors
  (InitialResidualTooLarge, MaxIterExceeded), which surface with the
  outer iteration attached.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from . import problems as pb
from . import solvers as sv
from .errors import IsectError, LineSearchFailed

__all__ = [
    "IterRecord",
    "OptimizerConfig",
    "SolveReport",
    "bb_step",
    "gradient",
    "objective",
    "solve",
]

_DECREASE_COEFF = 1e-8
_MAX_HALVINGS = 20
_FIRST_STEP_COEFF = 1e-3
_STEP_BOUNDS = (1e-8, 1e2)
_NONMONOTONE_WINDOW = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """The retraction kind, the gradient norm target and the outer budget.
    Each outer step retracts with its own schedule tolerance (retract_tol)."""

    kind: sv.RetractionKind
    grad_tol: float = 1e-6
    max_outer: int = 1000

    def __post_init__(self):
        if not isinstance(self.kind, sv.RetractionKind):
            raise ValueError("kind must be a RetractionKind")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        object.__setattr__(self, "max_outer", mf.check_count("max_outer", self.max_outer))


@dataclass(frozen=True)
class IterRecord:
    """One accepted outer iteration; record 0 describes the start point."""

    iteration: int
    objective: float
    grad_norm: float
    step: float
    halvings: int
    retraction_iters: int
    retraction_tol: float
    residual: float
    residual_bound: float


@dataclass(frozen=True)
class SolveReport:
    final_point: np.ndarray
    final_objective: float
    grad_norm: float
    outer_iters: int
    total_retraction_iters: int
    mean_retraction_iters: float
    wall_time: float
    per_iter_log: list


def objective(inst: pb.ProblemInstance, R: np.ndarray) -> float:
    """trace(R^T Q' R) + 2 c'^T R e1 on the lifted data."""
    QR = inst.Qlift @ R
    return float(np.sum(R * QR) + 2.0 * inst.clift @ R[:, 0])


def gradient(inst: pb.ProblemInstance, R: np.ndarray) -> np.ndarray:
    """Euclidean gradient 2 Q' R + 2 c' e1^T."""
    G = 2.0 * (inst.Qlift @ R)
    G[:, 0] += 2.0 * inst.clift
    return G


def bb_step(s_prev, y_prev):
    """Barzilai-Borwein (BB1) stepsize <s,s>/<s,y> from the last displacement
    pair. The result is clamped to _STEP_BOUNDS, and any non-positive or
    undefined ratio falls back to the lower bound.
    """
    s = np.asarray(s_prev, dtype=float)
    y = np.asarray(y_prev, dtype=float)
    ss = float(np.sum(s * s))
    sy = float(np.sum(s * y))
    yy = float(np.sum(y * y))
    if ss == 0.0 or yy == 0.0:
        raise ValueError("bb_step needs nonzero s_prev and y_prev")
    lo, hi = _STEP_BOUNDS
    raw = ss / sy if sy != 0.0 else -1.0
    if not np.isfinite(raw) or raw <= 0.0:
        return float(lo)
    return float(min(max(raw, lo), hi))


def _riemannian_grad(M, R, G, res):
    # res is R's combined residual: an iterate accepted at schedule
    # tolerance tol_i carries up to tol_i * scale, above the guards' fixed
    # allowance, so passing it skips the feasibility guard (mf.check_base)
    xi = mf.project_tangent(M, R, G, base_res=res).xi
    return xi, float(mf.frobenius_norm(xi))


def _start(inst, R0):
    """The start point (feasible_init for R0=None) and its combined residual."""
    M = inst.manifold
    R = pb.feasible_init(inst, M.dims.r) if R0 is None else np.array(R0, dtype=float)
    R = mf.check_point(M, R, "start point")
    res = float(mf.combined_residual(M, R))
    if res > 1e-8:
        raise ValueError(f"start point violates the constraints by {res:.3e}")
    return R, res


def solve(inst: pb.ProblemInstance, cfg: OptimizerConfig, R0=None) -> SolveReport:
    """Run the BB gradient loop from a feasible start.

    The default start is the constructive feasible point. Note that the
    rank-one binary embeddings are first-order stationary for objectives
    supported on the binary block (the row normals there reduce to +-e1,
    so the tangent space annihilates exactly the gradient's support), in
    which case the loop stops immediately; pass a moved start R0 to
    actually descend.

    Stops when the Riemannian gradient norm reaches cfg.grad_tol or after
    cfg.max_outer accepted iterations. Raises LineSearchFailed when the
    nonmonotone test rejects 20 halvings in a row; retraction errors
    propagate with the outer iteration attached. The report's counts are
    read off the per-iteration log.
    """
    if not isinstance(cfg, OptimizerConfig):
        raise TypeError("cfg must be an OptimizerConfig")
    wall_start = time.perf_counter()
    M = inst.manifold
    R, res = _start(inst, R0)
    f = objective(inst, R)
    xi, g = _riemannian_grad(M, R, gradient(inst, R), res)
    log = [
        IterRecord(
            iteration=0,
            objective=f,
            grad_norm=g,
            step=0.0,
            halvings=0,
            retraction_iters=0,
            retraction_tol=0.0,
            residual=res,
            residual_bound=0.0,
        )
    ]
    s_prev = None
    y_prev = None

    for i in range(1, cfg.max_outer + 1):
        if g <= cfg.grad_tol:
            break
        t = _FIRST_STEP_COEFF / (g + 1.0) if i == 1 else bb_step(s_prev, y_prev)
        tol_i = sv.retract_tol(g, i)
        ret_cfg = sv.RetractionConfig(kind=cfg.kind, tol=tol_i)
        window_max = max(rec.objective for rec in log[-_NONMONOTONE_WINDOW:])
        inner = 0
        for halvings in range(_MAX_HALVINGS + 1):
            try:
                out = sv.retract(M, R, -t * xi, ret_cfg, base_res=res)
            except IsectError as err:
                err.outer_iteration = i
                raise
            # the trace's first record is the start point, not a step
            inner += len(out.trace) - 1
            f_new = objective(inst, out.point)
            if f_new <= window_max - _DECREASE_COEFF * t * g * g:
                break
            t *= 0.5
        else:
            raise LineSearchFailed(
                f"nonmonotone test rejected {_MAX_HALVINGS} halvings "
                f"at outer iteration {i}"
            )
        R_new = out.point
        # the bound _iterate tested the returned point against
        bound = tol_i * (mf.frobenius_norm(R_new) + 1.0)
        # the retraction trace ends with residual_norms of the point it returns
        res = out.trace.combined[-1]
        xi_new, g_new = _riemannian_grad(M, R_new, gradient(inst, R_new), res)
        s_prev = R_new - R
        y_prev = xi_new - xi
        R, f, xi, g = R_new, f_new, xi_new, g_new
        log.append(
            IterRecord(
                iteration=i,
                objective=f,
                grad_norm=g,
                step=t,
                halvings=halvings,
                retraction_iters=inner,
                retraction_tol=tol_i,
                residual=res,
                residual_bound=float(bound),
            )
        )

    outer = len(log) - 1
    total_inner = sum(rec.retraction_iters for rec in log)
    return SolveReport(
        final_point=R,
        final_objective=f,
        grad_norm=g,
        outer_iters=outer,
        total_retraction_iters=total_inner,
        mean_retraction_iters=total_inner / outer if outer > 0 else 0.0,
        wall_time=time.perf_counter() - wall_start,
        per_iter_log=log,
    )
