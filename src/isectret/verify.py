"""Numerical certification of the geometric properties behind the retractions.

Two instruments:

* ``order_slope`` measures retraction order on an intersection manifold: for
  a shrinking tangent step t * eta it records the total retraction error
  ||R(x, t eta) - (x + t eta)|| and its tangent-space component, then fits
  log-log slopes. Second-order retractions show total slope 2 (the curvature
  term) and tangential slope 3.

* ``rate_fit`` estimates linear contraction factors and quadratic-convergence
  constants from residual traces.

Slope runs drive the inner retractions at a fixed absolute tolerance of 1e-12
rather than the adaptive schedule, so the measured error reflects geometry
instead of solver truncation. Points below plateau_floor = 1e-13 (||x||_F + 1)
are excluded from fits as roundoff plateau; a fit needs at least 4 surviving
points, otherwise InsufficientTail is raised.
"""

from dataclasses import dataclass

import numpy as np

from . import manifold as mf
from . import solvers as sv
from .errors import InsufficientTail, IsectError

__all__ = [
    "SlopeFit",
    "RateFit",
    "order_slope",
    "rate_fit",
    "default_t_grid",
]

# fit plumbing; see module docstring
_PLATEAU_COEFF = 1e-13
_TAIL_FLOOR = 1e-13
_MIN_FIT_POINTS = 4
_SLOPE_TOL = 1e-12
_SLOPE_MAXITER = 400_000


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log10(error) against log10(t), with the grid,
    the raw errors, and the plateau floor used to exclude roundoff points."""

    t_values: np.ndarray
    errors: np.ndarray
    slope: float
    plateau_floor: float

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        e = np.asarray(self.errors, dtype=float)
        if t.ndim != 1 or e.shape != t.shape:
            raise ValueError("t_values and errors must be 1-d of equal length")
        if t.size and not np.all(np.diff(t) > 0):
            raise ValueError("t_values must be strictly increasing")
        if np.any(e < 0):
            raise ValueError("errors must be nonnegative")
        if not np.isfinite(self.slope):
            raise ValueError("slope must be finite")
        object.__setattr__(self, "t_values", t)
        object.__setattr__(self, "errors", e)

    @property
    def plateau_excluded_count(self) -> int:
        return int(np.sum(self.errors <= self.plateau_floor))


@dataclass(frozen=True)
class RateFit:
    """Contraction estimates from a residual tail.

    linear_factor is the geometric mean of the last-5 successive ratios;
    quadratic_constant the geometric mean of r_{k+1} / r_k^2 over the tail.
    max_ratio (the largest of those ratios) and quadratic_spread (max/min of
    the constant estimates) qualify the headline numbers.
    """

    residuals: np.ndarray
    linear_factor: float
    quadratic_constant: float
    max_ratio: float
    quadratic_spread: float

    def __post_init__(self):
        res = np.asarray(self.residuals, dtype=float)
        if np.any(res < 0):
            raise ValueError("residuals must be nonnegative")
        if not (np.isfinite(self.linear_factor) and np.isfinite(self.quadratic_constant)):
            raise ValueError("rate estimates must be finite")
        object.__setattr__(self, "residuals", res)


def default_t_grid() -> np.ndarray:
    """15 logarithmically spaced step scales in [10^-3.5, 10^-2].

    The window keeps the third-order tangential error C t^3 above the
    plateau floor 1e-13 (||x||_F + 1) while t stays small enough for the
    slopes to be asymptotic. Much smaller steps (t <= 1e-5) leave the
    tangential error below that floor, or exactly 0 where x + t eta already
    meets the 1e-12 tolerance.
    """
    return np.logspace(-3.5, -2.0, 15)


def _fit_slope(t_grid: np.ndarray, errors: np.ndarray, floor: float, label: str) -> SlopeFit:
    keep = errors > floor
    kept = int(keep.sum())
    if kept < _MIN_FIT_POINTS:
        raise InsufficientTail(
            f"{label}: {kept} of {errors.size} points above the plateau floor "
            f"{floor:.3e}; need {_MIN_FIT_POINTS}"
        )
    slope = np.polyfit(np.log10(t_grid[keep]), np.log10(errors[keep]), 1)[0]
    return SlopeFit(
        t_values=t_grid, errors=errors, slope=float(slope), plateau_floor=floor
    )


def order_slope(M, kind, x, eta, t_grid=None):
    """Retraction-order measurement: returns (total, tangential) SlopeFits.

    For each t the retraction is driven to the fixed absolute tolerance 1e-12
    and the error against the tangent ray x + t eta is decomposed. Evaluation
    order is the grid order; repeated runs are bit-identical. A retraction
    failure is re-raised with the offending t on the exception's t_value.
    t_grid defaults to default_t_grid().
    """
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)

    cfg = sv.RetractionConfig(
        kind=kind, tol=_SLOPE_TOL, maxiter=_SLOPE_MAXITER, tol_absolute=True
    )
    floor = _PLATEAU_COEFF * (np.linalg.norm(x) + 1.0)
    total = np.empty(t_grid.size)
    tangential = np.empty(t_grid.size)
    for j, t in enumerate(t_grid):
        try:
            out = sv.retract(M, x, t * eta, cfg)
        except IsectError as err:
            err.t_value = float(t)
            raise
        e = out.point - (x + t * eta)
        total[j] = np.linalg.norm(e)
        tangential[j] = np.linalg.norm(mf.project_tangent(M, x, e).xi)
    return (
        _fit_slope(t_grid, total, floor, "total error"),
        _fit_slope(t_grid, tangential, floor, "tangential error"),
    )


def rate_fit(trace) -> RateFit:
    """Linear/quadratic rate estimates from a residual sequence.

    Accepts an IterTrace (its combined-residual log is used) or a bare
    residual sequence. The tail is the subsequence above 1e-13; at least 4
    tail points are required.
    """
    if isinstance(trace, sv.IterTrace):
        res = np.asarray(trace.combined, dtype=float)
    else:
        res = np.asarray(trace, dtype=float)
    if res.ndim != 1:
        raise ValueError("residual sequence must be 1-d")
    if np.any(res < 0):
        raise ValueError("residuals must be nonnegative")

    tail = res[res > _TAIL_FLOOR]
    if tail.size < _MIN_FIT_POINTS:
        raise InsufficientTail(
            f"{tail.size} residuals above {_TAIL_FLOOR:.0e}; need {_MIN_FIT_POINTS}"
        )
    ratios = tail[1:] / tail[:-1]
    last = ratios[-5:]
    consts = tail[1:] / tail[:-1] ** 2
    return RateFit(
        residuals=res,
        linear_factor=float(np.exp(np.mean(np.log(last)))),
        quadratic_constant=float(np.exp(np.mean(np.log(consts)))),
        max_ratio=float(np.max(last)),
        quadratic_spread=float(np.max(consts) / np.min(consts)),
    )
