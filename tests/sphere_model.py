"""The unit sphere as a reference oracle for the projection expansion.

sphere_expansion_check compares the exact metric projection onto the unit
sphere against its second-order expansion, whose curvature terms have closed
forms there: II_x(u_T, u_T) = -||u_T||^2 x and W_x(u_T, u_N) = -<u, x> u_T.
The sphere is the one embedded set where every term of the expansion can be
written down, which makes it the reference oracle for the projection
expansion used everywhere else.
"""

from dataclasses import dataclass

import numpy as np

from isectret.errors import NearZeroInput


@dataclass(frozen=True)
class SphereExpansion:
    """Residuals of the second-order projection expansion on the unit sphere."""

    base: np.ndarray
    perturbation: np.ndarray
    tangential_residual: float
    normal_residual_gap: float

    def __post_init__(self):
        if abs(np.linalg.norm(self.base) - 1.0) > 1e-12:
            raise ValueError("base point must lie on the unit sphere")


def sphere_project(x: np.ndarray) -> np.ndarray:
    """Metric projection of a nonzero vector onto the unit sphere."""
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm <= 1e-14:
        raise NearZeroInput(f"cannot project a vector of norm {nrm:.3e}")
    return x / nrm


def sphere_expansion_check(x: np.ndarray, u: np.ndarray) -> SphereExpansion:
    """Compares P(x + u) on the unit sphere with its second-order expansion.

    The expansion is x + u_T + W_x(u_T, u_N) + (1/2) II_x(u_T, u_T) with
    u_T = u - <u, x> x and u_N = <u, x> x. tangential_residual is the norm of
    the tangent-space part of the difference, normal_residual_gap the norm of
    the radial part; both are o(||u||^2) when the expansion is correct, and
    exactly zero for radial u because the projection is constant along fibers.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape:
        raise ValueError("base and perturbation shapes disagree")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError("base point must lie on the unit sphere")
    if np.linalg.norm(u) > 0.1:
        raise ValueError("perturbation exceeds the expansion window 0.1")

    a = float(u @ x)
    u_t = u - a * x
    # W term: -<u, x> u_T ; curvature term: -(1/2) ||u_T||^2 x
    model = x + u_t - a * u_t - 0.5 * float(u_t @ u_t) * x
    diff = sphere_project(x + u) - model
    radial = float(diff @ x)
    tangential = diff - radial * x
    return SphereExpansion(
        base=x,
        perturbation=u,
        tangential_residual=float(np.linalg.norm(tangential)),
        normal_residual_gap=abs(radial),
    )
