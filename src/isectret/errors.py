"""Exception types shared across the package.

Numerical failures carry enough context (row index, iteration number,
partial traces) for callers to retry or report.
"""

from __future__ import annotations

__all__ = [
    "IsectError",
    "SingularGram",
    "DegenerateRow",
    "TangentSolveSingular",
    "SingularSchur",
    "VanishingDirection",
    "InitialResidualTooLarge",
    "MaxIterExceeded",
    "InsufficientTail",
    "NearZeroInput",
    "LineSearchFailed",
    "MalformedFile",
    "AsymmetricMatrix",
    "ProblemTooLarge",
]


class IsectError(Exception):
    """Base class for all library errors."""


class SingularGram(IsectError):
    """A A^T is numerically singular (rank-deficient constraint rows), or
    the weighted Gram A Diag(v) A^T of a GWA or GWA-Newton dual step is not
    positive definite."""


class DegenerateRow(IsectError):
    """A binary row sits at the center of its sphere, 2 R_i = e1^T.

    The row normal c_i = 2 R_i - e1^T vanishes there, so the row projection
    is multivalued and the linearized constraint is undefined. Callers may
    perturb the row and retry; retract's loop in solvers.py does this once
    for every step, whatever the kind.
    """

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"degenerate binary row {row}: 2*R[{row},:] equals e1^T")


class TangentSolveSingular(IsectError):
    """The KKT system of the tangent-space projection is singular, which
    signals loss of constraint independence at the base point."""


class SingularSchur(IsectError):
    """The Schur complement I_s - (C C^T) o S is singular; the two factor
    manifolds fail to intersect transversally at the current point."""


class VanishingDirection(IsectError):
    """The displacement R - P_M2(R) vanishes, so the relaxed tangent
    constraint direction is undefined (the point already lies on M2)."""


class InitialResidualTooLarge(IsectError):
    """The starting residual exceeds the a0 safeguard of the three-phase
    retraction; the iteration is only locally valid and refuses to start."""

    def __init__(self, err0: float, a0: float):
        self.err0 = err0
        self.a0 = a0
        super().__init__(f"initial residual {err0:.3e} exceeds safeguard a0={a0:.3e}")


class MaxIterExceeded(IsectError):
    """Iteration budget exhausted before the tolerance was met. Carries the
    partial result (with trace) when one exists."""

    def __init__(self, msg: str, result=None):
        self.result = result
        super().__init__(msg)


class InsufficientTail(IsectError):
    """Not enough usable points above the noise floor for a rate or slope
    estimate."""


class NearZeroInput(IsectError):
    """Input vector too close to the origin to normalize."""


class LineSearchFailed(IsectError):
    """Nonmonotone backtracking exhausted its halving budget."""


class MalformedFile(IsectError):
    """An instance file does not match its declared format."""


class AsymmetricMatrix(IsectError):
    """A matrix that must be symmetric deviates beyond tolerance."""


class ProblemTooLarge(IsectError):
    """A lift would allocate more dense memory than the library allows.
    Raised before anything is allocated; carries the size parameter p and
    the bytes the lift would need."""

    def __init__(self, p: int, nbytes: int, limit: int):
        self.p = p
        self.nbytes = nbytes
        super().__init__(
            f"QAP lift at p={p} needs {nbytes} bytes of dense objective, above the "
            f"{limit}-byte limit"
        )
