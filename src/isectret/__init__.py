"""Feasibility-preserving retractions for affine-times-sphere intersection sets."""

from .errors import (
    AsymmetricMatrix,
    DegenerateRow,
    InitialResidualTooLarge,
    InsufficientTail,
    IsectError,
    LineSearchFailed,
    MalformedFile,
    MaxIterExceeded,
    NearZeroInput,
    ProblemTooLarge,
    SingularGram,
    SingularSchur,
    TangentSolveSingular,
    VanishingDirection,
)
from .manifold import (
    AffineSystem,
    IntersectionManifold,
    ProblemDims,
    TangentVector,
    affine_residual,
    binary_residual,
    combined_residual,
    linearized_project,
    project_affine,
    project_binary,
    project_tangent,
    row_normals,
)
from .problems import (
    ProblemInstance,
    QapInstance,
    QkpInstance,
    Xoshiro256StarStar,
    feasible_init,
    format_qkp,
    gen_qkp,
    initial_rank,
    lift_qap,
    lift_qkp,
    parse_qaplib,
    parse_qkp,
)
from .optimizer import (
    IterRecord,
    OptimizerConfig,
    SolveReport,
    bb_step,
    gradient,
    objective,
    solve,
)
from .solvers import (
    IterTrace,
    RetractionConfig,
    RetractionKind,
    RetractionResult,
    apm_step,
    aphl_step,
    gwa_iterate,
    gwa_newton_iterate,
    gwa_objective,
    iap_step,
    metric_project,
    newton_slra_step,
    relaxed_newton_slra_step,
    retract,
    retract_tol,
)
from .verify import (
    RateFit,
    SlopeFit,
    SphereExpansion,
    default_t_grid,
    order_slope,
    rate_fit,
    sphere_expansion_check,
    sphere_project,
)

__version__ = "0.1.0"
