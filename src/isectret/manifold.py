"""Geometry of the intersection manifold M_r = M1 ∩ M2.

M1 is the affine set {R in R^(N x r) : A R = b e1^T} and M2 the row-sphere
set {R : ||R_i||^2 = R_{i,1} for i in B}. Each binary-indexed row of M2
lives on a sphere of radius 1/2 centered at e1^T/2, which gives closed-form
projections onto both factors. Everything here is a pure function of its
inputs; the manifold object itself is immutable after construction and can
be shared freely across threads.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRow, SingularGram, SingularSchur, TangentSolveSingular

__all__ = [
    "ProblemDims",
    "AffineSystem",
    "IntersectionManifold",
    "TangentVector",
    "binary_residual",
    "affine_residual",
    "combined_residual",
    "residual_norms",
    "frobenius_norm",
    "project_affine",
    "project_binary",
    "sweep",
    "row_normals",
    "project_tangent",
    "check_base",
    "check_point",
    "check_count",
    "project_slice",
    "schur_solve",
    "linearized_project",
    "FEASIBILITY_TOL",
]

# default "point is on the manifold" tolerance, relative to ||R||_F + 1
FEASIBILITY_TOL = 1e-6

# rows whose normal 2 R_i - e1^T is shorter than this have no well-defined
# sphere projection / linearization
_DEGENERATE_TOL = 1e-14

# schur_solve takes the Woodbury route when s > _SMW_RATIO * m * r (measured,
# see schur_solve)
_SMW_RATIO = 1.5


def _load_flapack():
    """scipy's compiled LAPACK module, scipy/linalg/_flapack (the module
    scipy.linalg.lapack re-exports), loaded as a module of its own under the
    private name isectret._flapack. Neither scipy nor scipy.linalg is
    imported: scipy.linalg's __init__ costs about 0.3 s and 17 MB per
    process, and the package needs two of its routines. Under its own name
    the module leaves scipy's import state untouched: a later import of
    scipy.linalg loads its _flapack as usual.

    Raises ImportError when scipy is not installed, and ImportError naming
    scipy's version and the directory searched when its _flapack is
    missing; there is no fallback to scipy.linalg."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("isectret needs scipy, which is not installed")
    where = [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]
    found = importlib.machinery.PathFinder.find_spec("_flapack", where)
    if found is None:
        from importlib import metadata

        raise ImportError(
            f"scipy {metadata.version('scipy')} has no compiled LAPACK module "
            f"_flapack in {os.pathsep.join(where)}"
        )
    spec = importlib.util.spec_from_file_location("isectret._flapack", found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the LAPACK routines of every symmetric positive definite solve and every
# triangular solve with its factor
_FLAPACK = _load_flapack()
_POSV = _FLAPACK.dposv
_TRTRS = _FLAPACK.dtrtrs


@dataclass(frozen=True)
class ProblemDims:
    N: int
    r: int
    m_rows: int
    s: int

    def __post_init__(self):
        if self.N < 1 or self.r < 1:
            raise ValueError(f"need N >= 1 and r >= 1, got N={self.N}, r={self.r}")
        if not 1 <= self.s <= self.N:
            raise ValueError(f"need 1 <= s <= N, got s={self.s}, N={self.N}")
        if not 1 <= self.m_rows < self.N:
            raise ValueError(f"need 1 <= m_rows < N, got m_rows={self.m_rows}")


class AffineSystem:
    """The affine factor A R = b e1^T with its cached Gram factorization.

    K = A^T (A A^T)^{-1}, the N x m matrix of the affine projection
    R - K (A R - b e1^T), and the Cholesky factor L of A A^T both come from
    one _spd_solve call on the Gram, the package's one Cholesky kernel: K is
    the transpose of its solution (A A^T)^{-1} A. K is the one elimination
    of the affine rows the kernels use per step: a projection, a slice solve
    or a relaxed NewtonSLRA step is a product with K and no solve. A_B is
    the fancy-indexed copy A[:, binary_cols], kept for the slice and dual
    solvers; low_rank_factor is U = (L^{-1} A_B)^T, one _tri_solve with
    that factor, with A_B^T (A A^T)^{-1} A_B = U U^T, reused by the
    Schur-complement solvers, and low_rank_gram is U U^T itself, built on
    first use. K, A_B and low_rank_gram are read-only. gram_solve applies
    (A A^T)^{-1} by _spd_solve on a copy of the Gram; no kernel calls it.

    The kernels built on K do not check their input for NaN or inf: a
    non-finite input gives a non-finite output (gram_solve raises
    _spd_solve's numpy.linalg.LinAlgError). The entry points (retract,
    project_tangent, metric_project, solve and the CLI's project) check
    each point once, through check_point.
    """

    def __init__(self, A: np.ndarray, b_col: np.ndarray, binary_cols: np.ndarray):
        A = np.array(A, dtype=float)
        b_col = np.array(b_col, dtype=float)
        if A.ndim != 2 or b_col.shape != (A.shape[0],):
            raise ValueError(f"A is {A.shape}, b_col is {b_col.shape}; need (m, N) and (m,)")
        self.A = A
        self.b_col = b_col
        G = A @ A.T
        w = np.linalg.eigvalsh(G)
        if w[0] <= 1e-12 * max(w[-1], 1e-300):
            raise SingularGram(
                f"A A^T has eigenvalue ratio {w[0]:.3e}/{w[-1]:.3e}; affine rows are rank deficient"
            )
        self._gram = G
        X, L = _spd_solve(G.copy(), A)
        # posv's solution is Fortran-ordered, so its transpose is C-ordered
        self.K = X.T
        self.K.setflags(write=False)
        # a copy, not a view: BLAS takes the same path on it as on A[:, B]
        self.A_B = A[:, binary_cols]
        self.A_B.setflags(write=False)
        # U = (L^{-1} A_B)^T so that U U^T = A_B^T (A A^T)^{-1} A_B
        self.low_rank_factor = _tri_solve(L, self.A_B).T

    @functools.cached_property
    def low_rank_gram(self) -> np.ndarray:
        """The read-only s x s matrix U U^T, U = low_rank_factor: the part of
        the direct Schur system that does not change between slice solves.
        Built on first use, so a manifold whose solves all take the Woodbury
        route never forms it."""
        G = self.low_rank_factor @ self.low_rank_factor.T
        G.setflags(write=False)
        return G

    def gram_solve(self, Y: np.ndarray) -> np.ndarray:
        return _spd_solve(self._gram.copy(), Y)[0]


def _row_index(rows: np.ndarray):
    """rows as the cheapest index: a slice when they are contiguous (or
    empty), else the index array itself. Both select the same rows in the
    same order."""
    if rows.size == 0:
        return slice(0, 0)
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    return slice(lo, hi) if hi - lo == rows.size else rows


class IntersectionManifold:
    def __init__(self, A, b_col, binary_rows, r: int):
        binary_rows = np.asarray(binary_rows, dtype=np.intp)
        A = np.asarray(A, dtype=float)
        if binary_rows.ndim != 1 or binary_rows.size == 0:
            raise ValueError("binary_rows must be a non-empty 1-d index set")
        if np.any(np.diff(binary_rows) <= 0):
            raise ValueError("binary_rows must be strictly increasing")
        if binary_rows[0] < 0 or binary_rows[-1] >= A.shape[1]:
            raise ValueError(f"binary_rows out of bounds for N={A.shape[1]}")
        self.dims = ProblemDims(N=A.shape[1], r=int(r), m_rows=A.shape[0], s=binary_rows.size)
        self.binary_rows = binary_rows
        self.binary_index = _row_index(binary_rows)
        # the rows outside B, in increasing order (both lifts: slice(s, N))
        free = np.setdiff1d(np.arange(A.shape[1]), binary_rows)
        free.setflags(write=False)
        self.free_index = _row_index(free)
        self.affine = AffineSystem(A, b_col, binary_rows)
        self.binary_rows.setflags(write=False)
        self.affine.A.setflags(write=False)
        # whole-block constants in place of strided column updates, with the
        # same bits: x - 0.0 and x + (-0.0) are x for every x, signed zeros
        # included. e1 and centre are (s, r) tiles, one row per binary row,
        # of the unit row e1^T and the spheres' centre e1^T/2 (-0.0 off
        # column 0), so the row kernels add and subtract them entry by entry:
        # each entry sees the same IEEE operation as against a broadcast (r,)
        # row, at less than half the cost per call on the lifts' shapes
        # (0.45 against 1.16 us at s = 50, r = 10; 2-core x86-64 VM, numpy
        # 2.4.6, Python 3.11.7). rhs is the affine right-hand side b e1^T,
        # ones the vector that sums each row in _row_sq, and unit_d the
        # slice diagonal d = 1 of a NewtonSLRA step, whose normals are unit
        r, s = self.dims.r, self.dims.s
        self.e1 = np.zeros((s, r))
        self.e1[:, 0] = 1.0
        self.centre = np.full((s, r), -0.0)
        self.centre[:, 0] = 0.5
        self.rhs = np.zeros((self.dims.m_rows, r))
        self.rhs[:, 0] = self.affine.b_col
        self.ones = np.ones(r)
        self.unit_d = np.ones(s)
        for a in (self.e1, self.centre, self.rhs, self.ones, self.unit_d):
            a.setflags(write=False)

    def binary_block(self, R: np.ndarray) -> np.ndarray:
        """The rows R[binary_rows] for reading, as a view when binary_index
        is a slice and R is C-ordered (so never write to it). Otherwise the
        fancy-indexed copy, which is always C-ordered, so the row reductions
        that follow see the same layout either way and give the same bits."""
        return R[self.binary_index] if R.flags.c_contiguous else R[self.binary_rows]

    def __repr__(self):
        d = self.dims
        return f"IntersectionManifold(N={d.N}, r={d.r}, m_rows={d.m_rows}, s={d.s})"


@dataclass(frozen=True)
class TangentVector:
    xi: np.ndarray
    base: np.ndarray


def _check_dims(M: IntersectionManifold, R: np.ndarray, name: str = "point") -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if R.shape != (M.dims.N, M.dims.r):
        raise ValueError(f"{name} has shape {R.shape}, manifold expects {(M.dims.N, M.dims.r)}")
    return R


def check_point(M: IntersectionManifold, R, name: str) -> np.ndarray:
    """The input gate of every entry point: R as a float array, or
    ValueError naming it when its shape is not (N, r), it holds nan or inf,
    or its squared norm overflows float64 (entries from about 1e154 up),
    where every residual and bound would read inf and inf > inf is False.
    One dot product serves both value tests, since a nan or inf entry also
    makes the squared norm non-finite. The kernels behind the entry points
    check nothing."""
    R = _check_dims(M, R, name)
    # np.vdot, unlike ndarray.dot, reports no overflow warning, so the
    # ValueError below is the one report; it is also the cheaper call here
    sq = np.vdot(R, R)
    if not math.isfinite(sq):
        if not _all_finite(R):
            raise ValueError(f"{name} contains nan or inf")
        raise ValueError(f"{name} overflows float64: its squared norm is inf")
    return R


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() without ndarray.all's Python-level dispatch: the
    same verdict on every array, the empty one (True) included."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def check_count(name: str, value) -> int:
    """value as an int when it is a positive whole number (3.0 passes),
    else ValueError naming it: for 2.5, 0, nan, inf and non-numbers."""
    try:
        if value >= 1 and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a positive integer, got {value!r}")


def frobenius_norm(x: np.ndarray):
    """np.linalg.norm(x) of a float array by numpy's own fast path, without
    its dispatch: the same operations in the same order, so the same bits
    (math.sqrt and np.sqrt both round the square root correctly)."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _row_sq(M: IntersectionManifold, X: np.ndarray) -> np.ndarray:
    """The squared row norms of X (s x r), as one BLAS matrix-vector
    product (X * X) 1 with the manifold's cached ones vector: within a few
    ulps of np.einsum("ij,ij->i", X, X), at about half its cost per call on
    the lifts' shapes. Every squared row norm of the row and sweep kernels
    and of the GWA dual step (solvers._gwa_rows) comes from here."""
    return (X * X).dot(M.ones)


def _sphere_violation(M: IntersectionManifold, RB: np.ndarray) -> np.ndarray:
    h = _row_sq(M, RB)
    h -= RB[:, 0]
    return h


def binary_residual(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    """Per-row violations h_i = ||R_i||^2 - R_{i,1} over the binary rows."""
    R = _check_dims(M, R)
    return _sphere_violation(M, M.binary_block(R))


def _affine_gap(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    # ndarray.dot, not @: the same BLAS product with the same bits at every
    # shape the lifts give (tests pin it), at half the call overhead
    E = M.affine.A.dot(R)
    E -= M.rhs
    return E


def affine_residual(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    return _affine_gap(M, _check_dims(M, R))


def _residual_pass(M: IntersectionManifold, R: np.ndarray):
    # _sphere_violation and _affine_gap written out in this frame: the same
    # operations, two calls fewer on the retraction loop's path
    RB = M.binary_block(R)
    h = _row_sq(M, RB)
    h -= RB[:, 0]
    E = M.affine.A.dot(R)
    E -= M.rhs
    E = E.ravel()
    h2 = h.dot(h)
    return math.sqrt(E.dot(E) + h2), math.sqrt(h2), h


def residual_norms(M: IntersectionManifold, R: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(combined, ||h||, h) from one affine residual E = A R - b e1^T and one
    binary_residual h, whose squared row norms come from _row_sq's one
    product: combined = sqrt(||E||^2 + ||h||^2), with one square root of the
    two squared norms, is combined_residual, ||h|| is what the retraction
    traces record, and h is what the next iAP sweep linearizes with. The
    retraction loop takes all three from this one pass per step (sweep
    computes it for its result)."""
    return _residual_pass(M, _check_dims(M, R))


def combined_residual(M: IntersectionManifold, R: np.ndarray) -> float:
    """sqrt(||A R - b e1^T||^2 + ||h||^2), h the binary_residual."""
    return residual_norms(M, R)[0]


def project_affine(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the affine factor,
    R - A^T (A A^T)^{-1} (A R - b e1^T), applied as R - K (A R - b e1^T)
    with the cached K = A^T (A A^T)^{-1}."""
    R = _check_dims(M, R)
    return R - M.affine.K.dot(_affine_gap(M, R))


def _normals(M: IntersectionManifold, RB: np.ndarray) -> np.ndarray:
    C = 2.0 * RB
    C -= M.e1
    return C


def _degenerate_row(M: IntersectionManifold, nrm: np.ndarray) -> DegenerateRow:
    """DegenerateRow for the first binary row whose normal norm (entry of
    nrm, one per binary row) is below _DEGENERATE_TOL."""
    return DegenerateRow(int(M.binary_rows[np.flatnonzero(nrm < _DEGENERATE_TOL)[0]]))


def _least(x: np.ndarray) -> float:
    """x.min() of a float array, read at x.argmin(), which picks the same
    entry (the first NaN when there is one) at about half the call overhead
    of min on the short per-row vectors of the sweep."""
    return x.item(x.argmin())


def _sphere_rows(M: IntersectionManifold, RB: np.ndarray) -> np.ndarray:
    """The binary rows RB projected onto their spheres in closed form on
    D = RB - centre: centre + D_i (0.5 / ||D_i||), each row scaled by one
    entry of an s-vector. ||D||^2 is _row_sq(D). The normal c_i = 2 D_i
    (exactly: doubling commutes with rounding), so a row with
    ||c_i|| = 2 ||D_i|| below _DEGENERATE_TOL raises DegenerateRow."""
    D = RB - M.centre
    nrm = np.sqrt(_row_sq(M, D))
    if 2.0 * _least(nrm) < _DEGENERATE_TOL:
        raise _degenerate_row(M, 2.0 * nrm)
    D *= (0.5 / nrm)[:, None]
    D += M.centre
    return D


def _linearized_rows(M: IntersectionManifold, RB: np.ndarray, h=None) -> np.ndarray:
    """The binary rows RB moved by -(h_i/||c_i||^2) c_i, h their sphere
    violations (computed here unless the caller holds them), in closed form
    on D = RB - centre: c_i = 2 D_i and ||c_i||^2 = 4 ||D_i||^2, so the move
    is -D_i h_i / (2 ||D_i||^2), with ||D||^2 from _row_sq(D). It is not
    taken as h + 1/4, which loses all accuracy near a sphere's centre, where
    the degenerate test (||c_i|| = 2 ||D_i|| below _DEGENERATE_TOL raises
    DegenerateRow) must still resolve 1e-14."""
    D = RB - M.centre
    nrm2 = _row_sq(M, D)
    if 2.0 * math.sqrt(_least(nrm2)) < _DEGENERATE_TOL:
        raise _degenerate_row(M, 2.0 * np.sqrt(nrm2))
    if h is None:
        h = _sphere_violation(M, RB)
    D *= (h / (2.0 * nrm2))[:, None]
    return RB - D


def row_normals(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    """Rows c_i = 2 R_i - e1^T for i in B. On M2 these have unit norm."""
    R = _check_dims(M, R)
    return _normals(M, M.binary_block(R))


def project_binary(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    """Row-wise projection onto the sphere factor; rows outside B pass through."""
    R = _check_dims(M, R)
    out = R.copy()
    out[M.binary_index] = _sphere_rows(M, M.binary_block(R))
    return out


def linearized_project(M: IntersectionManifold, R: np.ndarray) -> np.ndarray:
    """Projection onto the first-order model of the row constraints at R:
    each binary row moves by -(h_i/||c_i||^2) c_i. Agrees with project_binary
    to second order in the distance to M2."""
    R = _check_dims(M, R)
    out = R.copy()
    out[M.binary_index] = _linearized_rows(M, M.binary_block(R))
    return out


def sweep(M: IntersectionManifold, R: np.ndarray, linearized=False, h=None):
    """One sweep of alternating projections from R, fused with the residual
    pass of its result: the binary rows move onto their spheres (exactly,
    or by linearized_project's first-order move when linearized), the point
    moves onto the affine factor through the cached K as
    P - K (A P - b e1^T), and residual_norms of P follows. Returns
    (P, residual_norms(M, P)).

    Both row steps are the closed forms of _sphere_rows and
    _linearized_rows on D = RB - centre, scaled per row, and every squared
    row norm, of D and of P's binary rows, is one _row_sq product.

    h is R's sphere violations (residual_norms(M, R)[2]) when the caller
    holds them, as the retraction loop does; the linearized sweep reuses
    them. A binary row whose normal is shorter than _DEGENERATE_TOL raises
    DegenerateRow with that row; the retraction loop's retry runs only on
    that raise, so a sweep that returns pays nothing for it. P's affine gap
    and the residual pass's sphere violation and affine gap are formed in
    the frames of sweep and _residual_pass, by the operations of
    _affine_gap and _sphere_violation.

    The same arithmetic as project_affine after project_binary or
    linearized_project, then residual_norms. Like gram_solve it checks
    nothing: R must be a float array of shape (N, r), and the entry points
    check shape and finiteness once."""
    RB = M.binary_block(R)
    P = R.copy()
    P[M.binary_index] = _linearized_rows(M, RB, h) if linearized else _sphere_rows(M, RB)
    # P's affine gap A P - b e1^T, formed here as _affine_gap forms it
    E = M.affine.A.dot(P)
    E -= M.rhs
    P -= M.affine.K.dot(E)
    return P, _residual_pass(M, P)


def _spd_solve(S, rhs):
    """(S^{-1} rhs, L) for a symmetric positive definite temporary S, by one
    LAPACK posv call (Cholesky) that reads the upper triangle of S and
    overwrites S. L is posv's Fortran-ordered array, S's own buffer for a
    C-ordered S: its lower triangle is the Cholesky factor
    (S = tril(L) tril(L)^T) and its strict upper triangle is left over, so
    solve with it by _tri_solve, which reads the lower triangle. This is the
    package's one breakdown rule for a symmetric system: posv info > 0
    (S not positive definite), or a factor diagonal or solution that is not
    finite by _all_finite (OpenBLAS's potrf lets a NaN pivot through with
    info = 0, and an inf diagonal factors to a finite solution), raises
    numpy.linalg.LinAlgError. schur_solve's callers turn it into
    SingularSchur, the GWA dual step (solvers._gwa_weiszfeld) into
    SingularGram; AffineSystem factors A A^T with it after its own rank
    check, and its gram_solve lets it through."""
    # S.T is the Fortran-ordered view of S, which posv factors in place
    # instead of copying; its lower factorization is OpenBLAS's faster one
    # (19 against 29 us at s = 64, 69 against 95 us at s = 128)
    L, x, info = _POSV(S.T, rhs, lower=True, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of posv")
    if info > 0 or not (_all_finite(x) and _all_finite(L.diagonal())):
        raise np.linalg.LinAlgError(
            f"system not positive definite or not finite (posv info = {info})"
        )
    return x, L


def _tri_solve(L, B, trans=0):
    """L^{-1} B (trans=0) or L^{-T} B (trans=1) for the lower triangle of a
    Fortran-ordered L, as _spd_solve returns it, by one LAPACK trtrs call:
    the call scipy.linalg.solve_triangular(L, B, lower=True) makes on such
    an L, with trans="T" as trans=1, so the same bits. Like the other
    kernels it checks nothing for NaN or inf; a zero on L's diagonal
    (trtrs info > 0) raises numpy.linalg.LinAlgError."""
    x, info = _TRTRS(L, B, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info = {info})")
    return x


def _row_kron(C, U):
    """The (s, r m) matrix W whose row i is kron(C[i], U[i])."""
    s, r = C.shape
    return (C[:, :, None] * U[:, None, :]).reshape(s, r * U.shape[1])


def schur_solve(d, C, U, rhs, gram=None):
    """Solve (Diag(d) - (C C^T) o (U U^T)) x = rhs for C of shape (s, r) and
    U of shape (s, m).

    The matrix equals Diag(d) - W W^T, where row i of W is the outer product
    of C[i] and U[i] (the row-wise Khatri-Rao product). The direct route
    forms the s x s matrix; the Woodbury (smw) route applies the Woodbury
    identity, x = rhs/d + Wd (I - W^T Wd)^{-1} Wd^T rhs with
    Wd = Diag(d)^{-1} W, and factors only an (m r) x (m r) core. The sizes
    alone pick the route: smw when s > _SMW_RATIO m r, else direct. gram,
    when given, is a zero-argument function that returns U U^T (project_slice
    passes the cached AffineSystem.low_rank_gram); only the direct route
    calls it.

    Both routes factor by Cholesky through _spd_solve, the package's one
    Cholesky kernel (AffineSystem factors A A^T and the GWA dual step its
    weighted Gram with it too), since every caller's system is positive
    semidefinite.
    U U^T = A_B^T (A A^T)^{-1} A_B <= I, so with d = diag(C C^T)
    (project_tangent, APHL, and NewtonSLRA, whose rows are unit and d = 1)
    the matrix is (C C^T) o (I - U U^T) >= 0 by the Schur product theorem.
    gwa_newton_iterate's I - (Yhat Yhat^T) o K, with unit rows Yhat and
    K = Diag(sqrt(v_B)) U0 U0^T Diag(sqrt(v_B)) <= I, is
    (Yhat Yhat^T) o (I - K) >= 0 the same way. The Woodbury core is positive
    definite exactly when the s x s matrix is. A system that is singular,
    indefinite or not finite raises _spd_solve's numpy.linalg.LinAlgError,
    which project_slice and gwa_newton_iterate turn into SingularSchur.

    Cost: direct forms C C^T (s^2 r flops, plus s^2 m for U U^T when no
    cached one is passed) and factors the s x s matrix (s^3 / 3); smw forms
    W^T Wd (s (m r)^2) and factors the core ((m r)^3 / 3); _SMW_RATIO = 1.5
    comes from these times per solve in microseconds, median of three runs
    (2-core x86-64 VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS
    thread), at a point of each lift; QKP lifts default to r = n/5, so
    m r = 2n/5:

        lift              s    m r   s/(m r)   direct      smw
        QKP n=50          50     20     2.5      38.0     32.7
        QKP n=60          60     24     2.5      40.9     44.0
        QKP n=100        100     40     2.5     100.6     78.6
        QKP n=200        200     80     2.5     407.4    305.7
        QKP n=60, r=15    60     30     2.0      44.0     43.0
        QKP n=60, r=20    60     40     1.5      42.3     63.8
        QKP n=60, r=30    60     60     1.0      51.4     88.6
        QKP n=100, r=25  100     50     2.0     107.1     94.1
        QKP n=100, r=33  100     66     1.5     109.8    119.0
        QAP p=6           36    192     0.19     24.3    387.7
        QAP p=8           64    416     0.15     48.8   3739
        QAP p=12         144   1392     0.10    182.6  64415

    The crossover lies between s/(m r) = 1.5 and 2, so every QKP lift at
    its default rank takes smw and every QAP lift (s/(m r) <= 0.2) takes
    direct. At n = 60 the two routes tie within the run-to-run spread.
    """
    s, r = C.shape
    m = U.shape[1]
    if s <= _SMW_RATIO * m * r:
        UUt = U @ U.T if gram is None else gram()
        # Diag(d) - (C C^T) o (U U^T) in one buffer, with the bits of that
        # expression: off the diagonal 0 - x is 0.0 - x, signed zeros
        # included, and on it (0 - x) + d = d - x exactly for every d but
        # -0.0, which no caller passes (d is 1 or a squared row norm)
        S = C.dot(C.T)
        S *= UUt
        np.subtract(0.0, S, out=S)
        S.ravel()[:: s + 1] += d
        return _spd_solve(S, rhs)[0]
    W = _row_kron(C, U)
    Wd = W / d[:, None]
    core = np.eye(m * r) - W.T @ Wd
    return rhs / d + Wd @ _spd_solve(core, Wd.T @ rhs)[0]


def project_slice(
    M: IntersectionManifold,
    v: np.ndarray,
    C: np.ndarray,
    d: np.ndarray,
    h: np.ndarray,
    E: np.ndarray,
) -> np.ndarray:
    """Least-norm move of v onto the slice {X : A X = A v - E,
    <c_i, X_i> = <c_i, v_i> - h_i for i in B}, C holding the rows c_i.

    Returns v - A^T Lam - T_B*(mu), where T_B*(mu) has rows mu_i c_i on B and
    zeros elsewhere. Lam = (A A^T)^{-1} (E - A_B (mu o C)) is eliminated
    through the cached K = A^T (A A^T)^{-1}, so A^T Lam = K E - K A_B (mu o C)
    with no Gram solve, and the s x s Schur system left is
    (Diag(d) - (C C^T) o (U U^T)) mu = h - <c_i, (K E)_i> over the binary
    rows, solved by schur_solve, whose route (direct or Woodbury) follows
    from the sizes s, m and r alone. d is the diagonal of C C^T (ones when
    the rows are unit normals of points on M2).

    The tangent projector, the NewtonSLRA step and the APHL step are all this
    one projection. A Schur system that is not positive definite raises
    SingularSchur: this is the one place that turns schur_solve's
    numpy.linalg.LinAlgError into a typed error for the slice solves.
    """
    K = M.affine.K
    # ndarray.dot, not @, as in _affine_gap: the same bits (tests pin them)
    KE = K.dot(E)
    rhs = h - np.einsum("ij,ij->i", M.binary_block(KE), C)
    try:
        mu = schur_solve(d, C, M.affine.low_rank_factor, rhs, gram=lambda: M.affine.low_rank_gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSchur(f"slice system singular: {exc}") from exc
    muC = mu[:, None] * C
    out = v - KE
    out += K.dot(M.affine.A_B.dot(muC))
    out[M.binary_index] -= muC
    return out


def check_base(M: IntersectionManifold, R: np.ndarray, base_res: float | None = None):
    """The feasibility guard on a base point R: raise ValueError when its
    combined residual is not finite or exceeds FEASIBILITY_TOL * (||R||_F + 1).

    base_res, R's combined residual when the caller already holds it, skips
    the guard: the caller vouches for R, and nothing is measured or
    compared. The descent loop passes it for the points its own inexact
    retractions produced, whose residuals follow its tolerance schedule and
    may lie above this allowance."""
    if base_res is not None:
        return
    # an overflowing residual is reported by the ValueError below
    with np.errstate(over="ignore", invalid="ignore"):
        res = combined_residual(M, R)
        allow = FEASIBILITY_TOL * (frobenius_norm(R) + 1.0)
    if not (math.isfinite(res) and res <= allow):
        raise ValueError(
            f"base point infeasible: combined residual {res:.3e} exceeds its allowance {allow:.3e}"
        )


def project_tangent(
    M: IntersectionManifold,
    R: np.ndarray,
    v: np.ndarray,
    base_res: float | None = None,
) -> TangentVector:
    """Orthogonal projection of v onto {xi : A xi = 0, <c_i, xi_i> = 0 for i in B}.

    This is project_slice with E = A v, h_i = <c_i, v_i> and
    d_i = ||c_i||^2: the KKT multipliers of the affine rows are eliminated
    through the cached Gram factor, as K = A^T (A A^T)^{-1}, and the s x s
    Schur complement is solved by schur_solve.

    R and v pass check_point, and R must pass check_base unless base_res,
    R's combined residual when the caller holds it, is given; then the
    guard is skipped. A singular Schur system (project_slice's
    SingularSchur) raises TangentSolveSingular.
    """
    R = check_point(M, R, "R")
    v = check_point(M, v, "v")
    check_base(M, R, base_res)
    C = row_normals(M, R)
    gv = np.einsum("ij,ij->i", C, M.binary_block(v))
    d2 = np.einsum("ij,ij->i", C, C)
    try:
        xi = project_slice(M, v, C, d2, gv, E=M.affine.A.dot(v))
    except SingularSchur as e:
        raise TangentSolveSingular(f"tangent KKT solve failed: {e}") from e
    return TangentVector(xi=xi, base=R)

