"""Oracle tests for the retraction step maps and drivers.

The brute-force KKT oracles below assemble each step's optimality system
densely in the full variable space and solve it with a generic linear
solver. They share no elimination structure with the implementation, so
agreement validates the Schur-complement and Woodbury paths.
"""

import math
import re

import numpy as np
import pytest
from scipy import linalg as sla

from isectret import manifold as mf
from isectret import optimizer as op
from isectret import problems as pb
from isectret import solvers as sv
from isectret.errors import (
    DegenerateRow,
    InitialResidualTooLarge,
    IsectError,
    MaxIterExceeded,
    SingularGram,
    SingularSchur,
    TangentSolveSingular,
    VanishingDirection,
)

# ---------------------------------------------------------------------------
# shared instance builders


def decoupled_manifold(N=7, s=4, m=2, r=3, seed=0):
    """Affine rows touch only the non-binary block, so exact feasible points
    can be written down without solving anything."""
    rng = np.random.default_rng(seed)
    A = np.zeros((m, N))
    A[:, s:] = rng.standard_normal((m, N - s))
    b = rng.standard_normal(m)
    return mf.IntersectionManifold(A, b, binary_rows=np.arange(s), r=r)


def feasible_point(M, seed=0):
    rng = np.random.default_rng(seed + 1000)
    N, r, s = M.dims.N, M.dims.r, M.dims.s
    R = np.zeros((N, r))
    for k, i in enumerate(M.binary_rows):
        u = rng.standard_normal(r)
        u /= np.linalg.norm(u)
        R[i] = 0.5 * u
        R[i, 0] += 0.5
    free = np.setdiff1d(np.arange(N), M.binary_rows)
    A2 = M.affine.A[:, free]
    target = np.zeros((M.dims.m_rows, r))
    target[:, 0] = M.affine.b_col
    target -= M.affine.A[:, M.binary_rows] @ R[M.binary_rows]
    R[free] = np.linalg.lstsq(A2, target, rcond=None)[0]
    assert mf.combined_residual(M, R) < 1e-10
    return R


def unit_tangent(M, R, seed=0):
    rng = np.random.default_rng(seed + 2000)
    xi = mf.project_tangent(M, R, rng.standard_normal(R.shape)).xi
    return xi / np.linalg.norm(xi)


def qkp_setup(n=10, r=3, seed=2, density=0.7):
    """Knapsack lift: the affine rows carry the item weights, so the two
    constraint blocks are genuinely coupled (unlike decoupled_manifold,
    where one APM sweep already lands on the intersection)."""
    inst = pb.gen_qkp(n, density, seed)
    prob = pb.lift_qkp(inst, r=r)
    x = pb.feasible_init(prob, r=r)
    return prob.manifold, x


def qkp50_probe_pair():
    """Criterion 1's pinned QKP n=50 probe. The constructive feasible point
    is first-order stationary (its binary rows sit at sphere poles, so the
    tangent projector annihilates the gradient's support); x is therefore
    one exact retraction of a seeded unit tangent away from it, and eta the
    unit projected gradient at x."""
    prob = pb.lift_qkp(pb.gen_qkp(50, 0.5, 42), r=10)
    M = prob.manifold
    base = pb.feasible_init(prob, 10)
    rng = np.random.default_rng(20260819)
    xi = mf.project_tangent(M, base, rng.standard_normal(base.shape)).xi
    xi /= np.linalg.norm(xi)
    polish = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    x = sv.retract(M, base, 0.5 * xi, polish).point
    g = mf.project_tangent(M, x, op.gradient(prob, x)).xi
    return M, x, g / np.linalg.norm(g)


def tangent_pair(prob, rng):
    """(M, x, eta) on a lift: x is feasible_init retracted along 0.5 times a
    unit tangent, eta a unit tangent at x, both drawn from rng."""
    M = prob.manifold

    def unit(R):
        xi = mf.project_tangent(M, R, rng.standard_normal(R.shape)).xi
        return xi / np.linalg.norm(xi)

    base = pb.feasible_init(prob, M.dims.r)
    polish = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    x = sv.retract(M, base, 0.5 * unit(base), polish).point
    return M, x, unit(x)


def seeded_qap(p, seed):
    """The lift of a QAP p whose symmetric integer W and D are drawn from
    default_rng(seed)."""
    rng = np.random.default_rng(seed)
    W = np.triu(rng.integers(0, 10, size=(p, p)), 1)
    D = np.triu(rng.integers(1, 10, size=(p, p)), 1)
    qap = pb.QapInstance(p=p, W=(W + W.T).astype(float), D=(D + D.T).astype(float), name=f"qap{p}")
    return pb.lift_qap(qap)


def coupled_setup(seed=15, N=9, s=4, m=2, r=2):
    """Coupled instance with orthonormal affine rows. The knapsack lift's
    doubled slack makes its two affine rows nearly parallel, which drags the
    alternating-projection contraction factor to 1 - O(1/||a||^2); driver
    convergence tests need a well-conditioned instance instead."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, N))
    q, _ = np.linalg.qr(A.T)
    A = q.T[:m]
    b = 0.3 * rng.standard_normal(m)
    M = mf.IntersectionManifold(A, b, binary_rows=np.arange(s), r=r)
    return M, feasible_point(M, seed=seed)


def general_manifold(seed):
    """Small instance whose affine rows also touch binary rows (general
    position), sized for the dense KKT oracles: N <= 8, r <= 2, s <= 3."""
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 9))
    r = int(rng.integers(1, 3))
    s = int(rng.integers(1, min(4, N - 1)))
    m = int(rng.integers(1, 3))
    A = rng.standard_normal((m, N))
    b = rng.standard_normal(m)
    rows = np.sort(rng.choice(N, size=s, replace=False))
    return mf.IntersectionManifold(A, b, binary_rows=rows, r=r)


def singular_slice_setup():
    """m = 1 with A touching only binary row 0, at a feasible point whose
    row-0 normal is exactly e1: the slice constraint <c_0, X_0> repeats the
    affine row's first column, so every Schur system built here is exactly
    singular, on both the direct and the Woodbury path."""
    A = np.array([[1.0, 0.0, 0.0]])
    M = mf.IntersectionManifold(A, np.array([1.0]), binary_rows=[0, 1], r=2)
    R = np.array([[1.0, 0.0], [0.5, 0.5], [3.0, -2.0]])
    assert mf.combined_residual(M, R) == 0.0
    return M, R


def on_route(route, fn, *args):
    """fn(*args) with every Schur solve forced onto route, "direct" or
    "smw", by setting the size crossover mf._SMW_RATIO to inf or 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mf, "_SMW_RATIO", {"direct": math.inf, "smw": 0.0}[route])
        return fn(*args)


def tapr_cfg(tol, maxiter, tol_absolute=False):
    return sv.RetractionConfig(
        kind=sv.RetractionKind.TAPR, tol=tol, maxiter=maxiter, tol_absolute=tol_absolute
    )


def point_on_m1(M, seed, spread=1.0):
    rng = np.random.default_rng(seed + 5000)
    R = mf.project_affine(M, spread * rng.standard_normal((M.dims.N, M.dims.r)))
    # keep clear of the sphere centers so row normals are well-scaled
    C = mf.row_normals(M, R)
    assert np.min(np.linalg.norm(C, axis=1)) > 1e-3
    return R


def _vec(X):
    return np.ravel(X)  # row-major, matching the oracle kron conventions


def embed_rows(M, mu, C):
    out = np.zeros((M.dims.N, M.dims.r))
    out[M.binary_rows] = mu[:, None] * C
    return out


# ---------------------------------------------------------------------------
# brute-force KKT oracles (independent dense assemblies)


def newton_kkt_oracle(M, R):
    """Minimize ||X - R||^2 s.t. A X = b e1^T and <c_i, X_i - Rt_i> = 0,
    assembled over the full (Nr + mr + s) KKT system."""
    A, b = M.affine.A, M.affine.b_col
    N, r, m, s = M.dims.N, M.dims.r, M.dims.m_rows, M.dims.s
    Rt = mf.project_binary(M, R)
    C = mf.row_normals(M, Rt)
    nv, nl = N * r, m * r
    K = np.zeros((nv + nl + s, nv + nl + s))
    rhs = np.zeros(nv + nl + s)
    K[:nv, :nv] = np.eye(nv)
    Akron = np.kron(A, np.eye(r))
    K[:nv, nv : nv + nl] = Akron.T
    cols = np.zeros((nv, s))
    for k, i in enumerate(M.binary_rows):
        e = np.zeros(N)
        e[i] = 1.0
        cols[:, k] = np.kron(e, C[k])
    K[:nv, nv + nl :] = cols
    K[nv : nv + nl, :nv] = Akron
    K[nv + nl :, :nv] = cols.T
    rhs[:nv] = _vec(R)
    bmat = np.zeros((m, r))
    bmat[:, 0] = b
    rhs[nv : nv + nl] = _vec(bmat)
    rhs[nv + nl :] = np.einsum("ij,ij->i", C, Rt[M.binary_rows])
    sol = np.linalg.solve(K, rhs)
    return sol[:nv].reshape(N, r)


def relaxed_kkt_oracle(M, R):
    """Same projection but with the single relaxed constraint <D, X-Rt> = 0."""
    A, b = M.affine.A, M.affine.b_col
    N, r, m = M.dims.N, M.dims.r, M.dims.m_rows
    Rt = mf.project_binary(M, R)
    D = R - Rt
    nv, nl = N * r, m * r
    K = np.zeros((nv + nl + 1, nv + nl + 1))
    rhs = np.zeros(nv + nl + 1)
    K[:nv, :nv] = np.eye(nv)
    Akron = np.kron(A, np.eye(r))
    K[:nv, nv : nv + nl] = Akron.T
    K[:nv, -1] = _vec(D)
    K[nv : nv + nl, :nv] = Akron
    K[-1, :nv] = _vec(D)
    rhs[:nv] = _vec(R)
    bmat = np.zeros((m, r))
    bmat[:, 0] = b
    rhs[nv : nv + nl] = _vec(bmat)
    rhs[-1] = np.vdot(D, Rt)
    sol = np.linalg.solve(K, rhs)
    return sol[:nv].reshape(N, r)


def aphl_delta_oracle(M, R):
    """Correction delta = -A^T Lam + T_B*(mu) with A delta = -E and
    <c_i, delta_i> = 0, solved densely in (Lam, mu)."""
    A = M.affine.A
    N, r, m, s = M.dims.N, M.dims.r, M.dims.m_rows, M.dims.s
    E = mf.affine_residual(M, R)
    C = mf.row_normals(M, R)
    G = A @ A.T
    nl = m * r
    K = np.zeros((nl + s, nl + s))
    rhs = np.zeros(nl + s)
    K[:nl, :nl] = -np.kron(G, np.eye(r))
    for k, i in enumerate(M.binary_rows):
        K[:nl, nl + k] = np.kron(A[:, i], C[k])
        K[nl + k, :nl] = -np.kron(A[:, i], C[k])
        K[nl + k, nl + k] = float(C[k] @ C[k])
    rhs[:nl] = -_vec(E)
    sol = np.linalg.solve(K, rhs)
    Lam = sol[:nl].reshape(m, r)
    mu = sol[nl:]
    return -A.T @ Lam + embed_rows(M, mu, C)


def tangent_kkt_oracle(M, R, v):
    """Tangent projection of v at R from the dense (m r + s) KKT system in
    the multipliers (Lambda, mu), without eliminating Lambda."""
    A = M.affine.A
    m, r, s = M.dims.m_rows, M.dims.r, M.dims.s
    C = mf.row_normals(M, R)
    Av = A @ v
    gv = np.einsum("ij,ij->i", C, v[M.binary_rows])
    d2 = np.einsum("ij,ij->i", C, C)
    G = A @ A.T
    K = np.zeros((m * r + s, m * r + s))
    K[: m * r, : m * r] = np.kron(G, np.eye(r))
    P = np.empty((m * r, s))
    for k, i in enumerate(M.binary_rows):
        P[:, k] = np.outer(A[:, i], C[k]).ravel()
    K[: m * r, m * r :] = P
    K[m * r :, : m * r] = P.T
    K[m * r :, m * r :] = np.diag(d2)
    rhs = np.concatenate([Av.ravel(), gv])
    sol = np.linalg.solve(K, rhs)
    Lam = sol[: m * r].reshape(m, r)
    mu = sol[m * r :]
    return v - A.T @ Lam - embed_rows(M, mu, C)


def gwa_newton_kron_oracle(M, Vprime, gamma, Theta):
    """Newton update of the GWA dual objective from the (m r) x (m r)
    Kronecker Hessian M0 (x) I_r - sum_k v_k (a_k a_k^T) (x) (yhat_k yhat_k^T),
    M0 = A Diag(v) A^T, solved densely."""
    A = M.affine.A
    B = M.binary_rows
    m, r = M.dims.m_rows, M.dims.r
    Y = Vprime + A.T @ Theta
    nb = np.linalg.norm(Y[B], axis=1)
    v = np.full(M.dims.N, 2.0)
    v[B] = 1.0 / nb
    Yhat = Y[B] / nb[:, None]
    grad = A @ (v[:, None] * Y)
    grad[:, 0] += gamma
    H = np.kron(A @ (v[:, None] * A.T), np.eye(r))
    for k, i in enumerate(B):
        H -= v[i] * np.kron(np.outer(A[:, i], A[:, i]), np.outer(Yhat[k], Yhat[k]))
    return Theta - np.linalg.solve(H, _vec(grad)).reshape(m, r)


# ---------------------------------------------------------------------------
# retract_tol


def test_retract_tol_frozen():
    assert sv.retract_tol(1.0, 1) == pytest.approx(0.01)
    assert sv.retract_tol(1e-12, 1) == pytest.approx(1e-9)
    assert sv.retract_tol(10.0, 10) == pytest.approx(1e-3)


# ---------------------------------------------------------------------------
# config types


def test_retraction_config_validation():
    sv.RetractionConfig(kind=sv.RetractionKind.APM)
    with pytest.raises(ValueError):
        sv.RetractionConfig(kind=sv.RetractionKind.APM, tol=1e-16)
    for bad in (0, 2.5, math.inf, math.nan, "3"):
        with pytest.raises(ValueError, match="maxiter"):
            sv.RetractionConfig(kind=sv.RetractionKind.APM, maxiter=bad)
    assert sv.RetractionConfig(kind=sv.RetractionKind.APM, maxiter=3.0).maxiter == 3


# ---------------------------------------------------------------------------
# apm_step / iap_step


def test_apm_step_fixed_point():
    M = decoupled_manifold(seed=1)
    R = feasible_point(M, seed=1)
    assert np.allclose(sv.apm_step(M, R)[0], R, atol=1e-12)


def test_apm_step_lands_on_affine_set():
    M = decoupled_manifold(seed=2)
    rng = np.random.default_rng(5)
    R = feasible_point(M, seed=2) + 0.1 * rng.standard_normal((M.dims.N, M.dims.r))
    out = sv.apm_step(M, R)[0]
    scale = np.linalg.norm(out) + 1.0
    assert np.linalg.norm(mf.affine_residual(M, out)) < 1e-10 * scale


def test_apm_step_displacement_second_order_in_t():
    M = decoupled_manifold(seed=3)
    x = feasible_point(M, seed=3)
    eta = unit_tangent(M, x, seed=3)
    ts = np.logspace(-3, -6, 6)
    moves = []
    for t in ts:
        R = x + t * eta
        moves.append(np.linalg.norm(sv.apm_step(M, R)[0] - R))
    slope = np.polyfit(np.log10(ts), np.log10(moves), 1)[0]
    assert slope >= 1.8


def test_iap_step_fixed_point():
    M = decoupled_manifold(seed=4)
    R = feasible_point(M, seed=4)
    assert np.allclose(sv.iap_step(M, R)[0], R, atol=1e-12)


def test_iap_matches_apm_to_second_order():
    M = decoupled_manifold(seed=5)
    x = feasible_point(M, seed=5)
    rng = np.random.default_rng(11)
    W = rng.standard_normal(x.shape)
    ratios = []
    for t in np.logspace(-2, -5, 6):
        R = x + t * W
        d = np.linalg.norm(mf.project_binary(M, R) - R)
        gap = np.linalg.norm(sv.iap_step(M, R)[0] - sv.apm_step(M, R)[0])
        ratios.append(gap / d**2)
    med = np.median(ratios)
    assert np.max(ratios) <= 10 * med


def test_iap_residual_contracts_linearly():
    M = decoupled_manifold(seed=6)
    x = feasible_point(M, seed=6)
    R = x + 1e-2 * unit_tangent(M, x, seed=6)
    res = [mf.combined_residual(M, R)]
    for _ in range(8):
        R = sv.iap_step(M, R)[0]
        res.append(mf.combined_residual(M, R))
    res = np.array(res)
    live = res > 1e-14
    assert np.all(res[1:][live[:-1]] < res[:-1][live[:-1]])


# ---------------------------------------------------------------------------
# the fused sweep (mf.sweep) against the formulas it replaced


def potrs_sweep(linearized):
    """apm_step (iap_step when linearized) written as the separate formulas
    the fused kernel replaced: the sphere step, the affine projection by one
    potrs Gram solve, R - A^T (A A^T)^{-1} (A R - b e1^T), then its own
    residual pass."""

    def step(M, R, h=None):
        P = (mf.linearized_project if linearized else mf.project_binary)(M, R)
        P = P - M.affine.A.T @ M.affine.gram_solve(mf.affine_residual(M, P))
        return P, mf.residual_norms(M, P)

    return step


def linear_rate_pairs():
    """The QKP n=50 lift and a seeded QAP p=8 lift, each with a point x one
    NewtonSLRA retraction off its vertex and the step 0.3 eta along a unit
    tangent eta at x: the benchmark's retract-linear inputs, drawn here."""
    rng = np.random.default_rng(1)
    W = np.triu(rng.integers(0, 10, size=(8, 8)), 1)
    D = np.triu(rng.integers(1, 10, size=(8, 8)), 1)
    qap = pb.QapInstance(p=8, W=(W + W.T).astype(float), D=(D + D.T).astype(float), name="qap8")
    polish = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    for prob in (pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), pb.lift_qap(qap)):
        M = prob.manifold
        base = pb.feasible_init(prob, M.dims.r)
        xi = mf.project_tangent(M, base, rng.standard_normal(base.shape)).xi
        x = sv.retract(M, base, 0.5 * xi / np.linalg.norm(xi), polish).point
        eta = mf.project_tangent(M, x, rng.standard_normal(x.shape)).xi
        yield M, x, 0.3 * eta / np.linalg.norm(eta)


@pytest.mark.parametrize("kind", ["apm", "iap", "tapr"])
def test_fused_sweep_matches_the_potrs_formulas(monkeypatch, kind):
    # K = A^T (A A^T)^{-1} in place of the Gram solve changes the last bits
    # of each sweep, and nothing else: the same phases and step counts, the
    # points within 1e-12 and the traced residuals within 1e-9 (relative)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind(kind), tol=1e-6, maxiter=5000)
    for M, x, step in linear_rate_pairs():
        fused = sv.retract(M, x, step, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(sv, "apm_step", potrs_sweep(False))
            patch.setattr(sv, "iap_step", potrs_sweep(True))
            oracle = sv.retract(M, x, step, cfg)
        assert fused.trace.phases == oracle.trace.phases
        assert len(fused.trace) > 2
        gap = np.linalg.norm(fused.point - oracle.point)
        assert gap <= 1e-12 * np.linalg.norm(oracle.point)
        for got, want in ((fused.trace.combined, oracle.trace.combined),
                          (fused.trace.binary, oracle.trace.binary)):
            assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def test_fused_sweep_returns_the_residual_of_its_point():
    M, x = coupled_setup()
    V = x + 0.2 * unit_tangent(M, x, seed=41)
    res = mf.residual_norms(M, V)
    for linearized, (P, res_P) in ((False, sv.apm_step(M, V)), (True, sv.iap_step(M, V, res[2]))):
        assert P.tobytes() == mf.sweep(M, V, linearized)[0].tobytes()
        want = mf.residual_norms(M, P)
        assert res_P[:2] == want[:2]
        assert res_P[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("linearized", [False, True], ids=["apm", "iap"])
def test_sweep_at_a_sphere_centre_raises_with_or_without_h(linearized):
    M, x = coupled_setup()
    V = x.copy()
    V[1] = M.centre
    h = mf.residual_norms(M, V)[2]
    for given in (None, h):
        with pytest.raises(DegenerateRow) as exc:
            mf.sweep(M, V, linearized, given)
        assert exc.value.row == 1


# ---------------------------------------------------------------------------
# newton_slra_step


def test_newton_slra_fixed_point():
    M = decoupled_manifold(seed=7)
    R = feasible_point(M, seed=7)
    assert np.allclose(sv.newton_slra_step(M, R), R, atol=1e-11)


def test_newton_slra_matches_brute_force_kkt():
    for seed in range(10):
        M = general_manifold(seed)
        R = point_on_m1(M, seed)
        want = newton_kkt_oracle(M, R)
        got = sv.newton_slra_step(M, R)
        scale = np.linalg.norm(want) + 1.0
        assert np.linalg.norm(got - want) < 1e-10 * scale, f"seed {seed}"


def test_newton_slra_output_slices():
    # output stays on M1 and on the tangent slice of M2 at Rt
    M = general_manifold(3)
    R = point_on_m1(M, 3)
    out = sv.newton_slra_step(M, R)
    scale = np.linalg.norm(out) + 1.0
    assert np.linalg.norm(mf.affine_residual(M, out)) < 1e-9 * scale
    Rt = mf.project_binary(M, R)
    C = mf.row_normals(M, Rt)
    slice_res = np.einsum("ij,ij->i", C, (out - Rt)[M.binary_rows])
    assert np.max(np.abs(slice_res)) < 1e-9 * scale


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_newton_slra_step_off_the_affine_set_matches_the_kkt_oracle(seed):
    # the step is the projection onto {A X = b e1^T} cap slice wherever R is
    M = general_manifold(seed)
    R = point_on_m1(M, seed) + M.affine.A.T @ np.ones((M.dims.m_rows, M.dims.r))
    assert np.linalg.norm(mf.affine_residual(M, R)) > 0.1
    want = newton_kkt_oracle(M, R)
    got = sv.newton_slra_step(M, R)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_retract_newton_slra_from_a_base_off_the_affine_set():
    # a base that check_base accepts at half its allowance, moved off M1
    # along K Z: the first Newton step must not refuse it
    M, x, eta = tangent_pair(pb.lift_qkp(pb.gen_qkp(12, 0.5, 6)), np.random.default_rng(0))
    move = M.affine.K @ np.random.default_rng(1).standard_normal((M.dims.m_rows, M.dims.r))
    allow = mf.FEASIBILITY_TOL * (np.linalg.norm(x) + 1.0)
    x = x + 0.5 * allow / mf.combined_residual(M, x + move) * move
    allow = mf.FEASIBILITY_TOL * (np.linalg.norm(x) + 1.0)
    assert 0.4 * allow < mf.combined_residual(M, x) < 0.6 * allow
    eta = mf.project_tangent(M, x, eta).xi
    eta /= np.linalg.norm(eta)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-10, maxiter=200)
    out = sv.retract(M, x, 0.05 * eta, cfg)
    assert out.converged
    assert set(out.trace.phases[1:]) == {"newton-slra"}
    assert len(out.trace) - 1 <= 6
    assert out.trace.combined[-1] <= 1e-10 * (np.linalg.norm(out.point) + 1.0)


@pytest.mark.parametrize("case", ["coupled", "scattered"])
def test_no_gram_solve_per_step(case, monkeypatch):
    # the cached K is the one per-step elimination of the affine rows:
    # once the manifold is built, no step, tangent projection or retraction
    # solves with A A^T again (general_manifold(7) has binary rows 1, 2, 6,
    # so binary_block takes its index-array path)
    if case == "coupled":
        M, x = coupled_setup()
    else:
        M = general_manifold(7)
        x = feasible_point(M, 7)
    assert isinstance(M.binary_index, slice) == (case == "coupled")
    eta = 0.05 * unit_tangent(M, x, 3)

    def refuse(self, Y):
        raise AssertionError("gram_solve called after the manifold was built")

    monkeypatch.setattr(mf.AffineSystem, "gram_solve", refuse)
    mf.project_tangent(M, x, np.random.default_rng(4).standard_normal(x.shape))
    V = x + eta
    for step in (sv.apm_step, sv.iap_step, sv.newton_slra_step,
                 sv.relaxed_newton_slra_step, sv.aphl_step):
        step(M, V)
    for kind in sv.RetractionKind:
        out = sv.retract(M, x, eta, sv.RetractionConfig(kind=kind, tol=1e-8, maxiter=500))
        assert out.converged, kind


@pytest.mark.parametrize("path", ["direct", "smw"])
def test_singular_schur_systems_raise_typed_errors(path):
    M, R = singular_slice_setup()
    with pytest.raises(SingularSchur):
        on_route(path, sv.newton_slra_step, M, R)
    # R is feasible, so E = 0, and its unit normals give d = 1: the same
    # singular system, reached through project_slice directly and through APHL
    C = mf.row_normals(M, R)
    with pytest.raises(SingularSchur, match="slice system singular"):
        E = np.zeros((M.dims.m_rows, M.dims.r))
        on_route(path, mf.project_slice, M, R, C, np.ones(M.dims.s), np.zeros(M.dims.s), E)
    with pytest.raises(SingularSchur):
        on_route(path, sv.aphl_step, M, R)
    # dual point with Y = R: binary row 0 of Y is exactly e1 with weight 1
    with pytest.raises(SingularSchur):
        on_route(path, sv.gwa_newton_iterate, M, R, np.zeros(1), np.zeros((1, 2)))


@pytest.mark.parametrize("path", ["direct", "smw"])
def test_indefinite_slice_system_raises_singular_schur(path):
    # U U^T <= I makes every slice system positive semidefinite; with U
    # doubled it is indefinite (and nonsingular), and the Cholesky solve on
    # either route must refuse it rather than return a step
    M = general_manifold(3)
    R = point_on_m1(M, 3)
    U = 2.0 * M.affine.low_rank_factor
    M.affine.low_rank_factor = U
    vars(M.affine).pop("low_rank_gram", None)
    C = mf.row_normals(M, mf.project_binary(M, R))
    S = np.eye(M.dims.s) - (C @ C.T) * (U @ U.T)
    assert np.linalg.eigvalsh(S)[0] < -0.1
    with pytest.raises(SingularSchur):
        on_route(path, sv.newton_slra_step, M, R)


def test_project_tangent_singular_kkt_raises_typed_error():
    M, R = singular_slice_setup()
    with pytest.raises(TangentSolveSingular):
        mf.project_tangent(M, R, np.ones_like(R))


def test_newton_slra_direct_smw_agree():
    # one instance in each auto regime, both paths forced on each
    for N, s, m, r, seed in ((40, 30, 1, 2, 13), (12, 4, 2, 3, 17)):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, N))
        b = rng.standard_normal(m)
        M = mf.IntersectionManifold(A, b, binary_rows=np.arange(s), r=r)
        R = point_on_m1(M, seed)
        d = on_route("direct", sv.newton_slra_step, M, R)
        w = on_route("smw", sv.newton_slra_step, M, R)
        scale = np.linalg.norm(d) + 1.0
        assert np.linalg.norm(d - w) < 1e-10 * scale


# ---------------------------------------------------------------------------
# relaxed_newton_slra_step


def test_relaxed_step_vanishing_direction_on_manifold():
    M = decoupled_manifold(seed=8)
    R = feasible_point(M, seed=8)
    with pytest.raises(VanishingDirection):
        sv.relaxed_newton_slra_step(M, R)


def test_relaxed_step_constraint_consistency():
    M = general_manifold(21)
    R = point_on_m1(M, 21)
    Rt = mf.project_binary(M, R)
    D = R - Rt
    out = sv.relaxed_newton_slra_step(M, R)
    num = abs(np.vdot(D, out - Rt))
    assert num < 1e-10 * np.linalg.norm(D) * max(np.linalg.norm(out - Rt), 1e-30)
    scale = np.linalg.norm(out) + 1.0
    assert np.linalg.norm(mf.affine_residual(M, out)) < 1e-10 * scale


def test_relaxed_matches_brute_force_kkt():
    for seed in range(10):
        M = general_manifold(seed + 100)
        R = point_on_m1(M, seed + 100)
        want = relaxed_kkt_oracle(M, R)
        got = sv.relaxed_newton_slra_step(M, R)
        scale = np.linalg.norm(want) + 1.0
        assert np.linalg.norm(got - want) < 1e-10 * scale, f"seed {seed}"


def test_relaxed_equals_newton_when_single_binary_row():
    hits = 0
    for seed in range(30):
        M = general_manifold(seed + 200)
        if M.dims.s != 1:
            continue
        hits += 1
        R = point_on_m1(M, seed + 200)
        a = sv.relaxed_newton_slra_step(M, R)
        b = sv.newton_slra_step(M, R)
        scale = np.linalg.norm(b) + 1.0
        assert np.linalg.norm(a - b) < 1e-9 * scale, f"seed {seed}"
    assert hits >= 3


# ---------------------------------------------------------------------------
# aphl_step


def test_aphl_fixed_point():
    M = decoupled_manifold(seed=9)
    R = feasible_point(M, seed=9)
    assert np.allclose(sv.aphl_step(M, R), R, atol=1e-11)


def test_aphl_matches_brute_force():
    for seed in range(10):
        M = general_manifold(seed + 300)
        rng = np.random.default_rng(seed + 300)
        # point on M2 with a nonzero affine residual
        R = mf.project_binary(M, rng.standard_normal((M.dims.N, M.dims.r)))
        delta = aphl_delta_oracle(M, R)
        want = mf.project_binary(M, R + delta)
        got = sv.aphl_step(M, R)
        scale = np.linalg.norm(want) + 1.0
        assert np.linalg.norm(got - want) < 1e-10 * scale, f"seed {seed}"
        # the correction is row-tangent at R and cancels the affine residual
        C = mf.row_normals(M, R)
        dots = np.einsum("ij,ij->i", C, delta[M.binary_rows])
        assert np.max(np.abs(dots)) < 1e-10 * (np.linalg.norm(delta) + 1.0)
        post = mf.affine_residual(M, R + delta)
        assert np.linalg.norm(post) < 1e-9 * (np.linalg.norm(R) + 1.0)


def test_aphl_affine_residual_decays_quadratically():
    M, x = qkp_setup(n=8, r=2, seed=4)
    rng = np.random.default_rng(23)
    Lam = rng.standard_normal((M.dims.m_rows, M.dims.r))
    normal_dir = M.affine.A.T @ Lam
    normal_dir /= np.linalg.norm(normal_dir)
    ratios = []
    for t in np.logspace(-2, -4, 5):
        R = mf.project_binary(M, x + t * normal_dir)
        before = np.linalg.norm(mf.affine_residual(M, R))
        assert before > 1e-8  # perturbation actually leaves the affine set
        out = sv.aphl_step(M, R)
        after = np.linalg.norm(mf.affine_residual(M, out))
        ratios.append(after / before**2)
    med = np.median(ratios)
    assert np.max(ratios) <= 10 * max(med, 1e-18)


def aphl_identity_points():
    """(label, M, x, eta, t) on seeded QAP p=6 and p=8 lifts and the QKP
    n=50 lift (seed 42), at t in {1e-3, 0.1, 0.5}, with x and the unit
    tangent eta from tangent_pair."""
    lifts = (("qap6", seeded_qap(6, 6)), ("qap8", seeded_qap(8, 8)),
             ("qkp50", pb.lift_qkp(pb.gen_qkp(50, 0.5, 42))))
    for label, prob in lifts:
        M, x, eta = tangent_pair(prob, np.random.default_rng(14))
        for t in (1e-3, 0.1, 0.5):
            yield f"{label}, t={t}", M, x, eta, t


def test_aphl_is_newton_slra_read_on_the_spheres():
    # NewtonSLRA projects R onto {A X = b e1^T} cut with the tangent slice
    # at Rt = P_B(R); R - Rt is orthogonal to that slice's directions, so
    # projecting R or Rt lands on the same point, and APHL's step from Rt
    # is P_B of it. By induction APHL's iterates are P_B of NewtonSLRA's,
    # and both retractions end at the same point
    rng = np.random.default_rng(41)
    for label, M, x, eta, t in aphl_identity_points():
        # off both the affine set and the spheres
        R = x + t * eta + 1e-3 * rng.standard_normal(x.shape)
        Rt = mf.project_binary(M, R)
        newton = sv.newton_slra_step(M, R)
        for got, want in ((sv.aphl_step(M, Rt), mf.project_binary(M, newton)),
                          (sv.newton_slra_step(M, Rt), newton)):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), label
        points = [
            sv.retract(M, x, t * eta, sv.RetractionConfig(kind=kind, tol=1e-12, tol_absolute=True)).point
            for kind in (sv.RetractionKind.APHL, sv.RetractionKind.NewtonSLRA)
        ]
        assert np.linalg.norm(points[0] - points[1]) <= 1e-11, label


# ---------------------------------------------------------------------------
# GWA / GWA-Newton dual iterations


def _dual_data(M, V):
    e = np.ones(M.dims.N)
    Vp = V.copy()
    Vp[:, 0] -= 0.5
    gamma = M.affine.A @ e - 2.0 * M.affine.b_col
    return Vp, gamma


def test_gwa_fixed_point_is_stationary():
    M = decoupled_manifold(seed=11)
    x = feasible_point(M, seed=11)
    V = x + 0.05 * unit_tangent(M, x, seed=11)
    Vp, gamma = _dual_data(M, V)
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    for _ in range(2000):
        nxt = sv.gwa_iterate(M, Vp, gamma, Theta)
        if np.linalg.norm(nxt - Theta) <= 1e-14 * (np.linalg.norm(Theta) + 1):
            Theta = nxt
            break
        Theta = nxt
    again = sv.gwa_iterate(M, Vp, gamma, Theta)
    assert np.allclose(again, Theta, atol=1e-10 * (np.linalg.norm(Theta) + 1))
    # stationarity of the dual objective
    Y = Vp + M.affine.A.T @ Theta
    v = np.full(M.dims.N, 2.0)
    nb = np.linalg.norm(Y[M.binary_rows], axis=1)
    v[M.binary_rows] = 1.0 / np.maximum(nb, 1e-12)
    grad = M.affine.A @ (v[:, None] * Y)
    grad[:, 0] += gamma
    assert np.linalg.norm(grad) < 1e-8 * (np.linalg.norm(Theta) + 1)


def test_gwa_objective_nonincreasing():
    M = decoupled_manifold(seed=12)
    rng = np.random.default_rng(31)
    x = feasible_point(M, seed=12)
    V = x + 0.1 * rng.standard_normal(x.shape)
    Vp, gamma = _dual_data(M, V)
    for _ in range(100):
        Theta = rng.standard_normal((M.dims.m_rows, M.dims.r))
        g0 = sv.gwa_objective(M, Vp, gamma, Theta)
        g1 = sv.gwa_objective(M, Vp, gamma, sv.gwa_iterate(M, Vp, gamma, Theta))
        assert g1 <= g0 + 1e-10 * (abs(g0) + 1.0)


def test_gwa_tiny_grid_oracle():
    # N=4, r=1, s=2, m=1: the dual variable is a scalar
    A = np.array([[0.7, -0.4, 1.1, 0.6]])
    b = np.array([0.9])
    M = mf.IntersectionManifold(A, b, binary_rows=[0, 1], r=1)
    rng = np.random.default_rng(41)
    V = rng.standard_normal((4, 1))
    Vp, gamma = _dual_data(M, V)

    def G(th):
        return sv.gwa_objective(M, Vp, gamma, np.array([[th]]))

    grid = np.linspace(-10.0, 10.0, 20001)
    vals = [G(t) for t in grid]
    k = int(np.argmin(vals))
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(G, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]), method="bounded", options={"xatol": 1e-12})
    theta = np.zeros((1, 1))
    for _ in range(5000):
        nxt = sv.gwa_iterate(M, Vp, gamma, theta)
        if np.linalg.norm(nxt - theta) <= 1e-14 * (np.linalg.norm(theta) + 1):
            theta = nxt
            break
        theta = nxt
    assert theta[0, 0] == pytest.approx(res.x, abs=1e-6)


def test_gwa_newton_zero_direction_at_stationary_point():
    M = decoupled_manifold(seed=13)
    x = feasible_point(M, seed=13)
    V = x + 0.05 * unit_tangent(M, x, seed=13)
    Vp, gamma = _dual_data(M, V)
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    for _ in range(5000):
        nxt = sv.gwa_iterate(M, Vp, gamma, Theta)
        if np.linalg.norm(nxt - Theta) <= 1e-15 * (np.linalg.norm(Theta) + 1):
            Theta = nxt
            break
        Theta = nxt
    out = sv.gwa_newton_iterate(M, Vp, gamma, Theta)
    assert np.allclose(out, Theta, atol=1e-10 * (np.linalg.norm(Theta) + 1))


def test_gwa_newton_reports_a_vanished_binary_row_as_degenerate():
    # binary row 2 of V at its sphere's center: Y_2 = V'_2 = 0 at Theta = 0
    M = decoupled_manifold(seed=13)
    V = feasible_point(M, seed=13)
    V[2] = 0.0
    V[2, 0] = 0.5
    Vp, gamma = _dual_data(M, V)
    with pytest.raises(DegenerateRow) as err:
        sv.gwa_newton_iterate(M, Vp, gamma, np.zeros((M.dims.m_rows, M.dims.r)))
    assert err.value.row == 2
    with pytest.raises(DegenerateRow):
        sv.metric_project(M, V, method="gwa-newton")


def _criterion6_points():
    """The 50 instances of acceptance criterion 6, drawn in the same order:
    (label, M, V, Theta), Theta a start for the dual step."""
    for seed in range(50):
        rng = np.random.default_rng(seed + 500)
        N = int(rng.integers(6, 40))
        s = int(rng.integers(1, min(N - 1, 30)))
        m = int(rng.integers(1, 3))
        r = int(rng.integers(1, 4))
        A = rng.standard_normal((m, N))
        b = rng.standard_normal(m)
        rows = np.sort(rng.choice(N, size=s, replace=False))
        M = mf.IntersectionManifold(A, b, binary_rows=rows, r=r)
        V = rng.standard_normal((N, r))
        Theta = 0.1 * rng.standard_normal((m, r))
        yield f"criterion 6 seed {seed}", M, V, Theta


def _criterion6_dual_cases():
    """Criterion 6's instances as dual data (label, M, V', gamma, Theta)."""
    for label, M, V, Theta in _criterion6_points():
        yield label, M, *_dual_data(M, V), Theta


def gwa_iterate_oracle(M, Vprime, gamma, Theta):
    """The dual step with numpy's row norms and scipy's Cholesky wrappers:
    the weighted Gram system factored by sla.cho_factor from the triangle
    the kernel reads (the lower one of Gv.T) and solved by sla.cho_solve."""
    A = M.affine.A
    Y = Vprime + A.T @ Theta
    v = np.full(M.dims.N, 2.0)
    nb = np.linalg.norm(Y[M.binary_rows], axis=1)
    v[M.binary_rows] = 1.0 / np.maximum(nb, 1e-12)
    Gv = A @ (v[:, None] * A.T)
    rhs = A @ (v[:, None] * Vprime)
    rhs[:, 0] += gamma
    return -sla.cho_solve(sla.cho_factor(Gv.T, lower=True), rhs)


def gwa_objective_oracle(M, Vprime, gamma, Theta):
    """The dual objective with numpy's row norms and a boolean row mask."""
    Y = Vprime + M.affine.A.T @ Theta
    norms = np.linalg.norm(Y, axis=1)
    mask = np.zeros(M.dims.N, dtype=bool)
    mask[M.binary_rows] = True
    return float(norms[mask].sum() + (norms[~mask] ** 2).sum() + gamma @ Theta[:, 0])


def _lift_points():
    """The lifts QKP n=10, a seeded QAP p=8 and QKP n=100 at a point 0.3
    along a unit tangent plus noise: (label, M, V)."""
    rng = np.random.default_rng(91)
    W = np.triu(rng.integers(0, 10, size=(8, 8)), 1)
    D = np.triu(rng.integers(1, 10, size=(8, 8)), 1)
    qap = pb.QapInstance(p=8, W=(W + W.T).astype(float), D=(D + D.T).astype(float), name="q8")
    lifts = (("qkp lift", pb.lift_qkp(pb.gen_qkp(10, 0.7, 2))), ("qap lift", pb.lift_qap(qap)))
    for label, prob in lifts:
        M = prob.manifold
        x = pb.feasible_init(prob, M.dims.r)
        V = x + 0.3 * unit_tangent(M, x, seed=5) + 1e-3 * rng.standard_normal(x.shape)
        yield label, M, V
    # gen-qkp n=100 seed 42 as in the metric-project benchmark: plain gwa
    # does not settle there in its 500 steps
    M, x, eta = tangent_pair(pb.lift_qkp(pb.gen_qkp(100, 0.5, 42)), rng)
    yield "qkp100 lift", M, x + 0.3 * eta + 1e-3 * rng.standard_normal(x.shape)


def _lift_dual_cases():
    """The lift points as dual data, the dual variable starting at 0 as in
    metric_project."""
    for label, M, V in _lift_points():
        yield label, M, *_dual_data(M, V), np.zeros((M.dims.m_rows, M.dims.r))


def test_gwa_dual_step_and_objective_match_the_scipy_oracle_bytes():
    M = decoupled_manifold(seed=11)
    x = feasible_point(M, seed=11)
    V = x + 0.05 * unit_tangent(M, x, seed=11)
    own = ("decoupled", M, *_dual_data(M, V), np.zeros((M.dims.m_rows, M.dims.r)))
    for label, M, Vp, gamma, Theta in (*_criterion6_dual_cases(), own, *_lift_dual_cases()):
        for step in range(60):
            want = gwa_iterate_oracle(M, Vp, gamma, Theta)
            got = sv.gwa_iterate(M, Vp, gamma, Theta)
            assert got.tobytes() == want.tobytes(), f"{label}, step {step}"
            # the same step from the rows metric_project's loop holds
            held = sv.gwa_iterate(M, Vp, gamma, Theta, sv._gwa_rows(M, Vp, Theta))
            assert held.tobytes() == want.tobytes(), f"{label}, step {step}, held rows"
            Theta = got
            g = sv.gwa_objective(M, Vp, gamma, Theta)
            assert g == gwa_objective_oracle(M, Vp, gamma, Theta), f"{label}, step {step}"


def metric_project_loop_oracle(M, V, method, tol=1e-9, maxiter=500):
    """metric_project's dual loop with every step through the public maps
    and nothing held between them: step(M, V', gamma, Theta), then
    gwa_objective at the new iterate, so Y and its row norms are formed
    twice per step. Same stop test, recovery and error messages."""
    A = M.affine.A
    Vp, gamma = _dual_data(M, V)
    step = sv.gwa_iterate if method == "gwa" else sv.gwa_newton_iterate
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    g_cur = sv.gwa_objective(M, Vp, gamma, Theta)
    for _ in range(maxiter):
        nxt = step(M, Vp, gamma, Theta)
        g_nxt = sv.gwa_objective(M, Vp, gamma, nxt)
        change = mf.frobenius_norm(nxt - Theta)
        bound = tol * (mf.frobenius_norm(Theta) + 1.0)
        done = change <= bound and g_nxt <= g_cur + 1e-12 * (abs(g_cur) + 1.0)
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
    raise MaxIterExceeded(
        f"dual iteration ({method}) did not settle in {maxiter} steps: "
        f"last update {change:.3e} against its bound {bound:.3e}"
    )


def _projection_outcome(project, *args, **kwargs):
    """("ok", point bytes) or (error class, message)."""
    try:
        return "ok", project(*args, **kwargs).tobytes()
    except IsectError as err:
        return type(err), str(err)


def _dual_loop_inputs():
    """(label, M, V, maxiter): criterion 6's instances, the decoupled
    instance, the lifts (the QKP n=100 point exhausts gwa's 500 steps) and
    a V with binary row 2 at its sphere's centre, where gwa-newton raises
    DegenerateRow. Criterion 6's random V get 60 steps, which most of them
    use up, so both outcomes are compared."""
    for label, M, V, _ in _criterion6_points():
        yield label, M, V, 60
    M = decoupled_manifold(seed=11)
    x = feasible_point(M, seed=11)
    yield "decoupled", M, x + 0.05 * unit_tangent(M, x, seed=11), 500
    for label, M, V in _lift_points():
        yield label, M, V, 500
    M = decoupled_manifold(seed=13)
    V = feasible_point(M, seed=13)
    V[2] = 0.0
    V[2, 0] = 0.5
    yield "centred row", M, V, 500


@pytest.mark.parametrize("method", ["gwa", "gwa-newton"])
def test_metric_project_loop_matches_the_unshared_loop_bytes(method):
    outcomes = []
    for label, M, V, maxiter in _dual_loop_inputs():
        want = _projection_outcome(metric_project_loop_oracle, M, V, method, maxiter=maxiter)
        got = _projection_outcome(sv.metric_project, M, V, method=method, maxiter=maxiter)
        assert got == want, label
        outcomes.append((label, want[0]))
    kinds = {kind for _, kind in outcomes}
    assert "ok" in kinds and MaxIterExceeded in kinds
    if method == "gwa":
        assert ("qkp100 lift", MaxIterExceeded) in outcomes
    else:
        assert ("centred row", DegenerateRow) in outcomes


def log_dual_loop(monkeypatch, method):
    """Rebind the method's dual step and solvers._gwa_value to loggers:
    steps gets (Theta, its update) per step, values gets (number of steps
    taken, Theta) per objective evaluation."""
    steps, values = [], []
    name = "gwa_iterate" if method == "gwa" else "gwa_newton_iterate"
    step, value = getattr(sv, name), sv._gwa_value

    def logged_step(M, Vprime, gamma, Theta, rows=None):
        nxt = step(M, Vprime, gamma, Theta, rows)
        steps.append((Theta, nxt))
        return nxt

    def logged_value(M, gamma, Theta, norms):
        values.append((len(steps), Theta))
        return value(M, gamma, Theta, norms)

    monkeypatch.setattr(sv, name, logged_step)
    monkeypatch.setattr(sv, "_gwa_value", logged_value)
    return steps, values


def test_metric_project_evaluates_the_objective_only_at_candidate_stops(monkeypatch):
    points = {label: (M, V) for label, M, V in _lift_points()}
    # on the QKP n=100 point no gwa update meets its bound in 500 steps, so
    # the objective is never evaluated
    steps, values = log_dual_loop(monkeypatch, "gwa")
    with pytest.raises(MaxIterExceeded, match="did not settle in 500 steps"):
        sv.metric_project(*points["qkp100 lift"], method="gwa")
    assert len(steps) == 500
    assert values == []
    # where the loop settles, each evaluation reads one of the two iterates
    # of a step whose update met its bound, and the last step is such a stop
    for label, method in (("qap lift", "gwa"), ("qkp100 lift", "gwa-newton")):
        monkeypatch.undo()
        steps, values = log_dual_loop(monkeypatch, method)
        sv.metric_project(*points[label], method=method)
        assert values and values[-1][0] == len(steps), label
        for k, Theta in values:
            prev, nxt = steps[k - 1]
            assert np.linalg.norm(nxt - prev) <= 1e-9 * (np.linalg.norm(prev) + 1.0), (label, k)
            assert Theta is prev or Theta is nxt, (label, k)


@pytest.mark.parametrize(
    "G, rhs, expect",
    [
        ([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]], [[1.0, -2.0], [0.5, 0.0], [3.0, 1.0]],
         None),
        ([[2.5]], [[1.0, -3.0, 7.0]], None),
        # only the upper triangle is read: the 1e20 below the diagonal is not
        ([[4.0, 0.0], [1e20, 3.0]], [[1.0], [2.0]], None),
        ([[np.nan, 0.0], [0.0, 1.0]], [[1.0], [1.0]], np.linalg.LinAlgError),
        # nor is this NaN
        ([[1.0, 0.0], [np.nan, 1.0]], [[1.0], [1.0]], None),
        ([[1.0, 0.0], [0.0, 1.0]], [[np.inf], [1.0]], np.linalg.LinAlgError),
        # factors to L = inf and the finite solution 0
        ([[np.inf]], [[1.0]], np.linalg.LinAlgError),
        ([[1.0, 2.0], [2.0, 1.0]], [[1.0], [1.0]], np.linalg.LinAlgError),
        ([[1.0, 1e20], [0.0, 1.0]], [[1.0], [1.0]], np.linalg.LinAlgError),
        ([[0.0]], [[1.0, 2.0]], np.linalg.LinAlgError),
        # ill-conditioned but with a finite solution, so no warning and no error
        ([[1.0, 0.0], [0.0, 1e-17]], [[1.0], [1.0]], None),
        # the solution 1e320 overflows to inf
        ([[1.0, 0.0], [0.0, 1e-320]], [[1.0], [1.0]], np.linalg.LinAlgError),
    ],
    ids=[
        "spd", "1x1", "upper-only", "nan-upper", "nan-lower", "inf-rhs", "inf-1x1",
        "indefinite", "indefinite-upper", "zero-1x1", "rcond-below-eps", "rcond-zero",
    ],
)
def test_pos_solve_keeps_the_checks_of_scipy_solve(G, rhs, expect, monkeypatch):
    """The contract of mf._spd_solve, the one Cholesky kernel (the test is
    named for the scipy-emulating posv wrapper the dual step used before).
    It reads the upper triangle of G; where that stands for a positive
    definite matrix and the solution is finite, it returns the solution and
    a factor L with tril(L) tril(L)^T equal to that matrix, else it raises
    LinAlgError, which the GWA dual step reports as SingularGram."""
    G = np.array(G, dtype=float)
    rhs = np.array(rhs, dtype=float)
    sym = np.triu(G) + np.triu(G, 1).T
    if expect is None:
        x, L = mf._spd_solve(G.copy(), rhs)
        L = np.tril(L)
        assert np.isfinite(x).all()
        assert np.linalg.norm(L @ L.T - sym) <= 1e-12 * np.linalg.norm(sym)
        assert np.linalg.norm(sym @ x - rhs) <= 1e-12 * np.linalg.norm(sym) * np.linalg.norm(x)
    else:
        with pytest.raises(expect):
            mf._spd_solve(G.copy(), rhs)
    # the dual step, handed this system in place of its weighted Gram
    M = decoupled_manifold(seed=11)
    Vp, gamma = _dual_data(M, feasible_point(M, seed=11))
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    spd_solve = mf._spd_solve
    monkeypatch.setattr(mf, "_spd_solve", lambda S, b: spd_solve(G.copy(), rhs))
    if expect is None:
        assert sv.gwa_iterate(M, Vp, gamma, Theta).tobytes() == (-x).tobytes()
    else:
        with pytest.raises(SingularGram, match="weighted Gram singular in dual update"):
            sv.gwa_iterate(M, Vp, gamma, Theta)


def test_gwa_newton_direct_smw_agree():
    def own_cases():
        for N, s, m, r, seed in ((30, 25, 1, 2, 51), (10, 3, 2, 2, 53)):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((m, N))
            b = rng.standard_normal(m)
            M = mf.IntersectionManifold(A, b, binary_rows=np.arange(s), r=r)
            V = rng.standard_normal((N, r))
            Vp, gamma = _dual_data(M, V)
            Theta = 0.1 * rng.standard_normal((m, r))
            yield f"seed {seed}", M, Vp, gamma, Theta

    for label, M, Vp, gamma, Theta in (*own_cases(), *_criterion6_dual_cases()):
        want = gwa_newton_kron_oracle(M, Vp, gamma, Theta)
        d = on_route("direct", sv.gwa_newton_iterate, M, Vp, gamma, Theta)
        w = on_route("smw", sv.gwa_newton_iterate, M, Vp, gamma, Theta)
        rows = sv._gwa_rows(M, Vp, Theta)
        for route, got in (("direct", d), ("smw", w)):
            held = on_route(route, sv.gwa_newton_iterate, M, Vp, gamma, Theta, rows)
            assert held.tobytes() == got.tobytes(), f"{label}, {route}, held rows"
        assert np.linalg.norm(d - w) < 1e-9 * (np.linalg.norm(d) + 1.0), label
        for path, got in (("direct", d), ("smw", w)):
            rel = np.linalg.norm(got - want) / (np.linalg.norm(want) + 1.0)
            assert rel < 1e-9, f"{label}, {path}: {rel:.3e} from the Kronecker oracle"


def test_gwa_newton_superlinear_near_limit():
    M = decoupled_manifold(seed=14)
    x = feasible_point(M, seed=14)
    V = x + 0.05 * unit_tangent(M, x, seed=14)
    Vp, gamma = _dual_data(M, V)
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    for _ in range(20000):
        nxt = sv.gwa_iterate(M, Vp, gamma, Theta)
        if np.linalg.norm(nxt - Theta) <= 1e-15 * (np.linalg.norm(Theta) + 1):
            Theta = nxt
            break
        Theta = nxt
    rng = np.random.default_rng(61)
    cur = Theta + 1e-3 * rng.standard_normal(Theta.shape)
    errs = [np.linalg.norm(cur - Theta)]
    for _ in range(5):
        cur = sv.gwa_newton_iterate(M, Vp, gamma, cur)
        errs.append(np.linalg.norm(cur - Theta))
        if errs[-1] < 1e-12:
            break
    assert errs[-1] < 1e-10


# ---------------------------------------------------------------------------
# metric_project


def test_metric_project_fixed_on_manifold():
    M = decoupled_manifold(seed=15)
    x = feasible_point(M, seed=15)
    out = sv.metric_project(M, x, method="gwa", tol=1e-13, maxiter=2000)
    assert np.allclose(out, x, atol=1e-10)


def test_metric_project_feasible_and_kkt():
    M = decoupled_manifold(seed=16)
    x = feasible_point(M, seed=16)
    rng = np.random.default_rng(71)
    V = x + 0.05 * rng.standard_normal(x.shape)
    out = sv.metric_project(M, V, method="gwa", tol=1e-13, maxiter=5000)
    scale = np.linalg.norm(out) + 1.0
    assert mf.combined_residual(M, out) < 1e-9 * scale
    resid = mf.project_tangent(M, out, V - out).xi
    assert np.linalg.norm(resid) < 1e-8 * (np.linalg.norm(V - out) + 1.0)


def test_metric_project_methods_agree():
    M = decoupled_manifold(seed=17)
    x = feasible_point(M, seed=17)
    rng = np.random.default_rng(73)
    V = x + 0.05 * rng.standard_normal(x.shape)
    a = sv.metric_project(M, V, method="gwa", tol=1e-13, maxiter=5000)
    b = sv.metric_project(M, V, method="gwa-newton", tol=1e-13, maxiter=200)
    assert np.linalg.norm(a - b) < 1e-8 * (np.linalg.norm(a) + 1.0)


def test_metric_project_refuses_a_stalled_dual_step():
    # at t = 1e-3 on the probe the Weiszfeld update stalls: its stop test
    # passes while the recovered point is ~170x less feasible than V
    M, x, eta = qkp50_probe_pair()
    V = x + 1e-3 * eta
    assert 1e-7 < mf.combined_residual(M, V) < 1e-6
    with pytest.raises(MaxIterExceeded, match="stalled"):
        sv.metric_project(M, V, method="gwa")
    P = sv.metric_project(M, V, method="gwa-newton")
    assert mf.combined_residual(M, P) <= 1e-9 * (np.linalg.norm(P) + 1.0)


def test_metric_project_maxiter():
    M = decoupled_manifold(seed=18)
    x = feasible_point(M, seed=18)
    V = x + 0.3 * np.ones_like(x)
    with pytest.raises(MaxIterExceeded):
        sv.metric_project(M, V, method="gwa", tol=1e-15, maxiter=1)


@pytest.mark.parametrize("maxiter", [1, 5])
def test_metric_project_budget_error_gives_the_last_update_and_its_bound(maxiter):
    M, x = coupled_setup()
    V = x + 0.3 * unit_tangent(M, x, seed=33)
    Vp, gamma = _dual_data(M, V)
    Theta = np.zeros((M.dims.m_rows, M.dims.r))
    for _ in range(maxiter):
        prev, Theta = Theta, sv.gwa_iterate(M, Vp, gamma, Theta)
    change = np.linalg.norm(Theta - prev)
    bound = 1e-15 * (np.linalg.norm(prev) + 1.0)
    with pytest.raises(MaxIterExceeded) as err:
        sv.metric_project(M, V, method="gwa", tol=1e-15, maxiter=maxiter)
    read = re.fullmatch(
        rf"dual iteration \(gwa\) did not settle in {maxiter} steps: "
        r"last update (\S+) against its bound (\S+)",
        str(err.value),
    )
    assert read is not None, str(err.value)
    assert float(read[1]) == pytest.approx(change, rel=1e-3)
    assert float(read[2]) == pytest.approx(bound, rel=1e-3)
    assert float(read[1]) > float(read[2])


def metric_retract_cells():
    """(label, M, x, step) on the QKP n=50 lift (seed 42) and a seeded QAP
    p=8 lift, at t in {1e-3, 0.05, 0.3}: step = t eta, with x and the unit
    tangent eta from tangent_pair."""
    for label, prob in (("qkp50", pb.lift_qkp(pb.gen_qkp(50, 0.5, 42))), ("qap8", seeded_qap(8, 1))):
        M, x, eta = tangent_pair(prob, np.random.default_rng(5))
        for t in (1e-3, 0.05, 0.3):
            yield f"{label}, t={t}", M, x, t * eta


def metric_cfg(kind):
    """An absolute tol of 1e-12 and a retraction budget of 40."""
    return sv.RetractionConfig(kind=kind, tol=1e-12, maxiter=40, tol_absolute=True)


def test_metric_gwa_newton_retracts_in_one_projection():
    # the dual loop keeps metric_project's own budget, and its tolerance
    # cfg.tol * 1e-2 is floored at _DUAL_TOL_FLOOR: unfloored (near 1e-14
    # here) and with the retraction's 40 as its budget, it spun on
    # roundoff-sized updates until the budget ran out on the QKP cells at
    # t = 0.05 and 0.3
    for label, M, x, step in metric_retract_cells():
        out = sv.retract(M, x, step, metric_cfg(sv.RetractionKind.MetricGWANewton))
        assert len(out.trace) == 2, label
        assert out.trace.combined[-1] <= 1e-12, label


def test_metric_gwa_budget_error_names_the_dual_budget():
    # metric-gwa misses its tolerance on these cells (an open defect: its
    # dual loop stops on the update, not on the point it recovers); what is
    # pinned here is that a dual loop that runs out names metric_project's
    # own budget of 500 steps, never the retraction's 40
    dual = 0
    for label, M, x, step in metric_retract_cells():
        with pytest.raises(MaxIterExceeded) as err:
            sv.retract(M, x, step, metric_cfg(sv.RetractionKind.MetricGWA))
        msg = str(err.value)
        assert not re.search(r"\bin 40 (steps|iterations)", msg), (label, msg)
        if msg.startswith("dual iteration"):
            assert "did not settle in 500 steps" in msg, (label, msg)
            dual += 1
        if label in ("qap8, t=0.001", "qap8, t=0.05"):
            # here the dual loop settles, on a point that misses the
            # retraction's bound; the message says so with both numbers
            read = re.fullmatch(
                r"retraction \(metric-gwa\): the gwa dual loop settled on a point "
                r"with residual (\S+) against its bound (\S+)",
                msg,
            )
            assert read is not None, (label, msg)
            point = err.value.result.point
            assert float(read[1]) == pytest.approx(mf.combined_residual(M, point), rel=1e-3)
            assert float(read[2]) == 1e-12
            assert float(read[1]) > float(read[2])
    assert dual >= 3


# ---------------------------------------------------------------------------
# finite-input guards: the kernels do not check for NaN or inf, the entry
# points do, once, before any step runs


def spoiled(X, value):
    """X with one entry, in binary row 1, set to value."""
    X = X.copy()
    X[1, 1] = value
    return X


def count_completed_steps(monkeypatch):
    """Rebind every step map, dual update and metric_project in solvers to a
    wrapper that logs each call that returns. A step that raises is not
    logged, so the list stays empty both when an entry point rejects its
    input and when the first step fails inside."""
    done = []
    for name in (
        "apm_step", "iap_step", "newton_slra_step", "relaxed_newton_slra_step", "aphl_step",
        "gwa_iterate", "gwa_newton_iterate", "metric_project",
    ):
        def counted(*args, _fn=getattr(sv, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            done.append(_name)
            return out

        monkeypatch.setattr(sv, name, counted)
    return done


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_retract_and_tapr_reject_nonfinite_input_before_any_step(monkeypatch, value):
    M, x = coupled_setup()
    eta = 0.1 * unit_tangent(M, x, seed=31)
    done = count_completed_steps(monkeypatch)
    for bad_x, bad_eta in ((spoiled(x, value), eta), (x, spoiled(eta, value))):
        for kind in sv.RetractionKind:
            cfg = sv.RetractionConfig(kind=kind, tol=1e-10, maxiter=50)
            with pytest.raises(ValueError):
                sv.retract(M, bad_x, bad_eta, cfg)
    assert done == []


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_retract_rejects_a_start_point_whose_norm_overflows(monkeypatch, scale):
    # every entry of x + scale * eta is finite, but its squared norm
    # overflows, so the bound tol * (||y|| + 1) and the residual both read
    # inf: the retraction must refuse V, not report inf <= inf as converged
    M, x, eta = tangent_pair(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), np.random.default_rng(5))
    done = count_completed_steps(monkeypatch)
    for kind in sv.RetractionKind:
        cfg = sv.RetractionConfig(kind=kind, tol=1e-9, maxiter=50)
        with pytest.raises(ValueError, match="overflows float64"):
            sv.retract(M, x, scale * eta, cfg)
    assert done == []


def test_retract_never_counts_a_nan_residual_as_met(monkeypatch):
    # a step whose point has a NaN residual must not end the loop as
    # converged: the budget runs out instead
    M, x = coupled_setup()
    eta = 0.3 * unit_tangent(M, x, seed=42)
    monkeypatch.setattr(sv, "apm_step", lambda M, R: (R, (np.nan, np.nan, None)))
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.APM, tol=1e-10, maxiter=3)
    with pytest.raises(MaxIterExceeded) as exc:
        sv.retract(M, x, eta, cfg)
    assert len(exc.value.result.trace) == 4
    assert not exc.value.result.converged


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda V: spoiled(V, np.nan), "nan or inf"),
        (lambda V: spoiled(V, np.inf), "nan or inf"),
        (lambda V: V[:, 0], "shape"),
        (lambda V: V[:, :1], "shape"),
    ],
    ids=["nan", "inf", "1-d", "one-column"],
)
def test_metric_project_rejects_nonfinite_input_before_any_step(monkeypatch, spoil, message):
    # a misshapen V is refused at the same gate as a non-finite one
    M, x = coupled_setup()
    V = spoil(x + 0.1 * unit_tangent(M, x, seed=32))
    done = count_completed_steps(monkeypatch)
    for method in ("gwa", "gwa-newton"):
        with pytest.raises(ValueError, match=message):
            sv.metric_project(M, V, method=method)
    assert done == []


@pytest.mark.parametrize(
    "bad",
    [{"tol": np.nan}, {"maxiter": 2.5}, {"maxiter": np.inf}],
    ids=["tol-nan", "maxiter-2.5", "maxiter-inf"],
)
def test_metric_project_rejects_a_bad_tol_or_maxiter_before_any_step(monkeypatch, bad):
    M, x = coupled_setup()
    V = x + 0.1 * unit_tangent(M, x, seed=32)
    done = count_completed_steps(monkeypatch)
    for method in ("gwa", "gwa-newton"):
        with pytest.raises(ValueError):
            sv.metric_project(M, V, method=method, **bad)
    assert done == []


# ---------------------------------------------------------------------------
# retract driver


ALL_KINDS = list(sv.RetractionKind)


def test_retract_zero_eta_returns_x_exactly():
    M = decoupled_manifold(seed=19)
    x = feasible_point(M, seed=19)
    eta = np.zeros_like(x)
    for kind in ALL_KINDS:
        cfg = sv.RetractionConfig(kind=kind, tol=1e-9, maxiter=50)
        res = sv.retract(M, x, eta, cfg)
        assert res.converged
        assert np.array_equal(res.point, x), kind


def test_retract_converges_small_step_all_kinds():
    M, x = coupled_setup()
    eta = 0.02 * unit_tangent(M, x, seed=20)
    for kind in ALL_KINDS:
        cfg = sv.RetractionConfig(kind=kind, tol=1e-11, maxiter=500)
        res = sv.retract(M, x, eta, cfg)
        assert res.converged, kind
        scale = np.linalg.norm(res.point) + 1.0
        assert mf.combined_residual(M, res.point) <= 1e-11 * scale, kind
        # first-order agreement: the retraction stays near x + eta
        assert np.linalg.norm(res.point - (x + eta)) < 0.5 * np.linalg.norm(eta), kind
        assert len(res.trace.phases) <= cfg.maxiter + 1


def test_retract_rejects_infeasible_base():
    M = decoupled_manifold(seed=21)
    x = feasible_point(M, seed=21) + 0.5
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.APM)
    with pytest.raises(ValueError):
        sv.retract(M, x, np.zeros_like(x), cfg)


def test_base_res_skips_the_feasibility_guard(monkeypatch):
    # without base_res every entry point measures the base and rejects this
    # one; with it the caller vouches for the base, so even a wrong value
    # (0.0) passes and nothing is measured
    M, x = coupled_setup()
    bad = x.copy()
    bad[M.free_index] += 1e-3
    zero = np.zeros_like(bad)
    v = np.random.default_rng(36).standard_normal(bad.shape)
    apm = sv.RetractionConfig(kind=sv.RetractionKind.APM, tol=1e-10)
    entries = {
        "check_base": lambda **kw: mf.check_base(M, bad, **kw),
        "project_tangent": lambda **kw: mf.project_tangent(M, bad, v, **kw),
        "retract": lambda **kw: sv.retract(M, bad, zero, apm, **kw),
        "tapr": lambda **kw: sv.retract(M, bad, zero, tapr_cfg(tol=1e-10, maxiter=500), **kw),
    }
    measured = []

    def combined_residual(M, R, _fn=mf.combined_residual):
        measured.append(R)
        return _fn(M, R)

    monkeypatch.setattr(mf, "combined_residual", combined_residual)
    for name, entry in entries.items():
        with pytest.raises(ValueError, match="base point infeasible"):
            entry()
        assert len(measured) == 1, name
        measured.clear()
        entry(base_res=0.0)
        assert measured == [], name


def test_retract_rejects_non_tangent_eta():
    M = decoupled_manifold(seed=22)
    x = feasible_point(M, seed=22)
    bad = np.ones_like(x)  # violates both linearized constraints
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.APM)
    with pytest.raises(ValueError):
        sv.retract(M, x, bad, cfg)


ITERATIVE_KINDS = [
    k
    for k in sv.RetractionKind
    if k not in (sv.RetractionKind.MetricGWA, sv.RetractionKind.MetricGWANewton)
]


def test_retract_maxiter_carries_partial_result():
    M, x = qkp_setup(n=10, r=3, seed=2)
    eta = 0.1 * unit_tangent(M, x, seed=23)
    for kind in ITERATIVE_KINDS:
        cfg = sv.RetractionConfig(kind=kind, tol=1e-15, maxiter=2, tol_absolute=True)
        with pytest.raises(MaxIterExceeded) as exc:
            sv.retract(M, x, eta, cfg)
        res = exc.value.result
        assert res is not None and not res.converged, kind
        # the start record plus one record per step of the budget
        assert len(res.trace.combined) == cfg.maxiter + 1, kind
        assert res.trace.combined[-1] == mf.combined_residual(M, res.point), kind


def test_retract_calls_tapr_and_the_step_maps_through_the_module(monkeypatch):
    # perfbench's tracer rebinds sv.tapr and the step maps and reads the
    # RetractionResult that sv.tapr returns: a TAPR retraction must return
    # that one call's result, and every APM step must be one sv.apm_step call
    M, x = qkp_setup(n=12, r=3, seed=6)
    eta = 0.5 * unit_tangent(M, x, seed=29)
    calls = {"tapr": [], "apm_step": []}
    for name, log in calls.items():
        def counted(*args, _fn=getattr(sv, name), _log=log, **kwargs):
            out = _fn(*args, **kwargs)
            _log.append(out)
            return out

        monkeypatch.setattr(sv, name, counted)
    res = sv.retract(M, x, eta, tapr_cfg(tol=1e-11, maxiter=300, tol_absolute=True))
    assert len(calls["tapr"]) == 1 and calls["tapr"][0] is res
    assert len(calls["apm_step"]) == res.trace.phases[1:].count("apm") > 0
    for log in calls.values():
        log.clear()
    apm = sv.RetractionConfig(kind=sv.RetractionKind.APM, tol=1e-6, maxiter=5000)
    res = sv.retract(M, x, eta, apm)
    assert calls["tapr"] == []
    assert len(calls["apm_step"]) == len(res.trace) - 1 > 0


def test_retract_apm_binary_residual_contracts():
    M, x = coupled_setup()
    eta = 1e-2 * unit_tangent(M, x, seed=24)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.APM, tol=1e-13, maxiter=400, tol_absolute=True
    )
    res = sv.retract(M, x, eta, cfg)
    binary = np.array(res.trace.binary)
    seq = binary[binary > 1e-13]
    assert seq.size >= 6, "instance converged too fast to observe the rate"
    ratios = seq[1:] / seq[:-1]
    assert np.max(ratios[-5:]) < 1.0


def test_retract_newton_quadratic_tail():
    M, x = coupled_setup()
    eta = 0.35 * unit_tangent(M, x, seed=25)
    start = mf.combined_residual(M, x + eta)
    assert 1e-4 < start < 0.5
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.NewtonSLRA, tol=1e-12, maxiter=20, tol_absolute=True
    )
    res = sv.retract(M, x, eta, cfg)
    assert res.converged
    assert all(p in ("init", "newton-slra") for p in res.trace.phases), res.trace.phases
    steps = len(res.trace.phases) - 1
    assert steps <= 6
    logs = np.log10([c for c in res.trace.combined if c > 1e-12])
    for k in range(1, len(logs)):
        assert logs[k] <= 1.9 * logs[k - 1] or logs[k] < -10


def test_relaxed_newton_slra_falls_back_to_apm_on_a_vanishing_direction(monkeypatch):
    # the free rows moved by 1e-3 leave M1 but not M2, so the relaxed
    # direction R - project_binary(R) vanishes and the driver takes one APM
    # sweep in its place
    M, x = qkp_setup(n=10, r=3, seed=2)
    x[M.free_index] += 1e-3
    vanished = []

    def step(M, R, _fn=sv.relaxed_newton_slra_step):
        try:
            return _fn(M, R)
        except VanishingDirection as err:
            vanished.append(err)
            raise

    monkeypatch.setattr(sv, "relaxed_newton_slra_step", step)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.RelaxedNewtonSLRA, tol=1e-12, tol_absolute=True
    )
    res = sv.retract(M, x, np.zeros_like(x), cfg, base_res=mf.combined_residual(M, x))
    assert res.converged
    assert res.trace.phases == ["init", "apm-fallback"]
    assert len(vanished) == 1


def test_retract_tol_absolute_flag():
    M = decoupled_manifold(seed=26)
    x = feasible_point(M, seed=26)
    eta = 0.01 * unit_tangent(M, x, seed=26)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.NewtonSLRA, tol=1e-13, maxiter=100, tol_absolute=True
    )
    res = sv.retract(M, x, eta, cfg)
    assert res.converged
    assert mf.combined_residual(M, res.point) <= 1e-13


# ---------------------------------------------------------------------------
# TAPR


def test_tapr_zero_eta():
    M, x = qkp_setup(n=10, r=3, seed=2)
    res = sv.retract(M, x, np.zeros_like(x), tapr_cfg(tol=1e-9, maxiter=50))
    assert res.converged
    assert np.array_equal(res.point, x)
    # zero steps taken: the only record is the initial one, in the APM phase
    assert res.trace.phases == ["apm"]


def test_tapr_initial_residual_guard(monkeypatch):
    M, x = qkp_setup(n=10, r=3, seed=2)
    eta = 5.0 * unit_tangent(M, x, seed=28)
    monkeypatch.setattr(sv, "_TAPR_A0", 1e-6)
    with pytest.raises(InitialResidualTooLarge):
        sv.retract(M, x, eta, tapr_cfg(tol=1e-9, maxiter=50))


def test_tapr_converges_and_traces_phases():
    M, x = qkp_setup(n=12, r=3, seed=6)
    eta = 0.5 * unit_tangent(M, x, seed=29)
    res = sv.retract(M, x, eta, tapr_cfg(tol=1e-11, maxiter=300, tol_absolute=True))
    assert res.converged
    assert mf.combined_residual(M, res.point) <= 1e-11
    assert res.trace.phases[0] == "apm"  # initial record, no step yet
    assert res.trace.phases[1] == "apm"  # machine always starts in the APM phase
    tags = res.trace.phases
    errs = res.trace.combined
    # iAP trials happen only after err has crossed below a1
    for k in range(1, len(tags)):
        if tags[k].startswith("iap"):
            assert errs[k - 1] < sv._TAPR_A1
    # the second-order phase is entered at the a2 crossing or on a slow probe
    a2 = 1e-11 * 1e3  # default a2 resolves to tol * 10^3
    first_newton = next((k for k, t in enumerate(tags) if t.startswith("newton")), None)
    assert first_newton is not None
    assert errs[first_newton - 1] <= a2 or tags[first_newton - 1] == "iap-reject"


def test_tapr_degenerate_thresholds_match_newton_limit(monkeypatch):
    M, x = qkp_setup(n=12, r=3, seed=6)
    # small eta keeps the comparison inside the second-order basin, where the
    # limit maps of the hybrid and of plain NewtonSLRA agree to third order
    eta = 1e-3 * unit_tangent(M, x, seed=30)
    monkeypatch.setattr(sv, "_TAPR_A1", 0.999)
    res = sv.retract(M, x, eta, tapr_cfg(tol=1e-12, maxiter=100, tol_absolute=True))
    assert res.converged
    # after the first APM iteration the machine moves through one iAP
    # iteration into the second-order phase
    tags = res.trace.phases
    assert tags[1] == "apm"
    assert any(t.startswith("newton") for t in tags)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.NewtonSLRA, tol=1e-12, maxiter=100, tol_absolute=True
    )
    ref = sv.retract(M, x, eta, cfg)
    assert np.linalg.norm(res.point - ref.point) < 1e-8 * (np.linalg.norm(ref.point) + 1.0)


def test_tapr_accepted_newton_steps_decrease_merit():
    M, x = qkp_setup(n=12, r=3, seed=6)
    eta = 0.5 * unit_tangent(M, x, seed=31)
    res = sv.retract(M, x, eta, tapr_cfg(tol=1e-12, maxiter=300, tol_absolute=True))
    errs = res.trace.combined
    for k, tag in enumerate(res.trace.phases):
        if tag == "newton" and k >= 1:
            assert errs[k] ** 2 <= (1 - sv._TAPR_MU2) * errs[k - 1] ** 2 + 1e-30


def test_tapr_rejections_count_against_maxiter(monkeypatch):
    M, x = qkp_setup(n=12, r=3, seed=6)
    eta = 0.5 * unit_tangent(M, x, seed=32)
    # acceptance made nearly impossible for iAP and second-order steps
    monkeypatch.setattr(sv, "_TAPR_A1", 0.5)
    monkeypatch.setattr(sv, "_TAPR_MU0", 0.05)
    monkeypatch.setattr(sv, "_TAPR_MU1", 1 - 1e-12)
    monkeypatch.setattr(sv, "_TAPR_MU2", 1 - 1e-12)
    with pytest.raises(MaxIterExceeded) as exc:
        sv.retract(M, x, eta, tapr_cfg(tol=1e-13, maxiter=8, tol_absolute=True))
    res = exc.value.result
    assert res is not None
    # every trial, accepted or rejected, appears in the trace
    assert len(res.trace.phases) == 9  # initial record + 8 trials
    rejected = [p for p in res.trace.phases if p.endswith("reject")]
    assert rejected, "expected at least one rejected trial"
    # the point is kept from the last accepted trial: err never increases
    # and the step norm is exactly 0 on a reject
    errs = res.trace.combined
    for k, tag in enumerate(res.trace.phases):
        if tag.endswith("reject") and k >= 1:
            assert errs[k] == pytest.approx(errs[k - 1])
            assert res.trace.step_norms[k] == 0.0


# ---------------------------------------------------------------------------
# degenerate-row retry inside the retraction loop


def test_step_retry_perturbs_offending_row_once():
    # the retry reruns the whole policy from the bumped copy, with that
    # copy's own residual
    M, x = coupled_setup()
    recorded = []

    def policy(R, res):
        recorded.append((R.copy(), res))
        if len(recorded) == 1:
            raise DegenerateRow(1)
        return R + 1.0

    res_x = mf.residual_norms(M, x)
    out = sv._attempt(M, policy, x, res_x, iteration=4)
    assert len(recorded) == 2
    (first, res_first), (bumped, res_bumped) = recorded
    assert np.array_equal(first, x) and res_first is res_x
    assert np.array_equal(out, bumped + 1.0)
    bump = bumped - x
    assert np.all(np.delete(bump, 1, axis=0) == 0.0)
    assert np.linalg.norm(bump[1]) == pytest.approx(1e-12)
    want = mf.residual_norms(M, bumped)
    assert res_bumped[:2] == want[:2] and res_bumped[2].tobytes() == want[2].tobytes()


def test_step_retry_propagates_second_failure_with_iteration():
    M, x = coupled_setup()

    def policy(R, res):
        raise DegenerateRow(0)

    with pytest.raises(DegenerateRow) as exc:
        sv._attempt(M, policy, x, mf.residual_norms(M, x), iteration=7)
    assert exc.value.iteration == 7


def logged_calls(monkeypatch, owner, name, fail_from=None):
    """Rebind owner.name, a function called as fn(M, R, ...) (mf.sweep or
    sv.metric_project), to a wrapper that logs each input R and each
    DegenerateRow raised. From call fail_from on (0-based), every call
    raises DegenerateRow(1) instead."""
    inputs, raised = [], []

    def logged(M, R, *args, _fn=getattr(owner, name), **kwargs):
        inputs.append(R.copy())
        try:
            if fail_from is not None and len(inputs) > fail_from:
                raise DegenerateRow(1)
            return _fn(M, R, *args, **kwargs)
        except DegenerateRow as err:
            raised.append(err.row)
            raise

    monkeypatch.setattr(owner, name, logged)
    return inputs, raised


@pytest.mark.parametrize("kind", ["apm", "iap", "tapr", "metric-gwa-newton"])
def test_sweep_at_a_sphere_centre_retries_once_with_the_seeded_bump(monkeypatch, kind):
    # x + eta puts binary row 1 at its sphere's centre (0.5, 0); no tangent
    # step reaches it, so the entry check on eta is bypassed. The dual Newton
    # step of metric-gwa-newton fails there too, and again from the bump:
    # rounding in V' = V - 0.5 e1^T leaves that row's norm 9.9995e-13, below
    # the dual weight floor 1e-12
    metric = kind == "metric-gwa-newton"
    M, x = coupled_setup()
    eta = np.zeros_like(x)
    eta[1] = M.centre - x[1]
    V = x + eta
    assert mf.combined_residual(M, V) < 1.0  # inside tapr's start guard
    monkeypatch.setattr(sv, "_validate_base_and_tangent", lambda M, x, eta, base_res: (x, eta))
    logged = (sv, "metric_project") if metric else (mf, "sweep")
    inputs, raised = logged_calls(monkeypatch, *logged)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind(kind), tol=1e-12, maxiter=1)
    with pytest.raises(DegenerateRow if metric else MaxIterExceeded) as exc:
        sv.retract(M, x, eta, cfg)
    rng = np.random.default_rng(7_654_321 + 1)
    bump = rng.standard_normal(M.dims.r)
    bumped = V.copy()
    bumped[1] += bump * (1e-12 / np.linalg.norm(bump))
    assert [R.tobytes() for R in inputs] == [V.tobytes(), bumped.tobytes()]
    if metric:
        assert raised == [1, 1]
        assert (exc.value.row, exc.value.iteration) == (1, 1)
        return
    assert raised == [1]
    step = sv.iap_step if kind == "iap" else sv.apm_step
    assert exc.value.result.point.tobytes() == step(M, bumped)[0].tobytes()


@pytest.mark.parametrize("kind", ["apm", "iap", "tapr"])
def test_sweep_failing_twice_carries_its_iteration(monkeypatch, kind):
    M, x = coupled_setup()
    eta = 0.3 * unit_tangent(M, x, seed=42)
    inputs, raised = logged_calls(monkeypatch, mf, "sweep", fail_from=2)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind(kind), tol=1e-15, maxiter=50)
    with pytest.raises(DegenerateRow) as exc:
        sv.retract(M, x, eta, cfg)
    assert (exc.value.row, exc.value.iteration) == (1, 3)
    assert raised == [1, 1]
    assert len(inputs) == 4


@pytest.mark.parametrize(
    "kind", [sv.RetractionKind.NewtonSLRA, sv.RetractionKind.APHL], ids=lambda k: k.value
)
def test_retract_first_step_error_carries_its_iteration(kind):
    # every slice system of this instance is singular, so the first step
    # fails without a degenerate-row retry; eta is tangent at x (A touches
    # only row 0, and row 1's normal at x is e2)
    M, x = singular_slice_setup()
    eta = np.zeros_like(x)
    eta[1, 0] = 0.1
    with pytest.raises(SingularSchur) as exc:
        sv.retract(M, x, eta, sv.RetractionConfig(kind=kind))
    assert exc.value.iteration == 1
