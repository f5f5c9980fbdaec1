import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from test_solvers import (
    _dual_data,
    aphl_delta_oracle,
    coupled_setup,
    decoupled_manifold,
    on_route,
    point_on_m1,
    spoiled,
    tangent_kkt_oracle,
    tangent_pair,
)

from isectret import manifold as mf
from isectret import problems as pb
from isectret import solvers as sv
from isectret.errors import DegenerateRow


def line_manifold(r=1):
    # single affine row x1+x2+x3 = 3, one binary row
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([3.0])
    return mf.IntersectionManifold(A, b, binary_rows=[0], r=r)


def feasible_point(M, seed=1):
    rng = np.random.default_rng(seed)
    N, r, s = M.dims.N, M.dims.r, M.dims.s
    R = np.zeros((N, r))
    u = rng.standard_normal((s, r))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    R[M.binary_rows] = 0.5 * u
    R[M.binary_rows, 0] += 0.5
    free = np.setdiff1d(np.arange(N), M.binary_rows)
    A2 = M.affine.A[:, free]
    target = np.zeros((M.dims.m_rows, r))
    target[:, 0] = M.affine.b_col
    R[free] = np.linalg.lstsq(A2, target, rcond=None)[0]
    assert mf.combined_residual(M, R) < 1e-9
    return R


# ---------------------------------------------------------------------------
# binary_residual


def test_binary_residual_on_binary_points():
    M = line_manifold(r=2)
    R = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    assert mf.binary_residual(M, R) == pytest.approx([0.0])
    R[0] = [0.0, 0.0]
    assert mf.binary_residual(M, R) == pytest.approx([0.0])


def test_binary_residual_frozen_value():
    # row (0.6, 0): 0.36 - 0.6 = -0.24
    M = line_manifold(r=2)
    R = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert mf.binary_residual(M, R) == pytest.approx([-0.24])


def test_binary_residual_dim_mismatch():
    M = line_manifold()
    with pytest.raises(ValueError):
        mf.binary_residual(M, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# affine_residual


def test_affine_residual_feasible_and_zero():
    M = line_manifold()
    R = np.ones((3, 1))
    assert mf.affine_residual(M, R).ravel() == pytest.approx([0.0])
    assert mf.affine_residual(M, np.zeros((3, 1))).ravel() == pytest.approx([-3.0])


def test_affine_residual_second_column_untargeted():
    # only the first column carries b; column 2 residual is plain A R[:,2]
    M = line_manifold(r=2)
    R = np.array([[1.0, 0.5], [1.0, -0.2], [1.0, 0.4]])
    res = mf.affine_residual(M, R)
    assert res[:, 0] == pytest.approx([0.0])
    assert res[:, 1] == pytest.approx(M.affine.A @ R[:, 1])


# ---------------------------------------------------------------------------
# project_affine


def test_project_affine_frozen_value():
    M = line_manifold()
    out = mf.project_affine(M, np.zeros((3, 1)))
    assert out == pytest.approx(np.ones((3, 1)))


def test_project_affine_idempotent_and_fixed():
    M = decoupled_manifold()
    rng = np.random.default_rng(7)
    for _ in range(20):
        R = rng.standard_normal((M.dims.N, M.dims.r))
        P = mf.project_affine(M, R)
        scale = np.linalg.norm(P) + 1
        assert np.linalg.norm(mf.affine_residual(M, P)) < 1e-10 * scale
        assert np.linalg.norm(mf.project_affine(M, P) - P) < 1e-10 * scale


def test_project_affine_lipschitz():
    M = decoupled_manifold(seed=3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        X = rng.standard_normal((M.dims.N, M.dims.r))
        Y = rng.standard_normal((M.dims.N, M.dims.r))
        lhs = np.linalg.norm(mf.project_affine(M, X) - mf.project_affine(M, Y))
        assert lhs <= np.linalg.norm(X - Y) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# project_binary


def test_project_binary_frozen_values():
    M = line_manifold(r=2)
    R = np.array([[1.0, 0.0], [0.3, 0.1], [0.2, 0.2]])
    out = mf.project_binary(M, R)
    assert out[0] == pytest.approx([1.0, 0.0])
    assert out[1:] == pytest.approx(R[1:])  # rows outside B untouched

    R[0] = [0.5, 0.5]  # already satisfies 0.5 = 0.25+0.25
    assert mf.project_binary(M, R)[0] == pytest.approx([0.5, 0.5])

    R[0] = [2.0, 0.0]  # 2R-e1 = (3,0), v = 1/3
    out = mf.project_binary(M, R)
    assert out[0] == pytest.approx([1.0, 0.0])
    assert out[0, 0] ** 2 + out[0, 1] ** 2 == pytest.approx(out[0, 0])


def test_project_binary_idempotent_random():
    M = decoupled_manifold(seed=5)
    rng = np.random.default_rng(13)
    for _ in range(30):
        R = rng.standard_normal((M.dims.N, M.dims.r))
        P = mf.project_binary(M, R)
        assert np.max(np.abs(mf.binary_residual(M, P))) < 1e-12
        assert np.allclose(mf.project_binary(M, P), P, atol=1e-10)


def test_project_binary_degenerate_row():
    M = line_manifold(r=2)
    R = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])  # 2R[0]-e1 = 0
    with pytest.raises(DegenerateRow) as exc:
        mf.project_binary(M, R)
    assert exc.value.row == 0


# ---------------------------------------------------------------------------
# row_normals


def test_row_normals_frozen():
    M = line_manifold(r=2)
    R = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert mf.row_normals(M, R).ravel() == pytest.approx([1.0, 0.0])
    R[0] = [0.0, 0.0]
    assert mf.row_normals(M, R).ravel() == pytest.approx([-1.0, 0.0])


def test_row_normals_unit_on_m2():
    M = decoupled_manifold(seed=9)
    R = feasible_point(M, seed=2)
    C = mf.row_normals(M, R)
    assert np.linalg.norm(C, axis=1) == pytest.approx(np.ones(M.dims.s), abs=1e-12)


# ---------------------------------------------------------------------------
# project_tangent


def test_project_tangent_frozen_value():
    # affine row constrains only row 2; binary row (1,0) has normal (1,0)
    A = np.array([[0.0, 1.0]])
    b = np.array([0.0])
    M = mf.IntersectionManifold(A, b, binary_rows=[0], r=2)
    R = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[2.0, 3.0], [0.0, 0.0]])
    xi = mf.project_tangent(M, R, v)
    assert xi.xi.ravel() == pytest.approx([0.0, 3.0, 0.0, 0.0])
    assert xi.base is R


def test_project_tangent_idempotent_self_adjoint():
    M = decoupled_manifold(seed=21)
    R = feasible_point(M, seed=3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.standard_normal(R.shape)
        w = rng.standard_normal(R.shape)
        Pv = mf.project_tangent(M, R, v).xi
        Pw = mf.project_tangent(M, R, w).xi
        assert np.allclose(mf.project_tangent(M, R, Pv).xi, Pv, atol=1e-10)
        # self-adjointness <Pv, w> = <v, Pw>
        assert np.vdot(Pv, w) == pytest.approx(np.vdot(v, Pw), rel=1e-9, abs=1e-9)
        # result satisfies both linearized constraints
        assert np.linalg.norm(M.affine.A @ Pv) < 1e-10 * (np.linalg.norm(Pv) + 1)
        C = mf.row_normals(M, R)
        dots = np.einsum("ij,ij->i", C, Pv[M.binary_rows])
        assert np.max(np.abs(dots)) < 1e-10 * (np.linalg.norm(Pv) + 1)


def test_project_tangent_kills_normal_space():
    M = decoupled_manifold(seed=23)
    R = feasible_point(M, seed=4)
    rng = np.random.default_rng(19)
    C = mf.row_normals(M, R)
    # normal space: A^T Lambda row-space plus row-embedded normals
    Lam = rng.standard_normal((M.dims.m_rows, M.dims.r))
    v = M.affine.A.T @ Lam
    v[M.binary_rows] += rng.standard_normal(M.dims.s)[:, None] * C
    assert np.linalg.norm(mf.project_tangent(M, R, v).xi) < 1e-9 * (np.linalg.norm(v) + 1)


def lifted_point(prob, seed):
    """A point of a QAP/QKP lift off its constructive vertex, where every
    binary row sits at a pole: one NewtonSLRA retraction along a seeded
    unit tangent."""
    M = prob.manifold
    base = pb.feasible_init(prob, M.dims.r)
    rng = np.random.default_rng(seed)
    xi = mf.project_tangent(M, base, rng.standard_normal(base.shape)).xi
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    return M, sv.retract(M, base, 0.5 * xi / np.linalg.norm(xi), cfg).point


def qap_lift(p):
    rng = np.random.default_rng(p)
    W = rng.integers(0, 9, size=(p, p))
    D = rng.integers(0, 9, size=(p, p))
    inst = pb.QapInstance(p=p, W=(W + W.T).astype(float), D=(D + D.T).astype(float), name=f"rand{p}")
    return pb.lift_qap(inst)


def small_s_lifts():
    """QAP p=4 (s=16) and QKP n=10 (s=10) lifts at their default rank. Both
    ran the dense KKT branch by default when project_tangent still had one
    (s <= 64); by size, the QAP lift takes the s x s Schur route and the QKP
    lift (s = 2.5 m r) the Woodbury one."""
    return [
        lifted_point(qap_lift(4), seed=3),
        lifted_point(pb.lift_qkp(pb.gen_qkp(10, 0.7, 2)), seed=4),
    ]


def test_project_tangent_schur_path_matches_dense():
    # the s x s Schur route, forced on every case, against the dense KKT
    # oracle
    M = decoupled_manifold(N=20, s=10, m=3, r=2, seed=31)
    cases = [(M, feasible_point(M, seed=5)), *small_s_lifts()]
    for k, (M, R) in enumerate(cases):
        rng = np.random.default_rng(29 + k)
        v = rng.standard_normal(R.shape)
        dense = tangent_kkt_oracle(M, R, v)
        schur = on_route("direct", mf.project_tangent, M, R, v).xi
        assert np.allclose(dense, schur, atol=1e-10 * (np.linalg.norm(v) + 1)), repr(M)


def test_project_tangent_woodbury_subpath_matches_dense():
    # the Woodbury route, forced on every case, against the dense KKT oracle;
    # by size (s > 1.5 m r) every case but the QAP p=4 lift takes it anyway
    M = decoupled_manifold(N=90, s=80, m=2, r=3, seed=37)
    cases = [
        (M, feasible_point(M, seed=11)),
        lifted_point(pb.lift_qkp(pb.gen_qkp(20, 0.7, 2), r=2), seed=5),
        *small_s_lifts(),
    ]
    for k, (M, R) in enumerate(cases):
        rng = np.random.default_rng(41 + k)
        v = rng.standard_normal(R.shape)
        dense = tangent_kkt_oracle(M, R, v)
        smw = on_route("smw", mf.project_tangent, M, R, v).xi
        assert np.allclose(dense, smw, atol=1e-9 * (np.linalg.norm(v) + 1)), repr(M)


def test_project_tangent_rejects_infeasible_base():
    M = decoupled_manifold(seed=33)
    R = feasible_point(M, seed=6)
    R[M.binary_rows[0], 0] += 0.5
    with pytest.raises(ValueError):
        mf.project_tangent(M, R, np.zeros_like(R))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_project_tangent_rejects_nonfinite_input(value):
    M = decoupled_manifold(seed=34)
    R = feasible_point(M, seed=7)
    v = np.random.default_rng(35).standard_normal(R.shape)
    for bad_R, bad_v in ((spoiled(R, value), v), (R, spoiled(v, value))):
        with pytest.raises(ValueError):
            mf.project_tangent(M, bad_R, bad_v)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_project_tangent_rejects_a_base_whose_norm_overflows(scale):
    # every entry of x + scale * eta is finite, but its squared norm
    # overflows, so the base guard's residual and allowance would both read
    # inf; the input gate must refuse the point instead
    M, x, eta = tangent_pair(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), np.random.default_rng(5))
    with pytest.raises(ValueError, match="R overflows float64"):
        mf.project_tangent(M, x + scale * eta, eta)


def test_check_base_rejects_a_residual_that_is_not_finite():
    # entries near 1e100 keep ||R||^2 finite, but the squared sphere
    # violations overflow: the guard must raise, not compare inf
    M = decoupled_manifold(seed=33)
    R = feasible_point(M, seed=6)
    R[M.binary_rows[0]] = 1e100
    assert math.isfinite(mf.frobenius_norm(R))
    with pytest.raises(ValueError, match="combined residual inf"):
        mf.check_base(M, R)


# ---------------------------------------------------------------------------
# linearized_project


def test_linearized_project_fixed_on_m2():
    M = decoupled_manifold(seed=41)
    R = feasible_point(M, seed=7)
    assert np.allclose(mf.linearized_project(M, R), R, atol=1e-12)


def test_linearized_project_frozen_value():
    M = line_manifold(r=2)
    R = np.array([[2.0, 0.0], [0.1, 0.2], [0.0, 0.0]])
    out = mf.linearized_project(M, R)
    assert out[0] == pytest.approx([4.0 / 3.0, 0.0])
    assert out[1:] == pytest.approx(R[1:])


def test_linearized_project_zero_normal():
    M = line_manifold(r=2)
    R = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateRow) as exc:
        mf.linearized_project(M, R)
    assert exc.value.row == 0


def test_linearized_project_second_order_agreement():
    # gap to the exact row projection shrinks like d_M2(R)^2: slope >= 1.8
    M = decoupled_manifold(seed=43)
    R0 = feasible_point(M, seed=8)
    rng = np.random.default_rng(37)
    W = rng.standard_normal(R0.shape)
    W /= np.linalg.norm(W)
    ts = np.logspace(-1.5, -5, 8)
    gaps, dists = [], []
    for t in ts:
        R = R0 + t * W
        gap = np.linalg.norm(mf.linearized_project(M, R) - mf.project_binary(M, R))
        d = np.linalg.norm(mf.project_binary(M, R) - R)
        if gap > 1e-14:
            gaps.append(gap)
            dists.append(d)
    slope = np.polyfit(np.log10(dists), np.log10(gaps), 1)[0]
    assert slope >= 1.8


# ---------------------------------------------------------------------------
# construction invariants


def test_manifold_validates_inputs():
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([3.0])
    with pytest.raises(ValueError):
        mf.IntersectionManifold(A, b, binary_rows=[0, 0], r=1)  # duplicate
    with pytest.raises(ValueError):
        mf.IntersectionManifold(A, b, binary_rows=[5], r=1)  # out of bounds
    with pytest.raises(ValueError):
        mf.IntersectionManifold(A, b, binary_rows=[], r=1)  # s >= 1


def test_manifold_rejects_rank_deficient_rows():
    A = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    b = np.array([3.0, 6.0])
    from isectret.errors import SingularGram

    with pytest.raises(SingularGram):
        mf.IntersectionManifold(A, b, binary_rows=[0], r=1)


def test_gram_solve_roundtrip():
    M = decoupled_manifold(seed=51)
    G = M.affine.A @ M.affine.A.T
    rng = np.random.default_rng(41)
    y = rng.standard_normal((M.dims.m_rows, 3))
    x = M.affine.gram_solve(y)
    assert np.allclose(G @ x, y, rtol=1e-10, atol=1e-12)


def test_gram_solve_rejects_a_non_finite_input():
    # gram_solve is the one-call Cholesky kernel, whose breakdown rule
    # refuses a solution that is not finite
    M = decoupled_manifold(seed=51)
    y = np.ones((M.dims.m_rows, 2))
    y[0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        M.affine.gram_solve(y)


def test_low_rank_factor_reproduces_schur_kernel():
    M = decoupled_manifold(seed=53)
    U = M.affine.low_rank_factor
    A_B = M.affine.A[:, M.binary_rows]
    S = A_B.T @ M.affine.gram_solve(A_B)
    assert np.allclose(U @ U.T, S, atol=1e-12)


def test_combined_residual_zero_iff_feasible():
    M = decoupled_manifold(seed=55)
    R = feasible_point(M, seed=9)
    assert mf.combined_residual(M, R) < 1e-9
    R[0, 0] += 0.1
    assert mf.combined_residual(M, R) > 1e-3


# ---------------------------------------------------------------------------
# the fast kernels, bit for bit against the formulas they replace


def parity_cases():
    """The QKP n=50 and a QAP p=8 lift, each at a point off its vertex, and
    a few probes there: the point, a perturbed copy, its Fortran-ordered
    copy (the binary block of a non-C-ordered array is not a view) and a
    standard normal draw."""
    for M, R in (
        lifted_point(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), seed=7),
        lifted_point(qap_lift(8), seed=8),
    ):
        rng = np.random.default_rng(M.dims.N)
        noise = rng.standard_normal(R.shape)
        yield M, [R, R + 1e-3 * noise, np.asfortranarray(R + 1e-3 * noise), noise]


def test_gram_solve_matches_cho_solve_bit_for_bit():
    for M, probes in parity_cases():
        A = M.affine.A
        factor = cho_factor(A @ A.T, lower=True)
        for X in probes:
            for Y in (A @ X, mf.affine_residual(M, X), A @ X[:, :1]):
                assert M.affine.gram_solve(Y).tobytes() == cho_solve(factor, Y).tobytes()


def test_tri_solve_matches_solve_triangular_bit_for_bit():
    # with posv's Fortran-ordered factor of each Gram, the one trtrs call
    # solve_triangular(L, B, lower=True) makes, for both transposes
    for M, probes in parity_cases():
        A = M.affine.A
        _, L = mf._spd_solve(A @ A.T, A)
        for B in (M.affine.A_B, A, *(A @ X for X in probes)):
            for trans, flag in ((0, "N"), (1, "T")):
                want = solve_triangular(L, B, lower=True, trans=flag)
                assert mf._tri_solve(L, B, trans).tobytes() == want.tobytes(), (repr(M), flag)


def test_tri_solve_raises_on_a_zero_pivot():
    L = np.asfortranarray(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="trtrs info = 2"):
        mf._tri_solve(L, np.ones((2, 1)))


def test_low_rank_factor_matches_the_cho_factor_oracle_bit_for_bit():
    for M, _ in parity_cases():
        A = M.affine.A
        factor = cho_factor(A @ A.T, lower=True)[0]
        want = solve_triangular(factor, A[:, M.binary_rows], lower=True).T
        assert M.affine.low_rank_factor.tobytes() == want.tobytes(), repr(M)


def test_residual_norms_match_the_two_residuals_bit_for_bit():
    # h's squared row norms as one product with a ones vector, and combined
    # as one square root of the two squared norms
    for M, probes in parity_cases():
        for X in probes:
            E = mf.affine_residual(M, X).ravel()
            XB = X[M.binary_rows]
            h = (XB * XB).dot(np.ones(M.dims.r)) - XB[:, 0]
            combined = math.sqrt(np.dot(E, E) + np.dot(h, h))
            got_combined, got_nh, got_h = mf.residual_norms(M, X)
            assert (got_combined, got_nh) == (combined, float(np.linalg.norm(h)))
            assert got_h.tobytes() == h.tobytes()
            assert mf.combined_residual(M, X) == combined


def dot_pin_cases():
    """parity_cases, a rank-1 lift, and a vertex-plus-noise probe on each
    other lift the CI grids and the benchmark run: QKP n=6, 60 and 100 and
    QAP p=6."""
    rank_one = pb.lift_qkp(pb.gen_qkp(12, 0.5, 42), r=1)
    probe = pb.feasible_init(rank_one, 1) + np.random.default_rng(3).standard_normal((14, 1))
    yield from parity_cases()
    yield rank_one.manifold, [probe]
    for inst in (
        pb.lift_qkp(pb.gen_qkp(6, 0.5, 3)),
        pb.lift_qkp(pb.gen_qkp(60, 0.5, 2)),
        pb.lift_qkp(pb.gen_qkp(100, 0.5, 42)),
        qap_lift(6),
    ):
        M = inst.manifold
        base = pb.feasible_init(inst, M.dims.r)
        yield M, [base + 1e-3 * np.random.default_rng(M.dims.N).standard_normal(base.shape)]


def test_affine_products_take_the_same_bits_by_dot_as_by_matmul():
    # the kernels take A R, K E and project_slice's K (A_B (mu o C)) by
    # ndarray.dot, at half the call cost of @; numpy may route a one-column
    # product through gemv, so a rank-1 lift and Fortran-ordered points are
    # checked too
    for M, probes in dot_pin_cases():
        A, K, A_B = M.affine.A, M.affine.K, M.affine.A_B
        for X in probes:
            for Y in (X, np.asfortranarray(X), X[:, :1]):
                assert A.dot(Y).tobytes() == (A @ Y).tobytes(), repr(M)
            E = mf.affine_residual(M, X)
            assert E.tobytes() == (A @ X - M.rhs).tobytes()
            for F in (E, np.asfortranarray(E), E[:, :1]):
                assert K.dot(F).tobytes() == (K @ F).tobytes(), repr(M)
            # mu o C is an s x r C-ordered product, as project_slice forms it
            muC = np.linspace(-1.0, 1.0, M.dims.s)[:, None] * X[M.binary_rows]
            AmuC = A_B.dot(muC)
            assert AmuC.tobytes() == (A_B @ muC).tobytes(), repr(M)
            assert K.dot(AmuC).tobytes() == (K @ AmuC).tobytes(), repr(M)


def test_dot_reads_a_strided_point_as_its_contiguous_copy():
    # project_tangent takes A v by ndarray.dot, which copies a point BLAS
    # cannot stride into place first, so v's layout does not change the
    # bits; @ runs its own loop on such a view (a row-strided slice of a
    # Fortran-ordered array) and may round otherwise
    for M, probes in parity_cases():
        A = M.affine.A
        wide = np.asfortranarray(np.random.default_rng(5).standard_normal((2 * M.dims.N, M.dims.r)))
        for Y in (wide[::2], np.asfortranarray(probes[0])[:, ::-1]):
            assert A.dot(Y).tobytes() == A.dot(np.ascontiguousarray(Y)).tobytes(), repr(M)


def test_cached_binary_columns_are_the_fancy_indexed_copy():
    for M, _ in parity_cases():
        fresh = M.affine.A[:, M.binary_rows]
        assert M.affine.A_B.tobytes() == fresh.tobytes()
        # a copy with the fresh copy's layout, not a view of A: BLAS may take
        # another path on a view and change the bits downstream
        assert M.affine.A_B.strides == fresh.strides
        assert not np.shares_memory(M.affine.A_B, M.affine.A)


def fancy_row_kernels(M, R):
    """row_normals, binary_residual, project_binary and linearized_project
    written out with the index array binary_rows, squared row norms as one
    product with a ones vector, and the sphere rows in closed form on
    D = R_B - e1/2: D_i (0.5 / ||D_i||) + e1/2."""
    B = M.binary_rows
    RB = R[B]
    ones = np.ones(RB.shape[1])
    C = 2.0 * RB
    C[:, 0] -= 1.0
    h = (RB * RB).dot(ones) - RB[:, 0]
    D = RB.copy()
    D[:, 0] -= 0.5
    rows = D * (0.5 / np.sqrt((D * D).dot(ones)))[:, None]
    rows[:, 0] += 0.5
    P = R.copy()
    P[B] = rows
    L = R.copy()
    L[B] -= (h / (C * C).dot(ones))[:, None] * C
    return C, h, P, L


@pytest.mark.parametrize(
    "rows, index",
    [([2, 3, 4], slice(2, 5)), ([1, 3, 4], None)],
    ids=["contiguous-offset", "scattered"],
)
def test_row_kernels_match_fancy_indexing_bit_for_bit(rows, index):
    # the lifts' binary rows all start at row 0; rows [2, 3, 4] of N = 8
    # take the slice path at a nonzero start, rows [1, 3, 4] the array path
    rng = np.random.default_rng(61)
    M = mf.IntersectionManifold(rng.standard_normal((2, 8)), rng.standard_normal(2), rows, r=9)
    if index is None:
        assert M.binary_index is M.binary_rows
    else:
        assert M.binary_index == index
    R = rng.standard_normal((8, 9))
    for X in (R, np.asfortranarray(R)):
        C, h, P, L = fancy_row_kernels(M, X)
        assert mf.row_normals(M, X).tobytes() == C.tobytes()
        assert mf.binary_residual(M, X).tobytes() == h.tobytes()
        assert mf.project_binary(M, X).tobytes() == P.tobytes()
        assert mf.linearized_project(M, X).tobytes() == L.tobytes()


def einsum_row_kernels(M, R):
    """binary_residual's h, project_binary's and linearized_project's binary
    rows and residual_norms' (combined, ||h||), with the reductions the row
    kernels used before _row_sq: np.einsum and np.linalg.norm(axis=1), and
    combined as sqrt(||E||^2 + ||h||^2) of the two norms."""
    RB = R[M.binary_rows]
    C = 2.0 * RB
    C[:, 0] -= 1.0
    h = np.einsum("ij,ij->i", RB, RB) - RB[:, 0]
    P = 0.5 * (C / np.linalg.norm(C, axis=1)[:, None])
    P[:, 0] += 0.5
    L = RB - (h / np.einsum("ij,ij->i", C, C))[:, None] * C
    nh = float(np.linalg.norm(h))
    combined = math.sqrt(np.linalg.norm(mf.affine_residual(M, R)) ** 2 + nh**2)
    return h, P, L, nh, combined


def test_row_kernels_stay_within_four_ulps_of_the_einsum_formulas():
    # per binary row, in units of eps times the row's own scale: h_i against
    # ||R_i||^2 + |R_i1|, a sphere row (norm <= 1) against 1, a linearized
    # row against ||R_i|| + (||R_i||^2 + |R_i1|) / ||c_i||; ||h|| and the
    # combined residual against the norm of h's scales plus their own value.
    # Measured: at most 1.9 ulps (h), 0.75 (sphere rows), 0.58 (linearized)
    bound = 4.0 * np.finfo(float).eps
    rng = np.random.default_rng(73)
    for M, probes in parity_cases():
        shape = (M.dims.N, M.dims.r)
        draws = [10.0**k * rng.standard_normal(shape) for k in (-3, 0, 3)]
        for R in probes + draws:
            h, P, L, nh, combined = einsum_row_kernels(M, R)
            RB = R[M.binary_rows]
            size = np.linalg.norm(RB, axis=1)
            scale = size**2 + np.abs(RB[:, 0])
            normal = np.linalg.norm(mf.row_normals(M, R), axis=1)
            got_P = mf.project_binary(M, R)[M.binary_rows]
            got_L = mf.linearized_project(M, R)[M.binary_rows]
            assert np.all(np.abs(mf.binary_residual(M, R) - h) <= bound * scale)
            assert np.all(np.abs(got_P - P) <= bound)
            assert np.all(np.abs(got_L - L) <= bound * (size + scale / normal)[:, None])
            got_combined, got_nh, got_h = mf.residual_norms(M, R)
            assert np.all(np.abs(got_h - h) <= bound * scale)
            spread = bound * np.linalg.norm(scale)
            assert abs(got_nh - nh) <= spread + bound * nh
            assert abs(got_combined - combined) <= spread + bound * combined


@pytest.mark.parametrize("delta, raises", [(0.4e-14, True), (0.6e-14, False)])
def test_degenerate_test_reads_the_normal_of_norm_two_delta(delta, raises):
    # binary row 1 at (0.5, delta): its normal c = (0, 2 delta) exactly, of
    # norm 0.8e-14 (below _DEGENERATE_TOL = 1e-14, so DegenerateRow) or
    # 1.2e-14 (above it, so a finite step), on every row kernel and sweep
    M, x = coupled_setup()
    R = x.copy()
    R[1] = [0.5, delta]
    assert np.array_equal(mf.row_normals(M, R)[1], [0.0, 2.0 * delta])
    h = mf.residual_norms(M, R)[2]
    calls = [lambda: mf.project_binary(M, R), lambda: mf.linearized_project(M, R)]
    for linearized in (False, True):
        for given in (None, h):
            calls.append(lambda lin=linearized, g=given: mf.sweep(M, R, lin, g)[0])
    for call in calls:
        if raises:
            with pytest.raises(DegenerateRow) as exc:
                call()
            assert exc.value.row == 1
        else:
            assert np.all(np.isfinite(call()))


# ---------------------------------------------------------------------------
# the Schur solve: Cholesky on both routes, the cached U U^T, the crossover


def indefinite_schur_system():
    """Unit rows with ||U_i||^2 = 4 > 1: S = I - (C C^T) o (U U^T) has a
    negative diagonal, so neither S nor the Woodbury core is positive
    definite, although both are nonsingular."""
    C = np.ones((6, 1))
    U = np.full((6, 1), 2.0)
    return np.ones(6), C, U, np.arange(6.0)


def singular_schur_system():
    """S = Diag(0, 1) exactly, and the 1 x 1 Woodbury core is exactly 0."""
    return np.ones(2), np.ones((2, 1)), np.array([[1.0], [0.0]]), np.ones(2)


def nan_schur_system():
    """S = I - 0.01 * ones, positive definite, but with d[0] = NaN."""
    d, C, U, rhs = indefinite_schur_system()
    d[0] = np.nan
    return d, C, 0.05 * U, rhs


@pytest.mark.parametrize("path", ["direct", "smw"])
@pytest.mark.parametrize(
    "system", [indefinite_schur_system, singular_schur_system, nan_schur_system],
    ids=["indefinite", "singular", "nan"],
)
def test_schur_solve_refuses_a_system_that_is_not_positive_definite(path, system):
    d, C, U, rhs = system()
    rhs_before = rhs.copy()
    with pytest.raises(np.linalg.LinAlgError):
        on_route(path, mf.schur_solve, d, C, U, rhs)
    assert rhs.tobytes() == rhs_before.tobytes()


def test_schur_solve_matches_a_dense_solve():
    rng = np.random.default_rng(71)
    for s, m, r in ((9, 2, 3), (30, 1, 2)):
        C = rng.standard_normal((s, r))
        U = np.linalg.qr(rng.standard_normal((s, m)))[0]  # U U^T a projector
        d = np.einsum("ij,ij->i", C, C) + 0.1
        rhs = rng.standard_normal(s)
        S = np.diag(d) - (C @ C.T) * (U @ U.T)
        want = np.linalg.solve(S, rhs)
        for path in ("direct", "smw"):
            got = on_route(path, mf.schur_solve, d, C, U, rhs)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12), (s, path)


def test_row_kron_matches_the_column_block_loop_bit_for_bit():
    rng = np.random.default_rng(73)
    for s, m, r in ((1, 1, 1), (5, 2, 3), (40, 2, 8), (64, 16, 2)):
        C = rng.standard_normal((s, r))
        U = rng.standard_normal((s, m))
        loop = np.hstack([C[:, j : j + 1] * U for j in range(r)])
        W = mf._row_kron(C, U)
        assert W.shape == loop.shape
        assert W.tobytes() == loop.tobytes()
        # the same matrix for a Fortran-ordered U, as low_rank_factor is
        Uf = np.asfortranarray(U)
        assert mf._row_kron(C, Uf).tobytes() == loop.tobytes()


def test_low_rank_gram_is_the_read_only_product_bit_for_bit():
    for M, _ in parity_cases():
        U = M.affine.low_rank_factor
        G = M.affine.low_rank_gram
        assert G.tobytes() == (U @ U.T).tobytes()
        assert G is M.affine.low_rank_gram
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 1.0


def test_manifold_row_constants_are_read_only():
    for M, _ in parity_cases():
        assert M.unit_d.tobytes() == np.ones(M.dims.s).tobytes()
        # e1 and centre are (s, r) tiles of one row each, -0.0 off column 0
        # in centre, so a row kernel subtracts them from the binary block
        # entry by entry
        e1 = np.zeros(M.dims.r)
        e1[0] = 1.0
        centre = np.full(M.dims.r, -0.0)
        centre[0] = 0.5
        for tile, row in ((M.e1, e1), (M.centre, centre)):
            assert tile.shape == (M.dims.s, M.dims.r)
            assert tile.tobytes() == np.tile(row, (M.dims.s, 1)).tobytes()
        for a in (M.e1, M.centre, M.rhs, M.ones, M.unit_d):
            assert not a.flags.writeable


def slice_solves(M, R):
    """The three callers of the slice projection at R, on the auto route."""
    rng = np.random.default_rng(M.dims.N)
    mf.project_tangent(M, R, rng.standard_normal(R.shape))
    sv.newton_slra_step(M, mf.project_affine(M, R + 1e-3 * rng.standard_normal(R.shape)))
    sv.aphl_step(M, mf.project_binary(M, R + 1e-3 * rng.standard_normal(R.shape)))


def test_low_rank_gram_is_built_only_by_the_direct_route():
    # QKP lifts have s / (m r) = 2.5 and take smw; QAP lifts take direct
    M, R = lifted_point(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), seed=7)
    assert M.dims.s > mf._SMW_RATIO * M.dims.m_rows * M.dims.r
    slice_solves(M, R)
    assert "low_rank_gram" not in vars(M.affine)
    M, R = lifted_point(qap_lift(6), seed=8)
    assert M.dims.s <= mf._SMW_RATIO * M.dims.m_rows * M.dims.r
    del M.affine.low_rank_gram  # built while lifted_point retracted
    slice_solves(M, R)
    assert "low_rank_gram" in vars(M.affine)


def test_auto_route_takes_smw_on_qkp_and_direct_on_qap_bit_for_bit():
    for M, R, want in (
        (*lifted_point(pb.lift_qkp(pb.gen_qkp(10, 0.7, 2)), seed=4), "smw"),
        (*lifted_point(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), seed=7), "smw"),
        (*lifted_point(qap_lift(4), seed=3), "direct"),
        (*lifted_point(qap_lift(8), seed=8), "direct"),
    ):
        C = mf.row_normals(M, R)
        d = np.einsum("ij,ij->i", C, C)
        U = M.affine.low_rank_factor
        rhs = np.random.default_rng(M.dims.N).standard_normal(M.dims.s)
        auto = mf.schur_solve(d, C, U, rhs)
        assert auto.tobytes() == on_route(want, mf.schur_solve, d, C, U, rhs).tobytes(), repr(M)
        other = "direct" if want == "smw" else "smw"
        assert auto.tobytes() != on_route(other, mf.schur_solve, d, C, U, rhs).tobytes(), repr(M)


def criterion_6_manifolds():
    """The fifty random manifolds of acceptance criterion 6, each with its
    point on M1 and its seeded draw."""
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
        yield M, point_on_m1(M, seed + 500), rng


def exact_zero_schur_system():
    """Signed unit rows along the axes, so C C^T holds exact zeros, and a U
    with entries of both signs, so (C C^T) o (U U^T) holds both +0.0 and
    -0.0 off its diagonal."""
    C = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]] * 2)
    U = 0.3 * np.array([[1.0, -2.0], [-1.0, 1.0], [2.0, 1.0], [1.0, 1.0], [-2.0, 1.0], [1.0, -1.0]])
    return np.full(6, 2.0), C, U, np.array([1.0, 0.0, -1.0, 0.0, 2.0, -0.0])


def test_direct_schur_route_keeps_the_bits_of_the_dense_expression(monkeypatch):
    # schur_solve builds Diag(d) - (C C^T) o (U U^T) in one buffer; the
    # system it factors and its solution must keep the bits of that
    # expression, signed zeros included, for every caller: NewtonSLRA,
    # APHL, the tangent projection and the dual Newton step
    schur_solve, spd_solve = mf.schur_solve, mf._spd_solve
    factored = []
    checked = []

    def recording_spd_solve(S, rhs):
        factored.append(S.copy())
        return spd_solve(S, rhs)

    def oracle_schur_solve(d, C, U, rhs, gram=None):
        UUt = U @ U.T if gram is None else gram()
        want_S = np.diag(d) - (C @ C.T) * UUt
        try:
            want = spd_solve(want_S.copy(), rhs)[0]
        except np.linalg.LinAlgError:
            want = None
        factored.clear()
        try:
            got = schur_solve(d, C, U, rhs, gram)
        except np.linalg.LinAlgError:
            got = None
        (S,) = factored
        assert S.tobytes() == want_S.tobytes()
        assert (got is None) == (want is None)
        checked.append(S)
        if got is None:
            raise np.linalg.LinAlgError("not positive definite")
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        return got

    monkeypatch.setattr(mf, "_SMW_RATIO", math.inf)
    monkeypatch.setattr(mf, "_spd_solve", recording_spd_solve)
    monkeypatch.setattr(mf, "schur_solve", oracle_schur_solve)
    for M, R, rng in criterion_6_manifolds():
        sv.newton_slra_step(M, R)
        sv.aphl_step(M, mf.project_binary(M, R))
        mf.project_tangent(M, R, rng.standard_normal(R.shape), base_res=0.0)
        Vp, gamma = _dual_data(M, rng.standard_normal(R.shape))
        sv.gwa_newton_iterate(M, Vp, gamma, 0.1 * rng.standard_normal((M.dims.m_rows, M.dims.r)))
    assert len(checked) == 50 * 4
    # the QAP lifts' points come from NewtonSLRA retractions, checked too
    for p, seed in ((6, 8), (8, 8)):
        slice_solves(*lifted_point(qap_lift(p), seed=seed))
    assert len(checked) > 50 * 4 + 2 * 3
    d, C, U, rhs = exact_zero_schur_system()
    x = (C @ C.T) * (U @ U.T)
    assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
    mf.schur_solve(d, C, U, rhs)
    assert np.count_nonzero(checked[-1] == 0.0) > 0


@pytest.mark.parametrize("path", ["direct", "smw"])
def test_aphl_step_off_the_spheres_matches_the_oracle(path):
    # binary rows off their spheres, as after an APM fallback: the correction
    # must still be the oracle's, tangent at R, whose Schur system
    # Diag(||c_i||^2) - (C C^T) o (U U^T) is positive semidefinite; with
    # d = 1 this point's system is indefinite
    M, x = lifted_point(pb.lift_qkp(pb.gen_qkp(50, 0.5, 42)), seed=7)
    R = x + 1e-3 * np.random.default_rng(2).standard_normal(x.shape)
    C = mf.row_normals(M, R)
    U = M.affine.low_rank_factor
    assert np.linalg.eigvalsh(np.eye(M.dims.s) - (C @ C.T) * (U @ U.T))[0] < 0
    want = mf.project_binary(M, R + aphl_delta_oracle(M, R))
    got = on_route(path, sv.aphl_step, M, R)
    assert np.linalg.norm(got - want) < 1e-9 * (np.linalg.norm(want) + 1.0)


def _finiteness_cases():
    """Arrays of every shape and layout the finiteness test meets: empty
    ones, a 0-d one, C- and Fortran-ordered matrices and a strided diagonal
    view, each clean and with one nan, inf or -inf on the diagonal."""
    yield np.zeros(0)
    yield np.zeros((0, 3))
    for value in (2.0, np.nan, np.inf, -np.inf):
        G = np.arange(12.0).reshape(3, 4)
        G[2, 2] = value
        yield from (np.array(value), G, np.asfortranarray(G), G[:, :3].diagonal())


def test_all_finite_agrees_with_isfinite_all():
    for a in _finiteness_cases():
        assert mf._all_finite(a) == bool(np.isfinite(a).all()), a
