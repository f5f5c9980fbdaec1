import numpy as np
import pytest
import sphere_model as sm
from test_solvers import coupled_setup, unit_tangent

from isectret import manifold as mf
from isectret import solvers as sv
from isectret import verify as vf
from isectret import problems as pb
from isectret.errors import InsufficientTail, MaxIterExceeded, NearZeroInput


# ---------------------------------------------------------------------------
# local helpers


def unit_vector(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# sphere_project


def test_sphere_project_radial():
    out = sm.sphere_project(np.array([2.0, 0.0, 0.0]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))


def test_sphere_project_idempotent_on_unit_vectors():
    for seed in range(5):
        x = unit_vector(6, seed)
        assert np.allclose(sm.sphere_project(x), x, rtol=0, atol=5e-16)


def test_sphere_project_normalization_arithmetic():
    out = sm.sphere_project(np.array([3.0, 4.0]))
    assert np.allclose(out, np.array([0.6, 0.8]), rtol=0, atol=1e-15)


def test_sphere_project_near_zero_raises():
    with pytest.raises(NearZeroInput):
        sm.sphere_project(np.full(3, 1e-15))


# ---------------------------------------------------------------------------
# sphere_expansion_check
#
# Closed-form oracle on S^{n-1}: for x unit, v unit tangent at x,
#   P(x + t v) = (x + t v) / sqrt(1 + t^2),
# so the tangential expansion residual is t (1 - 1/sqrt(1+t^2)) = t^3/2 + O(t^5)
# and the normal gap against the curvature term is 3 t^4 / 8 + O(t^6).


def test_expansion_zero_perturbation():
    x = unit_vector(5, 3)
    out = sm.sphere_expansion_check(x, np.zeros(5))
    assert out.tangential_residual == 0.0
    assert out.normal_residual_gap == 0.0


def test_expansion_pure_normal_fiber_constancy():
    # projection is constant along the radial fiber: no O(||u_N||^2) term
    for seed in range(8):
        x = unit_vector(7, seed)
        for t in (1e-3, 1e-2, 0.09):
            out = sm.sphere_expansion_check(x, t * x)
            assert out.tangential_residual <= 1e-13
            assert out.normal_residual_gap <= 1e-13


def test_expansion_pure_tangent_matches_closed_form():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(6)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    assert abs(v @ x) < 1e-15
    for t in (1e-3, 3e-3, 1e-2, 3e-2):
        out = sm.sphere_expansion_check(x, t * v)
        expected_tan = t * (1.0 - 1.0 / np.sqrt(1.0 + t * t))
        expected_gap = 1.0 / np.sqrt(1.0 + t * t) - 1.0 + t * t / 2.0
        assert abs(out.tangential_residual - expected_tan) <= 5e-15 + t**5
        assert abs(out.normal_residual_gap - expected_gap) <= 5e-15 + t**6


def test_expansion_tangent_residual_is_third_order():
    x = unit_vector(9, 21)
    rng = np.random.default_rng(22)
    v = rng.standard_normal(9)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    ts = np.logspace(-4, -1, 10)
    res = np.array([sm.sphere_expansion_check(x, t * v).tangential_residual for t in ts])
    assert np.all(res > 0)
    slope = np.polyfit(np.log10(ts), np.log10(res), 1)[0]
    assert slope >= 2.7


def test_expansion_mixed_perturbation_second_order_model():
    # residual after subtracting the Weingarten and curvature terms is o(t^2)
    x = unit_vector(5, 30)
    rng = np.random.default_rng(31)
    w = rng.standard_normal(5)
    w /= np.linalg.norm(w)
    ts = np.logspace(-3.5, -1.5, 8)
    res = np.array(
        [
            np.hypot(
                sm.sphere_expansion_check(x, t * w).tangential_residual,
                sm.sphere_expansion_check(x, t * w).normal_residual_gap,
            )
            for t in ts
        ]
    )
    slope = np.polyfit(np.log10(ts), np.log10(res), 1)[0]
    assert slope >= 2.7


def test_expansion_validates_inputs():
    with pytest.raises(ValueError):
        sm.sphere_expansion_check(np.array([1.0, 1.0]), np.zeros(2))  # off sphere
    x = unit_vector(4, 40)
    with pytest.raises(ValueError):
        sm.sphere_expansion_check(x, 0.2 * x)  # perturbation outside window


# ---------------------------------------------------------------------------
# order_slope


def test_order_slope_second_order_kinds():
    M, x = coupled_setup()
    eta = unit_tangent(M, x, seed=50)
    grid = np.logspace(-3.5, -2.0, 12)
    for kind in (
        sv.RetractionKind.APM,
        sv.RetractionKind.NewtonSLRA,
        sv.RetractionKind.APHL,
        sv.RetractionKind.MetricGWANewton,
    ):
        total, tangential = vf.order_slope(M, kind, x, eta, grid)
        assert 1.8 <= total.slope <= 2.2, (kind, total.slope)
        assert 2.7 <= tangential.slope <= 3.3, (kind, tangential.slope)
        assert total.plateau_excluded_count == 0
        assert total.plateau_floor == pytest.approx(1e-13 * (np.linalg.norm(x) + 1.0))


def test_order_slope_deterministic_repeat():
    M, x = coupled_setup()
    eta = unit_tangent(M, x, seed=51)
    grid = np.logspace(-3.0, -2.0, 6)
    a1, b1 = vf.order_slope(M, sv.RetractionKind.NewtonSLRA, x, eta, grid)
    a2, b2 = vf.order_slope(M, sv.RetractionKind.NewtonSLRA, x, eta, grid)
    assert np.array_equal(a1.errors, a2.errors)
    assert np.array_equal(b1.errors, b2.errors)
    assert a1.slope == a2.slope and b1.slope == b2.slope


def test_order_slope_insufficient_tail_below_plateau():
    M, x = coupled_setup()
    eta = unit_tangent(M, x, seed=52)
    # errors at these scales sit below 1e-13 * (||x||_F + 1)
    grid = np.logspace(-7.0, -6.5, 5)
    with pytest.raises(InsufficientTail):
        vf.order_slope(M, sv.RetractionKind.NewtonSLRA, x, eta, grid)


def test_order_slope_default_grid_matches_spec_window():
    grid = vf.default_t_grid()
    assert grid.shape == (15,)
    assert grid[0] == pytest.approx(10**-3.5)
    assert grid[-1] == pytest.approx(1e-2)


def test_order_slope_propagates_failure_with_offending_t(monkeypatch):
    M, x = coupled_setup()
    eta = unit_tangent(M, x, seed=53)
    grid = np.logspace(-3.0, -2.0, 5)
    calls = []
    real = sv.retract

    def fake(Mm, xx, tt_eta, cfg):
        calls.append(1)
        if len(calls) == 3:
            raise MaxIterExceeded("stalled")
        return real(Mm, xx, tt_eta, cfg)

    monkeypatch.setattr(vf.sv, "retract", fake)
    with pytest.raises(MaxIterExceeded) as exc:
        vf.order_slope(M, sv.RetractionKind.NewtonSLRA, x, eta, grid)
    assert exc.value.t_value == pytest.approx(grid[2])


# ---------------------------------------------------------------------------
# rate_fit


def test_rate_fit_exact_geometric_sequence():
    res = 0.5 ** np.arange(20)
    fit = vf.rate_fit(res)
    assert fit.linear_factor == pytest.approx(0.5, abs=1e-12)
    assert fit.max_ratio == pytest.approx(0.5, abs=1e-12)


def test_rate_fit_exact_quadratic_sequence():
    res = [0.1]
    for _ in range(4):
        res.append(res[-1] ** 2)
    fit = vf.rate_fit(np.array(res))
    assert fit.quadratic_constant == pytest.approx(1.0, abs=1e-10)
    assert fit.quadratic_spread == pytest.approx(1.0, abs=1e-10)


def test_rate_fit_reads_iter_trace():
    # lifted knapsack instance: every ratio is below one even though the
    # doubled-slack geometry keeps the tail factor close to one
    inst = pb.gen_qkp(10, 0.7, 2)
    prob = pb.lift_qkp(inst, r=3)
    M = prob.manifold
    x = pb.feasible_init(prob, r=3)
    eta = 0.02 * unit_tangent(M, x, seed=60)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.APM, tol=1e-15, maxiter=120, tol_absolute=True
    )
    with pytest.raises(MaxIterExceeded) as exc:
        sv.retract(M, x, eta, cfg)
    trace = exc.value.result.trace
    fit = vf.rate_fit(trace)
    assert fit.linear_factor < 1.0
    assert fit.max_ratio < 1.0


def test_rate_fit_consistent_with_angle_diagnostic():
    # tau-hat <= c(M1, M2, x) + 0.2 (loose coupling, benign instance)
    M, x = coupled_setup()
    eta = 0.02 * unit_tangent(M, x, seed=61)
    cfg = sv.RetractionConfig(
        kind=sv.RetractionKind.APM, tol=1e-13, maxiter=400, tol_absolute=True
    )
    out = sv.retract(M, x, eta, cfg)
    fit = vf.rate_fit(out.trace)

    N, r = M.dims.N, M.dims.r
    z = out.point
    dim = N * r
    P1 = np.empty((dim, dim))
    P2 = np.empty((dim, dim))
    Pcap = np.empty((dim, dim))
    C = mf.row_normals(M, z)
    for k in range(dim):
        E = np.zeros((N, r))
        E[np.unravel_index(k, (N, r))] = 1.0
        V1 = E - M.affine.A.T @ M.affine.gram_solve(M.affine.A @ E)
        V2 = E.copy()
        for j, i in enumerate(M.binary_rows):
            V2[i] -= (C[j] @ E[i]) * C[j] / (C[j] @ C[j])
        P1[:, k] = V1.ravel()
        P2[:, k] = V2.ravel()
        Pcap[:, k] = mf.project_tangent(M, z, E).xi.ravel()
    # the cosine of the principal angle relative to the intersection
    c = np.linalg.norm(P2 @ P1 - Pcap, 2)
    assert c < 1.0
    assert fit.linear_factor <= c + 0.2


def test_rate_fit_insufficient_tail():
    with pytest.raises(InsufficientTail):
        vf.rate_fit(np.array([1e-2, 1e-14, 1e-15, 1e-16, 1e-17]))


def test_rate_fit_rejects_negative_residuals():
    with pytest.raises(ValueError):
        vf.rate_fit(np.array([1.0, -0.5, 0.25, 0.1, 0.05]))


# ---------------------------------------------------------------------------
# SlopeFit validation


def test_slope_fit_requires_increasing_grid():
    with pytest.raises(ValueError):
        vf.SlopeFit(
            t_values=np.array([1e-3, 1e-4, 1e-2]),
            errors=np.array([1.0, 2.0, 3.0]),
            slope=2.0,
            plateau_floor=1e-13,
        )


def test_slope_fit_requires_matching_lengths():
    with pytest.raises(ValueError):
        vf.SlopeFit(
            t_values=np.array([1e-4, 1e-3]),
            errors=np.array([1.0, 2.0, 3.0]),
            slope=2.0,
            plateau_floor=1e-13,
        )
