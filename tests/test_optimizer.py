"""Oracle tests for the BB gradient loop on the lifted quadratic.

The objective and gradient are checked against hand-expanded closed forms
and central finite differences (exact for quadratics up to roundoff), the
BB ratios against scalar arithmetic, and the driver against invariants
reconstructed from its own per-iteration log.

The constructive rank-one starts of both testbed lifts are first-order
stationary (the sphere-row normals degenerate to +-e1 there and annihilate
exactly the gradient's support), so descent runs use either a custom
instance with objective mass on the slack rows or a start moved away from
the saddle by one exact retraction.
"""

import math

import numpy as np
import pytest
from test_solvers import feasible_point

from isectret import manifold as mf
from isectret import optimizer as op
from isectret import problems as pb
from isectret import solvers as sv
from isectret.errors import InitialResidualTooLarge, LineSearchFailed, MaxIterExceeded


# ---------------------------------------------------------------------------
# shared builders


def quadratic_instance(N=9, s=4, m=2, r=2, seed=0, with_linear=True):
    """Small instance with positive definite Q and a dense linear term.

    The affine rows are orthonormalized so the manifold is well conditioned;
    positive definiteness keeps the objective bounded on the unbounded slack
    block, which the testbed lifts do not need but a descent test does.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, N))
    q, _ = np.linalg.qr(A.T)
    A = q.T[:m]
    b = 0.3 * rng.standard_normal(m)
    M = mf.IntersectionManifold(A, b, binary_rows=np.arange(s), r=r)
    B = rng.standard_normal((N, N))
    Q = B @ B.T / N + np.eye(N)
    c = rng.standard_normal(N) if with_linear else np.zeros(N)
    return pb.ProblemInstance(manifold=M, Qlift=Q, clift=c, meta={"kind": "custom"})


def custom_setup(seed=0):
    inst = quadratic_instance(seed=seed)
    return inst, feasible_point(inst.manifold, seed=seed)


def qap_setup(p=3, seed=3):
    rng = np.random.default_rng(seed)
    W = np.triu(rng.integers(1, 10, (p, p)).astype(float), 1)
    W = W + W.T
    D = np.triu(rng.integers(1, 10, (p, p)).astype(float), 1)
    D = D + D.T
    inst = pb.lift_qap(pb.QapInstance(p=p, W=W, D=D, name=f"syn{p}x{p}"))
    return inst, inst.meta["r"]


def qap_moved_start(inst, r, scale=0.3, seed=11):
    """Leave the stationary constructive start along a seeded tangent ray,
    then restore feasibility exactly."""
    Rf = pb.feasible_init(inst, r)
    rng = np.random.default_rng(seed)
    xi = mf.project_tangent(inst.manifold, Rf, rng.standard_normal(Rf.shape)).xi
    xi /= np.linalg.norm(xi)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    return sv.retract(inst.manifold, Rf, scale * xi, cfg).point


def config(kind=sv.RetractionKind.NewtonSLRA, **kw):
    return op.OptimizerConfig(kind, **kw)


# ---------------------------------------------------------------------------
# objective and gradient


def test_objective_zero_point():
    inst = quadratic_instance()
    r = inst.manifold.dims.r
    R = np.zeros((inst.manifold.dims.N, r))
    assert op.objective(inst, R) == 0.0
    expected = np.zeros_like(R)
    expected[:, 0] = 2.0 * inst.clift
    assert np.array_equal(op.gradient(inst, R), expected)


def test_objective_single_entry():
    # R = e_i e_1^T picks out the diagonal entry Q_ii
    inst = quadratic_instance(with_linear=False)
    N, r = inst.manifold.dims.N, inst.manifold.dims.r
    for i in range(N):
        R = np.zeros((N, r))
        R[i, 0] = 1.0
        assert op.objective(inst, R) == pytest.approx(inst.Qlift[i, i], rel=1e-14)


def test_objective_closed_form_random():
    for seed in range(5):
        inst = quadratic_instance(seed=seed)
        rng = np.random.default_rng(seed + 100)
        R = rng.standard_normal((inst.manifold.dims.N, inst.manifold.dims.r))
        want = np.trace(R.T @ inst.Qlift @ R) + 2.0 * inst.clift @ R[:, 0]
        assert op.objective(inst, R) == pytest.approx(want, rel=1e-13)


def test_gradient_matches_central_differences():
    # the objective is quadratic, so central differences are exact in h
    h = 1e-5
    for seed in range(5):
        inst = quadratic_instance(seed=seed)
        N, r = inst.manifold.dims.N, inst.manifold.dims.r
        rng = np.random.default_rng(seed + 200)
        R = rng.standard_normal((N, r))
        G = op.gradient(inst, R)
        for i in range(N):
            for j in range(r):
                E = np.zeros((N, r))
                E[i, j] = h
                fd = (op.objective(inst, R + E) - op.objective(inst, R - E)) / (2 * h)
                assert fd == pytest.approx(G[i, j], rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# BB step arithmetic


def test_bb_step_identity():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((6, 2))
    assert op.bb_step(s, s) == pytest.approx(1.0, rel=1e-15)


def test_bb_step_parallel_double():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((5, 3))
    assert op.bb_step(s, 2 * s) == pytest.approx(0.5, rel=1e-15)


def test_bb_step_general_ratios():
    # hand-computable 2-vector case, written as 2x1 matrices
    s = np.array([[1.0], [2.0]])
    y = np.array([[1.0], [1.0]])
    # <s,s> = 5, <s,y> = 3, <y,y> = 2
    assert op.bb_step(s, y) == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_bb_step_negative_curvature_falls_to_min(monkeypatch):
    s = np.ones((4, 1))
    y = -np.ones((4, 1))
    bounds = (1e-8, 1e2)
    monkeypatch.setattr(op, "_STEP_BOUNDS", bounds)
    assert op.bb_step(s, y) == bounds[0]


def test_bb_step_clamps_to_bounds(monkeypatch):
    s = np.array([[1.0]])
    monkeypatch.setattr(op, "_STEP_BOUNDS", (1e-8, 1e2))
    assert op.bb_step(s, 1e-9 * s) == 1e2
    assert op.bb_step(s, 1e9 * s) == 1e-8


def test_bb_step_rejects_zero_inputs():
    s = np.ones((3, 1))
    with pytest.raises(ValueError):
        op.bb_step(np.zeros((3, 1)), s)
    with pytest.raises(ValueError):
        op.bb_step(s, np.zeros((3, 1)))


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    kind = sv.RetractionKind.APM
    with pytest.raises(ValueError):
        op.OptimizerConfig(kind, grad_tol=0.0)
    for bad in (0, 2.5, math.inf, math.nan, "3"):
        with pytest.raises(ValueError, match="max_outer"):
            op.OptimizerConfig(kind, max_outer=bad)
    assert op.OptimizerConfig(kind, max_outer=3.0).max_outer == 3
    with pytest.raises(ValueError):
        op.OptimizerConfig(42)
    with pytest.raises(ValueError):
        op.OptimizerConfig(sv.RetractionConfig(kind=kind))


# ---------------------------------------------------------------------------
# solve: stationary starts and input validation


def test_solve_stationary_start_zero_iters():
    # the knapsack start parks every variable at zero, where the lifted
    # gradient projects to nothing; the driver must notice and stop
    inst = pb.lift_qkp(pb.gen_qkp(10, 0.5, 2))
    r = inst.meta["r"]
    report = op.solve(inst, config(grad_tol=1e-8))
    assert report.outer_iters == 0
    assert report.grad_norm <= 1e-8
    assert report.total_retraction_iters == 0
    assert report.mean_retraction_iters == 0.0
    assert np.array_equal(report.final_point, pb.feasible_init(inst, r))
    assert report.final_objective == op.objective(inst, report.final_point)
    assert len(report.per_iter_log) == 1
    assert report.wall_time >= 0.0


def test_solve_qap_start_is_saddle():
    # identity-permutation embedding: Euclidean gradient is large, but the
    # tangent space kills column 0 on every binary row, which is all of it
    inst, r = qap_setup()
    R0 = pb.feasible_init(inst, r)
    assert np.linalg.norm(op.gradient(inst, R0)) > 10.0
    report = op.solve(inst, config(grad_tol=1e-8))
    assert report.outer_iters == 0
    assert report.grad_norm <= 1e-12


def test_solve_qkp_stationary_for_every_kind():
    # same stopping decision regardless of the configured retraction
    inst = pb.lift_qkp(pb.gen_qkp(50, 0.5, 42))
    for kind in sv.RetractionKind:
        report = op.solve(inst, config(kind=kind, grad_tol=1e-4, max_outer=2000))
        assert report.grad_norm <= 1e-4, kind
        assert report.outer_iters <= 2000, kind


def test_solve_rejects_bad_start(monkeypatch):
    inst, R0 = custom_setup()
    with pytest.raises(ValueError, match="shape"):
        op.solve(inst, config(), R0=R0[:-1])
    with pytest.raises(ValueError, match="violates"):
        op.solve(inst, config(), R0=np.ones_like(R0))
    # a NaN start is refused by the start gate, before any tangent projection
    calls = []
    project_tangent = mf.project_tangent
    monkeypatch.setattr(
        mf, "project_tangent", lambda *a, **kw: calls.append(a) or project_tangent(*a, **kw)
    )
    bad = R0.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="start point contains nan or inf"):
        op.solve(inst, config(), R0=bad)
    assert calls == []


def test_solve_max_outer_reached():
    inst, R0 = custom_setup()
    report = op.solve(inst, config(grad_tol=1e-15, max_outer=3), R0=R0)
    assert report.outer_iters == 3
    assert len(report.per_iter_log) == 4
    # the recorded bound is the one the retraction tested its point against
    last = report.per_iter_log[-1]
    assert last.retraction_iters >= 1
    scale = mf.frobenius_norm(report.final_point) + 1.0
    assert last.residual_bound == last.retraction_tol * scale


# ---------------------------------------------------------------------------
# solve: descent runs
#
# A loose gradient target is deliberate. The loop compares objectives of
# iterates whose feasibility error follows the inexactness schedule; the
# restoration component of each accepted step perturbs the objective at
# first order in that error, independently of the trial step, so pushing
# the tolerance far below ~1e-2 starves the nonmonotone test on generic
# instances (exercised in the failure-path tests below).


def test_solve_descends_newton():
    inst, R0 = custom_setup()
    report = op.solve(inst, config(grad_tol=2e-2, max_outer=100), R0=R0)
    log = report.per_iter_log
    assert report.grad_norm <= 2e-2
    assert report.outer_iters < 100
    assert report.final_objective < log[0].objective
    res = mf.combined_residual(inst.manifold, report.final_point)
    assert res == log[-1].residual
    assert res <= log[-1].residual_bound


def test_solve_qap_moved_start_descends():
    inst, r = qap_setup()
    Rm = qap_moved_start(inst, r)
    report = op.solve(inst, config(grad_tol=2e-2, max_outer=200), R0=Rm)
    assert report.grad_norm <= 2e-2
    assert report.final_objective < report.per_iter_log[0].objective


# retraction kinds differ in how large a trial they tolerate: the region
# guard of the three-phase map and the undamped dual Newton both need the
# BB proposals capped, and the remaining kinds differ in which instances
# they traverse without a restoration-noise rejection
@pytest.mark.parametrize(
    "kind,seed,bounds,max_outer",
    [
        (sv.RetractionKind.NewtonSLRA, 0, None, 100),
        (sv.RetractionKind.APHL, 0, None, 100),
        (sv.RetractionKind.MetricGWA, 0, None, 100),
        (sv.RetractionKind.APM, 1, None, 100),
        (sv.RetractionKind.IAP, 1, None, 100),
        (sv.RetractionKind.RelaxedNewtonSLRA, 1, None, 100),
        (sv.RetractionKind.TAPR, 1, (1e-8, 5e-2), 200),
        (sv.RetractionKind.MetricGWANewton, 1, (1e-8, 5e-2), 200),
    ],
)
def test_solve_kinds_reach_tolerance(kind, seed, bounds, max_outer, monkeypatch):
    inst, R0 = custom_setup(seed=seed)
    if bounds is not None:
        monkeypatch.setattr(op, "_STEP_BOUNDS", bounds)
    report = op.solve(inst, config(kind=kind, grad_tol=2e-2, max_outer=max_outer), R0=R0)
    assert report.grad_norm <= 2e-2
    assert report.outer_iters < max_outer
    assert report.final_objective < report.per_iter_log[0].objective


def test_solve_bb_fallback_stall_is_reported_not_hidden():
    # on this seed the curvature along the first displacement is negative,
    # BB falls back to the minimum step, and the loop crawls to max_outer;
    # the report must show the stall honestly
    inst, R0 = custom_setup(seed=2)
    cfg = config(grad_tol=2e-2, max_outer=30)
    report = op.solve(inst, cfg, R0=R0)
    assert report.outer_iters == 30
    assert report.grad_norm > 1.0
    assert min(rec.step for rec in report.per_iter_log[1:]) == op._STEP_BOUNDS[0]


# ---------------------------------------------------------------------------
# solve: log invariants


def test_solve_log_reconstructs_nonmonotone_condition():
    inst, R0 = custom_setup()
    cfg = config(grad_tol=2e-2, max_outer=100)
    report = op.solve(inst, cfg, R0=R0)
    log = report.per_iter_log
    assert len(log) >= 4
    objs = [rec.objective for rec in log]
    for k in range(1, len(log)):
        window = objs[max(0, k - 5) : k]
        bound = max(window) - 1e-8 * log[k].step * log[k - 1].grad_norm ** 2
        assert objs[k] <= bound + 1e-12 * (1.0 + abs(bound))


def test_solve_log_feasibility_within_schedule():
    inst, R0 = custom_setup()
    report = op.solve(inst, config(grad_tol=2e-2, max_outer=100), R0=R0)
    log = report.per_iter_log
    for rec in log[1:]:
        assert rec.residual <= rec.residual_bound
        assert rec.retraction_tol >= 1e-9  # schedule floor
        g_prev = log[rec.iteration - 1].grad_norm
        assert rec.retraction_tol == sv.retract_tol(g_prev, rec.iteration)


def test_solve_report_accounting():
    inst, R0 = custom_setup()
    report = op.solve(inst, config(grad_tol=2e-2, max_outer=100), R0=R0)
    log = report.per_iter_log
    assert report.outer_iters == len(log) - 1
    assert report.total_retraction_iters == sum(rec.retraction_iters for rec in log)
    assert report.mean_retraction_iters == pytest.approx(
        report.total_retraction_iters / report.outer_iters
    )
    assert report.grad_norm == log[-1].grad_norm
    assert report.final_objective == log[-1].objective
    assert report.wall_time > 0.0
    assert [rec.iteration for rec in log] == list(range(len(log)))


def test_solve_first_trial_shared_across_kinds():
    # before any retraction runs, every kind sees the same gradient and
    # the same safeguarded first step
    inst, R0 = custom_setup()
    reports = [
        op.solve(inst, config(kind=kind, grad_tol=1e-12, max_outer=1), R0=R0)
        for kind in (sv.RetractionKind.NewtonSLRA, sv.RetractionKind.APM)
    ]
    g0 = [rep.per_iter_log[0].grad_norm for rep in reports]
    assert g0[0] == g0[1]
    for rep in reports:
        first = rep.per_iter_log[1]
        if first.halvings == 0:
            assert first.step == 1e-3 / (g0[0] + 1.0)


def test_solve_first_step_formula():
    inst, R0 = custom_setup()
    report = op.solve(inst, config(grad_tol=1e-12, max_outer=1), R0=R0)
    rec = report.per_iter_log[1]
    expected = 1e-3 / (report.per_iter_log[0].grad_norm + 1.0) * 0.5**rec.halvings
    assert rec.step == expected


# ---------------------------------------------------------------------------
# solve: failure paths


def test_solve_line_search_failed_near_stationarity():
    # with the gradient target far below the restoration noise floor, the
    # forced re-polish eventually costs more objective than the window
    # allows, and no halving can fix a step-independent rejection
    inst, R0 = custom_setup()
    with pytest.raises(LineSearchFailed, match="20"):
        op.solve(inst, config(grad_tol=1e-6, max_outer=500), R0=R0)


def test_solve_tapr_region_guard_propagates():
    # uncapped BB proposals overshoot the three-phase safeguard radius;
    # the guard rejection must surface with the outer iteration attached
    inst, R0 = custom_setup()
    cfg = config(kind=sv.RetractionKind.TAPR, grad_tol=1e-6, max_outer=500)
    with pytest.raises(InitialResidualTooLarge) as info:
        op.solve(inst, cfg, R0=R0)
    assert info.value.outer_iteration >= 1


def test_solve_retraction_error_carries_outer_iteration(monkeypatch):
    inst, R0 = custom_setup()

    def failing_retract(M, x, eta, cfg, base_res=None):
        raise MaxIterExceeded("stuck", result=None)

    monkeypatch.setattr(sv, "retract", failing_retract)
    with pytest.raises(MaxIterExceeded) as info:
        op.solve(inst, config(grad_tol=1e-12, max_outer=5), R0=R0)
    assert info.value.outer_iteration == 1


def test_solve_deterministic():
    inst, R0 = custom_setup()
    rep1 = op.solve(inst, config(grad_tol=2e-2, max_outer=100), R0=R0)
    rep2 = op.solve(inst, config(grad_tol=2e-2, max_outer=100), R0=R0)
    assert np.array_equal(rep1.final_point, rep2.final_point)
    assert rep1.final_objective == rep2.final_objective
    assert rep1.outer_iters == rep2.outer_iters
