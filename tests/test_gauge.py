"""The column gauge of the intersection manifold.

For Q orthogonal with Q e1 = e1, A (X Q) = b e1^T and
||(X Q)_i||^2 = (X Q)_i . e1 on every binary row, so M is invariant under
X -> X Q, and so is the lifted objective. Every step map is built from left
products (K, A), the sphere centre e1 / 2 and row norms, so every retraction
should satisfy R(x Q, eta Q) = R(x, eta) Q, step for step. A consequence:
the gradient, the tangent projection and every step keep R's rows in the
span of e1 and the rows of the start, so columns that are zero at the start
stay exactly zero.

These tests pin both facts on seeded QAP lifts, p = 6 (r = 8) and
p = 8 (r = 13), where apm takes a few hundred sweeps. The coupled pair has
r = 2, where Q can only flip a sign.
"""

import numpy as np
import pytest
from test_solvers import seeded_qap, tangent_pair

from isectret import manifold as mf
from isectret import optimizer as op
from isectret import problems as pb
from isectret import solvers as sv

K = sv.RetractionKind

# p per lift; W and D are drawn as the benchmark's qap_lift(p, _rng(1, 9))
# draws them, and the tangent pairs as its tangent_pair(lift, _rng(3, 1))
LIFTS = {"qap6": 6, "qap8": 8}
# metric-gwa misses its dual tolerance on these lifts (MaxIterExceeded)
EQUIVARIANT_KINDS = [kind for kind in K if kind is not K.MetricGWA]
LINEAR_RATE_KINDS = (K.APM, K.IAP)
# the descent kinds of the row-space test. From its start, tapr's descent
# aborts on InitialResidualTooLarge at outer step 5 (p = 6) or 6 (p = 8),
# when a long trial step breaks its a0 guard, so its row space is checked
# through one retraction instead
DESCENT_KINDS = (K.APM, K.IAP, K.NewtonSLRA, K.RelaxedNewtonSLRA, K.APHL)
# columns 4..r of the row-space start are zero
KEPT_COLUMNS = 3


def lift(label):
    return seeded_qap(LIFTS[label], np.random.SeedSequence([1, 9]))


def gauge_rotation(r, seed):
    """A seeded orthogonal Q with Q e1 = e1: 1 (+) an orthogonal (r-1)-block."""
    rng = np.random.default_rng(seed)
    block, _ = np.linalg.qr(rng.standard_normal((r - 1, r - 1)))
    Q = np.eye(r)
    Q[1:, 1:] = block
    return Q


def config(kind):
    # apm and iap settle to a relative tolerance in a few hundred sweeps;
    # the absolute 1e-12 would take them far longer
    if kind in LINEAR_RATE_KINDS:
        return sv.RetractionConfig(kind=kind, tol=1e-9, maxiter=5000)
    return sv.RetractionConfig(kind=kind, tol=1e-12, maxiter=5000, tol_absolute=True)


@pytest.mark.parametrize("t", [1e-2, 0.3])
@pytest.mark.parametrize("label", list(LIFTS))
@pytest.mark.parametrize("kind", EQUIVARIANT_KINDS, ids=lambda kind: kind.value)
def test_retraction_commutes_with_the_column_gauge(kind, label, t):
    prob = lift(label)
    M, x, eta = tangent_pair(prob, np.random.default_rng([3, 1]))
    Q = gauge_rotation(M.dims.r, seed=4)
    cfg = config(kind)
    out = sv.retract(M, x, t * eta, cfg)
    out_q = sv.retract(M, x @ Q, t * (eta @ Q), cfg)
    assert out.trace.combined[-1] <= out.bound
    assert out_q.trace.combined[-1] <= out_q.bound
    # equal phase lists: the same steps, in the same number
    assert out_q.trace.phases == out.trace.phases
    want = out.point @ Q
    gap = np.linalg.norm(out_q.point - want) / np.linalg.norm(want)
    assert gap <= 1e-13, f"{kind.value} on {label} at t={t}: {gap:.3e}"


def row_space_start(prob, seed):
    """A feasible point whose columns KEPT_COLUMNS+1..r are exactly zero: the
    constructive start retracted by NewtonSLRA along a tangent projected from
    a direction with those columns zeroed."""
    M = prob.manifold
    base = pb.feasible_init(prob, M.dims.r)
    G = np.random.default_rng(seed).standard_normal(base.shape)
    G[:, KEPT_COLUMNS:] = 0.0
    xi = mf.project_tangent(M, base, G).xi
    cfg = sv.RetractionConfig(kind=K.NewtonSLRA, tol=1e-12)
    R0 = sv.retract(M, base, 0.5 * xi / np.linalg.norm(xi), cfg).point
    assert np.all(R0[:, KEPT_COLUMNS:] == 0.0)
    assert np.any(R0[:, 1:KEPT_COLUMNS] != 0.0)
    return R0


@pytest.mark.parametrize("label", list(LIFTS))
@pytest.mark.parametrize("kind", DESCENT_KINDS, ids=lambda kind: kind.value)
def test_descent_never_grows_the_row_space(kind, label):
    prob = lift(label)
    R0 = row_space_start(prob, seed=5)
    report = op.solve(prob, op.OptimizerConfig(kind, grad_tol=2e-2, max_outer=10), R0=R0)
    assert report.outer_iters == 10
    assert np.all(report.final_point[:, KEPT_COLUMNS:] == 0.0)


@pytest.mark.parametrize("label", list(LIFTS))
def test_tapr_never_grows_the_row_space(label):
    prob = lift(label)
    M = prob.manifold
    R0 = row_space_start(prob, seed=5)
    G = op.gradient(prob, R0)
    xi = mf.project_tangent(M, R0, -G).xi
    out = sv.retract(M, R0, 1e-2 * xi / np.linalg.norm(xi), config(K.TAPR))
    assert out.trace.combined[-1] <= out.bound
    assert np.all(out.point[:, KEPT_COLUMNS:] == 0.0)
