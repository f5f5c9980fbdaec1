"""How large a per-sweep error the second-order claim survives.

PAPER.md's framework covers inexact alternating-projection-type methods.
These tests perturb every APM sweep by kappa ||step_k||^p along a seeded
unit direction and fit criterion 1's slopes of the limit point's error
against the tangent ray x + t eta. An error of order ||step||^1.5 or
||step||^2 per sweep keeps the tangential slope of 3; an error of order
||step|| does not (its tangential error grows toward t^2). The steps run
through public apm_step alone, and the perturbation lives in the test.

The lifts and tangent pairs are test_gauge's: the benchmark's seeded QAP
p=6 (r = 8) and p=8 (r = 13) lifts, where apm settles in a few hundred
sweeps per point.
"""

import numpy as np
import pytest
from test_acceptance import PLATEAU_COEFF, TANGENTIAL_BAND, TOTAL_BAND
from test_acceptance import _fit_above_floor as fit_above_floor
from test_gauge import LIFTS, lift
from test_solvers import tangent_pair

from isectret import manifold as mf
from isectret import solvers as sv

GRID = np.logspace(-3.0, -1.0, 9)
# absolute combined residual at which a perturbed APM run stops
SETTLED = 1e-13
MAX_SWEEPS = 5000
# (p, kappa): a sweep's error kappa ||step||^p; p = None leaves it exact
SECOND_ORDER = [(None, 0.0), (1.5, 0.1), (1.5, 1.0), (2.0, 0.1)]
FIRST_ORDER = [(1.0, 0.1)]
# below criterion 1's tangential band: measured 2.358 (p=6) and 2.360 (p=8)
FIRST_ORDER_CEILING = 2.6


def perturbed_apm(M, V, p, kappa, seed):
    """APM from V with kappa ||step_k||^p added along a seeded unit
    direction after each sweep that has not settled: the settled point."""
    rng = np.random.default_rng(seed)
    R = V
    for _ in range(MAX_SWEEPS):
        P, (res, _, _) = sv.apm_step(M, R)
        if res <= SETTLED:
            return P
        if p is None:
            R = P
            continue
        u = rng.standard_normal(P.shape)
        R = P + (kappa * np.linalg.norm(P - R) ** p / np.linalg.norm(u)) * u
    raise AssertionError(f"apm with p={p}, kappa={kappa} did not settle in {MAX_SWEEPS} sweeps")


def slopes(label, p, kappa):
    """Criterion 1's (total, tangential) slopes on GRID, each fitted above
    the plateau floor from at least its minimum number of points."""
    M, x, eta = tangent_pair(lift(label), np.random.default_rng([3, 1]))
    floor = PLATEAU_COEFF * (np.linalg.norm(x) + 1.0)
    total, tangential = [], []
    for j, t in enumerate(GRID):
        e = perturbed_apm(M, x + t * eta, p, kappa, seed=j) - (x + t * eta)
        total.append(np.linalg.norm(e))
        tangential.append(np.linalg.norm(mf.project_tangent(M, x, e).xi))
    name = f"{label}, p={p}, kappa={kappa}"
    return (
        fit_above_floor(GRID, total, floor, f"{name} total")[0],
        fit_above_floor(GRID, tangential, floor, f"{name} tangential")[0],
    )


@pytest.mark.parametrize("p, kappa", SECOND_ORDER, ids=lambda v: str(v))
@pytest.mark.parametrize("label", list(LIFTS))
def test_a_superlinear_sweep_error_keeps_the_second_order(label, p, kappa):
    total, tangential = slopes(label, p, kappa)
    assert TOTAL_BAND[0] <= total <= TOTAL_BAND[1], total
    assert TANGENTIAL_BAND[0] < tangential < TANGENTIAL_BAND[1], tangential


@pytest.mark.parametrize("p, kappa", FIRST_ORDER, ids=lambda v: str(v))
@pytest.mark.parametrize("label", list(LIFTS))
def test_a_sweep_error_of_the_step_order_loses_it(label, p, kappa):
    total, tangential = slopes(label, p, kappa)
    assert TOTAL_BAND[0] <= total <= TOTAL_BAND[1], total
    assert tangential < FIRST_ORDER_CEILING, tangential
