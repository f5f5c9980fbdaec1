"""The benchmark's workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. One op is a *bundle*: every kind on every instance and
input of the workload, all drawn once from the seed in set-up, so each op does
the same work and op times are unimodal.

Only public functions of ``isectret`` are called, always through their module
attribute (``solvers.retract``, not ``isectret.retract``), so the traced run
can rebind them from ``tracing.py``.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from isectret import cli, manifold, problems, solvers
from isectret.errors import IsectError

# relative residual bound a metric projection must meet to count as a point
# on the manifold (the library's own feasibility tolerance)
METRIC_BOUND = manifold.FEASIBILITY_TOL


class CheckFailed(Exception):
    """A returned output is wrong. This fails the run; it is never counted
    as a known failure."""


class Outcome:
    """Per-op tally of calls that met their contract."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.unexpected = []

    def record(self, label, error, known):
        """error is None or the failing call's error class name; known maps
        labels to the error class name that label is known to end in."""
        self.attempted += 1
        if error is None:
            self.ok += 1
        elif known.get(label) != error:
            self.unexpected.append(f"{label}: {error}")


class Workload:
    """A set-up workload: ``op()`` runs one bundle and returns its Outcome."""

    def __init__(self, op, inputs, cleanup=None):
        self.op = op
        # digest of the generated inputs, so tests can see the seed act
        self.inputs = inputs
        self._cleanup = cleanup

    def close(self):
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def qap_text(p, rng):
    """A QAPLib file: symmetric integer flow and distance, zero diagonal."""
    W = np.triu(rng.integers(0, 10, size=(p, p)), 1)
    D = np.triu(rng.integers(1, 10, size=(p, p)), 1)
    lines = [str(p), ""]
    lines += [" ".join(str(int(v)) for v in row) for row in W + W.T]
    lines.append("")
    lines += [" ".join(str(int(v)) for v in row) for row in D + D.T]
    return "\n".join(lines) + "\n"


def qap_lift(p, rng):
    return problems.lift_qap(problems.parse_qaplib(qap_text(p, rng), name=f"qap{p}"))


# The knapsack instances are fixed and only the points on them come from the
# benchmark seed: the APM rate on a QKP lift depends on the instance (about
# 940 against 1120 iterations between two generator seeds at n=50), which
# would tie op time to the seed more than to the code. The assignment
# instances are drawn from the seed; their rates vary by a few percent.
QKP_SEED = 42
# gen_qkp(60, 0.5, 2) is the instance on which the descent loop ends in
# LineSearchFailed near outer iteration 15
DESCENT_QKP_SEED = 2
# Descent takes no input from the benchmark seed. Its known defect ends cells
# in LineSearchFailed at points that depend on the instance: newton-slra does
# so on 4 of 24 seeded QAP p=8 instances (seeds 1-24), aphl on none. A seeded
# instance would make ok_frac depend on the seed, so both files are fixed and
# the QKP cells carry the defect in every run.
DESCENT_QAP_SEED = 1


def qkp_lift(n, seed=QKP_SEED):
    return problems.lift_qkp(problems.gen_qkp(n, 0.5, seed))


def unit_tangent(M, x, rng):
    xi = manifold.project_tangent(M, x, rng.standard_normal(x.shape)).xi
    return xi / np.linalg.norm(xi)


def tangent_pair(inst, rng):
    """A seeded (x, eta): x is feasible_init retracted along 0.5 times a unit
    tangent; eta is a unit tangent at x."""
    M = inst.manifold
    base = problems.feasible_init(inst, M.dims.r)
    cfg = solvers.RetractionConfig(kind=solvers.RetractionKind.NewtonSLRA, tol=1e-12)
    x = solvers.retract(M, base, 0.5 * unit_tangent(M, base, rng), cfg).point
    return x, unit_tangent(M, x, rng)


def _digest(arrays):
    return tuple(float(np.sum(a * np.arange(1, a.size + 1).reshape(a.shape))) for a in arrays)


# ---------------------------------------------------------------------------
# retract-linear


def retract_linear(seed, workdir):
    rng = _rng(seed, 1)
    tol = 1e-6
    cases = []
    for label, inst in (("qkp50", qkp_lift(50)), ("qap8", qap_lift(8, rng))):
        x, eta = tangent_pair(inst, rng)
        cases.append((label, inst.manifold, x, 0.3 * eta))
    cfgs = [
        solvers.RetractionConfig(kind=solvers.RetractionKind(k), tol=tol, maxiter=5000)
        for k in ("apm", "iap", "tapr")
    ]

    def op():
        out = Outcome()
        for label, M, x, step in cases:
            for cfg in cfgs:
                key = f"{label}/{cfg.kind.value}"
                try:
                    res = solvers.retract(M, x, step, cfg)
                except IsectError as err:
                    out.record(key, type(err).__name__, {})
                    continue
                bound = tol * (np.linalg.norm(res.point) + 1.0)
                got = manifold.combined_residual(M, res.point)
                if not got <= bound:
                    raise CheckFailed(
                        f"{key}: retract returned residual {got:.3e} above its bound {bound:.3e}"
                    )
                out.record(key, None, {})
        return out

    return Workload(op, _digest([c[2] for c in cases] + [c[3] for c in cases]))


# ---------------------------------------------------------------------------
# metric-project

# gwa on the QKP lift does not settle in 500 dual steps (a known defect)
METRIC_KNOWN = {"qkp100/gwa": "MaxIterExceeded"}


def metric_project(seed, workdir):
    rng = _rng(seed, 3)
    cases = []
    for label, inst in (("qkp100", qkp_lift(100)), ("qap8", qap_lift(8, rng))):
        x, eta = tangent_pair(inst, rng)
        V = x + 0.3 * eta + 1e-3 * rng.standard_normal(x.shape)
        cases.append((label, inst.manifold, V))

    def op():
        out = Outcome()
        for label, M, V in cases:
            for method in ("gwa", "gwa-newton"):
                key = f"{label}/{method}"
                try:
                    P = solvers.metric_project(M, V, method=method, tol=1e-9, maxiter=500)
                except IsectError as err:
                    out.record(key, type(err).__name__, METRIC_KNOWN)
                    continue
                bound = METRIC_BOUND * (np.linalg.norm(P) + 1.0)
                got = manifold.combined_residual(M, P)
                if not got <= bound:
                    raise CheckFailed(
                        f"{key}: metric_project returned residual {got:.3e} above {bound:.3e}"
                    )
                out.record(key, None, METRIC_KNOWN)
        return out

    return Workload(op, _digest([c[2] for c in cases]))


# ---------------------------------------------------------------------------
# descent

DESCENT_KINDS = "aphl,newton-slra"
DESCENT_MAX_OUTER = 40


def descent(seed, workdir):
    rng = _rng(DESCENT_QAP_SEED, 4)
    os.makedirs(workdir, exist_ok=True)
    qap = os.path.join(workdir, "qap8.dat")
    qkp = os.path.join(workdir, "qkp60.txt")
    out_csv = os.path.join(workdir, "bench.csv")
    text = qap_text(8, rng)
    with open(qap, "w") as fh:
        fh.write(text)
    qkp_inst = problems.gen_qkp(60, 0.5, DESCENT_QKP_SEED)
    with open(qkp, "w") as fh:
        fh.write(problems.format_qkp(qkp_inst))
    # the QKP cells end in LineSearchFailed (the BB step stalls on these
    # indefinite objectives); they stay in the bundle and are counted
    qkp_name = problems.lift_qkp(qkp_inst).meta["name"]
    known = {f"{qkp_name}/{k}": "LineSearchFailed" for k in DESCENT_KINDS.split(",")}
    argv = [
        "bench", "--instances", f"{qap},{qkp}", "--kinds", DESCENT_KINDS,
        "--tol", "2e-2", "--move-start", "0.3", "--max-outer", str(DESCENT_MAX_OUTER),
        "--out", out_csv,
    ]
    reference = []

    def op():
        code = cli.run(argv)
        if code != 0:
            raise CheckFailed(f"isectret bench exited {code}")
        with open(out_csv, "rb") as fh:
            data = fh.read()
        if not reference:
            reference.append(data)
        elif data != reference[0]:
            raise CheckFailed("bench CSV differs from the one written in set-up")
        out = Outcome()
        for line in data.decode().splitlines()[1:]:
            inst, kind, _repeat, status = line.split(",")[:4]
            out.record(f"{inst}/{kind}", None if status == "ok" else status, known)
        return out

    inputs = (text, problems.format_qkp(qkp_inst))
    return Workload(op, inputs, cleanup=lambda: shutil.rmtree(workdir, True))


SETUPS = {
    "retract-linear": retract_linear,
    "metric-project": metric_project,
    "descent": descent,
}
WORKLOAD_NAMES = tuple(SETUPS)
