"""Tests of the benchmark itself: tracing is transparent and self-consistent,
counts repeat for a seed, and the seed drives the inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from isectret import cli, manifold, problems, solvers  # noqa: E402
from isectret.errors import MaxIterExceeded  # noqa: E402


def tiny_qkp():
    return problems.lift_qkp(problems.gen_qkp(6, 0.5, 3))


def tiny_calls(workdir):
    """Calls through every layer on tiny instances: (label, thunk)."""
    inst = tiny_qkp()
    M = inst.manifold
    rng = np.random.default_rng(5)
    x, eta = workloads.tangent_pair(inst, rng)
    qap = os.path.join(workdir, "tiny.dat")
    with open(qap, "w") as fh:
        fh.write(workloads.qap_text(3, np.random.default_rng(3)))
    out_csv = os.path.join(workdir, "out.csv")

    def retract(kind, maxiter=5000):
        cfg = solvers.RetractionConfig(kind=solvers.RetractionKind(kind), tol=1e-6,
                                       maxiter=maxiter)
        return lambda: solvers.retract(M, x, 0.3 * eta, cfg)

    def bench():
        code = cli.run(["bench", "--instances", qap, "--kinds", "aphl,apm", "--tol", "2e-2",
                        "--move-start", "0.3", "--max-outer", "5", "--out", out_csv])
        with open(out_csv) as fh:
            return code, fh.read()

    V = x + 0.3 * eta
    return [
        ("apm", retract("apm")),
        ("tapr", retract("tapr")),
        ("newton", retract("newton-slra")),
        ("apm-budget", retract("apm", maxiter=2)),
        ("gwa-newton", lambda: solvers.metric_project(M, V, method="gwa-newton")),
        ("gwa-budget", lambda: solvers.metric_project(M, V, method="gwa", maxiter=1)),
        ("bench", bench),
    ]


def outcome(thunk):
    try:
        return "ok", thunk()
    except Exception as err:  # compared, not handled
        return "raised", (type(err), str(err))


def same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, solvers.RetractionResult):
        return (np.array_equal(a.point, b.point) and a.trace.phases == b.trace.phases
                and a.trace.combined == b.trace.combined)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    return a == b


def test_wrappers_are_transparent(tmp_path):
    bound = [(manifold, "combined_residual"), (problems, "combined_residual"),
             (manifold.AffineSystem, "gram_solve"), (solvers, "retract"), (cli, "run")]
    before = [getattr(owner, attr) for owner, attr in bound]
    plain = {label: outcome(thunk) for label, thunk in tiny_calls(str(tmp_path))}
    calls = tiny_calls(str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert solvers.retract is not before[3]
        assert problems.combined_residual is manifold.combined_residual
        traced = {label: outcome(thunk) for label, thunk in calls}
    assert [getattr(owner, attr) for owner, attr in bound] == before

    assert plain["apm-budget"][0] == "raised" and plain["apm-budget"][1][0] is MaxIterExceeded
    assert plain["gwa-budget"][0] == "raised"
    for label in plain:
        assert plain[label][0] == traced[label][0], label
        assert same(plain[label][1], traced[label][1]), label

    # the program's own iteration counts match the spans' counts
    apm_iters = len(plain["apm"][1].trace) - 1
    name, parent, _, _ = tracer.arrays()
    ix = tracer.index
    retracts = np.flatnonzero(name == ix["solvers.retract"])
    assert tracer.extra[int(retracts[0])][0] == apm_iters
    steps = (name == ix["solvers.apm_step"]) & (parent == retracts[0])
    assert np.count_nonzero(steps) == apm_iters
    assert int(retracts[3]) in tracer.raised


def run_traced(workload, ops):
    tracer = tracing.Tracer()
    with tracer.installed():
        for _ in range(ops):
            tracer.op(workload.op)
    return tracer


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_spans_nest_and_cover_the_op(name, tmp_path):
    w = workloads.SETUPS[name](7, str(tmp_path))
    try:
        tracer = run_traced(w, 2)
    finally:
        w.close()
    names, _, start, end = tracer.arrays()
    self_t = tracer.self_times()
    ops = list(np.flatnonzero(names == tracer.index[tracing.OP])) + [len(names)]
    assert len(ops) == 3
    for a, b in zip(ops, ops[1:]):
        wall = end[a] - start[a]
        # spans of one op nest in index order: no negative self time, and
        # the self times of the op's subtree add up to its wall time
        assert np.all(self_t[a:b] >= -1e-9)
        assert abs(self_t[a:b].sum() - wall) <= 1e-9 + 1e-9 * wall
        # the wrappers cover the op: time outside every traced function
        # (the op span's own self time) is a small share of the op
        assert self_t[a] < 0.02 * wall
    metrics, n = tracing.layer_metrics(tracer)
    assert n == 2
    busy = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    total_ms = sum(end[a] - start[a] for a in ops[:-1]) * 1e3 / 2
    assert 0.98 * total_ms <= busy <= total_ms


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_counts_repeat_for_one_seed(name, tmp_path):
    runs = []
    for i in range(2):
        w = workloads.SETUPS[name](11, str(tmp_path / f"w{i}"))
        try:
            metrics, _ = tracing.layer_metrics(run_traced(w, 1))
        finally:
            w.close()
        runs.append({k: v for k, v in metrics.items() if not k.endswith("self_ms")})
    assert runs[0] == runs[1]
    entry = {"descent": "cli.run", "metric-project": "solvers.metric_project"}
    assert runs[0][entry.get(name, "solvers.retract") + ".calls"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_seed_changes_inputs(name, tmp_path):
    # descent's instance files are fixed on purpose (see workloads.py)
    made = {}
    for seed, tag in ((1, "a"), (1, "b"), (2, "c")):
        w = workloads.SETUPS[name](seed, str(tmp_path / tag))
        made[tag] = w.inputs
        w.close()
    assert made["a"] == made["b"]
    assert (made["a"] == made["c"]) == (name == "descent")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric-project", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
