"""Benchmark runner for isectret.

One workload per process:

    python3 perfbench/run.py --workload retract-linear --seed 1 --seconds 36 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The line before it holds the run's
context (versions, nproc, the host-speed probe, sample counts).

Without ``--workload`` it runs every workload, each in its own process, in an
order rotated by the seed (so runs with successive seeds interleave the
workloads), and prints every metric by name with its unit. It exits non-zero
when an output check fails.

Run it from a checkout: it imports ``isectret`` from ``src/`` next to this
directory and refuses to run without it.
"""

import os
import sys

# one BLAS thread, set before numpy loads: the bundled OpenBLAS would start a
# pool as wide as the machine, and bench cells stay serial
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["ISECT_THREADS"] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s is the median of this many cold set-ups: this process's own and the
# rest each in a fresh process, so every one pays the one-time costs (imports,
# first calls into numpy, scipy and BLAS) that a user pays before a result
SETUP_REPEATS = 3
WARMUP_OPS = 1
CALIB_SECONDS = 0.5
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def import_package():
    """Import isectret from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "isectret", "__init__.py")):
        fail(f"no isectret sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import isectret

    if not os.path.abspath(isectret.__file__).startswith(SRC + os.sep):
        fail(f"isectret imported from {isectret.__file__}, not from {SRC}")


def calib_ops_per_s(seconds=CALIB_SECONDS):
    """Host-speed probe: a fixed numpy-only loop shaped like an APM sweep,
    with no isectret code. Reported beside the metrics, never divided in."""
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((32, 96))
    R = rng.standard_normal((96, 13))
    G = A @ A.T
    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        X = R
        for _ in range(20):
            X = R - 1e-3 * (A.T @ np.linalg.solve(G, A @ X))
        n += 1
    return n / (time.perf_counter() - t0)


def host_info():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it, its
    percentile and the count above it. With too few samples it is the maximum."""
    xs = sorted(samples)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


class Loop:
    """Closed-loop timing of one workload's ops, with the run's call tally."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.calls = 0
        self.ok_calls = 0
        self.failed_ops = 0
        self.unexpected = []

    def run_one(self, runner=None):
        """Run one op (through ``runner`` if given); returns its time."""
        t0 = time.perf_counter()
        out = self.workload.op() if runner is None else runner(self.workload.op)
        elapsed = time.perf_counter() - t0
        self.ops += 1
        self.calls += out.attempted
        self.ok_calls += out.ok
        if out.unexpected:
            self.failed_ops += 1
            self.unexpected.extend(out.unexpected)
        return elapsed

    def run_for(self, seconds):
        """Run ops until ``seconds`` have passed; returns (elapsed, op times)."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.run_one())
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start, times


def load():
    """Import isectret and the benchmark's modules; returns (tracing, workloads)."""
    import_package()
    import tracing
    import workloads

    return tracing, workloads


def set_up(workloads_mod, name, seed):
    """This process's set-up: instances, lifts, tangent pools and warm-up ops.
    Returns the workload and the seconds since the process started."""
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    workload = workloads_mod.SETUPS[name](seed, workdir)
    try:
        for _ in range(WARMUP_OPS):
            workload.op()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - T_START


def cold_setups(name, seed, n):
    """Seconds of ``n`` more cold set-ups, each in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--cold-setup"]
    runs = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            fail(f"cold set-up of {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        runs.append(float(proc.stdout.split()[-1]))
    return runs


def run_workload(name, seed, seconds, trace):
    tracing, workloads = load()
    import_s = time.perf_counter() - T_START
    if name not in workloads.SETUPS:
        fail(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOAD_NAMES)}")
    try:
        workload, own_setup_s = set_up(workloads, name, seed)
    except workloads.CheckFailed as err:
        return report(False, 0, 0, {}, {"error": str(err)})
    loop = Loop(workload)
    try:
        setup_runs = [own_setup_s]
        if not trace:
            setup_runs += cold_setups(name, seed, SETUP_REPEATS - 1)
        calib_before = calib_ops_per_s()
        gc.collect()
        gc.freeze()
        if not trace:
            elapsed, times = loop.run_for(seconds)
        else:
            # untraced and traced ops alternate, so host-speed drift hits both
            # alike; the traced ops are whole ops and the counts are per op
            tracer = tracing.Tracer()
            plain_times, times = [], []
            start = time.perf_counter()
            while not times or time.perf_counter() - start < seconds:
                plain_times.append(loop.run_one())
                with tracer.installed():
                    times.append(loop.run_one(tracer.op))
    except workloads.CheckFailed as err:
        return report(False, loop.ops, loop.failed_ops, {}, {"error": str(err)})
    finally:
        workload.close()
    calib_after = calib_ops_per_s()
    context = dict(
        workload=name, seed=seed, host=host_info(),
        calib_ops_per_s={"before": calib_before, "after": calib_after},
        setup_runs_s=setup_runs, import_s=import_s,
        unexpected_failures=loop.unexpected[:10],
    )
    if not trace:
        tail_s, tail_pct, beyond = tail(times)
        context.update(ops=len(times), tail_percentile=tail_pct, tail_samples_beyond=beyond)
        values = {
            "ops_per_s": len(times) / elapsed,
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ok_frac": loop.ok_calls / loop.calls,
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        values, traced_ops = tracing.layer_metrics(tracer)
        values["trace.overhead_frac"] = statistics.median(times) / statistics.median(plain_times) - 1.0
        units = dict(tracing.per_layer_names())
        units["trace.overhead_frac"] = "ratio"
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{name}-seed{seed}.npz")
        tracer.flush(span_file)
        context.update(traced_ops=traced_ops, untraced_ops=len(plain_times),
                       spans=len(tracer), span_file=os.path.relpath(span_file, ROOT))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return report(True, loop.ops, loop.failed_ops, metrics, context)


def report(correct, attempted, failed, metrics, context):
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed, seconds, trace):
    """Every workload in its own process, the order rotated by the seed."""
    import_package()
    from workloads import WORKLOAD_NAMES as names

    k = seed % len(names)
    status = 0
    for name in names[k:] + names[:k]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name} seed {seed}: FAILED (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name} seed {seed}: correct={result['correct']} "
              f"ops={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:55s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=None,
                    help="one workload; all of them, one process each, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-setup", action="store_true",
                    help="with --workload: time one cold set-up, print it and exit "
                         "(what setup_s takes its median of)")
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    try:
        if args.cold_setup:
            _, workloads = load()
            workload, setup_s = set_up(workloads, args.workload, args.seed)
            workload.close()
            print(setup_s)
            return 0
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        work = os.path.join(ROOT, ".bench_work")
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)


if __name__ == "__main__":
    sys.exit(main())
