"""Command-line front end: instance generation, order checks, solves,
benchmarks, and metric projection.

Subcommands
-----------
gen-qkp       write a random knapsack instance in the "qkp v1" text format
verify-order  fit total/tangential error slopes for one or more retractions
solve         run the BB descent loop on an instance, report a summary row
bench         solve a grid of (instance, kind, repeat) cells
project       metric-project a point file onto the lifted manifold

Instance files are detected by content: a leading "qkp v1" header selects
the knapsack parser, anything else goes through the QAP library format.

Exit codes: 0 on success, 1 for usage errors and unreadable or malformed
inputs, 2 for numerical failures (the originating error class plus any
iteration context goes to stderr).

Output files are written atomically (temp file in the same directory, then
rename) and only after the computation has finished, so a failing run never
leaves a partial file. Data CSVs are deterministic: fixed column order,
floats formatted with repr (shortest round-trip), no timestamps. Wall-clock
timing is isolated in the optional --timing-out file. Bench rows follow the
nested instances/kinds/repeats order.

Constructive start points are first-order stationary for these objectives,
so verify-order measures at a base point moved by 0.5 along a seeded unit
tangent (and solve/bench accept --move-start to do the same); the direction
probed by verify-order is the normalized Riemannian gradient there.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
import time

import numpy as np

from . import manifold as mf
from . import optimizer as op
from . import problems as pb
from . import solvers as sv
from . import verify as vf
from .errors import AsymmetricMatrix, IsectError, MalformedFile, NearZeroInput

_MOVE_SEED = 20260819
# verify-order's default window: the one default_t_grid() spans
_T_GRID = vf.default_t_grid()

_VERIFY_HEADER = [
    "kind",
    "t",
    "total_error",
    "tangential_error",
    "slope_total",
    "slope_tangential",
    "plateau_excluded_count",
]
_SOLVE_HEADER = [
    "instance",
    "kind",
    "r",
    "grad_tol",
    "final_objective",
    "grad_norm",
    "outer_iters",
    "total_retraction_iters",
    "mean_retraction_iters",
]
_BENCH_HEADER = ["instance", "kind", "repeat", "status"] + _SOLVE_HEADER[4:]


class UsageError(Exception):
    """Bad flags, unreadable files, or invalid parameter combinations."""


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on errors; raise instead so run() can map
    # them to exit code 1
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared helpers


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])
    _atomic_write(path, buf.getvalue())


def _load_instance(path: str, r: int | None = None) -> pb.ProblemInstance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise UsageError(str(err))
    if text.lstrip().startswith("qkp v1"):
        return pb.lift_qkp(pb.parse_qkp(text), r=r)
    name = os.path.splitext(os.path.basename(path))[0]
    return pb.lift_qap(pb.parse_qaplib(text, name=name), r=r)


def _parse_kinds(spec: str) -> list[sv.RetractionKind]:
    kinds = []
    for token in spec.split(","):
        token = token.strip()
        try:
            kinds.append(sv.RetractionKind(token))
        except ValueError:
            valid = ", ".join(k.value for k in sv.RetractionKind)
            raise UsageError(f"unknown retraction kind {token!r}; choose from {valid}")
    if not kinds:
        raise UsageError("at least one retraction kind is required")
    return kinds


def _moved_start(inst: pb.ProblemInstance, scale: float) -> np.ndarray:
    """Start point moved off the stationary constructive initialization.

    Retraction of scale * (seeded unit tangent) from feasible_init, driven
    to near machine precision so the move itself adds no feasibility error.
    """
    M = inst.manifold
    base = pb.feasible_init(inst, inst.meta["r"])
    rng = np.random.default_rng(_MOVE_SEED)
    xi = mf.project_tangent(M, base, rng.standard_normal(base.shape)).xi
    xi = xi / np.linalg.norm(xi)
    cfg = sv.RetractionConfig(kind=sv.RetractionKind.NewtonSLRA, tol=1e-12)
    return sv.retract(M, base, scale * xi, cfg).point


def _diagnose(err: IsectError) -> str:
    parts = [f"{type(err).__name__}: {err}"]
    for attr in ("iteration", "outer_iteration", "t_value"):
        value = getattr(err, attr, None)
        if value is not None:
            parts.append(f"{attr}={value}")
    return " | ".join(parts)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_qkp(args) -> int:
    try:
        inst = pb.gen_qkp(args.n, args.density, args.seed)
    except ValueError as err:
        raise UsageError(str(err))
    _atomic_write(args.out, pb.format_qkp(inst))
    return 0


def _cmd_verify_order(args) -> int:
    kinds = _parse_kinds(args.kinds)
    if not 0.0 < args.t_min < args.t_max:
        raise UsageError("need 0 < --t-min < --t-max")
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    inst = _load_instance(args.instance)
    grid = np.logspace(np.log10(args.t_min), np.log10(args.t_max), args.points)
    M = inst.manifold
    x = _moved_start(inst, 0.5)
    g = mf.project_tangent(M, x, op.gradient(inst, x)).xi
    g_norm = float(np.linalg.norm(g))
    if g_norm <= 1e-14:
        raise NearZeroInput("gradient vanishes at the probe point")
    eta = g / g_norm
    rows = []
    for kind in kinds:
        total, tang = vf.order_slope(M, kind, x, eta, grid)
        for j in range(grid.size):
            rows.append([
                kind.value,
                float(grid[j]),
                float(total.errors[j]),
                float(tang.errors[j]),
                total.slope,
                tang.slope,
                tang.plateau_excluded_count,
            ])
    _write_csv(args.out, _VERIFY_HEADER, rows)
    return 0


def _check_descent_flags(args) -> None:
    """The numeric flags solve and bench share, checked before any loading."""
    if not args.tol > 0.0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    if args.max_outer < 1:
        raise UsageError(f"--max-outer must be at least 1, got {args.max_outer}")
    if not math.isfinite(args.move_start):
        raise UsageError(f"--move-start must be finite, got {args.move_start}")


def _start(inst, args):
    """R0 for op.solve: None (its constructive start) for --move-start 0."""
    return _moved_start(inst, args.move_start) if args.move_start != 0.0 else None


def _solve_cell(inst, kind, args, R0):
    cfg = op.OptimizerConfig(kind, grad_tol=args.tol, max_outer=args.max_outer)
    return op.solve(inst, cfg, R0=R0)


def _report_cells(report) -> list:
    """The five result columns that solve and bench rows share."""
    return [
        report.final_objective,
        report.grad_norm,
        report.outer_iters,
        report.total_retraction_iters,
        report.mean_retraction_iters,
    ]


def _cmd_solve(args) -> int:
    kind, *extra = _parse_kinds(args.kind)
    if extra:
        raise UsageError(f"--kind takes one retraction kind, got {args.kind!r}")
    _check_descent_flags(args)
    if args.r is not None and args.r < 1:
        raise UsageError(f"--r must be at least 1, got {args.r}")
    inst = _load_instance(args.instance, r=args.r)
    report = _solve_cell(inst, kind, args, _start(inst, args))
    name = inst.meta["name"]
    row = [name, kind.value, inst.meta["r"], args.tol] + _report_cells(report)
    _write_csv(args.out, _SOLVE_HEADER, [row])
    if args.timing_out is not None:
        _write_csv(
            args.timing_out,
            ["instance", "kind", "wall_time"],
            [[name, kind.value, report.wall_time]],
        )
    return 0


def _cmd_bench(args) -> int:
    kinds = _parse_kinds(args.kinds)
    _check_descent_flags(args)
    if args.repeats < 1:
        raise UsageError(f"--repeats must be at least 1, got {args.repeats}")
    insts = [_load_instance(path) for path in args.instances.split(",")]
    rows = []
    timing_rows = []
    for inst in insts:
        name = inst.meta["name"]
        # the first cell computes the start and the rest reuse it; an error is
        # not cached, so every cell still reports it as its status
        moved = functools.cache(functools.partial(_start, inst, args))
        for kind in kinds:
            for rep in range(args.repeats):
                start = time.perf_counter()
                try:
                    tail = _report_cells(_solve_cell(inst, kind, args, moved()))
                    status = "ok"
                except IsectError as err:
                    # a failing cell is a benchmark result, not a crash
                    status, tail = type(err).__name__, [""] * 5
                wall = time.perf_counter() - start
                rows.append([name, kind.value, rep, status] + tail)
                timing_rows.append([name, kind.value, rep, wall])
    _write_csv(args.out, _BENCH_HEADER, rows)
    if args.timing_out is not None:
        _write_csv(
            args.timing_out, ["instance", "kind", "repeat", "wall_time"], timing_rows
        )
    return 0


def _cmd_project(args) -> int:
    inst = _load_instance(args.instance)
    M = inst.manifold
    try:
        V = np.loadtxt(args.input_point)
    except OSError as err:
        raise UsageError(str(err))
    except ValueError as err:
        raise UsageError(f"cannot parse {args.input_point}: {err}")
    try:
        V = mf.check_point(M, np.atleast_2d(V), f"input point in {args.input_point}")
    except ValueError as err:
        raise UsageError(str(err))
    P = sv.metric_project(M, V, method=args.method)
    lines = [" ".join(repr(float(v)) for v in row) for row in P]
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="isectret", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-qkp", help="generate a random knapsack instance")
    p.add_argument("--n", type=int, required=True, help="number of items")
    p.add_argument("--density", type=float, required=True, help="profit density in (0, 1]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output instance path")
    p.set_defaults(func=_cmd_gen_qkp)

    p = sub.add_parser("verify-order", help="fit retraction error slopes")
    p.add_argument("--instance", required=True)
    p.add_argument("--kinds", required=True, help="comma-separated retraction kinds")
    p.add_argument("--t-min", type=float, default=float(_T_GRID[0]), dest="t_min")
    p.add_argument("--t-max", type=float, default=float(_T_GRID[-1]), dest="t_max")
    p.add_argument("--points", type=int, default=_T_GRID.size)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_verify_order)

    p = sub.add_parser("solve", help="run the descent loop on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--kind", required=True, help="retraction kind")
    p.add_argument("--r", type=int, default=None, help="lift rank override")
    p.add_argument("--tol", type=float, default=1e-4, help="gradient norm target")
    p.add_argument("--max-outer", type=int, default=2000, dest="max_outer")
    p.add_argument(
        "--move-start", type=float, default=0.0, dest="move_start",
        help="move the start this far along a seeded tangent (the constructive start is stationary)",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--timing-out", default=None, dest="timing_out",
                   help="optional CSV for wall-clock time")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="solve a grid of instance/kind/repeat cells")
    p.add_argument("--instances", required=True, help="comma-separated instance paths")
    p.add_argument("--kinds", required=True, help="comma-separated retraction kinds")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-outer", type=int, default=2000, dest="max_outer")
    p.add_argument("--move-start", type=float, default=0.0, dest="move_start")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--timing-out", default=None, dest="timing_out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("project", help="metric-project a point onto the manifold")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("gwa", "gwa-newton"), default="gwa")
    p.add_argument("--input-point", required=True, dest="input_point",
                   help="text file with the N x r point to project")
    p.add_argument("--out", required=True, help="output point path")
    p.set_defaults(func=_cmd_project)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (MalformedFile, AsymmetricMatrix) as err:
        print(f"input error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except IsectError as err:
        print(f"error: {_diagnose(err)}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
