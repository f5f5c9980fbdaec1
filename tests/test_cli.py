"""End-to-end tests for the command-line front end.

Everything goes through cli.run(argv) so exit codes and stderr diagnostics
are exercised exactly as a shell user would see them. Exit code contract:
0 success, 1 usage or input-file error, 2 numerical failure. Data files
must be byte-identical across runs; wall-clock timing only ever lands in
the separate --timing-out file.
"""

import csv
import os

import numpy as np
import pytest

import isectret.manifold as mf
import isectret.problems as pb
from isectret import cli

VERIFY_HEADER = [
    "kind",
    "t",
    "total_error",
    "tangential_error",
    "slope_total",
    "slope_tangential",
    "plateau_excluded_count",
]
SOLVE_HEADER = [
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
BENCH_HEADER = ["instance", "kind", "repeat", "status"] + SOLVE_HEADER[4:]


def tiny_qap_text(p=3, seed=3):
    # symmetric integer flow/distance matrices, zero diagonal
    rng = np.random.default_rng(seed)
    W = np.triu(rng.integers(1, 10, size=(p, p)), 1)
    W = W + W.T
    D = np.triu(rng.integers(1, 10, size=(p, p)), 1)
    D = D + D.T
    lines = [str(p), ""]
    lines += [" ".join(str(int(v)) for v in row) for row in W]
    lines.append("")
    lines += [" ".join(str(int(v)) for v in row) for row in D]
    return "\n".join(lines) + "\n"


@pytest.fixture()
def qap_file(tmp_path):
    path = tmp_path / "tiny.dat"
    path.write_text(tiny_qap_text())
    return str(path)


@pytest.fixture()
def qkp_file(tmp_path):
    path = tmp_path / "qkp6.txt"
    path.write_text(pb.format_qkp(pb.gen_qkp(6, 0.5, 3)))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("gen-qkp", "verify-order", "solve", "bench", "project"):
            assert sub in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.run([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        argv = [
            "gen-qkp", "--n", "4", "--density", "0.5", "--seed", "1",
            "--out", str(tmp_path / "x.txt"), "--frobnicate",
        ]
        assert cli.run(argv) == 1

    def test_missing_required_flag(self, capsys):
        assert cli.run(["solve"]) == 1

    def test_non_numeric_flag_value(self, tmp_path, capsys):
        argv = [
            "gen-qkp", "--n", "four", "--density", "0.5", "--seed", "1",
            "--out", str(tmp_path / "x.txt"),
        ]
        assert cli.run(argv) == 1

    def test_missing_instance_file(self, tmp_path, capsys):
        argv = [
            "verify-order", "--instance", str(tmp_path / "nope.dat"),
            "--kinds", "apm", "--out", str(tmp_path / "o.csv"),
        ]
        assert cli.run(argv) == 1
        assert "nope.dat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b"this is not a problem instance\n",
            tiny_qap_text().replace("\n\n0 ", "\n\nnan ", 1).encode(),
            tiny_qap_text().replace("\n\n0 ", "\n\ninf ", 1).encode(),
            pb.format_qkp(pb.gen_qkp(5, 0.5, 3)).rsplit("\n", 2)[0].encode() + b"\nnan\n",
            pb.format_qkp(pb.gen_qkp(5, 0.5, 3)).replace("v1 5 0.5", "v1 5 nan").encode(),
            b"qkp v1 0 0.5 1\n0\n",
            bytes(range(256)),
        ],
        ids=[
            "garbage", "qap-nan", "qap-inf", "qkp-nan-capacity", "qkp-nan-density",
            "qkp-no-items", "not-utf8",
        ],
    )
    @pytest.mark.parametrize("command", ["verify-order", "solve"])
    def test_malformed_instance_file(self, command, content, tmp_path, capsys):
        bad = tmp_path / "bad.dat"
        bad.write_bytes(content)
        what = ["--kinds", "apm"] if command == "verify-order" else ["--kind", "apm"]
        argv = [command, "--instance", str(bad), *what, "--out", str(tmp_path / "o.csv")]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith("input error: MalformedFile: ")

    def test_unknown_retraction_kind(self, qap_file, tmp_path, capsys):
        argv = [
            "verify-order", "--instance", qap_file,
            "--kinds", "apm,frobnicate", "--out", str(tmp_path / "o.csv"),
        ]
        assert cli.run(argv) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_inverted_t_range(self, qap_file, tmp_path, capsys):
        argv = [
            "verify-order", "--instance", qap_file, "--kinds", "apm",
            "--t-min", "1e-2", "--t-max", "1e-4",
            "--out", str(tmp_path / "o.csv"),
        ]
        assert cli.run(argv) == 1
        capsys.readouterr()
        # a non-finite window is refused before the (missing) file is read
        for t_min, t_max in (("1e-4", "inf"), ("nan", "1e-2"), ("1e-4", "nan")):
            argv = [
                "verify-order", "--instance", str(tmp_path / "nope.dat"), "--kinds", "apm",
                "--t-min", t_min, "--t-max", t_max, "--out", str(tmp_path / "o.csv"),
            ]
            assert cli.run(argv) == 1
            assert capsys.readouterr().err.startswith("usage error: need 0 < --t-min")

    def test_grid_too_short_to_fit(self, tmp_path, capsys):
        # the slope fit needs 4 points: a shorter grid is refused before the
        # (missing) file is read, and 4 points pass on to the file
        out = tmp_path / "o.csv"
        for points, err in (("2", "usage error: --points must be at least 4"),
                            ("3", "usage error: --points must be at least 4"),
                            ("4", "No such file")):
            argv = [
                "verify-order", "--instance", str(tmp_path / "nope.dat"), "--kinds", "apm",
                "--points", points, "--out", str(out),
            ]
            assert cli.run(argv) == 1
            assert err in capsys.readouterr().err, points
        assert not out.exists()

    def test_gen_qkp_bad_density(self, tmp_path, capsys):
        argv = [
            "gen-qkp", "--n", "6", "--density", "1.5", "--seed", "0",
            "--out", str(tmp_path / "x.txt"),
        ]
        assert cli.run(argv) == 1

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("solve", ["--tol", "0"]),
            ("solve", ["--tol", "-1"]),
            ("solve", ["--tol", "nan"]),
            ("solve", ["--max-outer", "0"]),
            ("solve", ["--move-start", "nan"]),
            ("solve", ["--r", "0"]),
            ("bench", ["--tol", "0"]),
            ("bench", ["--tol", "-1"]),
            ("bench", ["--tol", "nan"]),
            ("bench", ["--max-outer", "0"]),
            ("bench", ["--move-start", "nan"]),
            ("bench", ["--repeats", "0"]),
            ("solve", ["--kind", "apm,iap"]),
            ("solve", ["--tol", "inf"]),
            ("bench", ["--tol", "inf"]),
        ],
    )
    def test_bad_descent_flag_is_usage_error(self, command, flags, qap_file, tmp_path, capsys):
        out = tmp_path / "o.csv"
        where = ["--instance"] if command == "solve" else ["--instances"]
        what = ["--kind"] if command == "solve" else ["--kinds"]
        argv = [command, *where, qap_file, *what, "aphl", *flags, "--out", str(out)]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flags[0]}")
        assert not out.exists()

    def test_project_bad_method(self, qap_file, tmp_path):
        pt = tmp_path / "v.txt"
        pt.write_text("0.0\n")
        argv = [
            "project", "--instance", qap_file, "--method", "frobnicate",
            "--input-point", str(pt), "--out", str(tmp_path / "p.txt"),
        ]
        assert cli.run(argv) == 1


class TestGenQkp:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        base = ["gen-qkp", "--n", "8", "--density", "0.6", "--seed", "5"]
        assert cli.run(base + ["--out", str(a)]) == 0
        assert cli.run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("qkp v1")

    def test_output_parses_back(self, tmp_path):
        out = tmp_path / "q.txt"
        argv = ["gen-qkp", "--n", "8", "--density", "0.6", "--seed", "5",
                "--out", str(out)]
        assert cli.run(argv) == 0
        inst = pb.parse_qkp(out.read_text())
        assert inst.n == 8

    def test_no_temp_file_left_behind(self, tmp_path):
        out = tmp_path / "q.txt"
        argv = ["gen-qkp", "--n", "4", "--density", "0.5", "--seed", "1",
                "--out", str(out)]
        assert cli.run(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.txt"]


class TestVerifyOrder:
    def test_csv_layout_and_slope_bands(self, qap_file, tmp_path):
        out = tmp_path / "vo.csv"
        argv = [
            "verify-order", "--instance", qap_file,
            "--kinds", "apm,newton-slra,aphl",
            "--t-min", "3.1622776601683794e-04", "--t-max", "1e-2",
            "--points", "12", "--out", str(out),
        ]
        assert cli.run(argv) == 0
        header, rows = read_csv(str(out))
        assert header == VERIFY_HEADER
        assert len(rows) == 36
        blocks = [rows[0:12], rows[12:24], rows[24:36]]
        for block, kind in zip(blocks, ("apm", "newton-slra", "aphl")):
            assert all(r[0] == kind for r in block)
            ts = [float(r[1]) for r in block]
            assert ts == sorted(ts)
            # the fitted slopes repeat down the block
            assert len({r[4] for r in block}) == 1
            assert len({r[5] for r in block}) == 1
            assert 1.8 <= float(block[0][4]) <= 2.2
            assert 2.7 <= float(block[0][5]) <= 3.3
            assert all(r[6] == "0" for r in block)

    def test_floats_round_trip_exactly(self, qap_file, tmp_path):
        out = tmp_path / "vo.csv"
        argv = [
            "verify-order", "--instance", qap_file, "--kinds", "newton-slra",
            "--t-min", "3.1622776601683794e-04", "--t-max", "1e-2",
            "--points", "6", "--out", str(out),
        ]
        assert cli.run(argv) == 0
        _, rows = read_csv(str(out))
        for row in rows:
            for cell in row[1:6]:
                assert repr(float(cell)) == cell

    def test_deterministic_bytes(self, qkp_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = [
            "verify-order", "--instance", qkp_file,
            "--kinds", "newton-slra,aphl",
            "--t-min", "3.1622776601683794e-04", "--t-max", "1e-2",
            "--points", "8",
        ]
        assert cli.run(base + ["--out", str(a)]) == 0
        assert cli.run(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_window_resolves_both_slopes(self, qkp_file, tmp_path):
        out = tmp_path / "vo.csv"
        argv = [
            "verify-order", "--instance", qkp_file,
            "--kinds", "newton-slra,aphl", "--out", str(out),
        ]
        assert cli.run(argv) == 0
        _, rows = read_csv(str(out))
        assert len(rows) == 30
        assert float(rows[0][1]) == pytest.approx(10**-3.5, rel=1e-12)
        assert float(rows[14][1]) == pytest.approx(1e-2, rel=1e-12)
        for block in (rows[0:15], rows[15:30]):
            assert 1.8 <= float(block[0][4]) <= 2.2
            assert 2.7 <= float(block[0][5]) <= 3.3

    def test_below_plateau_grid_exits_two(self, qkp_file, tmp_path, capsys):
        argv = [
            "verify-order", "--instance", qkp_file, "--kinds", "newton-slra",
            "--t-min", "1e-7", "--t-max", "1e-6", "--points", "8",
            "--out", str(tmp_path / "o.csv"),
        ]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "InsufficientTail" in err
        assert not (tmp_path / "o.csv").exists()


class TestSolve:
    def test_near_stationary_start_converges_immediately(self, tmp_path):
        inst_file = tmp_path / "qkp50.txt"
        argv = ["gen-qkp", "--n", "50", "--density", "0.5", "--seed", "42",
                "--out", str(inst_file)]
        assert cli.run(argv) == 0
        out = tmp_path / "solve.csv"
        argv = ["solve", "--instance", str(inst_file), "--kind", "tapr",
                "--tol", "1e-4", "--out", str(out)]
        assert cli.run(argv) == 0
        header, rows = read_csv(str(out))
        assert header == SOLVE_HEADER
        assert len(rows) == 1
        assert rows[0][0] == "qkp_n50_d0.5_s42"
        assert rows[0][1] == "tapr"
        assert float(rows[0][5]) <= 1e-4
        assert int(rows[0][6]) <= 2

    def test_moved_start_descends_to_tolerance(self, qap_file, tmp_path):
        out = tmp_path / "s.csv"
        timing = tmp_path / "t.csv"
        argv = [
            "solve", "--instance", qap_file, "--kind", "aphl",
            "--tol", "2e-2", "--move-start", "0.3",
            "--out", str(out), "--timing-out", str(timing),
        ]
        assert cli.run(argv) == 0
        header, rows = read_csv(str(out))
        assert header == SOLVE_HEADER
        assert rows[0][0] == "tiny"
        assert float(rows[0][5]) <= 2e-2
        assert int(rows[0][6]) > 0
        th, trows = read_csv(str(timing))
        assert th == ["instance", "kind", "wall_time"]
        assert len(trows) == 1
        assert float(trows[0][2]) > 0.0

    def test_data_file_identical_across_runs(self, qap_file, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in paths:
            argv = [
                "solve", "--instance", qap_file, "--kind", "aphl",
                "--tol", "2e-2", "--move-start", "0.3",
                "--out", str(out), "--timing-out", str(out) + ".timing",
            ]
            assert cli.run(argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_no_timing_file_unless_requested(self, qap_file, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["solve", "--instance", qap_file, "--kind", "aphl",
                "--tol", "2e-2", "--move-start", "0.3", "--out", str(out)]
        assert cli.run(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "tiny.dat"]

    def test_numerical_failure_exits_two_with_context(self, qap_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["solve", "--instance", qap_file, "--kind", "tapr",
                "--tol", "2e-2", "--move-start", "0.3", "--out", str(out)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "InitialResidualTooLarge" in err
        assert "outer_iteration=6" in err
        assert not out.exists()


class TestBench:
    def bench_argv(self, qap_file, qkp_file, out, timing=None):
        argv = [
            "bench", "--instances", f"{qap_file},{qkp_file}",
            "--kinds", "aphl,tapr", "--repeats", "2",
            "--tol", "2e-2", "--max-outer", "40", "--move-start", "0.3",
            "--out", str(out),
        ]
        if timing is not None:
            argv += ["--timing-out", str(timing)]
        return argv

    def test_rows_ordered_and_failures_are_rows(self, qap_file, qkp_file, tmp_path):
        out = tmp_path / "b.csv"
        assert cli.run(self.bench_argv(qap_file, qkp_file, out)) == 0
        header, rows = read_csv(str(out))
        assert header == BENCH_HEADER
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("tiny", "aphl", "0"),
            ("tiny", "aphl", "1"),
            ("tiny", "tapr", "0"),
            ("tiny", "tapr", "1"),
            ("qkp_n6_d0.5_s3", "aphl", "0"),
            ("qkp_n6_d0.5_s3", "aphl", "1"),
            ("qkp_n6_d0.5_s3", "tapr", "0"),
            ("qkp_n6_d0.5_s3", "tapr", "1"),
        ]
        for r in rows:
            if r[1] == "tapr" and r[0] == "tiny":
                # region safeguard trips on this start; reported, not raised
                assert r[3] == "InitialResidualTooLarge"
                assert r[4:] == [""] * 5
            else:
                assert r[3] == "ok"
                assert float(r[5]) > 0.0
                assert int(r[6]) <= 40

    def test_bytes_identical_across_runs(self, qap_file, qkp_file, tmp_path):
        a = tmp_path / "a.csv"
        assert cli.run(self.bench_argv(qap_file, qkp_file, a)) == 0
        b = tmp_path / "b.csv"
        assert cli.run(self.bench_argv(qap_file, qkp_file, b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_file_rows_align(self, qap_file, qkp_file, tmp_path):
        out = tmp_path / "b.csv"
        timing = tmp_path / "b_timing.csv"
        assert cli.run(self.bench_argv(qap_file, qkp_file, out, timing)) == 0
        _, rows = read_csv(str(out))
        th, trows = read_csv(str(timing))
        assert th == ["instance", "kind", "repeat", "wall_time"]
        assert [(r[0], r[1], r[2]) for r in trows] == [
            (r[0], r[1], r[2]) for r in rows
        ]
        assert all(float(r[3]) > 0.0 for r in trows)


class TestProject:
    def write_point(self, inst, tmp_path, noise=0.05, seed=7):
        base = pb.feasible_init(inst, inst.meta["r"])
        rng = np.random.default_rng(seed)
        V = base + noise * rng.standard_normal(base.shape)
        pt_file = tmp_path / "v.txt"
        np.savetxt(pt_file, V)
        return str(pt_file), V

    def test_gwa_produces_feasible_point(self, qap_file, tmp_path):
        inst = pb.lift_qap(pb.parse_qaplib(tiny_qap_text(), name="tiny"))
        pt_file, V = self.write_point(inst, tmp_path)
        out = tmp_path / "p.txt"
        argv = ["project", "--instance", qap_file, "--method", "gwa",
                "--input-point", pt_file, "--out", str(out)]
        assert cli.run(argv) == 0
        P = np.loadtxt(out)
        assert P.shape == V.shape
        assert mf.combined_residual(inst.manifold, P) <= 1e-6

    def test_gwa_newton_matches_gwa(self, qap_file, tmp_path):
        inst = pb.lift_qap(pb.parse_qaplib(tiny_qap_text(), name="tiny"))
        pt_file, _ = self.write_point(inst, tmp_path)
        outs = {}
        for method in ("gwa", "gwa-newton"):
            out = tmp_path / f"p_{method}.txt"
            argv = ["project", "--instance", qap_file, "--method", method,
                    "--input-point", pt_file, "--out", str(out)]
            assert cli.run(argv) == 0
            outs[method] = np.loadtxt(out)
        assert mf.combined_residual(inst.manifold, outs["gwa-newton"]) <= 1e-12
        assert np.linalg.norm(outs["gwa"] - outs["gwa-newton"]) <= 1e-6

    def test_deterministic_bytes(self, qkp_file, tmp_path):
        with open(qkp_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        pt_file, _ = self.write_point(inst, tmp_path)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            argv = ["project", "--instance", qkp_file, "--method", "gwa-newton",
                    "--input-point", pt_file, "--out", str(out)]
            assert cli.run(argv) == 0
        assert a.read_bytes() == b.read_bytes()
        P = np.loadtxt(a)
        assert np.array_equal(P, np.loadtxt(b))

    def test_dual_stall_exits_two(self, qkp_file, tmp_path, capsys):
        # plain gwa crawls on this lifted instance and hits its iteration cap
        with open(qkp_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        pt_file, _ = self.write_point(inst, tmp_path)
        out = tmp_path / "p.txt"
        argv = ["project", "--instance", qkp_file, "--method", "gwa",
                "--input-point", pt_file, "--out", str(out)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert "MaxIterExceeded" in err
        assert not out.exists()

    def test_centred_row_exits_two_on_gwa_newton(self, qkp_file, tmp_path, capsys):
        # binary row 0 at its sphere's center (0.5, 0): the dual Newton step
        # has no weight for it, while plain gwa floors the weight and runs
        with open(qkp_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        V = pb.feasible_init(inst, inst.meta["r"])
        V[0] = 0.0
        V[0, 0] = 0.5
        pt_file = tmp_path / "v.txt"
        np.savetxt(pt_file, V)
        for method, code in (("gwa-newton", 2), ("gwa", 0)):
            out = tmp_path / f"p_{method}.txt"
            argv = ["project", "--instance", qkp_file, "--method", method,
                    "--input-point", str(pt_file), "--out", str(out)]
            assert cli.run(argv) == code, method
            err = capsys.readouterr().err
            assert ("DegenerateRow" in err) == (code == 2), err
            assert out.exists() == (code == 0)

    def test_rank_one_lift_round_trips(self, tmp_path):
        # gen-qkp n=5 lifts at r = 1, so the point file holds one column,
        # which must be read back as an (N, 1) point, not a (1, N) row
        inst_file = tmp_path / "q5.txt"
        assert cli.run(["gen-qkp", "--n", "5", "--density", "0.5", "--seed", "3",
                        "--out", str(inst_file)]) == 0
        with open(inst_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        V = pb.feasible_init(inst, inst.meta["r"]) + 0.01
        assert V.shape[1] == 1
        pt_file = tmp_path / "v5.txt"
        np.savetxt(pt_file, V)
        for method in ("gwa", "gwa-newton"):
            out = tmp_path / f"p5_{method}.txt"
            again = tmp_path / f"p5_{method}_again.txt"
            for src, dst in ((pt_file, out), (out, again)):
                argv = ["project", "--instance", str(inst_file), "--method", method,
                        "--input-point", str(src), "--out", str(dst)]
                assert cli.run(argv) == 0, (method, src)
            P = np.loadtxt(out, ndmin=2)
            assert P.shape == V.shape
            assert mf.combined_residual(inst.manifold, P) <= 1e-9 * (np.linalg.norm(P) + 1.0)
            assert np.loadtxt(again, ndmin=2).shape == V.shape

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_input_is_usage_error(self, qkp_file, tmp_path, capsys, value):
        with open(qkp_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        pt_file, V = self.write_point(inst, tmp_path)
        V[1, 1] = float(value)
        np.savetxt(pt_file, V)
        out = tmp_path / "p.txt"
        for method in ("gwa", "gwa-newton"):
            argv = ["project", "--instance", qkp_file, "--method", method,
                    "--input-point", pt_file, "--out", str(out)]
            assert cli.run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "nan or inf" in err
            assert not out.exists()

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_input_is_usage_error(self, qkp_file, tmp_path, capsys, scale):
        # finite entries whose squared norm overflows float64: no dual step
        # may run on a point whose residual reads inf
        with open(qkp_file) as fh:
            inst = pb.lift_qkp(pb.parse_qkp(fh.read()))
        pt_file, V = self.write_point(inst, tmp_path)
        np.savetxt(pt_file, scale * V)
        out = tmp_path / "p.txt"
        for method in ("gwa", "gwa-newton"):
            argv = ["project", "--instance", qkp_file, "--method", method,
                    "--input-point", pt_file, "--out", str(out)]
            assert cli.run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "overflows float64" in err
            assert not out.exists()

    def test_wrong_shape_input_is_usage_error(self, qap_file, tmp_path, capsys):
        pt_file = tmp_path / "v.txt"
        np.savetxt(pt_file, np.zeros((2, 2)))
        argv = ["project", "--instance", qap_file, "--method", "gwa",
                "--input-point", str(pt_file), "--out", str(tmp_path / "p.txt")]
        assert cli.run(argv) == 1
        assert "shape" in capsys.readouterr().err
