import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import rdbounds
from rdbounds import bounds, cli, convolution
from rdbounds.ba import BAResult, ba_iterate, build_problem
from rdbounds.cli import COLUMNS, build_parser, main
from rdbounds.sources import Gaussian, Laplacian, Tabulated
from rdbounds.tilted import EpsilonLoss, distortion_of_slope

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(rdbounds.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


TABULATED = Tabulated(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
BOUNDS_ARGS = [
    "bounds", "--source", "laplacian", "--alpha", str(math.sqrt(2)), "--epsilon", "0.1",
    "--grid-min", "0.5", "--grid-max", "40", "--grid-count", "6",
    "--bounds", "slb,ru,rau,rge,trivial",
]


class TestBoundsSweep:
    def test_schema_and_sorting(self, capsys):
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == COLUMNS
        assert len(rows) == 6
        ds = [float(r[1]) for r in rows]
        assert ds == sorted(ds)

    def test_round_trip_is_byte_exact(self, capsys):
        _, out, _ = run_cli(capsys, *BOUNDS_ARGS)
        header, rows = parse_csv(out)
        rebuilt = [",".join(header)]
        for row in rows:
            cells = []
            for cell in row[:-1]:
                cells.append("" if cell == "" else f"{float(cell):.12g}")
            cells.append(row[-1])
            rebuilt.append(",".join(cells))
        assert "\n".join(rebuilt) + "\n" == out

    def test_unit_conversion(self, capsys):
        _, nats_out, _ = run_cli(capsys, *BOUNDS_ARGS)
        _, bits_out, _ = run_cli(capsys, *BOUNDS_ARGS, "--units", "bits")
        _, nats_rows = parse_csv(nats_out)
        _, bits_rows = parse_csv(bits_out)
        ln2 = math.log(2.0)
        for nrow, brow in zip(nats_rows, bits_rows):
            for idx in range(2, 8):
                if nrow[idx] == "":
                    assert brow[idx] == ""
                    continue
                assert float(brow[idx]) == pytest.approx(float(nrow[idx]) / ln2, rel=1e-10)

    def test_deterministic_across_threads(self, capsys):
        # 7 points make uneven shares for 2 and 3 workers, and fewer points
        # than the 8 workers asked for
        for fmt in ("csv", "json"):
            runs = [run_cli(capsys, *BOUNDS_ARGS, "--grid-count", "7", "--format", fmt,
                            "--threads", n) for n in ("1", "2", "3", "8")]
            assert runs[0][0] == 0 and runs[0][1].count("\n") >= 8
            assert all(run == runs[0] for run in runs[1:])
        single = [run_cli(capsys, *BOUNDS_ARGS, "--grid-count", "1", "--threads", n)
                  for n in ("1", "4")]
        assert single[0] == single[1] and single[0][0] == 0
        assert len(parse_csv(single[0][1])[1]) == 1
        # the README Laplacian figure sweep, and the benchmark's Gaussian sweep,
        # whose R_U batch shares one slope-free layout and takes its tails in
        # chunks: one worker maps on the calling thread and two run through the
        # pool, and both print the same bytes
        for sweep in (["--source", "laplacian", "--alpha", "1.41421356237", "--epsilon", "0.1",
                       "--grid-var", "d", "--grid-min", "0.005", "--grid-max", "0.6",
                       "--grid-count", "60", "--bounds", "slb,ru,rau,rge,trivial"],
                      ["--source", "gaussian", "--epsilon", "0.1", "--grid-min", "0.5",
                       "--grid-max", "200", "--grid-count", "60", "--bounds", "slb,ru,rge"]):
            runs = [run_cli(capsys, "bounds", *sweep, "--threads", n) for n in ("1", "2")]
            assert runs[0][0] == 0 and runs[0][1].count("\n") == 61 and runs[1] == runs[0]

    def test_workers_capped_at_cpu_count(self, capsys, monkeypatch):
        # a pool that records its size and maps serially starts no thread
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        want = run_cli(capsys, *BOUNDS_ARGS, "--grid-count", "7")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
        for threads in ("5000", "0", "2"):
            assert run_cli(capsys, *BOUNDS_ARGS, "--grid-count", "7", "--threads", threads) == want
        assert sizes == [3, 3, 2]

    def test_one_worker_starts_no_thread(self, capsys, monkeypatch):
        # one worker maps on the calling thread: a sweep at --threads 1, and a
        # one-point grid at any --threads, print the same with no thread start
        runs = [(*BOUNDS_ARGS, "--threads", "1"),
                (*BOUNDS_ARGS, "--grid-count", "1", "--threads", "4")]
        want = [run_cli(capsys, *argv) for argv in runs]

        def refuse(thread):
            raise AssertionError(f"thread started: {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert [run_cli(capsys, *argv) for argv in runs] == want
        assert all(code == 0 for code, _, _ in want)

    def test_memoised_parser_keeps_no_state(self, capsys):
        # one in-process call after another prints what a fresh process prints
        parser = build_parser()
        calls = [["bounds", "--epsilon", "0.3", "--grid-count", "3", "--bounds", "slb"], ["dmax"]]
        got = [run_cli(capsys, *argv) for argv in calls]
        assert build_parser() is parser
        for argv, (code, out, err) in zip(calls, got):
            fresh = subprocess.run([sys.executable, "-m", "rdbounds.cli", *argv],
                                   env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                                   text=True, timeout=120, check=False)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert "d_max_eps  = 1\n" in got[1][1]  # dmax ran at eps = 0, not the last call's 0.3

    def test_rau_on_gaussian_is_empty_with_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "gaussian", "--epsilon", "0.1",
            "--grid-min", "1", "--grid-max", "4", "--grid-count", "3",
            "--bounds", "slb,rau,trivial",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert row[4] == ""  # R_au column
            assert "rau_unsupported" in row[-1]
            assert "trivial_unsupported" in row[-1]

    def test_distortion_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--grid-var", "d", "--grid-scale", "linear",
            "--grid-min", "0.05", "--grid-max", "0.5", "--grid-count", "4",
            "--bounds", "slb",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == pytest.approx([0.05, 0.2, 0.35, 0.5])

    def test_clamped_rates_keep_raw_value_in_flags(self, capsys):
        _, out, _ = run_cli(
            capsys, "bounds", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--grid-min", "0.01", "--grid-max", "0.01",
            "--grid-count", "1", "--bounds", "slb,rge",
        )
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row[2]) == 0.0
        assert "slb_clamped:" in row[-1]
        assert float(row[-1].split("slb_clamped:")[1].split(";")[0]) < 0.0
        # the SLB stays finite where 2 eps + D overflows (D = 1e308): a clamped
        # cell, not an error note
        _, out, _ = run_cli(
            capsys, "bounds", "--epsilon", "0.1", "--grid-min", "1e-308", "--grid-max", "1e-308",
            "--grid-count", "1", "--bounds", "slb",
        )
        (row,) = parse_csv(out)[1]
        assert row[2] == "0" and row[-1].startswith("slb_clamped:") and "slb_error" not in row[-1]

    def test_flags_cell_holding_a_comma_is_quoted(self, capsys, monkeypatch):
        # a note carries raw exception text, which may hold a comma; the
        # column's one call raises, and so does the one-value call at bad
        bad = -float(np.geomspace(0.5, 40, 6)[2])
        real_bound = bounds._gaussian_entropy_bound

        def rge(source, s, eps):
            if np.any(s == bad):
                raise ValueError("needs 3 nodes, over 2")
            return real_bound(source, s, eps)

        monkeypatch.setattr(bounds, "_gaussian_entropy_bound", rge)
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == COLUMNS and len(rows) == 7
        assert all(len(row) == len(COLUMNS) for row in rows)
        flagged = [row for row in rows if row[-1] == "rge_error:needs 3 nodes, over 2"]
        assert len(flagged) == 1 and flagged[0][5] == ""

    def test_zero_rate_prints_unsigned(self, capsys):
        # -log(alpha D) at alpha D = 1 is -0.0; the table prints 0, not -0
        argv = ["bounds", "--alpha", "1", "--grid-min", "1", "--grid-max", "1",
                "--grid-count", "1", "--bounds", "trivial"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [["-1", "1", "", "", "", "", "0", "", ""]]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        (row,) = json.loads(out)["rows"]
        assert code == 0 and "-0" not in out
        assert row["R_trivial"] == 0.0 and math.copysign(1.0, row["R_trivial"]) == 1.0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == COLUMNS
        assert len(payload["rows"]) == 6

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--grid-min", "2", "--grid-max", "9", "--grid-count", "1",
            "--epsilon", "0.1", "--bounds", "slb",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        # s = -alpha: every Laplacian bound is filled; the only flag is the
        # lower bound's clamp, which is negative at the matched slope
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "laplacian", "--alpha", "1.41421356237",
            "--epsilon", "0.1", "--grid-count", "1", "--grid-min", "1.41421356237",
            "--bounds", "slb,ru,rau,rge",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and float(rows[0][0]) == -1.41421356237
        assert all(rows[0][i] != "" for i in (2, 3, 4, 5))
        assert rows[0][-1].startswith("slb_clamped:") and ";" not in rows[0][-1]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS, "--output", str(path))
        assert code == 0 and out == ""
        header, rows = parse_csv(path.read_text())
        assert header == COLUMNS and len(rows) == 6


class TestEmitContract:
    """Every CSV cell and the whole flags string, rebuilt from direct library
    calls: max(raw, 0) as .12g (divided by ln 2 in bits), and one flag per
    bound in column order, clamps carrying the raw nats value, quoted when the
    flags hold a comma.  The BA cell is the CLI's solve at ``ba_n`` points,
    stopped on Blahut's certificate (``tol=math.inf``) or after ``ba_max_iter``
    updates: its rate, flagged when uncertified, or ``ba_error:`` when a call
    raises."""

    @staticmethod
    def expected_rows(source, loss, slopes, selected, scale, ba_n=2001, ba_max_iter=20_000):
        h_p = source.differential_entropy()
        lap = isinstance(source, Laplacian)
        rows = []
        for s in slopes:
            d = distortion_of_slope(s, loss)
            solve = None
            if "ba" in selected:
                try:
                    solve = ba_iterate(build_problem(source, loss, s, n=ba_n), tol=math.inf,
                                       max_iter=ba_max_iter)
                except (ValueError, ArithmeticError) as exc:
                    solve = f"ba_error:{exc}"
            raw = {
                "slb": bounds.shannon_lower_bound(d, h_p, loss),
                "ru": bounds.convolution_upper_bound(source, s, loss).raw_rate,
                "rau": (bounds.analytic_upper_bound_laplacian(s, source.alpha, loss).raw_rate
                        if lap else "rau_unsupported"),
                "rge": bounds.gaussian_entropy_bound(source, s, loss).raw_rate,
                "trivial": (bounds.trivial_upper_bound_laplacian(d, source.alpha)
                            if lap else "trivial_unsupported"),
                "ba": solve,
            }
            cells, flags = [f"{s:.12g}", f"{d:.12g}"], []
            for name in ("slb", "ru", "rau", "rge", "trivial", "ba"):
                value = raw[name] if name in selected else None
                if isinstance(value, BAResult):
                    cells.append(f"{max(value.rate, 0.0) / scale:.12g}")
                    if not value.converged:
                        flags.append("ba_not_converged")
                elif isinstance(value, str):
                    cells.append("")
                    flags.append(value)
                elif value is None:
                    cells.append("")
                else:
                    cells.append(f"{max(value, 0.0) / scale:.12g}")
                    if value < 0.0:
                        flags.append(f"{name}_clamped:{value:.6g}")
            flags = ";".join(flags)  # a note quoting an exception may hold a comma
            rows.append((d, ",".join(cells + [f'"{flags}"' if "," in flags else flags])))
        return [line for _, line in sorted(rows)]

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_laplacian_slope_grid(self, capsys, units):
        alpha, loss = math.sqrt(2), EpsilonLoss(0.1)
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "laplacian", "--alpha", str(alpha),
            "--epsilon", "0.1", "--grid-min", "0.01", "--grid-max", "50", "--grid-count", "9",
            "--bounds", "slb,ru,rau,rge,trivial", "--units", units,
        )
        assert code == 0
        assert "slb_clamped:" in out
        scale = math.log(2.0) if units == "bits" else 1.0
        slopes = [-float(v) for v in np.geomspace(0.01, 50, 9)]
        expected = self.expected_rows(Laplacian(alpha), loss, slopes,
                                      ("slb", "ru", "rau", "rge", "trivial"), scale)
        assert out.strip().split("\n")[1:] == expected

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_gaussian_unsupported_columns(self, capsys, units):
        loss = EpsilonLoss(0.1)
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "gaussian", "--epsilon", "0.1",
            "--grid-min", "0.05", "--grid-max", "20", "--grid-count", "5",
            "--bounds", "slb,rau,trivial", "--units", units,
        )
        assert code == 0
        assert "slb_clamped:" in out
        scale = math.log(2.0) if units == "bits" else 1.0
        slopes = [-float(v) for v in np.geomspace(0.05, 20, 5)]
        expected = self.expected_rows(Gaussian(1.0), loss, slopes,
                                      ("slb", "rau", "trivial"), scale)
        assert out.strip().split("\n")[1:] == expected

    @pytest.mark.parametrize("units", ["nats", "bits"])
    def test_gaussian_ba_column(self, capsys, units):
        # at 30 updates the solve at |s| = 6.3 is certified, the other four are not
        loss = EpsilonLoss(0.1)
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "gaussian", "--epsilon", "0.1",
            "--grid-min", "2", "--grid-max", "20", "--grid-count", "5",
            "--bounds", "slb,ba", "--ba-n", "101", "--ba-max-iter", "30", "--units", units,
        )
        assert code == 0
        assert "ba_not_converged" in out
        scale = math.log(2.0) if units == "bits" else 1.0
        slopes = [-float(v) for v in np.geomspace(2, 20, 5)]
        expected = self.expected_rows(Gaussian(1.0), loss, slopes, ("slb", "ba"), scale,
                                      ba_n=101, ba_max_iter=30)
        assert out.strip().split("\n")[1:] == expected

    def test_failed_ba_cells(self, capsys):
        loss = EpsilonLoss(0.1)
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "gaussian", "--epsilon", "0.1",
            "--grid-min", "2", "--grid-max", "20", "--grid-count", "3",
            "--bounds", "slb,ba", "--ba-n", "4",
        )
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 3 and all(',"ba_error:' in line for line in lines)
        slopes = [-float(v) for v in np.geomspace(2, 20, 3)]
        assert lines == self.expected_rows(Gaussian(1.0), loss, slopes, ("slb", "ba"), 1.0,
                                           ba_n=4)


class TestFigureData:
    def test_laplacian_curve_shape(self, capsys):
        # the closed-form analytic bound hugs the lower bound at small
        # distortion and crosses above the Gaussian entropy bound near D=0.05
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--grid-var", "d", "--grid-scale", "log",
            "--grid-min", "0.005", "--grid-max", "0.6", "--grid-count", "25",
            "--bounds", "slb,rau,rge",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            d = float(row[1])
            slb, rau, rge = float(row[2]), float(row[4]), float(row[5])
            if d < 0.01:
                assert 0.0 <= rau - slb < 0.01 * slb  # within 1% of the curve
            if d <= 0.035:
                assert rau < rge
            if d >= 0.06:
                assert rau > rge

    def test_gaussian_curve_with_ba_reference(self, capsys):
        # the absolute-error reference curve for the Gaussian comes from the
        # solver at epsilon=0 and must dominate the banded lower bound
        code, out, _ = run_cli(
            capsys, "bounds", "--source", "gaussian", "--epsilon", "0",
            "--grid-min", "2", "--grid-max", "10", "--grid-count", "3",
            "--bounds", "slb,ba", "--ba-n", "1001",
            "--ba-max-iter", "15000",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            slb, ba = float(row[2]), float(row[7])
            assert ba >= slb - 2e-2
            assert ba > 0.0


class TestConfigHandling:
    def test_unknown_source_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--source", "cauchy", "--bounds", "slb",
                               "--epsilon", "0.1")
        assert code == 2
        assert "unknown source" in err

    def test_malformed_csv_source_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,0.4\n1.0,0.4\n")
        code, _, err = run_cli(capsys, "dmax", "--source", f"csv:{bad}", "--epsilon", "0.1")
        assert code == 2
        assert "tabulated" in err

    @pytest.mark.parametrize("command", ["dmax", "bounds"])
    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_csv_grid_is_config_error(self, capsys, tmp_path, command, x):
        path = tmp_path / "src.csv"
        path.write_text(f"x,mass\n-1.0,0.5\n{x},0.5\n")
        code, out, err = run_cli(capsys, command, "--source", f"csv:{path}", "--epsilon", "0.1")
        assert code == 2 and out == ""
        assert err == ("error: cannot load tabulated source: "
                       "grid values, steps and span must be finite\n")

    def test_unknown_bound_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--bounds", "slb,nope", "--epsilon", "0.1")
        assert code == 2
        assert "unknown bounds" in err

    def test_empty_bounds_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--bounds", "", "--epsilon", "0.1")
        assert code == 2

    def test_units_only_on_table_commands(self, capsys):
        for command in ("dmax", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--units", "bits"])
            assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "bounds", "--units", "bits", "--format", "json",
                               "--grid-count", "1", "--bounds", "slb")
        assert code == 0 and json.loads(out)["units"] == "bits"

    def test_argv_is_the_only_input(self, capsys, tmp_path):
        # no option reads flags from a file: --config is an unknown argument
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epsilon=0.1\n", encoding="utf-8")
        for argv in (["bounds", "--config", str(cfg)], [f"--config={cfg}", "dmax"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_ba_tol_is_gone(self, capsys):
        # BA solves stop on Blahut's certificate alone, so no stall tolerance is set
        for command in ("bounds", "ba", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--ba-tol", "1e-9"])
            assert exc.value.code == 2
        assert "--ba-tol" in capsys.readouterr().err

    def test_negative_threads_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, *BOUNDS_ARGS, "--threads", "-5")
        assert code == 2 and "threads" in err
        code, _, _ = run_cli(capsys, *BOUNDS_ARGS, "--threads", "0")
        assert code == 0

    @pytest.mark.parametrize("argv, named", [
        (["dmax", "--epsilon", "-1"], "epsilon"),
        (["dmax", "--alpha", "-1"], "alpha"),
        (["dmax", "--source", "gaussian", "--sigma2", "nan"], "sigma2"),
        (["bounds", "--grid-max", "inf"], "grid-max"),
        (["bounds", "--grid-min", "nan"], "grid-min"),
        (["bounds", "--grid-var", "d", "--grid-max", "1e400"], "grid-max"),
        (["dmax", "--output", "{missing}"], "cannot write output"),
    ])
    def test_invalid_value_is_one_line_config_error(self, capsys, tmp_path, argv, named):
        argv = [a.format(missing=tmp_path / "no-such-dir" / "x.csv") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err


    @pytest.mark.parametrize("argv, pair", [
        (["bounds", "--epsilon", "0.1", "--grid-min", "1e300"], "D = 0.0"),
        (["bounds", "--grid-min", "1e-320"], "D = inf"),
        # d + sqrt(d) sqrt(d + 4 eps) overflows from about 9e307, and s = -2 / inf
        (["bounds", "--epsilon", "0.1", "--grid-var", "d", "--grid-min", "1e308"], "s = -0.0"),
    ])
    def test_grid_value_outside_the_domain_is_config_error(self, capsys, argv, pair):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: grid value") and err.count("\n") == 1 and pair in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--grid-var", "d", "--grid-max", "1e300", "--bounds", "slb,ru,rau,rge,trivial"],
        ["bounds", "--grid-var", "d", "--grid-min", "1e300", "--bounds", "slb,rau,rge,trivial"],
        ["bounds", "--source", "gaussian", "--grid-var", "d", "--grid-min", "1e300",
         "--bounds", "slb,ru,rge"],
        # R_au overflows to inf at s = -1.8e-158; R_ge stays finite
        ["bounds", "--grid-var", "d", "--grid-max", "1e300", "--bounds", "rau,rge"],
    ])
    def test_extreme_finite_slopes_note_failed_cells(self, capsys, argv):
        # at eps = 0 these grids stay in the domain, yet R_AU fails at some of
        # their slopes; each such cell is noted, none aborts the sweep, and
        # none prints a non-finite rate.  Every other bound, R_GE included,
        # has a value at every slope of them
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        selected = argv[-1].split(",")
        noted = {bound for row in rows for bound in selected if f"{bound}_error:" in row[-1]}
        assert noted == {"rau"} & set(selected)
        for row in rows:
            cells = dict(zip(header, row))
            assert not any(cells[column] in ("inf", "nan") for column in header[:-1])
            for bound in selected:
                column = header[2 + ["slb", "ru", "rau", "rge", "trivial"].index(bound)]
                assert cells[column] != "" or f"{bound}_error:" in cells["flags"]

    @pytest.mark.parametrize("argv, column, value", [
        (["bounds", "--epsilon", "1e103", "--grid-min", "1", "--grid-max", "1", "--grid-count",
          "1", "--bounds", "slb,rge"], "R_ge", "0.1764"),
        (["bounds", "--source", "gaussian", "--epsilon", "1e6", "--grid-count", "3",
          "--bounds", "ru"], "R_u", ""),
        (["bounds", "--epsilon", "0.1", "--grid-min", "1e-200", "--grid-max", "1e-200",
          "--grid-count", "1", "--bounds", "rge"], "R_ge", "0.07236"),
    ], ids=["rge", "gaussian-ru", "rge-tiny-slope"])
    def test_huge_band_rows_take_a_value(self, capsys, argv, column, value):
        # the kernel variance's eps^3 overflowed at eps = 1e103, and a Gaussian
        # slope at eps = 1e6 laid out 500 006 panels; at |s| = 1e-200 the
        # variance's 2/s^2 is past the float range, and R_GE still has its value
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        for row in rows:
            cells = dict(zip(header, row))
            assert float(cells[column]) >= 0.0 and "_error:" not in cells["flags"]
            assert cells[column].startswith(value)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--alpha", "1e150", "--epsilon", "1e300"],
        ["bounds", "--source", "gaussian", "--sigma2", "1e-300", "--epsilon", "1e300"],
    ], ids=["laplacian", "gaussian"])
    def test_band_past_the_float_range_of_the_source_warns_nothing(self, capsys, argv):
        # alpha (|y| + eps) and eps / sigma overflow to inf, where the density's
        # terms take their limits: no numpy warning reaches stderr.  The source
        # lies deep inside the band, so R_U is 0 to round-off and R_GE is the
        # entropy gap of a Gaussian and a uniform law of equal variance
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert len(rows) == 20
        for row in rows:
            cells = dict(zip(header, row))
            assert 0.0 <= float(cells["R_u"]) <= 1e-12
            assert float(cells["R_ge"]) == pytest.approx(0.5 * math.log(math.pi * math.e / 6.0),
                                                         rel=1e-9)
            assert "ru_error" not in cells["flags"] and "rge_error" not in cells["flags"]


class TestBatchedColumn:
    """Each closed-form column of a share, R_U's too, is one batch; a slope that
    fails in it is noted on its own row, and every other row keeps its value."""

    ARGS = ["bounds", "--source", "gaussian", "--epsilon", "0.1", "--grid-min", "0.5",
            "--grid-max", "50", "--grid-count", "7", "--bounds", "slb,ru,rge"]

    def rows(self, capsys, *extra):
        code, out, err = run_cli(capsys, *self.ARGS, *extra)
        assert code == 0 and err == ""
        return parse_csv(out)[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_slope_noted_on_its_own_row(self, capsys, monkeypatch, threads):
        clean = self.rows(capsys)
        bad = -float(np.geomspace(0.5, 50, 7)[3])
        real_tails = convolution._gaussian_tails

        def tails(ay, b, *rest):  # |s| = b: the Gaussian density's per-slope term
            out = real_tails(ay, b, *rest)
            return np.where(np.broadcast_to(b, np.shape(out)) == -bad, np.inf, out)

        monkeypatch.setattr(convolution, "_gaussian_tails", tails)
        rows = self.rows(capsys, "--threads", threads)
        for row, want in zip(rows, clean):
            if float(row[0]) == float(f"{bad:.12g}"):
                assert row[3] == "" and row[-1] == "ru_error:non-finite"
                assert row[:3] + row[4:-1] == want[:3] + want[4:-1]
            else:
                assert row == want

    def test_raising_slope_noted_on_its_own_row(self, capsys, monkeypatch):
        clean = self.rows(capsys, "--bounds", "ru")
        bad = -float(np.geomspace(0.5, 50, 7)[5])
        real_entropy = bounds._tilted_entropy

        def entropy(s, eps):  # the batch's one call raises, and the one-slope call at bad
            if np.any(s == bad):
                raise OverflowError("math range error")
            return real_entropy(s, eps)

        monkeypatch.setattr(bounds, "_tilted_entropy", entropy)
        rows = self.rows(capsys, "--bounds", "ru")
        for row, want in zip(rows, clean):
            if float(row[0]) == float(f"{bad:.12g}"):
                assert row[3] == "" and row[-1] == "ru_error:math range error"
            else:
                assert row == want

    def test_overflowing_normalizer_row_takes_a_value(self, capsys):
        # C(s) = 2/|s| + 2 eps overflows at |s| = 1e-308 (D = 1e308 is in the grid
        # domain); log C(s) is carried, so R_GE has its value at 1e-300, R_U has a
        # value or a note, and no numpy warning is raised on the way
        argv = ["bounds", "--epsilon", "0.1", "--grid-min", "1e-308", "--grid-max", "1e-308",
                "--grid-count", "1", "--bounds", "slb,ru,rge"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and caught == []
        header, (row,) = parse_csv(out)
        cells = dict(zip(header, row))
        assert cells["R_ge"] == "0.0723649429247" and "rge_" not in cells["flags"]
        assert cells["R_u"] != "" or "ru_error:" in cells["flags"]

    @pytest.mark.parametrize("source", ["laplacian", "gaussian"])
    @pytest.mark.parametrize("eps", ["0", "10"])
    def test_overflowing_kernel_reach_rows_take_a_value(self, capsys, source, eps):
        # 45/|s| overflows at |s| = 1e-307 (D = 1e307 is in the grid domain)
        # and is past half the float range at 3.2e-307; the panels stop at the
        # source's tail span and a closed form takes the kernel's tail, so
        # every row has an R_U, no numpy warning is raised, and the SLB cells
        # are those of an SLB-only sweep
        argv = ["bounds", "--source", source, "--epsilon", eps, "--grid-min", "1e-307",
                "--grid-max", "1e-306", "--grid-count", "3", "--bounds", "slb,ru"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and caught == []
        rows = parse_csv(out)[1]
        assert [row[0] for row in rows] == ["-1e-306", "-3.16227766017e-307", "-1e-307"]
        slb_only = parse_csv(run_cli(capsys, *argv[:-1], "slb")[1])[1]
        for row, want in zip(rows, slb_only):
            # R_U -> 0 as s -> 0; what is left is the round-off of two entropies near 705
            assert float(row[3]) < 1e-12 and "ru_error" not in row[-1]
            assert row[2] == want[2] == "0" and row[-1].startswith(want[-1])


    def test_tabulated_slope_over_the_node_limit_noted_on_its_own_row(self, capsys,
                                                                      monkeypatch, tmp_path):
        # on 3 cells of width 1 at eps = 0.1 the layout at |s| = 200 has 2 560
        # nodes and at |s| = 27.1 360; a limit between them fails only the
        # steepest row
        path = tmp_path / "tab3.csv"
        path.write_text("x,mass\n-1.0,0.25\n0.0,0.5\n1.0,0.25\n")
        # under the real limit, |s| = 1e9 needs 1.3e10 nodes and |s| = 0.5 few
        rows = self.rows(capsys, "--source", f"csv:{path}", "--grid-min", "0.5", "--grid-max",
                         "1e9", "--grid-count", "2", "--bounds", "ru")
        assert rows[0][0] == "-1000000000" and rows[0][3] == ""
        assert rows[0][-1].startswith("ru_error:tabulated R_U at |s| = 1e+09 needs 1.3e+10")
        assert rows[1][0] == "-0.5" and float(rows[1][3]) > 0.0 and rows[1][-1] == ""
        args = ["--source", f"csv:{path}", "--grid-max", "200", "--grid-count", "4"]
        clean = self.rows(capsys, *args)
        monkeypatch.setattr(convolution, "TABULATED_NODE_LIMIT", 1000)
        rows = self.rows(capsys, *args)
        assert rows[0][0] == "-200"
        assert rows[0][3] == "" and rows[0][-1] == (
            "ru_error:tabulated R_U at |s| = 2e+02 needs 2.6e+03 nodes (limit 1000)")
        assert rows[0][:3] + rows[0][4:-1] == clean[0][:3] + clean[0][4:-1]
        assert rows[1:] == clean[1:]

    def test_nan_tabulated_density_noted_on_its_own_row(self, capsys, monkeypatch, tmp_path):
        # a NaN density at one slope of a tabulated batch makes that slope's
        # entropy NaN, not a plausible finite R_U, and its row is noted
        path = tmp_path / "src.csv"
        x = np.linspace(-2.0, 2.0, 41)
        m = np.exp(-x * x) / np.exp(-x * x).sum()
        path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), m.tolist())))
        args = ["--source", f"csv:{path}", "--bounds", "ru,rge", "--grid-count", "5"]
        clean = self.rows(capsys, *args)
        bad = -float(np.geomspace(0.5, 50, 5)[2])
        real_density = convolution._tabulated_density

        def density(terms, b, left, right, c):
            out = real_density(terms, b, left, right, c)
            return np.full_like(out, np.nan) if b == -bad else out

        monkeypatch.setattr(convolution, "_tabulated_density", density)
        rows = self.rows(capsys, *args)
        for row, want in zip(rows, clean):
            if float(row[0]) == float(f"{bad:.12g}"):
                assert row[3] == "" and row[-1] == "ru_error:non-finite"
                assert row[:3] + row[4:-1] == want[:3] + want[4:-1]
            else:
                assert row == want


class TestDmax:
    def test_laplacian_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmax", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["slb_zero"] == pytest.approx(0.6136, abs=5e-4)
        assert report["d_max_eps"] == pytest.approx(0.6139, abs=5e-4)
        assert report["d_max_zero"] == pytest.approx(0.7071, abs=5e-4)
        assert report["ordered"]

    def test_gaussian_chain(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmax", "--source", "gaussian", "--sigma2", "1.0",
            "--epsilon", "0.1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["slb_zero"] == pytest.approx(0.6662, abs=5e-4)
        assert report["d_max_eps"] == pytest.approx(0.7019, abs=5e-4)
        assert report["d_max_zero"] == pytest.approx(0.7979, abs=5e-4)

    def test_zero_band_collapses_first_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmax", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        inv_alpha = 1.0 / math.sqrt(2)
        assert report["slb_zero"] == pytest.approx(inv_alpha, abs=1e-6)
        assert report["d_max_eps"] == pytest.approx(inv_alpha, rel=1e-12)

    def test_zero_band_ordered_at_large_scale(self, capsys):
        # slb_zero and d_max_eps are both 1/alpha; at 3.3e6 one ulp is 4.7e-10
        code, out, _ = run_cli(
            capsys, "dmax", "--source", "laplacian", "--alpha", "3e-7",
            "--epsilon", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["ordered"]

    @pytest.mark.parametrize("eps", ["0", "0.05", "0.1"])
    def test_single_cell_tabulated_chain(self, capsys, tmp_path, eps):
        # all mass on one cell of width 0.5: d_max is that of the uniform density
        path = tmp_path / "cell.csv"
        path.write_text("x,mass\n-0.5,0\n0,1\n0.5,0\n")
        code, out, _ = run_cli(capsys, "dmax", "--source", f"csv:{path}", "--epsilon", eps,
                               "--format", "json")
        report = json.loads(out)
        assert code == 0, report
        assert report["ordered"]
        assert report["d_max_zero"] == pytest.approx(0.125, rel=1e-12)

    def test_laplacian_small_band_ordered(self, capsys):
        # d_max(eps) - slb_zero ~ (alpha eps)^3 / (6 alpha) is below an ulp of
        # either value here, and underflows at eps = 1e-200
        for eps in [*np.geomspace(1e-12, 1e-2, 101), 1e-200]:
            code, out, _ = run_cli(capsys, "dmax", "--source", "laplacian", "--alpha", "1",
                                   "--epsilon", repr(float(eps)), "--format", "json")
            report = json.loads(out)
            assert code == 0 and report["ordered"], eps
            assert report["d_max_eps"] == math.exp(-eps)

    def test_vacuous_band_exits_nonzero(self, capsys):
        code, out, _ = run_cli(
            capsys, "dmax", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "2.0", "--format", "json",
        )
        assert code == 1
        assert "vacuous" in json.loads(out)["error"]


class TestBaSweep:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "ba", "--source", "gaussian", "--epsilon", "0.1",
            "--grid-min", "4", "--grid-max", "16", "--grid-count", "3",
            "--ba-n", "501", "--ba-max-iter", "4000",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == COLUMNS
        for row in rows:
            assert row[7] != ""  # R_ba populated
            assert row[2] == ""  # other bounds empty


class TestVerify:
    def test_passes_on_sane_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--ba-n", "1001",
            "--ba-max-iter", "20000", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0, payload
        assert payload["passed"]
        assert {c["name"] for c in payload["checks"]} >= {
            "slb_two_route", "dominance_ru_rge", "cf_consistency",
            "ba_sandwich", "ba_grid_convergence",
        }

    def test_passes_on_two_cell_tabulated(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("x,mass\n-0.5,0.5\n0.5,0.5\n")
        code, out, _ = run_cli(
            capsys, "verify", "--source", f"csv:{path}", "--epsilon", "0.05",
            "--ba-n", "201", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0, payload

    def test_uncertified_solves_fail_the_ba_checks(self, capsys):
        # at 1 000 updates no n = 1001 solve is certified: both BA checks fail on
        # that alone, although their values are within tolerance
        code, out, _ = run_cli(
            capsys, "verify", "--alpha", "1.41421356237", "--epsilon", "0.1",
            "--ba-n", "1001", "--ba-max-iter", "1000", "--format", "json",
        )
        assert code == 1
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        for name, key, slopes in (("ba_sandwich", "max_excess", [-2.0, -5.0, -20.0]),
                                  ("ba_grid_convergence", "max_change", [-5.0, -5.0])):
            check = by_name[name]
            assert not check["passed"] and check[key] <= check["tol"] and "errors" not in check
            assert check["not_converged"] == slopes
        assert all(c["passed"] for n, c in by_name.items() if not n.startswith("ba_"))

    def test_tiny_grid_fails_convergence_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--source", "laplacian", "--alpha", str(math.sqrt(2)),
            "--epsilon", "0.1", "--ba-n", "51",
            "--ba-max-iter", "20000", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert not by_name["ba_grid_convergence"]["passed"]

    def test_failed_solves_fail_the_sandwich(self, capsys):
        # n = 4 is not a valid BA grid: every sandwich solve comes back as a
        # flagged NaN point, which must fail the check rather than vanish in max()
        code, out, _ = run_cli(
            capsys, "verify", "--source", "laplacian", "--epsilon", "0.1", "--ba-n", "4",
            "--format", "json",
        )
        assert code == 1
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        sandwich = by_name["ba_sandwich"]
        assert not sandwich["passed"]
        assert sandwich["max_excess"] is None
        assert len(sandwich["errors"]) == 3
        assert all(e.startswith("ba_error:") for e in sandwich["errors"])
        assert not by_name["ba_grid_convergence"]["passed"]

    def test_lists_unconverged_solves(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--source", "laplacian", "--epsilon", "0.1", "--ba-n", "201",
            "--ba-max-iter", "3", "--format", "json",
        )
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["ba_sandwich"]["not_converged"] == [-2.0, -5.0, -20.0]
        assert by_name["ba_grid_convergence"]["not_converged"] == [-5.0, -5.0]
        assert "not_converged" not in by_name["dominance_ru_rge"]

    @pytest.mark.parametrize("eps", ["0.1", "1e6", "1e15", "1e103", "1e300"])
    def test_cf_check_passes_on_bounded_panels_at_any_band(self, capsys, eps):
        # the band's and the tail's shares of the CF are both closed form.  A
        # direct transform over the band asked for 3.1e8 nodes in one call at
        # eps = 1e6, and at eps = 1e103 for 5e102 panels, which failed the
        # check instead of giving a verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--epsilon", eps, "--ba-n", "3",
                                     "--ba-max-iter", "10", "--format", "json")
        assert code == 1 and err == ""  # n = 3 has no coarser grid to compare with
        check = {c["name"]: c for c in json.loads(out)["checks"]}["cf_consistency"]
        assert check["passed"] and check["max_abs_diff"] <= 1e-12

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-155", "1e155", "1e300"])
    def test_failed_bound_cells_fail_dominance(self, capsys, alpha):
        # R_GE and R_AU fail at such a scale while R_U has a value: the rows
        # whose cells failed fail both dominance checks instead of a traceback
        code, out, err = run_cli(capsys, "verify", "--alpha", alpha, "--ba-n", "5",
                                 "--ba-max-iter", "5", "--format", "json")
        assert code == 1 and err == ""
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        for name in ("dominance_ru_rge", "dominance_ru_rau"):
            check = by_name[name]
            assert not check["passed"] and check["max_excess"] is None
            for prefix in ("rge_error:", "rau_error:"):
                assert any(e.startswith(prefix) for e in check["errors"])

    def test_grid_convergence_needs_a_coarser_grid(self, capsys):
        # at n = 3 the coarse grid rounds up to n = 3 itself: nothing to compare
        code, out, _ = run_cli(
            capsys, "verify", "--source", "laplacian", "--epsilon", "0.1", "--ba-n", "3",
            "--format", "json",
        )
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["ba_grid_convergence"]
        assert not check["passed"]
        assert any("--ba-n" in e for e in check["errors"])


class TestSweepRows:
    @pytest.mark.parametrize("s, max_iter", [(-10.0, 1000), (-5.0, 3)])
    def test_row_keeps_the_solve(self, s, max_iter):
        # the row holds the solve itself, equal to a direct one at the same
        # slope and n: converged at s = -10, stopped at the cap at s = -5
        loss, args = EpsilonLoss(0.1), build_parser().parse_args(
            ["bounds", "--ba-max-iter", str(max_iter)])
        points = cli._pairs([20.0, -s], "s", loss)  # the (s, D) arrays of two slopes
        table = cli._sweep_rows(Gaussian(1.0), loss, ("slb", "ba"), points, 101, args)
        solve = table["ba"][1]
        direct = ba_iterate(build_problem(Gaussian(1.0), loss, s, n=101), tol=math.inf,
                            max_iter=max_iter)
        assert isinstance(solve, BAResult)
        assert solve.converged is direct.converged is (max_iter == 1000)
        for field in ("rate", "distortion", "iterations", "gap", "certified_gap"):
            assert getattr(solve, field) == getattr(direct, field)
        assert np.array_equal(solve.q_mass, direct.q_mass)
        assert table["R_ba"][1] == direct.rate
        assert not [note for note in table["notes"][1].values() if "_error:" in note]

    @pytest.mark.parametrize("source", [Laplacian(math.sqrt(2)), Gaussian(1.0), TABULATED],
                             ids=["laplacian", "gaussian", "tabulated"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1e103])
    def test_cells_equal_one_value_calls(self, source, eps):
        # a column is one body call over the share; each of its cells is the
        # public one-value call at that point, bit for bit, from D = 1e-300 to
        # 1e300, and a cell with no value is one whose call gives none
        loss, args = EpsilonLoss(eps), build_parser().parse_args(["bounds"])
        h_p = source.differential_entropy()
        calls = {
            "slb": lambda s, d: bounds.shannon_lower_bound(d, h_p, loss),
            "ru": lambda s, d: bounds.convolution_upper_bound(source, s, loss).raw_rate,
            "rge": lambda s, d: bounds.gaussian_entropy_bound(source, s, loss).raw_rate,
        }
        if isinstance(source, Laplacian):
            calls["rau"] = lambda s, d: bounds.analytic_upper_bound_laplacian(
                s, source.alpha, loss).raw_rate
            calls["trivial"] = lambda s, d: bounds.trivial_upper_bound_laplacian(d, source.alpha)
        points = cli._pairs(np.geomspace(1e-300, 1e300, 25), "d", loss)
        table = cli._sweep_rows(source, loss, tuple(calls), points, 3, args)
        for bound, call in calls.items():
            for s, d, got, notes in zip(table["s"], table["D"], table[cli.RATE_COLUMNS[bound]],
                                        table["notes"]):
                try:
                    want, failure = call(s, d), None
                except (ValueError, ArithmeticError) as exc:
                    want, failure = math.nan, exc
                if math.isfinite(want):
                    assert got.hex() == want.hex() and bound not in notes, (bound, s)
                else:
                    assert math.isnan(got), (bound, s)
                    assert notes[bound] == f"{bound}_error:{failure or 'non-finite'}"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_body_call_per_column_and_share(self, capsys, monkeypatch, threads):
        # the 60-row README figure sweep calls each closed-form body once per
        # worker share, and no public one-value form
        calls = []
        for name in ("_shannon_lower_bound", "_convolution_upper_bounds",
                     "_analytic_upper_bound_laplacian", "_gaussian_entropy_bound",
                     "_trivial_upper_bound_laplacian", "shannon_lower_bound",
                     "convolution_upper_bound", "analytic_upper_bound_laplacian",
                     "gaussian_entropy_bound", "trivial_upper_bound_laplacian"):
            def counted(*args, name=name, real=getattr(bounds, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(bounds, name, counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, *FIGURE, "--threads", str(threads))
        assert code == 0 and err == "" and len(parse_csv(out)[1]) == 60
        assert sorted(calls) == sorted(threads * [
            "_shannon_lower_bound", "_convolution_upper_bounds", "_analytic_upper_bound_laplacian",
            "_gaussian_entropy_bound", "_trivial_upper_bound_laplacian"])


def readme_commands():
    """The argv of every rdbounds command of README's shell blocks, continuations joined."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("rdbounds ")]


class TestReadme:
    def test_shell_commands_parse(self):
        commands = readme_commands()
        assert len(commands) >= 4
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_ba_commands_certify_every_solve(self, capsys):
        # the README's verify and BA sweep: verdicts are pinned, not BA digits,
        # which move with the BLAS summation order of the CPU
        parser = build_parser()
        verify = [argv for argv in readme_commands() if argv[0] == "verify"]
        sweeps = [argv for argv in readme_commands() if argv[0] != "verify"
                  and "ba" in getattr(parser.parse_args(argv), "bounds", "").split(",")]
        assert len(verify) == 1 and sweeps
        code, out, _ = run_cli(capsys, *verify[0])
        assert code == 0 and "not_converged" not in out
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 6 + ["result:"]
        for argv in sweeps:
            code, out, _ = run_cli(capsys, *argv)
            header, rows = parse_csv(out)
            assert code == 0 and rows and "ba_not_converged" not in out
            assert all(row[header.index("R_ba")] != "" for row in rows)


GOLDEN = Path(__file__).resolve().parent / "golden"
MIXTURE = f"csv:{GOLDEN / 'mixture401.csv'}"  # the benchmark's seed-1 mixture, 401 cells
FIGURE = ["bounds", "--source", "laplacian", "--alpha", "1.41421356237", "--epsilon", "0.1",
          "--grid-var", "d", "--grid-min", "0.005", "--grid-max", "0.6", "--grid-count", "60",
          "--bounds", "slb,ru,rau,rge,trivial"]
# golden file -> the argv whose stdout it holds; after an intended change,
# rewrite a file with `python -m rdbounds.cli ARGV > tests/golden/NAME`
GOLDEN_RUNS = {
    "laplacian_figure.csv": FIGURE,
    "laplacian_figure.json": [*FIGURE, "--format", "json"],
    "dmax_gaussian.txt": ["dmax", "--source", "gaussian", "--sigma2", "1.0", "--epsilon", "0.1"],
    "gaussian_sweep.csv": ["bounds", "--source", "gaussian", "--epsilon", "0.1", "--grid-min",
                           "0.5", "--grid-max", "200", "--grid-count", "60",
                           "--bounds", "slb,ru,rge"],
    "tabulated_sweep.csv": ["bounds", "--source", MIXTURE, "--epsilon", "0.1", "--grid-min",
                            "0.5", "--grid-max", "200", "--grid-count", "8",
                            "--bounds", "slb,ru,rge"],
    "dmax_tabulated.json": ["dmax", "--source", MIXTURE, "--epsilon", "0.1", "--format", "json"],
}
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _last_digit_unit(token):
    """One unit in a printed number's last digit.  ``%.12g`` drops trailing
    zeros, so that digit is the 12th significant one, or a later one where the
    number shows more (JSON's shortest round-trip form); a printed 0 has none."""
    value = Decimal(token)
    if not value:
        return Decimal(0)
    shown = len(value.as_tuple().digits)
    return Decimal(1).scaleb(value.adjusted() - max(shown, 12) + 1)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_output_matches_golden_file(self, capsys, name):
        # every byte but the digits of numbers must match; a number may move by
        # one unit in its last printed digit, as numpy's SIMD exp and log may
        # differ by an ulp between CPUs and between versions
        code, out, err = run_cli(capsys, *GOLDEN_RUNS[name])
        want = (GOLDEN / name).read_text(encoding="utf-8")
        assert (code, err) == (0, "")
        assert _NUMBER.split(out) == _NUMBER.split(want)
        for got, pinned in zip(_NUMBER.findall(out), _NUMBER.findall(want)):
            unit = max(_last_digit_unit(got), _last_digit_unit(pinned))
            assert abs(Decimal(got) - Decimal(pinned)) <= unit, (got, pinned)

    def test_tolerance_is_one_unit_in_the_last_digit(self):
        assert _last_digit_unit("0.000657744074022") == Decimal("1e-15")
        assert _last_digit_unit("-200") == Decimal("1e-9")
        assert _last_digit_unit("0.9268141691156347") == Decimal("1e-16")
        assert _last_digit_unit("2.5e-305") == Decimal("1e-316")
        assert _last_digit_unit("0") == 0
