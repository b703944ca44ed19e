"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import json
import math
import os
import shutil
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import oracles, run, workloads  # noqa: E402

# every metric the benchmark was specified with
SPEC_END_TO_END = ["setup_s", "wall_s", "call_p50_s", "call_tail_s", "peak_rss_mb",
                    "fail_share", "ba_gap_max", "sandwich_excess_max", "exact_curve_err",
                    "ru_err_max"]
SPEC_PER_LAYER = [
    "tilted.calls", "tilted.us_per_call", "bounds.closed_form_us", "bounds.ru_ms.laplacian",
    "sources.d_max_us", "bounds.slb_zero_ms", "spectral.us_per_call", "bounds.ru_ms.gaussian",
    "bounds.ru_ms.tabulated", "convolution.conv_entropy_ms", "convolution.conv_pdf_points",
    "quadrature.nodes", "ba.build_ms", "ba.iterations", "ba.us_per_iter.n2001",
    "ba.us_per_iter.n1001", "ba.certified_share", "cli.import_s", "cli.self_s",
    "cli.speedup_2t",
]


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout (the benchmark writes nowhere else)."""
    import pathlib

    path = pathlib.Path(ROOT, ".perfbench_run", f"selftest-{os.getpid()}")
    for sub in ("a", "b", "c"):
        (path / sub).mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class TestDenseGap:
    def test_zero_at_symmetric_optimum(self):
        gap = oracles.dense_blahut_gap([-1.0, 1.0], [0.5, 0.5], -1.0, 0.0, [0.5, 0.5])
        assert abs(gap) < 1e-15

    def test_zero_after_converged_solve(self):
        import rdbounds as rb

        problem = rb.BAProblem(x_grid=np.array([-1.0, 1.0]), p_mass=np.array([0.7, 0.3]),
                               y_grid=np.array([-1.0, 1.0]), loss=rb.EpsilonLoss(0.0), s=-2.0)
        result = rb.ba_iterate(problem, tol=1e-14, max_iter=100_000)
        assert result.converged
        gap = oracles.dense_blahut_gap(problem.x_grid, problem.p_mass, -2.0, 0.0, result.q_mass)
        assert 0.0 <= gap < 1e-10

    def test_positive_away_from_optimum(self):
        gap = oracles.dense_blahut_gap([-1.0, 1.0], [0.5, 0.5], -1.0, 0.0, [0.9, 0.1])
        assert gap > 1e-3


class TestTailPercentile:
    def test_hundred_samples(self):
        assert run.tail_percentile(range(100, 0, -1)) == (90, 90.0, 100)

    def test_smallest_sample_count(self):
        value, pct, n = run.tail_percentile(range(11))
        assert (value, n) == (0, 11)
        assert pct == pytest.approx(100.0 / 11.0)

    def test_too_few_samples(self):
        assert run.tail_percentile(range(10)) is None


class TestSeededInputs:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_inputs(self, name, workdir):
        w = workloads.WORKLOADS[name]
        a = w.make_inputs(7, str(workdir / "a"))
        b = w.make_inputs(7, str(workdir / "b"))
        c = w.make_inputs(8, str(workdir / "c"))
        strip = {"csv", "grid", "masses"}
        same = {k: v for k, v in a.items() if k not in strip}
        assert same == {k: v for k, v in b.items() if k not in strip}
        assert same != {k: v for k, v in c.items() if k not in strip}

    def test_csv_bytes_repeat(self, workdir):
        for name in ("a", "b", "c"):
            workloads.write_tabulated_csv(str(workdir / name / "t.csv"), 7 if name != "c" else 8)
        data = [(workdir / name / "t.csv").read_bytes() for name in ("a", "b", "c")]
        assert data[0] == data[1] != data[2]

    def test_ba_regimes_present(self, workdir):
        inp = workloads.WORKLOADS["ba-reference"].make_inputs(3, str(workdir))
        solves = inp["solves"]
        gauss = [abs(s) for fam, eps, n, s in solves if fam == "gaussian"]
        assert min(gauss) < 4.5 and any(g >= 4.5 for g in gauss) and 20.0 in gauss
        assert ("laplacian", 0.1, 2001, -20.0) in solves
        assert ("laplacian", 0.0, 1001, -16.0) in solves


class TestChecks:
    HEAD = "s,D,R_slb,R_u,R_au,R_ge,R_trivial,R_ba,flags\n"

    def test_ordering_violation_fails(self):
        text = self.HEAD + "-2,0.4,1.0,0.9,1.2,1.3,1.5,,\n-3,0.3,1.0,1.1,1.2,1.3,1.5,,\n"
        ops = workloads.check_sweep((0, text), 2, ("R_slb", "R_u", "R_au", "R_ge"))
        assert [bool(bad) for bad in ops] == [True, False]

    def test_error_flag_and_missing_row_fail(self):
        text = self.HEAD + "-2,0.4,1.0,,1.2,1.3,1.5,,ru_error:boom\n"
        ops = workloads.check_sweep((0, text), 2, ("R_slb", "R_u", "R_ge"))
        assert all(ops)


class TestMetricCoverage:
    def test_benchmark_json_matches_runner(self):
        doc = _benchmark_json()
        assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} \
            == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
        assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
        assert doc["end_to_end"][0]["bound"] == max(m["bound"] for m in doc["end_to_end"])

    def test_every_specified_metric_reported_or_explained(self):
        doc = _benchmark_json()
        gated = {m["name"] for m in doc["end_to_end"]}
        layers = {m["name"] for m in doc["per_layer"]}
        for name in SPEC_END_TO_END:
            assert name in gated or run.REPORTED.get(name, ("", ""))[1], name
        for name in SPEC_PER_LAYER:
            assert name in layers, name

    def test_known_failure_ceilings_are_finite(self):
        assert all(math.isfinite(v) and v > 0 for v in workloads.KNOWN_FAILURES.values())
