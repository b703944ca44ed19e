"""The three benchmark workloads: seeded inputs, top-level calls and checks.

A workload is a list of top-level calls (one CLI invocation or one BA solve
each) that make up one pass.  Outputs are checked after the timed loop, on
every pass, so checking costs no measured time.

* ``closed-form``: the README Laplacian figure sweep, dmax for three sources
  and the spectral certificates.  Touches tilted, the closed forms in bounds,
  the Laplacian quadrature panels and the CLI; never BA or the numeric
  convolution route.
* ``numeric-conv``: the README Gaussian sweep and a shorter sweep of a seeded
  tabulated source.  convolution.conv_pdf / conv_entropy dominate; the
  Gaussian uses Gauss-Legendre panels (costliest at small |s|), the tabulated
  source the exact-CDF Simpson route (costlier again at large |s|).
* ``ba-reference``: build_problem + ba_iterate at criterion-4 settings for the
  Laplacian and the Gaussian, plus epsilon = 0 exact-curve solves at n = 1001:
  a run to the iteration cap, early stops and two FFT lengths.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

ALPHA = math.sqrt(2.0)
ALPHA_ARG = "1.41421356237"  # the README's spelling of sqrt(2)
EPS = 0.1

# gates (nats): acceptance criteria 3 and 4 in tests/test_acceptance.py, and
# the Blahut-gap target a certified BA point has to meet
ORDER_TOL = 1e-9
GAP_TARGET = 1e-4
SANDWICH_GATE = 2e-2
EXACT_GATE = 2e-2
RU_TOL = {"laplacian": 1e-8, "gaussian": 1e-8, "tabulated": 1e-6}
# differences below what the oracles resolve read as this floor, so that
# round-off reshuffles in a correct route do not look like a regression
ORACLE_FLOOR = 1e-12

# Operations that fail a gate at the parent of this benchmark, kept in the
# workload on purpose.  They still count in ``failed``; a run stays
# ``correct`` while every failure is listed here and its value is below the
# ceiling (about 1.25x the worst value measured over ten seeds), so a solver
# that gets faster by getting less accurate still fails the run.
KNOWN_FAILURES = {
    # Gaussian BA stops on sup|q' - q| < tol after 5-76 iterations at
    # |s| >= 4.5 while the Blahut gap is still 6e-4 (s = -4.55) to 8.9e-2
    # (s = -200) nats
    ("ba:gaussian-early", "gap"): 0.11,
    # epsilon = 0, s = -16 at n = 1001: the grid (h = 0.02) is too coarse
    # for the 1/|s| = 0.06 kernel, |R_BA + log(alpha D_BA)| = 2.35e-2
    ("ba:exact-s16", "exact"): 3.0e-2,
}


def _jitter(rng, base: float, rel: float) -> float:
    return float(base * (1.0 + rng.uniform(-rel, rel)))


def write_tabulated_csv(path: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded two-component mixture (normal + Laplace) on 401 uniform cells."""
    rng = np.random.default_rng([seed, 401])
    x = np.linspace(-5.5, 5.5, 401)
    c1, c2 = rng.uniform(-1.1, -0.9), rng.uniform(0.9, 1.1)
    v1, b2 = rng.uniform(0.29, 0.31), rng.uniform(0.48, 0.52)
    w = rng.uniform(0.48, 0.52)
    m = w * np.exp(-0.5 * (x - c1) ** 2 / v1) / math.sqrt(v1) + (1.0 - w) * np.exp(
        -np.abs(x - c2) / b2) / b2
    m = m / m.sum()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("x,mass\n")
        for xi, mi in zip(x, m):
            handle.write(f"{xi:.17g},{mi:.17g}\n")
    return x, m


def _slope_of_d(d: float) -> float:
    # inverse of D(s) = 1/((1 + eps|s|)|s|), written out independently
    return -2.0 / (d + math.sqrt(d * (d + 4.0 * EPS)))


def _cli(argv):
    """Run rdbounds.cli.main in-process; return (exit code, stdout text)."""
    from rdbounds import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------- checks


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",", len(header) - 1)
        rows.append(dict(zip(header, cells)))
    return rows


def check_sweep(result, expected_rows: int, rate_cols) -> list[dict]:
    """Failures (check name -> value) per expected row: error flags,
    finiteness, bound ordering.  An empty dict is a passing row."""
    code, text = result
    if code != 0 or not text.startswith("s,"):
        return [{"exit": float(code)} for _ in range(expected_rows)]
    rows = parse_csv(text)
    ops = []
    for row in rows:
        bad = {}
        flags = row.get("flags", "")
        if "_error" in flags:
            bad["error_flag"] = 1.0
        vals = {}
        for col in ("s", "D", *rate_cols):
            cell = row.get(col, "")
            if cell == "":
                if not (col == "R_au" and "rau_singular_slope" in flags):
                    bad[f"missing_{col}"] = 1.0
                continue
            v = float(cell)
            if not math.isfinite(v):
                bad[f"nonfinite_{col}"] = 1.0
            vals[col] = v
        for lo, hi in (("R_slb", "R_u"), ("R_u", "R_ge"), ("R_u", "R_au")):
            if lo in vals and hi in vals and vals[lo] > vals[hi] + ORDER_TOL:
                bad[f"order_{lo}_{hi}"] = vals[lo] - vals[hi]
        ops.append(bad)
    for _ in range(expected_rows - len(rows)):
        ops.append({"row_missing": 1.0})
    return ops


def check_dmax(result) -> list[dict]:
    code, text = result
    bad = {}
    try:
        rep = json.loads(text)
        chain = rep["slb_zero"] < rep["d_max_eps"] < rep["d_max_zero"]
    except (ValueError, KeyError, TypeError):
        rep, chain = {}, False
    if code != 0:
        bad["exit"] = float(code)
    if not (chain and rep.get("ordered") is True):
        bad["dmax_chain"] = 1.0
    return [bad]


def check_spectral(result) -> list[dict]:
    ops = []
    for s, k, w_k, w_prev, dip, centre, cf0, cf_max in result:
        bad = {}
        if not (w_k > 1.0 and (k == 1 or w_prev <= 1.0)):
            bad["witness_index"] = float(k)
        if not (dip <= 0.0 < centre):
            bad["deconvolution_sign"] = dip
        if abs(cf0 - 1.0) > 1e-15 or cf_max > 1.0 + 1e-15:
            bad["cf_range"] = max(abs(cf0 - 1.0), cf_max - 1.0)
        ops.append(bad)
    return ops


def _witness(k: int, s: float) -> float:
    u = EPS * abs(s)
    return (ALPHA**2 / (s * s)) * ((1.0 + u) / u) * (2.0 * k - 0.5) * math.pi


# ------------------------------------------------------------- workloads


class Workload:
    name = ""

    def make_inputs(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def calls(self, inp: dict, threads: int):
        """[(label, zero-argument callable)] making up one pass."""
        raise NotImplementedError

    def check(self, label: str, result, memo: dict) -> list[dict]:
        raise NotImplementedError

    def accuracy(self, inp: dict, memo: dict) -> tuple[dict, list[dict]]:
        """Accuracy metrics against the oracles, once per run, and their verdicts."""
        raise NotImplementedError


def _ru_errors(pairs) -> tuple[float, list[dict]]:
    """Largest |R_U - oracle| over (family, source, slope, oracle thunk) tuples."""
    from rdbounds import bounds, tilted

    worst = ORACLE_FLOOR
    ops = []
    for family, source, s, oracle in pairs:
        lib = bounds.convolution_upper_bound(source, s, tilted.EpsilonLoss(EPS)).raw_rate
        err = abs(lib - oracle())
        worst = max(worst, err)
        ops.append({"ru_err": err} if err > RU_TOL[family] else {})
    return worst, ops


ORACLE_SLOPES = (-0.5, -5.0, -50.0)


class ClosedForm(Workload):
    name = "closed-form"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        csv = os.path.join(workdir, "tabulated.csv")
        write_tabulated_csv(csv, seed)
        d_lo, d_hi = _jitter(rng, 0.005, 0.005), _jitter(rng, 0.6, 0.005)
        slopes = [_slope_of_d(d) for d in np.geomspace(d_lo, d_hi, 60)]
        return {"csv": csv, "d_lo": d_lo, "d_hi": d_hi, "slopes": slopes}

    def calls(self, inp, threads):
        v = inp
        sweep = ["bounds", "--source", "laplacian", "--alpha", ALPHA_ARG, "--epsilon", str(EPS),
                 "--grid-var", "d", "--grid-min", repr(v["d_lo"]), "--grid-max", repr(v["d_hi"]),
                 "--grid-count", "60", "--bounds", "slb,ru,rau,rge,trivial",
                 "--threads", str(threads)]
        out = [("sweep:laplacian", lambda: _cli(sweep))]
        for src in ("laplacian", "gaussian", "csv:" + v["csv"]):
            argv = ["dmax", "--source", src, "--alpha", ALPHA_ARG, "--sigma2", "1.0",
                    "--epsilon", str(EPS), "--format", "json", "--threads", str(threads)]
            out.append((f"dmax:{src.split(':')[0]}", lambda argv=argv: _cli(argv)))
        out.append(("spectral", lambda: self._spectral(v["slopes"])))
        return out

    @staticmethod
    def _spectral(slopes):
        from rdbounds import spectral, tilted

        loss = tilted.EpsilonLoss(EPS)
        omega = np.linspace(0.0, 50.0, 64)
        out = []
        for s in slopes:
            if abs(s) > ALPHA:
                k = spectral.first_witness_index(ALPHA, s, loss)
                w_k, w_prev = _witness(k, s), _witness(k - 1, s) if k > 1 else 0.0
            else:
                k, w_k, w_prev = 1, 2.0, 0.0  # no witness below |s| = alpha
            edge = math.sqrt(1.0 + s * s)
            dip = spectral.gaussian_deconvolution_density(1.2 * edge, 1.0, s)
            centre = spectral.gaussian_deconvolution_density(0.0, 1.0, s)
            cf = spectral.tilted_cf(omega, s, loss)
            out.append((s, k, w_k, w_prev, dip, centre, float(cf[0]), float(np.max(cf))))
        return tuple(out)

    def check(self, label, result, memo):
        if label.startswith("sweep"):
            return check_sweep(result, 60, ("R_slb", "R_u", "R_au", "R_ge", "R_trivial"))
        if label.startswith("dmax"):
            return check_dmax(result)
        return check_spectral(result)

    def accuracy(self, inp, memo):
        from rdbounds import sources

        from perfbench import oracles

        lap = sources.Laplacian(ALPHA)
        pairs = [("laplacian", lap, s, lambda s=s: oracles.ru_smooth(
            oracles.laplacian_pdf(ALPHA), s, EPS, 40.0, kinks=(0.0,))) for s in ORACLE_SLOPES]
        worst, ops = _ru_errors(pairs)
        return {"ru_err_max": worst}, ops


class NumericConv(Workload):
    name = "numeric-conv"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        csv = os.path.join(workdir, "tabulated.csv")
        grid, masses = write_tabulated_csv(csv, seed)
        vals = {"csv": csv, "grid": grid, "masses": masses}
        for key in ("gauss", "tab"):
            vals[key] = (_jitter(rng, 0.5, 0.005), _jitter(rng, 200.0, 0.005))
        return vals

    def calls(self, inp, threads):
        v = inp

        def sweep(source, lo_hi, count):
            return ["bounds", "--source", source, "--sigma2", "1.0", "--epsilon", str(EPS),
                    "--grid-min", repr(lo_hi[0]), "--grid-max", repr(lo_hi[1]),
                    "--grid-count", str(count), "--bounds", "slb,ru,rge",
                    "--threads", str(threads)]

        tab = "csv:" + v["csv"]
        dmax = ["dmax", "--source", tab, "--epsilon", str(EPS), "--format", "json",
                "--threads", str(threads)]
        tab_sweep = sweep(tab, v["tab"], 8)
        gauss_sweep = sweep("gaussian", v["gauss"], 60)
        return [("dmax:csv", lambda: _cli(dmax)),
                ("sweep:tabulated", lambda: _cli(tab_sweep)),
                ("sweep:gaussian", lambda: _cli(gauss_sweep))]

    def check(self, label, result, memo):
        if label == "dmax:csv":
            return check_dmax(result)
        rows = 8 if label == "sweep:tabulated" else 60
        return check_sweep(result, rows, ("R_slb", "R_u", "R_ge"))

    def accuracy(self, inp, memo):
        from rdbounds import sources

        from perfbench import oracles

        v = inp
        tab = sources.load_tabulated_csv(v["csv"])
        pairs = []
        for s in ORACLE_SLOPES:
            pairs.append(("gaussian", sources.Gaussian(1.0), s, lambda s=s: oracles.ru_smooth(
                oracles.gaussian_pdf(1.0), s, EPS, 9.5)))
            pairs.append(("tabulated", tab, s, lambda s=s: oracles.ru_tabulated(
                v["grid"], v["masses"], s, EPS)))
        worst, ops = _ru_errors(pairs)
        return {"ru_err_max": worst}, ops


# criterion-4 slope grid.  The subset keeps one Gaussian slope under
# |s| = 4.5 (it runs to the cap); Gaussian early stops at 4.55 (64 iterations,
# the edge of the regime), 20 and 200 (the largest gap); Laplacian s = -20
# (runs to the cap); and the epsilon = 0 slopes -16 and -8 at n = 1001.
_C4 = np.geomspace(0.5, 200.0, 20)


class BAReference(Workload):
    name = "ba-reference"
    N, N_EXACT, TOL, MAX_ITER = 2001, 1001, 1e-10, 20_000

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        early = sorted([20.0] + [_jitter(rng, float(_C4[i]), 0.005) for i in (7, 19)])
        solves = [("gaussian", EPS, self.N, -s) for s in early]
        solves += [("gaussian", EPS, self.N, -_jitter(rng, float(_C4[6]), 0.005)),
                   ("laplacian", EPS, self.N, -20.0),
                   ("laplacian", 0.0, self.N_EXACT, -16.0),
                   ("laplacian", 0.0, self.N_EXACT, -_jitter(rng, 8.0, 0.005))]
        return {"solves": solves}

    @staticmethod
    def label(family, eps, n, s):
        if eps == 0.0:
            return f"ba:exact-s{abs(s):g}" if s == -16.0 else f"ba:exact-n{n}"
        if family == "gaussian" and abs(s) >= 4.5:
            return "ba:gaussian-early"
        return f"ba:{family}-n{n}"

    @staticmethod
    def source(family):
        from rdbounds import sources

        return sources.Laplacian(ALPHA) if family == "laplacian" else sources.Gaussian(1.0)

    def calls(self, inp, threads):
        from rdbounds import ba, tilted

        out = []
        for family, eps, n, s in inp["solves"]:
            def solve(family=family, eps=eps, n=n, s=s):
                problem = ba.build_problem(self.source(family), tilted.EpsilonLoss(eps), s, n=n)
                return problem, ba.ba_iterate(problem, tol=self.TOL, max_iter=self.MAX_ITER)
            out.append((self.label(family, eps, n, s), solve))
        return out

    def _ru(self, family, d, memo):
        """R_U at the slope whose distortion is d (memoised: it is pure in d)."""
        from rdbounds import bounds, tilted

        key = ("ru", family, d)
        if key not in memo:
            loss = tilted.EpsilonLoss(EPS)
            s = tilted.slope_of_distortion(d, loss)
            memo[key] = (s, bounds.convolution_upper_bound(self.source(family), s, loss).r)
        return memo[key]

    def measures(self, label, result, memo):
        """Gap, sandwich excess and exact-curve error of one solve."""
        from rdbounds import bounds, tilted

        from perfbench import oracles

        problem, res = result
        eps = problem.loss.epsilon
        out = {"gap": oracles.dense_blahut_gap(problem.x_grid, problem.p_mass, problem.s,
                                               eps, res.q_mass)}
        family = "laplacian" if "laplacian" in label or "exact" in label else "gaussian"
        if eps == 0.0:
            out["exact"] = abs(res.rate + math.log(ALPHA * res.distortion))
        else:
            src = self.source(family)
            slb = bounds.shannon_lower_bound(res.distortion, src.differential_entropy(),
                                             tilted.EpsilonLoss(EPS))
            _, ru = self._ru(family, res.distortion, memo)
            out["sandwich"] = max(slb - res.rate, res.rate - ru)
        return out

    def check(self, label, result, memo):
        if isinstance(result, BaseException):
            return [{"raised": 1.0}]
        m = self.measures(label, result, memo)
        memo.setdefault("measures", []).append(m)
        gates = {"gap": GAP_TARGET, "sandwich": SANDWICH_GATE, "exact": EXACT_GATE}
        bad = {k: v for k, v in m.items() if v > gates[k]}
        if not np.all(np.isfinite(result[1].q_mass)):
            bad["nonfinite"] = 1.0
        return [bad]

    def accuracy(self, inp, memo):
        from perfbench import oracles

        measured = memo.get("measures", [])
        out = {
            "ba_gap_max": max((m["gap"] for m in measured), default=math.nan),
            "sandwich_excess_max": max((m["sandwich"] for m in measured if "sandwich" in m),
                                       default=math.nan),
            "exact_curve_err": max((m["exact"] for m in measured if "exact" in m),
                                   default=math.nan),
        }
        pairs = []
        for key, (s, _) in sorted((k, v) for k, v in memo.items()
                                  if isinstance(k, tuple) and k[0] == "ru"):
            family = key[1]
            pdf, support, kinks = ((oracles.laplacian_pdf(ALPHA), 40.0, (0.0,))
                                   if family == "laplacian"
                                   else (oracles.gaussian_pdf(1.0), 9.5, ()))
            pairs.append((family, self.source(family), s,
                          lambda pdf=pdf, s=s, support=support, kinks=kinks:
                          oracles.ru_smooth(pdf, s, EPS, support, kinks)))
        worst, ops = _ru_errors(pairs)
        out["ru_err_max"] = worst
        return out, ops


WORKLOADS = {w.name: w for w in (ClosedForm(), NumericConv(), BAReference())}
