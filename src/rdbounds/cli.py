"""Command-line front end: bound sweeps, endpoint reports, BA curves, verification.

Subcommands
-----------
bounds   sweep selected bounds over a slope or distortion grid (CSV/JSON)
dmax     report the zero-crossing of the lower bound and both zero-rate
         distortions, asserting their ordering
ba       Blahut-Arimoto sweep only: ``bounds --bounds ba``
verify   cross-module consistency checks; exit 0 iff all pass

``_pairs`` turns grid values into arrays of slopes s and distortions D;
``_sweep_rows`` computes a table of raw columns from them, each closed-form
column (R_U's too) in one array call, BA one solve a point.  A BA solve stops
at its first iterate that Blahut's gap certifies within 1e-4 nats; one still
uncertified at ``--ba-max-iter`` is flagged and fails ``verify``.
``bounds``/``ba`` give it one share of the grid per ``--threads`` worker (a
single worker runs on the calling thread, with no pool thread) and ``verify``
reads its checks off its tables.  ``_emit`` alone clamps, converts and
formats the cells and ``_report`` alone writes output.

The CSV schema is fixed: ``s,D,R_slb,R_u,R_au,R_ge,R_trivial,R_ba,flags``.
Rates are nats by default (--units bits divides by ln 2 on output).  Values
clamped to zero keep their raw value inside the flags column, e.g.
``rge_clamped:-0.43``; a flags cell that holds a comma is quoted.
Inapplicable or failed cells are left empty and flagged rather than aborting
the sweep.  Exit codes: 0 success, 1 invariant failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import ba as ba_mod
from . import bounds as bounds_mod
from .sources import Gaussian, Laplacian, Source, load_tabulated_csv
from .tilted import (EpsilonLoss, _distortion_of_slope, _slope_of_distortion, normalizer,
                     tilted_entropy)

COLUMNS = ["s", "D", "R_slb", "R_u", "R_au", "R_ge", "R_trivial", "R_ba", "flags"]
ALL_BOUNDS = ("slb", "ru", "rau", "rge", "trivial", "ba")
RATE_COLUMNS = dict(zip(ALL_BOUNDS, COLUMNS[2:-1]))  # bound -> its column
_CSV_SPECIAL = re.compile('[,"\r\n]')  # a CSV field holding one is quoted


class ConfigError(Exception):
    pass


def _add_common(parser):
    parser.add_argument("--source", default="laplacian",
                        help="laplacian | gaussian | csv:PATH (default laplacian)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="Laplacian rate parameter (default 1.0)")
    parser.add_argument("--sigma2", type=float, default=1.0,
                        help="Gaussian variance (default 1.0)")
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="half-width of the forgiven error band (default 0)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of bounds/ba sweeps, one share of the grid "
                             "each, at most the CPU count (default 1; 0: all CPUs)")


def _add_grid(parser):
    parser.add_argument("--units", choices=["nats", "bits"], default="nats")
    parser.add_argument("--grid-min", type=float, default=0.5)
    parser.add_argument("--grid-max", type=float, default=200.0)
    parser.add_argument("--grid-count", type=int, default=20)
    parser.add_argument("--grid-scale", choices=["log", "linear"], default="log")
    parser.add_argument("--grid-var", choices=["s", "d"], default="s",
                        help="sweep variable: slope magnitude or distortion")


def _add_ba(parser):
    parser.add_argument("--ba-n", type=int, default=2001)
    parser.add_argument("--ba-max-iter", type=int, default=20_000)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rdbounds parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rdbounds",
        description="Rate-distortion bounds for the epsilon-insensitive distortion measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="sweep bounds over a grid")
    _add_common(p_bounds)
    _add_grid(p_bounds)
    _add_ba(p_bounds)
    p_bounds.add_argument("--bounds", default="slb,ru,rau,rge,trivial",
                          help="comma list from {slb,ru,rau,rge,trivial,ba}")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_dmax = sub.add_parser("dmax", help="report zero-rate distortions and the SLB zero")
    _add_common(p_dmax)
    p_dmax.set_defaults(handler=cmd_dmax)

    p_ba = sub.add_parser("ba", help="Blahut-Arimoto sweep only")
    _add_common(p_ba)
    _add_grid(p_ba)
    _add_ba(p_ba)
    p_ba.set_defaults(handler=cmd_bounds, bounds="ba")

    p_verify = sub.add_parser("verify", help="run cross-module consistency checks")
    _add_common(p_verify)
    _add_ba(p_verify)
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def _source_and_loss(args) -> tuple[Source, EpsilonLoss]:
    """The configured source and loss; an unknown or unreadable source and an
    out-of-range parameter are configuration errors."""
    kind = args.source
    try:
        if kind == "laplacian":
            source = Laplacian(alpha=args.alpha)
        elif kind == "gaussian":
            source = Gaussian(sigma2=args.sigma2)
        elif kind.startswith("csv:"):
            try:
                source = load_tabulated_csv(kind[4:])
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load tabulated source: {exc}") from exc
        else:
            raise ConfigError(f"unknown source kind: {kind!r}")
        return source, EpsilonLoss(args.epsilon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_points(args, loss) -> tuple[np.ndarray, np.ndarray]:
    """The (s, D) arrays of the sweep, one entry per grid value, from validated grid bounds."""
    lo, hi, count = args.grid_min, args.grid_max, args.grid_count
    if count < 1:
        raise ConfigError("grid-count must be >= 1")
    for name, value in (("grid-min", lo), ("grid-max", hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    if args.grid_var == "s":
        lo, hi = abs(lo), abs(hi)
    if not (lo > 0 and hi > 0):
        raise ConfigError("grid bounds must be nonzero (slope magnitudes or distortions)")
    if lo > hi:
        lo, hi = hi, lo
    spaced = np.geomspace if args.grid_scale == "log" else np.linspace
    return _pairs(spaced(lo, hi, count), args.grid_var, loss)


def _pairs(values, var, loss) -> tuple[np.ndarray, np.ndarray]:
    """The arrays s and D of slope magnitudes (``var="s"``) or distortions
    (``var="d"``); a value whose pair is not s < 0 < D, both finite, is a
    configuration error, and the first such value is named."""
    values, eps = np.asarray(values, dtype=float), loss.epsilon
    with np.errstate(all="ignore"):
        s = -values if var == "s" else _slope_of_distortion(values, eps)
        d = _distortion_of_slope(s, eps) if var == "s" else values
    # an extreme grid value can round D to 0 or inf, or s to -0.0
    bad = np.flatnonzero(~((-np.inf < s) & (s < 0.0) & (0.0 < d) & (d < np.inf)))
    if bad.size:
        v, s_v, d_v = (float(a[bad[0]]) for a in (values, s, d))
        raise ConfigError(f"grid value {v:g} gives s = {s_v!r}, D = {d_v!r}; every grid "
                          "value must give s < 0 < D, both finite")
    return s, d


def _sweep_rows(source, loss, selected, points, ba_n, args):
    """The raw table of a sweep at ``points``, a pair of arrays (s, D): per rate
    column a list of raw rates, NaN where there is none, and per point its notes
    (at most one a bound) and BA solve.  A closed-form column, R_U's too, is one
    body call under np.errstate, a non-finite entry noted as an error; a column
    whose call raises is taken a point at a time, as BA always is, so that each
    failure is noted on its own row with its exception text."""
    s, d = points
    n, eps, lap = s.size, loss.epsilon, isinstance(source, Laplacian)
    notes, solves = [{} for _ in range(n)], [None] * n
    table = dict(s=s.tolist(), D=d.tolist(), notes=notes, ba=solves)
    table.update((col, [math.nan] * n) for col in RATE_COLUMNS.values())

    def solve(i):
        # tol = inf makes every step a stall, so the solve stops at the first iterate
        # whose Blahut gap is <= 1e-4 nats (ba._CERTIFIED_GAP), or uncertified at the cap
        solves[i] = result = ba_mod.ba_iterate(
            ba_mod.build_problem(source, loss, table["s"][i], n=ba_n), tol=math.inf,
            max_iter=args.ba_max_iter)
        if math.isfinite(result.rate) and not result.converged:
            notes[i]["ba"] = "ba_not_converged"
        return result.rate

    columns = {  # bound -> its raw rates at the points of the slice k
        "slb": lambda k: bounds_mod._shannon_lower_bound(d[k], source.differential_entropy(),
                                                         eps),
        "ru": lambda k: bounds_mod._convolution_upper_bounds(source, s[k], loss),
        "rau": lambda k: bounds_mod._analytic_upper_bound_laplacian(s[k], source.alpha, eps),
        "rge": lambda k: bounds_mod._gaussian_entropy_bound(source, s[k], eps),
        "trivial": lambda k: bounds_mod._trivial_upper_bound_laplacian(d[k], source.alpha),
        "ba": lambda k: [solve(i) for i in range(n)[k]],
    }

    def cell(bound, i):
        """Row i's raw rate of bound alone, or NaN with the error it raises noted."""
        try:
            return columns[bound](slice(i, i + 1))[0]
        except (ValueError, ArithmeticError) as exc:
            notes[i][bound] = f"{bound}_error:{exc}"
            return math.nan

    for bound, column in columns.items():
        if bound not in selected:
            continue
        if bound in ("rau", "trivial") and not lap:
            for row in notes:
                row[bound] = f"{bound}_unsupported"
            continue
        # a closed form can overflow or divide by an underflowed term at an
        # extreme slope; that entry is noted, and the rest of the column stands
        with np.errstate(all="ignore"):
            try:
                raw = None if bound == "ba" else column(slice(None))
            except (ValueError, ArithmeticError):
                raw = None
            if raw is None:
                raw = np.array([cell(bound, i) for i in range(n)])
        finite = np.isfinite(raw)
        table[RATE_COLUMNS[bound]] = np.where(finite, raw, math.nan).tolist()
        for i in np.flatnonzero(~finite).tolist():
            notes[i].setdefault(bound, f"{bound}_error:non-finite")
    return table


def _take(table, rows):
    """The table's rows at the indices ``rows``, in that order."""
    return {key: [column[i] for i in rows] for key, column in table.items()}


def _emit(table, args):
    """Clamp at zero, convert units and flag the raw columns of a sweep; report the table."""
    scale = math.log(2.0) if args.units == "bits" else 1.0
    raw = np.array([table[col] for col in RATE_COLUMNS.values()])  # NaN: an empty cell
    rates = ((np.maximum(raw, 0.0) + 0.0) / scale).tolist()  # + 0.0: a zero prints unsigned
    flags = [";".join(notes[b] if b in notes else f"{b}_clamped:{v:.6g}"
                      for b, v in zip(ALL_BOUNDS, values) if b in notes or v < 0.0)
             if notes or clamped else "" for notes, clamped, values in
             zip(table["notes"], (raw < 0.0).any(axis=0).tolist(), zip(*raw.tolist()))]
    if args.format == "json":
        rows = [dict(zip(COLUMNS, [s, d, *(None if v != v else v for v in values), f]))
                for s, d, values, f in zip(table["s"], table["D"], zip(*rates), flags)]
        return _report(args, {"columns": COLUMNS, "units": args.units, "rows": rows}, ())
    cells = [[f"{v:.12g}" for v in table[col]] for col in ("s", "D")]
    cells += [["" if v != v else f"{v:.12g}" for v in column] for column in rates]
    # a note may quote an exception's comma; numbers never do
    quoted = ['"' + f.replace('"', '""') + '"' if _CSV_SPECIAL.search(f) else f for f in flags]
    _report(args, None, [",".join(COLUMNS), *map(",".join, zip(*cells, quoted))])


def _report(args, payload, lines):
    """The one writer: ``payload`` as JSON under ``--format json``, otherwise
    ``lines``, to ``--output`` or stdout; an unwritable output is a
    configuration error."""
    text = (json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def cmd_bounds(args) -> int:
    source, loss = _source_and_loss(args)
    selected = tuple(b.strip() for b in args.bounds.split(",") if b.strip())
    unknown = set(selected) - set(ALL_BOUNDS)
    if unknown:
        raise ConfigError(f"unknown bounds: {sorted(unknown)}; choose from {ALL_BOUNDS}")
    if not selected:
        raise ConfigError("at least one bound must be selected")
    s, d = _grid_points(args, loss)
    cpus = os.cpu_count() or 1
    workers = min(args.threads or cpus, cpus, s.size)
    shares = [slice(i, None, workers) for i in range(workers)]

    def sweep(share):
        return _sweep_rows(source, loss, selected, (s[share], d[share]), args.ba_n, args)

    # one task per worker, over every workers-th point; the rows go back into
    # grid order before the stable sort, so the output cannot depend on --threads.
    # One worker maps on the calling thread: an executor starts no thread
    # before its first task, so that sweep costs no pool round
    table = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for share, part in zip(shares, (map if workers == 1 else pool.map)(sweep, shares)):
            for key, column in part.items():
                table.setdefault(key, [None] * s.size)[share] = column
    _emit(_take(table, sorted(range(s.size), key=table["D"].__getitem__)), args)
    return 0


def cmd_dmax(args) -> int:
    source, loss = _source_and_loss(args)
    d_eps = source.d_max(loss)
    d_zero = source.d_max(EpsilonLoss(0.0))
    report = {"epsilon": loss.epsilon, "d_max_eps": d_eps, "d_max_zero": d_zero}
    try:
        root = bounds_mod.slb_zero(source, loss)
        report["slb_zero"] = root
        if loss.epsilon > 0.0 and isinstance(source, Laplacian):
            # the first gap is below an ulp of either value at small eps
            ordered = min(bounds_mod.laplacian_dmax_gaps(source.alpha, loss)) > 0.0
        elif loss.epsilon > 0.0:
            ordered = root < d_eps < d_zero
        else:
            # equal for a Laplacian: allow round-off relative to the scale
            ordered = root <= d_eps * (1.0 + 1e-12) and d_eps <= d_zero + 1e-12
        report["ordered"] = bool(ordered)
    except ValueError as exc:
        report["slb_zero"] = None
        report["error"] = str(exc)
        report["ordered"] = False
    zero = (f"{report['slb_zero']:.12g}" if report["slb_zero"] is not None
            else f"unavailable ({report['error']})")
    lines = [f"slb_zero   = {zero}", f"d_max_eps  = {d_eps:.12g}", f"d_max_zero = {d_zero:.12g}",
             "ordering   = " + ("OK" if report["ordered"] else "VIOLATED")]
    _report(args, report, lines)
    return 0 if report["ordered"] else 1


def _verify_checks(source, loss, args) -> list[dict]:
    """Every bound and BA value here is read off ``_sweep_rows`` tables."""
    from .spectral import tilted_cf

    def sweep(selected, values, n=args.ba_n, var="s"):
        return _sweep_rows(source, loss, selected, _pairs(values, var, loss), n, args)

    # closed form of the lower bound against its slope-parametric route
    h_p = source.differential_entropy()
    ds = np.geomspace(1e-3, max(source.d_max(loss), 1e-2), 50)
    slb = sweep(("slb",), ds, var="d")
    worst = max(abs(v - (h_p - tilted_entropy(s, loss))) for s, v in zip(slb["s"], slb["R_slb"]))
    checks = [_limit_check("slb_two_route", "max_abs_diff", worst, 1e-12)]

    # upper-bound dominance at matched slopes, over the rows holding both cells
    dominance = sweep(("ru", "rau", "rge"), np.geomspace(0.5, 50.0, 12))
    for name, col in (("dominance_ru_rge", "R_ge"), ("dominance_ru_rau", "R_au")):
        if col == "R_ge" or isinstance(source, Laplacian):
            excess = [u - v for u, v in zip(dominance["R_u"], dominance[col])]
            worst = max((e for e in excess if not math.isnan(e)), default=None)
            checks.append(_limit_check(name, "max_excess", worst, 1e-9, [dominance]))

    # kernel CF against the cosine transform of its density, in closed form: the
    # flat band's 2 sin(omega eps) / (omega C) and the tail's, e^{s t} / C in
    # t = x - eps, 2 (|s| cos omega eps - omega sin omega eps) / ((s^2 + omega^2) C)
    eps_cf = loss.epsilon if loss.epsilon > 0 else 0.1
    loss_cf = EpsilonLoss(eps_cf)
    worst = 0.0
    for s in (-1.0, -5.0, -20.0):
        for omega in (0.3, 1.0, 3.7, 10.0):
            cos_eps, sin_eps = math.cos(omega * eps_cf), math.sin(omega * eps_cf)
            tail = (-s * cos_eps - omega * sin_eps) / (s * s + omega * omega)
            direct = 2.0 * (sin_eps / omega + tail) / normalizer(s, loss_cf)
            worst = max(worst, abs(direct - tilted_cf(omega, s, loss_cf)))
    checks.append(_limit_check("cf_consistency", "max_abs_diff", worst, 1e-12))

    # BA sandwich between the lower bound and the (clamped) convolution upper
    # bound; a row whose BA or R_U cell failed fails the check instead
    sandwich = sweep(("slb", "ru", "ba"), (2.0, 5.0, 20.0))
    excess = [e for lo, u, ba in zip(sandwich["R_slb"], sandwich["R_u"], sandwich["R_ba"])
              if not math.isnan(u + ba) for e in (lo - ba, ba - max(0.0, u))]
    checks.append(_limit_check("ba_sandwich", "max_excess", max(excess, default=None), 2e-2,
                               [sandwich]))

    # grid-convergence of the BA point at a reference slope: the odd n nearest
    # half of --ba-n against the sandwich's own s = -5 solve
    n_coarse = max((args.ba_n // 2) | 1, 3)
    pair = [sweep(("ba",), (5.0,), n_coarse), _take(sandwich, [1])]
    (coarse,), (fine,) = (table["ba"] for table in pair)
    drift = (None if any(math.isnan(table["R_ba"][0]) for table in pair)
             else max(abs(coarse.distortion - fine.distortion), abs(coarse.rate - fine.rate)))
    same = [f"coarse grid n={n_coarse} is the --ba-n grid itself"] if n_coarse == args.ba_n else []
    checks.append(_limit_check("ba_grid_convergence", "max_change", drift, 5e-3, pair, same))
    return checks


def _limit_check(name, key, value, tol, tables=(), errors=()) -> dict:
    """A verify check that value <= tol.  A failed cell of any row of its tables, a
    given error or a BA solve left uncertified at the cap fails it and is listed."""
    errors = [note for table in tables for notes in table["notes"] for note in notes.values()
              if "_error:" in note] + [*errors]
    stalled = [s for table in tables for s, result in zip(table["s"], table["ba"])
               if result is not None and not result.converged]
    check = {"name": name, key: value, "tol": tol,
             "passed": not errors and not stalled and value <= tol}
    if errors:
        check["errors"] = errors
    if stalled:
        check["not_converged"] = stalled
    return check


def cmd_verify(args) -> int:
    source, loss = _source_and_loss(args)
    checks = _verify_checks(source, loss, args)
    passed = all(c["passed"] for c in checks)
    payload = {"source": args.source, "epsilon": loss.epsilon, "n": args.ba_n,
               "checks": checks, "passed": passed}
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} "
             + json.dumps({k: v for k, v in c.items() if k not in ("name", "passed")})
             for c in checks]
    lines.append("result: " + ("PASS" if passed else "FAIL"))
    _report(args, payload, lines)
    return 0 if passed else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # None: sys.argv[1:]
        if args.threads < 0:
            raise ConfigError("threads must be >= 0 (0 means machine parallelism)")
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
