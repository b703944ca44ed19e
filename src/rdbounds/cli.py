"""Command-line front end: bound sweeps, endpoint reports, BA curves, verification.

Subcommands
-----------
bounds   sweep selected bounds over a slope or distortion grid (CSV/JSON)
dmax     report the zero-crossing of the lower bound and both zero-rate
         distortions, asserting their ordering
ba       Blahut-Arimoto sweep only: ``bounds --bounds ba``
verify   cross-module consistency checks; exit 0 iff all pass

``_pairs`` turns grid values into (s, D) points and ``_sweep_rows`` computes
every cell, BA's through the same catch as every bound's: per point, raw rates,
one note per bound at most and the BA solve's result, R_U in one batched call.
A BA solve stops at its first iterate that Blahut's gap certifies within 1e-4
nats; one still uncertified at ``--ba-max-iter`` is flagged and fails ``verify``.
``bounds``/``ba`` give it one share of the grid per ``--threads`` worker (a
single worker runs on the calling thread, with no pool thread) and
``verify`` reads its checks off its rows.  ``_emit`` alone formats a cell and
``_report`` alone writes output.

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
from .tilted import (EpsilonLoss, distortion_of_slope, normalizer, slope_of_distortion,
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


def _grid_points(args, loss) -> list[tuple[float, float]]:
    """(s, d) pairs of the sweep, one per grid value, from validated grid bounds."""
    lo, hi = args.grid_min, args.grid_max
    count = args.grid_count
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


def _pairs(values, var, loss) -> list[tuple[float, float]]:
    """(s, d) pairs of slope magnitudes (``var="s"``) or distortions (``var="d"``);
    a value whose pair is not s < 0 < D, both finite, is a configuration error."""
    points = []
    for v in values:
        if var == "s":
            s = -float(v)
            d = distortion_of_slope(s, loss)
        else:
            d = float(v)
            s = slope_of_distortion(d, loss)
        # an extreme grid value can round D to 0 or inf, or s to -0.0
        if not -math.inf < s < 0.0 < d < math.inf:
            raise ConfigError(f"grid value {v:g} gives s = {s!r}, D = {d!r}; every grid "
                              "value must give s < 0 < D, both finite")
        points.append((s, d))
    return points


def _fmt(value) -> str:
    return "" if value is None else f"{value:.12g}"


def _sweep_rows(source, loss, selected, points, ba_n, args):
    """One row per (s, d) point: the raw rate of each column (None where not
    computed), at most one note per bound, the notes of its failed cells and
    the BA solve's ``BAResult``; every cell, BA's too, takes one catch.  R_U is
    one batch over the points; a slope whose layout fails takes the batch down,
    and then each slope is taken alone, so its failure is noted on its own row."""
    try:
        ru = (bounds_mod.convolution_upper_bounds(source, [s for s, _ in points], loss)
              if "ru" in selected else None)
    except (ValueError, ArithmeticError):
        ru = None
    rows = []
    for i, (s, d) in enumerate(points):
        row = dict(s=s, D=d, **dict.fromkeys(RATE_COLUMNS.values()), notes={}, errors=[], ba=None)
        notes = row["notes"]
        cells = {
            "slb": lambda: bounds_mod.shannon_lower_bound(d, source.differential_entropy(), loss),
            "ru": lambda: (ru[i] if ru is not None
                           else bounds_mod.convolution_upper_bound(source, s, loss)).raw_rate,
            "rau": lambda: bounds_mod.analytic_upper_bound_laplacian(s, source.alpha,
                                                                      loss).raw_rate,
            "rge": lambda: bounds_mod.gaussian_entropy_bound(source, s, loss).raw_rate,
            "trivial": lambda: bounds_mod.trivial_upper_bound_laplacian(d, source.alpha),
            # tol = inf makes every step a stall, so the solve stops at the first iterate
            # whose Blahut gap is <= 1e-4 nats (ba._CERTIFIED_GAP), or uncertified at the cap
            "ba": lambda: ba_mod.ba_iterate(ba_mod.build_problem(source, loss, s, n=ba_n),
                                            tol=math.inf, max_iter=args.ba_max_iter),
        }
        for bound, compute in cells.items():
            if bound not in selected:
                continue
            if bound in ("rau", "trivial") and not isinstance(source, Laplacian):
                notes[bound] = f"{bound}_unsupported"
                continue
            # a closed form can overflow or divide by an underflowed term at an
            # extreme slope; that cell is noted, and the rest of the row stands
            try:
                raw = compute()
                if bound == "ba":  # the row keeps the solve; its rate is the cell
                    row["ba"], raw = raw, raw.rate
                failure = None if math.isfinite(raw) else "non-finite"
            except (ValueError, ArithmeticError) as exc:
                failure = exc
            if failure is not None:
                notes[bound] = f"{bound}_error:{failure}"
                row["errors"].append(notes[bound])
                continue
            row[RATE_COLUMNS[bound]] = raw
            if bound == "ba" and not row["ba"].converged:
                notes[bound] = "ba_not_converged"
        rows.append(row)
    return rows


def _emit(rows, args):
    """Clamp at zero, convert units and flag every cell of the raw rows; report the table."""
    scale = math.log(2.0) if args.units == "bits" else 1.0
    table = []
    for row in rows:
        cells = {"s": row["s"], "D": row["D"]}
        flags = []
        for bound, col in RATE_COLUMNS.items():
            raw = row[col]
            cells[col] = None if raw is None else max(0.0, raw) / scale
            if bound in row["notes"]:
                flags.append(row["notes"][bound])
            elif raw is not None and raw < 0.0:
                flags.append(f"{bound}_clamped:{raw:.6g}")
        cells["flags"] = ";".join(flags)
        table.append(cells)

    def lines():
        yield ",".join(COLUMNS)
        for cells in table:
            flags = cells["flags"]  # a note may quote an exception's comma; numbers never do
            if _CSV_SPECIAL.search(flags):
                flags = '"' + flags.replace('"', '""') + '"'
            yield ",".join([_fmt(cells[c]) for c in COLUMNS[:-1]] + [flags])

    # the CSV lines are a generator, so a JSON sweep builds no CSV text
    _report(args, {"columns": COLUMNS, "units": args.units, "rows": table}, lines())


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
    points = _grid_points(args, loss)
    cpus = os.cpu_count() or 1
    workers = min(args.threads or cpus, cpus, len(points))

    def sweep(share):
        return _sweep_rows(source, loss, selected, share, args.ba_n, args)

    # one task per worker, over every workers-th point; the rows go back into
    # grid order before the stable sort, so the output cannot depend on --threads.
    # One worker maps on the calling thread: an executor starts no thread
    # before its first task, so that sweep costs no pool round
    rows = [None] * len(points)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        shares = (map if workers == 1 else pool.map)(
            sweep, (points[i::workers] for i in range(workers)))
        for i, share in enumerate(shares):
            rows[i::workers] = share
    rows.sort(key=lambda row: row["D"])
    _emit(rows, args)
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
    """Every bound and BA value here is read off ``_sweep_rows`` rows."""
    from .spectral import tilted_cf

    def rows(selected, values, n=args.ba_n, var="s"):
        return _sweep_rows(source, loss, selected, _pairs(values, var, loss), n, args)

    # closed form of the lower bound against its slope-parametric route
    h_p = source.differential_entropy()
    ds = np.geomspace(1e-3, max(source.d_max(loss), 1e-2), 50)
    slb_rows = rows(("slb",), ds, var="d")
    worst = max(abs(r["R_slb"] - (h_p - tilted_entropy(r["s"], loss))) for r in slb_rows)
    checks = [_limit_check("slb_two_route", "max_abs_diff", worst, 1e-12)]

    # upper-bound dominance at matched slopes, over the rows holding both cells
    dominance = rows(("ru", "rau", "rge"), np.geomspace(0.5, 50.0, 12))
    for name, col in (("dominance_ru_rge", "R_ge"), ("dominance_ru_rau", "R_au")):
        if col == "R_ge" or isinstance(source, Laplacian):
            worst = max((r["R_u"] - r[col] for r in dominance
                         if r["R_u"] is not None and r[col] is not None), default=None)
            checks.append(_limit_check(name, "max_excess", worst, 1e-9, dominance))

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
    sandwich = rows(("slb", "ru", "ba"), (2.0, 5.0, 20.0))
    excess = [e for r in sandwich if r["R_ba"] is not None and r["R_u"] is not None
              for e in (r["R_slb"] - r["R_ba"], r["R_ba"] - max(0.0, r["R_u"]))]
    checks.append(_limit_check("ba_sandwich", "max_excess", max(excess, default=None), 2e-2,
                               sandwich))

    # grid-convergence of the BA point at a reference slope: the odd n nearest
    # half of --ba-n against the sandwich's own s = -5 solve
    n_coarse = max((args.ba_n // 2) | 1, 3)
    pair = rows(("ba",), (5.0,), n_coarse) + sandwich[1:2]
    coarse, fine = (r["ba"] for r in pair)
    drift = (None if any(r["R_ba"] is None for r in pair)
             else max(abs(coarse.distortion - fine.distortion), abs(coarse.rate - fine.rate)))
    same = [f"coarse grid n={n_coarse} is the --ba-n grid itself"] if n_coarse == args.ba_n else []
    checks.append(_limit_check("ba_grid_convergence", "max_change", drift, 5e-3, pair, same))
    return checks


def _limit_check(name, key, value, tol, rows=(), errors=()) -> dict:
    """A verify check that value <= tol.  A failed cell of any of its rows, a given
    error or a BA solve left uncertified at the cap fails it and is listed."""
    errors = [note for r in rows for note in r["errors"]] + [*errors]
    stalled = [r["s"] for r in rows if r["ba"] is not None and not r["ba"].converged]
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
