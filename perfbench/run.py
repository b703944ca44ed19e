"""rdbounds benchmark: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it is a separate traced run that reports per-layer metrics.
Every line but the last is a human-readable report (metrics by name and unit,
the environment stamp, failures); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads; timed runs are single-threaded.
# One malloc arena: the CLI starts a worker thread per call, and per-thread
# arenas made peak RSS wander by 15 % from run to run.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_ARENA_MAX": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [p for p in (SRC, ROOT) if p not in sys.path]

# the oracles (scipy.integrate) load only after peak RSS is read
from perfbench import tracing, workloads  # noqa: E402
DEFAULT_SEED = 1
ALLOWED_CPUS = os.sched_getaffinity(0)  # before pin_fastest_cpu narrows it
SETUP_STARTS = 5
MIN_PASSES = 2
THREADS = 1  # the CLI's --threads for timed calls; only cli.speedup_2t uses 2
MAX_TRACED_PASSES = 20
# Gated times are CPU times scaled by PROBE_REF_S / (the CPU time of a fixed
# probe measured around them).  Over 150 s on a shared machine the CPU time of
# one BA solve spread by 39 % (IQR over median) while the scaled figure spread
# by 10 %: the probe follows the machine's speed, which drifts by 25 % within
# minutes, and not the program's.
PROBE_REF_S = 0.025
PROBE_EVERY_S = 1.0

# name -> (unit, better, bound); must match BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ru_err_max": ("nats", "lower", 0.2),
}
# printed on every run but not gated, each with the reason it is not in
# BENCHMARK.json, whose end-to-end metrics every workload must report
WALL_REASON = ("the shared machine time-slices its CPUs between tenants: one BA solve "
               "read 1.5 s or 3.3 s of wall time by CPU, and 1.5-1.8 s of CPU time")
REPORTED = {
    "wall_s": ("s", WALL_REASON + "; gated as pass_cpu_s"),
    "call_p50_s": ("s", WALL_REASON + "; its CPU-time form, call_cpu_p50_s, is printed "
                   "too but moved by 10-35 % between runs on ba-reference, whose calls "
                   "each run twice a run"),
    "call_tail_s": ("s", "numeric-conv makes 3 calls a pass, too few for the rule "
                    "(10 samples beyond the percentile) in one run"),
    "fail_share": ("share", "0 on closed-form and numeric-conv, and a gated metric "
                   "must never be 0; the counts are the result's attempted/failed"),
    "ba_gap_max": ("nats", "ba-reference only; gated by KNOWN_FAILURES ceilings and "
                   "recorded as per-layer ba.gap_max"),
    "sandwich_excess_max": ("nats", "ba-reference only; gated by the 2e-2 check and "
                            "recorded as per-layer ba.sandwich_excess_max"),
    "exact_curve_err": ("nats", "ba-reference only; gated by KNOWN_FAILURES ceilings "
                        "and recorded as per-layer ba.exact_curve_err"),
}
PER_LAYER_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s",
}


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.{k}", u) for k, u in PER_LAYER_UNITS.items()]
    out += [
        ("tilted.us_per_call", "us"),
        ("bounds.closed_form_us", "us"),
        ("bounds.ru_ms.laplacian", "ms"),
        ("bounds.ru_ms.gaussian", "ms"),
        ("bounds.ru_ms.tabulated", "ms"),
        ("bounds.slb_zero_ms", "ms"),
        ("sources.d_max_us", "us"),
        ("spectral.us_per_call", "us"),
        ("convolution.conv_entropy_ms", "ms"),
        ("convolution.conv_pdf_points", "count"),
        ("quadrature.nodes", "count"),
        ("ba.build_ms", "ms"),
        ("ba.iterations", "count"),
        ("ba.us_per_iter.n2001", "us"),
        ("ba.us_per_iter.n1001", "us"),
        ("ba.certified_share", "share"),
        ("ba.gap_max", "nats"),
        ("ba.sandwich_excess_max", "nats"),
        ("ba.exact_curve_err", "nats"),
        ("cli.import_s", "s"),
        ("cli.speedup_2t", "x"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


SETUP_SNIPPET = """
import sys, os
import rdbounds.cli
from perfbench.workloads import WORKLOADS
w = WORKLOADS[sys.argv[1]]
os.makedirs(sys.argv[3], exist_ok=True)
inp = w.make_inputs(int(sys.argv[2]), sys.argv[3])
label, fn = w.calls(inp, 1)[0]
fn()
"""


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_starts(snippet, args, starts):
    """Median over ``starts`` fresh interpreters running snippet of their CPU
    time (user + system), each scaled by the probe taken before and after it."""
    times = []
    before = probe()
    for _ in range(starts):
        t0 = _children_cpu()
        proc = subprocess.run([sys.executable, "-c", snippet, *args], env=_child_env(),
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        cpu = _children_cpu() - t0
        after = probe()
        times.append(cpu * 2.0 * PROBE_REF_S / (before + after))
        before = after
        if proc.returncode != 0:
            raise RuntimeError(f"fresh start failed: {proc.stderr.decode()[-2000:]}")
    return statistics.median(times)


def fingerprint(result):
    """Hashable identity of a call's output (equal outputs get one verdict)."""
    if isinstance(result, BaseException):
        return ("raised", repr(result))
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "q_mass"):
        problem, res = result
        digest = hashlib.sha256(res.q_mass.tobytes()).hexdigest()
        return ("ba", problem.s, problem.x_grid.size, res.iterations, res.rate,
                res.distortion, res.converged, digest)
    return result


class Runner:
    """Runs passes of one workload and checks every pass's outputs."""

    def __init__(self, workload, inp):
        self.workload = workload
        self.inp = inp
        self.outputs = {}  # fingerprint -> first result with that fingerprint
        self.canonical = {}  # fingerprint -> the first equal fingerprint object
        self.passes = []  # (start, wall, cpu, [(label, wall, cpu, fingerprint, start)])
        self.probes = []  # (time, probe CPU seconds)

    def run_pass(self, calls, call=None):
        """Run one pass; return its (wall, CPU) seconds.

        CPU time is the process's, so it counts the CLI's worker threads.
        """
        items = []
        p0, p0_cpu = time.perf_counter(), time.process_time()
        for label, fn in calls:
            if time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
                self.probes.append((time.perf_counter(), probe()))
            c0, c0_cpu = time.perf_counter(), time.process_time()
            try:
                res = call(label, fn) if call else fn()
            except Exception as exc:  # a failing call is counted, not fatal
                res = exc
            latency, cpu = time.perf_counter() - c0, time.process_time() - c0_cpu
            fp = fingerprint(res)
            if fp in self.outputs:
                fp = self.canonical[fp]  # drop this pass's copy of an equal output
            else:
                self.outputs[fp], self.canonical[fp] = res, fp
            items.append((label, latency, cpu, fp, c0))
        wall, cpu = time.perf_counter() - p0, time.process_time() - p0_cpu
        self.passes.append((p0, wall, cpu, items))
        return wall, cpu

    def run_for(self, calls, seconds, min_passes=1, max_passes=None, call=None, before=None):
        times = []
        t0 = time.perf_counter()
        if not self.probes:
            self.probes.append((time.perf_counter(), probe()))
        while True:
            if before:
                before(len(times))
            times.append(self.run_pass(calls, call))
            done = time.perf_counter() - t0 >= seconds and len(times) >= min_passes
            if done or (max_passes and len(times) >= max_passes):
                self.probes.append((time.perf_counter(), probe()))
                return times

    def scaled_cpu(self):
        """Each pass's CPU time, call by call times PROBE_REF_S over the mean
        of the probes taken last before the call and first after it."""
        out = []
        for _, _, _, items in self.passes:
            total = 0.0
            for _, wall, cpu, _, start in items:
                before = [p for t, p in self.probes if t <= start][-1]
                after = next(p for t, p in self.probes if t >= start + wall)
                total += cpu * 2.0 * PROBE_REF_S / (before + after)
            out.append(total)
        return out

    def check(self):
        """Check every call of every pass, then the accuracy against the oracles.

        Returns (attempted, failed, unexpected failures, memo, accuracy).
        Outputs of one label must repeat exactly from pass to pass.
        """
        memo, verdicts, first = {}, {}, {}
        attempted = failed = 0
        unexpected = []
        for _, _, _, items in self.passes:
            for i, (label, _, _, fp, _) in enumerate(items):
                if first.setdefault(i, fp) != fp:
                    unexpected.append(f"{label}: output differs between passes")
                if fp not in verdicts:
                    res = self.outputs[fp]
                    if isinstance(res, BaseException):
                        verdicts[fp] = [{"raised": 1.0}]
                    else:
                        verdicts[fp] = self.workload.check(label, res, memo)
                for bad in verdicts[fp]:
                    attempted += 1
                    if bad:
                        failed += 1
                        unexpected += _unexpected(label, bad)
        acc, acc_verdicts = self.workload.accuracy(self.inp, memo)
        attempted += len(acc_verdicts)
        failed += sum(1 for bad in acc_verdicts if bad)
        for bad in acc_verdicts:
            unexpected += _unexpected("ru_oracle", bad)
        return attempted, failed, sorted(set(unexpected)), memo, acc


def _unexpected(label, failures):
    out = []
    for check, value in failures.items():
        ceiling = workloads.KNOWN_FAILURES.get((label, check))
        if ceiling is None or not value <= ceiling:
            out.append(f"{label}: {check} = {value:.6g}"
                       + ("" if ceiling is None else f" above ceiling {ceiling:g}"))
    return out


def env_stamp(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "threads": THREADS,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def probe(clock=time.process_time):
    """Least time of three runs of a fixed FFT + Python loop that does not
    touch rdbounds, so it follows the machine's speed and not the program's."""
    x = np.linspace(0.0, 1.0, 4096)
    best = math.inf
    for _ in range(3):
        t0 = clock()
        for _ in range(200):
            np.fft.irfft(np.fft.rfft(x))
            sum(i * 0.5 for i in range(500))
        best = min(best, clock() - t0)
    return best


def pin_fastest_cpu():
    """Pin this process (and its children) to the CPU that runs a probe fastest.

    The CPUs of a shared machine differ in speed as other tenants come and
    go (on the machine the benchmark was sized on, one ran passes 1.6x slower
    than the other); migrating between them made every time bimodal.
    """
    wall = {}
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        wall[cpu] = probe(time.perf_counter)
    best = min(wall, key=wall.get)
    os.sched_setaffinity(0, {best})
    return best, {c: round(t * 1e3, 2) for c, t in wall.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples, beyond: int = 10):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, count), or None when there are too few
    samples for the rule.
    """
    values = sorted(samples)
    n = len(values)
    rank = n - beyond
    if rank < 1:
        return None
    return values[rank - 1], 100.0 * rank / n, n


def report(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def timed_run(args, workload, workdir):
    setup_dir = os.path.join(workdir, "setup")
    setup_s = fresh_starts(SETUP_SNIPPET, [args.workload, str(args.seed), setup_dir],
                           SETUP_STARTS)
    inp = workload.make_inputs(args.seed, workdir)
    calls = workload.calls(inp, THREADS)
    calls[0][1]()  # the cold call: lazy set-up is paid before timing
    runner = Runner(workload, inp)
    gc.collect()
    times = runner.run_for(calls, args.seconds, MIN_PASSES)
    rss = peak_rss_mb()
    attempted, failed, unexpected, memo, acc = runner.check()
    latencies = [lat for _, _, _, items in runner.passes for _, lat, _, _, _ in items]
    # printed only: each call at its least CPU time in the run
    fastest_calls = [min(cpus) for cpus in zip(*([cpu for _, _, cpu, _, _ in items]
                                                 for _, _, _, items in runner.passes))]
    metrics = {
        "setup_s": setup_s,
        "pass_cpu_s": statistics.median(runner.scaled_cpu()),
        "peak_rss_mb": rss,
        "ru_err_max": acc["ru_err_max"],
    }
    for name, value in metrics.items():
        report(name, value, END_TO_END[name][0])
    print(f"passes {len(times)}; calls {len(latencies)}")
    report("pass_cpu_raw_s", statistics.median(cpu for _, cpu in times), "s",
           " (median pass, not scaled)")
    report("wall_s", statistics.median(wall for wall, _ in times), "s", " (median pass)")
    report("call_p50_s", statistics.median(latencies), "s")
    report("call_cpu_p50_s", statistics.median(fastest_calls), "s",
           " (median over calls of each call's least CPU time)")
    tail = tail_percentile(latencies)
    if tail:
        report("call_tail_s", tail[0], "s", f" (p{tail[1]:.1f} of {tail[2]} calls)")
    else:
        print(f"metric call_tail_s dropped: {len(latencies)} calls, the rule needs 11")
    report("fail_share", failed / attempted, "share", f" ({failed} of {attempted})")
    for name in ("ba_gap_max", "sandwich_excess_max", "exact_curve_err"):
        if name in acc:
            report(name, acc[name], "nats")
    return metrics, attempted, failed, unexpected


def traced_run(args, workload, workdir):
    import_s = fresh_starts("import rdbounds.cli", [], SETUP_STARTS)
    inp = workload.make_inputs(args.seed, workdir)
    calls = workload.calls(inp, THREADS)
    calls[0][1]()
    runner = Runner(workload, inp)
    half = args.seconds / 2.0
    untraced = runner.run_for(calls, half)
    n_untraced = len(runner.passes)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_for(calls, half, max_passes=MAX_TRACED_PASSES,
                                call=tracer.top_level,
                                before=lambda i: setattr(tracer, "pass_no", i))
    finally:
        tracer.uninstall()

    speedup = 0.0
    if any(label.startswith(("sweep", "dmax")) for label, _ in calls):
        # two threads need both CPUs; the CLI promises identical bytes for any
        # --threads, which check() verifies
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, ALLOWED_CPUS)
        try:
            one = runner.run_for(calls, half / 2.0)
            two = runner.run_for(workload.calls(inp, 2), half / 2.0)
        finally:
            os.sched_setaffinity(0, pinned)
        speedup = min(wall for wall, _ in one) / min(wall for wall, _ in two)
    attempted, failed, unexpected, memo, acc = runner.check()

    metrics, uneven = layer_metrics(tracer.spans, len(traced))
    unexpected += uneven
    metrics["cli.import_s"] = import_s
    metrics["cli.speedup_2t"] = speedup
    metrics["trace.overhead_s"] = (min(cpu for _, cpu in traced)
                                   - min(cpu for _, cpu in untraced))
    gaps = [m["gap"] for m in memo.get("measures", [])]
    metrics["ba.certified_share"] = (sum(g <= workloads.GAP_TARGET for g in gaps) / len(gaps)
                                     if gaps else 0.0)
    for src, dst in (("ba_gap_max", "ba.gap_max"), ("sandwich_excess_max",
                                                     "ba.sandwich_excess_max"),
                     ("exact_curve_err", "ba.exact_curve_err")):
        metrics[dst] = acc.get(src, 0.0)
    for name, unit in per_layer_names():
        report(name, metrics[name], unit)
    print(f"passes untraced {n_untraced}, traced {len(traced)}; "
          f"fastest pass CPU untraced {min(c for _, c in untraced):.6g} s, "
          f"traced {min(c for _, c in traced):.6g} s")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for sp in tracer.spans:
            handle.write(json.dumps(sp.as_dict(), separators=(",", ":")) + "\n")
    print(f"spans written to {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    return metrics, attempted, failed, unexpected


CLOSED_FORMS = {"bounds.shannon_lower_bound", "bounds.gaussian_entropy_bound",
                "bounds.analytic_upper_bound_laplacian", "bounds.trivial_upper_bound_laplacian"}


def layer_metrics(spans, n_passes):
    """Per-layer counts, busy and self times, and the named per-call figures.

    Also returns a failure line for each count that differs between passes.
    """
    selfs = tracing.self_times(spans)
    by_pass = {}
    for sp in spans:
        by_pass.setdefault(sp.pass_no, []).append(sp)
    first = by_pass.get(0, [])
    out = {}

    def mean_dur(pred, scale):
        d = [sp.end - sp.start for sp in spans if pred(sp)]
        return scale * sum(d) / len(d) if d else 0.0

    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = sum(sp.layer == layer for sp in first)
        busy = sum(tracing.layer_busy(p, layer) for p in by_pass.values())
        out[f"{layer}.busy_s"] = busy / n_passes
        out[f"{layer}.self_s"] = sum(selfs[sp.id] for sp in spans if sp.layer == layer) / n_passes
    out["tilted.us_per_call"] = mean_dur(lambda sp: sp.layer == "tilted", 1e6)
    out["bounds.closed_form_us"] = mean_dur(lambda sp: sp.name in CLOSED_FORMS, 1e6)
    for fam in ("laplacian", "gaussian", "tabulated"):
        out[f"bounds.ru_ms.{fam}"] = mean_dur(
            lambda sp, fam=fam: sp.name == "bounds.convolution_upper_bound" and sp.tag == fam,
            1e3)
    out["bounds.slb_zero_ms"] = mean_dur(lambda sp: sp.name == "bounds.slb_zero", 1e3)
    out["sources.d_max_us"] = mean_dur(lambda sp: sp.name == "sources.d_max", 1e6)
    out["spectral.us_per_call"] = mean_dur(lambda sp: sp.layer == "spectral", 1e6)
    out["convolution.conv_entropy_ms"] = mean_dur(
        lambda sp: sp.name == "convolution.conv_entropy", 1e3)
    out["convolution.conv_pdf_points"] = sum(sp.count for sp in first
                                             if sp.name == "convolution.conv_pdf")
    out["quadrature.nodes"] = sum(sp.count for sp in first
                                  if sp.name == "quadrature.panel_nodes")
    out["ba.build_ms"] = mean_dur(lambda sp: sp.name == "ba.build_problem", 1e3)
    out["ba.iterations"] = sum(sp.count for sp in first if sp.name == "ba.ba_iterate")
    for n in ("n2001", "n1001"):
        its = [sp for sp in spans if sp.name == "ba.ba_iterate" and sp.tag == n]
        total = sum(sp.count for sp in its)
        out[f"ba.us_per_iter.{n}"] = (1e6 * sum(sp.end - sp.start for sp in its) / total
                                      if total else 0.0)
    out["trace.spans"] = len(first)
    uneven = []
    for name in ("convolution.conv_pdf", "quadrature.panel_nodes", "ba.ba_iterate"):
        per = {sum(sp.count for sp in p if sp.name == name) for p in by_pass.values()}
        if len(per) > 1:
            uneven.append(f"{name}: counts differ between traced passes: {sorted(per)}")
    return out, uneven


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "rdbounds", "__init__.py")):
        print(f"error: no rdbounds sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import rdbounds

    if not os.path.abspath(rdbounds.__file__).startswith(SRC + os.sep):
        print(f"error: rdbounds imported from {rdbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cpu, probe_ms = pin_fastest_cpu()
    stamp = {**env_stamp(args), "cpu": cpu, "cpu_probe_ms": probe_ms}
    print("env " + json.dumps(stamp, sort_keys=True))
    try:
        run = traced_run if args.trace else timed_run
        outcome = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    metrics, attempted, failed, unexpected = outcome
    for line in unexpected[:20]:
        print("unexpected failure: " + line)
    units = ({k: v[0] for k, v in END_TO_END.items()} if not args.trace
             else dict(per_layer_names()))
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    print(json.dumps({
        "correct": not unexpected and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
