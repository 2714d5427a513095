#!/usr/bin/env python3
"""Benchmark of the stieltjesmp pipeline: one workload per run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the run times ops in a
closed loop (one caller, no think time) for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it runs every op twice, untraced and
with span wrappers installed, and prints the per-layer metrics and the
tracing overhead.  Every metric goes to stdout with its unit; the last line
is one JSON object.  The full record (environment, per-op outcomes, spans)
is written to ``perfbench/results/``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

import os

# Pin BLAS to one thread before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: default seed, and the held-out seed on which a gain claim is re-checked
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: set-ups per run: the run's own and the rest in fresh processes, spread
#: over the timed loop; setup_s is their median
SETUP_REPEATS = 11

#: ops_per_s is the median over this many consecutive windows of ops
THROUGHPUT_WINDOWS = 5


class SetupError(RuntimeError):
    """The library could not be loaded from this checkout."""


def setup(workload, seed):
    """Import the library from ``src/``, build the workload; return it and
    the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import stieltjesmp
    except ImportError as exc:
        raise SetupError(f"cannot import stieltjesmp from {SRC}: {exc}") from exc
    origin = Path(stieltjesmp.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"stieltjesmp was imported from {origin}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


def setup_in_child(workload, seed):
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit():
    """Commit of the checkout, or ``unknown`` outside a git clone."""
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# running ops


class ChildSetups:
    """Set-ups in fresh interpreters, one each time another share of the
    timed loop has passed, so the median of set-up time samples the same
    spell of the machine as the ops do."""

    def __init__(self, workload, seed, count, seconds):
        self.workload, self.seed = workload, seed
        self.due = [seconds * j / count for j in range(count)]
        self.times = []

    def __call__(self, elapsed):
        """Run the set-ups due after ``elapsed`` seconds of the loop; return
        the seconds they took."""
        t0 = time.perf_counter()
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.times.append(setup_in_child(self.workload, self.seed))
        return time.perf_counter() - t0

    def finish(self):
        self(math.inf)
        return self.times


def run_ops(wl, seconds=None, count=None, tracer=None, pause=None):
    """Closed loop over ops 0, 1, ...: for ``seconds`` of loop time, or
    exactly ``count`` ops.  Input generation and the output checks are
    outside the timed region; ``pause(elapsed)``, if given, runs between ops
    and its time does not count against ``seconds``.

    Returns per-op seconds and per-op lists of problem records.  With a
    tracer, every op runs twice on the same inputs, untraced and traced, in
    alternating order, so the tracing overhead is measured on the same work
    at nearly the same time; the traced runs are returned as a second pair.
    """
    runs = {False: ([], []), True: ([], [])}
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        inputs = wl.inputs(i)
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                tracer.install()
                tracer.begin_op(i)
            try:
                t0 = time.perf_counter()
                out = wl.run(inputs)
                t1 = time.perf_counter()
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.end_op(i, t0, t1)
            runs[traced][0].append(t1 - t0)
            runs[traced][1].append([r.as_dict() for r in wl.check(inputs, out)])
        i += 1
        elapsed = time.perf_counter() - start - paused
        if pause is not None:
            paused += pause(elapsed)
        if count is not None:
            if i >= count:
                break
        elif elapsed >= (seconds or 0.0):
            break
    return runs[False] if tracer is None else runs[False] + runs[True]


def outcome(records):
    """Attempted problems, failures by type, round-trip errors.

    ``failed`` counts the problems that make the run incorrect: an
    unexpected exception, or a failure where the library is not known to
    fail.  The library's known failures (the baseline) are counted in
    ``fail_frac`` and by type, like expected failures in a test suite.
    """
    import workloads

    problems = [p for op in records for p in op]
    by_type = dict.fromkeys(workloads.FAIL_TYPES + (workloads.UNEXPECTED,), 0)
    for p in problems:
        for kind in p["fails"]:
            by_type[kind] += 1
    errors = [e for p in problems for e in p["errors"]]
    failing = [p for p in problems if p["fails"]]
    unexpected = [p for p in failing if workloads.UNEXPECTED in p["fails"]]
    regressions = [p for p in failing if workloads.regression(p)]
    failed = [p for p in failing
              if workloads.UNEXPECTED in p["fails"] or workloads.regression(p)]
    return {
        "attempted": len(problems),
        "failed": len(failed),
        "known_failures": len(failing) - len(failed),
        "fail_frac": len(failing) / max(len(problems), 1),
        "by_type": by_type,
        "roundtrip_err_max": max(errors, default=0.0),
        "roundtrip_digits_p50": quantile([digits(e) for e in errors], 0.5) if errors else 0.0,
        "unexpected": [p["detail"] for p in unexpected],
        "regressions": [f"{p['cell']}: {', '.join(p['fails'])}" for p in regressions],
    }


def digits(err):
    """Correct decimal digits of a relative error, capped at double precision."""
    return -math.log10(max(err, 1e-16))


def quantile(values, q):
    """Percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def throughput(times, windows=THROUGHPUT_WINDOWS):
    """Median over consecutive windows of ops of each window's ops per
    second, so a slow spell of the machine moves one window, not the result."""
    k = max(1, min(windows, len(times)))
    bounds = [round(j * len(times) / k) for j in range(k + 1)]
    return statistics.median(
        (hi - lo) / sum(times[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
    )


def end_to_end(times, out, setups):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(times), "1/s"),
        "op_ms_p50": (1e3 * quantile(times, 0.5), "ms"),
        "op_ms_p90": (1e3 * quantile(times, 0.9), "ms"),
        "ok_frac": (1.0 - out["fail_frac"], "frac"),
        "roundtrip_digits_p50": (out["roundtrip_digits_p50"], "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, times, records, traced_times):
    import tracing

    ops = len(traced_times)
    calls, self_s, op_total = tracer.summary()
    m = {}
    for span in tracing.SPANS:
        m[f"{span}.calls"] = (calls.get(span, 0) / ops, "calls/op")
        m[f"{span}.self_ms"] = (1e3 * self_s.get(span, 0.0) / ops, "ms/op")
    m["unattributed.self_ms"] = (1e3 * self_s[tracing.UNATTRIBUTED] / ops, "ms/op")
    out = outcome(records)
    problems = [p for op in records for p in op]
    z = tracer.children_of("solutions.perron_invert", "krein.solution_transform")
    # only rational solves invert; elsewhere the atoms come from spectral solutions
    atoms = sum(p["atoms"] for p in problems) if calls.get("solutions.perron_invert") else 0
    m["gns.dropped_dims"] = (sum(p["dropped_dims"] for p in problems) / ops, "dims/op")
    m["solutions.perron_invert.z_per_atom"] = (z / atoms if atoms else 0.0, "z/atom")
    m["solutions.perron_invert.atoms"] = (atoms / ops, "atoms/op")
    for kind, n in out["by_type"].items():
        m[kind] = (n / ops, "fails/op")
    m["fail_frac"] = (out["fail_frac"], "frac")
    m["roundtrip_err_max"] = (out["roundtrip_err_max"], "rel")
    m["trace.untraced_ops_per_s"] = (throughput(times), "1/s")
    m["trace.traced_ops_per_s"] = (throughput(traced_times), "1/s")
    # median over ops of traced / untraced time of the same op
    ratios = [b / a for a, b in zip(times, traced_times)]
    m["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    m["trace.coverage"] = (1.0 - self_s[tracing.UNATTRIBUTED] / op_total, "frac")
    return m


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "rational", "transform"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="short mode: run exactly this many ops, set up once")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, setup_s = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s))
        return 0
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env}
    correct = True
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        times, records, traced_times, traced_records = run_ops(
            wl, seconds=args.seconds, count=args.ops, tracer=tracer)
        if traced_records != records:
            correct = False
            print("error: traced ops gave different outcomes than untraced ones", file=sys.stderr)
        metrics = per_layer(tracer, times, traced_records, traced_times)
        record.update(absent=tracer.absent, traced_records=traced_records,
                      spans=tracer.to_records(),
                      span_fields=["id", "name", "op", "parent", "t0", "t1"])
        for name in tracer.absent:
            print(f"absent: {name} is not in the library; its span reads 0")
    else:
        children = None
        if args.ops is None:
            children = ChildSetups(args.workload, args.seed, SETUP_REPEATS - 1, args.seconds)
        times, records = run_ops(wl, seconds=args.seconds, count=args.ops, pause=children)
        record["setup_s"] = [setup_s] + (children.finish() if children else [])
        metrics = None
    out = outcome(records)
    if out["unexpected"]:
        correct = False
        for detail in sorted(set(out["unexpected"])):
            print(f"error: unexpected exception from the library: {detail}", file=sys.stderr)
    if out["regressions"]:
        correct = False
        for detail in sorted(set(out["regressions"])):
            print(f"error: failure where the library is not known to fail: {detail}",
                  file=sys.stderr)
    if metrics is None:
        metrics = end_to_end(times, out, record["setup_s"])

    print(f"workload {args.workload}  seed {args.seed}  ops {len(times)}  "
          f"problems {out['attempted']}  failed {out['failed']}  "
          f"known failures {out['known_failures']}")
    print("env " + json.dumps(env, sort_keys=True))
    print("failures " + json.dumps({k: v for k, v in out["by_type"].items() if v}, sort_keys=True))
    shown = {"fail_frac": (out["fail_frac"], "frac"),
             "roundtrip_err_max": (out["roundtrip_err_max"], "rel")}
    for name, (value, unit) in {**shown, **metrics}.items():
        print(f"  {name:44s} {value:14.6g} {unit}")

    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  outcome=out, op_seconds=times, records=records, correct=correct)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
