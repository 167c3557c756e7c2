"""Benchmark of the ores package: one workload, end to end or traced.

Usage:
    python3 benchmarks/run.py --workload ore-search --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):
    ore-search   Ore witness searches and fraction arithmetic on one
                 shared oscillator presentation
    band-solve   banded solves against the Fock assignment
    gns-build    moment tables, state axioms and GNS representations,
                 each from a freshly loaded presentation

The op list is generated from --seed before any timing; --seconds sets
its length (as many fixed-composition blocks as take that long at the
commit that introduced the benchmark).  Set-up time is the median of
several fresh interpreters.  The op list then runs in one fresh
single-threaded process; with --trace 1 it runs once untraced and twice
traced, and the per-layer numbers come from the first traced run.  Every
result is checked.  Human-readable lines come first; the last line of
standard output is one JSON object.  A full record (environment,
per-op latencies, spans) is written to .bench_out/ in the checkout.
"""

import os

# One thread everywhere: set before numpy is imported here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "ores")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 9

# (name, unit, span or count key) of the per-layer metrics
SPAN_METRICS = (
    ("algebra.mul_s", "s", "algebra.mul"),
    ("algebra.normalize_s", "s", "algebra.normalize"),
    ("localization.search_found_s", "s", "localization.search_found"),
    ("localization.search_miss_s", "s", "localization.search_miss"),
    ("linalg.reduce_s", "s", "linalg.reduce"),
    ("linalg.rowspace_s", "s", "linalg.rowspace"),
    ("states.gram_s", "s", "states.gram"),
    ("states.axioms_s", "s", "states.axioms"),
    ("states.from_numeric_s", "s", "states.from_numeric"),
    ("gns.build_s", "s", "gns.build"),
    ("formulas.eval_s", "s", "formulas.eval"),
    ("operators.invert_s", "s", "operators.invert"),
    ("operators.chain_s", "s", "operators.chain"),
    ("operators.apply_s", "s", "operators.apply"),
    ("operators.banded_solve_s", "s", "operators.banded_solve"),
    ("exprparse.parse_s", "s", "exprparse.parse"),
    ("files.load_s", "s", "files.load"),
)
CALL_METRICS = (
    ("algebra.mul_calls", "algebra.mul"),
    ("localization.search_found_calls", "localization.search_found"),
    ("localization.search_miss_calls", "localization.search_miss"),
    ("formulas.eval_calls", "formulas.eval"),
    ("operators.invert_calls", "operators.invert"),
)
COUNT_METRICS = ("localization.candidates_tried", "operators.truncation_total")
MODULES = ("scalars", "algebra", "linalg", "localization", "positivity",
           "states", "gns", "formulas", "operators", "exprparse", "files",
           "scenarios", "cli")


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run a worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before %s" % " ".join(args))
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s did not finish in time" % args) from None
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Harrell-Davis estimate of the q-th percentile of an ascending list:
    the mean of all order statistics weighted by the Beta((n+1)p,
    (n+1)(1-p)) distribution, p = q/100.  It moves less from run to run
    than the single order statistic at that rank."""
    from scipy.special import betainc
    n = len(sorted_values)
    p = q / 100.0
    cdf = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), sorted_values))


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it."""
    q = 99
    while q > 50 and n - math.ceil(q / 100.0 * n) < 10:
        q -= 1
    return q


def environment(seed):
    import scipy
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=False)
        commit = proc.stdout.decode().strip() or "unknown"
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def end_to_end(workload, res, setups):
    """Times are scaled to reference machine speed (calib.py); the raw
    ones follow as extra lines."""
    lat = sorted(res["scaled_latencies_s"])
    raw = sorted(res["latencies_s"])
    n = len(lat)
    tail = tail_percentile(n)
    setup = [s["scaled_setup_s"] for s in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    "median of %d fresh interpreters" % len(setup)),
        "wall_s": (res["scaled_wall_s"], "s", "%d ops" % n),
        "op_p50_ms": (1e3 * percentile(lat, 50), "ms", "n=%d" % n),
        "op_p90_ms": (1e3 * percentile(lat, 90), "ms", "n=%d, %d beyond" % (
            n, n - math.ceil(0.9 * n))),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "workload process"),
    }
    extra = {"op_tail_ms": (1e3 * percentile(lat, tail), "ms",
                            "p%d, n=%d" % (tail, n))}
    if workload == "ore-search":
        # a decided comparison found its common-denominator witness
        for name, outcomes in (("found", ("found", "equal", "unequal")),
                               ("miss", ("miss", "undecided"))):
            xs = [t for t, o in zip(res["scaled_latencies_s"], res["outcomes"])
                  if o in outcomes]
            if xs:
                extra["%s_p50_ms" % name] = (
                    1e3 * statistics.median(xs), "ms", "n=%d" % len(xs))
    cals = res["calibration_s"]
    extra.update({
        "raw.setup_s": (statistics.median(s["setup_s"] for s in setups), "s",
                        "unscaled"),
        "raw.wall_s": (res["wall_s"], "s",
                       "unscaled, cpu %.3f s" % res["cpu_s"]),
        "raw.op_p50_ms": (1e3 * percentile(raw, 50), "ms", "unscaled"),
        "raw.op_p90_ms": (1e3 * percentile(raw, 90), "ms", "unscaled"),
        "calibration_ms": (1e3 * statistics.median(cals), "ms",
                           "median of %d kernels, reference %.3f ms" % (
                               len(cals), 1e3 * calib.REF_KERNEL_S)),
    })
    return metrics, extra


def per_layer(untraced, traced, setups):
    """Times are scaled to reference machine speed by the traced run's
    own factor (scaled wall / wall); counts are exact."""
    tr = traced["trace"]
    factor = traced["scaled_wall_s"] / traced["wall_s"]
    metrics = {}
    for name, unit, key in SPAN_METRICS:
        metrics[name] = (factor * tr["total_s"].get(key, 0.0), unit,
                         "%d calls" % tr["calls"].get(key, 0))
    for name, key in CALL_METRICS:
        metrics[name] = (tr["calls"].get(key, 0), "count", "exact")
    for key in COUNT_METRICS:
        metrics[key] = (tr["counts"].get(key, 0), "count", "exact")
    for part in ("import_s", "presets_s"):
        metrics["setup." + part] = (
            statistics.median(s[part] * s["scaled_setup_s"] / s["setup_s"]
                              for s in setups), "s",
            "median of %d" % len(setups))
    self_s = tr["module_self_s"]
    for mod in MODULES:
        metrics[mod + ".self_s"] = (factor * self_s.get(mod, 0.0), "s",
                                    "sampled")
    metrics["trace.overhead_ratio"] = (
        traced["scaled_wall_s"] / untraced["scaled_wall_s"], "ratio",
        "traced %.3f s / untraced %.3f s, scaled" % (
            traced["scaled_wall_s"], untraced["scaled_wall_s"]))
    other = {"harness.self_s": (factor * self_s.get("harness", 0.0), "s",
                                "sampled"),
             "other.self_s": (factor * self_s.get("other", 0.0), "s",
                              "sampled")}
    return metrics, other


def failures(results, digest):
    """Indices of failed ops, with one message each.  An op fails when its
    check fails in any run or when its outcome differs between runs."""
    failed = {}
    for res in results:
        if res["digest"] != digest:
            raise BenchError("a worker generated other inputs than the seed's")
        for i, msg in res["errors"]:
            failed.setdefault(i, msg)
    for res in results[1:]:
        for i, (a, b) in enumerate(zip(results[0]["outcomes"],
                                       res["outcomes"])):
            if a != b:
                failed.setdefault(i, "outcome %s untraced, %s traced" % (a, b))
    return failed


def exact_counts(traced):
    tr = traced["trace"]
    out = {name: tr["calls"].get(key, 0) for name, key in CALL_METRICS}
    out.update({key: tr["counts"].get(key, 0) for key in COUNT_METRICS})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print("run.py: no ores sources at %s" % SRC_PKG, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        digest = workloads.digest(
            workloads.make_ops(args.workload, args.seed, args.seconds))
        env = environment(args.seed)
        wargs = [args.workload, str(args.seed), str(args.seconds)]
        setups = [child(["setup"] + wargs, deadline)
                  for _ in range(SETUP_SAMPLES)]
        runs = [child(["run"] + wargs, deadline)]
        if args.trace:
            # two traced runs, so that every traced result shows whether
            # the exact counts repeat
            runs += [child(["trace"] + wargs, deadline) for _ in range(2)]
        failed = failures(runs, digest)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    base = runs[0]
    if args.trace:
        metrics, extra = per_layer(base, runs[1], setups)
    else:
        metrics, extra = end_to_end(args.workload, base, setups)
    attempted = len(base["outcomes"])

    print("# ores benchmark: workload=%s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("# environment: " + json.dumps(env, sort_keys=True))
    print("# inputs: %d ops, sha256 %s" % (attempted, digest))
    outcome_counts = {}
    for o in base["outcomes"]:
        outcome_counts[o] = outcome_counts.get(o, 0) + 1
    print("# outcomes: " + json.dumps(outcome_counts, sort_keys=True))
    for name, (value, unit, note) in list(metrics.items()) + list(extra.items()):
        print("%-34s %16.6f %-6s %s" % (name, value, unit, note))
    print("%-34s %16.6f %-6s %d of %d ops" % (
        "error_ratio", len(failed) / attempted, "ratio", len(failed),
        attempted))
    repeat = True
    if args.trace:
        counts = [exact_counts(r) for r in runs[1:]]
        repeat = counts[0] == counts[1]
        print("# exact counts: %s, %s across two traced runs" % (
            json.dumps(counts[0], sort_keys=True),
            "identical" if repeat else "DIFFERENT: %s" % json.dumps(
                counts[1], sort_keys=True)))
    for i, msg in sorted(failed.items())[:20]:
        print("# failed op %d (%s): %s" % (i, base["kinds"][i], msg))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "input_sha256": digest,
              "metrics": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in {**metrics, **extra}.items()},
              "failed": {str(i): m for i, m in failed.items()},
              "setups": setups, "runs": runs}
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": not failed and repeat,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
