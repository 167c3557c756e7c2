"""One workload process: set up, run the op list in a closed loop, check.

Usage: python3 benchmarks/worker.py MODE WORKLOAD SEED SECONDS

MODE is ``setup`` (measure set-up only), ``run`` (untraced) or ``trace``
(spans and a stack sampler on).  The process runs one caller on one
thread: the next operation starts when the previous one returns;
``wall_s`` is the sum of the operations' latencies.  After every
operation the calibration kernel of ``calib.py`` runs, and every latency
is also given scaled to reference machine speed; set-up time is scaled
by the import kernel, run before and after set-up.  The last line of
standard output is a JSON object for ``run.py``.
"""

from time import perf_counter

import calib

calib.import_kernel()  # first call of a fresh interpreter, not a sample
_CAL_BEFORE = [calib.sample(calib.import_kernel) for _ in range(3)]
_T0 = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import process_time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def setup():
    """Import, presets and the Fock assignment: the state every ores
    process reaches before its first operation."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import ores
    import ores.files  # noqa: F401
    t_import = perf_counter()
    for name in ("heisenberg", "poly_x", "free_xy"):
        ores.load_preset(name)
    ores.fock_assignment(ores.load_preset("heisenberg"))
    t_ready = perf_counter()
    cals = _CAL_BEFORE + [calib.sample(calib.import_kernel) for _ in range(3)]
    setup_s = t_ready - _T0
    return ores, {"import_s": t_import - _T0, "presets_s": t_ready - t_import,
                  "setup_s": setup_s, "calibration_s": cals,
                  "scaled_setup_s": setup_s * calib.REF_IMPORT_S
                  / calib.median(cals)}


def check_result(check, op, outcome, detail):
    """None when the op's result passes its check, else a message."""
    try:
        return check(op, outcome, detail)
    except Exception as exc:  # a result the check cannot read is wrong
        return "check raised %s: %s" % (type(exc).__name__, exc)


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), int(argv[3])
    ores, times = setup()
    if mode == "setup":
        print(json.dumps(times))
        return 0
    sys.path.insert(0, HERE)
    import workloads
    ops = workloads.make_ops(workload, seed, seconds)
    ctx = workloads.make_context(workload, ores)
    run_op = workloads.RUN[workload]

    tracer = sampler = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        sampler = tracing.Sampler(os.path.join(SRC, "ores"), HERE)
        sampler.start()

    check = workloads.CHECK[workload]
    outcomes = []
    errors = []
    latencies = []
    cpu = 0.0
    # a calibration sample after every op; each op is scaled by the ones
    # around it
    cals = [calib.sample() for _ in range(3)]
    cal_before = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
            frame = tracer.enter("op." + op["kind"])
            sampler.active = True
        cal_before.append(len(cals))
        c = process_time()
        t = perf_counter()
        try:
            outcome, detail = run_op(ctx, op)
        except Exception as exc:  # an unexpected error is a failed op
            outcome, detail = "error", "%s: %s" % (type(exc).__name__, exc)
        latencies.append(perf_counter() - t)
        cpu += process_time() - c
        if tracer is not None:
            sampler.active = False
            tracer.exit(frame)
        cals.append(calib.sample())
        # check now and drop the result, so that results kept for checking
        # do not grow the heap the next ops allocate and collect in
        outcomes.append(outcome)
        msg = detail if outcome == "error" else check_result(
            check, op, outcome, detail)
        if msg:
            errors.append([i, msg])
        detail = None
    cals += [calib.sample() for _ in range(2)]
    scaled = calib.scale(latencies, cal_before, cals)
    wall = sum(latencies)
    if tracer is not None:
        sampler.stop()
        tracer.uninstall()

    out = {
        "setup": times,
        "digest": workloads.digest(ops),
        "kinds": [op["kind"] for op in ops],
        "outcomes": outcomes,
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "calibration_s": cals,
        "errors": errors,
        "wall_s": wall,
        "scaled_wall_s": sum(scaled),
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["module_self_s"] = sampler.self_times(wall)
        out["trace"]["samples"] = sum(sampler.samples.values())
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
