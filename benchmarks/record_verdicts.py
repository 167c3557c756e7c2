"""Record the verdicts of the ore-search query pool in verdicts.json.

Usage: python3 benchmarks/record_verdicts.py

Runs every query of the pool once at the default budget and stores its
outcome ("found", "miss", "equal", "unequal" or "undecided"), for the two
solve kinds the number of candidates tried, and the seconds it took,
scaled to reference machine speed (calib.py).  A query that ends with a
verdict takes milliseconds, so its seconds are the median of REPEATS
further runs.  The benchmark compares every run against the outcomes and
counts, and uses the seconds only to draw samples that span the range of
costs.  Re-record only when the pool changes or a change to the search
is meant to change its verdicts.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import ores  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def timed(ctx, item):
    """Seconds of one run of the query, at reference speed."""
    before = calib.sample()
    start = time.perf_counter()
    workloads.run_ore_op(ctx, item)
    seconds = time.perf_counter() - start
    return calib.scale([seconds], [1], [before, calib.sample()])[0]


def main():
    pool = workloads.ore_pool()
    ctx = workloads.OreContext(ores)
    try:
        previous = workloads.load_verdicts(pool)
    except (OSError, RuntimeError):
        previous = None
    if previous is not None:
        # time every query with the caches as warm as a benchmark run has them
        ctx.warm_up(pool, previous)
    verdicts = []
    for i, item in enumerate(pool):
        before = calib.sample()
        start = time.perf_counter()
        outcome, detail = workloads.run_ore_op(ctx, item)
        seconds = calib.scale([time.perf_counter() - start], [1],
                              [before, calib.sample()])[0]
        if outcome not in ("miss", "undecided"):
            seconds = statistics.median(timed(ctx, item)
                                        for _ in range(REPEATS))
        verdict = {"outcome": outcome, "seconds": round(seconds, 5)}
        if item["kind"] in ("solve_right", "solve_left"):
            verdict["candidates_tried"] = detail["res"].candidates_tried
        msg = workloads.check_ore_op(dict(item, verdict=verdict), outcome,
                                     detail)
        if msg:
            raise SystemExit("pool item %d fails its check: %s" % (i, msg))
        verdicts.append(verdict)
        print(i, item["presentation"], item["kind"], verdict, flush=True)
    data = {"pool_seed": workloads.POOL_SEED,
            "pool_digest": workloads.pool_digest(pool),
            "verdicts": verdicts}
    with open(workloads.VERDICTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
