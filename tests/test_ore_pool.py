"""The benchmark's Ore pool against its recorded verdicts.

``benchmarks/workloads.py`` draws the ore-search workload from a fixed
pool of 528 queries (solves, fraction sums, products, daggers and
comparisons on heisenberg and poly_x), and ``benchmarks/verdicts.json``
records the outcome of each and the candidates tried by each solve.  A
change to the witness search must keep every one of them, so this suite
runs the whole pool, in pool order, on one shared pair of presentations,
as the benchmark does, and checks each result with the benchmark's own
check, which also verifies every witness with the naive reference
algebra.
"""

import os
import sys

import ores

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def test_ore_pool_matches_its_recorded_verdicts(monkeypatch):
    # import the benchmark's modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCHMARKS)
    import workloads

    pool = workloads.ore_pool()
    verdicts = workloads.load_verdicts(pool)
    assert len(pool) == 528
    ctx = workloads.OreContext(ores)
    wrong = []
    for i, (item, verdict) in enumerate(zip(pool, verdicts)):
        op = dict(item, verdict=verdict)
        outcome, detail = workloads.run_ore_op(ctx, op)
        message = workloads.check_ore_op(op, outcome, detail)
        if message is not None:
            wrong.append((i, item["kind"], message))
    assert not wrong
