"""Self-checks of the benchmark harness.

Run with: python3 -m pytest benchmarks/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.digest(workloads.make_ops(workload, 7, 1))
    again = workloads.digest(workloads.make_ops(workload, 7, 1))
    other = workloads.digest(workloads.make_ops(workload, 8, 1))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_enough_ops_for_the_tail(workload):
    assert len(workloads.make_ops(workload, 1, 1)) >= workloads.MIN_OPS


def test_verdicts_match_the_pool():
    pool = workloads.ore_pool()
    assert len(workloads.load_verdicts(pool)) == len(pool)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(200) == 95
    for n in (100, 137, 250, 1000):
        q = run.tail_percentile(n)
        assert n - run.math.ceil(q / 100 * n) >= 10


def test_scaling_uses_the_samples_around_each_op():
    ref = calib.REF_KERNEL_S
    # op 0 ran after one sample, op 1 after three; the machine ran at half
    # speed around op 1
    cals = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    scaled = calib.scale([1.0, 1.0], [1, 3], cals)
    assert scaled[0] == 1.0
    assert scaled[1] == 0.5
    assert calib.kernel() == calib.kernel()


def test_reference_rewriting_normal_orders_the_oscillator():
    h = oracle.HEISENBERG
    a, ad = {("a",): oracle.ONE}, {("ad",): oracle.ONE}
    assert h.mul(a, ad) == {("ad", "a"): oracle.ONE, (): oracle.ONE}
    assert h.dagger(h.mul(a, a)) == {("ad", "ad"): oracle.ONE}


def test_tracer_restores_every_patch():
    import ores
    before = (ores.AlgebraElement.__mul__, ores.ore_solve_right,
              ores.localization.ore_solve_right, ores.operators.ore_solve_left)
    tracer = tracing.Tracer()
    tracer.install()
    p = ores.load_preset("heisenberg")
    a = p.generator("a")
    s = ores.SProduct(p, (a,))
    ores.ore_solve_left(a, s)     # outside an op: not recorded
    frame = tracer.enter("op.test")
    res = ores.ore_solve_left(a, s)
    tracer.exit(frame)
    tracer.uninstall()
    after = (ores.AlgebraElement.__mul__, ores.ore_solve_right,
             ores.localization.ore_solve_right, ores.operators.ore_solve_left)
    assert before == after
    found = tracer.calls["localization.search_found"]
    missed = tracer.calls["localization.search_miss"]
    assert found + missed == 1
    assert tracer.counts["localization.candidates_tried"] == \
        res.candidates_tried
    assert tracer.calls["localization.solve_left"] == 1


def _traced_counts(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "trace", workload,
         "3", "1"], cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300)
    res = json.loads(out.stdout.decode().strip().splitlines()[-1])
    return res["outcomes"], run.exact_counts(res)


def test_exact_counts_repeat_across_traced_runs():
    first = _traced_counts("band-solve")
    assert first == _traced_counts("band-solve")
    assert first[1]["formulas.eval_calls"] > 0
    assert first[1]["localization.search_found_calls"] == 0


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gns-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
