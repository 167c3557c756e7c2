"""The band-solve and gns-build benchmark results, bit for bit.

``benchmarks/workloads.py`` draws both workloads from a seed.  This suite
runs the seed-1 op lists that the benchmark runs (``--seconds 20``) in
process and hashes every result: each float64 array by its bytes, each
residual, truncation size, pivot list, rank and kernel vector exactly.
The digests were recorded on x86-64 under Python 3.11 with numpy 2.4
and its bundled OpenBLAS 0.3.31; another BLAS may round differently.  A
change that keeps the floats of these workloads keeps the digests; one
that must change them records the new digest here and says why in
CHANGES.md, as with the scenario hashes.
"""

import dataclasses
import hashlib
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

import ores
from ores.algebra import AlgebraElement
from ores.gns import GnsRepresentation
from ores.scalars import Scalar

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")

DIGESTS = {
    "band-solve": "987b8b99775ce591f0cd1327623cc88c"
                  "a51649f3e87a440a046988961c8ed55f",
    "gns-build": "860b5643b2027f823d2c8f43e7fa25b0"
                 "a97957fa1e2b9fa32d4ffb4d75715d5d",
}


def _feed(h, x):
    """Add x to the hash h: arrays by dtype, shape and bytes, results by
    their fields in order, exact values by their text."""
    if isinstance(x, np.ndarray):
        h.update(b"A%s%r" % (str(x.dtype).encode(), x.shape))
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name))
    elif isinstance(x, GnsRepresentation):
        for part in (x.words, x.ranks, x.basis, x.matrices, x.cyclic,
                     x.kernel):
            _feed(h, part)
    elif isinstance(x, AlgebraElement):
        _feed(h, x.key())
    elif isinstance(x, Scalar):
        _feed(h, x.to_quad())
    elif isinstance(x, (list, tuple)):
        h.update(b"L%d" % len(x))
        for v in x:
            _feed(h, v)
    elif isinstance(x, dict):
        h.update(b"D%d" % len(x))
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
    elif isinstance(x, (bool, int, float, complex, str, Fraction, np.generic,
                        type(None))):
        h.update(repr(x).encode())
    else:
        raise TypeError("no digest for %s" % type(x).__name__)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_results_match_their_recorded_digest(monkeypatch, workload):
    # import the benchmark's modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCHMARKS)
    import workloads

    ops = workloads.make_ops(workload, 1, 20)
    ctx = workloads.make_context(workload, ores)
    run = workloads.RUN[workload]
    h = hashlib.sha256()
    for op in ops:
        outcome, result = run(ctx, op)
        h.update(outcome.encode())
        _feed(h, result)
    assert h.hexdigest() == DIGESTS[workload]
