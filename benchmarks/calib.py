"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on small shared machines whose speed drifts by a
third or more over seconds and up to a factor of two over minutes.  To
take that drift out of the end-to-end times, each timed process runs a
fixed kernel next to the work it times, and a time t measured while the
kernel took k seconds is reported as t * REF / k: the time at the speed
the machine had when the kernel took REF seconds.  The kernels use
nothing of the code under test, so a faster program is still faster
after scaling.

Two kernels, because drift slows kinds of work unequally:

- ``kernel`` (reference REF_KERNEL_S) is plain Python of the kind in the
  package's inner loops: small objects, dicts keyed by tuples, exact
  integer arithmetic.  It scales the op latencies.
- ``import_kernel`` (reference REF_IMPORT_S) unmarshals and runs the
  body of a synthetic module, which is what an import does once the file
  is read.  It scales set-up time, which is almost all imports and
  slows about half as much as ``kernel`` when the machine is busy.

This module imports only builtins, so a set-up process can calibrate
before its clock starts without importing anything the set-up would.
"""

import marshal
from math import gcd
from time import perf_counter

# Typical times of one kernel() and one import_kernel() on a 2-CPU
# x86-64 machine (Python 3.11) at the commit that introduced them; they
# fix the speed that scaled times refer to.
REF_KERNEL_S = 0.005
REF_IMPORT_S = 0.004


class _Q:
    """A reduced fraction, as a stand-in for the package's scalars."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def add(self, other):
        return _Q(self.n * other.d + other.n * self.d, self.d * other.d)

    def mul(self, other):
        return _Q(self.n * other.n, self.d * other.d)


def kernel():
    """A fixed amount of interpreter work; returns a checksum."""
    terms = {}
    q = _Q(1, 3)
    for i in range(1, 1500):
        key = (i % 7, i % 5, i % 3)
        q = q.mul(_Q(i % 11 + 1, i % 13 + 1)).add(_Q(1, i + 1))
        if q.d > 1 << 64:
            q = _Q(q.n % 97 + 1, 3)
        old = terms.get(key)
        terms[key] = q if old is None else old.add(q)
        if len(terms) > 40:
            terms.pop(next(iter(terms)))
    return sum(v.n % 1000 for v in terms.values())


def sample(fn=kernel, repeats=3):
    """Seconds of one fn(): the least of a few back-to-back runs, so a
    single interrupt does not read as a slow machine."""
    best = None
    for _ in range(repeats):
        t = perf_counter()
        fn()
        dt = perf_counter() - t
        best = dt if best is None else min(best, dt)
    return best


def median(values):
    """Median of a non-empty sequence (statistics would pull fractions,
    decimal and random into a set-up process before its clock starts)."""
    xs = sorted(values)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def scale(latencies, cal_before, cals):
    """Latencies at reference speed.  cal_before[i] is the number of
    calibration samples taken before op i started; each op is scaled by
    the median of the two samples before it and the two after it."""
    out = []
    for t, j in zip(latencies, cal_before):
        out.append(t * REF_KERNEL_S / median(cals[max(0, j - 2):j + 2]))
    return out


def _module_source(n):
    """Source of a synthetic module: functions, classes and constants."""
    lines = ["import math as _m", "TABLE = {%s}" % ", ".join(
        "%d: (%d, %r)" % (i, i * i, "k%d" % i) for i in range(n))]
    for i in range(n):
        lines += ["def f%d(x, y=%d, *a, **k):" % (i, i),
                  "    '''doc %d'''" % i,
                  "    return [x + y * j for j in range(%d)]" % (i % 7),
                  "class C%d(object):" % i,
                  "    __slots__ = ('a', 'b')",
                  "    def __init__(self, a=%d.5):" % i,
                  "        self.a, self.b = a, _m.sqrt(abs(a))",
                  "    @property",
                  "    def c(self):",
                  "        return self.a * self.b"]
    return "\n".join(lines) + "\n"


_MODULE = marshal.dumps(compile(_module_source(250), "<calib>", "exec"))


def import_kernel():
    """What an import does once its file is read: unmarshal the code and
    run the module body (a fixed synthetic module)."""
    namespace = {"__name__": "_calib_module"}
    exec(marshal.loads(_MODULE), namespace)
    return len(namespace)
