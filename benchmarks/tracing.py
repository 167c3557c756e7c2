"""Spans at layer boundaries and per-module self time, for the traced run.

The tracer wraps public functions and methods of ``ores`` from outside:
every reference to a wrapped function in a loaded ``ores`` module is
replaced, and restored by ``uninstall``.  Each call made inside an
operation (a span the harness opened) records a span with its name,
start, end, the span that caused it and the operation it belongs to.
Spans of the hot boundaries (``HOT``) are only aggregated, so that a run
with millions of products keeps its memory flat.  Self time per module
comes from a stack sampler in the same run.
"""

from __future__ import annotations

import os
import signal
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, span name); the layer is the part before the dot
BOUNDARIES = (
    ("ores.algebra", "AlgebraElement.__mul__", "algebra.mul"),
    ("ores.algebra", "Presentation.normalize_raw", "algebra.normalize"),
    ("ores.localization", "ore_solve_right", "localization.search"),
    ("ores.localization", "ore_solve_left", "localization.solve_left"),
    ("ores.localization", "frac_add", "localization.frac_add"),
    ("ores.localization", "frac_mul", "localization.frac_mul"),
    ("ores.localization", "frac_dagger", "localization.frac_dagger"),
    ("ores.localization", "eq_fraction", "localization.eq_fraction"),
    ("ores.linalg", "RowSpace.add", "linalg.rowspace"),
    ("ores.linalg", "RowSpace.represent", "linalg.rowspace"),
    ("ores.linalg", "graded_hermitian_reduce", "linalg.reduce"),
    ("ores.linalg", "nullspace", "linalg.nullspace"),
    ("ores.states", "MomentFunctional.gram", "states.gram"),
    ("ores.states", "check_state_axioms", "states.axioms"),
    ("ores.states", "from_numeric", "states.from_numeric"),
    ("ores.gns", "gns", "gns.build"),
    ("ores.formulas", "Formula.eval", "formulas.eval"),
    ("ores.operators", "invert_one_plus_AstarA", "operators.invert"),
    ("ores.operators", "chain_solve", "operators.chain"),
    ("ores.operators", "BandedOperator.apply", "operators.apply"),
    ("ores.operators", "pi_s_surjectivity_probe", "operators.probe"),
    ("ores.operators", "lemma_pis_equals_S_check", "operators.lemma"),
    ("scipy.linalg", "solveh_banded", "operators.banded_solve"),
    ("ores.exprparse", "parse_element", "exprparse.parse"),
    ("ores.exprparse", "parse_sproduct_text", "exprparse.parse"),
    ("ores.exprparse", "parse_fraction_text", "exprparse.parse"),
    ("ores.files", "presentation_from_dict", "files.load"),
    ("ores.files", "moments_from_dict", "files.load"),
)
HOT = frozenset(("algebra.mul", "algebra.normalize", "formulas.eval"))


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent, op]
        self.stack = []           # open frames: [name, start, child_s, index]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)    # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._active = defaultdict(int)
        self._patches = []
        self.op = -1

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        index = -1
        if name not in HOT:
            parent = self.stack[-1][3] if self.stack else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._active[name] += 1
        frame = [name, perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def exit(self, frame, final_name=None):
        end = perf_counter()
        self.stack.pop()
        name = frame[0]
        dur = end - frame[1]
        self._active[name] -= 1
        final = final_name or name
        self.calls[final] += 1
        if self._active[name] == 0:
            self.total[final] += dur
        self.self_time[final] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span[0], span[1], span[2] = final, frame[1], end

    def _wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:   # outside an operation: not recorded
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            final = None
            try:
                result = fn(*args, **kwargs)
                final = tracer._observe(name, result)
                return result
            finally:
                tracer.exit(frame, final)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observe(self, name, result):
        if name == "localization.search":
            self.counts["localization.candidates_tried"] += \
                result.candidates_tried
            return ("localization.search_found" if result.found
                    else "localization.search_miss")
        if name == "operators.invert":
            self.counts["operators.truncation_total"] += result.truncation_size
        return None

    # -- installation ---------------------------------------------------------

    def install(self):
        for modname, path, name in BOUNDARIES:
            module = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrapper(original, name)
            if owner_name:
                self._patch(owner, attr, original, wrapped)
                continue
            self._patch(module, attr, original, wrapped)
            for other in list(sys.modules.values()):
                if other is module or not getattr(other, "__name__", "") \
                        .startswith("ores"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self):
        return {"calls": dict(self.calls), "total_s": dict(self.total),
                "self_s": dict(self.self_time), "counts": dict(self.counts)}


class Sampler:
    """Self time per module by sampling the stack on a CPU-time timer.

    Every ``interval`` seconds of process CPU time the interrupted frame
    is charged to the innermost frame that belongs to ``ores`` (its
    module) or to the harness; time in other code (numpy, scipy,
    fractions, builtins) thus counts for the ores module that called it.
    Only samples taken while ``active`` (inside an operation) count; the
    shares are scaled to the operations' summed latencies.
    """

    def __init__(self, src_dir: str, bench_dir: str, interval: float = 1e-3):
        self.src_dir = os.path.realpath(src_dir) + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self.interval = interval
        self.samples = defaultdict(int)
        self.active = False
        self._owners = {}

    def _owner(self, filename):
        own = self._owners.get(filename, False)
        if own is False:
            real = os.path.realpath(filename)
            own = None
            if real.startswith(self.src_dir):
                own = os.path.splitext(os.path.basename(real))[0]
            elif real.startswith(self.bench_dir):
                own = "harness"
            self._owners[filename] = own
        return own

    def _sample(self, signum, frame):
        if not self.active:
            return
        while frame is not None:
            own = self._owner(frame.f_code.co_filename)
            if own is not None:
                self.samples[own] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def self_times(self, wall_s: float) -> dict:
        total = sum(self.samples.values())
        return {mod: wall_s * n / total for mod, n in self.samples.items()} \
            if total else {}
