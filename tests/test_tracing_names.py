"""The names the benchmark tracer wraps exist in the package.

``benchmarks/tracing.py`` patches the functions and methods listed in
``BOUNDARIES`` by name, after the benchmark worker has imported
``scipy.linalg`` and ``ores``; a renamed or moved function would make a
traced benchmark run fail.  The benchmark's own tests are not part of
this suite, so this one guards the names here.
"""

import importlib.util
import os
import sys

import scipy.linalg  # noqa: F401

import ores  # noqa: F401
import ores.files  # noqa: F401

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(BENCHMARKS, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    for modname, path, _ in _tracing().BOUNDARIES:
        module = sys.modules[modname]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in owner.__dict__, (modname, path)
        assert callable(owner.__dict__[attr]), (modname, path)
