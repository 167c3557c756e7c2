"""Every public top-level function and class of the package, and every
public method of a public class, has a caller outside the tests: another
module of the package (the CLI and the scenarios among them) or the
benchmark.  A name only the tests reach is code kept for its own sake."""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ores"
BENCHMARKS = ROOT / "benchmarks"

# Public names kept without such a caller, with the reason.
ALLOWED = {
    "save_presentation": "writes the presentation file format that "
                         "load_presentation and --presentation read",
    "save_moments": "writes the moment file format that load_moments and "
                    "gns build --moments read",
    "save_operator": "writes the operator file format that load_operator "
                     "and op apply --operator read",
    "MomentFunctional.evaluate": "the state f evaluated on an element",
}


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_methods(tree):
    return [(cls.name, node) for cls in _public_definitions(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def _attributes(node) -> Counter:
    """How often each attribute is read inside the node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


def _references(node) -> Counter:
    """How often each name or attribute is read inside the node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _benchmark_text():
    """The benchmark's code; it also names functions and methods in
    strings (benchmarks/tracing.py)."""
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(BENCHMARKS.glob("*.py"))
                     if not path.name.startswith("test_"))


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = _package_trees()
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    bench_text = _benchmark_text()
    defined, uncalled = set(), []
    for stem, tree in trees.items():
        for node in _public_definitions(tree):
            name = node.name
            defined.add(name)
            own = _references(node)[name]
            if (name in ALLOWED
                    or any(counts[name] > (own if other == stem else 0)
                           for other, counts in refs.items())
                    or re.search(r"\b%s\b" % name, bench_text)):
                continue
            uncalled.append("%s.%s" % (stem, name))
    assert not uncalled, "public names without a caller: %s" % uncalled
    assert {name for name in ALLOWED if "." not in name} <= defined


def test_every_public_method_has_a_caller_outside_the_tests():
    # a method is called when its name is read as an attribute outside
    # its own body, in the package or the benchmark
    trees = _package_trees()
    reads = sum((_attributes(tree) for tree in trees.values()), Counter())
    bench_text = _benchmark_text()
    defined, uncalled = set(), []
    for stem, tree in trees.items():
        for cls, node in _public_methods(tree):
            name = "%s.%s" % (cls, node.name)
            defined.add(name)
            if (name in ALLOWED
                    or reads[node.name] > _attributes(node)[node.name]
                    or re.search(r"\.%s\b" % node.name, bench_text)):
                continue
            uncalled.append("%s.%s" % (stem, name))
    assert not uncalled, "public methods without a caller: %s" % uncalled
    assert {name for name in ALLOWED if "." in name} <= defined


def test_every_private_name_is_read_outside_its_own_body():
    # a private module-level function or class that nothing reads, such
    # as a second implementation left behind by a refactor, is dead code
    trees = _package_trees()
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    bench_text = _benchmark_text()
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or not node.name.startswith("_")):
                continue
            name = node.name
            own = _references(node)[name]
            if (any(counts[name] > (own if other == stem else 0)
                    for other, counts in refs.items())
                    or re.search(r"\b%s\b" % name, bench_text)):
                continue
            unread.append("%s.%s" % (stem, name))
    assert not unread, "private names nothing reads: %s" % unread
