"""No check of the package lives in an assert statement, which python -O
strips: every invariant the package relies on raises on its own."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ores"


def test_package_has_no_assert_statement():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)]
    assert found == []
