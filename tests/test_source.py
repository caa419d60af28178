"""Rules about the package source itself."""

import ast
from pathlib import Path

import torifano

SOURCES = sorted(Path(torifano.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # Runtime invariants raise typed errors: ``python -O`` strips asserts.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
