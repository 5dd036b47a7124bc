"""Library code does not use assert as logic: python -O strips it."""

import ast
from pathlib import Path

import polyscribe

SOURCES = sorted(Path(polyscribe.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
