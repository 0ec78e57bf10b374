"""Checks on the package source itself."""

import ast
from pathlib import Path

import resolvdim

SOURCES = sorted(Path(resolvdim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal checks must raise
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
