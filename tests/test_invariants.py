"""Invariant checks must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import pytest

import membw

SOURCES = sorted(Path(membw.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert not offenders, f"{path.name}: assert/AssertionError on lines {offenders}; raise InvariantError"
