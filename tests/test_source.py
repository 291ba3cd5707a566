"""Checks on the package source itself."""

import ast
from pathlib import Path

import bslim

SOURCES = sorted(Path(bslim.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Invariants are checked with explicit raises: ``python -O`` strips
    ``assert``, so an invariant written as one would silently vanish."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_group_reads_no_digit_table():
    """The conjugation isomorphism lives in ``lattice`` alone: ``group``
    reaches the digits only through its kernels, never through
    ``ctx.table`` or ``ctx.rs``."""
    (path,) = [path for path in SOURCES if path.name == "group.py"]
    found = [
        f"group.py:{node.lineno} .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("table", "rs")
    ]
    assert found == []
