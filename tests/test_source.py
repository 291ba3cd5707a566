"""Checks on the package source itself."""

import ast
import time
from pathlib import Path

import bslim
from bslim.lattice import GroupCtx
from bslim.markedspace import b_i_word

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


def _digit_table_reads(path):
    return [
        f"{path.name}:{node.lineno} .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("table", "rs")
    ]


def test_group_reads_no_digit_table():
    """The conjugation isomorphism lives in ``lattice`` alone: ``group``
    reaches the digits only through its kernels, never through
    ``ctx.table`` or ``ctx.rs``."""
    (path,) = [path for path in SOURCES if path.name == "group.py"]
    assert _digit_table_reads(path) == []


def test_only_madic_and_lattice_read_the_digit_table():
    """The digit table is the stream's (``madic``) and the kernels index
    it (``lattice``); every other module asks the stream for digits."""
    found = [
        hit
        for path in SOURCES
        if path.name not in ("madic.py", "lattice.py")
        for hit in _digit_table_reads(path)
    ]
    assert found == []


def test_b_i_word_is_linear_in_i():
    """b_i unfolds to w(|m|; r_1..r_{i-1}) in one pass over the digits;
    nesting b_{i-1} inside b_i would copy the word i times."""
    ctx = GroupCtx.make(3, "int:5")
    start = time.process_time()
    word = b_i_word(ctx, 20000)
    assert time.process_time() - start < 1.0
    assert len(word.letters) > 20000
