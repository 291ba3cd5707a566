"""Checks on the package source itself."""

import ast
import sys
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


def test_imports_only_the_standard_library():
    """The package has no runtime dependencies: every import in
    ``src/bslim`` is a standard-library module or one of its own."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"bslim"}
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


def test_one_context_class():
    """A marked group's context is its digit stream, not a wrapper of it."""
    assert bslim.GroupCtx is bslim.RDigitStream


def test_cli_builds_group_contexts_only_in_ctx():
    """``cli._ctx`` gives a context the ``rdigits`` budget; a command that
    built its own would read digits without one."""
    (path,) = [path for path in SOURCES if path.name == "cli.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def builds(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[0] in (
            "GroupCtx", "RDigitStream")

    in_ctx = [node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              and fn.name == "_ctx" for node in ast.walk(fn) if builds(node)]
    assert len(in_ctx) == 1
    assert [node for node in ast.walk(tree) if builds(node)] == in_ctx


CONTEXT_CONSTRUCTORS = ("GroupCtx", "RDigitStream", "GroupCtx.make", "RDigitStream.make")


def _context_builds(path):
    """The name of the function around each call that builds a context."""
    found = []

    def visit(node, fn, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = ast.unparse(child.func)
                if name in CONTEXT_CONSTRUCTORS or (name, cls) == ("cls", "RDigitStream"):
                    found.append(fn)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else fn,
                  child.name if isinstance(child, ast.ClassDef) else cls)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>", None)
    return found


def test_the_caller_builds_every_context():
    """Every marked-group function takes its contexts from the caller, whose
    budget they keep.  Only ``madic``'s spec helpers build their own, and
    in the CLI, ``_ctx``; ``madic._first_difference`` builds none."""
    found = {(path.stem, fn) for path in SOURCES for fn in _context_builds(path)}
    helpers = ("make", "r_digits", "s_values", "gcd_with_m", "p_polys")
    assert found == {("madic", fn) for fn in helpers} | {("cli", "_ctx")}


def test_only_the_shared_constants_build_a_letters():
    """Every a-letter the package builds is ``group.A_POS`` or ``A_NEG``:
    ``ALetter(...)`` is called only to define them, so no builder allocates
    a letter per stable letter."""
    defining, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] in (["A_POS"], ["A_NEG"])}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "ALetter":
                (defining if id(node) in shared else found).append(f"{path.name}:{node.lineno}")
    assert len(defining) == 2
    assert found == []


def test_only_the_builder_and_shared_constants_build_base_letters():
    """Every base letter the package builds comes from ``group._base_letter``,
    which hands out the shared b and B letters for +-e_0: ``BaseLetter(...)``
    is called only there and to define ``_B_POS`` and ``_B_NEG``."""
    defining, building, found = [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        shared = {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                  and [ast.unparse(t) for t in assign.targets] == ["(_B_POS, _B_NEG)"]
                  for node in ast.walk(assign.value)}
        builder = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   and fn.name == "_base_letter" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "BaseLetter":
                where = defining if id(node) in shared else building if id(node) in builder else found
                where.append(f"{path.name}:{node.lineno}")
    assert len(defining) == 2
    assert len(building) == 1
    assert found == []


def test_b_i_word_is_linear_in_i():
    """b_i unfolds to w(|m|; r_1..r_{i-1}) in one pass over the digits;
    nesting b_{i-1} inside b_i would copy the word i times."""
    ctx = GroupCtx.make(3, "int:5")
    start = time.process_time()
    word = b_i_word(ctx, 20000)
    assert time.process_time() - start < 1.0
    assert len(word.letters) > 20000


def test_rational_b_i_word_is_linear_in_i():
    """A rational parameter's digit step carries q^k and q^-k mod m from
    the step before; recomputing both at every step made n digits cost
    quadratic big-integer work."""
    ctx = GroupCtx.make(3, "rat:3/7")
    start = time.process_time()
    word = b_i_word(ctx, 20000)
    assert time.process_time() - start < 1.0
    assert len(word.letters) > 20000
