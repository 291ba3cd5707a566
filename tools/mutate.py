"""Mutation sweep: does the test suite notice a one-operator change?

For each named function, every site of five operators is mutated in turn:
a comparison flipped to its negation, + and - swapped, // turned into *,
% turned into //, and an int constant raised by 1.  Each mutant is written
into a scratch copy of ``src``, ``tests`` and the files the tests read (the
checkout is never touched), and the given pytest selection runs against it
with ``-x``.  A mutant is *killed* when the run fails, and *survives* when
it passes; every survivor is either a gap in the tests or an equivalent
mutant.

    python tools/mutate.py src/bslim/madic.py:_first_difference \\
        src/bslim/markedspace.py:isomorphic -- tests/test_markedspace.py

Without a selection the whole suite runs.  ``--seed`` fixes the hash seed
and hypothesis' seed of every run, so a sweep repeats exactly.  The
unmutated copy runs first and must pass.  A mutant whose run takes 90 s
more than twice as long counts as killed by timeout (a stuck test fails
at the suite's 60 s deadline well before that), and each run may map at
most 1 GiB, since a mutated loop can grow a table without bound.  The
exit status is 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_LIMIT = 1 << 30
FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
         ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
         ast.In: ast.NotIn, ast.NotIn: ast.In}
BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}


def mutations(node: ast.AST):
    """(label, mutate) for each way the five operators change this node;
    ``mutate`` edits a copy of the node in place."""
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            def flip(n, k=k, new=FLIPS[type(op)]):
                n.ops[k] = new()
            yield type(op).__name__, flip
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
        def swap(n):
            n.op = BINOPS[type(n.op)]()
        yield type(node.op).__name__, swap
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        def bump(n):
            n.value += 1
        yield "int+1", bump


def mutants(path: Path, name: str):
    """(line, label, before, after, source) for each mutant of the named
    function; the function's lines are replaced by its mutated unparse."""
    text = path.read_text()
    tree = ast.parse(text)
    defs = [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name]
    if len(defs) != 1:
        raise SystemExit(f"{path}: {len(defs)} functions named {name!r}")
    fn = defs[0]
    start = (fn.decorator_list[0] if fn.decorator_list else fn).lineno - 1
    lines = text.splitlines(keepends=True)
    # every node below the def, in walk order, so site k is the same node in a copy
    sites = [n for n in ast.walk(fn) if n is not fn]
    for line, _, k in sorted((n.lineno, n.col_offset, k) for k, n in enumerate(sites)
                             if any(mutations(n))):
        for label, mutate in mutations(sites[k]):
            fn_copy = copy.deepcopy(fn)
            target = [n for n in ast.walk(fn_copy) if n is not fn_copy][k]
            before = ast.unparse(target)
            mutate(target)
            body = "".join(" " * fn.col_offset + row + "\n"
                           for row in ast.unparse(fn_copy).splitlines())
            source = "".join(lines[:start]) + body + "".join(lines[fn.end_lineno:])
            yield line, label, before, ast.unparse(target), source


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy_root: Path, selection: list[str], seed: int, timeout: float | None):
    """(passed, seconds) of one pytest run in the copy; a timeout is a failure."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(copy_root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={seed}", *selection]
    start = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=copy_root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start
    return done.returncode == 0, time.monotonic() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="FILE:FUNCTION, FILE relative to the repo")
    parser.add_argument("--seed", type=int, default=0, help="hash and hypothesis seed (default 0)")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, selection = parser.parse_args(argv[:split]), argv[split + 1 :] or ["tests"]
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy_root = Path(scratch)
        for part in ("src", "tests", "pyproject.toml", "README.md"):
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy_root / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, copy_root / part)
        passed, seconds = run_tests(copy_root, selection, args.seed, None)
        if not passed:
            print("the unmutated copy fails the selection; nothing to measure")
            return 2
        timeout = 2 * seconds + 90  # room for a stuck test to reach its 60 s deadline
        survivors = total = 0
        for target in args.targets:
            file, _, name = target.partition(":")
            original = (ROOT / file).read_text()
            for line, label, before, after, source in mutants(ROOT / file, name):
                (copy_root / file).write_text(source)
                passed, seconds = run_tests(copy_root, selection, args.seed, timeout)
                verdict = "SURVIVED" if passed else "timeout" if seconds >= timeout else "killed"
                survivors += passed
                total += 1
                print(f"{verdict:8} {file}:{line} {name} {label}: {before} -> {after}", flush=True)
            (copy_root / file).write_text(original)
    print(f"{total} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
