"""Checks on the mutation-sweep tool, ``tools/mutate.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_str_arguments_are_swapped_within_one_callee():
    """``cli._rdigits`` has no comparison, arithmetic or int constant, but it
    prices ``--count`` by name: each other name the file passes to
    ``_sized`` is a mutant, and a string passed to no call is left alone."""
    found = {(label, before, after)
             for _, label, before, after, _ in mutate.mutants(ROOT / "src/bslim/cli.py", "_rdigits")}
    assert found == {("str", "'count'", f"'{flag}'") for flag in ("index", "m", "max-len", "recover-m")}
    ((_, _, _, _, source),) = [m for m in mutate.mutants(ROOT / "src/bslim/cli.py", "_rdigits")
                               if m[3] == "'m'"]
    assert "digits = _ctx(args).digits(_sized(args, 'm'))" in source
    assert not any(label == "str" for _, label, *_ in mutate.mutants(ROOT / "src/bslim/cli.py", "_wp"))
