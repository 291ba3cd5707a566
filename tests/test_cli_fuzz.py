"""A grammar-directed fuzz of ``bsl`` (Claessen & Hughes, "QuickCheck",
ICFP 2000): argv lists built from ``cli._COMMANDS``' flag table, each flag
value drawn from the strategy of its grammar.

Every input must end in an answer or a typed error: ``main`` returns 0, or
returns 1 or 2 after an ``error: <Type>:`` line on stderr, or argparse exits
with 2.  Any other exception escapes and fails the test.  Sizes stay small
(rational denominators below 16, counts and indices below 41, ``dist
--max-len`` at most 12), so the run takes a few seconds and stays clear of
the bit cost of ``rdigits`` on huge denominators (ROADMAP item 2).  A
slow-marked run draws 10,000 inputs from the same strategies.

Every command reads its input before it prices its size flags, so an
input with a malformed value and size flags over their limits exits 2
with a ``ParseError`` (or argparse's usage error for an integer flag).
``bswp`` prices its word itself, and reads the whole word first, so a
word with a fault after a-letters over the limit exits 2 as well.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslim import cli


def mostly(valid, malformed):
    """Text from ``valid`` in about seven draws of eight, else from ``malformed``."""
    return st.one_of(*[valid] * 7, malformed)


_EDGES = [0, 1, -1, 2**63, -(2**63), 10**20, -(10**20)]
#: An ASCII decimal: small, at an edge, at and past Python's 4,300-digit limit, or malformed.
DECIMAL = mostly(st.one_of(st.integers(-40, 40), st.sampled_from(_EDGES)).map(str),
                 st.sampled_from(["9" * 4300, "9" * 4301, "+7", "1_0", "٢", "", "x"]))
SMALL = st.integers(-3, 40).map(str)
DIGIT_LIST = mostly(st.lists(st.integers(0, 12), max_size=6).map(lambda ds: ",".join(map(str, ds))),
                    st.sampled_from(["1,,1", "-1,5", "1,x", ","]))
XI = mostly(st.one_of(st.builds("int:{}".format, DECIMAL),
                      st.builds("rat:{}/{}".format, DECIMAL, st.integers(-15, 15)),
                      st.builds("rseq:{}".format, DIGIT_LIST),
                      st.builds("rseq:{};{}".format, DIGIT_LIST, DIGIT_LIST)),
            st.sampled_from(["bogus", "rat:1", "rat:1/2/3", "rseq:"]))
E_TERM = st.one_of(
    st.builds("e{}".format, st.integers(0, 6)),
    st.builds("e{}^{}".format, st.integers(0, 6), DECIMAL),
    st.builds("e{}".format, DECIMAL),
)
EVEC = st.lists(E_TERM, max_size=4).map(" ".join)
#: Compact, extended and ``bswp`` run-length words, or stray symbols.
WORD = mostly(
    st.one_of(
        st.text("aAbB", max_size=12),
        st.lists(st.one_of(st.sampled_from(["a", "a^-1"]), E_TERM), max_size=8).map(" ".join),
        st.lists(st.builds("{}^{}".format, st.sampled_from("ab"), DECIMAL) | st.sampled_from("aAbB"),
                 max_size=6).map("".join),
    ),
    st.text("aAbBc^1- ", max_size=12),
)
#: The grammar of each flag that takes text; integer flags take DECIMAL, the size
#: flags SMALL.
GRAMMARS = {"--xi": XI, "--xi2": XI, "--word": WORD, "--word2": WORD, "--evec": EVEC,
            "--digits": DIGIT_LIST, "--count": SMALL, "--index": SMALL,
            "--k": SMALL, "--max-len": st.integers(-2, 12).map(str)}


def flag_values(flag: str, spec: dict):
    """The strategy of one flag's argv pieces: absent, or the flag and a value."""
    if spec.get("action") == "store_true":
        value = st.just([flag])
    else:
        text = (st.sampled_from(spec["choices"]) if "choices" in spec
                else GRAMMARS.get(flag, DECIMAL))
        value = st.builds(lambda v, joined: [f"{flag}={v}"] if joined else [flag, v],
                          text, st.booleans())
    # a required flag is mostly present, an optional one half the time
    present = st.sampled_from([True] * 15 + [False]) if spec.get("required") else st.booleans()
    return st.builds(lambda keep, v: v if keep else [], present, value)


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = ["--json"] if draw(st.booleans()) else []
    argv.append(name)
    for flag, spec in cli._COMMANDS[name][2].items():
        argv += draw(flag_values(flag, spec))
    return argv


@settings(max_examples=400)
@given(argvs())
def test_every_input_ends_in_an_answer_or_a_typed_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    if code:
        assert re.fullmatch(r"error: \w+: .*\n", err.getvalue(), re.DOTALL), (argv, err.getvalue())
        assert out.getvalue() == "", argv


@pytest.mark.slow
@settings(max_examples=10_000)
@given(argvs())
def test_ten_thousand_inputs_end_in_an_answer_or_a_typed_error(argv):
    test_every_input_ends_in_an_answer_or_a_typed_error.hypothesis.inner_test(argv)


BAD_DECIMAL = st.sampled_from(["9" * 4301, "1_0", "٢", "", "x", "1.5"])
BAD_DIGIT_LIST = st.sampled_from(["1,,1", "-1,5", "1,x", ","])
#: A malformed value for each flag that the commands below read before their sizes.
MALFORMED = {
    "--m": BAD_DECIMAL, "--n": BAD_DECIMAL, "--digits": BAD_DIGIT_LIST,
    "--xi": st.one_of(st.sampled_from(["bogus", "rat:1", "rat:1/2/3", "rseq:"]),
                      st.builds("int:{}".format, BAD_DECIMAL),
                      st.builds("rat:3/{}".format, BAD_DECIMAL),
                      st.builds("rseq:{}".format, BAD_DIGIT_LIST)),
}
MALFORMED["--xi2"] = MALFORMED["--xi"]
#: (command, valid flag values, size flag -> its ``SIZE_LIMITS`` key)
SIZED_COMMANDS = [
    ("rdigits", {"--m": "3", "--xi": "int:3"}, {"--count": "rdigits"}),
    ("recover", {"--m": "3", "--xi": "rat:1/2"}, {"--count": "recover", "--m": "recover-m"}),
    ("dist", {"--m": "3", "--xi": "int:3", "--xi2": "int:5"}, {"--max-len": "dist"}),
    ("relator", {"--kind": "bi", "--m": "3", "--xi": "int:3"}, {"--index": "relator"}),
    ("relator", {"--kind": "w", "--m": "3", "--digits": "1,0"}, {"--index": "relator"}),
    ("relator", {"--kind": "wine", "--m": "2", "--digits": "1"}, {"--index": "relator"}),
    ("nk", {"--m": "3", "--n": "5"}, {"--k": "nk"}),
]


@st.composite
def malformed_over_limit_argvs(draw):
    """One malformed value, and every chosen size flag past its limit."""
    name, valid, sized = draw(st.sampled_from(SIZED_COMMANDS))
    over = draw(st.lists(st.sampled_from(sorted(sized)), min_size=1, unique=True))
    values = dict(valid)
    for flag in over:
        limit = cli.SIZE_LIMITS[sized[flag]]
        values[flag] = str(draw(st.integers(limit + 1, 10**30)) * draw(st.sampled_from((1, -1))))
    bad = draw(st.sampled_from(sorted(set(valid) & set(MALFORMED) - set(over))))
    values[bad] = draw(MALFORMED[bad])
    argv = ["--json"] if draw(st.booleans()) else []
    return argv + [name] + [f"{flag}={value}" for flag, value in values.items()]


#: Faults of the ``bswp`` grammar: bad symbols, exponents on A or B, and bad numbers.
BSWP_FAULTS = st.sampled_from(["x", " ", "^", "A^2", "B^-1", "a^", "b^-", "a^²", "b^5١",
                               "a^1_0", "b^" + "9" * 4301])


@st.composite
def bswp_malformed_over_limit_argvs(draw):
    """A ``bswp`` word with a-letters over the limit before its first fault."""
    k = draw(st.integers(cli.SIZE_LIMITS["bswp"] + 1, 10**30)) * draw(st.sampled_from((1, -1)))
    head, middle, tail = (draw(st.text("aAbB", max_size=4)) for _ in range(3))
    word = f"{head}a^{k}{middle}{draw(BSWP_FAULTS)}{tail}"
    p, q = (draw(st.integers(1, 2**70) | st.integers(-(2**70), -1)) for _ in range(2))
    return ["bswp", f"--p={p}", f"--q={q}", f"--word={word}"]


@given(malformed_over_limit_argvs() | bswp_malformed_over_limit_argvs())
def test_malformed_input_exits_2_whatever_the_size_flags(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            assert err.getvalue().startswith("error: ParseError: "), (argv, err.getvalue())
    assert code == 2 and out.getvalue() == "", (argv, code, err.getvalue())
