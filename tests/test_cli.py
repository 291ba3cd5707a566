import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bslim import GroupCtx, cli, isomorphic
from bslim.cli import SIZE_LIMITS, build_parser, main
from bslim.group import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_wp_relator(capsys):
    code, out, _ = run(capsys, "wp", "--m", "2", "--xi", "int:3", "--word", "babbABaBBA")
    assert code == 0 and out == "trivial"


def test_wp_nontrivial_json(capsys):
    code, out, _ = run(
        capsys, "--json", "wp", "--m", "2", "--xi", "int:3", "--word", "b"
    )
    assert code == 0 and json.loads(out) == {"trivial": False}


def test_rdigits(capsys):
    code, out, _ = run(capsys, "rdigits", "--m", "2", "--xi", "int:3", "--count", "5")
    assert code == 0 and out == "1 1 1 1 1"


def test_bounds_plain(capsys):
    code, out, _ = run(
        capsys, "bounds", "--m", "2", "--xi", "int:1", "--xi2", "int:3"
    )
    assert code == 0 and out == "h=1 lower=e^-22 upper=e^-3"


def test_bounds_same_group_is_domain_error(capsys):
    code, out, err = run(
        capsys, "bounds", "--m", "2", "--xi", "int:3", "--xi2", "int:3"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: SameGroup:")


def test_bounds_reads_h_from_the_congruence_law(capsys):
    # 1/3^1000 and (1 + 2^h 3^1000)/3^1000 share h digits over m = 2; the
    # digit scan took 2.6 s at h = 500 and did not end in 60 s at h = 2000
    h, q = 2000, 3**1000
    start = time.process_time()
    code, out, _ = run(capsys, "bounds", "--m", "2", "--xi", f"rat:1/{q}",
                       "--xi2", f"rat:{1 + 2**h * q}/{q}")
    assert time.process_time() - start < 1.0
    assert code == 0 and out == f"h={h} lower=e^-{6 * (h + 1) + 10} upper=e^-{2 * h + 1}"


@pytest.mark.parametrize("command, answer", [
    ("iso", "not isomorphic"), ("bounds", "h=2000 lower=e^-12016 upper=e^-4001"),
])
def test_a_rational_past_a_periodic_horizon_reads_no_digit_there(capsys, command, answer):
    """1 + 2^2000 has the digits 1, 0, 0, ... for 2001 places over m = 2, so
    it agrees with rseq:1;0 through its horizon 2 and parts from it at index
    2 + 1 + v_2(s_2 - s_1) = 2001.  A digit scan to that index took 16 s of
    CPU on a 2-core VM."""
    xi, seq = f"int:{1 + 2**2000}", "rseq:1;0"
    start = time.process_time()
    code, out, err = run(capsys, command, "--m", "2", "--xi", xi, "--xi2", seq)
    assert time.process_time() - start < 1.0
    assert (code, out, err) == (0, answer, "")
    ctx = GroupCtx.make(2, xi, SIZE_LIMITS["rdigits"])
    assert not isomorphic(ctx, GroupCtx.make(2, seq)) and len(ctx.rs) == 3


def test_reduce_roundtrip(capsys):
    code, out, _ = run(capsys, "reduce", "--m", "2", "--xi", "int:3", "--word", "abA")
    assert code == 0
    assert parse_word(out, "extended") is not None
    assert out == "a e0 a^-1"


def test_nf_json(capsys):
    code, out, _ = run(
        capsys, "--json", "nf", "--m", "2", "--xi", "int:3", "--word", "abb"
    )
    data = json.loads(out)
    assert code == 0
    assert data == {"word": "e1 a", "t_length": 1, "sigma": 1}


def test_conj(capsys):
    code, out, _ = run(
        capsys, "conj", "--m", "2", "--xi", "int:3", "--word", "abbA", "--word2", "bb"
    )
    assert code == 0 and out.startswith("conjugate via")
    code, out, _ = run(
        capsys, "--json", "conj", "--m", "2", "--xi", "int:3", "--word", "b",
        "--word2", "bb",
    )
    assert json.loads(out) == {"conjugate": False, "witness": None}


def test_dist_json_absent(capsys):
    code, out, _ = run(
        capsys, "--json", "dist", "--m", "2", "--xi", "int:1", "--xi2", "int:3",
        "--max-len", "10",
    )
    assert code == 0 and json.loads(out) == {"nu": None, "word": None}


def test_dist_found(capsys):
    code, out, _ = run(
        capsys, "--json", "dist", "--m", "2", "--xi", "int:1", "--m2", "3",
        "--xi2", "int:1", "--max-len", "12",
    )
    data = json.loads(out)
    assert code == 0 and data["nu"] is not None
    assert parse_word(data["word"], "extended") is not None


def test_dist_cap_needs_force(capsys):
    code, _, err = run(
        capsys, "dist", "--m", "2", "--xi", "int:1", "--xi2", "int:3",
        "--max-len", "16",
    )
    assert code == 1 and "force" in err
    # the guard starts just past length 14
    argv = ("dist", "--m", "2", "--xi", "int:1", "--m2", "3", "--xi2", "int:1", "--max-len")
    code, out, err = run(capsys, *argv, "15")
    guard = "enumeration beyond length 14 needs --force (usage guard)"
    assert (code, out, err) == (1, "", f"error: BslError: {guard}\n")
    code, out, _ = run(capsys, *argv, "14")
    assert code == 0 and out.startswith("len=")


def test_iso(capsys):
    code, out, _ = run(
        capsys, "iso", "--m", "2", "--xi", "int:3", "--m2", "-2", "--xi2", "int:-3"
    )
    assert code == 0 and out == "isomorphic"


def test_recover(capsys):
    code, out, _ = run(
        capsys, "recover", "--m", "2", "--xi", "int:3", "--count", "3"
    )
    assert code == 0 and out == "m=2 digits=1 1 1"


def test_relator(capsys):
    code, out, _ = run(capsys, "relator", "--kind", "bi", "--m", "2", "--xi",
                       "int:3", "--index", "1")
    assert code == 0 and out == "abbA"
    code, out, _ = run(capsys, "relator", "--kind", "w", "--m", "2", "--digits", "1")
    assert code == 0 and out == "aabbABA"


def test_relator_with_no_digits(capsys):
    # w(m; ) = a b^m a^-1; the modulus is still checked
    code, out, _ = run(capsys, "relator", "--kind", "w", "--m", "2", "--digits", "")
    assert code == 0 and out == "abbA"
    code, out, _ = run(capsys, "relator", "--kind", "wine", "--m", "2", "--digits", "")
    assert code == 0 and out == "abbAbaBBAB"
    code, out, err = run(capsys, "relator", "--kind", "w", "--m", "0", "--digits", "")
    assert code == 1 and out == "" and err == "error: ValueError: m must be a nonzero integer\n"


def test_relator_digits_over_modulus_one(capsys):
    # |m| = 1 allows the one digit 0 and no other; the range check adds no digit of its own
    for m, digits, word in (("1", "", "abA"), ("-1", "0", "aaBAA"), ("1", "0,0", "aaabAAA")):
        code, out, _ = run(capsys, "relator", "--kind", "w", "--m", m, "--digits", digits)
        assert (code, out) == (0, word)
    code, out, err = run(capsys, "relator", "--kind", "w", "--m", "-1", "--digits", "1")
    assert (code, out) == (1, "") and err.startswith("error: ValueError: digits [1] outside")


def test_wreath_json(capsys):
    code, out, _ = run(
        capsys, "--json", "wreath", "--m", "2", "--xi", "int:3", "--word", "abA"
    )
    assert code == 0
    assert json.loads(out) == {"poly": {"offset": 1, "coeffs": [1]}, "shift": 0}


def test_aut(capsys):
    code, out, _ = run(
        capsys, "aut", "--m", "2", "--xi", "int:3", "--word", "ab",
        "--aut", "J",
    )
    assert code == 0 and out == "a e0^-1"
    code, out, _ = run(
        capsys, "aut", "--m", "2", "--xi", "int:3", "--word", "a",
        "--aut", "phiE", "--evec", "e0",
    )
    assert code == 0 and out == "a e0"


@pytest.mark.parametrize("argv, code, out, err", [
    ("aut --m 2 --xi int:3 --word abAbb --aut thetaK --coef -3", 0,
     "a e0^-3 a^-1 e0^-3 e0^-3", ""),
    ("aut --m 3 --xi rat:1/2 --word aabAAb --aut embedD --embed 2", 0,
     "a a e0^2 a^-1 a^-1 e0^2", ""),
    ("--json aut --m 2 --xi int:3 --word ab --aut embedD --embed 3", 0,
     '{"word": "a e0^3"}', ""),
    ("aut --m 6 --xi int:5 --word ab --aut thetaK --coef 4", 1, "",
     "error: InvalidAutSpec: k = 4 must be nonzero and coprime to m\n"),
    ("aut --m 2 --xi int:3 --word ab --aut embedD --embed 0", 1, "",
     "error: InvalidAutSpec: d must be a positive integer\n"),
    ("aut --m 2 --xi int:3 --word ab --aut thetaK", 1, "",
     "error: BslError: thetaK needs --coef\n"),
    ("aut --m 2 --xi int:3 --word ab --aut embedD", 1, "",
     "error: BslError: embedD needs --embed\n"),
    ("relator --kind bi --index 2", 1, "", "error: BslError: bi needs --m and --xi\n"),
    ("relator --kind bi --index 2 --m 2", 1, "", "error: BslError: bi needs --m and --xi\n"),
    ("bswp --p 0 --q 3 --word ab", 1, "", "error: ValueError: BS(p, q) needs nonzero p and q\n"),
])
def test_option_paths(capsys, argv, code, out, err):
    """thetaK and embedD images, their invalid and missing parameters, the
    bi relator without its group, and BS(0, q)."""
    assert run(capsys, *argv.split()) == (code, out, err)


def test_bswp(capsys):
    code, out, _ = run(capsys, "bswp", "--p", "2", "--q", "3", "--word", "ab^2Ab^-3")
    assert code == 0 and out == "trivial"


def test_nk(capsys):
    code, out, _ = run(capsys, "nk", "--m", "2", "--n", "4", "--k", "2")
    assert code == 0 and out == "N=3 alpha=2"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "wp", "--m", "2", "--xi", "int:3", "--word", "abc")
    assert code == 2 and err.startswith("error: ParseError:")
    code, _, err = run(capsys, "wp", "--m", "2", "--xi", "bogus", "--word", "a")
    assert code == 2
    # numbers are ASCII decimals; "²" and "١" pass str.isdigit but not the grammar
    ext = ("--alphabet", "extended", "--word")
    for argv in (
        ("wp", "--m", "2", "--xi", "int:²", "--word", "a"),
        ("wp", "--m", "2", "--xi", "int:١", "--word", "a"),
        ("wp", "--m", "2", "--xi", "rseq:1,²", "--word", "a"),
        ("wp", "--m", "2", "--xi", "int:3", *ext, "e²"),
        ("wp", "--m", "2", "--xi", "int:3", *ext, "e1^²"),
        ("aut", "--m", "2", "--xi", "int:3", "--word", "a", "--aut", "phiE", "--evec", "e²"),
        ("bswp", "--p", "2", "--q", "3", "--word", "b^²"),
        ("relator", "--kind", "w", "--m", "2", "--digits", "1,x"),
        # --digits takes the rseq: list grammar: no empty pieces, no signs
        ("relator", "--kind", "w", "--m", "2", "--digits", "1,,1,"),
        ("relator", "--kind", "w", "--m", "2", "--digits=-1,5"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ParseError:"), argv


def test_domain_error_exit_1(capsys):
    code, _, err = run(
        capsys, "iso", "--m", "2", "--xi", "rseq:1,0", "--xi2", "int:3"
    )
    assert code == 1 and err.startswith("error: UndecidableSpec:")
    code, _, err = run(capsys, "relator", "--kind", "wine", "--m", "2", "--digits", "5")
    assert code == 1 and err == "error: ValueError: digits [5] outside range [0, 2)\n"
    code, _, err = run(capsys, "relator", "--kind", "w", "--digits", "1")
    assert code == 1 and err.startswith("error: ValueError:")
    code, out, err = run(capsys, "recover", "--m", "2", "--xi", "int:3", "--count", "-1")
    assert code == 1 and out == "" and "count must be nonnegative" in err


def test_budget_error_reports_index(capsys):
    code, _, err = run(
        capsys, "rdigits", "--m", "2", "--xi", "rseq:1,0", "--count", "5"
    )
    assert code == 1
    assert "index 3" in err


def test_budget_error_reports_first_missing_index(capsys):
    # r_1 and r_2 exist, so r_3 is missing even though e5 is read first
    code, _, err = run(
        capsys, "wp", "--m", "2", "--xi", "rseq:1,0",
        "--alphabet", "extended", "--word", "a e5 e4 a^-1",
    )
    assert code == 1
    assert "first missing digit index 3" in err


SIZE_CASES = {
    # command: (argv before the size flag, the flag, argv that is cheap at the limit)
    "dist": (("dist", "--m", "2", "--xi", "int:1", "--xi2", "int:5", "--force"), "--max-len",
             ("dist", "--m", "2", "--xi", "int:1", "--m2", "3", "--xi2", "int:1", "--force")),
    "rdigits": (("rdigits", "--m", "3", "--xi", "rat:5/7"), "--count",
                ("rdigits", "--m", "3", "--xi", "int:5")),
    "recover": (("recover", "--m", "64", "--xi", "rat:5/9"), "--count",
                ("recover", "--m", "2", "--xi", "int:3")),
    "relator": (("relator", "--kind", "bi", "--m", "3", "--xi", "rat:5/7"), "--index",
                ("relator", "--kind", "vk")),
}


@pytest.mark.parametrize("command", sorted(SIZE_CASES))
def test_size_limit_exit_1(capsys, command):
    """Over its fixed limit a size flag fails with exit code 1 before any
    work: 10^12 digits, probe levels or relator letters would never finish.
    At the limit a cheap parameter still answers."""
    prefix, flag, cheap = SIZE_CASES[command]
    limit = SIZE_LIMITS[command]
    for value in (limit + 1, -limit - 1, 10**12):
        code, out, err = run(capsys, *prefix, flag, str(value))
        assert code == 1 and out == ""
        message = f"|{flag}| = {abs(value)} is over the limit {limit}"
        assert err == f"error: SizeLimitExceeded: {message}\n"
    code, out, _ = run(capsys, *cheap, flag, str(limit))
    assert code == 0 and out


@pytest.mark.parametrize("command, over", [
    ("wp", 10_001), ("nf", 10_001), ("reduce", 10_001), ("conj", 10_001), ("wreath", 10_002),
])
def test_group_commands_read_digits_under_the_budget(capsys, command, over):
    """An extended word reaches any digit index, at a cost quadratic in it
    (e80000 took 3.3 s), so every group command reads digits under the
    ``rdigits`` limit.  The pinch of a e_i a^-1 reads r_i; wreath's image
    X P_{i-1}(X) of e_i reads r_1..r_{i-1}."""
    limit = SIZE_LIMITS["rdigits"]
    argv = [command, "--m", "2", "--xi", "int:5", "--alphabet", "extended"]
    argv += ["--word2", "e0"] if command == "conj" else []
    code, out, err = run(capsys, *argv, "--word", f"a e{over} a^-1")
    assert code == 1 and out == ""
    assert err == f"error: RDigitBudgetExceeded: first missing digit index {limit + 1}\n"
    code, out, _ = run(capsys, *argv, "--word", f"a e{limit} a^-1")
    assert code == 0 and out


@pytest.mark.parametrize("command", ["iso", "bounds"])
def test_pair_commands_read_digits_under_the_budget(capsys, command):
    """Sequences with one preperiod and different periods first differ
    just past it, so a 12,000-digit preperiod stops both commands at the
    ``rdigits`` limit; a 9,999-digit one still answers.  (``dist`` and
    ``recover`` read no more digits than their own size limits allow.)"""
    limit, answers = SIZE_LIMITS["rdigits"], {"iso": "not isomorphic", "bounds": "h=9999 "}
    for length in (12_000, limit - 1):
        pre = ",".join(["1"] * length)
        code, out, err = run(capsys, command, "--m", "2", "--xi", f"rseq:{pre};0",
                             "--xi2", f"rseq:{pre};1")
        if length > limit:
            assert code == 1 and out == ""
            assert err == f"error: RDigitBudgetExceeded: first missing digit index {limit + 1}\n"
        else:
            assert code == 0 and out.startswith(answers[command])


def test_relator_bi_reads_digits_under_the_budget(capsys):
    # b_10000 reads r_1..r_9999: at the index limit it still answers
    code, out, _ = run(capsys, "relator", "--kind", "bi", "--m", "2", "--xi", "int:5",
                       "--index", str(SIZE_LIMITS["relator"]))
    assert code == 0 and out.startswith("a" * SIZE_LIMITS["relator"])


def test_bswp_limits_a_powers_before_parsing(capsys, monkeypatch):
    """Each a-letter can pinch, and a pinch rescales a b-exponent by p/q or
    q/p, so the work is quadratic in the a-letters the word expands to
    (a^200000 b a^-200000 b^-1 in BS(1, 2) took 12.4 s).  Their count, plain
    letters and each a^k's |k|, times bit_length(max(|p|, |q|)) is checked
    before parsing.  At the limit the word still answers."""
    limit = SIZE_LIMITS["bswp"]
    k = limit // 8  # 4k a-letters of 2 bits: a^k b a^-k = b^(3^k) commutes with b
    word = f"a^{k}ba^-{k}ba^{k}Ba^-{k}B"
    code, out, _ = run(capsys, "bswp", "--p", "1", "--q", "3", "--word", word)
    assert code == 0 and out == "trivial"
    code, out, _ = run(capsys, "bswp", "--p", "1", "--q", "1", "--word", "a" * limit)
    assert code == 0 and out == "nontrivial"

    def never(tokens):
        raise AssertionError("bs_word ran on an over-limit word")

    monkeypatch.setattr(cli, "bs_word", never)
    half = limit // 4
    for p, q, word, size in (
        ("1", "3", f"a^{half + 1}ba^-{half}", limit + 2),
        ("1", "3", "a" * (half + 1) + "b" + "A" * half, limit + 2),  # plain letters count
        ("-3", "1", f"a^-{half}Ba^{half}a", limit + 2),
        ("1", "1", "a" * limit + "A", limit + 1),
        (str(2**64), "1", "a" * (limit // 65 + 1), 65 * (limit // 65 + 1)),
        ("2", "3", f"a^{10**12}", 2 * 10**12),
    ):
        code, out, err = run(capsys, "bswp", "--p", p, "--q", q, "--word", word)
        assert code == 1 and out == ""
        message = f"a-letters * bit_length(max(|p|, |q|)) = {size} is over the limit {limit}"
        assert err == f"error: SizeLimitExceeded: {message}\n", (p, q, word[:20])


@pytest.mark.parametrize("word, err", [
    ("xa^999999999", "invalid symbol 'x' (offset 0)"),
    ("ab?" + "a" * 200_000, "invalid symbol '?' (offset 2)"),
    ("a^-2b a^999999999", "invalid symbol ' ' (offset 5)"),
    ("aB^3a^999999999", "exponent tokens use lowercase letters (offset 2)"),
], ids=["symbol-first", "plain-letters-past-gap", "space", "uppercase-exponent"])
def test_bswp_prices_only_what_the_parser_reads(capsys, word, err):
    """Nothing is priced until the whole word is read, so a malformed word
    exits 2 with its first fault however many a-letters come before or
    after that fault."""
    code, out, stderr = run(capsys, "bswp", "--p", "1", "--q", "2", "--word", word)
    assert (code, out, stderr) == (2, "", f"error: ParseError: {err}\n")


@pytest.mark.parametrize("p, word, err", [
    ("9" * 4299, "a^11x", "invalid symbol 'x' (offset 4)"),
    ("2", "a^10000000bA^10000000", "exponent tokens use lowercase letters (offset 12)"),
], ids=["huge-p", "uppercase-exponent-after-a-power"])
def test_bswp_reads_the_whole_word_before_pricing_it(capsys, p, word, err):
    """Words whose fault follows a-letters over the limit: the parser's
    error and its offset, not the size limit."""
    code, out, stderr = run(capsys, "bswp", "--p", p, "--q", "3", "--word", word)
    assert (code, out, stderr) == (2, "", f"error: ParseError: {err}\n")


def test_nk_limits_the_size_of_n_to_the_k(capsys, monkeypatch):
    """The loop that counts N costs time quadratic in the size of n^k (m = 2,
    n = 4 took 7 s at k = 80,000), so k * bit_length(|n|) is checked first.
    At the limit it still answers, and a huge n needs no factoring."""
    limit = SIZE_LIMITS["nk"]
    code, out, _ = run(capsys, "nk", "--m", "2", "--n", "4", "--k", str(limit // 3))
    assert code == 0 and out == f"N={2 * (limit // 3) - 1} alpha=2"
    code, out, _ = run(capsys, "nk", "--m", "2", "--n", "1000000000000000003", "--k", "1")
    assert code == 0 and out == "N=1 alpha=2"

    def never(m, n, k):
        raise AssertionError("bs_n_of_k ran on an over-limit input")

    monkeypatch.setattr(cli, "bs_n_of_k", never)
    for n, k, size in (("4", limit // 3 + 1, 3 * (limit // 3 + 1)), ("-4", 10**12, 3 * 10**12),
                       (str(2**14_000), 2, 28_002)):
        code, out, err = run(capsys, "nk", "--m", "2", "--n", n, "--k", str(k))
        assert code == 1 and out == ""
        message = f"k * bit_length(|n|) = {size} is over the limit {limit}"
        assert err == f"error: SizeLimitExceeded: {message}\n"


def test_nk_prints_alpha_at_the_limit(capsys):
    """With m odd and n = 2^j, N = k and alpha = m^k, up to k * j bits, and
    printing an int over 4,300 decimal digits raises in Python.  Under the
    limit |alpha| < 2^14000 has at most 4,215 digits, so alpha prints in
    plain text and in JSON; the old limit let 1023^1818 through."""
    limit = SIZE_LIMITS["nk"]
    code, out, err = run(capsys, "nk", "--m", "1023", "--n", "1024", "--k", "1818")
    assert code == 1 and out == ""
    message = f"k * bit_length(|n|) = 19998 is over the limit {limit}"
    assert err == f"error: SizeLimitExceeded: {message}\n"
    j = limit // 2 - 1  # n = 2^j has j + 1 bits, so k = 2 is at the limit
    m, n = 2**j - 1, 2**j
    argv = ("nk", "--m", str(m), "--n", str(n), "--k", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == f"N=2 alpha={m * m}" and len(str(m * m)) == 4_214
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0 and json.loads(out) == {"N": 2, "alpha": m * m}
    k = limit // 8  # n = 128
    code, out, _ = run(capsys, "nk", "--m", "127", "--n", "128", "--k", str(k))
    assert code == 0 and out == f"N={k} alpha={127**k}"


def test_recover_finds_the_largest_moduli(capsys):
    # recovery tries |m| = 1..64: the last two must be reachable
    for m in (63, 64):
        code, out, _ = run(capsys, "recover", "--m", str(m), "--xi", "int:-1", "--count", "2")
        assert code == 0 and out == f"m={m} digits={m - 1} 1"
    # the count limit on a parameter whose digits are not 0 from r_2 on
    flags = ("--m", "64", "--xi", "rat:5/7", "--count", "64")
    code, out, _ = run(capsys, "recover", *flags)
    digits = run(capsys, "rdigits", *flags)[1]
    assert code == 0 and out == f"m=64 digits={digits}" and len(digits.split()) == 64


def test_recover_refuses_a_modulus_it_cannot_reach(capsys, monkeypatch):
    """Recovery searches |m| = 1..64 only, so a larger |--m| is refused for
    size before any probe, not blamed on the oracle after 64 of them."""
    limit = SIZE_LIMITS["recover-m"]

    def never(oracle, n):
        raise AssertionError("recover_parameters ran on an unreachable modulus")

    monkeypatch.setattr(cli, "recover_parameters", never)
    for m in (limit + 1, -limit - 1, 100, 10**30):
        code, out, err = run(capsys, "recover", "--m", str(m), "--xi", "int:3", "--count", "2")
        over = f"|--m| = {abs(m)} is over the limit {limit}"
        assert (code, out, err) == (1, "", f"error: SizeLimitExceeded: {over}\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, "recover", "--m", str(limit), "--xi", "int:3", "--count", "2")
    assert (code, out) == (0, f"m={limit} digits=3 0")


def test_relator_is_priced_by_its_word_length(capsys):
    """A relator's word has about |m| letters per spine, so ``relator`` prices
    the word it builds, which holds b^m as one letter, before it prints it;
    at |m| >= 2^63 the b-run used to overflow in ``format_word`` and escape
    as a traceback."""
    limit = SIZE_LIMITS["relator-letters"]
    code, out, err = run(capsys, "relator", "--kind", "w", "--m", "99999999999999999999",
                         "--digits", "")
    assert code == 1 and out == ""
    over = "word length = 100000000000000000001 is over the limit"
    assert err == f"error: SizeLimitExceeded: {over} {limit}\n"
    # w(m; ) = a b^m a^-1 has |m| + 2 letters
    code, out, _ = run(capsys, "relator", "--kind", "w", "--m", str(limit - 2), "--digits", "")
    assert code == 0 and len(out) == limit
    code, out, err = run(capsys, "relator", "--kind", "w", "--m", str(2 - limit), "--digits", "0")
    assert code == 1 and out == "" and err.startswith("error: SizeLimitExceeded: word length")
    # win_e(m; ) = a b^m a^-1 b a B^m a^-1 B has 2|m| + 6 letters, always an even count,
    # so the next length past the limit is limit + 2
    code, out, _ = run(capsys, "relator", "--kind", "wine", "--m", str(limit // 2 - 3),
                       "--digits", "")
    assert code == 0 and len(out) == limit
    code, out, err = run(capsys, "relator", "--kind", "wine", "--m", str(limit // 2 - 2),
                         "--digits", "")
    over = f"word length = {limit + 2} is over the limit {limit}"
    assert (code, out, err) == (1, "", f"error: SizeLimitExceeded: {over}\n")
    # b_1 = w(|m|; ) has |m| + 2 letters, b_2 = w(|m|; r_1) 4 + |m| + r_1, and r_1 = 1 for int:1
    code, out, err = run(capsys, "relator", "--kind", "bi", "--m", str(limit), "--xi", "int:1",
                         "--index", "1")
    assert code == 1 and err.startswith("error: SizeLimitExceeded: word length")
    code, out, _ = run(capsys, "relator", "--kind", "bi", "--m", str(limit - 5), "--xi", "int:1",
                       "--index", "2")
    assert code == 0 and len(out) == limit
    code, out, err = run(capsys, "relator", "--kind", "bi", "--m", str(limit - 4), "--xi", "int:1",
                         "--index", "2")
    over = f"word length = {limit + 1} is over the limit {limit}"
    assert (code, out, err) == (1, "", f"error: SizeLimitExceeded: {over}\n")
    code, out, _ = run(capsys, "relator", "--kind", "bi", "--m", "1000", "--xi", "int:1",
                       "--index", "10000")
    assert code == 0 and len(out) == 2 * 10_000 + 1000 + 1
    ctx = GroupCtx.make(5, "rat:-1/3")
    for kind, m, index, digits in [("w", 3, None, [2, 0, 1]), ("wine", -5, None, [4, 4]),
                                   ("w", 2, None, []), ("vk", None, 7, None), ("vk", None, 0, None),
                                   ("vk", None, -3, None)] + [("bi", 5, i, None) for i in (1, 2, 9)]:
        word = cli.relator(kind, ctx=ctx, index=index, m=m, digits=digits)
        printed = len(cli.format_word(word, "compact"))
        assert printed == cli._compact_letters(word), (kind, m, index, digits)


@pytest.mark.parametrize("argv, err", [
    # a b_i refused for size names its full length, 2i + |m| + r_1 + ... + r_{i-1}
    ("--kind bi --m 99999999999999999999 --xi int:1 --index 9999",
     "SizeLimitExceeded: word length = 100000000000000019998 is over the limit 10000000"),
    # a missing or invalid argument is reported before any price
    ("--kind bi --m 99999999999999999999 --xi int:1", "ValueError: bi needs ctx and index"),
    ("--kind w --m 99999999999999999999", "ValueError: w needs m and digits"),
    ("--kind bi --m 99999999999999999999 --xi int:1 --index 0",
     "ValueError: generator indices start at 1"),
    # a finite rseq: that ends before --index is out of digits, whatever |m| is
    ("--kind bi --m 9999999 --xi rseq:1 --index 64",
     "RDigitBudgetExceeded: first missing digit index 2"),
])
def test_relator_reports_the_first_fault(capsys, argv, err):
    """``relator`` builds its word before it prices it, so an input with two
    faults reports the one that building meets first."""
    assert run(capsys, "relator", *argv.split()) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("argv, err", [
    ("rdigits --m 2 --xi int:x --count 99999", "bad number 'x' (offset 4)"),
    ("recover --m 2 --xi int:x --count 99999", "bad number 'x' (offset 4)"),
    ("recover --m 100 --xi rat:1/x --count 2", "bad number 'x' (offset 6)"),
    ("dist --m 2 --xi int:1 --xi2 int:x --max-len 99", "bad number 'x' (offset 4)"),
    ("dist --m 2 --xi int:x --xi2 int:1 --max-len 15", "bad number 'x' (offset 4)"),
    ("relator --kind w --m 2 --digits 1,,x --index 99999", "bad number '' (offset 2)"),
    ("relator --kind bi --m 2 --xi rseq:1,x --index 99999", "bad number 'x' (offset 7)"),
])
def test_malformed_input_is_read_before_any_price(capsys, argv, err):
    """Each command reads its groups and digit lists before it prices its
    size flags (and before the ``dist --force`` guard), so malformed input
    exits 2 with its first fault whatever the size flags are."""
    assert run(capsys, *argv.split()) == (2, "", f"error: ParseError: {err}\n")


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["wp", "--m", "2"])
    assert info.value.code == 2
    # integer flags take ASCII decimals only, as the grammars do
    for argv in (["rdigits", "--m", "٢", "--xi", "int:3", "--count", "2"],
                 ["rdigits", "--m", "2", "--xi", "int:3", "--count", "1_0"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


LONG = "9" * 5_000  # well formed, but over int()'s 4,300-digit conversion limit
LONG_NUMBERS = {  # name: (the number's offset, argv)
    "wp-xi": (4, ["wp", "--m", "2", "--xi", f"int:{LONG}", "--word", "a"]),
    "bswp-b": (3, ["bswp", "--p", "2", "--q", "3", "--word", f"ab^{LONG}"]),
    "bswp-a": (3, ["bswp", "--p", "2", "--q", "3", "--word", f"ba^-{LONG}"]),
    "wp-e": (3, ["wp", "--m", "2", "--xi", "int:3", "--alphabet", "extended",
                 "--word", f"a e{LONG}"]),
    "relator-digits": (2, ["relator", "--kind", "w", "--m", "2", "--digits", f"1,{LONG}"]),
}


@pytest.mark.parametrize("name", sorted(LONG_NUMBERS))
def test_long_numbers_are_parse_errors(capsys, name):
    offset, argv = LONG_NUMBERS[name]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: ParseError: 5000-digit number is over the 4300-digit limit (offset {offset})\n"


def test_long_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["rdigits", "--m", "2", "--xi", "int:3", "--count", LONG])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert f"argument --count: bad number '{LONG}'" in err and "ValueError" not in err


def test_cached_parser_keeps_no_state_between_calls(capsys):
    g = ("--m", "2", "--xi", "int:3")
    code, out, _ = run(capsys, "--json", "wp", *g, "--word", "b")
    assert code == 0 and json.loads(out) == {"trivial": False}
    code, out, _ = run(capsys, "wp", *g, "--word", "b")
    assert code == 0 and out == "nontrivial"
    pair = ("bounds", "--m", "2", "--xi", "int:1", "--xi2", "int:3")
    code, out, _ = run(capsys, *pair, "--m2", "-2")
    assert code == 0 and out == "h=2 lower=e^-28 upper=e^-5"
    code, out, _ = run(capsys, *pair)
    assert code == 0 and out == "h=1 lower=e^-22 upper=e^-3"
    with pytest.raises(SystemExit) as info:
        main(["wp", "--m", "2"])
    assert info.value.code == 2
    code, out, _ = run(capsys, "wp", *g, "--word", "babbABaBBA")
    assert code == 0 and out == "trivial"
    assert build_parser() is build_parser()
    assert build_parser.cache_info().misses == 1


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bsl ")]


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert commands
    for line in commands:
        command, _, expected = line.partition(" # ")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        if expected:
            assert out == expected.strip(), line


def test_the_module_runs_as_a_process():
    """``python -m bslim.cli`` exits with main()'s code: 0 on success, 1 on
    a domain error, 2 on a usage error."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def bsl(*argv):
        return subprocess.run([sys.executable, "-X", "dev", "-m", "bslim.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    group = ("rdigits", "--m", "2", "--xi", "int:3")
    proc = bsl(*group, "--count", "5")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 1 1 1 1\n", "")
    proc = bsl(*group, "--count", "-2")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ValueError: count must be nonnegative")
    proc = bsl(*group)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "the following arguments are required: --count" in proc.stderr
