import json

import pytest

from bslim.cli import main
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
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: ParseError:"), argv


def test_domain_error_exit_1(capsys):
    code, _, err = run(
        capsys, "iso", "--m", "2", "--xi", "rseq:1,0", "--xi2", "int:3"
    )
    assert code == 1 and err.startswith("error: UndecidableSpec:")


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
