import random
import time
from itertools import product

import pytest

from bslim import ParseError, PreconditionViolated, XiRat
from bslim.bsclassic import (
    BSSpec,
    bs_is_trivial,
    bs_n_of_k,
    mu_max_exponent,
    parse_bs_word,
)
from bslim.group import GroupWord, commutator, is_trivial, parse_word
from bslim.lattice import GroupCtx
from bslim.madic import MarkedGroupSpec, s_values


def test_parse_bs_word():
    def same_element(u, v, spec=BSSpec(2, 3)):
        return bs_is_trivial(spec, u * v.inverse())

    w = parse_bs_word("ab^2Ab^-3")
    assert same_element(parse_bs_word("abbABBB"), w)
    assert parse_bs_word("a^-2") == parse_bs_word("AA")
    assert same_element(parse_bs_word("b^0a"), parse_bs_word("a"))
    with pytest.raises(ParseError):
        parse_bs_word("ab^xA")
    with pytest.raises(ParseError):
        parse_bs_word("A^2")
    with pytest.raises(ParseError):
        parse_bs_word("c")


def test_defining_relator():
    assert bs_is_trivial(BSSpec(2, 3), parse_bs_word("ab^2Ab^-3"))
    assert not bs_is_trivial(BSSpec(2, 3), parse_bs_word("ab^2Ab^-2"))


def test_commutator_examples():
    spec = BSSpec(2, 3)
    w = commutator(parse_bs_word("abA"), parse_bs_word("b"))
    assert not bs_is_trivial(spec, w)  # b is not in <b^2>
    w = commutator(parse_bs_word("b"), parse_bs_word("ab^2A"))
    assert bs_is_trivial(spec, w)  # a b^2 a^-1 = b^3 commutes with b


def test_free_reduction_and_identity():
    spec = BSSpec(2, 3)
    assert bs_is_trivial(spec, parse_bs_word(""))
    assert bs_is_trivial(spec, parse_bs_word("aAbB"))
    assert not bs_is_trivial(spec, parse_bs_word("a"))
    assert not bs_is_trivial(spec, parse_bs_word("b"))


def test_solvable_bs_examples():
    # BS(1, 2): a b a^-1 = b^2
    spec = BSSpec(1, 2)
    assert bs_is_trivial(spec, parse_bs_word("abAb^-2"))
    assert bs_is_trivial(spec, parse_bs_word("a^2bA^2b^-4".replace("A^2", "a^-2")))


def test_big_exponent_blocks():
    # a^-3 b^(4^3) a^3 = b^8 in BS(2, 4)
    spec = BSSpec(2, 4)
    w = parse_bs_word("a^-3b^64a^3b^-8")
    assert bs_is_trivial(spec, w)


def test_long_word_reduces_in_one_pass():
    # 560k letters of a b^2 a^-1 b^-3: the block reducer backtracked and
    # deleted from the middle of its lists (6.5 s); one stack pass is linear
    w = GroupWord(parse_bs_word("abbABBB").letters * 80_000)
    start = time.process_time()
    assert bs_is_trivial(BSSpec(2, 3), w)
    assert not bs_is_trivial(BSSpec(-2, 3), w)
    assert time.process_time() - start < 1.0


def test_parse_bs_word_reads_shared_letters():
    # 560k letters in under 1 s: the per-character scanner built a fresh
    # BaseLetter for every b and B and took 2.0-2.4 s
    start = time.process_time()
    w = parse_bs_word("abbABBB" * 80_000)
    assert time.process_time() - start < 1.0
    assert len(w.letters) == 560_000
    # with no ^ the grammar is the compact one, letter objects included
    for n in range(7):
        for text in map("".join, product("aAbB", repeat=n)):
            new, compact = parse_bs_word(text), parse_word(text)
            assert new == compact and all(x is y for x, y in zip(new.letters, compact.letters))


def test_convergence_to_limit_small():
    # triviality in BS(2, xi_n) with xi_n = 3 mod 8 matches the limit group
    # for short words
    ctx = GroupCtx.make(2, XiRat(3))
    rng = random.Random(4)
    for xi_n in (19, 35):
        spec = BSSpec(2, xi_n)
        for _ in range(200):
            text = "".join(rng.choice("aAbB") for _ in range(rng.randrange(7)))
            w = parse_word(text)
            assert bs_is_trivial(spec, w) == is_trivial(ctx, w), (xi_n, text)


def test_convergence_rational_parameter_m3():
    # xi = 1/2 over m = 3: integers with 2 xi_n = 1 mod 27 and |xi_n| >= 27
    # share the first 3 digits, so triviality agrees up to length 6
    ctx = GroupCtx.make(3, XiRat(1, 2))
    words = []
    frontier = [""]
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    for _ in range(6):
        new = []
        for w in frontier:
            for ch in "aAbB":
                if w and inverse[w[-1]] == ch:
                    continue
                new.append(w + ch)
        words.extend(new)
        frontier = new
    for xi_n in (41, 68, 95):
        assert (2 * xi_n) % 27 == 1 and abs(xi_n) >= 27
        spec = BSSpec(3, xi_n)
        for text in words:
            w = parse_word(text)
            assert bs_is_trivial(spec, w) == is_trivial(ctx, w), (xi_n, text)


def test_lem_bi_in_bs():
    # b_2 * b^(-xi * s_1(xi)) is trivial in BS(2, 19)
    xi = 19
    s1 = s_values(MarkedGroupSpec(2, XiRat(xi)), 1)[0]
    assert s1 == 9
    r1 = 1
    b2 = parse_bs_word(f"aab^2Ab^-{r1}A")  # a (a b^2 a^-1) b^-r1 a^-1
    w = b2 * parse_bs_word(f"b^-{xi * s1}")
    assert bs_is_trivial(BSSpec(2, xi), w)


@pytest.mark.parametrize(
    "m,n,k,expect",
    [(2, 4, 1, (1, 2)), (2, 4, 2, (3, 2)), (2, 6, 1, (1, 2))],
)
def test_n_of_k_examples(m, n, k, expect):
    assert bs_n_of_k(m, n, k) == expect


def test_n_of_k_definition_and_bounds():
    for m, n in [(2, 4), (2, 6), (3, 18), (4, 10)]:
        mu = mu_max_exponent(m)
        for k in range(1, 6):
            cnt, alpha = bs_n_of_k(m, n, k)
            assert alpha % n != 0
            # recompute: alpha equals n^k after cnt divide-multiply steps
            check = n**k
            for _ in range(cnt):
                assert check % n == 0
                check = (check // n) * m
            assert check == alpha
            assert k <= cnt <= (mu + 2) * k


def test_n_of_k_matches_bs_reduction():
    # a^-N b^(n^k) a^N b^-alpha is trivial in BS(m, n)
    m, n, k = 2, 6, 3
    cnt, alpha = bs_n_of_k(m, n, k)
    w = parse_bs_word(f"a^-{cnt}b^{n**k}a^{cnt}b^{-alpha}")
    assert bs_is_trivial(BSSpec(m, n), w)


@pytest.mark.parametrize("m,mu", [(1, 0), (2, 1), (-3, 1), (12, 2), (-72, 3), (97, 1),
                                  (2 * 97**2, 2), (2**5 * 3**7, 7), (65_537, 1)])
def test_mu_max_exponent(m, mu):
    assert mu_max_exponent(m) == mu


def test_n_of_k_needs_no_factorization():
    # |m| < |n| already rules out n | m; trial division of the 61-bit prime
    # 2^61 - 1 ran past a minute
    start = time.process_time()
    assert bs_n_of_k(2, 2**61 - 1, 1) == (1, 2)
    assert bs_n_of_k(-3, -(2**61 - 1), 2) == (2, 9)
    assert time.process_time() - start < 1.0


def test_n_of_k_preconditions():
    with pytest.raises(PreconditionViolated):
        bs_n_of_k(4, 2, 1)  # |m| >= |n|
    with pytest.raises(PreconditionViolated):
        bs_n_of_k(2, 4, 0)  # k < 1
    with pytest.raises(PreconditionViolated):
        bs_n_of_k(0, 4, 1)
    with pytest.raises(PreconditionViolated):
        bs_n_of_k(3, -3, 1)  # |m| == |n|
