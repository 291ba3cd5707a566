"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Everything here is exact arithmetic; the only tolerances are the
stated enumeration bounds and cardinalities.
"""

import itertools
import math
import random
import time

import pytest

from bslim import MarkedGroupSpec, XiRat, XiSeq
from bslim.bsclassic import BSSpec, bs_is_trivial, bs_n_of_k
from bslim.group import (
    are_conjugate,
    commutator,
    is_trivial,
    normal_form,
    parse_word,
)
from bslim.lattice import GroupCtx, p_polys
from bslim.markedspace import (
    b_i_word,
    distance_bounds,
    shortest_distinguishing,
    v_k_word,
    win_e_word,
    word_problem_oracle,
    recover_parameters,
)
from bslim.morphisms import (
    J,
    LaurentPoly,
    PhiE,
    ThetaK,
    apply_automorphism,
    wreath_image,
)

from test_bsclassic import mu_max_exponent
from test_group import compact_length

W = parse_word
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def freely_reduced_words(max_len, include_empty=True):
    if include_empty:
        yield ""
    frontier = [""]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for ch in "aAbB":
                if w and _INVERSE[w[-1]] == ch:
                    continue
                new.append(w + ch)
        yield from new
        frontier = new


def report(number, label, t0):
    print(f"criterion {number} ({label}): PASS in {time.time() - t0:.2f}s")


def test_criterion_1_digit_bijection():
    t0 = time.time()
    for m in (2, 3, 4, 6):
        for h in (1, 2, 3, 4):
            seen = set()
            count = 0
            for n in range(m**h):
                if math.gcd(n, m) != 1:
                    continue
                count += 1
                seen.add(tuple(GroupCtx(MarkedGroupSpec(m, XiRat(n))).digits(h)))
            phi = sum(1 for k in range(m) if math.gcd(k, m) == 1)
            expect = phi * m ** (h - 1)
            assert count == expect
            assert len(seen) == expect  # injective, hence bijective onto
            units = {t[0] for t in seen}
            assert units == {k for k in range(m) if math.gcd(k, m) == 1}
            assert all(all(0 <= d < m for d in t) for t in seen)
    report(1, "digit bijection", t0)


def test_criterion_2_congruence_law():
    t0 = time.time()
    rng = random.Random(2)
    for m in (2, 3, 4):
        bound = m**5
        info = {}
        for n in range(bound):
            spec = MarkedGroupSpec(m, XiRat(n))
            info[n] = (GroupCtx(spec).gcd_with_m(), tuple(GroupCtx(spec).digits(4)))
        for h in (1, 2, 3, 4):
            # two equivalence relations on each gcd class must coincide:
            # same h-prefix, and congruence mod (m/d)^h * d.  Partition
            # equality is the pairwise biconditional over all n, n'.
            by_prefix = {}
            by_residue = {}
            for n in range(bound):
                d, digits = info[n]
                mod = (m // d) ** h * d
                kp = (d, digits[:h])
                kr = (d, n % mod)
                assert by_prefix.setdefault(kp, kr) == kr, (m, h, n)
                assert by_residue.setdefault(kr, kp) == kp, (m, h, n)
            # spot-check the biconditional on explicit pairs as well
            for _ in range(2000):
                n, np = rng.randrange(bound), rng.randrange(bound)
                d, digits = info[n]
                dp, digitsp = info[np]
                if d != dp:
                    continue
                mod = (m // d) ** h * d
                assert (digits[:h] == digitsp[:h]) == ((n - np) % mod == 0)
    report(2, "congruence law", t0)


def test_criterion_3_convergence_oracle():
    t0 = time.time()
    ctx = GroupCtx.make(2, XiRat(3))
    words = [W(text) for text in freely_reduced_words(8)]
    limit_answers = [is_trivial(ctx, w) for w in words]
    for xi_n in (19, 35, 51):
        assert xi_n % 16 == 3  # agrees with xi = 3 on the first 4 digits
        spec = BSSpec(2, xi_n)
        for w, expect in zip(words, limit_answers):
            assert bs_is_trivial(spec, w) == expect
    report(3, f"convergence oracle ({len(words)} words x 3 groups)", t0)


@pytest.mark.parametrize(
    "xi2,h,bound",
    [(XiRat(3), 1, 22), (XiRat(5), 2, 28)],
)
def test_criterion_4_metric_sandwich(xi2, h, bound):
    t0 = time.time()
    g1 = MarkedGroupSpec(2, XiRat(1))
    g2 = MarkedGroupSpec(2, xi2)
    ctx1, ctx2 = GroupCtx(g1), GroupCtx(g2)
    # (a) no distinguishing word up to length 2h
    for text in freely_reduced_words(2 * h):
        w = W(text)
        assert is_trivial(ctx1, w) == is_trivial(ctx2, w), text
    # (b) the explicit certificate at depth h+1 distinguishes within bound
    prefix = GroupCtx(g1).digits(h + 1)
    cert = win_e_word(2, prefix)
    assert is_trivial(ctx1, cert) and not is_trivial(ctx2, cert)
    assert compact_length(cert) <= bound
    # (c) enumeration result against the sandwich, cap 14
    found = shortest_distinguishing(GroupCtx(g1), GroupCtx(g2), 14)
    if found is None:
        assert bound > 14  # absence below the cap is consistent
    else:
        length, word = found
        assert 2 * h + 1 <= length <= bound
        assert is_trivial(ctx1, word) != is_trivial(ctx2, word)
    report(4, f"metric sandwich (h={h})", t0)


def test_criterion_4_exact_distance_h1():
    """The exact distance of the h = 1 pair, inside its sandwich [3, 22]."""
    t0 = time.time()
    g1 = MarkedGroupSpec(2, XiRat(1))
    g2 = MarkedGroupSpec(2, XiRat(3))
    word = W("aaabbAbAAbaaaBBABAAB")
    assert shortest_distinguishing(GroupCtx(g1), GroupCtx(g2), 20) == (20, word)
    assert not is_trivial(GroupCtx(g1), word)
    assert is_trivial(GroupCtx(g2), word)
    # n = xi + 2^11 shares 11 digits with xi, which covers words of length 20
    assert not bs_is_trivial(BSSpec(2, 1 + 2**11), word)
    assert bs_is_trivial(BSSpec(2, 3 + 2**11), word)
    bounds = distance_bounds(GroupCtx(g1), GroupCtx(g2))
    assert (bounds.upper_exp, bounds.lower_exp) == (3, 22)
    assert bounds.upper_exp <= 20 <= bounds.lower_exp
    report(4, "exact distance nu = 20 (h=1)", t0)


def test_criterion_5_relator_suite():
    t0 = time.time()
    specs = [
        MarkedGroupSpec(2, XiRat(0)),
        MarkedGroupSpec(2, XiRat(1)),
        MarkedGroupSpec(2, XiRat(3)),
        MarkedGroupSpec(3, XiRat(1, 2)),
        MarkedGroupSpec(2, XiSeq((1,), (0, 1))),
    ]
    b = W("b")
    for spec in specs:
        ctx = GroupCtx(spec)
        for i in range(1, 11):
            assert is_trivial(ctx, commutator(b, b_i_word(ctx, i))), (spec, i)
    for spec in (MarkedGroupSpec(2, XiRat(3)), MarkedGroupSpec(3, XiRat(1, 2))):
        ctx = GroupCtx(spec)
        for k in range(1, 21):
            assert is_trivial(ctx, v_k_word(k)) == (k % spec.m_abs == 0), (spec, k)
    # b_2 b^(-xi s_1(xi)) dies in BS(2, 19)
    xi = 19
    s1 = GroupCtx(MarkedGroupSpec(2, XiRat(xi))).s_values(1)[0]
    exp = xi * s1
    assert exp.denominator == 1
    exp = int(exp)
    ctx19 = GroupCtx.make(2, XiRat(xi))
    b2 = b_i_word(ctx19, 2)
    tail = W("B" * exp) if exp > 0 else W("b" * (-exp))
    assert bs_is_trivial(BSSpec(2, xi), b2 * tail)
    report(5, "relator suite", t0)


def _conjugate_ball(ctx, w, depth):
    """Normal forms of all g w g^-1 with |g| <= depth (breadth first over
    conjugation by single letters)."""
    gens = [W(c) for c in "aAbB"]
    start = normal_form(ctx, w)
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        new = []
        for form in frontier:
            base = form.to_word()
            for s in gens:
                cand = normal_form(ctx, s * base * s.inverse())
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return seen


def test_criterion_6_conjugacy_correctness():
    t0 = time.time()
    ctx = GroupCtx.make(2, XiRat(3))
    rng = random.Random(6)

    # (b) constructed conjugate pairs always succeed, witnesses verify (a)
    for _ in range(200):
        w = W("".join(rng.choice("aAbB") for _ in range(rng.randrange(7))))
        g = W("".join(rng.choice("aAbB") for _ in range(rng.randrange(7))))
        v = g * w * g.inverse()
        found = are_conjugate(ctx, v, w)
        assert found is not None
        assert is_trivial(ctx, found * w * found.inverse() * v.inverse())

    # (c) against a brute-force oracle on all words of length <= 4.  A
    # conjugator of length <= 8 exists for (u, w) exactly when some
    # element is a <= 4 conjugate of both (meet in the middle): u = g w
    # g^-1 with g = g2 g1 splits as g2^-1 u g2 = g1 w g1^-1.
    words = [W(text) for text in freely_reduced_words(4)]
    balls = [_conjugate_ball(ctx, w, 4) for w in words]
    checked = 0
    for (u, ball_u), (w, ball_w) in itertools.combinations_with_replacement(
        list(zip(words, balls)), 2
    ):
        brute = not ball_u.isdisjoint(ball_w)
        found = are_conjugate(ctx, u, w)
        if brute:
            assert found is not None, (u, w)
        if found is not None:
            assert is_trivial(ctx, found * w * found.inverse() * u.inverse())
        checked += 1
    report(6, f"conjugacy ({checked} word pairs vs brute force)", t0)


def test_criterion_7_parameter_recovery():
    t0 = time.time()
    for m, xi in [(2, XiRat(3)), (2, XiRat(1)), (3, XiRat(0)), (3, XiRat(1, 2))]:
        spec = MarkedGroupSpec(m, xi)
        m_found, digits = recover_parameters(word_problem_oracle(GroupCtx(spec)), 6)
        assert m_found == abs(m)
        assert digits == GroupCtx(spec).digits(6)
    report(7, "parameter recovery", t0)


def test_criterion_8_wreath_quotient():
    t0 = time.time()
    ctx = GroupCtx.make(2, XiRat(3))
    rng = random.Random(8)
    for _ in range(1000):
        u = W("".join(rng.choice("aAbB") for _ in range(rng.randrange(9))))
        v = W("".join(rng.choice("aAbB") for _ in range(rng.randrange(9))))
        left = wreath_image(ctx, u * v)
        assert left == wreath_image(ctx, u) * wreath_image(ctx, v)
        sigma = sum(1 for l in (u * v).letters if getattr(l, "exp", 0) == 1) - sum(
            1 for l in (u * v).letters if getattr(l, "exp", 0) == -1
        )
        assert left.shift == sigma
    ps = p_polys(ctx, 8)
    for i in range(1, 9):
        img = wreath_image(ctx, b_i_word(ctx, i))
        expect = LaurentPoly(1, ps[i - 1].coeffs)  # X * P_{i-1}
        assert img == type(img)(expect, 0)
    report(8, "wreath quotient", t0)


def test_criterion_9_nk_bounds():
    t0 = time.time()
    for m, n in [(2, 4), (2, 6), (3, 18)]:
        mu = mu_max_exponent(m)
        for k in range(1, 6):
            count, alpha = bs_n_of_k(m, n, k)
            assert alpha % n != 0
            check = n**k
            for _ in range(count):
                check = (check // n) * m
            assert check == alpha
            assert k <= count <= (mu + 2) * k, (m, n, k, count)
    report(9, "N(k) bounds", t0)


def test_criterion_10_automorphism_suite():
    t0 = time.time()
    ctx = GroupCtx.make(2, XiRat(3))
    rng = random.Random(10)
    from bslim.lattice import EVec

    e = EVec.from_items({0: 2, 1: -1})
    for _ in range(500):
        w = W("".join(rng.choice("aAbB") for _ in range(rng.randrange(9))))
        jj = apply_automorphism(ctx, J(), apply_automorphism(ctx, J(), w))
        assert is_trivial(ctx, jj * w.inverse())
        round_trip = apply_automorphism(
            ctx, PhiE(-e), apply_automorphism(ctx, PhiE(e), w)
        )
        assert is_trivial(ctx, round_trip * w.inverse())
    theta = ThetaK(3)
    count = 0
    for text in freely_reduced_words(8):
        w = W(text)
        assert is_trivial(ctx, apply_automorphism(ctx, theta, w)) == is_trivial(
            ctx, w
        ), text
        count += 1
    report(10, f"automorphism suite (theta on {count} words)", t0)


def test_criterion_11_normal_form_uniqueness():
    t0 = time.time()
    ctx = GroupCtx.make(2, XiRat(3))
    words = [W(text) for text in freely_reduced_words(5)]
    forms = [normal_form(ctx, w) for w in words]
    checked = 0
    for (u, fu), (v, fv) in itertools.combinations(zip(words, forms), 2):
        assert (fu == fv) == is_trivial(ctx, u * v.inverse())
        checked += 1
    report(11, f"normal-form uniqueness ({checked} pairs)", t0)
