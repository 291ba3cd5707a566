"""Property tests of the conjugacy decision, the normal form and the word
problem, derandomized so every run draws the same examples (the profile
in conftest.py).

For random words w and g over {a, b}: g w g^-1 is conjugate to w, through
a witness the word problem confirms; and g w g^-1 is never conjugate to
w b.  The proof of the second: the wreath image (P, sigma) of an element
has P(1) invariant under conjugation, since conjugating by (Q, s) gives
(X^s P + (1 - X^sigma) Q, sigma) and both X^s and 1 - X^sigma are
constants at X = 1, while the image of w b has P(1) + 1.

The lamp screen of are_conjugate therefore rejects every rotation of
w b's core before the base solver runs: when sigma != 0, P(1) is also the
sum of the residues of P mod X^sigma - 1, and a cyclic shift of the
residues keeps their sum; when sigma = 0, the screen compares the lamp
polynomials themselves, and a shift by X^s keeps P(1).

Normal forms name group elements, so inserting x x^-1 or a conjugate of
a defining relator [b, b_i] anywhere leaves the normal form unchanged.
And the limit group agrees with BS(|m|, n) on every word of length at
most 2h once n = xi mod |m|^h and n >= |m|^h, the m-adic convergence the
groups are limits of; the words probed are commutators [b^s, a^j b^k a^-j],
whose triviality depends on the first j digits.  Parameter recovery run on
the word problem of BS(m, n) itself, for any m < |n|, reads back the
digits of the integer parameter n (the test's docstring derives why).

Isomorphism is decided from the labels alone; it must agree with equal
|m| and equal normalized digits r_1..r_64 for integer, rational and
periodic parameters of the sizes drawn here, whose distinct digit streams
part within their first 20 digits (a scan of all integers and rationals
p/q with |p| <= 40, q < 16 against random sequences, over m = 2..6).
Every other label of the same group must be found isomorphic:
(m, xi) -> (-m, -xi), p/q -> fp/fq, and a small integer written out as
the periodic digit sequence it realizes.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bslim import (
    MarkedGroupSpec,
    RDigitStream,
    UndecidableSpec,
    XiRat,
    XiSeq,
    format_xi,
    group,
    parse_xi,
)
from bslim.bsclassic import BSSpec, bs_is_trivial
from bslim.group import GroupWord, are_conjugate, commutator, is_trivial, normal_form, parse_word
from bslim.lattice import GroupCtx
from bslim.markedspace import b_i_word, isomorphic, recover_parameters
from bslim.morphisms import wreath_image

CASES = [(2, "int:3"), (3, "rat:1/2"), (5, "int:7"), (-3, "rseq:2,1;0,1,2")]
CTXS = {case: GroupCtx.make(*case) for case in CASES}

words = st.text(alphabet="aAbB", max_size=14)


@given(w=words, g=words, case=st.sampled_from(CASES))
def test_conjugates_have_verified_witnesses(w, g, case):
    ctx = CTXS[case]
    ww, gw = parse_word(w), parse_word(g)
    v = gw * ww * gw.inverse()
    found = are_conjugate(ctx, v, ww)
    assert found is not None
    assert is_trivial(ctx, found * ww * found.inverse() * v.inverse())

    wb = ww * parse_word("b")
    lamps_v, lamps_wb = wreath_image(ctx, v).poly, wreath_image(ctx, wb).poly
    assert sum(lamps_wb.coeffs) == sum(lamps_v.coeffs) + 1  # P(1) differs
    assert are_conjugate(ctx, v, wb) is None


@given(w=words, g=words, case=st.sampled_from(CASES))
def test_residue_screen_rejects_w_b_without_solving(w, g, case):
    """P(1) differs between g w g^-1 and w b, and neither a cyclic shift of
    the residues (sigma != 0) nor a shift by X^s (sigma = 0) changes it."""
    ctx = CTXS[case]
    ww, gw = parse_word(w), parse_word(g)
    v = gw * ww * gw.inverse()
    solve, calls = group.base_conjugacy_solve, []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group, "base_conjugacy_solve", counting_solve)
        assert are_conjugate(ctx, v, ww * parse_word("b")) is None
    assert not calls


@given(w=words, g=words, pos=st.integers(0, 14), i=st.integers(0, 3), case=st.sampled_from(CASES))
def test_normal_form_ignores_inserted_relators(w, g, pos, i, case):
    """i = 0 inserts x x^-1 for the first letter x of g (or b); i >= 1
    inserts g [b, b_i] g^-1."""
    ctx = CTXS[case]
    ww, gw = parse_word(w), parse_word(g)
    if i:
        inserted = gw * commutator(parse_word("b"), b_i_word(ctx, i)) * gw.inverse()
    else:
        x = GroupWord(gw.letters[:1]) if g else parse_word("b")
        inserted = x * x.inverse()
    pos = min(pos, len(ww.letters))
    longer = GroupWord(ww.letters[:pos]) * inserted * GroupWord(ww.letters[pos:])
    assert normal_form(ctx, longer) == normal_form(ctx, ww)


BS_CASES = [(2, "int:3"), (3, "rat:1/2"), (5, "int:7"), (-3, "int:2"), (4, "rat:-1/3")]
BS_CTXS = {case: GroupCtx.make(*case) for case in BS_CASES}


def realizing_n(ctx, h):
    """n >= |m|^h with n = xi mod |m|^h, xi negated for m < 0."""
    xi, mod = ctx.spec.xi, ctx.m_abs**h
    p, q = xi.p, xi.q
    return (p if ctx.spec.m > 0 else -p) * pow(q, -1, mod) % mod + mod


@given(
    j=st.integers(0, 4), k=st.integers(-10, 10), s=st.integers(1, 2),
    g=st.text(alphabet="aAbB", max_size=4), tail=st.sampled_from(["", "b", "a", "abA"]),
    case=st.sampled_from(BS_CASES),
)
def test_word_problem_agrees_with_bs(j, k, s, g, tail, case):
    ctx = BS_CTXS[case]
    inner = "a" * j + ("b" if k > 0 else "B") * abs(k) + "A" * j
    gw = parse_word(g)
    w = gw * commutator(parse_word("b" * s), parse_word(inner)) * gw.inverse() * parse_word(tail)
    n = realizing_n(ctx, (len(w.letters) + 1) // 2)
    assert bs_is_trivial(BSSpec(ctx.m_abs, n), w) == is_trivial(ctx, w)


@st.composite
def bs_pairs(draw):
    """(m, n) with 2 <= m <= 12 and m < |n| <= 10^6, both signs of n, and n
    a multiple of a divisor d of m, so that gcd(m, n) > 1 whenever d > 1."""
    m = draw(st.integers(2, 12))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    k = draw(st.integers(m // d + 1, 10**6 // d))
    return m, draw(st.sampled_from((1, -1))) * d * k


@given(pair=bs_pairs())
def test_recovery_through_classical_bs_reads_the_integer_digits(pair):
    """Recovery run on the word problem of BS(m, n), a b^m a^-1 = b^n,
    returns (m, the first 40 digits of the integer parameter n over m).

    The digits of n satisfy n s_{i-1} = m s_i + r_i, s_0 = 1, r_i in
    [0, m).  The level-h spine w(m; t) = a^(h+1) b^m a^-1 b^-t_1 a^-1 ...
    b^-t_h a^-1 pinches from the middle out: the k-th pinch turns
    a b^x a^-1, x = m s_{k-1}, into b^(n s_{k-1}), and b^-t_k leaves
    x' = n s_{k-1} - t_k, which m divides exactly when t_k = r_k, and then
    x' = m s_k.  So when t = r_1..r_h, w(m; t) = b^(n s_h), and w(-m; -t),
    whose exponents are negated, is b^-(n s_h): the probe
    w(m; t) b w(-m; -t) b^-1 is trivial.  At the first t_j != r_j, j <= h,
    a^(h+1-j) b^x' a^-1 ... a^-1 is reduced, since m does not divide x',
    and so is the whole probe: its junction a^-1 b a pinches only when n
    divides 1, and |n| > m >= 2.  By Britton's lemma it is not trivial.  So
    the one t that kills the level-j probe is r_j, as in the limit group.
    The same lemma finds m first: [a b^k a^-1, b] is reduced for 0 < k < m
    and trivial at k = m, where a b^m a^-1 = b^n commutes with b."""
    m, n = pair
    got = recover_parameters(lambda w: bs_is_trivial(BSSpec(m, n), w), 40)
    assert got == (m, GroupCtx.make(m, f"int:{n}").digits(40))


ISO_HORIZON = 64


@st.composite
def group_specs(draw, m_abs=None):
    """An integer, rational or periodic-sequence parameter over a signed m."""
    m = (m_abs or draw(st.sampled_from((2, 3, 4, 5, 6)))) * draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(("int", "rat", "rseq")))
    if kind == "int":
        return MarkedGroupSpec(m, XiRat(draw(st.integers(-40, 40))))
    if kind == "rat":
        q = draw(st.sampled_from([q for q in range(2, 16) if math.gcd(q, m) == 1]))
        return MarkedGroupSpec(m, XiRat(draw(st.integers(-40, 40)), q))
    digit = st.integers(0, abs(m) - 1)
    pre, per = draw(st.lists(digit, max_size=3)), draw(st.lists(digit, min_size=1, max_size=3))
    return MarkedGroupSpec(m, XiSeq(pre, per))


def as_periodic_sequence(spec):
    """The digits of an integer or rational parameter as preperiod and
    period, from the first repeat of the state s_i; None if none by s_80."""
    stream, seen = RDigitStream(spec), {}
    for i, s in enumerate([1, *stream.s_values(80)]):  # s_0 = 1
        if s in seen:
            digits = stream.digits(i)
            return MarkedGroupSpec(spec.m_abs, XiSeq(digits[: seen[s]], digits[seen[s] :]))
        seen[s] = i
    return None


def same_group(spec, how, f):
    """Another label of the group of ``spec``, or None if ``how`` does not apply."""
    m, xi = spec.m, spec.xi
    if how == "negated":  # digit sequences already name the normalized parameter
        return MarkedGroupSpec(-m, XiRat(-xi.p, xi.q) if isinstance(xi, XiRat) else xi)
    if isinstance(xi, XiSeq):
        return None
    p, q = xi.p, xi.q
    if how == "scaled":
        return MarkedGroupSpec(m, XiRat(f * p, f * q)) if math.gcd(f, m) == 1 else None
    return as_periodic_sequence(spec)


SAME_GROUP = ("negated", "scaled", "as rseq")


@given(
    g1=group_specs(),
    how=st.sampled_from(("any", "same m", "xi negated", "shared prefix") + SAME_GROUP),
    f=st.integers(2, 7),
    data=st.data(),
)
def test_isomorphic_agrees_with_digit_prefixes(g1, how, f, data):
    """Beside the labels of one group: any two parameters, two over the
    same m, xi against -xi over the same m, and a periodic sequence that
    starts with the first k digits of g1, so that streams agree for k
    digits or more before they part."""
    if how in ("any", "same m"):
        g2 = data.draw(group_specs(g1.m_abs if how == "same m" else None))
    elif how == "xi negated":
        g2 = same_group(MarkedGroupSpec(-g1.m, g1.xi), "negated", f)
    elif how == "shared prefix":
        prefix = GroupCtx(g1).digits(data.draw(st.integers(0, 8)))
        period = data.draw(st.lists(st.integers(0, g1.m_abs - 1), min_size=1, max_size=3))
        g2 = MarkedGroupSpec(g1.m, XiSeq(prefix, period))
    else:
        if how == "as rseq":  # small integers have a periodic state s_i
            g1 = MarkedGroupSpec(g1.m, XiRat(data.draw(st.integers(-g1.m_abs, g1.m_abs))))
        g2 = same_group(g1, how, f) or g1
    expect = g1.m_abs == g2.m_abs and (
        GroupCtx(g1).digits(ISO_HORIZON) == GroupCtx(g2).digits(ISO_HORIZON))
    assert isomorphic(GroupCtx(g1), GroupCtx(g2)) == isomorphic(GroupCtx(g2), GroupCtx(g1)) == expect
    if how in SAME_GROUP:
        assert expect


@given(g=group_specs())
def test_parameter_text_round_trips(g):
    assert parse_xi(format_xi(g.xi)) == g.xi


@given(g=group_specs(), digits=st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_isomorphic_rejects_finite_sequences(g, digits):
    finite = MarkedGroupSpec(g.m, XiSeq(digits))
    for pair in ((g, finite), (finite, g), (finite, finite)):
        with pytest.raises(UndecidableSpec):
            isomorphic(*map(GroupCtx, pair))
