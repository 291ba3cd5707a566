import time
import tracemalloc

import pytest

from bslim import (
    GcdMismatch,
    OracleInconsistent,
    RDigitBudgetExceeded,
    SameGroup,
    UndecidableSpec,
    XiRat,
    XiSeq,
)
from bslim.bsclassic import BSSpec, bs_is_trivial
from bslim.group import (
    A_POS,
    BaseLetter,
    commutator,
    format_word,
    is_trivial,
    parse_word,
)
from bslim.lattice import GroupCtx
from bslim.madic import MarkedGroupSpec
from bslim.markedspace import (
    DistanceBounds,
    _candidate_words,
    _wreath_trivial_words,
    b_i_word,
    distance_bounds,
    isomorphic,
    recover_parameters,
    relator,
    shortest_distinguishing,
    v_k_word,
    w_word,
    win_e_word,
    word_problem_oracle,
    word_to_compact,
)

from test_group import compact_length


def spec(m, xi):
    return MarkedGroupSpec(m, xi)


@pytest.fixture
def ctx23():
    return GroupCtx.make(2, XiRat(3))


# --- relators ---------------------------------------------------------------

def test_b_i_words(ctx23):
    assert format_word(b_i_word(ctx23, 1), "compact") == "abbA"
    assert format_word(b_i_word(ctx23, 2), "compact") == "aabbABA"
    for i in range(1, 7):
        assert is_trivial(ctx23, commutator(parse_word("b"), b_i_word(ctx23, i)))


def test_b_i_across_specs():
    for s in [spec(2, XiRat(0)), spec(3, XiRat(1, 2)), spec(2, XiSeq((), (1, 0)))]:
        ctx = GroupCtx(s)
        for i in range(1, 6):
            assert is_trivial(ctx, commutator(parse_word("b"), b_i_word(ctx, i)))


def test_v_k_trivial_iff_m_divides(ctx23):
    ctx3 = GroupCtx.make(3, XiRat(1))
    for k in range(1, 13):
        assert is_trivial(ctx23, v_k_word(k)) == (k % 2 == 0)
        assert is_trivial(ctx3, v_k_word(k)) == (k % 3 == 0)


def test_w_word_shape():
    w = w_word(2, [1])
    assert format_word(w, "compact") == "aabbABA"
    assert compact_length(w) == 7


def test_win_e_detects_digits(ctx23):
    assert is_trivial(ctx23, win_e_word(2, [1]))
    assert is_trivial(ctx23, win_e_word(2, [1, 1, 1]))
    assert not is_trivial(ctx23, win_e_word(2, [0]))
    assert not is_trivial(ctx23, win_e_word(2, [1, 0]))
    ctx1 = GroupCtx.make(2, XiRat(1))
    assert is_trivial(ctx1, win_e_word(2, [1, 0, 0]))
    assert not is_trivial(ctx1, win_e_word(2, [1, 1]))


def test_win_e_length_bound():
    for m in (2, 3, 4):
        for n in (1, 2, 3):
            digits = [(m - 1)] * n
            assert compact_length(win_e_word(m, digits)) <= 2 * (m + 1) * n + 2 * m + 6


def test_relator_dispatcher(ctx23):
    assert relator("bi", ctx=ctx23, index=1) == b_i_word(ctx23, 1)
    assert relator("vk", index=4) == v_k_word(4)
    assert relator("w", m=2, digits=[1]) == w_word(2, [1])
    assert relator("wine", m=2, digits=[1]) == win_e_word(2, [1])
    with pytest.raises(ValueError):
        relator("nope")


def test_word_to_compact(ctx23):
    w = parse_word("e1 a^-1", "extended")
    text = word_to_compact(ctx23, w)
    assert text == "abbAA"
    assert is_trivial(ctx23, parse_word(text) * w.inverse())
    w = parse_word("e2^-1 e0", "extended")
    back = parse_word(word_to_compact(ctx23, w))
    assert is_trivial(ctx23, back * w.inverse())


# --- shortest distinguishing word ---------------------------------------------

def test_shortest_distinguishing_identical():
    assert shortest_distinguishing(GroupCtx.make(2, XiRat(3)), GroupCtx.make(2, XiRat(3)), 8) is None


def test_shortest_distinguishing_cross_m():
    g1, g2 = spec(2, XiRat(1)), spec(3, XiRat(1))
    found = shortest_distinguishing(GroupCtx(g1), GroupCtx(g2), 10)
    assert found is not None
    length, word = found
    assert 2 <= length <= 10
    t1 = is_trivial(GroupCtx(g1), word)
    t2 = is_trivial(GroupCtx(g2), word)
    assert t1 != t2
    # deterministic
    assert shortest_distinguishing(GroupCtx(g1), GroupCtx(g2), 10) == found
    # minimality against the explicit commutator certificate of length 10
    assert length <= 10


def test_shortest_distinguishing_same_m_far_apart():
    # digits differ at index 1: (2, Int(1)) vs the all-zero parameter
    g1, g2 = spec(2, XiRat(1)), spec(2, XiRat(0))
    found = shortest_distinguishing(GroupCtx(g1), GroupCtx(g2), 12)
    if found is not None:
        length, word = found
        assert is_trivial(GroupCtx(g1), word) != is_trivial(GroupCtx(g2), word)


def test_shortest_distinguishing_stops_at_max_len():
    """int:1 and int:2 over m = 3 are first split at length 18: a search
    capped at 17 finds nothing, and so does one capped at 1."""
    c1, c2 = GroupCtx.make(3, XiRat(1)), GroupCtx.make(3, XiRat(2))
    assert shortest_distinguishing(c1, c2, 1) is None
    assert shortest_distinguishing(c1, c2, 17) is None
    assert shortest_distinguishing(c1, c2, 18)[0] == 18


def test_wreath_trivial_words_under_cap():
    """Length 18 by the meet-in-the-middle join: 3^9 words per half, not
    the 3^18 of a depth-first search.  It must finish within 2 s of process
    time; over 0.5 s is reported."""
    start = time.process_time()
    words = _wreath_trivial_words(18)
    spent = time.process_time() - start
    assert len(words) == 700
    assert words == sorted(words)
    assert spent < 2.0
    if spent > 0.5:
        print(f"length 18: {spent * 1e3:.0f} ms")


def test_candidate_words_memory():
    """Only canonical words are ever held: 3,604 of the 33,896 wreath-trivial
    words at length 20.  Holding the raw list as well peaks near 13 MB."""
    _candidate_words.cache_clear()
    tracemalloc.start()
    try:
        assert len(_candidate_words(20)) == 3604
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


#: (m, xi_1, xi_2, nu, word): the shortest canonical word trivial in exactly
#: one of the two groups over m, or None when no word of length 24 or less
#: is.  Each pair's sandwich, from its common digit prefix h, holds nu.
NU_TABLE = [
    (2, 1, 3, 20, "aaabbAbAAbaaaBBABAAB"),
    (2, 1, 5, 24, "aaaabbABAAAbaaaaBBAbAAAB"),
    (2, 3, 7, 24, "aaaabbAbAAAbaaaaBBABAAAB"),
    (2, 1, 9, None, None),
    (3, 1, 2, 18, "aabbbAbAbaaBBBABAB"),
    (3, 1, 4, 22, "aaabbbABAAbaaaBBBAbAAB"),
    (3, 2, 5, 24, "aaabbbAbAbAbaaaBBBABABAB"),
    (3, 1, 10, None, None),
]


@pytest.mark.parametrize("m,xi1,xi2,nu,text", [row for row in NU_TABLE if row[4]])
def test_nu_table_words_distinguish(m, xi1, xi2, nu, text):
    """Each word splits its pair, the same way in the limit groups and in
    BS(|m|, xi + |m|^(nu/2 + 1)), which shares enough digits with xi for
    every word of length nu."""
    word = parse_word(text)
    assert compact_length(word) == nu
    limit = [is_trivial(GroupCtx.make(m, XiRat(xi)), word) for xi in (xi1, xi2)]
    classical = [bs_is_trivial(BSSpec(m, xi + m ** (nu // 2 + 1)), word) for xi in (xi1, xi2)]
    assert limit[0] != limit[1]
    assert classical == limit
    bounds = distance_bounds(GroupCtx.make(m, XiRat(xi1)), GroupCtx.make(m, XiRat(xi2)))
    assert bounds.upper_exp <= nu <= bounds.lower_exp


@pytest.mark.slow
@pytest.mark.parametrize("m,xi1,xi2,nu,text", NU_TABLE)
def test_nu_table_is_minimal(m, xi1, xi2, nu, text):
    """The enumeration through length 24 finds each word first, or none:
    about 20 s and 100 MB, most of it for the cold length 24."""
    found = shortest_distinguishing(GroupCtx.make(m, XiRat(xi1)), GroupCtx.make(m, XiRat(xi2)), 24)
    assert found == (None if nu is None else (nu, parse_word(text)))


# --- distance bounds ------------------------------------------------------------

def test_distance_bounds_examples():
    b = distance_bounds(GroupCtx.make(2, XiRat(1)), GroupCtx.make(2, XiRat(3)))
    assert b == DistanceBounds(h=1, lower_exp=22, upper_exp=3)
    b = distance_bounds(GroupCtx.make(2, XiRat(1)), GroupCtx.make(2, XiRat(5)))
    assert b == DistanceBounds(h=2, lower_exp=28, upper_exp=5)


def test_distance_bounds_errors():
    with pytest.raises(SameGroup):
        distance_bounds(GroupCtx.make(2, XiRat(3)), GroupCtx.make(2, XiRat(3)))
    with pytest.raises(GcdMismatch):
        distance_bounds(GroupCtx.make(2, XiRat(2)), GroupCtx.make(2, XiRat(1)))
    with pytest.raises(GcdMismatch):
        distance_bounds(GroupCtx.make(2, XiRat(1)), GroupCtx.make(3, XiRat(1)))
    with pytest.raises(SameGroup, match=r"within the available 2 digits$"):
        # finite sequences exhausted without a difference
        distance_bounds(GroupCtx.make(2, XiSeq((1, 1))), GroupCtx.make(2, XiRat(3)))


def test_distance_bounds_first_digits_differ():
    # h = 0 from the congruence law, from the scan of two sequences and of a mixed pair
    h0 = DistanceBounds(h=0, lower_exp=20, upper_exp=1)
    pairs = [(XiRat(1), XiRat(1, 2)), (XiSeq((1,), (0,)), XiSeq((), (2,))),
             (XiSeq((2, 0)), XiRat(1))]
    for a, b in pairs:
        assert distance_bounds(GroupCtx.make(3, a), GroupCtx.make(3, b)) == h0
        assert distance_bounds(GroupCtx.make(3, b), GroupCtx.make(3, a)) == h0


def test_distance_bounds_finite_spec_difference():
    b = distance_bounds(GroupCtx.make(2, XiSeq((1, 0))), GroupCtx.make(2, XiRat(3)))
    assert b.h == 1


def test_distance_bounds_finite_against_another_sequence():
    """Two sequences, one of them finite, are scanned past their first digit,
    to the first difference or the end of the finite one."""
    def ctx(*xi):
        return GroupCtx.make(2, XiSeq(*xi))

    for other in (ctx((1, 1)), ctx((), (1,)), ctx((1,), (1, 0))):
        for pair in ((ctx((1, 0)), other), (other, ctx((1, 0)))):
            assert distance_bounds(*pair).h == 1
        for pair in ((ctx((1,)), other), (other, ctx((1,)))):
            with pytest.raises(SameGroup, match=r"within the available 1 digits$"):
                distance_bounds(*pair)


def test_distance_bounds_budget_stop_is_not_same_group():
    """The end of a finite sequence leaves no digit to differ (SameGroup);
    a context's budget leaves the question open, so its stop surfaces."""
    agree = ("rseq:1,1,1,1,1,1;0", "rseq:1,1,1,1,1,1;1")
    with pytest.raises(RDigitBudgetExceeded) as info:
        distance_bounds(*(GroupCtx.make(2, xi, 4) for xi in agree))
    assert info.value.index == 5
    assert distance_bounds(*(GroupCtx.make(2, xi, 7) for xi in agree)).h == 6
    with pytest.raises(SameGroup, match=r"within the available 2 digits$"):
        distance_bounds(GroupCtx.make(2, XiSeq((1, 1)), 4), GroupCtx.make(2, XiRat(3), 4))


# --- isomorphism -------------------------------------------------------------------

def test_isomorphic_examples():
    assert isomorphic(GroupCtx.make(2, XiRat(3)), GroupCtx.make(2, XiRat(3, 1)))
    assert not isomorphic(GroupCtx.make(2, XiRat(1)), GroupCtx.make(2, XiRat(3)))
    assert isomorphic(GroupCtx.make(2, XiRat(3)), GroupCtx.make(-2, XiRat(-3)))
    assert not isomorphic(GroupCtx.make(2, XiRat(3)), GroupCtx.make(-2, XiRat(3)))
    assert not isomorphic(GroupCtx.make(2, XiRat(3)), GroupCtx.make(3, XiRat(3)))


def test_isomorphic_gcd_and_zero_ring_cases():
    # gcd m forces the all-zero digit stream: both are the m-adic zero group
    assert isomorphic(GroupCtx.make(2, XiRat(2)), GroupCtx.make(2, XiRat(4)))
    assert isomorphic(GroupCtx.make(4, XiRat(2)), GroupCtx.make(4, XiRat(2)))
    assert not isomorphic(GroupCtx.make(4, XiRat(2)), GroupCtx.make(4, XiRat(6)))
    assert not isomorphic(GroupCtx.make(4, XiRat(2)), GroupCtx.make(4, XiRat(1)))


def test_isomorphic_periodic_sequences():
    assert isomorphic(GroupCtx.make(2, XiSeq((), (1,))), GroupCtx.make(2, XiRat(3)))
    assert isomorphic(GroupCtx.make(2, XiRat(3)), GroupCtx.make(2, XiSeq((), (1, 1))))
    assert not isomorphic(GroupCtx.make(2, XiSeq((), (1, 0))), GroupCtx.make(2, XiRat(1)))
    assert isomorphic(GroupCtx.make(2, XiSeq((1,), (0,))), GroupCtx.make(2, XiRat(1)))
    assert isomorphic(
        GroupCtx.make(3, XiSeq((1,), (2, 0))), GroupCtx.make(3, XiSeq((1, 2), (0, 2)))
    )
    assert not isomorphic(
        GroupCtx.make(3, XiSeq((1,), (2, 0))), GroupCtx.make(3, XiSeq((1, 2), (0, 1)))
    )


def test_fine_wilf_horizon_is_exact():
    """Streams of periods p and q that agree on p + q - gcd(p, q) digits
    past their preperiods agree everywhere (Fine and Wilf), and one digit
    fewer is not enough: 101 101 1.. and 10110 10110 part at digit 7.
    Equal streams are decided on exactly 7 digits."""
    a, b = GroupCtx.make(2, "rseq:;1,0,1"), GroupCtx.make(2, "rseq:;1,0,1,1,0")
    assert not isomorphic(a, b)
    assert distance_bounds(a, b).h == 6
    ones = ("rseq:;1,1,1", "rseq:;1,1,1,1,1")
    assert isomorphic(*(GroupCtx.make(2, xi, 7) for xi in ones))
    with pytest.raises(RDigitBudgetExceeded) as info:
        isomorphic(*(GroupCtx.make(2, xi, 6) for xi in ones))
    assert info.value.index == 7


def test_long_equal_periods_answer_at_once():
    """Periods of 3,001 and 3,002 ones are decided on 6,002 digits; their
    lcm would be 9,006,002."""
    a = GroupCtx.make(2, XiSeq((), (1,) * 3001))
    b = GroupCtx.make(2, XiSeq((), (1,) * 3002))
    start = time.process_time()
    assert isomorphic(a, b)
    assert time.process_time() - start < 1.0


def test_isomorphic_undecidable_for_finite():
    with pytest.raises(UndecidableSpec):
        isomorphic(GroupCtx.make(2, XiSeq((1,))), GroupCtx.make(2, XiRat(3)))


def test_isomorphic_consistent_with_digit_prefixes():
    # whenever the decision says yes, long digit prefixes agree
    pairs = [
        (spec(2, XiRat(3)), spec(2, XiSeq((), (1,)))),
        (spec(2, XiRat(2)), spec(2, XiRat(4))),
        (spec(3, XiRat(1, 2)), spec(3, XiRat(2, 4))),
    ]
    for a, b in pairs:
        assert isomorphic(GroupCtx(a), GroupCtx(b))
        assert GroupCtx(a).digits(12) == GroupCtx(b).digits(12)


# --- parameter recovery ---------------------------------------------------------

@pytest.mark.parametrize(
    "m,xi",
    [(2, XiRat(3)), (2, XiRat(1)), (3, XiRat(0)), (3, XiRat(1, 2)), (1, XiRat(0))],
)
def test_recover_parameters(m, xi):
    s = spec(m, xi)
    m_found, digits = recover_parameters(word_problem_oracle(GroupCtx(s)), 4)
    assert m_found == abs(m)
    assert digits == GroupCtx(s).digits(4)


def test_isomorphic_randomized_against_digit_prefixes():
    # at this parameter scale, 40-digit agreement forces genuine equality
    # of the streams, so the exact decision must match prefix agreement
    import math
    import random

    rng = random.Random(7)

    def random_spec(m):
        kind = rng.randrange(3)
        if kind == 0:
            return spec(m, XiRat(rng.randrange(-30, 31)))
        if kind == 1:
            while True:
                q = rng.randrange(1, 12)
                if math.gcd(q, m) == 1:
                    break
            return spec(m, XiRat(rng.randrange(-30, 31), q))
        pre = tuple(rng.randrange(abs(m)) for _ in range(rng.randrange(3)))
        per = tuple(rng.randrange(abs(m)) for _ in range(rng.randrange(1, 4)))
        return spec(m, XiSeq(pre, per))

    for _ in range(800):
        m = rng.choice([2, 3, 4, 5, 6, -2, -3])
        a, b = random_spec(m), random_spec(m)
        assert isomorphic(GroupCtx(a), GroupCtx(b)) == (
            GroupCtx(a).digits(40) == GroupCtx(b).digits(40)), (a, b)


def test_recover_parameters_nonunit_specs():
    # probe words characterize digits for every parameter, units or not
    for m, xi in [(4, XiRat(6)), (6, XiRat(21)), (4, XiSeq((2,), (0, 2)))]:
        s = spec(m, xi)
        assert recover_parameters(word_problem_oracle(GroupCtx(s)), 5) == (
            abs(m),
            GroupCtx(s).digits(5),
        )


def test_recover_probes_share_their_payload_letters():
    """One recovery builds each payload letter k e_0 (0 < |k| <= |m|) once,
    so its win_e probes hold at most 2|m| distinct base letters; a rebuild
    per probe made 202,232 of them."""
    ctx = GroupCtx.make(64, XiRat(5, 7))
    asked = []

    def oracle(w):
        asked.append(w)
        return is_trivial(ctx, w)

    assert recover_parameters(oracle, 64) == (64, ctx.digits(64))
    probes = asked[64:]  # after the v_k search, which stops at k = 64
    assert len(probes) == 64 * 64
    assert all(w.letters[:2] == (A_POS, A_POS) for w in probes)
    letters = {id(x) for w in probes for x in w.letters if isinstance(x, BaseLetter)}
    assert len(letters) <= 2 * 64


def test_recover_rejects_negative_count():
    # as RDigitStream.digits does
    with pytest.raises(ValueError, match="count must be nonnegative"):
        recover_parameters(word_problem_oracle(GroupCtx.make(2, XiRat(3))), -1)
    assert recover_parameters(word_problem_oracle(GroupCtx.make(2, XiRat(3))), 0) == (2, [])


def test_recover_inconsistent_oracle():
    v2 = v_k_word(2)

    def fake(w):
        return w == v2

    with pytest.raises(OracleInconsistent):
        recover_parameters(fake, 1)

    def never(w):
        return False

    with pytest.raises(OracleInconsistent):
        recover_parameters(never, 1, max_m=8)
    with pytest.raises(OracleInconsistent):  # |m| = 1..64 by default
        recover_parameters(word_problem_oracle(GroupCtx.make(65, XiRat(1))), 1)


@pytest.mark.parametrize("call, message", [
    (lambda c1, c2: b_i_word(c1, 0), "generator indices start at 1"),
    (lambda c1, c2: relator("vk"), "vk needs index"),
    (lambda c1, c2: relator("bi"), "bi needs ctx and index"),
    (lambda c1, c2: relator("bi", index=2), "bi needs ctx and index"),
    (lambda c1, c2: relator("bi", ctx=c1), "bi needs ctx and index"),
    (lambda c1, c2: shortest_distinguishing(c1, c2, 0), "max_len must be at least 1"),
    (lambda c1, c2: DistanceBounds(0, 1, 2), "bounds must satisfy lower_exp >= upper_exp >= 1"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call(GroupCtx.make(2, "int:1"), GroupCtx.make(2, "int:5"))
    assert str(info.value) == message
