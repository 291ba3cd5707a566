import math
import tracemalloc
from fractions import Fraction

import pytest

from bslim import (
    MarkedGroupSpec,
    NonInvertibleDenominator,
    NoUnitRealization,
    ParseError,
    RDigitBudgetExceeded,
    RDigitStream,
    UndecidableSpec,
    UnsupportedSpecKind,
    XiRat,
    XiSeq,
    format_xi,
    gcd_with_m,
    isomorphic,
    p_polys,
    parse_xi,
    project_unit,
    r_digits,
    s_values,
    xi_from_prefix,
)
from bslim.madic import _first_difference, _s_returns


def oracle_digits(xi: Fraction, m: int, count: int):
    """Independent digit oracle: run the defining recurrence on fractions."""
    rs, ss = [], [Fraction(1)]
    for _ in range(count):
        v = xi * ss[-1]
        r = next(
            r for r in range(abs(m)) if (v - r).numerator % abs(m) == 0
        ) if abs(m) > 1 else 0
        rs.append(r)
        ss.append((v - r) / abs(m))
    return rs, ss[1:]


def spec(m, xi):
    return MarkedGroupSpec(m, xi)


# --- r_digits -------------------------------------------------------------

def test_r_digits_int3_m2():
    assert r_digits(spec(2, XiRat(3)), 5) == [1, 1, 1, 1, 1]


def test_r_digits_zero():
    assert r_digits(spec(2, XiRat(0)), 4) == [0, 0, 0, 0]


def test_r_digits_rational():
    assert r_digits(spec(3, XiRat(1, 2)), 3) == [2, 2, 0]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [-9, -2, 0, 1, 7, 30])
def test_r_digits_match_oracle_int(m, n):
    expect, _ = oracle_digits(Fraction(n), m, 8)
    assert r_digits(spec(m, XiRat(n)), 8) == expect


@pytest.mark.parametrize("m,p,q", [(2, 1, 3), (3, -5, 4), (5, 7, 2), (4, 3, 5)])
def test_r_digits_match_oracle_rat(m, p, q):
    expect, _ = oracle_digits(Fraction(p, q), m, 8)
    assert r_digits(spec(m, XiRat(p, q)), 8) == expect


def test_r_digits_int_equals_rat_over_one():
    for m in (2, 3, 6):
        for n in range(-10, 11):
            assert r_digits(spec(m, XiRat(n)), 6) == r_digits(
                spec(m, XiRat(n, 1)), 6
            )


def test_digit_range():
    for m in (2, 3, 4, 6, -5):
        for n in (-17, -1, 0, 12, 99):
            assert all(0 <= r < abs(m) for r in r_digits(spec(m, XiRat(n)), 10))


def test_negative_m_normalization():
    # (m, xi) and (-m, -xi) label the same marked group and share digits
    assert r_digits(spec(-2, XiRat(-3)), 5) == r_digits(spec(2, XiRat(3)), 5)
    assert r_digits(spec(-3, XiRat(-1, 2)), 4) == r_digits(spec(3, XiRat(1, 2)), 4)


def test_rseq_digits_and_budget():
    s = spec(2, XiSeq((1, 0, 1)))
    assert r_digits(s, 3) == [1, 0, 1]
    with pytest.raises(RDigitBudgetExceeded) as info:
        r_digits(s, 4)
    assert info.value.index == 4


def test_rseq_periodic_indexing():
    s = spec(3, XiSeq((2,), (0, 1)))
    assert r_digits(s, 7) == [2, 0, 1, 0, 1, 0, 1]


def test_stream_budget_and_determinism():
    st = RDigitStream(spec(2, XiRat(3)), budget=3)
    assert st.digits(3) == [1, 1, 1]
    with pytest.raises(RDigitBudgetExceeded):
        st.digit(4)
    # memoized digits agree with a fresh stream
    assert RDigitStream(spec(2, XiRat(3))).digits(3) == st.digits(3)


def test_direct_reads_name_the_first_missing_index():
    # the one table grows in index order, so a read past the budget or the
    # end of a finite sequence names the first index it could not store
    st = RDigitStream(spec(2, XiRat(3)), budget=3)
    with pytest.raises(RDigitBudgetExceeded) as info:
        st.digit(6)
    assert info.value.index == 4
    assert st.rs == [1, 1, 1, 1]  # rs[0] = 1 is the weight of e_0
    with pytest.raises(RDigitBudgetExceeded) as info:
        RDigitStream(spec(2, XiSeq((1, 0)))).digit(5)
    assert info.value.index == 3


def test_s_value_past_the_budget_names_the_first_missing_index():
    # s_i is replayed from r_1..r_i, so it grows the table as far as the
    # budget allows and stops at the first digit it may not store
    st = RDigitStream(spec(3, XiRat(5, 7)), budget=4)
    with pytest.raises(RDigitBudgetExceeded) as info:
        st.s_value(9)
    assert info.value.index == 5
    assert st.rs == [1] + r_digits(spec(3, XiRat(5, 7)), 4)
    assert st.s_value(4) == s_values(spec(3, XiRat(5, 7)), 4)[-1]


def test_rational_digits_keep_linear_memory():
    """The stream keeps the digit table and the last t_k, not every
    t_i = q^i s_i: 10,000 digits of 5/7 would hold about 19 MB of them."""
    tracemalloc.start()
    try:
        stream = RDigitStream(MarkedGroupSpec(3, XiRat(5, 7)))
        stream.digits(10_000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stream.rs) == 10_001
    assert kept < 1_000_000


def test_rat_denominator_must_be_unit():
    with pytest.raises(NonInvertibleDenominator):
        spec(2, XiRat(1, 2))
    with pytest.raises(ValueError):
        spec(2, XiRat(1, 0))


# --- s_values -------------------------------------------------------------

def test_s_values_examples():
    assert s_values(spec(2, XiRat(3)), 3) == [1, 1, 1]
    assert s_values(spec(2, XiRat(1)), 3) == [0, 0, 0]
    assert s_values(spec(3, XiRat(1, 2)), 2) == [
        Fraction(-1, 2),
        Fraction(-3, 4),
    ]


def test_s_values_satisfy_recurrence():
    m, xi = 5, Fraction(-7, 3)
    ss = s_values(spec(m, XiRat(-7, 3)), 6)
    rs = r_digits(spec(m, XiRat(-7, 3)), 6)
    prev = Fraction(1)
    for r, s in zip(rs, ss):
        assert xi * prev == m * s + r
        prev = s


def test_s_values_unsupported_for_sequences():
    with pytest.raises(UnsupportedSpecKind):
        s_values(spec(2, XiSeq((1,))), 1)


# --- gcd ------------------------------------------------------------------

@pytest.mark.parametrize(
    "m,xi,expect",
    [(4, XiRat(6), 2), (2, XiRat(3), 1), (3, XiRat(0), 3), (4, XiRat(0), 4)],
)
def test_gcd_with_m(m, xi, expect):
    assert gcd_with_m(spec(m, xi)) == expect


def test_gcd_matches_integer_gcd_on_units_and_more():
    for m in (2, 3, 4, 6):
        for n in range(0, m**3):
            d = gcd_with_m(spec(m, XiRat(n)))
            # ideal (m, n) in Z_m is generated by the part of gcd(m, n)
            # supported on primes of m, iterated to stability
            g = math.gcd(m, n)
            assert d % g == 0 or g % d == 0  # same prime support side
            # first digit determines it
            r1 = r_digits(spec(m, XiRat(n)), 1)[0]
            assert d == math.gcd(m, r1)


# --- P polynomials --------------------------------------------------------

def test_p_polys_examples():
    ps = p_polys(spec(2, XiRat(3)), 2)
    assert [p.coeffs for p in ps] == [(2,), (-1, 2), (-1, -1, 2)]
    ps = p_polys(spec(5, XiRat(0)), 2)
    assert [p.coeffs for p in ps] == [(5,), (0, 5), (0, 0, 5)]
    ps = p_polys(spec(3, XiRat(1, 2)), 1)
    assert [p.coeffs for p in ps] == [(3,), (-2, 3)]


def test_p_poly_str():
    ps = p_polys(spec(2, XiRat(3)), 2)
    assert str(ps[2]) == "2X^2-X-1"


def test_p_poly_identity_s_h():
    # s_h(n) = P_h(n/m) / m for the defining integer itself
    for m, n in [(2, 3), (3, 7), (4, 6), (5, -11)]:
        sp = spec(m, XiRat(n))
        ss = s_values(sp, 4)
        ps = p_polys(sp, 4)
        x = Fraction(n, m)
        for h in range(1, 5):
            val = sum(c * x**e for e, c in enumerate(ps[h].coeffs))
            assert ss[h - 1] == val / m


def test_p_poly_identity_across_congruence_class():
    # P built from xi's digits evaluates the s-values of every integer in
    # the congruence class mod m^h (unit case: d = 1)
    m, xi = 3, 5
    ps = p_polys(spec(m, XiRat(xi)), 3)
    for h in (1, 2, 3):
        for k in (-2, -1, 1, 2, 7):
            n = xi + k * m**h
            x = Fraction(n, m)
            val = sum(c * x**e for e, c in enumerate(ps[h].coeffs)) / m
            assert s_values(spec(m, XiRat(n)), h)[-1] == val


# --- projection -----------------------------------------------------------

def test_project_unit_examples():
    assert project_unit(spec(4, XiRat(6))) == MarkedGroupSpec(2, XiRat(3))
    s = spec(2, XiRat(3))
    assert project_unit(s) is s
    assert project_unit(spec(4, XiRat(0))) == MarkedGroupSpec(1, XiRat(0))


def test_project_unit_rational_and_errors():
    assert project_unit(spec(4, XiRat(6, 5))) == MarkedGroupSpec(2, XiRat(3, 5))
    with pytest.raises(UnsupportedSpecKind):
        project_unit(spec(4, XiSeq((2, 0))))
    # gcd 1 sequences pass through
    s = spec(2, XiSeq((1,)))
    assert project_unit(s) is s


# --- prefix realization ----------------------------------------------------

def test_xi_from_prefix_examples():
    assert xi_from_prefix(2, [1, 1]) == (3, 4)
    assert xi_from_prefix(2, [1]) == (1, 2)
    with pytest.raises(NoUnitRealization):
        xi_from_prefix(2, [0])


def test_xi_from_prefix_inverts_digits():
    for m in (2, 3, 4):
        for n in range(m**3):
            if math.gcd(n, m) != 1:
                continue
            prefix = r_digits(spec(m, XiRat(n)), 3)
            found, modulus = xi_from_prefix(m, prefix)
            assert modulus == m**3
            assert found == n % modulus


def test_xi_from_prefix_matches_brute_force():
    # every unit prefix, against a search over all residues mod m^h
    for m in (2, 3, 5):
        for h in range(1, 6):
            modulus = m**h
            brute = {}
            for n in range(modulus):
                if math.gcd(n, m) == 1:
                    brute[tuple(r_digits(spec(m, XiRat(n)), h))] = n
            assert len(brute) == (m - 1) * m ** (h - 1)  # m prime: all unit prefixes
            for prefix, n in brute.items():
                assert xi_from_prefix(m, list(prefix)) == (n, modulus)
                assert xi_from_prefix(-m, list(prefix)) == (n, modulus)


def test_xi_from_prefix_round_trip_deep():
    h = 40
    for n in (-1, 3, 2**40 - 3, 123456789):
        prefix = r_digits(spec(2, XiRat(n)), h)
        found, modulus = xi_from_prefix(2, prefix)
        assert modulus == 2**h and found == n % modulus
        assert r_digits(spec(2, XiRat(found)), h) == prefix


# --- the integer digit recurrence ------------------------------------------

def fraction_recurrence(m: int, xi: Fraction, count: int):
    """r_i and s_i from xi*s_{i-1} = m*s_i + r_i on fractions (m > 0)."""
    rs, ss, s = [], [], Fraction(1)
    for _ in range(count):
        v = xi * s
        r = v.numerator * pow(v.denominator, -1, m) % m if m > 1 else 0
        s = (v - r) / m
        rs.append(r)
        ss.append(s)
    return rs, ss


@pytest.mark.parametrize(
    "m,xi",
    [
        (2, XiRat(3)), (-2, XiRat(3)), (3, XiRat(-7)), (-5, XiRat(12)),
        (7, XiRat(0)), (1, XiRat(5)), (-1, XiRat(-2)),
        (3, XiRat(1, 2)), (-3, XiRat(1, 2)), (5, XiRat(-7, 3)),
        (-7, XiRat(22, 9)), (2, XiRat(5, 3)), (6, XiRat(-1, 5)),
    ],
)
def test_integer_recurrence_matches_fraction_recurrence(m, xi):
    count = 300
    sign = 1 if m > 0 else -1
    value = Fraction(xi.p, xi.q)
    rs, ss = fraction_recurrence(abs(m), sign * value, count)
    assert r_digits(spec(m, xi), count) == rs
    assert s_values(spec(m, xi), count) == ss
    # reading s before r, out of order, gives the same values
    stream = RDigitStream(spec(m, xi))
    assert stream.s_value(count) == ss[-1] and stream.s_value(0) == 1
    assert stream.digits(count) == rs


@pytest.mark.parametrize("m,xi,seq,first", [
    (2, "int:3", "rseq:;1", None),  # pre = 0: s_0 = s_1 = 1
    (2, "int:-1", "rseq:1,1;0", None),  # pre = 2: s_2 = s_3 = 0
    (3, "rat:1/2", "rseq:;2", 3),  # pre = 0: r_1 agrees, s_0 = 1 but s_1 = -1/2
    (3, "rat:1/2", "rseq:2;2", 3),  # pre = 1: r_1, r_2 agree, s_1 = -1/2 but s_2 = -3/4
])
def test_s_state_check_of_a_rational_against_a_periodic_sequence(m, xi, seq, first):
    """The rational's digits repeat with the sequence's period exactly when
    its s-state at the preperiod returns after one period; both states come
    from one walk of the digit step."""
    rat, per = RDigitStream.make(m, xi), RDigitStream.make(m, seq)
    pre = len(per.spec.xi.preperiod)
    horizon = pre + len(per.spec.xi.period)
    ss = [Fraction(1)] + s_values(rat.spec, horizon)
    assert rat.digits(horizon) == per.digits(horizon)
    assert _s_returns(rat, pre, horizon) == (ss[pre] == ss[horizon]) == (first is None)
    assert _first_difference(rat, per) == _first_difference(per, rat) == first


# --- congruence law and bijection (brute force, small) ---------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_congruence_law_small(m):
    # prefix-h agreement iff n = n' mod (m/d)^h * d, for equal gcds
    bound = m**4
    data = {}
    for n in range(bound):
        d = gcd_with_m(spec(m, XiRat(n)))
        data[n] = (d, r_digits(spec(m, XiRat(n)), 3))
    for h in (1, 2, 3):
        for n in range(bound):
            d, rn = data[n]
            m_hat = m // d
            for np in range(n, bound):
                dp, rnp = data[np]
                if d != dp:
                    continue
                agree = rn[:h] == rnp[:h]
                cong = (n - np) % (m_hat**h * d) == 0
                assert agree == cong, (m, h, n, np)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_digit_bijection_small(m):
    h = 3
    seen = set()
    count = 0
    for n in range(m**h):
        if math.gcd(n, m) != 1:
            continue
        count += 1
        seen.add(tuple(r_digits(spec(m, XiRat(n)), h)))
    phi = sum(1 for k in range(m) if math.gcd(k, m) == 1)
    assert len(seen) == count == phi * m ** (h - 1)
    assert all(math.gcd(t[0], m) == 1 for t in seen)


# --- grammar ----------------------------------------------------------------

@pytest.mark.parametrize(
    "text,xi",
    [
        ("int:3", XiRat(3)),
        ("int:-17", XiRat(-17)),
        ("rat:1/2", XiRat(1, 2)),
        ("rat:-3/7", XiRat(-3, 7)),
        ("rseq:1,0,1", XiSeq((1, 0, 1))),
        ("rseq:2;0,1", XiSeq((2,), (0, 1))),
        ("rseq:;1", XiSeq((), (1,))),
    ],
)
def test_xi_grammar_roundtrip(text, xi):
    assert parse_xi(text) == xi
    assert parse_xi(format_xi(xi)) == xi


@pytest.mark.parametrize(
    "text", ["", "foo:1", "int:", "int:1.5", "rat:1", "rat:1/2/3", "rseq:", "rseq:1;"]
)
def test_xi_grammar_errors(text):
    with pytest.raises(ParseError):
        parse_xi(text)


@pytest.mark.parametrize(
    "text,offset",
    [("foo:1", 0), ("int:x", 4), ("rat:1", 4), ("rat:x/2", 4), ("rat:1/x", 6),
     ("rat:12/+x", 7), ("rseq:", 5), ("rseq:1,x", 7), ("rseq:1;", 7), ("rseq:1,2;3,x", 11)],
)
def test_xi_grammar_error_offsets(text, offset):
    """A parse error names the offset of the piece it could not read."""
    with pytest.raises(ParseError) as info:
        parse_xi(text)
    assert info.value.offset == offset


@pytest.mark.parametrize("n", [0, 3, -17, 10**30])
def test_an_integer_is_a_rational_over_one(n):
    assert parse_xi(f"rat:{n}/1") == parse_xi(f"int:{n}") == XiRat(n) == XiRat(n, 1)
    assert format_xi(XiRat(n, 1)) == f"int:{n}"
    assert format_xi(XiRat(n, 2)) == f"rat:{n}/2"


@pytest.mark.parametrize("digits", [(1,), (0, 1), (2, 0, 1, 1), (1, 2, 2, 0, 2, 1, 0)])
def test_a_sequence_with_no_period_is_a_finite_prefix(digits):
    """XiSeq(d), XiSeq(d, ()) and rseq:<d> are one parameter: the same
    digits, no digit past them, no full comparison, the same flag."""
    text = "rseq:" + ",".join(map(str, digits))
    specs = [spec(3, XiSeq(digits)), spec(3, XiSeq(digits, ())), spec(3, parse_xi(text))]
    periodic = RDigitStream(spec(3, XiSeq(digits, (1,))))
    for s in specs:
        stream = RDigitStream(s)
        assert stream.digits(len(digits)) == list(digits)
        with pytest.raises(RDigitBudgetExceeded) as exc:
            stream.digit(len(digits) + 1)
        assert exc.value.index == len(digits) + 1
        for pair in ((stream, periodic), (periodic, stream), (stream, stream)):
            with pytest.raises(UndecidableSpec):
                isomorphic(*pair)
        assert format_xi(s.xi) == text
    assert len({s.unverified_realizability for s in specs}) == 1
    assert specs[0].unverified_realizability == (digits[0] == 0)


def test_unverified_realizability_flag():
    assert spec(2, XiSeq((0, 1))).unverified_realizability
    assert not spec(2, XiSeq((1, 0))).unverified_realizability
    assert not spec(2, XiRat(4)).unverified_realizability
