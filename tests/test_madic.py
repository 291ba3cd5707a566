import math
from fractions import Fraction

import pytest

from bslim import (
    MarkedGroupSpec,
    NonInvertibleDenominator,
    NoUnitRealization,
    ParseError,
    RDigitBudgetExceeded,
    RDigitStream,
    UnsupportedSpecKind,
    XiInt,
    XiRat,
    XiSeqFinite,
    XiSeqPeriodic,
    format_xi,
    gcd_with_m,
    p_polys,
    parse_xi,
    project_unit,
    r_digits,
    s_values,
    xi_from_prefix,
)


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
    assert r_digits(spec(2, XiInt(3)), 5) == [1, 1, 1, 1, 1]


def test_r_digits_zero():
    assert r_digits(spec(2, XiInt(0)), 4) == [0, 0, 0, 0]


def test_r_digits_rational():
    assert r_digits(spec(3, XiRat(1, 2)), 3) == [2, 2, 0]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [-9, -2, 0, 1, 7, 30])
def test_r_digits_match_oracle_int(m, n):
    expect, _ = oracle_digits(Fraction(n), m, 8)
    assert r_digits(spec(m, XiInt(n)), 8) == expect


@pytest.mark.parametrize("m,p,q", [(2, 1, 3), (3, -5, 4), (5, 7, 2), (4, 3, 5)])
def test_r_digits_match_oracle_rat(m, p, q):
    expect, _ = oracle_digits(Fraction(p, q), m, 8)
    assert r_digits(spec(m, XiRat(p, q)), 8) == expect


def test_r_digits_int_equals_rat_over_one():
    for m in (2, 3, 6):
        for n in range(-10, 11):
            assert r_digits(spec(m, XiInt(n)), 6) == r_digits(
                spec(m, XiRat(n, 1)), 6
            )


def test_digit_range():
    for m in (2, 3, 4, 6, -5):
        for n in (-17, -1, 0, 12, 99):
            assert all(0 <= r < abs(m) for r in r_digits(spec(m, XiInt(n)), 10))


def test_negative_m_normalization():
    # (m, xi) and (-m, -xi) label the same marked group and share digits
    assert r_digits(spec(-2, XiInt(-3)), 5) == r_digits(spec(2, XiInt(3)), 5)
    assert r_digits(spec(-3, XiRat(-1, 2)), 4) == r_digits(spec(3, XiRat(1, 2)), 4)


def test_rseq_digits_and_budget():
    s = spec(2, XiSeqFinite((1, 0, 1)))
    assert r_digits(s, 3) == [1, 0, 1]
    with pytest.raises(RDigitBudgetExceeded) as info:
        r_digits(s, 4)
    assert info.value.index == 4


def test_rseq_periodic_indexing():
    s = spec(3, XiSeqPeriodic((2,), (0, 1)))
    assert r_digits(s, 7) == [2, 0, 1, 0, 1, 0, 1]


def test_stream_budget_and_determinism():
    st = RDigitStream(spec(2, XiInt(3)), budget=3)
    assert st.digits(3) == [1, 1, 1]
    with pytest.raises(RDigitBudgetExceeded):
        st.digit(4)
    # memoized digits agree with a fresh stream
    assert RDigitStream(spec(2, XiInt(3))).digits(3) == st.digits(3)


def test_direct_reads_name_the_first_missing_index():
    # the one table grows in index order, so a read past the budget or the
    # end of a finite sequence names the first index it could not store
    st = RDigitStream(spec(2, XiInt(3)), budget=3)
    with pytest.raises(RDigitBudgetExceeded) as info:
        st.digit(6)
    assert info.value.index == 4
    assert st.rs == [1, 1, 1, 1]  # rs[0] = 1 is the weight of e_0
    with pytest.raises(RDigitBudgetExceeded) as info:
        RDigitStream(spec(2, XiSeqFinite((1, 0)))).digit(5)
    assert info.value.index == 3


def test_rat_denominator_must_be_unit():
    with pytest.raises(NonInvertibleDenominator):
        spec(2, XiRat(1, 2))
    with pytest.raises(ValueError):
        spec(2, XiRat(1, 0))


# --- s_values -------------------------------------------------------------

def test_s_values_examples():
    assert s_values(spec(2, XiInt(3)), 3) == [1, 1, 1]
    assert s_values(spec(2, XiInt(1)), 3) == [0, 0, 0]
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
        s_values(spec(2, XiSeqFinite((1,))), 1)


# --- gcd ------------------------------------------------------------------

@pytest.mark.parametrize(
    "m,xi,expect",
    [(4, XiInt(6), 2), (2, XiInt(3), 1), (3, XiInt(0), 3), (4, XiInt(0), 4)],
)
def test_gcd_with_m(m, xi, expect):
    assert gcd_with_m(spec(m, xi)) == expect


def test_gcd_matches_integer_gcd_on_units_and_more():
    for m in (2, 3, 4, 6):
        for n in range(0, m**3):
            d = gcd_with_m(spec(m, XiInt(n)))
            # ideal (m, n) in Z_m is generated by the part of gcd(m, n)
            # supported on primes of m, iterated to stability
            g = math.gcd(m, n)
            assert d % g == 0 or g % d == 0  # same prime support side
            # first digit determines it
            r1 = r_digits(spec(m, XiInt(n)), 1)[0]
            assert d == math.gcd(m, r1)


# --- P polynomials --------------------------------------------------------

def test_p_polys_examples():
    ps = p_polys(spec(2, XiInt(3)), 2)
    assert [p.coeffs for p in ps] == [(2,), (-1, 2), (-1, -1, 2)]
    ps = p_polys(spec(5, XiInt(0)), 2)
    assert [p.coeffs for p in ps] == [(5,), (0, 5), (0, 0, 5)]
    ps = p_polys(spec(3, XiRat(1, 2)), 1)
    assert [p.coeffs for p in ps] == [(3,), (-2, 3)]


def test_p_poly_str():
    ps = p_polys(spec(2, XiInt(3)), 2)
    assert str(ps[2]) == "2X^2-X-1"


def test_p_poly_identity_s_h():
    # s_h(n) = P_h(n/m) / m for the defining integer itself
    for m, n in [(2, 3), (3, 7), (4, 6), (5, -11)]:
        sp = spec(m, XiInt(n))
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
    ps = p_polys(spec(m, XiInt(xi)), 3)
    for h in (1, 2, 3):
        for k in (-2, -1, 1, 2, 7):
            n = xi + k * m**h
            x = Fraction(n, m)
            val = sum(c * x**e for e, c in enumerate(ps[h].coeffs)) / m
            assert s_values(spec(m, XiInt(n)), h)[-1] == val


# --- projection -----------------------------------------------------------

def test_project_unit_examples():
    assert project_unit(spec(4, XiInt(6))) == MarkedGroupSpec(2, XiInt(3))
    s = spec(2, XiInt(3))
    assert project_unit(s) is s
    assert project_unit(spec(4, XiInt(0))) == MarkedGroupSpec(1, XiInt(0))


def test_project_unit_rational_and_errors():
    assert project_unit(spec(4, XiRat(6, 5))) == MarkedGroupSpec(2, XiRat(3, 5))
    with pytest.raises(UnsupportedSpecKind):
        project_unit(spec(4, XiSeqFinite((2, 0))))
    # gcd 1 sequences pass through
    s = spec(2, XiSeqFinite((1,)))
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
            prefix = r_digits(spec(m, XiInt(n)), 3)
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
                    brute[tuple(r_digits(spec(m, XiInt(n)), h))] = n
            assert len(brute) == (m - 1) * m ** (h - 1)  # m prime: all unit prefixes
            for prefix, n in brute.items():
                assert xi_from_prefix(m, list(prefix)) == (n, modulus)
                assert xi_from_prefix(-m, list(prefix)) == (n, modulus)


def test_xi_from_prefix_round_trip_deep():
    h = 40
    for n in (-1, 3, 2**40 - 3, 123456789):
        prefix = r_digits(spec(2, XiInt(n)), h)
        found, modulus = xi_from_prefix(2, prefix)
        assert modulus == 2**h and found == n % modulus
        assert r_digits(spec(2, XiInt(found)), h) == prefix


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
        (2, XiInt(3)), (-2, XiInt(3)), (3, XiInt(-7)), (-5, XiInt(12)),
        (7, XiInt(0)), (1, XiInt(5)), (-1, XiInt(-2)),
        (3, XiRat(1, 2)), (-3, XiRat(1, 2)), (5, XiRat(-7, 3)),
        (-7, XiRat(22, 9)), (2, XiRat(5, 3)), (6, XiRat(-1, 5)),
    ],
)
def test_integer_recurrence_matches_fraction_recurrence(m, xi):
    count = 300
    sign = 1 if m > 0 else -1
    value = Fraction(xi.n) if isinstance(xi, XiInt) else Fraction(xi.p, xi.q)
    rs, ss = fraction_recurrence(abs(m), sign * value, count)
    assert r_digits(spec(m, xi), count) == rs
    assert s_values(spec(m, xi), count) == ss
    # reading s before r, out of order, gives the same values
    stream = RDigitStream(spec(m, xi))
    assert stream.s_value(count) == ss[-1] and stream.s_value(0) == 1
    assert stream.digits(count) == rs


# --- congruence law and bijection (brute force, small) ---------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_congruence_law_small(m):
    # prefix-h agreement iff n = n' mod (m/d)^h * d, for equal gcds
    bound = m**4
    data = {}
    for n in range(bound):
        d = gcd_with_m(spec(m, XiInt(n)))
        data[n] = (d, r_digits(spec(m, XiInt(n)), 3))
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
        seen.add(tuple(r_digits(spec(m, XiInt(n)), h)))
    phi = sum(1 for k in range(m) if math.gcd(k, m) == 1)
    assert len(seen) == count == phi * m ** (h - 1)
    assert all(math.gcd(t[0], m) == 1 for t in seen)


# --- grammar ----------------------------------------------------------------

@pytest.mark.parametrize(
    "text,xi",
    [
        ("int:3", XiInt(3)),
        ("int:-17", XiInt(-17)),
        ("rat:1/2", XiRat(1, 2)),
        ("rat:-3/7", XiRat(-3, 7)),
        ("rseq:1,0,1", XiSeqFinite((1, 0, 1))),
        ("rseq:2;0,1", XiSeqPeriodic((2,), (0, 1))),
        ("rseq:;1", XiSeqPeriodic((), (1,))),
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


def test_unverified_realizability_flag():
    assert spec(2, XiSeqFinite((0, 1))).unverified_realizability
    assert not spec(2, XiSeqFinite((1, 0))).unverified_realizability
    assert not spec(2, XiInt(4)).unverified_realizability
