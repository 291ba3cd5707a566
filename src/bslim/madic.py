"""Exact m-adic digit arithmetic for marked-group parameters.

A limit of Baumslag-Solitar groups is labelled by a nonzero integer ``m``
and an m-adic integer ``xi``.  Everything the group algorithms need from
``xi`` is its digit sequence ``r_1, r_2, ...`` and the companion values
``s_i``, defined by the recurrence

    r_0 = 0,  s_0 = 1,
    xi * s_{i-1} = m * s_i + r_i,   r_i in {0, ..., |m|-1}.

For xi = p/q (q = 1 for integers) the digits come from the integer state
t_i = q^i * s_i, which satisfies p * t_{i-1} = m * t_i + r_i * q^i, so
r_i = p * t_{i-1} * q^{-i} mod m; a stream keeps only the last t.  All
arithmetic is on exact integers, with no floating point anywhere.  A
parameter with m < 0 is normalized on construction to (|m|, -xi), which
labels the same marked group, so all digit math runs over |m|.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, cycle, islice
from operator import itemgetter
from typing import Union

from .errors import (
    NonInvertibleDenominator,
    NoUnitRealization,
    ParseError,
    RDigitBudgetExceeded,
    UnsupportedSpecKind,
)


@dataclass(frozen=True)
class XiRat:
    """An exact parameter p/q with q invertible modulo m; q = 1 for an integer."""

    p: int
    q: int = 1


@dataclass(frozen=True)
class XiSeq:
    """A digit sequence: the preperiod, then the period repeated forever.
    With no period it is a finite prefix, and only its digits are available."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.preperiod + self.period:
            raise ValueError("a digit sequence needs at least one digit")


XiSpec = Union[XiRat, XiSeq]


@dataclass(frozen=True)
class MarkedGroupSpec:
    """The pair (m, xi) identifying one marked limit group.

    Internally normalized to (|m|, sign(m)*xi); both label the same marked
    group.  A digit sequence (``XiSeq``) always denotes the digits of the
    *normalized* parameter over |m|, so it passes through normalization
    unchanged.
    """

    m: int
    xi: XiSpec

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("m must be a nonzero integer")
        xi = self.xi
        if isinstance(xi, XiRat):
            if xi.q == 0:
                raise ValueError("rational parameter needs a nonzero denominator")
            if math.gcd(xi.q, self.m) != 1:
                raise NonInvertibleDenominator(
                    f"denominator {xi.q} shares a factor with m={self.m}"
                )
        elif isinstance(xi, XiSeq):
            bad = [d for d in xi.preperiod + xi.period if not 0 <= d < abs(self.m)]
            if bad:
                raise ValueError(f"digits {bad} outside range [0, {abs(self.m)})")
        else:
            raise TypeError(f"not a XiSpec: {xi!r}")

    @property
    def m_abs(self) -> int:
        return abs(self.m)

    @cached_property
    def xi_norm(self) -> XiSpec:
        """sign(m) * xi, the parameter actually used for digit math."""
        if self.m > 0 or isinstance(self.xi, XiSeq):
            return self.xi
        return XiRat(-self.xi.p, self.xi.q)

    @property
    def unverified_realizability(self) -> bool:
        """True for digit-sequence inputs whose first digit is not coprime
        to m.  Such sequences are accepted (the group they define is well
        defined) but no m-adic integer is guaranteed to realize them."""
        xi = self.xi
        if not isinstance(xi, XiSeq):
            return False
        return math.gcd((xi.preperiod + xi.period)[0], self.m_abs) != 1


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, ascending coefficients, no leading zeros;
    the zero polynomial is the empty tuple."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):  # one pass: a sum can cancel a long run
        coeffs = tuple(self.coeffs)
        top = len(coeffs)
        while top and coeffs[top - 1] == 0:
            top -= 1
        object.__setattr__(self, "coeffs", coeffs[:top])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def x_valuation(self) -> int:
        """Largest k with X^k dividing the polynomial (0 for zero)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(f"{c:+d}")
            else:
                x = "X" if e == 1 else f"X^{e}"
                if c == 1:
                    parts.append(f"+{x}")
                elif c == -1:
                    parts.append(f"-{x}")
                else:
                    parts.append(f"{c:+d}{x}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial: coeffs[k] is the coefficient of
    X^(offset + k); normalized so the first and last coefficients are
    nonzero, with the zero polynomial stored as empty coeffs."""

    offset: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):  # one pass: the fold and a - b can cancel long runs
        coeffs = tuple(self.coeffs)
        nonzero = [k for k, c in enumerate(coeffs) if c]
        lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0)
        object.__setattr__(self, "coeffs", coeffs[lo:hi])
        object.__setattr__(self, "offset", self.offset + lo if nonzero else 0)

    @staticmethod
    def from_int_poly(p: IntPoly) -> "LaurentPoly":
        return LaurentPoly(0, p.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def shifted(self, s: int) -> "LaurentPoly":
        return LaurentPoly(self.offset + s, self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        for k, c in enumerate(self.coeffs):
            out[self.offset - lo + k] += c
        for k, c in enumerate(other.coeffs):
            out[other.offset - lo + k] += c
        return LaurentPoly(lo, tuple(out))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.offset, tuple(-c for c in self.coeffs))

    def to_json(self) -> dict:
        return {"offset": self.offset, "coeffs": list(self.coeffs)}


def _xi_fraction(spec: MarkedGroupSpec) -> Fraction:
    xi = spec.xi_norm
    if isinstance(xi, XiRat):
        return Fraction(xi.p, xi.q)
    raise UnsupportedSpecKind(f"no exact value for {type(xi).__name__}")


def _t_steps(xi: Fraction, m: int):
    """Yield (r_k, t_k, q^k) for k = 1, 2, ..., keeping only the last step:
    t_k = q^k s_k satisfies p t_{k-1} = m t_k + r_k q^k, so r_k = p t_{k-1}
    q^-k mod m."""
    p, q = xi.numerator, xi.denominator
    t, qk, q_inv, q_inv_k = 1, 1, pow(q, -1, m), 1
    while True:
        qk, q_inv_k, pt = qk * q, q_inv_k * q_inv % m, p * t
        r = pt % m * q_inv_k % m
        t = (pt - r * qk) // m
        yield r, t, qk


class RDigitStream:
    """A marked group's context: the digits r_1, r_2, ... of its parameter,
    memoized and read on demand.

    ``m_abs`` is |m| and ``rs`` is the one digit table of the parameter:
    ``rs[0] = 1`` (the weight of e_0) and ``rs[i] = r_i``, so the E_{m,xi}
    value beta_0 + sum_i beta_i r_i is one dot product with ``rs``.  It
    grows one index at a time, in index order and under a lock, from one
    source that keeps only its last step's state (:func:`_t_steps`, or
    ``chain(preperiod, cycle(period))`` for a digit sequence).  A budget,
    or a source that ends with its finite sequence, raises
    :class:`RDigitBudgetExceeded` at the first missing index.  The lattice
    kernels index ``rs`` directly; a read past its end calls :meth:`table`
    with the largest index the kernel needs and redoes the pass from
    scratch.  Reads of stored digits take no lock; a context may be shared
    between threads.
    """

    def __init__(self, spec: MarkedGroupSpec, budget: int | None = None):
        self.spec = spec
        self.m_abs = spec.m_abs
        self.budget = budget
        self.rs = [1]
        self._lock = threading.Lock()
        xi = spec.xi_norm
        if isinstance(xi, XiRat):
            self._source = map(itemgetter(0), _t_steps(_xi_fraction(spec), spec.m_abs))
        else:
            self._source = chain(xi.preperiod, cycle(xi.period))

    @classmethod
    def make(cls, m: int, xi: XiSpec | str, budget: int | None = None) -> "RDigitStream":
        return cls(MarkedGroupSpec(m, parse_xi(xi) if isinstance(xi, str) else xi), budget)

    def digit(self, i: int) -> int:
        """Return r_i (1-based)."""
        if i < 1:
            raise ValueError("digit indices start at 1")
        if i >= len(self.rs):
            self._grow(i)
        return self.rs[i]

    def digits(self, count: int) -> list[int]:
        """The first ``count`` digits [r_1, ..., r_count]."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count:
            self.digit(count)
        return self.rs[1 : count + 1]

    def table(self, k: int) -> list[int]:
        """The digit table, grown to hold at least rs[0..k]."""
        if k >= len(self.rs):
            self.digit(k)
        return self.rs

    def s_values(self, count: int) -> list[Fraction]:
        """The exact rationals [s_1, ..., s_count]; exact parameters only."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return [Fraction(t, qk) for _, t, qk in self._replay(count)]

    def gcd_with_m(self) -> int:
        """gcd(|m|, r_1), with gcd(|m|, 0) = |m|: the positive generator d of
        the ideal generated by m and xi in the m-adic integers."""
        return math.gcd(self.m_abs, self.digit(1))

    def _replay(self, count: int):
        """(r_k, t_k, q^k) for k = 1..count, under the stream's budget."""
        xi = _xi_fraction(self.spec)  # exact parameters only
        self.digits(count)
        return islice(_t_steps(xi, self.m_abs), count)

    def _grow(self, i: int) -> None:
        rs = self.rs
        with self._lock:
            while len(rs) <= i:
                k = len(rs)
                if self.budget is not None and k > self.budget:
                    raise RDigitBudgetExceeded(k)
                r = next(self._source, None)
                if r is None:
                    raise RDigitBudgetExceeded(k)
                rs.append(r)


def project_unit(ctx: RDigitStream) -> MarkedGroupSpec:
    """Divide out d = gcd(m, xi): the parameter (m/d, xi/d) of the unit
    group embedded via b -> b^d.

    Returns the context's own spec when d = 1, and the canonical zero spec
    (1, 0) when m/d = 1.
    """
    spec, d = ctx.spec, ctx.gcd_with_m()
    if d == 1:
        return spec
    xi = spec.xi_norm
    if isinstance(xi, XiSeq):
        raise UnsupportedSpecKind("cannot divide a digit-sequence parameter by its gcd")
    m_hat = spec.m_abs // d
    if m_hat == 1:
        return MarkedGroupSpec(1, XiRat(0))
    if xi.p % d:
        raise ValueError(f"gcd {d} does not divide {xi.p}")
    return MarkedGroupSpec(m_hat, XiRat(xi.p // d, xi.q))


def _first_difference(sa: RDigitStream, sb: RDigitStream) -> int | None:
    """The 1-based index of the first digit where two groups over the same
    |m| differ, or None when their streams agree at every index.

    Every pair with an exact parameter ends in one valuation law: the index
    is start + v_{|m|/d}(n), or None when n = 0 or |m| = d, where d =
    gcd(|m|, r_1).  An exact parameter's digits are d times those of its
    unit projection (|m|/d, xi/d), with the same s-states.  Exact pairs take
    start 1 and n = the numerator of (xi_a - xi_b)/d (the congruence law:
    units share h digits exactly when they agree mod (|m|/d)^h).  A
    rational against a periodic sequence is read through the sequence's
    horizon h = preperiod + period; if they agree there, the sequence goes
    on repeating the rational's own digits from pre, so the rational's
    streams from s_pre and from s_h must part, and since xi/d is a unit
    mod |m|/d they agree for exactly v_{|m|/d}(s_h - s_pre) digits: start
    h + 1 and n = the numerator of s_h - s_pre.  Periodic pairs (periods p,
    q) are read to both preperiods plus p + q - gcd(p, q), past which
    agreement forces period gcd(p, q) on both (Fine and Wilf, 1965).  No
    pair reads a digit past its horizon; a finite sequence or a stream's
    budget raises RDigitBudgetExceeded where it stops.
    """
    m, a, b = sa.m_abs, sa.spec, sb.spec
    d = sa.gcd_with_m()
    if sb.gcd_with_m() != d:
        return 1
    xa, xb = a.xi_norm, b.xi_norm
    if isinstance(xa, XiRat) and isinstance(xb, XiRat):
        start, n = 1, ((_xi_fraction(a) - _xi_fraction(b)) / d).numerator
    else:
        rat, horizon = None, 0  # a finite sequence has no horizon
        if isinstance(xa, XiRat) or isinstance(xb, XiRat):
            rat, seq = (sa, xb) if isinstance(xa, XiRat) else (sb, xa)
            pre = len(seq.preperiod)
            horizon = pre + len(seq.period) if seq.period else 0
        elif xa.period and xb.period:
            p, q = len(xa.period), len(xb.period)
            horizon = max(len(xa.preperiod), len(xb.preperiod)) + p + q - math.gcd(p, q)
        i = 1
        while sa.digit(i) == sb.digit(i):
            if i == horizon:
                break
            i += 1
        else:
            return i
        start, n = horizon + 1, _s_gap(rat, pre, horizon) if rat else 0
    if not n or m == d:
        return None
    while n % (m // d) == 0:
        n, start = n // (m // d), start + 1
    return start


def _s_gap(rat: RDigitStream, pre: int, horizon: int) -> int:
    """The numerator of s_horizon - s_pre (s_0 = 1), from one replay of the
    digit step."""
    s_pre = 1
    for k, (_, t, qk) in enumerate(rat._replay(horizon), 1):
        if k == pre:
            s_pre = Fraction(t, qk)
    return (Fraction(t, qk) - s_pre).numerator


def xi_from_prefix(m: int, prefix: list[int]) -> tuple[int, int]:
    """The unique residue class (n mod |m|^h) of units whose first h digits
    equal ``prefix``.

    Unrolling n s_{k-1} = m s_k + r_k gives n^h = m^h s_h + sum_i r_i
    m^(i-1) n^(h-i), so y = 1/n solves r_1 y + m y^2 H(y) = 1 mod m^h, with
    H(y) = sum_{i>=2} r_i (m y)^(i-2).  The map y -> (1 - m y^2 H(y)) / r_1
    contracts by m, so each pass from y = 1/r_1 fixes one more m-adic digit.
    Raises :class:`NoUnitRealization` when prefix[0] shares a factor with m
    (no unit starts with such a digit).
    """
    spec = MarkedGroupSpec(m, XiSeq(prefix))
    m, h = spec.m_abs, len(prefix)
    if spec.unverified_realizability:
        raise NoUnitRealization(f"first digit {prefix[0]} is not coprime to m={m}")
    modulus = m**h
    r1_inv = y = pow(prefix[0], -1, modulus)
    for _ in range(h - 1):
        horner = 0
        for r in reversed(prefix[1:]):
            horner = (horner * m * y + r) % modulus
        y = (1 - m * y * y * horner) * r1_inv % modulus
    return pow(y, -1, modulus), modulus


# --- textual parameter grammar -------------------------------------------
#
#   int:<decimal> | rat:<decimal>/<decimal> | rseq:<d1>,...,<dk>
#   | rseq:<d1>,...,<dj>;<p1>,...,<pl>
#
# ASCII, no whitespace; ";" separates preperiod from period.


def _parse_decimal(text: str, offset: int, signed: bool = True) -> int:
    """An ASCII decimal, with an optional sign when ``signed``; the one
    number check of every grammar in the package."""
    body = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (body.isascii() and body.isdigit()):
        raise ParseError(f"bad number {text!r}", offset)
    try:
        return int(text)
    except ValueError:  # well formed, but longer than int() converts
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{len(body)}-digit number is over the {limit}-digit limit", offset) from None


def _parse_digit_list(text: str, offset: int) -> tuple[int, ...]:
    if not text:
        return ()
    out = []
    pos = offset
    for piece in text.split(","):
        out.append(_parse_decimal(piece, pos, signed=False))
        pos += len(piece) + 1
    return tuple(out)


def parse_xi(text: str) -> XiSpec:
    """Parse the XiSpec grammar (int:/rat:/rseq: forms)."""
    if text.startswith("int:"):
        return XiRat(_parse_decimal(text[4:], 4))
    if text.startswith("rat:"):
        body = text[4:]
        if body.count("/") != 1:
            raise ParseError("rat: needs exactly one '/'", 4)
        p_text, q_text = body.split("/")
        p = _parse_decimal(p_text, 4)
        q = _parse_decimal(q_text, 5 + len(p_text))
        return XiRat(p, q)
    if text.startswith("rseq:"):
        body = text[5:]
        if not body:
            raise ParseError("rseq: needs at least one digit", 5)
        pre_text, semicolon, per_text = body.partition(";")
        pre = _parse_digit_list(pre_text, 5)
        per = _parse_digit_list(per_text, 6 + len(pre_text))
        if semicolon and not per:
            raise ParseError("empty period", 6 + len(pre_text))
        return XiSeq(pre, per)
    raise ParseError("expected int:, rat: or rseq:", 0)


def format_xi(xi: XiSpec) -> str:
    """Inverse of :func:`parse_xi`."""
    if isinstance(xi, XiRat):
        return f"int:{xi.p}" if xi.q == 1 else f"rat:{xi.p}/{xi.q}"
    text = "rseq:" + ",".join(map(str, xi.preperiod))
    return text + ";" + ",".join(map(str, xi.period)) if xi.period else text
