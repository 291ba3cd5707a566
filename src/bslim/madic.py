"""Exact m-adic digit arithmetic for marked-group parameters.

A limit of Baumslag-Solitar groups is labelled by a nonzero integer ``m``
and an m-adic integer ``xi``.  Everything the group algorithms need from
``xi`` is its digit sequence ``r_1, r_2, ...`` and the companion values
``s_i``, defined by the recurrence

    r_0 = 0,  s_0 = 1,
    xi * s_{i-1} = m * s_i + r_i,   r_i in {0, ..., |m|-1}.

For xi = p/q (q = 1 for integers) the digits come from the integer state
t_i = q^i * s_i, which satisfies p * t_{i-1} = m * t_i + r_i * q^i, so
r_i = p * t_{i-1} * q^{-i} mod m.  All arithmetic is on exact integers; no
floating point is used anywhere.  A parameter with m < 0 is normalized on
construction to (|m|, -xi), which labels the same marked group, so all
digit math runs over a positive modulus.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from .errors import (
    NonInvertibleDenominator,
    NoUnitRealization,
    ParseError,
    RDigitBudgetExceeded,
    UnsupportedSpecKind,
)


@dataclass(frozen=True)
class XiInt:
    """A rational integer viewed inside the ring of m-adic integers."""

    n: int


@dataclass(frozen=True)
class XiRat:
    """A fraction p/q with q invertible modulo m."""

    p: int
    q: int


@dataclass(frozen=True)
class XiSeqFinite:
    """A finite digit prefix; only finitely many digits are available."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))


@dataclass(frozen=True)
class XiSeqPeriodic:
    """An eventually periodic digit sequence (preperiod then period)."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))


XiSpec = Union[XiInt, XiRat, XiSeqFinite, XiSeqPeriodic]

#: Kinds whose full digit stream is reconstructible exactly.
EXACT_KINDS = (XiInt, XiRat)
SEQ_KINDS = (XiSeqFinite, XiSeqPeriodic)


@dataclass(frozen=True)
class MarkedGroupSpec:
    """The pair (m, xi) identifying one marked limit group.

    Internally normalized to (|m|, sign(m)*xi); both label the same marked
    group.  Digit-sequence descriptions (``XiSeqFinite``/``XiSeqPeriodic``)
    always denote the digits of the *normalized* parameter over |m|, so
    they pass through normalization unchanged.
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
        elif isinstance(xi, SEQ_KINDS):
            digits = (
                xi.digits
                if isinstance(xi, XiSeqFinite)
                else xi.preperiod + xi.period
            )
            bad = [d for d in digits if not 0 <= d < abs(self.m)]
            if bad:
                raise ValueError(f"digits {bad} outside range [0, {abs(self.m)})")
            if isinstance(xi, XiSeqPeriodic) and not xi.period:
                raise ValueError("period must be nonempty")
        elif not isinstance(xi, XiInt):
            raise TypeError(f"not a XiSpec: {xi!r}")

    @property
    def m_abs(self) -> int:
        return abs(self.m)

    @cached_property
    def xi_norm(self) -> XiSpec:
        """sign(m) * xi, the parameter actually used for digit math."""
        if self.m > 0 or isinstance(self.xi, SEQ_KINDS):
            return self.xi
        if isinstance(self.xi, XiInt):
            return XiInt(-self.xi.n)
        return XiRat(-self.xi.p, self.xi.q)

    @property
    def unverified_realizability(self) -> bool:
        """True for digit-sequence inputs whose first digit is not coprime
        to m.  Such sequences are accepted (the group they define is well
        defined) but no m-adic integer is guaranteed to realize them."""
        xi = self.xi
        if isinstance(xi, XiSeqFinite):
            first = xi.digits[0] if xi.digits else 0
        elif isinstance(xi, XiSeqPeriodic):
            first = (xi.preperiod + xi.period)[0]
        else:
            return False
        return math.gcd(first, self.m_abs) != 1


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, ascending coefficients, no leading zeros;
    the zero polynomial is the empty tuple."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

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
        if self.is_zero:
            return self
        return LaurentPoly(self.offset + s, self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
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
    if isinstance(xi, XiInt):
        return Fraction(xi.n)
    if isinstance(xi, XiRat):
        return Fraction(xi.p, xi.q)
    raise UnsupportedSpecKind(f"no exact value for {type(xi).__name__}")


class RDigitStream:
    """Memoized, on-demand access to the digits r_1, r_2, ... of a spec.

    ``rs`` is the one digit table of the parameter: ``rs[0] = 1`` (the
    weight of e_0, which the lattice kernels read) and ``rs[i] = r_i``.
    It grows one index at a time, in index order and under a lock, so a
    budget or the end of a finite digit sequence raises
    :class:`RDigitBudgetExceeded` at the first missing index.  Reads of
    stored digits take no lock, and an exact parameter appends t_i before
    r_i, so a reader that sees r_i also sees t_i; a stream may be shared
    between threads.  Recomputation from scratch yields identical digits.
    """

    def __init__(self, spec: MarkedGroupSpec, budget: int | None = None):
        self.spec = spec
        self.budget = budget
        self.rs = [1]
        self._lock = threading.Lock()
        xi = spec.xi_norm
        if isinstance(xi, EXACT_KINDS):
            frac = _xi_fraction(spec)
            self._p, self._q = frac.numerator, frac.denominator
            self._t: list[int] | None = [1]  # t_0 = s_0 = 1
        else:  # a finite sequence is a preperiod with no period
            self._t = None
            finite = isinstance(xi, XiSeqFinite)
            self._pre, self._per = (xi.digits, ()) if finite else (xi.preperiod, xi.period)

    def digit(self, i: int) -> int:
        """Return r_i (1-based)."""
        if i < 1:
            raise ValueError("digit indices start at 1")
        if i >= len(self.rs):
            self._grow(i)
        return self.rs[i]

    def digits(self, count: int) -> list[int]:
        if count > 0:
            self.digit(count)
        return self.rs[1 : count + 1]

    def s_value(self, i: int) -> Fraction:
        """Return s_i (0-based; s_0 = 1) as an exact rational."""
        if self._t is None:
            raise UnsupportedSpecKind(
                "exact s_i values exist only for integer or rational parameters"
            )
        if i < 0:
            raise ValueError("s indices start at 0")
        if i >= len(self._t):
            self._grow(i)
        return Fraction(self._t[i], self._q**i)

    def _grow(self, i: int) -> None:
        rs = self.rs
        step = self._sequence_step if self._t is None else self._exact_step
        with self._lock:
            while len(rs) <= i:
                k = len(rs)
                if self.budget is not None and k > self.budget:
                    raise RDigitBudgetExceeded(k, f"digit r_{k} exceeds budget {self.budget}")
                rs.append(step(k))

    def _exact_step(self, k: int) -> int:
        m, p, q, t = self.spec.m_abs, self._p, self._q, self._t[-1]
        r = p * t * pow(q, -k, m) % m
        self._t.append((p * t - r * q**k) // m)
        return r

    def _sequence_step(self, k: int) -> int:
        pre, per = self._pre, self._per
        if k <= len(pre):
            return pre[k - 1]
        if not per:
            raise RDigitBudgetExceeded(k)
        return per[(k - len(pre) - 1) % len(per)]


def r_digits(spec: MarkedGroupSpec, count: int) -> list[int]:
    """The first ``count`` digits [r_1, ..., r_count] of the parameter."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return RDigitStream(spec).digits(count)


def s_values(spec: MarkedGroupSpec, count: int) -> list[Fraction]:
    """The exact rationals [s_1, ..., s_count]; integer/rational specs only."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    stream = RDigitStream(spec)
    return [stream.s_value(i) for i in range(1, count + 1)]


def gcd_with_m(spec: MarkedGroupSpec) -> int:
    """gcd(|m|, r_1), with gcd(|m|, 0) = |m|.

    This equals the positive generator d of the ideal generated by m and
    xi in the m-adic integers.
    """
    return math.gcd(spec.m_abs, RDigitStream(spec).digit(1))


def p_polys(spec: MarkedGroupSpec, h: int) -> list[IntPoly]:
    """[P_0, ..., P_h] with P_0 = m and P_k = X*P_{k-1} - r_k, so P_k has
    degree k and leading coefficient m."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    stream = RDigitStream(spec)
    polys = [IntPoly((spec.m_abs,))]
    for k in range(1, h + 1):
        prev = polys[-1].coeffs
        polys.append(IntPoly((-stream.digit(k),) + prev))
    return polys


def project_unit(spec: MarkedGroupSpec) -> MarkedGroupSpec:
    """Divide out d = gcd(m, xi): the parameter (m/d, xi/d) of the unit
    group embedded via b -> b^d.

    Returns the input unchanged when d = 1, and the canonical zero spec
    (1, 0) when m/d = 1.
    """
    d = gcd_with_m(spec)
    if d == 1:
        return spec
    if isinstance(spec.xi_norm, SEQ_KINDS):
        raise UnsupportedSpecKind(
            "cannot divide a digit-sequence parameter by its gcd"
        )
    m_hat = spec.m_abs // d
    if m_hat == 1:
        return MarkedGroupSpec(1, XiInt(0))
    xi = spec.xi_norm
    if isinstance(xi, XiInt):
        if xi.n % d:
            raise ValueError(f"gcd {d} does not divide {xi.n}")
        return MarkedGroupSpec(m_hat, XiInt(xi.n // d))
    if xi.p % d:
        raise ValueError(f"gcd {d} does not divide {xi.p}")
    return MarkedGroupSpec(m_hat, XiRat(xi.p // d, xi.q))


def xi_from_prefix(m: int, prefix: list[int]) -> tuple[int, int]:
    """The unique residue class (n mod |m|^h) of units whose first h digits
    equal ``prefix``.

    r_1..r_k depend only on n mod |m|^k, so the residue is lifted one digit
    at a time: of the |m| lifts n + j*|m|^k of the residue matching the
    first k digits, exactly one also matches digit k+1.  That is O(h^2 |m|)
    digit steps.  Raises :class:`NoUnitRealization` when prefix[0] shares
    a factor with m (no unit starts with such a digit).
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    m = abs(m)
    h = len(prefix)
    if h == 0:
        raise ValueError("prefix must be nonempty")
    if any(not 0 <= d < m for d in prefix):
        raise ValueError("prefix digits outside range")
    if math.gcd(prefix[0], m) != 1:
        raise NoUnitRealization(
            f"first digit {prefix[0]} is not coprime to m={m}"
        )
    n, modulus = prefix[0], m  # r_1 = n mod m
    for k in range(1, h):
        for j in range(m):
            lift = n + j * modulus
            if RDigitStream(MarkedGroupSpec(m, XiInt(lift))).digit(k + 1) == prefix[k]:
                break
        else:
            raise NoUnitRealization(f"no unit realizes prefix {prefix} (unexpected)")
        n, modulus = lift, modulus * m
    return n, modulus


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
    return int(text)


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
        return XiInt(_parse_decimal(text[4:], 4))
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
        if ";" in body:
            pre_text, _, per_text = body.partition(";")
            pre = _parse_digit_list(pre_text, 5)
            per = _parse_digit_list(per_text, 6 + len(pre_text))
            if not per:
                raise ParseError("empty period", 6 + len(pre_text))
            return XiSeqPeriodic(pre, per)
        return XiSeqFinite(_parse_digit_list(body, 5))
    raise ParseError("expected int:, rat: or rseq:", 0)


def format_xi(xi: XiSpec) -> str:
    """Inverse of :func:`parse_xi`."""
    if isinstance(xi, XiInt):
        return f"int:{xi.n}"
    if isinstance(xi, XiRat):
        return f"rat:{xi.p}/{xi.q}"
    if isinstance(xi, XiSeqFinite):
        return "rseq:" + ",".join(map(str, xi.digits))
    return (
        "rseq:"
        + ",".join(map(str, xi.preperiod))
        + ";"
        + ",".join(map(str, xi.period))
    )
