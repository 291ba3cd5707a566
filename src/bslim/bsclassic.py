"""Word problem in classical Baumslag-Solitar groups BS(p,q), plus the
exponent-shrinking quantities N(k) used to refute equational noetherianity.

BS(p,q) = < a, b | a b^p a^-1 = b^q >.  Britton reduction is one stack
pass with the b-exponents between stable letters held as arbitrary-precision
integers (a pinch a b^{kp} a^-1 becomes b^{kq}, and a^-1 b^{kq} a becomes
b^{kp}), so words like b^(n^k) stay cheap to reduce.  N(k) needs only
0 < |m| < |n|, which rules out n | m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, PreconditionViolated
from .group import ALetter, BaseLetter, GroupWord, _b_exponent
from .lattice import EVec
from .madic import _parse_decimal


@dataclass(frozen=True)
class BSSpec:
    """The pair (p, q) of nonzero exponents."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            raise ValueError("BS(p, q) needs nonzero p and q")


def parse_bs_word(text: str) -> GroupWord:
    """Compact {a, A, b, B} words extended with run-length tokens
    ``a^<signed decimal>`` and ``b^<signed decimal>``."""
    letters = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch not in "aAbB":
            raise ParseError(f"invalid symbol {ch!r}", i)
        exp = 1 if ch in "ab" else -1
        gen = "a" if ch in "aA" else "b"
        i += 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] in "+-":
                i += 1
            while i < n and text[i].isdigit():
                i += 1
            exp = _parse_decimal(text[start:i], start)
            if ch in "AB":
                raise ParseError("exponent tokens use lowercase letters", start - 1)
        if gen == "a":
            letters.extend([ALetter(1 if exp > 0 else -1)] * abs(exp))
        elif exp:
            letters.append(BaseLetter(EVec.basis(0, exp)))
    return GroupWord(tuple(letters))


def bs_is_trivial(spec: BSSpec, w: GroupWord) -> bool:
    """Word problem in BS(p, q) by the stack pass of :func:`group._reduce_alt`
    on integer b-exponents: the stacked prefix is always reduced, so a pinch
    can only form around the top segment, when the letter read is opposite
    to the top one; free cancellation is the beta = 0 case."""
    p, q = spec.p, spec.q
    segs, deltas = [0], []
    for letter in w.letters:
        if not isinstance(letter, ALetter):
            segs[-1] += _b_exponent(letter.vec)
            continue
        d = letter.exp
        if deltas and deltas[-1] != d:
            # a b^beta a^-1 = b^(beta/p*q) when p | beta; a^-1 b^beta a = b^(beta/q*p) when q | beta
            div, mul = (p, q) if d == -1 else (q, p)
            beta = segs[-1]
            if beta % div == 0:
                deltas.pop()
                segs.pop()
                segs[-1] += beta // div * mul
                continue
        deltas.append(d)
        segs.append(0)
    return not deltas and not segs[0]


def _prime_exponents(n: int) -> dict[int, int]:
    # trial division; fine at desk scale
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def bs_n_of_k(m: int, n: int, k: int) -> tuple[int, int]:
    """The least N with a^-N b^(n^k) a^N = b^alpha and n not dividing alpha,
    in BS(m, n); returns (N, alpha).

    Each conjugation divides the exponent by n and multiplies by m, which
    strictly shrinks the power of any prime dividing n more than m.  Such a
    prime exists exactly when n does not divide m, and 0 < |m| < |n| rules
    out n | m, so the precondition |m| < |n| guarantees termination.
    """
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if m == 0 or n == 0 or abs(m) >= abs(n):
        raise PreconditionViolated("need |m| < |n|")
    alpha, count = n**k, 0
    while True:
        quo, rem = divmod(alpha, n)
        if rem:
            return count, alpha
        alpha, count = quo * m, count + 1


def mu_max_exponent(m: int) -> int:
    """The largest exponent in the prime factorization of m."""
    return max(_prime_exponents(m).values(), default=0)
