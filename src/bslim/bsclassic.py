"""Word problem in classical Baumslag-Solitar groups BS(p,q), plus the
exponent-shrinking quantities N(k) used to refute equational noetherianity.

BS(p,q) = < a, b | a b^p a^-1 = b^q >.  Britton reduction is one stack
pass with the b-exponents between stable letters held as arbitrary-precision
integers (a pinch a b^{kp} a^-1 becomes b^{kq}, and a^-1 b^{kq} a becomes
b^{kp}), so words like b^(n^k) stay cheap to reduce.  N(k) needs only
0 < |m| < |n|, which rules out n | m.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import takewhile

from .errors import ParseError, PreconditionViolated
from .group import _COMPACT, ALetter, GroupWord, _b_exponent, _base_letter, a_power_word
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


#: One token of the ``bswp`` grammar: a letter, optionally raised to a signed
#: ASCII decimal if lowercase; a^k stands for |k| letters, b^k for one letter k e_0.
BS_TOKEN = re.compile(r"([aAbB])(?:(?<=[ab])\^([+-]?[0-9]+))?")
#: The tokens that run unbroken from a word's start: the parser reads no further.
BS_TOKENS = re.compile(f"(?:{BS_TOKEN.pattern})*")


def parse_bs_word(text: str) -> GroupWord:
    """Compact {a, A, b, B} words extended with run-length tokens
    ``a^<signed decimal>`` and ``b^<signed decimal>``; plain letters are
    the ones :func:`group.parse_word` shares."""
    letters, end, last = [], BS_TOKENS.match(text).end(), None
    for last in BS_TOKEN.finditer(text, 0, end):
        letter, k = last.groups()
        if k is None:
            letters.append(_COMPACT[letter])
        elif letter == "a":
            letters += a_power_word(_parse_decimal(k, last.start(2))).letters
        elif k := _parse_decimal(k, last.start(2)):
            letters.append(_base_letter(EVec.basis(0, k)))
    if end == len(text):
        return GroupWord(letters)
    # the error a left-to-right scan reports: a ^ or a non-ASCII digit at ``end``
    # continues the last token's exponent, which fails as a number or follows A or B
    nxt = text[end : end + 1]
    if last and (nxt == "^" if last[2] is None else nxt.isdigit()):
        start = last.start() + 2
        lead = start + (text[start : start + 1] in ("+", "-"))
        _parse_decimal(text[start:lead] + "".join(takewhile(str.isdigit, text[lead:])), start)
        raise ParseError("exponent tokens use lowercase letters", start - 1)
    raise ParseError(f"invalid symbol {nxt!r}", end)


def bs_is_trivial(spec: BSSpec, w: GroupWord) -> bool:
    """Word problem in BS(p, q) by the one pass of :func:`group._reduce_letters`
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
