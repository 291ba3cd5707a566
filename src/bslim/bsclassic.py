"""Word problem in classical Baumslag-Solitar groups BS(p,q), plus the
exponent-shrinking quantities N(k) used to refute equational noetherianity.

BS(p,q) = < a, b | a b^p a^-1 = b^q >.  Britton reduction runs on
b-exponent blocks held as arbitrary-precision integers (a pinch
a b^{kp} a^-1 becomes b^{kq}, and a^-1 b^{kq} a becomes b^{kp}), so words
like b^(n^k) stay cheap to reduce.
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


def _word_to_blocks(w: GroupWord) -> tuple[list[int], list[int]]:
    """Alternating representation: b-exponents b_segs[0..k] separated by
    nonzero a-exponents a_exps[0..k-1]."""
    b_segs = [0]
    a_exps: list[int] = []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            if a_exps and b_segs[-1] == 0:
                a_exps[-1] += letter.exp
                if a_exps[-1] == 0:
                    a_exps.pop()
                    b_segs.pop()
            else:
                a_exps.append(letter.exp)
                b_segs.append(0)
        else:
            b_segs[-1] += _b_exponent(letter.vec)
    return b_segs, a_exps


def bs_is_trivial(spec: BSSpec, w: GroupWord) -> bool:
    """Word problem in BS(p, q) by block Britton reduction."""
    p, q = spec.p, spec.q
    b_segs, a_exps = _word_to_blocks(w)
    i = 0
    while i < len(a_exps) - 1:
        left, right = a_exps[i], a_exps[i + 1]
        beta = b_segs[i + 1]
        if left > 0 and right < 0 and beta % p == 0:
            new = (beta // p) * q
        elif left < 0 and right > 0 and beta % q == 0:
            new = (beta // q) * p
        else:
            i += 1
            continue
        # consume one stable letter from each side (exponents move toward 0)
        a_exps[i] -= 1 if left > 0 else -1
        a_exps[i + 1] -= 1 if right > 0 else -1
        b_segs[i + 1] = new
        if a_exps[i + 1] == 0:
            b_segs[i + 1] += b_segs[i + 2]
            del b_segs[i + 2]
            del a_exps[i + 1]
        if a_exps[i] == 0:
            b_segs[i] += b_segs[i + 1]
            del b_segs[i + 1]
            del a_exps[i]
        i = max(i - 1, 0)
    return len(a_exps) == 0 and b_segs[0] == 0


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
    strictly shrinks the power of any prime dividing n more than m; the
    precondition (|m| < |n| and some prime power divides n but not m)
    guarantees termination.
    """
    if k < 1:
        raise PreconditionViolated("k must be at least 1")
    if m == 0 or n == 0 or abs(m) >= abs(n):
        raise PreconditionViolated("need |m| < |n|")
    fm = _prime_exponents(m)
    fn = _prime_exponents(n)
    if not any(e > fm.get(prime, 0) for prime, e in fn.items()):
        raise PreconditionViolated(
            "need a prime power dividing n but not m"
        )
    alpha = n**k
    count = 0
    while alpha % n == 0:
        alpha = (alpha // n) * m
        count += 1
    return count, alpha


def mu_max_exponent(m: int) -> int:
    """The largest exponent in the prime factorization of m."""
    return max(_prime_exponents(m).values(), default=0)
