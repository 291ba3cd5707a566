"""Relator generators, distances in the space of marked groups,
isomorphism classification, and black-box parameter recovery.

The metric on marked groups is d = e^(-L) where L is the length of a
shortest word trivial in exactly one of the two groups.  Distances are
handled through integer exponents only; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Collection, Iterator, Optional, Sequence

from .errors import (
    GcdMismatch,
    OracleInconsistent,
    RDigitBudgetExceeded,
    SameGroup,
    UndecidableSpec,
)
from .group import (
    A_NEG,
    A_POS,
    GroupWord,
    _B_NEG,
    _B_POS,
    _base_letter,
    _substitute,
    commutator,
    format_word,
    is_trivial,
    parse_word,
)
from .lattice import EVec, GroupCtx
from .madic import XiSeq, _first_difference


@dataclass(frozen=True)
class DistanceBounds:
    """Exact distance sandwich e^-lower_exp <= d <= e^-upper_exp derived
    from the length h of the common digit prefix."""

    h: int
    lower_exp: int
    upper_exp: int

    def __post_init__(self):
        if not self.lower_exp >= self.upper_exp >= 1:
            raise ValueError("bounds must satisfy lower_exp >= upper_exp >= 1")


# --- relator words -----------------------------------------------------------


def b_i_word(ctx: GroupCtx, i: int) -> GroupWord:
    """The i-th commuting generator as a compact word: b_1 = a b^m a^-1 and
    b_i = a b_{i-1} b^(-r_{i-1}) a^-1, which unfolds to w(|m|; r_1..r_{i-1})."""
    if i < 1:
        raise ValueError("generator indices start at 1")
    return w_word(ctx.m_abs, ctx.digits(i - 1))


def v_k_word(k: int) -> GroupWord:
    """[a b^k a^-1, b]; trivial exactly when m divides k."""
    b_k = _base_letter(EVec.basis(0, k))
    return commutator(GroupWord((A_POS, b_k, A_NEG)), GroupWord((_B_POS,)))


def _payloads(values: Collection[int]) -> dict:
    """The letters k e_0 and -k e_0 of each value k, each built once; +-e_0
    are the shared b and B."""
    return {k: _base_letter(EVec.basis(0, k)) for k in {*values, *(-v for v in values)}}


def _digit(e0: dict, t: int) -> tuple:
    """The letters one digit t adds to a spine: (-t e_0) a^-1, or a^-1 when t = 0."""
    return (e0[-t], A_NEG) if t else (A_NEG,)


def _spine(e0: dict, m: int, digits: Sequence[int]) -> tuple:
    """(m e_0) a^-1 (-t_1 e_0) a^-1 ... (-t_n e_0) a^-1: the word w(m; t)
    after its a^(n+1)."""
    return (e0[m], A_NEG, *chain.from_iterable(_digit(e0, t) for t in digits))


def _win_e(n: int, pos: tuple, neg: tuple) -> GroupWord:
    """a^(n+1) pos b a^(n+1) neg B: the probe win_e from the spines pos of
    w(m; t) and neg of w(-m; -t), for n digits t."""
    a = (A_POS,) * (n + 1)
    return GroupWord((*a, *pos, _B_POS, *a, *neg, _B_NEG))


def w_word(m: int, digits: Sequence[int]) -> GroupWord:
    """a^(n+1) (m e_0) a^-1 (-t_1 e_0) a^-1 ... (-t_n e_0) a^-1 for the
    digit list t; lands in the base group exactly when t matches the
    group's digits.  Each payload's letter is built once per call."""
    e0 = _payloads({m, *digits})
    return GroupWord((A_POS,) * (len(digits) + 1) + _spine(e0, m, digits))


def win_e_word(m: int, digits: Sequence[int]) -> GroupWord:
    """w(m,t) e_0 w(-m,-t) (-e_0): trivial exactly when t_i = r_i for all
    i up to len(t)."""
    e0 = _payloads({m, *digits})
    return _win_e(len(digits), _spine(e0, m, digits), _spine(e0, -m, [-t for t in digits]))


def relator(kind: str, *, ctx: GroupCtx | None = None, index: int | None = None,
            m: int | None = None, digits: Sequence[int] | None = None) -> GroupWord:
    """Dispatcher over the four relator families: ``bi`` (needs ctx and
    index), ``vk`` (index), ``w`` and ``wine`` (m and digits)."""
    if kind == "bi":
        if ctx is None or index is None:
            raise ValueError("bi needs ctx and index")
        return b_i_word(ctx, index)
    if kind == "vk":
        if index is None:
            raise ValueError("vk needs index")
        return v_k_word(index)
    if kind in ("w", "wine"):
        if m is None or digits is None:
            raise ValueError(f"{kind} needs m and digits")
        return w_word(m, digits) if kind == "w" else win_e_word(m, digits)
    raise ValueError(f"unknown relator kind {kind!r}")


def word_to_compact(ctx: GroupCtx, w: GroupWord) -> str:
    """Re-express a word over {a, b} by expanding each e_i payload through
    the commuting-generator words."""

    def expand(x: EVec) -> GroupWord:
        letters: list = []
        for i, c in x.entries:
            b_i = b_i_word(ctx, i) if i else parse_word("b")
            letters.extend((b_i if c > 0 else b_i.inverse()).letters * abs(c))
        return GroupWord(tuple(letters))

    return format_word(_substitute(w, parse_word("a"), expand), "compact")


# --- enumeration of candidate distinguishing words -----------------------------
#
# A shortest word trivial in exactly one of two limit groups is freely and
# cyclically reduced, has an a-letter, and dies in the common wreath
# quotient (a -> shift, b -> X^shift).  Its class under rotation and
# inversion is what matters, so only lexicographically minimal
# representatives (letter order a < A < b < B) are kept.

_INV = (1, 0, 3, 2)  # inverse letter indices for (a, A, b, B)
_LETTERS = parse_word("aAbB").letters


def _reduced_words(length: int, last: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple]]:
    """Freely reduced words of ``length`` letters whose last letter is in
    ``last``, in lexicographic order, each with its wreath image as a key
    (shift, lamps): a and A move the shift, b and B add to the lamp at the
    current shift.

    One depth-first walk with an explicit stack: the image after k letters
    is kept per depth, so each letter is folded once, into the image its
    prefix shares, and each word is yielded once.  Lamps are a dense tuple
    over the positions -length..length, so keys of one length compare
    exactly."""
    word = [0] * length
    shifts = [length] * (length + 1)  # positions offset by length
    lamps = [(0,) * (2 * length + 1)] * (length + 1)
    # successors of each letter, pushed in reverse so they pop in order
    inner = [[u for u in (3, 2, 1, 0) if u != _INV[t]] for t in range(4)]
    final = [[u for u in nxt if u in last] for nxt in inner]
    stack = [(0, t) for t in (3, 2, 1, 0) if length > 1 or t in last]
    while stack:
        k, t = stack.pop()
        word[k] = t
        shift, lamp = shifts[k], lamps[k]
        sign = -1 if t & 1 else 1
        if t < 2:
            shift += sign
        else:
            lamp = lamp[:shift] + (lamp[shift] + sign,) + lamp[shift + 1 :]
        k += 1
        if k == length:
            yield tuple(word), (shift, lamp)
            continue
        shifts[k], lamps[k] = shift, lamp
        stack.extend((k, u) for u in (inner if k + 1 < length else final)[t])


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_INV[t] for t in reversed(word))


def _wreath_trivial_words(length: int) -> list[tuple[int, ...]]:
    """Canonical freely and cyclically reduced words of this exact length
    whose wreath image is trivial, in lexicographic order.  A canonical
    word is minimal in its class under rotation and inversion, so it
    starts with 'a'.

    Meet in the middle: w = u v dies exactly when the tail v has the image
    of the head's inverse x = u^-1, so the heads are indexed by the image
    of x (every reduced x ending in A) and each tail looks up its partners.
    Both exponent sums of such a word are 0, so its length is even."""
    if length < 2 or length % 2:
        return []
    half = length // 2
    heads: dict[tuple, list[tuple[int, ...]]] = {}
    for x, key in _reduced_words(half, (1,)):
        heads.setdefault(key, []).append(_inverse(x))
    # no tail ends in A (cyclic reduction) or cancels into its head
    return sorted(
        w
        for v, key in _reduced_words(half, (0, 2, 3))
        for u in heads.get(key, ())
        if v[0] != _INV[u[-1]] and _is_canonical(w := u + v)
    )


def _is_canonical(word: tuple[int, ...]) -> bool:
    """Minimal among all rotations of the word and of its inverse."""
    n = len(word)
    inv = _inverse(word)
    for k in range(n):
        if word[k:] + word[:k] < word and k:
            return False
        rot = inv[k:] + inv[:k]
        if rot < word:
            return False
    return True


@lru_cache(maxsize=None)
def _candidate_words(length: int) -> tuple[GroupWord, ...]:
    return tuple(GroupWord(tuple(_LETTERS[t] for t in w)) for w in _wreath_trivial_words(length))


def shortest_distinguishing(ctx1: GroupCtx, ctx2: GroupCtx,
                            max_len: int) -> Optional[tuple[int, GroupWord]]:
    """The shortest (then lexicographically first canonical) word trivial
    in exactly one of the two groups, or None up to ``max_len``.

    When found, the marked-group distance is exactly e^(-length).
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    for length in range(2, max_len + 1):
        for w in _candidate_words(length):
            if is_trivial(ctx1, w) != is_trivial(ctx2, w):
                return length, w
    return None


# --- distance bounds ------------------------------------------------------------


def distance_bounds(ctx1: GroupCtx, ctx2: GroupCtx) -> DistanceBounds:
    """The exact sandwich e^-(2(|m|+1)(h+1)+2|m|+6) <= d <= e^-(2h+1) for
    unit parameters over the same m, where h is the length of the common
    digit prefix.  A finite sequence's end is SameGroup, a budget's is not."""
    m = ctx1.m_abs
    if m != ctx2.m_abs:
        raise GcdMismatch("parameters live over different moduli")
    if ctx1.gcd_with_m() != 1 or ctx2.gcd_with_m() != 1:
        raise GcdMismatch("distance bounds need unit parameters")
    try:
        i = _first_difference(ctx1, ctx2)
    except RDigitBudgetExceeded as exc:
        if any(c.budget is not None and exc.index > c.budget for c in (ctx1, ctx2)):
            raise
        raise SameGroup(
            f"no differing digit within the available {exc.index - 1} digits"
        ) from None
    if i is None:
        raise SameGroup("the digit streams agree at every index")
    h = i - 1
    return DistanceBounds(
        h=h,
        lower_exp=2 * (m + 1) * (h + 1) + 2 * m + 6,
        upper_exp=2 * h + 1,
    )


# --- isomorphism classification ---------------------------------------------------


def isomorphic(ctx1: GroupCtx, ctx2: GroupCtx) -> bool:
    """Abstract isomorphism test: |m| equal and the normalized digit
    streams agree at every index (which also characterizes marked
    isomorphism).  Finite digit prefixes are rejected as undecidable."""
    if any(isinstance(c.spec.xi, XiSeq) and not c.spec.xi.period for c in (ctx1, ctx2)):
        raise UndecidableSpec("finite digit sequences admit no full comparison")
    return ctx1.m_abs == ctx2.m_abs and _first_difference(ctx1, ctx2) is None


# --- parameter recovery -------------------------------------------------------------

MAX_RECOVER_M = 64  # the largest |m| that recover_parameters tries by default


def word_problem_oracle(ctx: GroupCtx) -> Callable[[GroupWord], bool]:
    """The triviality oracle of a group, for recovery tests."""
    return lambda w: is_trivial(ctx, w)


def recover_parameters(
    oracle: Callable[[GroupWord], bool], n: int, max_m: int = MAX_RECOVER_M
) -> tuple[int, list[int]]:
    """Recover (|m|, first n digits) from a word-problem oracle alone.

    |m| is the least k >= 1 whose commutator word [a b^k a^-1, b] is
    trivial; each digit is the unique t whose probe word dies.  Raises
    OracleInconsistent when no candidate (or more than one) qualifies.
    """
    if n < 0:
        raise ValueError("count must be nonnegative")
    m_abs = None
    for k in range(1, max_m + 1):
        if oracle(v_k_word(k)):
            m_abs = k
            break
    if m_abs is None:
        raise OracleInconsistent(f"no commutator word trivial for k <= {max_m}")
    # the probes of level i are win_e(|m|; r_1..r_{i-1}, t): both spines
    # grow by the found digit's letters, and each t only adds its own
    e0 = _payloads(range(1, m_abs + 1))
    tails = [(_digit(e0, t), _digit(e0, -t)) for t in range(m_abs)]
    pos, neg = _spine(e0, m_abs, ()), _spine(e0, -m_abs, ())
    digits: list[int] = []
    for i in range(1, n + 1):
        hits = [t for t, (p, q) in enumerate(tails) if oracle(_win_e(i, pos + p, neg + q))]
        if len(hits) != 1:
            raise OracleInconsistent(
                f"level {i}: {len(hits)} digit candidates qualified"
            )
        digits.append(hits[0])
        p, q = tails[hits[0]]
        pos, neg = pos + p, neg + q
    return m_abs, digits
