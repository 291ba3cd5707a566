"""Words, Britton reduction, normal forms, and the word and conjugacy
decision procedures for one marked limit group.

A word is a sequence of letters: powers a^{+-1} of the stable letter and
base-group elements.  Britton's lemma drives everything: a form

    x_0 a^{d_1} x_1 ... a^{d_l} x_l        (x_i in E, d_i = +-1)

is reduced when it contains no pinch a x a^-1 with x in E_{m,xi} and no
pinch a^-1 x a with x in E_1; a nonempty reduced form is never trivial.
Normal forms additionally pick coset representatives: after a the segment
lies in {j e_0 : 0 <= j < |m|}, after a^-1 in Z e_0, which makes them
unique per group element.

Conjugacy follows Collins' lemma: cyclically reduce, match stable-letter
shapes up to cyclic permutation, and solve for a base-group conjugator e
with e v e^-1 = u.  If the exponent sum sigma is nonzero, the quotient onto
Z wr Z, where q(e) conjugates (P_v, sigma) to (P_v + (1 - X^sigma) q(e),
sigma), leaves one candidate: 1 - X^sigma is no zero divisor and q is
injective, so exact division of P_u - P_v and back-substitution find it,
and the word problem decides it.  Rotations are screened before that: the
rotation of a core w by its prefix g_j (shift s_j) has lamp polynomial
X^-s_j (P_w + (X^sigma - 1) P_g), so mod X^sigma - 1 its residues are those
of P_w shifted cyclically by s_j, and each core is folded into its |sigma|
residues once.  X^sigma - 1 is monic, so the division leaves no remainder
only if the residues of u and of the rotation agree: the screen rejects
just the rotations the division would.  If sigma = 0, X^sigma - 1 = 0:
the screen compares X^-s_j P_w with P_v themselves, and e drops out of
the lamp equation, so any e on which the pinch chain of e v e^-1 u^-1
is defined is a conjugator once the screen passes; a lift from the peak
of the stable-letter heights finds one, a congruence mod m per depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Literal, Optional, Union

from .errors import ParseError, ShapeMismatch, WitnessCheckFailed
from .lattice import (
    EVec,
    GroupCtx,
    _down,
    _parse_eterm,
    _q_inverse,
    _tokens,
    _up,
    _up_split,
    a_conjugate,
    format_evec,
    q_poly,
)
from .madic import LaurentPoly

# --- letters and words ------------------------------------------------------


@dataclass(frozen=True)
class ALetter:
    """A power a^{+1} or a^{-1} of the stable letter."""

    exp: int

    def __post_init__(self):
        if self.exp not in (1, -1):
            raise ValueError("stable-letter exponents are +-1")


@dataclass(frozen=True)
class BaseLetter:
    """A base-group element; the payload may be zero during parsing."""

    vec: EVec


Letter = Union[ALetter, BaseLetter]

A_POS = ALetter(1)
A_NEG = ALetter(-1)
_A_POWER = {1: A_POS, -1: A_NEG}  # the shared letter a^d; no other ALetter is built


@dataclass(frozen=True)
class GroupWord:
    """A finite sequence of letters."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        shared = _SHARED_INVERSE.get  # keeps the letters _letters_to_alt knows by identity
        return GroupWord([  # a list: a tuple grown from an iterator keeps slack
            shared(id(x)) or (_A_POWER[-x.exp] if isinstance(x, ALetter) else _base_letter(-x.vec))
            for x in reversed(self.letters)
        ])

    @property
    def is_empty(self) -> bool:
        return not self.letters


def a_power_word(n: int) -> GroupWord:
    """The word a^n."""
    return GroupWord((A_POS if n > 0 else A_NEG,) * abs(n))


def word_from_evec(vec: EVec) -> GroupWord:
    """The vector as a word, one letter per basis index."""
    # a +-e_0 entry takes its shared letter before any vector is built for it
    return GroupWord([_SHARED_B.get(e) or _base_letter(EVec((e,))) for e in vec.entries])


def _base_letter(vec: EVec) -> BaseLetter:
    """The letter of ``vec``: the shared b or B letter when vec = +-e_0.
    Every other base letter the package builds is built here."""
    entries = vec.entries
    return (len(entries) == 1 and _SHARED_B.get(entries[0])) or BaseLetter(vec)


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    return u * v * u.inverse() * v.inverse()


def _b_exponent(vec: EVec) -> int:
    """The k of a payload k e_0: the one read of a base letter over {a, b}."""
    if vec.max_index() > 0:
        raise ValueError("{a, b}-words need payloads in Z e_0")
    return vec.coeff(0)


def _substitute(
    w: GroupWord, a_image: GroupWord, base_image: Callable[[EVec], GroupWord]
) -> GroupWord:
    """The image of ``w`` under the homomorphism a -> ``a_image`` (so a^-1 ->
    its inverse) that sends each base letter x to the word ``base_image(x)``."""
    images = {1: a_image.letters, -1: a_image.inverse().letters}
    return GroupWord(list(chain.from_iterable(
        images[x.exp] if isinstance(x, ALetter) else base_image(x.vec).letters
        for x in w.letters
    )))


def compact_length(w: GroupWord) -> int:
    """Free-group length over {a, b}; payloads must be multiples of e_0."""
    return len(format_word(w, "compact"))


_B_POS, _B_NEG = BaseLetter(EVec.basis(0)), BaseLetter(EVec.basis(0, -1))
_SHARED_B = {(0, 1): _B_POS, (0, -1): _B_NEG}
_COMPACT = {"a": A_POS, "A": A_NEG, "b": _B_POS, "B": _B_NEG}
_SHARED_INVERSE = {id(x): y for x, y in zip(_COMPACT.values(), (A_NEG, A_POS, _B_NEG, _B_POS))}
_NOT_COMPACT = re.compile("[^aAbB]")


def parse_word(text: str, mode: Literal["compact", "extended"] = "compact") -> GroupWord:
    """Parse a word; compact mode is a string over {a, A, b, B}, extended
    mode is whitespace-separated ``a``, ``a^-1`` and ``e<i>^<k>`` tokens."""
    if mode == "compact":
        bad = _NOT_COMPACT.search(text)
        if bad:
            raise ParseError(f"invalid symbol {bad.group()!r}", bad.start())
        return GroupWord(list(map(_COMPACT.__getitem__, text)))  # a list, as in inverse
    if mode != "extended":
        raise ValueError(f"unknown mode {mode!r}")
    letters = []
    for token, offset in _tokens(text):
        if token == "a":
            letters.append(A_POS)
        elif token == "a^-1":
            letters.append(A_NEG)
        else:
            letters.append(_base_letter(EVec.basis(*_parse_eterm(token, offset))))
    return GroupWord(tuple(letters))


def format_word(w: GroupWord, mode: Literal["compact", "extended"] = "extended") -> str:
    """Serialize a word.  Extended mode emits one token per basis index
    (zero payloads vanish); compact mode needs payloads in Z e_0."""
    if mode == "extended":
        tokens = []
        for letter in w.letters:
            if isinstance(letter, ALetter):
                tokens.append("a" if letter.exp == 1 else "a^-1")
            elif not letter.vec.is_zero:
                tokens.append(format_evec(letter.vec))
        return " ".join(tokens)
    if mode != "compact":
        raise ValueError(f"unknown mode {mode!r}")
    chars = []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            chars.append("a" if letter.exp == 1 else "A")
        else:
            c = _b_exponent(letter.vec)
            chars.append(("b" if c > 0 else "B") * abs(c))
    return "".join(chars)


# --- reduced and normal forms -------------------------------------------------


@dataclass(frozen=True)
class ReducedForm:
    """A Britton-reduced alternating form: segments[0] a^{deltas[0]}
    segments[1] ... a^{deltas[-1]} segments[-1]."""

    segments: tuple[EVec, ...]
    deltas: tuple[int, ...]

    @property
    def t_length(self) -> int:
        return len(self.deltas)

    @property
    def sigma(self) -> int:
        return sum(self.deltas)

    @property
    def is_identity(self) -> bool:
        return not self.deltas and self.segments[0].is_zero

    def max_support_index(self) -> int:
        return max((s.max_index() for s in self.segments), default=-1)

    def to_word(self) -> GroupWord:
        letters: list[Letter] = list(word_from_evec(self.segments[0]).letters)
        for d, seg in zip(self.deltas, self.segments[1:]):
            letters.append(_A_POWER[d])
            letters.extend(word_from_evec(seg).letters)
        return GroupWord(tuple(letters))


@dataclass(frozen=True)
class NormalForm(ReducedForm):
    """The unique reduced form whose segments after each stable letter lie
    in the fixed coset-representative sets: after a, j*e0 with
    0 <= j < |m|; after a^-1, j*e0 with j in Z."""


# --- the reduction engine (dict-based hot path) -------------------------------


def _letters_to_alt(letters) -> tuple[list[dict[int, int]], list[int]]:
    """Each segment's e_0 part is summed in ``e0`` and stored once, at its close;
    the b and B letters that every builder shares are recognised by identity."""
    segs, deltas, seg, e0 = [], [], {}, 0
    for letter in letters:
        if letter is _B_POS:
            e0 += 1
        elif letter is _B_NEG:
            e0 -= 1
        elif isinstance(letter, ALetter):
            if e0:
                seg[0] = e0
            segs.append(seg)
            deltas.append(letter.exp)
            seg, e0 = {}, 0
        else:
            for i, c in letter.vec.entries:
                if not i:
                    e0 += c
                elif seg.get(i, 0) + c:
                    seg[i] = seg.get(i, 0) + c
                else:
                    seg.pop(i, None)
    if e0:
        seg[0] = e0
    segs.append(seg)
    return segs, deltas


def _merge_into(dst: dict[int, int], src: dict[int, int]) -> None:
    for i, c in src.items():
        new = dst.get(i, 0) + c
        if new:
            dst[i] = new
        elif i in dst:
            del dst[i]


def _reduce_alt(ctx: GroupCtx, segs: list[dict[int, int]], deltas: list[int]) -> None:
    """Eliminate pinches in place, leftmost first, until none remains.

    One left-to-right pass over a stack of segments and deltas.  The
    stacked prefix is always reduced, so a pinch can only form around the
    top segment, between the top stable letter and the next one read.
    """
    out_segs, out_deltas = [segs[0]], []
    for d, right in zip(deltas, segs[1:]):
        if out_deltas and out_deltas[-1] != d:
            mid = out_segs[-1]
            # a mid a^-1 needs mid in E_{m,xi}, a^-1 mid a needs E_1: else None
            fired = _up(ctx, mid) if d == -1 else _down(ctx, mid)
            if fired is not None:
                out_deltas.pop()
                out_segs.pop()
                # merge into the larger of the two outer segments
                left = out_segs[-1]
                if len(left) < len(right):
                    left, right = right, left
                    out_segs[-1] = left
                if fired:
                    _merge_into(left, fired)
                if right:
                    _merge_into(left, right)
                continue
        out_deltas.append(d)
        out_segs.append(right)
    segs[:] = out_segs
    deltas[:] = out_deltas


def _evec(seg: dict[int, int]) -> EVec:
    """A segment as an EVec; the reducers keep every key nonnegative and
    every value nonzero, so sorting its items is the canonical form."""
    return EVec(tuple(sorted(seg.items())))


def _alt_to_form(segs, deltas, cls=ReducedForm) -> ReducedForm:
    return cls(segments=tuple(map(_evec, segs)), deltas=tuple(deltas))


def britton_reduce(ctx: GroupCtx, w: GroupWord) -> ReducedForm:
    """A Britton-reduced form representing the same group element."""
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    return _alt_to_form(segs, deltas)


def is_trivial(ctx: GroupCtx, w: GroupWord) -> bool:
    """Word problem: does the word represent the identity?"""
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    return not deltas and not segs[0]


def _normalize_alt(ctx: GroupCtx, segs: list[dict[int, int]], deltas: list[int]) -> None:
    """Right-to-left pass pushing subgroup parts through the stable letters.

    Keeps the form reduced: the pushed parts land in the subgroup that the
    pinch condition one step to the left tests, so no pinch can appear.
    Each push carries everything pushed so far, so it merges with the
    segment to its left into the larger dict, as in :func:`_reduce_alt`.
    """
    for i in range(len(deltas), 0, -1):
        seg = segs[i]
        if deltas[i - 1] == 1:
            c, push = _up_split(ctx, seg)
        else:
            c = seg.pop(0, 0)
            push = _down(ctx, seg)
        segs[i], left = ({0: c} if c else {}), segs[i - 1]
        if len(left) < len(push):
            segs[i - 1], left, push = push, push, left
        _merge_into(left, push)


def normal_form(ctx: GroupCtx, w: GroupWord) -> NormalForm:
    """The unique normal form of the element represented by ``w``."""
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    _normalize_alt(ctx, segs, deltas)
    return _alt_to_form(segs, deltas, cls=NormalForm)


# --- cyclic reduction and conjugacy -------------------------------------------


def cyclic_reduce(ctx: GroupCtx, w: GroupWord) -> tuple[ReducedForm, GroupWord]:
    """A cyclically reduced core u and a conjugator g with g^-1 w g = u.

    One pass closing the reduced form from both ends: for positive
    t-length the trailing segment is absorbed into the leading one, and a
    wraparound pinch a^{d_last} lead a^{d_first} fires with one ``_up`` or
    ``_down``, dropping the outermost stable letter at each end and landing
    in the innermost segment at the right.  The form between stays reduced,
    so no other pinch can appear; the pass stops at the first end pair that
    does not pinch.
    """
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    conj: list[Letter] = []
    lo, hi = 0, len(deltas)  # the core is segs[lo] a^deltas[lo] ... segs[hi]
    while lo < hi:
        lead, tail = segs[lo], segs[hi]
        if tail:
            conj.extend(word_from_evec(-_evec(tail)).letters)
            _merge_into(lead, tail)
            segs[hi] = {}
        d_first = deltas[lo]
        if deltas[hi - 1] == d_first:
            break
        fired = _up(ctx, lead) if d_first == -1 else _down(ctx, lead)
        if fired is None:
            break
        conj.extend(word_from_evec(_evec(lead)).letters)
        conj.append(_A_POWER[d_first])
        lo, hi = lo + 1, hi - 1
        _merge_into(segs[hi], fired)
    return _alt_to_form(segs[lo : hi + 1], deltas[lo:hi]), GroupWord(tuple(conj))


def _rotation(core: ReducedForm, j: int) -> tuple[ReducedForm, GroupWord]:
    """The j-th cyclic permutation of a cyclically reduced core (trailing
    segment zero), with the conjugator g_j such that g_j^-1 core g_j equals
    the rotation."""
    segs, deltas, zero = core.segments[:-1], core.deltas, (EVec.zero(),)
    prefix = ReducedForm(segs[:j] + zero, deltas[:j])
    return ReducedForm(segs[j:] + segs[:j] + zero, deltas[j:] + deltas[:j]), prefix.to_word()


def _lamp_fold(ctx: GroupCtx, segs: Iterable[EVec], deltas) -> LaurentPoly:
    """The lamp polynomial P of segs[0] a^{deltas[0]} segs[1] ... in Z wr Z:
    P = sum_k X^{s_k} q(segs[k]), with s_k the k-th partial sum of deltas."""
    shifts = accumulate(deltas, initial=0)
    parts = [(s, q_poly(ctx, seg).coeffs) for s, seg in zip(shifts, segs)]
    lo = min((s for s, p in parts if p), default=0)
    lamps = [0] * max((s + len(p) - lo for s, p in parts if p), default=0)
    for s, p in parts:
        for k, c in enumerate(p, s - lo):
            lamps[k] += c
    return LaurentPoly(lo, lamps)


def _residues(lamps: LaurentPoly, n: int) -> list[int]:
    """A lamp polynomial mod X^n - 1 (n > 0): its coefficient sums over the
    exponents in each class mod n."""
    return [sum(lamps.coeffs[(k - lamps.offset) % n :: n]) for k in range(n)]


def _rotation_screen(ctx: GroupCtx, cv: ReducedForm, cw: ReducedForm) -> Callable[[int], bool]:
    """Whether the rotation of cw by shift s passes the lamp equation
    against cv: X^-s P_w = P_v mod X^sigma - 1, compared in residues for
    sigma != 0 and exactly for sigma = 0, where X^sigma - 1 = 0."""
    lamp_v, lamp_w = (_lamp_fold(ctx, c.segments, c.deltas) for c in (cv, cw))
    n = abs(cv.sigma)
    if not n:
        return lambda s: lamp_w.shifted(-s) == lamp_v
    res_v, res_w = _residues(lamp_v, n), _residues(lamp_w, n)
    return lambda s: res_w[s % n :] + res_w[: s % n] == res_v


def _wreath_candidate(ctx: GroupCtx, u: ReducedForm, v: ReducedForm) -> Optional[EVec]:
    """For sigma != 0, the one e in E with (1 - X^sigma) q(e) = P_u - P_v,
    the lamp equation that e v (-e) = u implies in Z wr Z; None if none."""
    sigma = u.sigma
    diff = _lamp_fold(ctx, u.segments, u.deltas) + -_lamp_fold(ctx, v.segments, v.deltas)
    if sigma < 0:  # 1 - X^sigma = -X^sigma (1 - X^|sigma|)
        diff, sigma = (-diff).shifted(-sigma), -sigma
    quot = [0] * diff.offset + list(diff.coeffs)
    top = len(quot) - sigma  # the quotient's degree is below top
    for k in range(sigma, len(quot)):  # Q_k = D_k + Q_{k - sigma}
        quot[k] += quot[k - sigma]
    if diff.offset < 0 or any(quot[max(top, 0) :]):  # X^-k in q(e), or a remainder
        return None
    return _q_inverse(ctx, quot[: max(top, 0)])


def _scaled_sum(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    out = {i: a * c for i, c in x.items() if a}
    _merge_into(out, {i: b * c for i, c in y.items()})
    return out


def _meet_congruence(ctx: GroupCtx, d: dict[int, int], seeds: list[dict[int, int]]):
    """d shifted by a seed combination to value 0 mod m (None if no shift
    does), and the seed combinations of value 0 mod m.  The values are
    echelonned from a zero pivot of value m: a seed s of value w turns the
    pivot P of value g into x P + y s of value h = gcd(g, w) = x g + y w,
    and leaves (w P - g s) / h of value 0 behind."""
    m = ctx.m_abs
    pivot, g, kernel = {}, m, []
    for seed in seeds:
        w = _up_split(ctx, seed)[0]
        h = math.gcd(g, w)
        kernel.append(_scaled_sum(w // h, pivot, -g // h, seed))
        if h < g:
            y = pow(w // h, -1, g // h)
            pivot, g = _scaled_sum((h - y * w) // g, pivot, y, seed), h
    c = _up_split(ctx, d)[0]  # c mod m fixes c mod g and c / g mod m / g, as g | m
    if c % g:
        return None, kernel
    return _scaled_sum(1, d, -c // g % (m // g), pivot), kernel


def _lift_candidate(ctx: GroupCtx, u: ReducedForm, v: ReducedForm) -> Optional[EVec]:
    """For sigma = 0, an e on which the chain d <- step(d + y_i - x_i) of
    e v (-e) u^-1 is defined at every stable letter, or None if none is.

    The walk starts at the peak of the partial sums of the deltas, so each
    a-step (``_down``) returns to a depth already reached.  As q is
    injective, the free part of d at depth k is up^k of the seeds that met
    every congruence so far, whatever the path: in E_1 for k >= 1, and in
    E_{m,xi} below the deepest depth.  So only the first a^-1-step to each
    depth constrains, by one congruence mod m; every other step checks d.
    The seeds are e_0, e_1, ... below the dense cap on e (the largest
    support index plus the t-length plus two) less the peak height, as
    each a-step lowers the top index by one.  A second, partial lap
    carries the walk's start to position 0, where d is e.
    """
    l = u.t_length
    diffs = [(y - x).to_dict() for x, y in zip(u.segments, v.segments)]
    heights = list(accumulate(u.deltas[:-1], initial=0))
    p = heights.index(max(heights))
    order = [*range(p, l), *range(p)]
    cap = max(u.max_support_index(), v.max_support_index(), 0) + l + 2 - heights[p]
    seeds = [{j: 1} for j in range(cap)]
    d: Optional[dict[int, int]] = {}
    depth = deepest = 0
    for i in order + order[: (l - p) % l]:
        _merge_into(d, diffs[i])
        if u.deltas[i] == 1:
            d, depth = _down(ctx, d), depth - 1
        else:
            if depth == deepest:  # a new depth
                d, seeds = _meet_congruence(ctx, d, seeds)
                if d is None:
                    return None
                seeds, deepest = [_up(ctx, s) for s in seeds], deepest + 1
            d, depth = _up(ctx, d), depth + 1
        if d is None:
            return None
        if i == l - 1:  # the chain closes through d + y_l - x_l = e
            _merge_into(d, diffs[l])
    return _evec(d)


def base_conjugacy_solve(ctx: GroupCtx, u: ReducedForm, v: ReducedForm) -> Optional[EVec]:
    """An e in E with e v (-e) = u, or None.

    One candidate, then one word-problem check.  When sigma != 0, exact
    division in Z wr Z gives the candidate (see the module docstring).
    When sigma = 0, e drops out of the closing lamp equation, so every e
    on which the pinch chain of e v (-e) u^-1 is defined conjugates as
    soon as any does, and :func:`_lift_candidate` lifts one such e.
    """
    if u.t_length == 0 or u.t_length != v.t_length or u.deltas != v.deltas:
        raise ShapeMismatch("cores need equal positive t-length and deltas")
    e = (_wreath_candidate if u.sigma else _lift_candidate)(ctx, u, v)
    if e is None:
        return None
    check = word_from_evec(e) * v.to_word() * word_from_evec(-e) * u.to_word().inverse()
    return e if is_trivial(ctx, check) else None


def are_conjugate(
    ctx: GroupCtx, v: GroupWord, w: GroupWord
) -> Optional[GroupWord]:
    """A witness g with g w g^-1 = v, or None when not conjugate.

    Cyclically reduces both words; distinct t-lengths are never conjugate.
    Base-group elements are conjugate only through a power of a whose
    exponent is forced by polynomial degrees.  Positive t-length reduces
    to the base solver over the cyclic permutations with matching
    stable-letter shape that pass the lamp screen; the cores are folded
    only once some permutation has the shape.
    """
    cv, p = cyclic_reduce(ctx, v)
    cw, q = cyclic_reduce(ctx, w)
    if cv.t_length != cw.t_length:
        return None
    if cv.t_length == 0:
        x, y = cv.segments[0], cw.segments[0]
        if x.is_zero != y.is_zero:
            return None
        if x.is_zero:
            mid = GroupWord(())
        else:
            n = q_poly(ctx, x).degree - q_poly(ctx, y).degree
            if a_conjugate(ctx, y, n) != x:
                return None
            mid = a_power_word(n)
        witness = p * mid * q.inverse()
    else:
        if cv.sigma != cw.sigma:  # sigma is a conjugacy invariant
            return None
        witness, screen = None, None
        for j, s in enumerate(accumulate(cw.deltas[:-1], initial=0)):
            if cw.deltas[j:] + cw.deltas[:j] != cv.deltas:
                continue
            if screen is None:  # fold once, when the first rotation has the shape
                screen = _rotation_screen(ctx, cv, cw)
            if not screen(s):
                continue
            rot, gj = _rotation(cw, j)
            e = base_conjugacy_solve(ctx, cv, rot)
            if e is None:
                continue
            witness = p * word_from_evec(e) * gj.inverse() * q.inverse()
            break
        if witness is None:
            return None
    if not is_trivial(ctx, witness * w * witness.inverse() * v.inverse()):
        raise WitnessCheckFailed("the conjugacy witness does not conjugate w to v")
    return witness


def sigma_and_tlength(ctx: GroupCtx, w: GroupWord) -> tuple[int, int]:
    """(exponent sum of a-letters, t-length of the reduced form); pinches
    remove a and a^-1 in pairs, so the reduced form keeps the exponent sum."""
    form = britton_reduce(ctx, w)
    return form.sigma, form.t_length
