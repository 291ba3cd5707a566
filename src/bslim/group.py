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
just the rotations the division would.  If sigma = 0, X^sigma - 1 = 0, so
the screen compares the lamp polynomials themselves, X^-s_j P_w against
P_v, and e is propagated through the stable letters, one column per
unknown mapped by the lattice kernels, into a finite integer linear
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Literal, Optional, Union

from .errors import ParseError, ShapeMismatch, WitnessCheckFailed
from .intsolve import solve_integer_system
from .lattice import (
    EVec,
    GroupCtx,
    _down,
    _emxi_value,
    _parse_eterm,
    _q_inverse,
    _up,
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


@dataclass(frozen=True)
class GroupWord:
    """A finite sequence of letters."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        out = []
        for letter in reversed(self.letters):
            if isinstance(letter, ALetter):
                out.append(ALetter(-letter.exp))
            else:
                out.append(BaseLetter(-letter.vec))
        return GroupWord(tuple(out))

    @property
    def is_empty(self) -> bool:
        return not self.letters


def a_power_word(n: int) -> GroupWord:
    """The word a^n."""
    return GroupWord((ALetter(1 if n > 0 else -1),) * abs(n))


def word_from_evec(vec: EVec) -> GroupWord:
    """The vector as a word, one letter per basis index."""
    return GroupWord(tuple(BaseLetter(EVec.basis(i, c)) for i, c in vec.entries))


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
    letters: list[Letter] = []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            letters.extend(images[letter.exp])
        else:
            letters.extend(base_image(letter.vec).letters)
    return GroupWord(tuple(letters))


def compact_length(w: GroupWord) -> int:
    """Free-group length over {a, b}; payloads must be multiples of e_0."""
    return len(format_word(w, "compact"))


_COMPACT = {
    "a": A_POS,
    "A": A_NEG,
    "b": BaseLetter(EVec.basis(0)),
    "B": BaseLetter(EVec.basis(0, -1)),
}


def parse_word(text: str, mode: Literal["compact", "extended"] = "compact") -> GroupWord:
    """Parse a word; compact mode is a string over {a, A, b, B}, extended
    mode is whitespace-separated ``a``, ``a^-1`` and ``e<i>^<k>`` tokens."""
    if mode == "compact":
        letters = []
        for offset, ch in enumerate(text):
            letter = _COMPACT.get(ch)
            if letter is None:
                raise ParseError(f"invalid symbol {ch!r}", offset)
            letters.append(letter)
        return GroupWord(tuple(letters))
    if mode != "extended":
        raise ValueError(f"unknown mode {mode!r}")
    letters = []
    offset = 0
    for token in text.split():
        offset = text.index(token, offset)
        if token == "a":
            letters.append(A_POS)
        elif token == "a^-1":
            letters.append(A_NEG)
        else:
            letters.append(BaseLetter(EVec.basis(*_parse_eterm(token, offset))))
        offset += len(token)
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
            letters.append(ALetter(d))
            letters.extend(word_from_evec(seg).letters)
        return GroupWord(tuple(letters))


@dataclass(frozen=True)
class NormalForm(ReducedForm):
    """The unique reduced form whose segments after each stable letter lie
    in the fixed coset-representative sets: after a, j*e0 with
    0 <= j < |m|; after a^-1, j*e0 with j in Z."""


# --- the reduction engine (dict-based hot path) -------------------------------


def _letters_to_alt(letters) -> tuple[list[dict[int, int]], list[int]]:
    segs: list[dict[int, int]] = [{}]
    deltas: list[int] = []
    for letter in letters:
        if isinstance(letter, ALetter):
            deltas.append(letter.exp)
            segs.append({})
        else:
            seg = segs[-1]
            for i, c in letter.vec.entries:
                new = seg.get(i, 0) + c
                if new:
                    seg[i] = new
                elif i in seg:
                    del seg[i]
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
    """
    m = ctx.m_abs
    for i in range(len(deltas), 0, -1):
        seg = segs[i]  # replaced by its representative, so edited in place
        if deltas[i - 1] == 1:
            c = _emxi_value(ctx, seg) % m
            if c:
                seg[0] = seg.get(0, 0) - c
            push = _up(ctx, seg)
        else:
            c = seg.pop(0, 0)
            push = _down(ctx, seg)
        segs[i] = {0: c} if c else {}
        _merge_into(segs[i - 1], push)


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
        conj.append(ALetter(d_first))
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


def base_conjugacy_solve(
    ctx: GroupCtx, u: ReducedForm, v: ReducedForm
) -> Optional[EVec]:
    """An e in E with e v (-e) = u, or None.

    When sigma != 0, exact division in Z wr Z leaves one candidate (see the
    module docstring) and the word problem decides it.  When sigma = 0,
    d = e + y_0 - x_0 is carried left to right, a constant plus one column
    per unknown: through a, d in E_1 is one equation on the e_0 entries,
    then ``_down`` maps each; through a^-1, d in E_{m,xi} is one congruence
    value(d) = m t with a fresh integer t at e_1, the rest shifted up; then
    y_i - x_i is added.  The loop closes with d - e = 0, and the system is
    solved exactly over the integers, with the unknown's support capped at
    (max support index) + t-length + 1.
    """
    if u.t_length == 0 or u.t_length != v.t_length or u.deltas != v.deltas:
        raise ShapeMismatch("cores need equal positive t-length and deltas")
    if u.sigma:
        e = _wreath_candidate(ctx, u, v)
        if e is None:
            return None
        check = word_from_evec(e) * v.to_word() * word_from_evec(-e) * u.to_word().inverse()
        return e if is_trivial(ctx, check) else None
    l = u.t_length
    n_e = max(u.max_support_index(), v.max_support_index(), 0) + l + 2
    # d's constant, then one column per unknown: c_0 .. c_{n_e - 1}, the
    # coordinates of e, and one t per a^-1; a row [k, a_0, ...] reads k + sum a_i z_i = 0
    cols: list[dict[int, int]] = [{}] + [{j: 1} for j in range(n_e)]
    rows: list[list[int]] = []
    for i, delta in enumerate(u.deltas):
        _merge_into(cols[0], (v.segments[i] - u.segments[i]).to_dict())
        if delta == 1:
            rows.append([col.pop(0, 0) for col in cols])
            cols = [_down(ctx, col) for col in cols]
        else:
            rows.append([_emxi_value(ctx, col) for col in cols] + [-ctx.m_abs])
            cols = [{j + 1: c for j, c in col.items() if j} for col in cols] + [{1: 1}]
    _merge_into(cols[0], (v.segments[l] - u.segments[l]).to_dict())
    for j in range(n_e):  # the loop closes with d - e = 0
        _merge_into(cols[j + 1], {j: -1})
    # each pass moves a coordinate by at most one
    rows += ([col.get(j, 0) for col in cols] for j in range(n_e + l))
    rows = [row + [0] * (len(cols) - len(row)) for row in rows if any(row)]
    sol = solve_integer_system([row[1:] for row in rows], [-row[0] for row in rows])
    if sol is None:
        return None
    return EVec.from_items({j: sol[j] for j in range(n_e)})


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
