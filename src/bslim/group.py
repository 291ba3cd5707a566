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
shapes up to cyclic permutation, and solve for a base-group conjugator by
propagating it through the stable letters, which yields a finite integer
linear system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Union

from .errors import ParseError, ShapeMismatch, WitnessCheckFailed
from .intsolve import solve_integer_system
from .lattice import (
    EVec,
    GroupCtx,
    _down,
    _emxi_value,
    _in_e1,
    _in_emxi,
    _parse_eterm,
    _up,
    a_conjugate,
    format_evec,
    q_poly,
)

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


def compact_length(w: GroupWord) -> int:
    """Free-group length over {a, b}; payloads must be multiples of e_0."""
    total = 0
    for letter in w.letters:
        if isinstance(letter, ALetter):
            total += 1
        else:
            for i, c in letter.vec.entries:
                if i != 0:
                    raise ValueError("word uses basis elements beyond e_0")
                total += abs(c)
    return total


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
            for i, c in letter.vec.entries:
                if i != 0:
                    raise ValueError("compact output needs payloads in Z e_0")
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


NORMAL_FORM_POLICY = "after a: j*e0 with 0<=j<|m|; after a^-1: j*e0 with j in Z"


@dataclass(frozen=True)
class NormalForm(ReducedForm):
    """The unique reduced form whose segments after each stable letter lie
    in the fixed coset-representative sets."""

    policy: str = NORMAL_FORM_POLICY


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
            if d == -1:  # a mid a^-1: _up gives None unless mid is in E_{m,xi}
                fired = _up(ctx, mid)
            else:  # a^-1 mid a: mid must lie in E_1
                fired = None if mid.get(0) else _down(ctx, mid)
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


def _alt_to_form(segs, deltas, cls=ReducedForm) -> ReducedForm:
    return cls(
        segments=tuple(EVec.from_items(seg) for seg in segs),
        deltas=tuple(deltas),
    )


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

    For positive t-length the trailing segment is absorbed into the
    leading one and wraparound pinches are rotated away until none is
    left; each rotation drops the t-length by two, so this terminates.
    """
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    conj: list[Letter] = []
    while deltas:
        if segs[-1]:
            tail = dict(segs[-1])
            conj.extend(word_from_evec(-EVec.from_items(tail)).letters)
            _merge_into(segs[0], tail)
            segs[-1] = {}
        lead = segs[0]
        d_last, d_first = deltas[-1], deltas[0]
        if d_last == 1 and d_first == -1 and _in_emxi(ctx, lead):
            pass  # wraparound pinch, rotate below
        elif d_last == -1 and d_first == 1 and _in_e1(lead):
            pass
        else:
            break
        conj.extend(word_from_evec(EVec.from_items(lead)).letters)
        conj.append(ALetter(d_first))
        segs = segs[1:-1] + [dict(segs[-1])] + [{}]
        _merge_into(segs[-2], lead)
        deltas = deltas[1:] + [d_first]
        _reduce_alt(ctx, segs, deltas)
    return _alt_to_form(segs, deltas), GroupWord(tuple(conj))


def _rotation(core: ReducedForm, j: int) -> tuple[ReducedForm, GroupWord]:
    """The j-th cyclic permutation of a cyclically reduced core (trailing
    segment zero), with the conjugator g_j such that g_j^-1 core g_j equals
    the rotation."""
    if j == 0:
        return core, GroupWord(())
    segs = list(core.segments)
    deltas = list(core.deltas)
    l = len(deltas)
    letters: list[Letter] = []
    for t in range(j):
        letters.extend(word_from_evec(segs[t]).letters)
        letters.append(ALetter(deltas[t]))
    new_segs = (
        [segs[j]]
        + segs[j + 1 : l]
        + [segs[l] + segs[0]]
        + segs[1:j]
        + [EVec.zero()]
    )
    new_deltas = deltas[j:] + deltas[:j]
    return ReducedForm(tuple(new_segs), tuple(new_deltas)), GroupWord(tuple(letters))


def _expr_add(dst: dict[int, int], src: dict[int, int], k: int = 1) -> None:
    if not k:
        return
    for var, c in src.items():
        new = dst.get(var, 0) + k * c
        if new:
            dst[var] = new
        elif var in dst:
            del dst[var]


def base_conjugacy_solve(
    ctx: GroupCtx, u: ReducedForm, v: ReducedForm
) -> Optional[EVec]:
    """An e in E with e v (-e) = u, or None.

    The unknown is propagated left to right through the stable letters:
    d_1 = e + y_0 - x_0 must pass a^{d_1} (a pass through a needs E_1 and
    applies the downward isomorphism; through a^-1 needs E_{m,xi} and
    applies the upward one), then d_{i+1} = pass(d_i) + y_i - x_i, and the
    loop closes with pass(d_l) + (y_l - e) - x_l = 0.  Memberships become
    one linear equation (E_1) or one congruence with an auxiliary integer
    (E_{m,xi}); the system is solved exactly over the integers.  The
    unknown's support is capped at (max support index) + t-length + 1.
    """
    if u.t_length == 0 or u.t_length != v.t_length or u.deltas != v.deltas:
        raise ShapeMismatch("cores need equal positive t-length and deltas")
    l = u.t_length
    m = ctx.m_abs
    xs = [s.to_dict() for s in u.segments]
    ys = [s.to_dict() for s in v.segments]
    maxidx = max(u.max_support_index(), v.max_support_index(), 0)
    n_e = maxidx + l + 2  # unknowns c_0 .. c_{N} with N = maxidx + l + 1
    nvars = n_e
    equations: list[dict[int, int]] = []

    # affine coordinates: coordinate index -> {var: coeff, -1: constant}
    d: dict[int, dict[int, int]] = {j: {j: 1} for j in range(n_e)}
    for idx, c in ys[0].items():
        _expr_add(d.setdefault(idx, {}), {-1: c})
    for idx, c in xs[0].items():
        _expr_add(d.setdefault(idx, {}), {-1: -c})

    for i in range(1, l + 1):
        delta = u.deltas[i - 1]
        if delta == 1:
            # pass through a: membership in E_1, then e_1 -> m e_0 etc.
            if d.get(0):
                equations.append(d[0])
            rs = ctx.table(max(d) - 1)
            e0: dict[int, int] = {}
            nd: dict[int, dict[int, int]] = {}
            for j, expr in d.items():
                if j == 1:
                    _expr_add(e0, expr, m)
                elif j >= 2:
                    _expr_add(e0, expr, -rs[j - 1])
                    nd[j - 1] = expr
            if e0:
                nd[0] = e0
            d = nd
        else:
            # pass through a^-1: congruence value = m * t with fresh t
            rs = ctx.table(max(d))
            cong: dict[int, int] = {}
            for j, expr in d.items():
                _expr_add(cong, expr, rs[j])
            t_var = nvars
            nvars += 1
            _expr_add(cong, {t_var: -m})
            equations.append(cong)
            nd = {1: {t_var: 1}}
            for j, expr in d.items():
                if j >= 1:
                    nd[j + 1] = expr
            d = nd
        if i < l:
            for idx, c in ys[i].items():
                _expr_add(d.setdefault(idx, {}), {-1: c})
            for idx, c in xs[i].items():
                _expr_add(d.setdefault(idx, {}), {-1: -c})

    top = max([n_e - 1, *d.keys(), *xs[l].keys(), *ys[l].keys()])
    for j in range(top + 1):
        expr = dict(d.get(j, {}))
        _expr_add(expr, {-1: ys[l].get(j, 0) - xs[l].get(j, 0)})
        if j < n_e:
            _expr_add(expr, {j: -1})
        if expr:
            equations.append(expr)

    rows = [[eq.get(var, 0) for var in range(nvars)] for eq in equations]
    rhs = [-eq.get(-1, 0) for eq in equations]
    sol = solve_integer_system(rows, rhs)
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
    stable-letter shape.
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
        witness = None
        for j in range(cv.t_length):
            rot, gj = _rotation(cw, j)
            if rot.deltas != cv.deltas:
                continue
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
    """(exponent sum of a-letters, t-length of the reduced form)."""
    sigma = sum(
        letter.exp for letter in w.letters if isinstance(letter, ALetter)
    )
    return sigma, britton_reduce(ctx, w).t_length
