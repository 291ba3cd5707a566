"""The free abelian base group of countable rank and its two associated
subgroups.

Elements of the base group E = Z e_0 + Z e_1 + ... are finitely supported
integer vectors.  The stable letter a conjugates the finite-index subgroup

    E_{m,xi} = Z(m e_0) + Z(e_1 - r_1 e_0) + Z(e_2 - r_2 e_0) + ...

onto E_1 = Z e_1 + Z e_2 + ... via a(m e_0)a^-1 = e_1 and
a(e_i - r_i e_0)a^-1 = e_{i+1}.  This module implements membership in the
two subgroups, the conjugation isomorphism in both directions, iterated
conjugation by powers of a, the carry that pushes a reduced form's
subgroup parts through its stable letters to its normal form, the
injective polynomial image q (e_0 -> 1, e_i -> X*P_{i-1}(X)), folded over
a form into its lamp polynomial, its inverse on the image, the
polynomials P read off it, and the fixed-interval data (mu, nu) of a base
element on the Bass-Serre tree.  The isomorphism is written out only here,
and q only in :func:`lamp_fold`.

Any operation touching support index k reads at most k digits.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Literal, Optional, Union

from .errors import ParseError, PinchDomainViolation, ZeroElement
from .madic import IntPoly, LaurentPoly, RDigitStream, _parse_decimal


@dataclass(frozen=True)
class EVec:
    """A finitely supported integer vector over the basis e_0, e_1, ...

    ``entries`` is a sorted tuple of (index, coefficient) pairs with no
    zero coefficients, so equality and hashing are structural.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @staticmethod
    def from_items(items: Union[Mapping[int, int], Iterable[tuple[int, int]]]) -> "EVec":
        acc: dict[int, int] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for i, c in pairs:
            if i < 0:
                raise ValueError("basis indices are nonnegative")
            acc[i] = acc.get(i, 0) + c
        return EVec(tuple(sorted((i, c) for i, c in acc.items() if c)))

    @staticmethod
    def basis(i: int, c: int = 1) -> "EVec":
        if i < 0:
            raise ValueError("basis indices are nonnegative")
        return EVec(((i, c),) if c else ())

    @staticmethod
    def zero() -> "EVec":
        return EVec()

    def to_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def coeff(self, i: int) -> int:
        for j, c in self.entries:
            if j == i:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def max_index(self) -> int:
        """Largest support index, or -1 for the zero vector."""
        return self.entries[-1][0] if self.entries else -1

    def __add__(self, other: "EVec") -> "EVec":
        return EVec.from_items(self.entries + other.entries)

    def __neg__(self) -> "EVec":
        return EVec(tuple((i, -c) for i, c in self.entries))

    def __sub__(self, other: "EVec") -> "EVec":
        return self + (-other)

    def __rmul__(self, k: int) -> "EVec":
        if k == 0:
            return EVec()
        return EVec(tuple((i, k * c) for i, c in self.entries))

    def __str__(self) -> str:
        return format_evec(self)


def _tokens(text: str):
    """Each whitespace-separated token of ``text`` with its offset, the
    position a :class:`ParseError` on it reports."""
    return ((t.group(), t.start()) for t in re.finditer(r"\S+", text))


def _parse_eterm(token: str, offset: int) -> tuple[int, int]:
    """One ``e<i>^<k>`` token (k omitted means 1) as (i, k); ``offset`` is
    the token's position, reported by :class:`ParseError`."""
    if not token.startswith("e"):
        raise ParseError(f"bad token {token!r}", offset)
    idx_text, sep, exp_text = token[1:].partition("^")
    i = _parse_decimal(idx_text, offset + 1, signed=False)
    k = _parse_decimal(exp_text, offset + 2 + len(idx_text)) if sep else 1
    if k == 0:
        raise ParseError(f"zero exponent in {token!r}", offset)
    return i, k


def parse_evec(text: str) -> EVec:
    """Parse whitespace-separated ``e<i>^<k>`` tokens (k omitted means 1);
    the empty string is the zero vector."""
    return EVec.from_items([_parse_eterm(token, offset) for token, offset in _tokens(text)])


def format_evec(vec: EVec) -> str:
    """Inverse of :func:`parse_evec`; the zero vector prints as ''."""
    return " ".join(f"e{i}" if c == 1 else f"e{i}^{c}" for i, c in vec.entries)


GroupCtx = RDigitStream  # a marked group is its digit stream


# --- dict-based kernels (hot paths in the reduction engine) ----------------

def _up_split(ctx: GroupCtx, seg: Mapping[int, int]) -> tuple[int, dict[int, int]]:
    """(c, a (x - c e_0) a^-1) in one pass, for c the E_{m,xi} value
    beta_0 + sum_i beta_i r_i of x mod m: x is in E_{m,xi} exactly when
    c = 0, and the e_0 part of the shift folds into e_1."""
    rs = ctx.rs
    k0, out = 0, {}
    try:
        for i, c in seg.items():
            k0 += c * rs[i]
            if i:
                out[i + 1] = c
    except IndexError:
        ctx.table(max(seg))
        return _up_split(ctx, seg)
    q, rem = divmod(k0, ctx.m_abs)
    if q:
        out[1] = q
    return rem, out


def _up(ctx: GroupCtx, seg: Mapping[int, int]) -> Optional[dict[int, int]]:
    """a x a^-1 for x in E_{m,xi}, or None when x is not in E_{m,xi}."""
    rem, out = _up_split(ctx, seg)
    return None if rem else out


def _down(ctx: GroupCtx, seg: Mapping[int, int]) -> Optional[dict[int, int]]:
    """a^-1 x a for x in E_1 (e_1 -> m e_0, e_{i+1} -> e_i - r_i e_0), or
    None when x is not in E_1, as :func:`_up` answers off E_{m,xi}."""
    if seg.get(0):
        return None
    rs, c0, out = ctx.rs, 0, {}
    try:
        for i, c in seg.items():
            if i == 1:
                c0 += ctx.m_abs * c
            elif i:
                c0 -= c * rs[i - 1]
                out[i - 1] = c
    except IndexError:
        ctx.table(max(seg) - 1)
        return _down(ctx, seg)
    if c0:
        out[0] = c0
    return out


# --- the normal-form carry ----------------------------------------------------

_BAND = 256  # the band holds the indices below _BAND, the tail the rest
_E0 = {c: EVec(((0, c),) if c else ()) for c in range(-64, 65)}  # the shared c e_0 segments


def _normal_segments(
    ctx: GroupCtx, segs: list[dict[int, int]], deltas: list[int]
) -> tuple[EVec, ...]:
    """The segments of the normal form of the reduced form segs[0]
    a^{deltas[0]} segs[1] ... a^{deltas[-1]} segs[-1], in one right-to-left
    pass that carries everything pushed so far through each stable letter.

    At each stable letter, x, the segment to its right plus the carry from
    farther right, leaves c e_0 behind and pushes the rest through: at a, c
    is the E_{m,xi} value of x mod m and a (x - c e_0) a^-1 moves on; at
    a^-1, c is x's e_0 coefficient and a^-1 (x - c e_0) a moves on.  The
    pushed part lies in the subgroup that the pinch test one letter to the
    left asks for, so the form stays reduced.

    The carry's indices below ``_BAND`` live in a dense list, the band: an
    up-shift is one insert at its front and a down-shift one delete, and
    each value one dot product with the digit table.  The indices at
    ``_BAND`` and up live in the tail, a dict keyed by level (index = level
    + ``offset``), so a shift moves only ``offset``.  A segment's entries
    land by that bound, and the band then drops its top zeros, so its top
    entry is nonzero unless the band is e_0 alone.  A shift moves at most
    one entry across: an up-shift that lengthens the band past ``_BAND``
    moves its top slot to the tail, and a down-shift moves the tail's
    entry at ``_BAND - 1`` to the band.  So a step costs at most ``_BAND``
    slots plus the tail's entries.  (A tail alone keeps that bound too, but
    it sums its values over dict items: on the ``reduce`` benchmark it ran
    no faster than the dict rebuilt at every stable letter that this
    kernel replaced, and the band ran 30 % faster.)

    Each step grows the digit table to the carry's top index (one less at
    a^-1), no farther than :func:`_up_split` and :func:`_down` read it.
    """
    m, rs = ctx.m_abs, ctx.rs
    band, tail, offset = [0], {}, 0
    out = [_E0[0]] * len(segs)
    for i in range(len(deltas), -1, -1):
        for j, c in segs[i].items():
            if j < _BAND:
                band.extend([0] * (j + 1 - len(band)))  # empty when the slot exists
                band[j] += c
            else:
                c += tail.pop(j - offset, 0)
                if c:
                    tail[j - offset] = c
        while len(band) > 1 and not band[-1]:
            band.pop()
        if not i:
            break
        top = max(tail) + offset if tail else len(band) - 1
        if deltas[i - 1] == 1:
            if top >= len(rs):
                ctx.table(top)
            value = sum(map(mul, band, rs))
            if tail:
                value += sum(x * rs[level + offset] for level, x in tail.items())
            q, c = divmod(value, m)
            offset += 1
            band[0] = q
            band.insert(0, 0)  # [0, 0] from [0] loses its top zero at the next merge
            if len(band) > _BAND:
                tail[_BAND - offset] = band.pop()
        else:
            if top > len(rs):
                ctx.table(top - 1)
            c = band[0]
            offset -= 1
            if len(band) > 1:
                del band[0]
            else:
                band[0] = 0
            x = tail.pop(_BAND - 1 - offset, 0)
            if x:
                band += [0] * (_BAND - 1 - len(band)) + [x]
            # e_1 -> m e_0 and e_{j+1} -> e_j - r_j e_0, with rs[0] = 1
            band[0] = (m + 1) * band[0] - sum(map(mul, band, rs))
            if tail:
                band[0] -= sum(x * rs[level + offset] for level, x in tail.items())
        out[i] = _E0.get(c) or EVec(((0, c),))
    head = [(j, x) for j, x in enumerate(band) if x]
    head += sorted((level + offset, x) for level, x in tail.items())
    if head:
        out[0] = EVec(tuple(head))
    return tuple(out)


# --- public operations ------------------------------------------------------

SubgroupName = Literal["E1", "EmXi"]
PhiDirection = Literal["down", "up"]
_PHI = {"down": (_down, "E_1"), "up": (_up, "E_{m,xi}")}


def subgroup_membership(ctx: GroupCtx, x: EVec, which: SubgroupName) -> bool:
    """Membership in E_1 (zero e_0 coefficient) or in E_{m,xi} (digit-weighted
    coefficient sum divisible by m)."""
    if which == "E1":
        return x.coeff(0) == 0
    if which == "EmXi":
        return not _up_split(ctx, x.to_dict())[0]
    raise ValueError(f"unknown subgroup {which!r}")


def phi_apply(ctx: GroupCtx, x: EVec, direction: PhiDirection) -> EVec:
    """The conjugation isomorphism: ``down`` sends E_1 to E_{m,xi}
    (realizing a^-1 x a), ``up`` sends E_{m,xi} to E_1 (realizing a x a^-1).
    """
    if direction not in ("down", "up"):
        raise ValueError(f"unknown direction {direction!r}")
    step, domain = _PHI[direction]
    out = step(ctx, x.to_dict())
    if out is None:
        raise PinchDomainViolation(f"{direction} direction needs an element of {domain}")
    return EVec.from_items(out)


def a_conjugate(ctx: GroupCtx, x: EVec, n: int) -> Optional[EVec]:
    """a^n x a^-n when every intermediate stays in the base group, else None.

    Positive shifts need E_{m,xi} at each step, negative shifts need E_1.
    """
    seg = x.to_dict()
    step = _up if n > 0 else _down
    for _ in range(abs(n)):
        seg = step(ctx, seg)
        if seg is None:
            return None
    return EVec.from_items(seg)


def lamp_fold(ctx: GroupCtx, segs: Iterable[EVec], deltas: Sequence[int]) -> LaurentPoly:
    """The lamp polynomial P = sum_k X^{s_k} q(segs[k]) in Z wr Z of the form
    segs[0] a^{deltas[0]} segs[1] ..., s_k the k-th partial sum of deltas,
    in one dense accumulator over the shift range; the digit table grows
    once, to the top index less one.  ``segs`` may be a one-shot iterator.
    """
    shifts = list(accumulate(deltas, initial=0))
    segs = list(segs)
    top = max(map(EVec.max_index, segs), default=-1)
    rs, m = ctx.table(max(top - 1, 0)), ctx.m_abs
    lo = min(shifts)
    acc = [0] * (max(shifts) - lo + max(top, 0) + 1)
    for s, seg in zip(shifts, segs):
        s -= lo
        for i, c in seg.entries:
            t = s + i
            if i:  # X P_{i-1} = m X^i - sum_{0<j<i} r_j X^{i-j}
                acc[t] += c * m
                for j in range(1, i):
                    acc[t - j] -= c * rs[j]
            else:
                acc[t] += c
    return LaurentPoly(lo, acc)


def q_poly(ctx: GroupCtx, x: EVec) -> IntPoly:
    """The polynomial image beta_0 + sum_i beta_i X P_{i-1}(X) from X^0, the
    one-segment :func:`lamp_fold`; injective on the base group, as the
    images of the basis are triangular with diagonal coefficient m."""
    lamps = lamp_fold(ctx, (x,), ())
    return IntPoly((0,) * lamps.offset + lamps.coeffs)


def p_polys(ctx: GroupCtx, h: int) -> list[IntPoly]:
    """[P_0, ..., P_h] with P_0 = m and P_k = X*P_{k-1} - r_k, so P_k has
    degree k and leading coefficient m; read off q as P_k = q(e_{k+1})/X."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    return [IntPoly(q_poly(ctx, EVec.basis(k + 1)).coeffs[1:]) for k in range(h + 1)]


def _q_inverse(ctx: GroupCtx, coeffs: Iterable[int]) -> Optional[EVec]:
    """The x with q(x) = sum_k coeffs[k] X^k, or None when that polynomial
    is not in the image of :func:`q_poly`: the triangular system solved
    top degree down, one division by m per coefficient."""
    out = list(coeffs)
    rs = ctx.table(max(len(out) - 2, 0))
    for i in range(len(out) - 1, 0, -1):
        c, rem = divmod(out[i], ctx.m_abs)
        if rem:
            return None
        out[i] = c
        for j in range(1, i):  # q(e_i) = m X^i - sum_{0<j<i} r_j X^{i-j}
            out[i - j] += c * rs[j]
    return EVec.from_items(enumerate(out))


CAP_REACHED = object()  # mu when the up-shift count hits the cap


def fixed_interval(
    ctx: GroupCtx, x: EVec, cap: int = 64
) -> tuple[object, int]:
    """(mu, nu) for a nonzero base element: nu is the X-adic valuation of
    its polynomial image (available down-shifts), mu counts available
    up-shifts, reported as CAP_REACHED once it meets ``cap`` (mu can be
    infinite for algebraic parameters)."""
    if x.is_zero:
        raise ZeroElement("fixed interval undefined for the zero element")
    # q is injective, so x's image is nonzero; LaurentPoly keeps its lowest exponent as offset
    nu = lamp_fold(ctx, (x,), ()).offset
    mu = 0
    seg = _up(ctx, x.to_dict())
    while seg is not None:
        mu += 1
        if mu >= cap:
            return CAP_REACHED, nu
        seg = _up(ctx, seg)
    return mu, nu
