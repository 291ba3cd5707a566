"""The free abelian base group of countable rank and its two associated
subgroups.

Elements of the base group E = Z e_0 + Z e_1 + ... are finitely supported
integer vectors.  The stable letter a conjugates the finite-index subgroup

    E_{m,xi} = Z(m e_0) + Z(e_1 - r_1 e_0) + Z(e_2 - r_2 e_0) + ...

onto E_1 = Z e_1 + Z e_2 + ... via a(m e_0)a^-1 = e_1 and
a(e_i - r_i e_0)a^-1 = e_{i+1}.  This module implements membership in the
two subgroups, the conjugation isomorphism in both directions, iterated
conjugation by powers of a, the injective polynomial image q (e_0 -> 1,
e_i -> X*P_{i-1}(X)) and its inverse on the image, and the fixed-interval
data (mu, nu) of a base element acting on the Bass-Serre tree.  The
conjugation isomorphism is written out only here.

Any operation touching support index k reads at most k digits.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Literal, Optional, Union

from .errors import ParseError, PinchDomainViolation, ZeroElement
from .madic import (
    IntPoly,
    MarkedGroupSpec,
    RDigitStream,
    XiSpec,
    _parse_decimal,
    parse_xi,
)


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
    pairs = []
    offset = 0
    for token in text.split():
        offset = text.index(token, offset)
        pairs.append(_parse_eterm(token, offset))
        offset += len(token)
    return EVec.from_items(pairs)


def format_evec(vec: EVec) -> str:
    """Inverse of :func:`parse_evec`; the zero vector prints as ''."""
    parts = []
    for i, c in vec.entries:
        parts.append(f"e{i}" if c == 1 else f"e{i}^{c}")
    return " ".join(parts)


class GroupCtx:
    """A marked group with its shared digit stream.

    ``m_abs`` is |m| and ``rs`` is the stream's digit table, the same list:
    ``rs[0] = 1`` (the weight of e_0) and ``rs[i] = r_i``, so the E_{m,xi}
    value beta_0 + sum_i beta_i r_i is one dot product with ``rs``.
    Kernels call :meth:`table` with the largest index they need, once per
    call, and then index ``rs`` directly.  Read-only otherwise, and safe to
    share between threads.
    """

    def __init__(self, spec: MarkedGroupSpec, budget: Optional[int] = None):
        self.spec = spec
        self.digits = RDigitStream(spec, budget)
        self.m_abs = spec.m_abs
        self.rs = self.digits.rs

    @classmethod
    def make(
        cls, m: int, xi: Union[XiSpec, str], budget: Optional[int] = None
    ) -> "GroupCtx":
        if isinstance(xi, str):
            xi = parse_xi(xi)
        return cls(MarkedGroupSpec(m, xi), budget)

    def table(self, k: int) -> list[int]:
        """The digit table, grown to hold at least rs[0..k]."""
        if k >= len(self.rs):
            self.digits.digit(k)
        return self.rs

    def r(self, i: int) -> int:
        return self.digits.digit(i)

    def __repr__(self) -> str:
        return f"GroupCtx(m={self.spec.m}, xi={self.spec.xi!r})"


# --- dict-based kernels (hot paths in the reduction engine) ----------------

def _emxi_value(ctx: GroupCtx, seg: Mapping[int, int]) -> int:
    """beta_0 + sum_i beta_i r_i; membership in E_{m,xi} is value = 0 mod m."""
    rs = ctx.table(max(seg) if seg else 0)
    total = 0
    for i, c in seg.items():
        total += c * rs[i]
    return total


def _in_emxi(ctx: GroupCtx, seg: Mapping[int, int]) -> bool:
    return _emxi_value(ctx, seg) % ctx.m_abs == 0


def _up(ctx: GroupCtx, seg: Mapping[int, int]) -> Optional[dict[int, int]]:
    """a x a^-1 for x in E_{m,xi}, or None when x is not in E_{m,xi}: the
    membership test and the shift share one pass, and the e_0 part folds
    into e_1."""
    rs = ctx.table(max(seg) if seg else 0)
    k0, out = 0, {}
    for i, c in seg.items():
        k0 += c * rs[i]
        if i:
            out[i + 1] = c
    q, rem = divmod(k0, ctx.m_abs)
    if rem:
        return None
    if q:
        out[1] = q
    return out


def _down(ctx: GroupCtx, seg: Mapping[int, int]) -> Optional[dict[int, int]]:
    """a^-1 x a for x in E_1 (e_1 -> m e_0, e_{i+1} -> e_i - r_i e_0), or
    None when x is not in E_1, as :func:`_up` answers off E_{m,xi}."""
    if seg.get(0):
        return None
    rs = ctx.table(max(seg) - 1 if seg else 0)
    c0 = 0
    out: dict[int, int] = {}
    for i, c in seg.items():
        if i == 1:
            c0 += ctx.m_abs * c
        elif i:
            c0 -= c * rs[i - 1]
            out[i - 1] = c
    if c0:
        out[0] = c0
    return out


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
        return _in_emxi(ctx, x.to_dict())
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


def q_poly(ctx: GroupCtx, x: EVec) -> IntPoly:
    """The polynomial image beta_0 + sum_i beta_i X P_{i-1}(X).

    Injective on the base group: the images of the basis are triangular
    with diagonal coefficient m.
    """
    top = x.max_index()
    rs = ctx.table(max(top - 1, 0))
    m = ctx.m_abs
    out = [0] * (top + 1 if top >= 0 else 1)
    for i, c in x.entries:
        if i == 0:
            out[0] += c
            continue
        # X * P_{i-1} = m X^i - sum_{j<i} r_j X^(i-j)
        out[i] += c * m
        for j in range(1, i):
            out[i - j] -= c * rs[j]
    return IntPoly(tuple(out))


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
    nu = q_poly(ctx, x).x_valuation()
    mu = 0
    seg = _up(ctx, x.to_dict())
    while seg is not None:
        mu += 1
        if mu >= cap:
            return CAP_REACHED, nu
        seg = _up(ctx, seg)
    return mu, nu
