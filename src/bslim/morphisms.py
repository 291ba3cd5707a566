"""The quotient onto the wreath product Z wr Z, the basic automorphisms,
injective endomorphisms, and a truncated relator-based homomorphism check.

Z wr Z is modelled as Z[X^{+-1}] x| Z with the integer factor acting by
multiplication by X, so (P, s)(Q, t) = (P + X^s Q, s + t).  Every marked
limit group maps onto it by a -> (0, 1) and b -> (1, 0); on elements of
the base group the induced map agrees with the polynomial image q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InvalidAutSpec
from .group import (
    A_POS,
    GroupWord,
    _B_POS,
    _b_exponent,
    _base_letter,
    _lamp_fold,
    _letters_to_alt,
    _substitute,
    commutator,
    is_trivial,
    word_from_evec,
)
from .lattice import EVec, GroupCtx
from .madic import LaurentPoly
from .markedspace import b_i_word


@dataclass(frozen=True)
class WreathElem:
    """An element (poly, shift) of Z[X^{+-1}] x| Z."""

    poly: LaurentPoly = LaurentPoly()
    shift: int = 0

    def __mul__(self, other: "WreathElem") -> "WreathElem":
        return WreathElem(
            self.poly + other.poly.shifted(self.shift), self.shift + other.shift
        )

    def inverse(self) -> "WreathElem":
        return WreathElem((-self.poly).shifted(-self.shift), -self.shift)

    @property
    def is_identity(self) -> bool:
        return self.poly.is_zero and self.shift == 0

    def to_json(self) -> dict:
        return {"poly": self.poly.to_json(), "shift": self.shift}


def wreath_image(ctx: GroupCtx, w: GroupWord) -> WreathElem:
    """Fold the word through a -> (0, 1), e_0 -> (1, 0) and
    e_i -> (X P_{i-1}(X), 0); a homomorphism by construction, whose shift
    coordinate equals the exponent sum of a."""
    segs, deltas = _letters_to_alt(w.letters)
    return WreathElem(_lamp_fold(ctx, map(EVec.from_items, segs), deltas), sum(deltas))


# --- automorphisms and endomorphisms -----------------------------------------


@dataclass(frozen=True)
class J:
    """The involution fixing a and negating the base group."""


@dataclass(frozen=True)
class PhiE:
    """The automorphism a -> a e fixing the base group."""

    e: EVec


@dataclass(frozen=True)
class ThetaK:
    """The injective endomorphism fixing a and scaling the base group by
    k, for k coprime to m."""

    k: int


@dataclass(frozen=True)
class EmbedD:
    """b -> b^d on {a, b}-words, the embedding of the projected unit
    group."""

    d: int


AutSpec = Union[J, PhiE, ThetaK, EmbedD]


def apply_automorphism(ctx: GroupCtx, spec: AutSpec, w: GroupWord) -> GroupWord:
    """Letterwise image of the word under the chosen (endo)morphism."""
    a = GroupWord((A_POS,))
    if isinstance(spec, J):
        return _substitute(w, a, lambda x: GroupWord((_base_letter(-x),)))
    if isinstance(spec, PhiE):
        e = GroupWord(() if spec.e.is_zero else (_base_letter(spec.e),))
        return _substitute(w, a * e, lambda x: GroupWord((_base_letter(x),)))
    if isinstance(spec, ThetaK):
        if spec.k == 0 or math.gcd(spec.k, ctx.m_abs) != 1:
            raise InvalidAutSpec(f"k = {spec.k} must be nonzero and coprime to m")
        return _substitute(
            w, a, lambda x: GroupWord(() if x.is_zero else (_base_letter(spec.k * x),))
        )
    if isinstance(spec, EmbedD):
        if spec.d < 1:
            raise InvalidAutSpec("d must be a positive integer")
        try:  # b^c -> b^(dc), and no letter for c = 0
            return _substitute(
                w, a, lambda x: word_from_evec(EVec.basis(0, spec.d * _b_exponent(x)))
            )
        except ValueError:
            raise InvalidAutSpec("b -> b^d acts on {a, b}-words only") from None
    raise InvalidAutSpec(f"unknown automorphism {spec!r}")


# --- homomorphism checking ------------------------------------------------------


@dataclass(frozen=True)
class HomCheckResult:
    """Outcome of a relator check truncated at ``depth`` (the defining
    presentation is infinite, so a pass is evidence, not proof)."""

    ok: bool
    depth: int
    first_failing: Optional[int] = None


def hom_check(src_ctx: GroupCtx, dst_ctx: GroupCtx, image_of_a: GroupWord,
              image_of_b: GroupWord, depth: int) -> HomCheckResult:
    """Test whether a -> image_of_a, b -> image_of_b kills the first
    ``depth`` defining relators of the source group inside the target."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    b_word = GroupWord((_B_POS,))
    b_inverse = image_of_b.inverse()

    def b_power(x: EVec) -> GroupWord:
        c = _b_exponent(x)
        return GroupWord((image_of_b if c > 0 else b_inverse).letters * abs(c))

    for i in range(1, depth + 1):
        rel = commutator(b_word, b_i_word(src_ctx, i))
        image = _substitute(rel, image_of_a, b_power)
        if not is_trivial(dst_ctx, image):
            return HomCheckResult(ok=False, depth=depth, first_failing=i)
    return HomCheckResult(ok=True, depth=depth)
