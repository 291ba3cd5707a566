import random

import pytest

from bslim import InvalidAutSpec, XiRat
from bslim.group import (
    BaseLetter,
    GroupWord,
    britton_reduce,
    is_trivial,
    parse_word,
    sigma_and_tlength,
)
from bslim.lattice import EVec, GroupCtx, q_poly
from bslim.madic import MarkedGroupSpec
from bslim.morphisms import (
    EmbedD,
    HomCheckResult,
    J,
    LaurentPoly,
    PhiE,
    ThetaK,
    WreathElem,
    apply_automorphism,
    hom_check,
    wreath_image,
)

W = parse_word


@pytest.fixture
def ctx23():
    return GroupCtx.make(2, XiRat(3))


def random_word(rng, max_len=8):
    return W("".join(rng.choice("aAbB") for _ in range(rng.randrange(max_len + 1))))


# --- Laurent polynomials and wreath elements -----------------------------------

def test_laurent_normalization():
    assert LaurentPoly(3, (0, 1, 2, 0)) == LaurentPoly(4, (1, 2))
    assert LaurentPoly(5, ()).is_zero
    assert LaurentPoly(2, (0, 0)).is_zero
    p = LaurentPoly(-1, (1, 0, 1))
    assert (p + (-p)).is_zero
    assert p.shifted(2) == LaurentPoly(1, (1, 0, 1))


def test_wreath_group_laws():
    rng = random.Random(0)

    def rand_elem():
        off = rng.randrange(-3, 3)
        coeffs = tuple(rng.randrange(-2, 3) for _ in range(rng.randrange(4)))
        return WreathElem(LaurentPoly(off, coeffs), rng.randrange(-3, 4))

    for _ in range(60):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity
        assert (x.inverse() * x).is_identity


def test_wreath_image_examples(ctx23):
    assert wreath_image(ctx23, W("a")) == WreathElem(LaurentPoly(), 1)
    assert wreath_image(ctx23, W("b")) == WreathElem(LaurentPoly(0, (1,)), 0)
    assert wreath_image(ctx23, W("abA")) == WreathElem(LaurentPoly(1, (1,)), 0)


def test_wreath_image_is_homomorphism(ctx23):
    rng = random.Random(1)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert wreath_image(ctx23, u * v) == wreath_image(ctx23, u) * wreath_image(
            ctx23, v
        )


def test_wreath_shift_equals_sigma(ctx23):
    rng = random.Random(2)
    for _ in range(60):
        w = random_word(rng)
        sigma, _ = sigma_and_tlength(ctx23, w)
        assert wreath_image(ctx23, w).shift == sigma


def test_wreath_restriction_agrees_with_q(ctx23):
    rng = random.Random(3)
    found = 0
    for _ in range(400):
        w = random_word(rng, max_len=6)
        form = britton_reduce(ctx23, w)
        if form.t_length:
            continue
        found += 1
        img = wreath_image(ctx23, w)
        assert img.shift == 0
        expect = q_poly(ctx23, form.segments[0])
        assert img.poly == LaurentPoly.from_int_poly(expect)
    assert found > 30


def test_wreath_json_schema(ctx23):
    data = wreath_image(ctx23, W("abA")).to_json()
    assert data == {"poly": {"offset": 1, "coeffs": [1]}, "shift": 0}


# --- automorphisms ---------------------------------------------------------------

def test_automorphism_examples(ctx23):
    assert apply_automorphism(ctx23, J(), W("ab")) == W("aB")
    img = apply_automorphism(ctx23, PhiE(EVec.basis(0)), W("a"))
    assert img == W("ab")
    img = apply_automorphism(ctx23, ThetaK(3), W("b"))
    assert img.letters[0].vec == 3 * EVec.basis(0)


def test_automorphism_images_share_b_and_B(ctx23):
    """J, PhiE(+-e_0) and ThetaK(+-1) send b and B to the shared letters,
    as the parser does; other payloads and zero letters print as before."""
    b, big_b = W("b").letters[0], W("B").letters[0]
    img = apply_automorphism(ctx23, J(), W("abAB"))
    assert img == W("aBAb") and img.letters[1] is big_b and img.letters[3] is b
    for k, (x, y) in ((1, (b, big_b)), (-1, (big_b, b))):
        img = apply_automorphism(ctx23, ThetaK(k), W("abAB"))
        assert img.letters[1] is x and img.letters[3] is y
    for sign, x in ((1, b), (-1, big_b)):
        img = apply_automorphism(ctx23, PhiE(EVec.basis(0, sign)), W("ab"))
        assert img.letters[1] is x and img.letters[2] is b
    zero = GroupWord((BaseLetter(EVec.zero()), BaseLetter(EVec.basis(2, 3))))
    assert apply_automorphism(ctx23, J(), zero) == GroupWord(
        (BaseLetter(EVec.zero()), BaseLetter(EVec.basis(2, -3))))
    assert apply_automorphism(ctx23, ThetaK(3), zero) == GroupWord(
        (BaseLetter(EVec.basis(2, 9)),))


def test_j_and_phi_are_involutive_inverses(ctx23):
    rng = random.Random(4)
    e = EVec.from_items({0: 1, 2: -1})
    for _ in range(80):
        w = random_word(rng)
        jj = apply_automorphism(ctx23, J(), apply_automorphism(ctx23, J(), w))
        assert is_trivial(ctx23, jj * w.inverse())
        phi = apply_automorphism(ctx23, PhiE(e), w)
        back = apply_automorphism(ctx23, PhiE(-e), phi)
        assert is_trivial(ctx23, back * w.inverse())


def test_automorphisms_preserve_triviality(ctx23):
    rng = random.Random(5)
    e = EVec.from_items({1: 2})
    for _ in range(80):
        w = random_word(rng)
        t = is_trivial(ctx23, w)
        assert is_trivial(ctx23, apply_automorphism(ctx23, J(), w)) == t
        assert is_trivial(ctx23, apply_automorphism(ctx23, PhiE(e), w)) == t


def test_theta_preserves_and_reflects_triviality(ctx23):
    rng = random.Random(6)
    for _ in range(150):
        w = random_word(rng, max_len=6)
        assert is_trivial(ctx23, apply_automorphism(ctx23, ThetaK(3), w)) == is_trivial(
            ctx23, w
        )


def test_embed_d_rewrites(ctx23):
    from bslim.group import format_word

    img = apply_automorphism(ctx23, EmbedD(2), W("abA"))
    assert format_word(img, "compact") == "abbA"
    with pytest.raises(InvalidAutSpec):
        apply_automorphism(ctx23, EmbedD(2), parse_word("e1", "extended"))
    with pytest.raises(InvalidAutSpec):
        apply_automorphism(ctx23, EmbedD(0), W("a"))


def test_embed_d_preserves_triviality_into_bigger_group():
    # the unit group of (4, 6) is (2, 3); b -> b^2 embeds it
    small = GroupCtx.make(2, XiRat(3))
    big = GroupCtx.make(4, XiRat(6))
    rng = random.Random(7)
    for _ in range(150):
        w = random_word(rng, max_len=6)
        img = apply_automorphism(big, EmbedD(2), w)
        assert is_trivial(big, img) == is_trivial(small, w)


def test_theta_invalid_specs(ctx23):
    with pytest.raises(InvalidAutSpec):
        apply_automorphism(ctx23, ThetaK(2), W("b"))
    with pytest.raises(InvalidAutSpec):
        apply_automorphism(ctx23, ThetaK(0), W("b"))


# --- hom_check ---------------------------------------------------------------------

def test_hom_check_identity():
    s = MarkedGroupSpec(2, XiRat(3))
    res = hom_check(GroupCtx(s), GroupCtx(s), W("a"), W("b"), depth=5)
    assert res == HomCheckResult(ok=True, depth=5)


def test_hom_check_digit_mismatch():
    src = MarkedGroupSpec(2, XiRat(1))
    dst = MarkedGroupSpec(2, XiRat(3))
    res = hom_check(GroupCtx(src), GroupCtx(dst), W("a"), W("b"), depth=3)
    assert not res.ok
    assert res.first_failing == 3


def test_hom_check_wreath_target():
    src = MarkedGroupSpec(2, XiRat(3))
    dst = MarkedGroupSpec(1, XiRat(0))  # the wreath product Z wr Z
    res = hom_check(GroupCtx(src), GroupCtx(dst), W("a"), W("b"), depth=5)
    assert res.ok


def test_hom_check_rejects_non_homomorphism():
    s = MarkedGroupSpec(2, XiRat(3))
    res = hom_check(GroupCtx(s), GroupCtx(s), W("b"), W("a"), depth=4)
    assert not res.ok and res.first_failing == 1
