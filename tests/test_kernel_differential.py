"""Differential tests: the digit-table kernels against the per-digit ones.

The reference kernels below read ``ctx.digits.digit(i)`` once per
coefficient, as the kernels did before the digit table; the library
kernels index ``ctx.rs``.  Both must agree on every input, including
which inputs run past the available digits.

``ref_reduce`` is the index walk that the one-pass stack reducer
replaced.  Both fire the leftmost pinch first, so their reduced forms are
identical, not just equivalent.

The ``ref_*`` word maps at the end are the letter walks that
``group._substitute`` replaced; their outputs must match letter for letter.
"""

import math
import random

import pytest

from bslim import (
    BslError,
    InvalidAutSpec,
    PinchDomainViolation,
    RDigitBudgetExceeded,
    ZeroElement,
    morphisms,
)
from bslim.group import (
    ALetter,
    BaseLetter,
    GroupWord,
    _b_exponent,
    _letters_to_alt,
    _substitute,
    britton_reduce,
    commutator,
    compact_length,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
)
from bslim.lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    _down,
    _emxi_value,
    _up,
    fixed_interval,
    q_poly,
)
from bslim.madic import MarkedGroupSpec, parse_xi
from bslim.markedspace import b_i_word, word_to_compact
from bslim.morphisms import EmbedD, J, PhiE, ThetaK, apply_automorphism, hom_check

# --- reference kernels ----------------------------------------------------------


def ref_emxi_value(ctx, seg):
    return sum(c * (ctx.digits.digit(i) if i else 1) for i, c in seg.items())


def ref_in_emxi(ctx, seg):
    return ref_emxi_value(ctx, seg) % ctx.spec.m_abs == 0


def ref_up(ctx, seg):
    k0, out = 0, {}
    for i, c in seg.items():
        if i == 0:
            k0 += c
        else:
            k0 += c * ctx.digits.digit(i)
            out[i + 1] = c
    q, rem = divmod(k0, ctx.spec.m_abs)
    if rem:
        raise PinchDomainViolation("element is not in E_{m,xi}")
    if q:
        out[1] = out.get(1, 0) + q
    return out


def ref_down(ctx, seg):
    if seg.get(0, 0):
        raise PinchDomainViolation("element is not in E_1")
    c0, out = 0, {}
    for i, c in seg.items():
        if i == 1:
            c0 += ctx.spec.m_abs * c
        elif i:
            c0 -= c * ctx.digits.digit(i - 1)
            out[i - 1] = c
    if c0:
        out[0] = c0
    return out


def ref_q_poly(ctx, x):
    top = x.max_index()
    out = [0] * (top + 1 if top >= 0 else 1)
    p = [ctx.spec.m_abs]  # P_built, ascending
    built = 0
    for i, c in x.entries:
        if i == 0:
            out[0] += c
            continue
        while built < i - 1:
            built += 1
            p = [-ctx.digits.digit(built)] + p
        for e, pc in enumerate(p):
            out[e + 1] += c * pc
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out) if any(out) else ()


def ref_fixed_interval(ctx, x, cap):
    if x.is_zero:
        raise ZeroElement("zero")
    poly = ref_q_poly(ctx, x)
    nu = next(k for k, c in enumerate(poly) if c)
    mu, seg = 0, x.to_dict()
    while ref_in_emxi(ctx, seg):
        mu += 1
        if mu >= cap:
            return CAP_REACHED, nu
        seg = ref_up(ctx, seg)
    return mu, nu


def ref_merge(dst, src):
    for i, c in src.items():
        new = dst.get(i, 0) + c
        if new:
            dst[i] = new
        else:
            dst.pop(i, None)


def ref_reduce(ctx, segs, deltas):
    i = 0
    while i < len(deltas) - 1:
        d1, d2 = deltas[i], deltas[i + 1]
        mid = segs[i + 1]
        if d1 == 1 and d2 == -1 and ref_in_emxi(ctx, mid):
            fired = ref_up(ctx, mid)
        elif d1 == -1 and d2 == 1 and not mid.get(0, 0):
            fired = ref_down(ctx, mid)
        else:
            i += 1
            continue
        ref_merge(segs[i], fired)
        ref_merge(segs[i], segs[i + 2])
        del segs[i + 1 : i + 3]
        del deltas[i : i + 2]
        i = max(i - 1, 0)


def ref_is_trivial(ctx, w):
    segs, deltas = _letters_to_alt(w.letters)
    ref_reduce(ctx, segs, deltas)
    return not deltas and not segs[0]


def ref_britton_reduce(ctx, w):
    segs, deltas = _letters_to_alt(w.letters)
    ref_reduce(ctx, segs, deltas)
    return [sorted(s.items()) for s in segs], deltas


def ref_normal_form(ctx, w):
    segs, deltas = _letters_to_alt(w.letters)
    ref_reduce(ctx, segs, deltas)
    m = ctx.spec.m_abs
    for i in range(len(deltas), 0, -1):
        part = dict(segs[i])
        if deltas[i - 1] == 1:
            c = ref_emxi_value(ctx, part) % m
            ref_merge(part, {0: -c})
            push = ref_up(ctx, part)
        else:
            c = part.pop(0, 0)
            push = ref_down(ctx, part)
        segs[i] = {0: c} if c else {}
        ref_merge(segs[i - 1], push)
    return [sorted(s.items()) for s in segs], deltas


def ref_b_i_word(ctx, i):
    m = ctx.spec.m_abs
    word = GroupWord((ALetter(1), BaseLetter(EVec.basis(0, m)), ALetter(-1)))
    for k in range(2, i + 1):
        r = ctx.digits.digit(k - 1)
        tail = (BaseLetter(EVec.basis(0, -r)),) if r else ()
        word = GroupWord((ALetter(1),) + word.letters + tail + (ALetter(-1),))
    return word


# --- comparison harness -----------------------------------------------------------

MODULI = [2, 3, 5, -3]
FINITE_LEN = 4  # digits in each finite rseq parameter


def params(m):
    """int:, rat:, finite rseq: and periodic rseq: parameters valid for m."""
    seqs = ["rseq:1,0,1,1", "rseq:1;0,1"] if abs(m) == 2 else ["rseq:1,0,2,1", "rseq:2,1;0,1,2"]
    return ["int:7", "int:-4", "rat:3/7", "rat:-5/11"] + seqs


CASES = [(m, xi) for m in MODULI for xi in params(m)]


def outcome(fn, *args):
    """The value, or the type and missing index of the error raised."""
    try:
        return "ok", fn(*args)
    except RDigitBudgetExceeded as exc:
        return "budget", exc.index
    except (PinchDomainViolation, ZeroElement) as exc:
        return type(exc).__name__, None


def agree(new, ref):
    """Same value; or both over budget, the table naming the first missing
    index (the reference names whichever index it read first)."""
    if ref[0] == "budget":
        assert new == ("budget", FINITE_LEN + 1)
        assert ref[1] > FINITE_LEN
    else:
        assert new == ref


def random_seg(rng, top):
    seg = {}
    for _ in range(rng.randint(0, 5)):
        i = rng.randint(0, top)
        c = rng.randint(-9, 9)
        if c:
            seg[i] = c
    return seg


def random_word(rng, m, top):
    letters = []
    for _ in range(rng.randint(0, 14)):
        kind = rng.random()
        if kind < 0.5:
            letters.append(ALetter(rng.choice((1, -1))))
        elif kind < 0.8:
            letters.append(BaseLetter(EVec.basis(0, rng.choice((1, -1, m, -m)))))
        else:
            letters.append(BaseLetter(EVec.from_items(random_seg(rng, top))))
    return GroupWord(tuple(letters))


@pytest.mark.parametrize("m,xi", CASES)
def test_lattice_kernels_agree(m, xi):
    rng = random.Random(f"{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    mod = abs(m)
    for _ in range(300):
        seg = random_seg(rng, 7)
        # move a third of the segments into E_{m,xi} through their e_0 part
        val = outcome(ref_emxi_value, ctx, seg)
        if rng.random() < 0.33 and val[0] == "ok":
            ref_merge(seg, {0: -(val[1] % mod)})
        agree(outcome(_emxi_value, ctx, seg), outcome(ref_emxi_value, ctx, seg))
        new_up = outcome(_up, ctx, seg)
        if new_up == ("ok", None):
            new_up = ("PinchDomainViolation", None)
        agree(new_up, outcome(ref_up, ctx, seg))
        agree(outcome(_down, ctx, seg), outcome(ref_down, ctx, seg))
        x = EVec.from_items(seg)
        new_q = outcome(lambda: q_poly(ctx, x).coeffs)
        agree(new_q, outcome(ref_q_poly, ctx, x))
        cap = rng.randint(1, 12)
        agree(outcome(fixed_interval, ctx, x, cap), outcome(ref_fixed_interval, ctx, x, cap))


def long_word(rng, ctx, top):
    """2k-4k letters: a product of conjugates of nested relators [b_i, b]."""
    w = GroupWord(())
    while len(w.letters) < 2000:
        g = parse_word("".join(rng.choices("aAbB", k=20)))
        bi = ref_b_i_word(ctx, rng.randint(1, top))
        w = w * g * commutator(bi, parse_word("b")) * g.inverse()
    return w


@pytest.mark.parametrize("m,xi", CASES)
def test_reduction_agrees(m, xi):
    rng = random.Random(f"w{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    ref_ctx = GroupCtx.make(m, xi)

    def check(w):
        got = outcome(is_trivial, ctx, w)
        agree(got, outcome(ref_is_trivial, ref_ctx, w))
        for new, ref in ((britton_reduce, ref_britton_reduce), (normal_form, ref_normal_form)):
            form = outcome(new, ctx, w)
            if form[0] == "ok":
                form = "ok", ([sorted(s.entries) for s in form[1].segments], list(form[1].deltas))
            agree(form, outcome(ref, ref_ctx, w))
        return got

    trivial_seen = 0
    for n in range(200):
        w = random_word(rng, abs(m), 4)
        if n % 3 == 0:
            # a product of conjugates of commutators [b_i, b] is trivial
            i = rng.randint(1, 6)
            bi = outcome(ref_b_i_word, ref_ctx, i)
            agree(outcome(b_i_word, ctx, i), bi)
            if bi[0] == "ok":
                b = GroupWord((BaseLetter(EVec.basis(0)),))
                w = w * commutator(bi[1], b) * w.inverse()
        trivial_seen += check(w) == ("ok", True)
    assert trivial_seen >= 20
    # long words: the finite rseq parameters have b_i only up to i = 5
    top = FINITE_LEN + 1 if xi.startswith("rseq:") and ";" not in xi else 30
    assert check(long_word(rng, ref_ctx, top)) == ("ok", True)
    for _ in range(2):
        w = long_word(rng, ref_ctx, top) * random_word(rng, abs(m), 4)
        assert 2000 <= len(w.letters) <= 4000
        check(w)


# --- letterwise maps --------------------------------------------------------------
#
# Each word map used to walk the letters itself: the four branches of
# apply_automorphism, the {a, b} substitution behind hom_check,
# word_to_compact, compact_length and compact format_word.  Those walks are
# kept here as the reference for the one letter walk, group._substitute, and
# the one {a, b} read, group._b_exponent.  Letters must agree exactly, not
# just as group elements, and errors must agree in type.


def ref_apply_automorphism(ctx, spec, w):
    out = []
    if isinstance(spec, J):
        for letter in w.letters:
            out.append(letter if isinstance(letter, ALetter) else BaseLetter(-letter.vec))
    elif isinstance(spec, PhiE):
        for letter in w.letters:
            if isinstance(letter, ALetter):
                if letter.exp == 1:
                    out.append(letter)
                    if not spec.e.is_zero:
                        out.append(BaseLetter(spec.e))
                else:
                    if not spec.e.is_zero:
                        out.append(BaseLetter(-spec.e))
                    out.append(letter)
            else:
                out.append(letter)
    elif isinstance(spec, ThetaK):
        if spec.k == 0 or math.gcd(spec.k, ctx.m_abs) != 1:
            raise InvalidAutSpec("k")
        for letter in w.letters:
            if isinstance(letter, ALetter):
                out.append(letter)
            elif not letter.vec.is_zero:
                out.append(BaseLetter(spec.k * letter.vec))
    elif isinstance(spec, EmbedD):
        if spec.d < 1:
            raise InvalidAutSpec("d")
        for letter in w.letters:
            if isinstance(letter, ALetter):
                out.append(letter)
                continue
            for i, c in letter.vec.entries:
                if i != 0:
                    raise InvalidAutSpec("b -> b^d acts on {a, b}-words only")
                out.append(BaseLetter(EVec.basis(0, spec.d * c)))
    else:
        raise InvalidAutSpec("spec")
    return GroupWord(tuple(out))


def ref_substitute(w, image_of_a, image_of_b):
    inv_a = image_of_a.inverse()
    letters = []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            letters.extend((image_of_a if letter.exp == 1 else inv_a).letters)
            continue
        for i, c in letter.vec.entries:
            if i != 0:
                raise ValueError("substitution needs an {a, b}-word")
            piece = image_of_b if c > 0 else image_of_b.inverse()
            for _ in range(abs(c)):
                letters.extend(piece.letters)
    return GroupWord(tuple(letters))


def ref_format_compact(w):
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


def ref_compact_length(w):
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


def ref_word_to_compact(ctx, w):
    out = []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            out.append("a" if letter.exp == 1 else "A")
            continue
        for i, c in letter.vec.entries:
            if i == 0:
                out.append(("b" if c > 0 else "B") * abs(c))
            else:
                piece = ref_b_i_word(ctx, i)
                if c < 0:
                    piece = piece.inverse()
                out.append(ref_format_compact(piece) * abs(c))
    return "".join(out)


def letter_outcome(fn, *args):
    """The letters (or other value) returned, or the type of the error."""
    try:
        value = fn(*args)
    except (BslError, ValueError) as exc:
        return type(exc)
    return value.letters if isinstance(value, GroupWord) else value


def mixed_word(rng, ab_only=False):
    """a^+-1, b^k (k = 0 included), zero payloads and, unless ``ab_only``,
    payloads over e_0..e_3 with one or more indices."""
    letters = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.4:
            letters.append(ALetter(rng.choice((1, -1))))
        elif kind < 0.65 or ab_only:
            letters.append(BaseLetter(EVec.basis(0, rng.randint(-3, 3))))
        elif kind < 0.75:
            letters.append(BaseLetter(EVec.zero()))
        else:
            letters.append(BaseLetter(EVec.from_items(random_seg(rng, 3))))
    return GroupWord(tuple(letters))


LETTERWISE_CASES = [(2, "int:7"), (3, "rat:3/7"), (5, "rseq:2,1;0,1,2"), (-3, "int:-4")]


@pytest.mark.parametrize("m,xi", LETTERWISE_CASES)
def test_letterwise_maps_agree(m, xi):
    rng = random.Random(f"s{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    specs = [
        J(),
        PhiE(EVec.zero()),
        PhiE(EVec.basis(0, -2)),
        PhiE(EVec.from_items({0: 1, 2: -3, 3: 1})),
        ThetaK(1),
        ThetaK(-1),
        ThetaK(2),  # invalid for even m
        ThetaK(7),
        ThetaK(abs(m)),  # invalid
        EmbedD(0),  # invalid
        EmbedD(1),
        EmbedD(3),
    ]
    kinds = set()
    for _ in range(250):
        w = mixed_word(rng, ab_only=rng.random() < 0.4)
        for spec in specs:
            got = letter_outcome(apply_automorphism, ctx, spec, w)
            assert got == letter_outcome(ref_apply_automorphism, ctx, spec, w)
            kinds.add(got if isinstance(got, type) else "ok")
        for new, ref in (
            (lambda: format_word(w, "compact"), lambda: ref_format_compact(w)),
            (lambda: compact_length(w), lambda: ref_compact_length(w)),
            (lambda: word_to_compact(ctx, w), lambda: ref_word_to_compact(ctx, w)),
        ):
            got = letter_outcome(new)
            assert got == letter_outcome(ref)
            kinds.add(got if isinstance(got, type) else "ok")
    assert kinds == {"ok", InvalidAutSpec, ValueError}


@pytest.mark.parametrize("m,xi", LETTERWISE_CASES)
def test_hom_check_substitution_agrees(m, xi, monkeypatch):
    """The images hom_check tests, letter by letter, and its verdict."""
    rng = random.Random(f"h{m}{xi}")
    src = GroupCtx.make(m, xi)
    seen = []

    def recording_is_trivial(ctx, w):
        seen.append(w.letters)
        return is_trivial(ctx, w)

    monkeypatch.setattr(morphisms, "is_trivial", recording_is_trivial)
    b = GroupWord((BaseLetter(EVec.basis(0)),))
    dst = MarkedGroupSpec(m, parse_xi("int:7"))
    verdicts = set()
    for n in range(40):
        image_of_a = mixed_word(rng, ab_only=n % 2 == 0)
        image_of_b = mixed_word(rng, ab_only=n % 4 == 0)
        if n % 5 == 0:  # the identity map passes
            image_of_a, image_of_b = parse_word("a"), b
        seen.clear()
        result = hom_check(src.spec, dst, image_of_a, image_of_b, 4)
        ref_images = [
            ref_substitute(commutator(b, ref_b_i_word(src, i)), image_of_a, image_of_b)
            for i in range(1, len(seen) + 1)
        ]
        assert seen == [r.letters for r in ref_images]
        fails = [not is_trivial(GroupCtx(dst), r) for r in ref_images]
        assert result.ok == (len(seen) == 4 and not any(fails))
        assert result.first_failing == (len(seen) if fails[-1] else None)
        verdicts.add(result.ok)
        # words with payloads beyond e_0, straight through the substitution
        w = mixed_word(rng)
        c_image = {1: image_of_b.letters, -1: image_of_b.inverse().letters}

        def b_power(x):
            c = _b_exponent(x)
            return GroupWord(c_image[1 if c > 0 else -1] * abs(c))

        assert letter_outcome(_substitute, w, image_of_a, b_power) == letter_outcome(
            ref_substitute, w, image_of_a, image_of_b
        )
    assert verdicts == {True, False}
