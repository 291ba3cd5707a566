"""Differential tests: the digit-table kernels against the per-digit ones.

The reference kernels below read ``ctx.digits.digit(i)`` once per
coefficient, as the kernels did before the digit table; the library
kernels index ``ctx.rs``.  Both must agree on every input, including
which inputs run past the available digits.

``ref_reduce`` is the index walk that the one-pass stack reducer
replaced.  Both fire the leftmost pinch first, so their reduced forms are
identical, not just equivalent.

The ``ref_*`` word maps are the letter walks that ``group._substitute``
replaced; their outputs must match letter for letter.

``ref_base_conjugacy_solve`` is the dense integer solve that
``base_conjugacy_solve`` ran for every exponent sum sigma, building its
system over affine expressions (``_expr_add``) with the isomorphism
written out by hand.  For sigma != 0 an exact division in Z wr Z replaced
it, and the conjugator is then unique; for sigma = 0 the library builds
the same rows, in the same order, one column per unknown through the
lattice kernels.  Both must return the same e.  ``ref_wreath_image`` is
the letter-by-letter product in Z wr Z that the lamp-polynomial fold
replaced.

``ref_cyclic_reduce`` rotated one wraparound pinch at a time and let the
reducer fire it; ``ref_are_conjugate`` handed every rotation of matching
shape to the solver, where ``are_conjugate`` first screens rotations by
their lamp polynomials mod X^sigma - 1 (exactly, for sigma = 0).  Cores,
conjugators and witnesses must match letter for letter.

``ref_wreath_trivial_words`` is the depth-first search with incremental
lamp state that the meet-in-the-middle join replaced; both must list the
same words in the same (lexicographic) order.
"""

import math
import random

import pytest

from bslim import (
    BslError,
    InvalidAutSpec,
    PinchDomainViolation,
    RDigitBudgetExceeded,
    WitnessCheckFailed,
    ZeroElement,
    group,
    morphisms,
)
from bslim.group import (
    ALetter,
    BaseLetter,
    GroupWord,
    NormalForm,
    ReducedForm,
    _b_exponent,
    _letters_to_alt,
    _merge_into,
    _reduce_alt,
    _rotation,
    _substitute,
    _wreath_candidate,
    a_power_word,
    are_conjugate,
    base_conjugacy_solve,
    britton_reduce,
    commutator,
    compact_length,
    cyclic_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
    word_from_evec,
)
from bslim.intsolve import solve_integer_system
from bslim.lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    _down,
    _emxi_value,
    _in_emxi,
    _q_inverse,
    _up,
    a_conjugate,
    fixed_interval,
    q_poly,
)
from bslim.madic import MarkedGroupSpec, parse_xi
from bslim.markedspace import _wreath_trivial_words, b_i_word, word_to_compact
from bslim.morphisms import (
    EmbedD,
    J,
    LaurentPoly,
    PhiE,
    ThetaK,
    WreathElem,
    apply_automorphism,
    hom_check,
    wreath_image,
)

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


def ref_alt_to_form(segs, deltas):
    return ReducedForm(tuple(EVec.from_items(seg) for seg in segs), tuple(deltas))


def ref_cyclic_reduce(ctx, w):
    """Absorb the tail, then rotate one wraparound pinch to the right end
    and let _reduce_alt fire it, until none is left."""
    segs, deltas = _letters_to_alt(w.letters)
    _reduce_alt(ctx, segs, deltas)
    conj = []
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
        elif d_last == -1 and d_first == 1 and not lead.get(0, 0):
            pass
        else:
            break
        conj.extend(word_from_evec(EVec.from_items(lead)).letters)
        conj.append(ALetter(d_first))
        segs = segs[1:-1] + [dict(segs[-1])] + [{}]
        _merge_into(segs[-2], lead)
        deltas = deltas[1:] + [d_first]
        _reduce_alt(ctx, segs, deltas)
    return ref_alt_to_form(segs, deltas), GroupWord(tuple(conj))


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
        new_down = outcome(_down, ctx, seg)
        if new_down == ("ok", None):
            new_down = ("PinchDomainViolation", None)
        agree(new_down, outcome(ref_down, ctx, seg))
        x = EVec.from_items(seg)
        new_q = outcome(lambda: q_poly(ctx, x).coeffs)
        agree(new_q, outcome(ref_q_poly, ctx, x))
        if new_q[0] == "ok" and new_q[1]:  # q inverts on its image, and only there
            assert _q_inverse(ctx, new_q[1]) == x
            off_image = outcome(_q_inverse, ctx, new_q[1] + (1,))  # q(x) + X^(deg+1)
            assert off_image in (("ok", None), ("budget", FINITE_LEN + 1))
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
def test_reduction_agrees(m, xi, monkeypatch):
    """Also: every segment dict that _reduce_alt, _normalize_alt and
    cyclic_reduce hand to _alt_to_form has nonnegative keys and no zero
    values, so the EVecs it builds from sorted items are canonical."""
    rng = random.Random(f"w{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    ref_ctx = GroupCtx.make(m, xi)
    alt_to_form, forms_built = group._alt_to_form, []

    def checked_alt_to_form(segs, deltas, cls=ReducedForm):
        for seg in segs:
            assert all(i >= 0 and c for i, c in seg.items()), seg
        forms_built.append(cls)
        return alt_to_form(segs, deltas, cls)

    monkeypatch.setattr(group, "_alt_to_form", checked_alt_to_form)

    def check(w):
        got = outcome(is_trivial, ctx, w)
        agree(got, outcome(ref_is_trivial, ref_ctx, w))
        for new, ref in ((britton_reduce, ref_britton_reduce), (normal_form, ref_normal_form)):
            form = outcome(new, ctx, w)
            if form[0] == "ok":
                form = "ok", ([sorted(s.entries) for s in form[1].segments], list(form[1].deltas))
            agree(form, outcome(ref, ref_ctx, w))
        agree(outcome(cyclic_reduce, ctx, w), outcome(ref_cyclic_reduce, ref_ctx, w))
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
    assert {ReducedForm, NormalForm} <= set(forms_built)


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


# --- conjugacy base solver --------------------------------------------------------


def _expr_add(dst: dict[int, int], src: dict[int, int], k: int = 1) -> None:
    if not k:
        return
    for var, c in src.items():
        new = dst.get(var, 0) + k * c
        if new:
            dst[var] = new
        elif var in dst:
            del dst[var]


def ref_base_conjugacy_solve(ctx, u, v):
    """The dense solve: propagate e through the stable letters, one linear
    equation per E_1 membership, one congruence per E_{m,xi} membership,
    support capped at (max support index) + t-length + 1."""
    l = u.t_length
    m = ctx.m_abs
    xs = [s.to_dict() for s in u.segments]
    ys = [s.to_dict() for s in v.segments]
    maxidx = max(u.max_support_index(), v.max_support_index(), 0)
    n_e = maxidx + l + 2
    nvars = n_e
    equations = []
    d = {j: {j: 1} for j in range(n_e)}
    for idx, c in ys[0].items():
        _expr_add(d.setdefault(idx, {}), {-1: c})
    for idx, c in xs[0].items():
        _expr_add(d.setdefault(idx, {}), {-1: -c})
    for i in range(1, l + 1):
        if u.deltas[i - 1] == 1:
            if d.get(0):
                equations.append(d[0])
            e0, nd = {}, {}
            for j, expr in d.items():
                if j == 1:
                    _expr_add(e0, expr, m)
                elif j >= 2:
                    _expr_add(e0, expr, -ctx.digits.digit(j - 1))
                    nd[j - 1] = expr
            if e0:
                nd[0] = e0
            d = nd
        else:
            cong = {}
            for j, expr in d.items():
                _expr_add(cong, expr, ctx.digits.digit(j) if j else 1)
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


def syllable_word(rng, m, deltas):
    """One syllable a^d x per d in ``deltas``, x a power of b or, now and
    then, a payload over e_0..e_2."""
    letters = []
    for d in deltas:
        letters.append(ALetter(d))
        if rng.random() < 0.2:
            letters.append(BaseLetter(EVec.from_items(random_seg(rng, 2))))
        else:
            letters.append(BaseLetter(EVec.basis(0, rng.choice((1, -1, 2, m)))))
    return GroupWord(tuple(letters))


B_WORD = GroupWord((BaseLetter(EVec.basis(0)),))


def conjugate_pairs(rng, m, count):
    """(v, w) with v = g w g^-1, times b half the time: w has one syllable
    per stable letter, and its exponent sum sigma is of either sign (mixed
    or constant signs) or zero."""
    for n in range(count):
        if n % 3:  # sigma of either sign, mixed or constant signs
            signs = rng.choice(((1,), (-1,), (1, 1, -1), (-1, -1, 1)))
            deltas = [rng.choice(signs) for _ in range(rng.randint(1, 6))]
        else:  # sigma = 0
            deltas = [1, -1] * rng.randint(1, 3)
            rng.shuffle(deltas)
        w = syllable_word(rng, m, deltas)
        g = random_word(rng, m, 2)
        v = g * w * g.inverse()
        if rng.random() < 0.5:
            v = v * B_WORD
        yield v, w


def rotation_pairs(ctx, rng, m, count):
    """The (u, v) pairs are_conjugate would hand the solver without its
    residue screen: the cores of g w g^-1 (times b half the time) and of
    w, over every rotation of the second with matching shape."""
    for v, w in conjugate_pairs(rng, m, count):
        cv, cw = cyclic_reduce(ctx, v)[0], cyclic_reduce(ctx, w)[0]
        if cv.t_length != cw.t_length or not cv.t_length:
            continue
        for j in range(cw.t_length):
            rot = _rotation(cw, j)[0]
            if rot.deltas == cv.deltas:
                yield cv, rot


def perturbed_pairs(ctx, rng, m, count):
    """Britton-reduced forms u, v of equal shape with sigma != 0: v random,
    u = v plus random segments, its e_0 part set so the lamp polynomials
    agree at X = 1.  The division then often goes through, and the
    back-substitution and the word-problem check have to decide."""
    for _ in range(count):
        deltas = [rng.choice((1, -1)) for _ in range(rng.randint(1, 5))]
        v = britton_reduce(ctx, syllable_word(rng, m, deltas))
        if not v.sigma:
            continue
        segs = [seg + EVec.from_items(random_seg(rng, 2)) for seg in v.segments]
        u = ReducedForm(tuple(segs), v.deltas)
        gap = sum(wreath_image(ctx, u.to_word()).poly.coeffs) - sum(
            wreath_image(ctx, v.to_word()).poly.coeffs
        )
        u = ReducedForm((segs[0] - EVec.basis(0, gap),) + u.segments[1:], u.deltas)
        if britton_reduce(ctx, u.to_word()).deltas == u.deltas:
            yield u, v


SOLVE_CASES = [(m, xi) for m in MODULI for xi in ("int:7", "rat:-5/11", params(m)[-1])]


@pytest.mark.parametrize("m,xi", SOLVE_CASES)
def test_base_conjugacy_solve_agrees(m, xi):
    """The same e (or None) as the dense solve; for sigma != 0, a division
    candidate only when the lamp equation holds."""
    rng = random.Random(f"c{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    seen, candidates = set(), set()
    pairs = list(rotation_pairs(ctx, rng, m, 80)) + list(perturbed_pairs(ctx, rng, m, 100))
    for u, v in pairs:
        e = base_conjugacy_solve(ctx, u, v)
        ref = ref_base_conjugacy_solve(ctx, u, v)
        assert e == ref
        if u.sigma:
            cand = _wreath_candidate(ctx, u, v)
            if ref is not None:
                assert cand == ref
            if cand is not None:
                conj = word_from_evec(cand) * v.to_word() * word_from_evec(-cand)
                assert wreath_image(ctx, conj) == wreath_image(ctx, u.to_word())
            candidates.add((cand is not None, ref is not None))
        seen.add(((u.sigma > 0) - (u.sigma < 0), ref is not None))
    assert seen == {(sign, solvable) for sign in (1, 0, -1) for solvable in (True, False)}
    # no candidate, a candidate the word problem rejects, a conjugator
    assert candidates == {(False, False), (True, False), (True, True)}


def ref_are_conjugate(ctx, v, w):
    """Every rotation of w's core with the shape of v's core goes to the
    solver, over the cores of ref_cyclic_reduce."""
    cv, p = ref_cyclic_reduce(ctx, v)
    cw, q = ref_cyclic_reduce(ctx, w)
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


def base_pairs(rng, m, count):
    """(v, w) with w a base element and v = g w g^-1, times b half the
    time: both cores have t-length 0."""
    for _ in range(count):
        w = GroupWord((BaseLetter(EVec.from_items(random_seg(rng, 3))),))
        g = random_word(rng, m, 2)
        v = g * w * g.inverse()
        yield (v * B_WORD if rng.random() < 0.5 else v), w


def unrelated_pairs(rng, m, count):
    """Two independent syllable words: t-length and sigma may differ."""
    for _ in range(count):
        v, w = (
            syllable_word(rng, m, [rng.choice((1, -1)) for _ in range(rng.randint(1, 5))])
            for _ in range(2)
        )
        yield v, w


@pytest.mark.parametrize("m,xi", SOLVE_CASES)
def test_are_conjugate_agrees(m, xi, monkeypatch):
    """The same cores, conjugators and witnesses as the unscreened rotation
    loop; and every rotation of matching shape that the lamp screen keeps
    from the solver has no division candidate (sigma != 0) or no solution
    of the dense solve (sigma = 0)."""
    rng = random.Random(f"k{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    rotation, tried = group._rotation, []

    def recording_rotation(core, j):
        tried.append(j)
        return rotation(core, j)

    monkeypatch.setattr(group, "_rotation", recording_rotation)
    pairs = [
        *conjugate_pairs(rng, m, 60),
        *base_pairs(rng, m, 20),
        *unrelated_pairs(rng, m, 20),
    ]
    seen, screened = set(), {0: 0, 1: 0}
    for v, w in pairs:
        (cv, p), (cw, q) = cyclic_reduce(ctx, v), cyclic_reduce(ctx, w)
        assert ((cv, p.letters), (cw, q.letters)) == tuple(
            (core, conj.letters) for core, conj in (ref_cyclic_reduce(ctx, x) for x in (v, w))
        )
        tried.clear()
        got = are_conjugate(ctx, v, w)
        ref = ref_are_conjugate(ctx, v, w)
        assert (got and got.letters) == (ref and ref.letters)
        kind = (cv.sigma > 0) - (cv.sigma < 0) if cv.t_length else "t0"
        seen.add((kind, got is not None))
        if not cv.t_length or (cv.t_length, cv.sigma) != (cw.t_length, cw.sigma):
            continue
        stop = tried[-1] if got is not None else cw.t_length
        for j in range(stop):
            rot = rotation(cw, j)[0]
            if rot.deltas == cv.deltas and j not in tried:
                screened[bool(cv.sigma)] += 1
                if cv.sigma:
                    assert _wreath_candidate(ctx, cv, rot) is None
                else:
                    assert ref_base_conjugacy_solve(ctx, cv, rot) is None
    assert seen == {(kind, found) for kind in (1, 0, -1, "t0") for found in (True, False)}
    assert all(screened.values())


@pytest.mark.parametrize("m,xi", SOLVE_CASES)
def test_rotation_is_the_conjugated_core(m, xi):
    """For every j, g_j^-1 core g_j and the j-th rotation of a cyclically
    reduced core are the same element, with the deltas rotated by j."""
    rng = random.Random(f"r{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    cases = 0
    for v, w in conjugate_pairs(rng, m, 60):
        for core in (cyclic_reduce(ctx, x)[0] for x in (v, w)):
            for j in range(core.t_length):
                rot, gj = _rotation(core, j)
                assert rot.deltas == core.deltas[j:] + core.deltas[:j]
                conj = gj.inverse() * core.to_word() * gj
                assert normal_form(ctx, conj) == normal_form(ctx, rot.to_word())
                cases += 1
    assert cases >= 100


def ref_wreath_image(ctx, w):
    """The letter-by-letter product in Z wr Z."""
    steps = {1: WreathElem(LaurentPoly(), 1), -1: WreathElem(LaurentPoly(), -1)}
    acc = WreathElem()
    for letter in w.letters:
        if isinstance(letter, ALetter):
            acc = acc * steps[letter.exp]
        else:
            acc = acc * WreathElem(LaurentPoly.from_int_poly(q_poly(ctx, letter.vec)), 0)
    return acc


@pytest.mark.parametrize("m,xi", LETTERWISE_CASES)
def test_wreath_image_agrees(m, xi):
    rng = random.Random(f"z{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    for _ in range(300):
        w = mixed_word(rng)
        assert wreath_image(ctx, w) == ref_wreath_image(ctx, w)


_INV = (1, 0, 3, 2)  # inverse letter indices for (a, A, b, B)


def ref_wreath_trivial_words(length: int) -> list[tuple[int, ...]]:
    """Freely and cyclically reduced words of this exact length starting
    with 'a' whose wreath image is trivial, via depth-first search with an
    incremental lamp-configuration state."""
    if length < 2:
        return []
    out: list[tuple[int, ...]] = []
    word = [0] * length
    lamps: dict[int, int] = {}
    shift = 0

    def push(letter: int) -> int:
        nonlocal shift
        if letter == 0:
            shift += 1
        elif letter == 1:
            shift -= 1
        else:
            c = lamps.get(shift, 0) + (1 if letter == 2 else -1)
            if c:
                lamps[shift] = c
            else:
                del lamps[shift]
        return letter

    def pop(letter: int) -> None:
        nonlocal shift
        if letter == 0:
            shift -= 1
        elif letter == 1:
            shift += 1
        else:
            c = lamps.get(shift, 0) - (1 if letter == 2 else -1)
            if c:
                lamps[shift] = c
            else:
                lamps.pop(shift, None)

    def rec(pos: int) -> None:
        if pos == length:
            if not lamps and shift == 0 and word[-1] != 1:
                out.append(tuple(word))
            return
        prev_inv = _INV[word[pos - 1]]
        remaining = length - pos
        # prune: every a must eventually return and lamps must clear
        if abs(shift) > remaining or len(lamps) > remaining:
            return
        for letter in range(4):
            if letter == prev_inv:
                continue
            word[pos] = letter
            push(letter)
            rec(pos + 1)
            pop(letter)

    word[0] = 0
    push(0)
    rec(1)
    pop(0)
    return out


@pytest.mark.parametrize("length", range(17))
def test_wreath_trivial_words_agree(length):
    assert _wreath_trivial_words(length) == ref_wreath_trivial_words(length)
