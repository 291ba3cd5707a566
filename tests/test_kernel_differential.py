"""Differential tests: the digit-table kernels against the per-digit ones.

The reference kernels below read ``ctx.digit(i)`` once per
coefficient, as the kernels did before the digit table; the library
kernels index ``ctx.rs``.  Both must agree on every input, including
which inputs run past the available digits.  ``_up_split`` folded the
value kernel into the up-shift: its remainder must be ``ref_emxi_value``
mod m and its shift ``ref_up`` of the representative, which together pin
the full value.

``ref_reduce`` is the index walk that the one-pass stack reducer
replaced.  Both fire the leftmost pinch first, so their reduced forms are
identical, not just equivalent.  ``ref_normal_form`` pushes the subgroup
parts through the stable letters one dict at a time, as the pass did
before ``lattice._normal_segments`` carried them in a dense band below
``lattice._BAND`` and a sparse tail from it up: on carries with and
without a tail, with entries that cross the boundary both ways,
unbudgeted and under budgets, both must give the same forms, or the same
missing index, and grow the digit table as far.  ``ref_letters_to_alt``
is the reader that merged every letter's entries into its segment dict, and
``ref_letters_to_alt_e0`` the one that summed each segment's e_0 part in
an int; ``ref_reduce_alt`` then re-stacked its segments.  One pass from
the letters onto the stack, ``_reduce_letters``, replaced those two: it
must give the same segment dicts and deltas, or the same error and index
under digit budgets, and grow the digit table as far.  The other
``ref_*`` reductions start from the oldest reader.  ``ref_parse_compact``
is the per-character scan that compact parsing replaced: letters, error
messages and error offsets must all match.

The ``ref_*`` word maps are the letter walks that ``group._substitute``
replaced; their outputs must match letter for letter.

``ref_base_conjugacy_solve`` is the dense integer solve that
``base_conjugacy_solve`` ran for every exponent sum sigma, building its
system over affine expressions (``_expr_add``) with the isomorphism
written out by hand, and ``solve_integer_system`` is its solver.  For
sigma != 0 an exact division in Z wr Z replaced it, and the conjugator is
then unique: both must return the same e.  For sigma = 0 a lift along
the pinch chain replaced it; the conjugators form a coset and the lift
may pick another point of it, so both must give the same verdict, and
every e the lift returns must pass the word problem.
``ref_wreath_image`` is the letter-by-letter product in Z wr Z that the
lamp-polynomial fold replaced, and ``ref_lamp_fold`` the fold of one
``ref_q_poly`` per segment at its shift that ``lattice.lamp_fold``, one
dense accumulator, replaced: the same polynomial, or the same missing
index, and the digit table as long.

``ref_cyclic_reduce`` rotated one wraparound pinch at a time and let the
reducer fire it; ``ref_are_conjugate`` handed every rotation of matching
shape to the solver, where ``are_conjugate`` first screens rotations by
their lamp polynomials mod X^sigma - 1 (exactly, for sigma = 0).  Cores,
conjugators and witnesses must match letter for letter.  For cores of
t-length 0 it reads the exponent off the degrees of q, where
``are_conjugate`` reads it off the top indices, without a digit.

``ref_wreath_trivial_words`` is the depth-first search with incremental
lamp state that the meet-in-the-middle join replaced.  Kept to the words
that ``ref_is_canonical`` finds least among every rotation of the word and
of its inverse, it must list the join's words in the same (lexicographic)
order.

``ref_bs_is_trivial`` is the classical BS(p, q) reducer that one stack
pass replaced: it ran on run-length blocks of stable letters, backtracked
after each pinch and deleted blocks from the middle of its lists.  Both
must give the same verdict.  ``ref_parse_bs_word`` is the per-character
scanner that one walk over ``bsclassic.BS_TOKEN`` replaced: equal words,
or the same error message and offset.  ``ref_first_digit_difference`` is the digit
scan that the congruence law replaced for exact unit pairs, and
``ref_xi_from_prefix`` the lift search that the fixed-point pass for
1/xi replaced; each must give the same index or residue.
``ref_first_difference`` is ``madic._first_difference`` as it was before
one valuation law ended every pair with an exact parameter: a rational
against a periodic sequence that passed its s-state check
(``ref_s_returns``) was scanned to the first difference.  On pairs of
every kind and under budgets the law must give the scan's index, or stop
at the same missing digit, except that it answers where the scan ran
into a budget past the horizon.

``_streams_equal_exact`` and ``_first_digit_difference`` are the two
comparisons, each branching on the parameter kinds, that
``madic._first_difference`` replaced; ``ref_isomorphic`` and
``ref_distance_bounds`` answer through them.  On pairs of every kind,
``isomorphic`` and ``distance_bounds`` must give the same value, or the
same error type and message.  ``ref_periodic_first_difference`` scans two
periodic streams to both preperiods plus the period lcm, the horizon that
the Fine-Wilf bound p + q - gcd(p, q) replaced; both must give the same
index, or None.

``ref_w_word``, ``ref_win_e_word``, ``ref_v_k_word``, ``ref_word_from_evec``,
``ref_to_word`` and ``ref_cyclic_reduce_pass`` are the builders that
allocated a new letter for every stable letter and every payload; the
builders now reuse ``group``'s shared letters (``A_POS``, ``A_NEG``,
``_B_POS``, ``_B_NEG``).  Their words must match letter for letter,
``recover_parameters`` must ask its oracle the same words, and no built
word may hold a copy of a shared letter.
"""

import functools
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

import pytest

from bslim import (
    BslError,
    GcdMismatch,
    InvalidAutSpec,
    ParseError,
    PinchDomainViolation,
    RDigitBudgetExceeded,
    SameGroup,
    UndecidableSpec,
    WitnessCheckFailed,
    ZeroElement,
    group,
    morphisms,
)
from bslim.bsclassic import BSSpec, bs_is_trivial, parse_bs_word
from bslim.group import (
    _B_NEG,
    _B_POS,
    A_NEG,
    A_POS,
    ALetter,
    BaseLetter,
    GroupWord,
    ReducedForm,
    _alt_to_form,
    _b_exponent,
    _evec,
    _merge_into,
    _reduce_letters,
    _rotation,
    _rotation_screen,
    _substitute,
    _wreath_candidate,
    a_power_word,
    are_conjugate,
    base_conjugacy_solve,
    britton_reduce,
    commutator,
    cyclic_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
    word_from_evec,
)
from bslim.lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    _BAND,
    _down,
    _in_emxi,
    _q_inverse,
    _up,
    _up_split,
    a_conjugate,
    fixed_interval,
    lamp_fold,
    q_poly,
)
from bslim.madic import (
    MarkedGroupSpec,
    RDigitStream,
    XiRat,
    XiSeq,
    _first_difference,
    _parse_decimal,
    _xi_fraction,
    parse_xi,
    xi_from_prefix,
)
from bslim.markedspace import (
    DistanceBounds,
    _wreath_trivial_words,
    b_i_word,
    distance_bounds,
    isomorphic,
    recover_parameters,
    v_k_word,
    w_word,
    win_e_word,
    word_to_compact,
)
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

from test_group import compact_length

# --- reference kernels ----------------------------------------------------------


def ref_emxi_value(ctx, seg):
    return sum(c * (ctx.digit(i) if i else 1) for i, c in seg.items())


def ref_in_emxi(ctx, seg):
    return ref_emxi_value(ctx, seg) % ctx.spec.m_abs == 0


def ref_up(ctx, seg):
    k0, out = 0, {}
    for i, c in seg.items():
        if i == 0:
            k0 += c
        else:
            k0 += c * ctx.digit(i)
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
            c0 -= c * ctx.digit(i - 1)
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
            p = [-ctx.digit(built)] + p
        for e, pc in enumerate(p):
            out[e + 1] += c * pc
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out) if any(out) else ()


def ref_lamp_fold(ctx, segs, deltas):
    """The fold that ``lattice.lamp_fold`` replaced: each segment's image
    on its own, by ``ref_q_poly``, added in at its shift."""
    shifts = accumulate(deltas, initial=0)
    parts = [(s, ref_q_poly(ctx, seg)) for s, seg in zip(shifts, segs)]
    lo = min((s for s, p in parts if p), default=0)
    lamps = [0] * max((s + len(p) - lo for s, p in parts if p), default=0)
    for s, p in parts:
        for k, c in enumerate(p, s - lo):
            lamps[k] += c
    return LaurentPoly(lo, lamps)


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


def ref_letters_to_alt_e0(letters):
    """The alternating form as ``group._letters_to_alt`` read it before one
    pass from the letters replaced it: each segment's e_0 part summed in
    ``e0`` and stored once, at its close, the shared b and B letters
    recognised by identity."""
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


def ref_reduce_alt(ctx, segs, deltas):
    """The stack pass over a finished alternating form, as ``group._reduce_alt``
    ran it after ``_letters_to_alt`` until one pass from the letters replaced
    both."""
    out_segs, out_deltas = [segs[0]], []
    for d, right in zip(deltas, segs[1:]):
        if out_deltas and out_deltas[-1] != d:
            mid = out_segs[-1]
            fired = _up(ctx, mid) if d == -1 else _down(ctx, mid)
            if fired is not None:
                out_deltas.pop()
                out_segs.pop()
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


def ref_reduce_letters(ctx, letters):
    segs, deltas = ref_letters_to_alt_e0(letters)
    ref_reduce_alt(ctx, segs, deltas)
    return segs, deltas


def ref_letters_to_alt(letters):
    segs, deltas = [{}], []
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


def ref_is_trivial(ctx, w):
    segs, deltas = ref_letters_to_alt(w.letters)
    ref_reduce(ctx, segs, deltas)
    return not deltas and not segs[0]


def ref_britton_reduce(ctx, w):
    segs, deltas = ref_letters_to_alt(w.letters)
    ref_reduce(ctx, segs, deltas)
    return [sorted(s.items()) for s in segs], deltas


def ref_normal_form(ctx, w):
    segs, deltas = ref_letters_to_alt(w.letters)
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
    and let ref_reduce_alt fire it, until none is left."""
    segs, deltas = ref_letters_to_alt(w.letters)
    ref_reduce_alt(ctx, segs, deltas)
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
        ref_reduce_alt(ctx, segs, deltas)
    return ref_alt_to_form(segs, deltas), GroupWord(tuple(conj))


def ref_b_i_word(ctx, i):
    m = ctx.spec.m_abs
    word = GroupWord((ALetter(1), BaseLetter(EVec.basis(0, m)), ALetter(-1)))
    for k in range(2, i + 1):
        r = ctx.digit(k - 1)
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
        ref_split = outcome(ref_emxi_value, ctx, seg)
        if ref_split[0] == "ok":
            c, rep = ref_split[1] % mod, dict(seg)
            ref_merge(rep, {0: -c})
            ref_split = "ok", (c, ref_up(ctx, rep))
        agree(outcome(_up_split, ctx, seg), ref_split)
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


def lamp_form(rng):
    """(segs, deltas): t-length up to 64, often with sigma = 0,
    extended segments up to index 40 with empty ones and entries that
    cancel, and a closing segment that cancels the first one's lamps when
    sigma = 0."""
    l = rng.choice((0, rng.randint(1, 8), rng.randint(1, 64)))
    deltas = [rng.choice((1, -1)) for _ in range(l)]
    if l % 2 == 0 and rng.random() < 0.5:
        deltas = [1] * (l // 2) + [-1] * (l // 2)
        rng.shuffle(deltas)
    segs = []
    for _ in range(l + 1):
        entries = []
        if rng.random() < 0.7:
            top = rng.choice((1, 2, 4, 12, 40))
            for _ in range(rng.randint(1, 4)):
                i, c = rng.randint(0, top), rng.randint(-9, 9)
                entries += [(i, c), (i, -c)] if rng.random() < 0.2 else [(i, c)]
        segs.append(EVec.from_items(entries))
    if len(segs) > 1 and not sum(deltas) and rng.random() < 0.3:
        segs[-1] = -segs[0]
    return segs, deltas


@pytest.mark.parametrize("m,xi", CASES)
def test_lamp_fold_agrees(m, xi):
    """The one-pass lamp kernel against the fold of per-segment images at
    their shifts: the same polynomial, or the same missing index, and the
    digit table as long, from fresh contexts unbudgeted and under budgets;
    ``segs`` may be a one-shot iterator."""
    rng = random.Random(f"lf{m}{xi}")
    tally = Counter()
    for _ in range(150):
        segs, deltas = lamp_form(rng)
        for budget in (None, 1, 5):
            ctx, ref_ctx = GroupCtx.make(m, xi, budget), GroupCtx.make(m, xi, budget)
            got = outcome(lamp_fold, ctx, iter(segs) if rng.random() < 0.5 else segs, deltas)
            assert got == outcome(ref_lamp_fold, ref_ctx, segs, deltas), (segs, deltas)
            assert len(ctx.rs) == len(ref_ctx.rs)
            tally["zero" if got == ("ok", LaurentPoly()) else got[0]] += 1
            tally["negative"] += got[0] == "ok" and got[1].offset < 0
    assert all(tally[k] for k in ("ok", "budget", "zero", "negative")), tally


@pytest.mark.parametrize("m,xi", CASES)
def test_q_inverse_reads_the_digits_q_reads(m, xi):
    """Inverting q(x) on a fresh context grows the digit table as far as
    computing q(x) did: to the top index less one, so no digit at all for
    x in Z e_0 + Z e_1."""
    rng = random.Random(f"qi{m}{xi}")
    no_digit = 0
    for _ in range(100):
        x = EVec.from_items(random_seg(rng, rng.choice((1, 3, 7))))
        ctx, inv_ctx = GroupCtx.make(m, xi), GroupCtx.make(m, xi)
        got = outcome(q_poly, ctx, x)
        if got[0] == "ok":
            assert _q_inverse(inv_ctx, got[1].coeffs) == x
            assert len(inv_ctx.rs) == len(ctx.rs)
            no_digit += len(ctx.rs) == 1
    assert no_digit > 10, no_digit


def long_word(rng, ctx, top):
    """2k-4k letters: a product of conjugates of nested relators [b_i, b]."""
    w = GroupWord(())
    while len(w.letters) < 2000:
        g = parse_word("".join(rng.choices("aAbB", k=20)))
        bi = ref_b_i_word(ctx, rng.randint(1, top))
        w = w * g * commutator(bi, parse_word("b")) * g.inverse()
    return w


def tail_word(rng, top=_BAND + 300):
    """Runs of one stable letter, 60 to 320 long, each after a b so that no
    pinch forms at a turn, with a few payloads e_0..e_6 inside and one e_K,
    65 <= K <= ``top``, at the end, on either side of ``lattice._BAND``.
    The normal-form carry takes e_K into its band below that bound and into
    its tail from it up; a run of a^-1 that is long enough brings a tail
    entry across into the band and on to e_0, and a run of a pushes the
    band's top entries up across into the tail.  Half the runs that leave
    e_K at index 65 or more, on either side of the bound, start with a twin
    payload there, which adds to it or cancels it."""
    letters = []
    for _ in range(rng.randint(1, 4)):
        d, n = rng.choice((A_POS, A_NEG)), rng.randint(60, 320)
        k, c = rng.randint(65, top), rng.choice((1, -1, 3))
        twin = k + n if d is A_POS else k - n  # where the run's shifts leave e_k
        letters.append(_B_POS)
        if twin >= 65 and rng.random() < 0.5:
            letters.append(BaseLetter(EVec.basis(twin, rng.choice((c, -c)))))
        for _ in range(n):
            letters.append(d)
            if rng.random() < 0.02:
                letters.append(BaseLetter(EVec.basis(rng.randint(0, 6), rng.choice((1, -1, 2)))))
        letters.append(BaseLetter(EVec.basis(k, c)))
    return GroupWord(tuple(letters))


def gap_words():
    """Words whose carry brings an entry down through a^-1 to index j,
    where a segment entry e_j then lands: e_j (a^-1)^68 e_{j+68}, bare and
    after one more a^-1.  At j = 31, 32 and 33 the entry stays in the
    band; at ``lattice._BAND`` - 1 it crosses from the tail into the band
    on the last shift, and at ``_BAND`` and ``_BAND`` + 1 it stays in the
    tail, where e_j merges with it."""
    words = []
    for j in (31, 32, 33, _BAND - 1, _BAND, _BAND + 1):
        core = (BaseLetter(EVec.basis(j)),) + (A_NEG,) * 68 + (BaseLetter(EVec.basis(j + 68)),)
        words += [GroupWord(core), GroupWord((A_NEG,) + core)]
    return words


def assert_canonical(form):
    """Each segment's entries strictly increase in index, from 0 up, and
    carry nonzero coefficients."""
    for seg in form.segments:
        indices = [i for i, _ in seg.entries]
        assert all(c for _, c in seg.entries), seg
        assert indices == sorted(set(indices)) and all(i >= 0 for i in indices), seg


@pytest.mark.parametrize("m,xi", CASES)
def test_reduction_agrees(m, xi, monkeypatch):
    """Also: every segment dict that _reduce_letters and cyclic_reduce hand
    to _alt_to_form has nonnegative keys and no zero values, so the EVecs it
    builds from sorted items are canonical; and every NormalForm, whose
    segments the carry kernel builds, holds canonical EVecs too.  The
    comparison with the reference sorts the entries, so it cannot see an
    unsorted EVec."""
    rng = random.Random(f"w{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    ref_ctx = GroupCtx.make(m, xi)
    alt_to_form, checked = group._alt_to_form, Counter()

    def checked_alt_to_form(segs, deltas):
        for seg in segs:
            assert all(i >= 0 and c for i, c in seg.items()), seg
        checked["alt_to_form"] += 1
        return alt_to_form(segs, deltas)

    monkeypatch.setattr(group, "_alt_to_form", checked_alt_to_form)

    def check(w):
        got = outcome(is_trivial, ctx, w)
        agree(got, outcome(ref_is_trivial, ref_ctx, w))
        for new, ref in ((britton_reduce, ref_britton_reduce), (normal_form, ref_normal_form)):
            form = outcome(new, ctx, w)
            if form[0] == "ok":
                if new is normal_form:
                    assert_canonical(form[1])
                    checked["normal_form"] += 1
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
    # carries with a tail, unbudgeted and under budgets: the same forms, or
    # the same missing index, and the digit table as long.  In the word
    # after the tail words the carry's e_1 cancels, after which the carry
    # reads no digit; the gap words meet the band's edge.
    words = [tail_word(rng) for _ in range(4)]
    words.append(GroupWord((A_POS, BaseLetter(EVec.basis(1, -1)), A_POS,
                            BaseLetter(EVec.basis(0, abs(m))))))
    words += gap_words()
    tally = Counter()
    for budget in (None, 150, 400):
        for w in words:
            tail_ctx, tail_ref_ctx = GroupCtx.make(m, xi, budget), GroupCtx.make(m, xi, budget)
            form = outcome(normal_form, tail_ctx, w)
            if form[0] == "ok":
                assert_canonical(form[1])
                checked["normal_form"] += 1
                form = "ok", ([sorted(s.entries) for s in form[1].segments], list(form[1].deltas))
            assert form == outcome(ref_normal_form, tail_ref_ctx, w)
            assert len(tail_ctx.rs) == len(tail_ref_ctx.rs)
            tally[form[0]] += 1
    finite = xi.startswith("rseq:") and ";" not in xi  # e_5 is past its digits
    assert tally["budget"] and (tally["ok"] or finite), tally
    assert checked["alt_to_form"] and checked["normal_form"], checked


# --- compact words and the alternating form ----------------------------------------


def ref_parse_compact(text):
    letters = []
    for offset, ch in enumerate(text):
        letter = group._COMPACT.get(ch)
        if letter is None:
            raise ParseError(f"invalid symbol {ch!r}", offset)
        letters.append(letter)
    return GroupWord(tuple(letters))


def compact_strings(max_len):
    """Every string over {a, A, b, B} of length at most ``max_len``."""
    for n in range(max_len + 1):
        yield from map("".join, product("aAbB", repeat=n))


def test_compact_parse_agrees():
    """The same shared letter objects, letter for letter, so every word a
    test builds from compact text (``long_word`` included) is unchanged."""
    count = 0
    for text in compact_strings(7):
        new, ref = parse_word(text).letters, ref_parse_compact(text).letters
        assert len(new) == len(ref) and all(x is y for x, y in zip(new, ref)), text
        count += 1
    assert count == sum(4**n for n in range(8))
    assert parse_word("") == ref_parse_compact("") == GroupWord(())


@pytest.mark.parametrize(
    "text",
    ["xab", "abXab", "abAB?", "ab?c!B", "a?b?", "abé", "éab", "a b", " ab", "ab\t",
     "a\nb", "ab\n", "ab\x00", "aA0bB", "abab\u212a"],
)
def test_compact_parse_error_agrees(text):
    """The first symbol outside {a, A, b, B} is reported, with the same
    message and offset as the per-character scan."""
    with pytest.raises(ParseError) as ref:
        ref_parse_compact(text)
    with pytest.raises(ParseError) as new:
        parse_word(text)
    assert (str(new.value), new.value.offset) == (str(ref.value), ref.value.offset)


def alt_mix_word(rng):
    """b/B runs between fresh a^+-1 letters, fresh k e_0 letters (k = 0
    included) and base letters over e_0..e_3, so that e_0 parts cancel
    across letter kinds and e_i entries cancel to zero."""
    letters = []
    for _ in range(rng.randint(0, 16)):
        kind = rng.random()
        if kind < 0.3:
            letters += parse_word(rng.choice("bB") * rng.randint(1, 3)).letters
        elif kind < 0.45:
            letters.append(ALetter(rng.choice((1, -1))))
        elif kind < 0.6:
            letters.append(BaseLetter(EVec.basis(0, rng.randint(-3, 3))))
        elif kind < 0.8:
            tokens = [f"e{rng.randint(0, 3)}^{rng.choice((-2, -1, 1, 2))}" for _ in range(2)]
            letters += parse_word(" ".join(tokens), "extended").letters
        else:
            entries = {i: rng.choice((-2, -1, 1, 2)) for i in rng.sample(range(4), 2)}
            letters.append(BaseLetter(EVec.from_items(entries)))
    return tuple(letters)


def test_letters_to_alt_agrees():
    """The reader that summed e_0 in an int, which the one-pass reference
    starts from: equal segment dicts (no zero values) and deltas, against
    the reader that merged every entry into the segment dict."""
    for text in compact_strings(7):
        letters = parse_word(text).letters
        assert ref_letters_to_alt_e0(letters) == ref_letters_to_alt(letters), text
    x = parse_word("e0^-2 e3", "extended").letters
    b, bb = parse_word("b").letters, parse_word("bb").letters
    cases = [
        bb + x + parse_word("e3^-1", "extended").letters,  # cancels to the empty segment
        (ALetter(1),) + b + x + (ALetter(-1),) + bb + x,
        (BaseLetter(EVec.zero()), BaseLetter(EVec.basis(0, 2))) + parse_word("BB").letters,
    ]
    assert ref_letters_to_alt_e0(cases[0]) == ([{}], [])
    rng = random.Random("alt")
    cases += [alt_mix_word(rng) for _ in range(3000)]
    cancelled = {"e0 across kinds": 0, "e_i": 0}
    for letters in cases:
        segs, deltas = ref_letters_to_alt_e0(letters)
        assert (segs, deltas) == ref_letters_to_alt(letters), letters
        for seg, read in zip(segs, indices_read(letters)):
            cancelled["e0 across kinds"] += read[0] == {"b", "base"} and 0 not in seg
            cancelled["e_i"] += any(i not in seg for i in read if i)
    assert min(cancelled.values()) > 100, cancelled


FRESH = {"a": lambda: ALetter(1), "A": lambda: ALetter(-1),
         "b": lambda: BaseLetter(EVec.basis(0)), "B": lambda: BaseLetter(EVec.basis(0, -1))}


def fresh(w):
    """The compact word w with a new object for every letter, none shared."""
    return tuple(FRESH[ch]() for ch in format_word(w, "compact"))


def read_outcome(fn, ctx, letters):
    """The value, or the error's type, index and message; then the length
    of the digit table."""
    try:
        got = fn(ctx, letters)
    except BslError as exc:
        got = type(exc).__name__, getattr(exc, "index", None), str(exc)
    return got, len(ctx.rs)


@functools.lru_cache(maxsize=None)
def reader_words(m, xi):
    """Compact words of shared and of fresh letters, relator products that
    pinch deep, mixed extended words and one long word."""
    rng = random.Random(f"rl{m}{xi}")
    top = FINITE_LEN + 1 if xi.startswith("rseq:") and ";" not in xi else 12
    build = GroupCtx.make(m, xi)
    words = []
    for _ in range(120):
        w = parse_word("".join(rng.choices("aAbB", k=rng.randint(0, 40))))
        if rng.random() < 0.5:
            g = parse_word("".join(rng.choices("aAbB", k=rng.randint(0, 6))))
            bi = ref_b_i_word(build, rng.randint(1, top))
            w = w * g * commutator(bi, parse_word(rng.choice("bB"))) * g.inverse() * w.inverse()
        words += [w.letters, fresh(w)]
    words += [alt_mix_word(rng) for _ in range(120)]
    words.append(long_word(rng, build, top).letters)
    return tuple(words)


@pytest.mark.parametrize("m,xi", CASES)
def test_reduce_letters_agrees(m, xi):
    """One pass from the letters against ``ref_letters_to_alt_e0`` followed
    by ``ref_reduce_alt``, the two passes it replaced: the same segment
    dicts and deltas, or the same error type and index, and the digit table
    as long after each word; unbudgeted and under budgets of 1 to 3 digits,
    each context reading the words in turn."""
    words, tally = reader_words(m, xi), Counter()
    for budget in (None, 1, 2, 3):
        ctx, ref_ctx = GroupCtx.make(m, xi, budget), GroupCtx.make(m, xi, budget)
        for letters in words:
            got = read_outcome(_reduce_letters, ctx, letters)
            assert got == read_outcome(ref_reduce_letters, ref_ctx, letters), letters
            a_letters = sum(isinstance(x, ALetter) for x in letters)
            if isinstance(got[0][1], list):
                segs, deltas = got[0]
                assert all(i >= 0 and c for seg in segs for i, c in seg.items()), segs
                tally["pinched"] += len(deltas) < a_letters
                tally["trivial"] += got[0] == ([{}], [])
            else:
                tally[got[0][0]] += 1
    assert tally["pinched"] > 400 and tally["trivial"] > 150, tally
    assert tally["RDigitBudgetExceeded"] > 100, tally


@pytest.mark.parametrize("m,xi", CASES)
def test_wreath_fold_reads_the_same_digits(m, xi):
    """``wreath_image`` collects each segment's entries in a list; folding
    the segment dicts of ``ref_letters_to_alt_e0`` gives the same image, or
    the same error, and grows the digit table as far: a segment whose e_i
    entries cancel reads no digit for them."""
    def ref_fold(ctx, letters):
        segs, deltas = ref_letters_to_alt_e0(letters)
        return WreathElem(ref_lamp_fold(ctx, map(EVec.from_items, segs), deltas), sum(deltas))

    # the last 40 compact words (their segments hold e_0 alone), then the mixed ones
    words, errors = reader_words(m, xi)[200:-1], 0
    for budget in (None, 1, 2):
        ctx, ref_ctx = GroupCtx.make(m, xi, budget), GroupCtx.make(m, xi, budget)
        for letters in words:
            got = read_outcome(lambda c, x: wreath_image(c, GroupWord(x)), ctx, letters)
            assert got == read_outcome(ref_fold, ref_ctx, letters), letters
            errors += not isinstance(got[0], WreathElem)
    assert errors > 20, errors


def indices_read(letters):
    """Per segment: the letter kinds ("b" for the shared b and B, "base"
    for any other) that carried an e_0 entry, under key 0, and the indices
    i >= 1 of the e_i entries read."""
    out = [{0: set()}]
    for letter in letters:
        if isinstance(letter, ALetter):
            out.append({0: set()})
        elif any(letter is x for x in parse_word("bB").letters):
            out[-1][0].add("b")
        else:
            for i, _ in letter.vec.entries:
                if i:
                    out[-1][i] = True
                else:
                    out[-1][0].add("base")
    return out


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
        result = hom_check(src, GroupCtx(dst), image_of_a, image_of_b, 4)
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


def solve_integer_system(rows, rhs):
    """One integer solution z of ``rows * z == rhs``, or None: column
    echelon form by unimodular column operations (gcd elimination), a
    triangular solve with divisibility checks, and the column operations
    undone.

    ``rows`` is a list of equal-length coefficient rows; an empty system
    (or one with no variables) is handled degenerately.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("rhs length does not match row count")
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged coefficient matrix")
    if n == 0:
        return [] if all(v == 0 for v in rhs) else None

    a = [list(r) for r in rows]
    # v accumulates the column operations: a_original @ v == a_current
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    pivots: list[tuple[int, int]] = []
    next_col = 0
    for r in range(m):
        if next_col >= n:
            break
        # gcd-eliminate row r across columns next_col..n-1
        for c in range(next_col + 1, n):
            while a[r][c]:
                if a[r][next_col]:
                    q = a[r][next_col] // a[r][c]
                    for t in range(m):
                        a[t][next_col] -= q * a[t][c]
                    for t in range(n):
                        v[t][next_col] -= q * v[t][c]
                # swap so the (possibly zero) remainder moves right
                for t in range(m):
                    a[t][next_col], a[t][c] = a[t][c], a[t][next_col]
                for t in range(n):
                    v[t][next_col], v[t][c] = v[t][c], v[t][next_col]
        if a[r][next_col]:
            pivots.append((r, next_col))
            next_col += 1

    # forward-substitute on the echelon matrix
    y = [0] * n
    for r, c in pivots:
        acc = rhs[r] - sum(a[r][cc] * y[cc] for _, cc in pivots if cc < c)
        piv = a[r][c]
        if acc % piv:
            return None
        y[c] = acc // piv

    # verify every equation (rows without pivots included)
    for r in range(m):
        if sum(a[r][c] * y[c] for c in range(n)) != rhs[r]:
            return None

    z = [sum(v[i][j] * y[j] for j in range(n)) for i in range(n)]
    return z


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
                    _expr_add(e0, expr, -ctx.digit(j - 1))
                    nd[j - 1] = expr
            if e0:
                nd[0] = e0
            d = nd
        else:
            cong = {}
            for j, expr in d.items():
                _expr_add(cong, expr, ctx.digit(j) if j else 1)
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


def level_pairs(ctx, rng, m, count):
    """Britton-reduced forms u, v of sigma = 0 and t-length up to 64 whose
    lamp polynomials agree: u is v with z added at one stable-letter
    height and taken away at another position of the same height.  Moving
    z there needs the pinches in between to fire, so some pairs are
    conjugate and some are not, and the lamp screen rejects neither."""
    for _ in range(count):
        deltas = [1, -1] * rng.randint(1, 32)
        rng.shuffle(deltas)
        v = britton_reduce(ctx, syllable_word(rng, m, deltas))
        heights = list(accumulate(v.deltas[:-1], initial=0))
        i = rng.randrange(len(heights))
        level = [j for j, h in enumerate(heights) if h == heights[i] and j != i]
        if not level:
            continue
        j, z, segs = rng.choice(level), EVec.from_items(random_seg(rng, 2)), list(v.segments)
        segs[i], segs[j] = segs[i] + z, segs[j] - z
        u = ReducedForm(tuple(segs), v.deltas)
        if britton_reduce(ctx, u.to_word()).deltas == u.deltas:
            yield u, v


def screened_rotation_pairs(ctx, rng, m, count):
    """The (u, v) pairs are_conjugate hands the solver for g w g^-1 and w,
    w with sigma = 0 and t-length up to 64: the rotations of w's core that
    have the shape of the other core and pass the lamp screen."""
    for _ in range(count):
        deltas = [1, -1] * rng.randint(1, 32)
        rng.shuffle(deltas)
        w = syllable_word(rng, m, deltas)
        g = random_word(rng, m, 2)
        cv, cw = cyclic_reduce(ctx, g * w * g.inverse())[0], cyclic_reduce(ctx, w)[0]
        if not cv.t_length or cv.t_length != cw.t_length:
            continue
        screen = _rotation_screen(ctx, cv, cw)
        for j, s in enumerate(accumulate(cw.deltas[:-1], initial=0)):
            rot = _rotation(cw, j)[0]
            if rot.deltas == cv.deltas and screen(s):
                yield cv, rot


def conjugates(ctx, e, u, v):
    return is_trivial(ctx, word_from_evec(e) * v.to_word() * word_from_evec(-e) * u.to_word().inverse())


SOLVE_CASES = [(m, xi) for m in MODULI for xi in ("int:7", "rat:-5/11", params(m)[-1])]
# e_0 alone would not seed the lift for these digit sequences, which no
# m-adic parameter realizes
LIFT_CASES = SOLVE_CASES + [(3, "rseq:0;1"), (5, "rseq:0,1;1")]


@pytest.mark.parametrize("m,xi", LIFT_CASES)
def test_sigma_zero_lift_agrees(m, xi):
    """Long sigma = 0 pairs the lamp screen passes, conjugate or not: the
    dense solve's verdict, and conjugators the word problem confirms."""
    # the dense reference's time is erratic: under the seeds f"z{m}{xi}" one
    # t-length-48 pair took it 10 s, and the lift 2 ms
    rng = random.Random(f"lift{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    verdicts = []
    for u, v in [*level_pairs(ctx, rng, m, 30), *screened_rotation_pairs(ctx, rng, m, 4)]:
        e = base_conjugacy_solve(ctx, u, v)
        assert (e is None) == (ref_base_conjugacy_solve(ctx, u, v) is None)
        assert e is None or conjugates(ctx, e, u, v)
        verdicts.append((e is not None, u.t_length > 32))
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


def test_sigma_zero_lift_runs_out_of_digits_with_the_dense_solve():
    """On a finite digit sequence both solves need the same digit that the
    sequence lacks."""
    ctx = GroupCtx.make(2, "rseq:1")
    for text in ("abAb", "Abab"):
        u = britton_reduce(ctx, parse_word(text))
        for solve in (base_conjugacy_solve, ref_base_conjugacy_solve):
            with pytest.raises(RDigitBudgetExceeded) as info:
                solve(ctx, u, u)
            assert info.value.index == 2


@pytest.mark.parametrize("m,xi", [(2, "int:7"), (4, "int:2"), (6, "rat:5/7"), (9, "int:3"),
                                  (4, "int:6"), (6, "int:-10"), (4, "rseq:2;1")])
def test_sigma_zero_lift_finds_the_conjugator_by_e(m, xi):
    """Britton-reduced sigma = 0 pairs u = e v (-e) of equal shape, over
    even and non-unit m: a conjugator exists, so the dense solve finds
    one, and the lift must find one that the word problem confirms.
    Seeding the lift with 2 e_j, or shifting d by -c * g for -c / g at a
    pivot with g > 1, loses it on some of these pairs.  Past the first
    depth the seeds of ``int:6`` over 4 (every digit 2) and of ``int:-10``
    over 6 (r_1 = 2) have values that share a factor h > 1 with m: a
    kernel element must scale the pivot by w / h, not w * h, and the
    pivot's inverse is taken mod g / h, where w / h is a unit.  For an
    integer or rational parameter every digit is a multiple of
    gcd(m, r_1), so at the second depth, whose seeds are -e_1, -e_2, ...,
    the first seed already meets the final gcd; the digits 2, 1, 1, ...
    over 4 lower it twice, so the second pivot must combine the first one
    and a seed to value h exactly."""
    rng = random.Random(f"e{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    pairs = 0
    for _ in range(160):
        deltas = [1, -1] * rng.randint(1, 4)
        rng.shuffle(deltas)
        v = britton_reduce(ctx, syllable_word(rng, m, deltas))
        e = EVec.from_items(random_seg(rng, 3))
        u = britton_reduce(ctx, word_from_evec(e) * v.to_word() * word_from_evec(-e))
        if not v.deltas or u.deltas != v.deltas:
            continue
        pairs += 1
        assert ref_base_conjugacy_solve(ctx, u, v) is not None
        found = base_conjugacy_solve(ctx, u, v)
        assert found is not None and conjugates(ctx, found, u, v), (u, v)
    assert pairs >= 120


@pytest.mark.parametrize("m,xi", SOLVE_CASES)
def test_base_conjugacy_solve_agrees(m, xi):
    """For sigma != 0, the same e (or None) as the dense solve, and a
    division candidate only when the lamp equation holds; for sigma = 0,
    the same verdict, with a conjugator the word problem confirms."""
    rng = random.Random(f"c{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    seen, candidates = set(), set()
    pairs = list(rotation_pairs(ctx, rng, m, 80)) + list(perturbed_pairs(ctx, rng, m, 100))
    for u, v in pairs:
        e = base_conjugacy_solve(ctx, u, v)
        ref = ref_base_conjugacy_solve(ctx, u, v)
        if not u.sigma:
            assert (e is None) == (ref is None)
            assert e is None or conjugates(ctx, e, u, v)
        else:
            assert e == ref
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
            n = len(ref_q_poly(ctx, x)) - len(ref_q_poly(ctx, y))  # the degrees of q
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


def shift_pairs(rng, m, count):
    """(a^n x a^-n, x) and (a^n x a^-n, x + e_0) for extended x up to
    index 12 and n up to 6: cores of t-length 0 whose exponent is n."""
    for _ in range(count):
        x, n = EVec.from_items(random_seg(rng, 12)), rng.randint(1, 6)
        v = a_power_word(n) * word_from_evec(x) * a_power_word(-n)
        yield v, word_from_evec(x + EVec.basis(0) if rng.random() < 0.5 else x)


def witness_letters(fn, ctx, v, w):
    witness = fn(ctx, v, w)
    return witness and witness.letters


@pytest.mark.parametrize("m,xi", SOLVE_CASES)
def test_tlength_zero_exponent_agrees(m, xi):
    """For cores of t-length 0, the exponent read off the top indices against
    the reference's degrees of q: the same answer wherever the reference
    answers.  Where the reference runs out of digits in q, the same missing
    index, or the answer the reference gives unbudgeted: a shift that
    leaves the base group (``a_conjugate``'s None) or a witness found and
    checked below the missing index, as for x = y.  The digit table is
    never longer.  Fresh contexts per pair, unbudgeted and under budgets."""
    rng = random.Random(f"t0{m}{xi}")
    pairs = [*base_pairs(rng, m, 40), *shift_pairs(rng, m, 40)]
    tally = Counter()
    for v, w in pairs:
        full = outcome(witness_letters, ref_are_conjugate, GroupCtx.make(m, xi), v, w)
        for budget in (None, 1, 3, 6):
            ctx, ref_ctx = GroupCtx.make(m, xi, budget), GroupCtx.make(m, xi, budget)
            got = outcome(witness_letters, are_conjugate, ctx, v, w)
            ref = outcome(witness_letters, ref_are_conjugate, ref_ctx, v, w)
            assert got in ((ref,) if ref[0] == "ok" else (ref, full)), (v, w, budget)
            assert len(ctx.rs) <= len(ref_ctx.rs)
            tally[ref[0], got[1] is not None if got[0] == "ok" else got[0]] += 1
    assert tally.keys() >= {("ok", True), ("ok", False), ("budget", "budget")}, tally
    assert tally["budget", True] + tally["budget", False], tally


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


def ref_is_canonical(word: tuple[int, ...]) -> bool:
    """The word equals the least of every rotation of it and of its inverse."""
    inverse = tuple(_INV[t] for t in reversed(word))
    return word == min(w[k:] + w[:k] for w in (word, inverse) for k in range(len(word)))


@pytest.mark.parametrize("length", range(17))
def test_wreath_trivial_words_agree(length):
    canonical = [w for w in ref_wreath_trivial_words(length) if ref_is_canonical(w)]
    assert _wreath_trivial_words(length) == canonical


# --- the classical BS(p, q) oracle -------------------------------------------------


def ref_bs_is_trivial(spec, w):
    p, q = spec.p, spec.q
    b_segs, a_exps = [0], []
    for letter in w.letters:
        if isinstance(letter, ALetter):
            if a_exps and b_segs[-1] == 0:
                a_exps[-1] += letter.exp
                if a_exps[-1] == 0:
                    a_exps.pop()
                    b_segs.pop()
            else:
                a_exps.append(letter.exp)
                b_segs.append(0)
        else:
            b_segs[-1] += _b_exponent(letter.vec)
    i = 0
    while i < len(a_exps) - 1:
        left, right = a_exps[i], a_exps[i + 1]
        beta = b_segs[i + 1]
        if left > 0 and right < 0 and beta % p == 0:
            new = (beta // p) * q
        elif left < 0 and right > 0 and beta % q == 0:
            new = (beta // q) * p
        else:
            i += 1
            continue
        a_exps[i] -= 1 if left > 0 else -1
        a_exps[i + 1] -= 1 if right > 0 else -1
        b_segs[i + 1] = new
        if a_exps[i + 1] == 0:
            b_segs[i + 1] += b_segs[i + 2]
            del b_segs[i + 2]
            del a_exps[i + 1]
        if a_exps[i] == 0:
            b_segs[i] += b_segs[i + 1]
            del b_segs[i + 1]
            del a_exps[i]
        i = max(i - 1, 0)
    return len(a_exps) == 0 and b_segs[0] == 0


def bs_text(rng, p, q, relators_only=False):
    """a^k runs, b-powers that the pinches can divide, and relators."""
    tokens = []
    for _ in range(rng.randint(0, 10)):
        kind = 1.0 if relators_only else rng.random()
        if kind < 0.35:
            tokens.append(f"a^{rng.choice((1, -1, 2, -2, 3, -3))}")
        elif kind < 0.7:
            tokens.append(f"b^{rng.choice((p, q, p * q, 1)) * rng.randint(-3, 3)}")
        else:
            tokens.append(rng.choice((f"ab^{p}Ab^{-q}", f"b^{q}ab^{-p}A")))
    return "".join(tokens)


@pytest.mark.parametrize("p,q", [
    (1, 1), (2, 2), (2, -2), (-3, 3), (1, 2), (2, 3), (-2, 3), (3, -5), (4, 6), (6, 9), (-1, -4),
])
def test_bs_is_trivial_agrees(p, q):
    rng = random.Random(f"bs{p},{q}")
    spec = BSSpec(p, q)
    trivial_seen = 0
    for n in range(400):
        w = parse_bs_word(bs_text(rng, p, q))
        if n % 2:
            # a conjugate of a product of relators dies only through pinches
            g = parse_bs_word(bs_text(rng, p, q))
            r = parse_bs_word(bs_text(rng, p, q, relators_only=True))
            w = g * r * g.inverse() * (w if n % 4 == 1 else GroupWord(()))
        if n % 5 == 0:
            w = w * w.inverse()
        got = bs_is_trivial(spec, w)
        assert got == ref_bs_is_trivial(spec, w), (p, q, format_word(w, "compact"))
        trivial_seen += got
    assert trivial_seen >= 150


def ref_parse_bs_word(text):
    letters = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch not in "aAbB":
            raise ParseError(f"invalid symbol {ch!r}", i)
        exp = 1 if ch in "ab" else -1
        gen = "a" if ch in "aA" else "b"
        i += 1
        if i < n and text[i] == "^":
            i += 1
            start = i
            if i < n and text[i] in "+-":
                i += 1
            while i < n and text[i].isdigit():
                i += 1
            exp = _parse_decimal(text[start:i], start)
            if ch in "AB":
                raise ParseError("exponent tokens use lowercase letters", start - 1)
        if gen == "a":
            letters.extend([ALetter(1 if exp > 0 else -1)] * abs(exp))
        elif exp:
            letters.append(BaseLetter(EVec.basis(0, exp)))
    return GroupWord(tuple(letters))


# pieces of bswp texts: letters, exponents with +, - and 0, sign and caret
# fragments, non-ASCII digits that pass str.isdigit ("²" is no decimal, "١"
# is an Arabic-Indic one) and symbols outside the grammar
BS_PIECES = ("a", "A", "b", "B", "a^3", "a^-2", "a^+1", "a^0", "b^-0", "b^12", "b^-7", "A^2",
             "B^-3", "^", "^-", "^+", "-", "+", "0", "5", "²", "١", "x", " ", "é", "\n")


def bs_parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


def test_parse_bs_word_agrees():
    rng = random.Random("bswp")
    texts = ["", "a^", "b^-", "A^", "a^²", "a^5²", "a^-1١", "A^5²", "A^5x", "a^5^3", "Bb^7x",
             "b^+", "^a", "a^١2", "ab^0A", "a^+0B"]
    texts += ["".join(rng.choice(BS_PIECES) for _ in range(rng.randint(1, 8)))
              for _ in range(20_000)]
    seen = Counter()
    for text in texts:
        ref = bs_parse_outcome(ref_parse_bs_word, text)
        assert bs_parse_outcome(parse_bs_word, text) == ref, text
        seen["word" if isinstance(ref, GroupWord) else ref[0].split()[0]] += 1
    # words and each kind of error ("invalid symbol", "bad number", "exponent
    # tokens use lowercase letters") are all well represented
    assert min(seen[kind] for kind in ("word", "invalid", "bad", "exponent")) >= 1_000, seen


# --- the first differing digit ------------------------------------------------------


def _exact(xi) -> bool:
    """An exact parameter: an integer or a rational."""
    return isinstance(xi, XiRat)


def _finite(xi) -> bool:
    """A finite digit prefix: a sequence with no period."""
    return isinstance(xi, XiSeq) and not xi.period


def _streams_equal_exact(a: MarkedGroupSpec, b: MarkedGroupSpec) -> bool:
    """Decide r_i(a) = r_i(b) for every i, for fully described parameters.

    Integer/rational pairs agree exactly when their gcd with m matches and
    the parameters are equal as rationals (or the projected modulus is 1).
    A rational against an eventually periodic sequence agrees exactly when
    the digits match through preperiod plus one period and the companion
    s-state returns to its value one period earlier; periodic pairs agree
    when they match through both preperiods plus the period lcm.
    """
    if a.m_abs != b.m_abs:
        return False
    m = a.m_abs
    ka, kb = a.xi_norm, b.xi_norm
    if _finite(ka) or _finite(kb):
        raise UndecidableSpec("finite digit sequences admit no full comparison")
    da, db = RDigitStream(a).gcd_with_m(), RDigitStream(b).gcd_with_m()
    if da != db:
        return False
    exact_a, exact_b = _exact(ka), _exact(kb)
    if exact_a and exact_b:
        if m // da == 1:
            return True
        return _xi_fraction(a) == _xi_fraction(b)
    if not exact_a and not exact_b:
        pre = max(len(ka.preperiod), len(kb.preperiod))
        horizon = pre + math.lcm(len(ka.period), len(kb.period))
        sa, sb = RDigitStream(a), RDigitStream(b)
        return all(sa.digit(i) == sb.digit(i) for i in range(1, horizon + 1))
    # mixed: rational versus eventually periodic sequence
    rat, seq = (a, b) if exact_a else (b, a)
    pre, per = seq.xi_norm.preperiod, seq.xi_norm.period
    if da == m:
        # gcd m forces the all-zero stream on both sides
        return all(d == 0 for d in pre + per)
    horizon = len(pre) + len(per)
    rs = RDigitStream(rat)
    ss = RDigitStream(seq)
    if any(rs.digit(i) != ss.digit(i) for i in range(1, horizon + 1)):
        return False
    # digits of a rational are periodic from len(pre) on exactly when the
    # s-state is fixed by one period step (denominators are coprime to m,
    # so any drift would force unbounded m-powers into them)
    s = [Fraction(1)] + rs.s_values(horizon)
    return s[len(pre)] == s[horizon]


def _first_digit_difference(a: MarkedGroupSpec, b: MarkedGroupSpec) -> int:
    """1-based index of the first differing digit of two unit parameters;
    raises SameGroup when there is none, or the scan cannot find one.
    Exact units share h digits exactly when they agree mod |m|^h (the
    congruence law), so their digits are not scanned."""
    finite = _finite(a.xi_norm) or _finite(b.xi_norm)
    if not finite and _streams_equal_exact(a, b):
        raise SameGroup("the digit streams agree at every index")
    if _exact(a.xi_norm) and _exact(b.xi_norm):
        diff, i = (_xi_fraction(a) - _xi_fraction(b)).numerator, 1
        while diff % a.m_abs == 0:
            diff, i = diff // a.m_abs, i + 1
        return i
    sa, sb = RDigitStream(a), RDigitStream(b)
    i = 1
    try:
        while sa.digit(i) == sb.digit(i):
            i += 1
    except RDigitBudgetExceeded as exc:
        raise SameGroup(
            f"no differing digit within the available {exc.index - 1} digits"
        ) from None
    return i


def ref_distance_bounds(g1: MarkedGroupSpec, g2: MarkedGroupSpec) -> DistanceBounds:
    if g1.m_abs != g2.m_abs:
        raise GcdMismatch("parameters live over different moduli")
    if RDigitStream(g1).gcd_with_m() != 1 or RDigitStream(g2).gcd_with_m() != 1:
        raise GcdMismatch("distance bounds need unit parameters")
    m = g1.m_abs
    h = _first_digit_difference(g1, g2) - 1
    return DistanceBounds(
        h=h,
        lower_exp=2 * (m + 1) * (h + 1) + 2 * m + 6,
        upper_exp=2 * h + 1,
    )


def ref_isomorphic(g1: MarkedGroupSpec, g2: MarkedGroupSpec) -> bool:
    if _finite(g1.xi_norm) or _finite(g2.xi_norm):
        raise UndecidableSpec("finite digit sequences admit no full comparison")
    return _streams_equal_exact(g1, g2)


def ref_first_digit_difference(a, b):
    """The digit scan that the congruence law replaced for exact units."""
    if _streams_equal_exact(a, b):
        raise SameGroup("the digit streams agree at every index")
    sa, sb = RDigitStream(a), RDigitStream(b)
    i = 1
    while sa.digit(i) == sb.digit(i):
        i += 1
    return i


def first_difference(fn, a, b):
    """The index, or None for SameGroup."""
    try:
        return fn(a, b)
    except SameGroup:
        return None


def verdict(fn, a, b):
    """The value, or the type and message of the library error raised."""
    try:
        return fn(a, b)
    except BslError as exc:
        return type(exc).__name__, str(exc)


def unit_xi(rng, m):
    while True:
        f = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
        if math.gcd(f.numerator, m) == 1 and math.gcd(f.denominator, m) == 1:
            return f


def spec_of(m, f, scale=1):
    if f.denominator == 1 and scale == 1:
        return MarkedGroupSpec(m, XiRat(f.numerator))
    return MarkedGroupSpec(m, XiRat(f.numerator * scale, f.denominator * scale))


def exact_xi(rng, m, d=None):
    """A small rational over m (so its digits turn periodic early) whose gcd
    with m is d, or anything when d is None."""
    while True:
        f = Fraction(rng.randint(-60, 60), rng.choice((1, 1, 3, 5, 7, 11)))
        if math.gcd(f.denominator, m) == 1 and d in (None, math.gcd(f.numerator, m)):
            return f


def cut(rng, digits):
    """A preperiod and a period cut from the front of a digit list."""
    j = rng.randint(0, 3)
    return XiSeq(digits[:j], digits[j : j + rng.randint(1, 6)])


def unrolled(rng, xi):
    """The same periodic stream written with a longer preperiod and period."""
    pre, per = xi.preperiod, xi.period
    k = rng.randrange(len(per))
    return XiSeq(pre + per[:k], (per[k:] + per[:k]) * rng.randint(1, 2))


def perturbed(rng, m, xi):
    """A periodic stream with one digit changed, if m allows another digit."""
    digits = list(xi.preperiod + xi.period)
    i = rng.randrange(len(digits))
    digits[i] = (digits[i] + rng.randint(1, max(1, m - 1))) % m
    pre = len(xi.preperiod)
    return XiSeq(tuple(digits[:pre]), tuple(digits[pre:]))


def kind_pairs(rng, m, count):
    """Pairs of every kind over m: exact units and non-units (the same gcd, a
    different one, |m| = d), periodic pairs, rationals against sequences cut
    from digits (their own or another's), and finite prefixes."""
    mod = abs(m)
    ds = [d for d in range(1, mod + 1) if mod % d == 0]
    pairs = []
    for n in range(count):
        kind = n % 6
        fa = exact_xi(rng, mod, rng.choice(ds) if kind == 1 else None)
        a = spec_of(m, fa)
        digits = tuple(RDigitStream(a).digits(12))
        if kind == 0:  # exact pairs, some equal in other terms
            fb = fa + mod ** rng.randint(0, 6) * exact_xi(rng, mod)
            b = spec_of(m, fa, 7) if n % 4 == 0 else spec_of(m, fb)
        elif kind == 1:  # exact pairs with the same gcd
            g = math.gcd(fa.numerator, mod)
            b = spec_of(m, fa + g * mod ** rng.randint(0, 6) * exact_xi(rng, mod))
        elif kind == 2:  # periodic pairs: the same stream, or one digit changed
            a = MarkedGroupSpec(m, cut(rng, digits))
            same = unrolled(rng, a.xi)
            b = MarkedGroupSpec(m, same if n % 4 else perturbed(rng, mod, same))
        elif kind in (3, 4):  # a rational against digits cut from its own or another's
            other = digits if kind == 3 else tuple(
                RDigitStream(spec_of(m, exact_xi(rng, mod))).digits(12))
            b = MarkedGroupSpec(m, cut(rng, other))
        else:  # finite prefixes of one parameter, against another; a sequence has a digit
            b = MarkedGroupSpec(m, XiSeq(digits[: max(1, rng.randint(0, 8))]))
        pairs.append((kind, a, b) if n % 2 else (kind, b, a))
    return pairs


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 9, 10, 12, -2, -3, -4, -6])
def test_first_digit_difference_agrees(m):
    """Exact unit pairs, a third of them a + |m|^h u/v with a common prefix
    of at least h digits, and some equal pairs written in other terms, get
    the scan's index; on them and on pairs of every kind, ``isomorphic``
    and ``distance_bounds`` give the references' values or errors."""
    rng = random.Random(f"fdd{m}")
    mod = abs(m)
    pairs = []
    for n in range(150):
        fa = unit_xi(rng, mod)
        if n % 3 == 0:
            fb = fa + mod ** rng.randint(1, 12) * unit_xi(rng, mod)
        else:
            fb = unit_xi(rng, mod)
        a, b = spec_of(m, fa), spec_of(m, fb)
        if n % 10 == 0:
            b = spec_of(m, fa, 7)
        ref = first_difference(ref_first_digit_difference, a, b)
        assert _first_difference(GroupCtx(a), GroupCtx(b)) == ref, (m, a.xi, b.xi)
        pairs.append((None, a, b))
    seen = Counter()
    for kind, a, b in pairs + kind_pairs(rng, m, 600):
        iso = verdict(isomorphic, GroupCtx(a), GroupCtx(b))
        assert iso == verdict(ref_isomorphic, a, b), (m, a.xi, b.xi)
        bounds = verdict(distance_bounds, GroupCtx(a), GroupCtx(b))
        assert bounds == verdict(ref_distance_bounds, a, b), (m, a.xi, b.xi)
        seen[kind, iso] += 1
        seen[bounds[1].split()[0] if isinstance(bounds, tuple) else "bounds"] += 1
    # the s-state check passes and fails on sequences cut from the rational's own
    # digits; distance_bounds answers, rejects non-units ("distance bounds need
    # ..."), and meets equal streams ("the ...") and exhausted prefixes ("no ...")
    if mod > 1:
        assert seen[3, True] and seen[3, False], seen
        assert seen["bounds"] and seen["distance"], seen
    assert seen["the"] and seen["no"], seen


@pytest.mark.parametrize("m", [4, -4, 6, 8, 9, 12, -12, 18, 30, 36])
def test_non_unit_index_agrees_with_a_digit_scan(m):
    """Exact non-units with the same gcd d: the first difference is 1 plus
    the (|m|/d)-adic valuation of (xi_a - xi_b)/d, as 400 digits show."""
    rng = random.Random(f"nonunit{m}")
    mod = abs(m)
    ds = [d for d in range(2, mod + 1) if mod % d == 0]
    found = 0
    for _ in range(60):
        d = rng.choice(ds)
        fa = exact_xi(rng, mod, d)
        fb = fa + d * (mod // d) ** rng.randint(0, 12) * exact_xi(rng, mod)
        a, b = spec_of(m, fa), spec_of(m, fb)
        scan = next((i for i, (x, y) in enumerate(zip(RDigitStream(a).digits(400),
                                                   RDigitStream(b).digits(400)), 1)
                     if x != y), None)
        assert _first_difference(GroupCtx(a), GroupCtx(b)) == scan, (m, fa, fb)
        found += scan is not None and scan > 1
    assert found >= 20, found


def ref_periodic_first_difference(a, b):
    """The scan to both preperiods plus the period lcm."""
    horizon = max(len(a.xi.preperiod), len(b.xi.preperiod))
    horizon += math.lcm(len(a.xi.period), len(b.xi.period))
    sa, sb = RDigitStream(a), RDigitStream(b)
    return next((i for i in range(1, horizon + 1) if sa.digit(i) != sb.digit(i)), None)


def two_period_word(rng, m, p, q, length):
    """A random digit word with periods p and q: positions p or q apart
    share a digit."""
    word = [None] * length
    for start in range(length):
        if word[start] is None:
            digit, todo = rng.randrange(m), [start]
            while todo:
                i = todo.pop()
                if 0 <= i < length and word[i] is None:
                    word[i] = digit
                    todo += [i - p, i + p, i - q, i + q]
    return tuple(word)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_fine_wilf_horizon_agrees_with_the_lcm_scan(m):
    """Small periodic pairs: streams of periods p and q built on one word
    with both periods (so they agree on its length past the preperiod,
    which reaches p + q - gcd(p, q) - 1 and beyond), the same stream
    unrolled, one digit changed, and unrelated streams."""
    rng = random.Random(f"fw{m}")
    seen = Counter()
    for n in range(500):
        pre = tuple(rng.randrange(m) for _ in range(rng.randint(0, 3)))
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        if n % 4 < 2:
            length = max(p, q, p + q - math.gcd(p, q) - rng.randint(-1, 2))
            word = two_period_word(rng, m, p, q, length)
            a, b = XiSeq(pre, word[:p]), XiSeq(pre, word[:q])
        elif n % 4 == 2:
            a = XiSeq(pre, tuple(rng.randrange(m) for _ in range(p)))
            b = unrolled(rng, a) if n % 8 == 2 else perturbed(rng, m, unrolled(rng, a))
        else:
            a, b = (XiSeq(pre, tuple(rng.randrange(m) for _ in range(k))) for k in (p, q))
        a, b = MarkedGroupSpec(m, a), MarkedGroupSpec(m, b)
        ref = ref_periodic_first_difference(a, b)
        assert _first_difference(GroupCtx(a), GroupCtx(b)) == ref, (m, a.xi, b.xi)
        late = max(len(a.xi.preperiod), len(b.xi.preperiod))
        late += max(len(a.xi.period), len(b.xi.period))
        seen["equal" if ref is None else "late" if ref > late else "early"] += 1
    # equal streams, and differences past both preperiods plus the longer period
    assert seen["equal"] >= 50 and seen["late"] >= 20, seen


def ref_first_difference(sa, sb):
    """``madic._first_difference`` before the valuation law: a rational
    against a periodic sequence that passed the s-state check was scanned
    on, digit by digit, to the first difference."""
    m, a, b = sa.m_abs, sa.spec, sb.spec
    d = sa.gcd_with_m()
    if sb.gcd_with_m() != d:
        return 1
    xa, xb = a.xi_norm, b.xi_norm
    if isinstance(xa, XiRat) and isinstance(xb, XiRat):
        diff, i = ((_xi_fraction(a) - _xi_fraction(b)) / d).numerator, 1
        if m == d or not diff:
            return None
        while diff % (m // d) == 0:
            diff, i = diff // (m // d), i + 1
        return i
    rat, horizon = None, 0  # a finite sequence has no horizon
    if isinstance(xa, XiRat) or isinstance(xb, XiRat):
        rat, seq = (sa, xb) if isinstance(xa, XiRat) else (sb, xa)
        pre = len(seq.preperiod)
        if seq.period:
            horizon = pre + len(seq.period)
    elif xa.period and xb.period:
        p, q = len(xa.period), len(xb.period)
        horizon = max(len(xa.preperiod), len(xb.preperiod)) + p + q - math.gcd(p, q)
    i = 1
    while sa.digit(i) == sb.digit(i):
        # at d = m the rational's digits are all zero, whatever its s-state
        if i == horizon and (rat is None or m == d or ref_s_returns(rat, pre, horizon)):
            return None
        i += 1
    return i


def ref_s_returns(rat, pre, horizon):
    """Whether s_pre = s_horizon (s_0 = 1), from one replay of the digit step."""
    t_pre = qk_pre = t = qk = 1
    for k, (_, t, qk) in enumerate(rat._replay(horizon), 1):
        if k == pre:
            t_pre, qk_pre = t, qk
    return Fraction(t_pre, qk_pre) == Fraction(t, qk)


def index_or_stop(a, b, budget, fn=_first_difference):
    """fn's index (or None) on fresh contexts, or the first missing digit
    index where a budget or a finite sequence stops it; and the contexts."""
    sa, sb = RDigitStream(a, budget), RDigitStream(b, budget)
    try:
        return fn(sa, sb), sa, sb
    except RDigitBudgetExceeded as exc:
        return ("stop", exc.index), sa, sb


def s_cycle(m, f):
    """The digits of an integer f with |f| < |m| as a periodic sequence:
    its s-states stay small and so return, and the period is cut where they
    first do."""
    stream = RDigitStream(spec_of(m, f))
    ss = [Fraction(1)] + stream.s_values(4 * abs(m) + 4)
    j = next(j for j in range(1, len(ss)) if ss[j] in ss[:j])
    pre = ss.index(ss[j])
    digits = tuple(stream.digits(j))
    return XiSeq(digits[:pre], digits[pre:j])


def law_pairs(rng, m, count):
    """Pairs over m: a rational against periodic sequences cut from its own
    digits or from those of a rational that agrees with it on 1 to 14
    digits (so they part past the horizon, at valuations from 0 up),
    against its own s-cycle (whole, unrolled or with a digit changed), and
    against finite prefixes; periodic pairs; and exact pairs with the same
    gcd."""
    mod = abs(m)
    ds = [d for d in range(1, mod + 1) if mod % d == 0]
    pairs = []
    for n in range(count):
        kind = n % 6
        f = exact_xi(rng, mod, rng.choice(ds))
        near = f + mod ** rng.randint(1, 14) * exact_xi(rng, mod)
        digits = tuple(RDigitStream(spec_of(m, f)).digits(20))
        a = spec_of(m, near if kind == 1 else f)
        if kind in (0, 1):
            b = MarkedGroupSpec(m, cut(rng, digits))
        elif kind == 2:
            g = Fraction(rng.randrange(1 - mod, mod))
            a, xi = spec_of(m, g), s_cycle(m, g)
            xi = xi if n % 3 == 0 else unrolled(rng, xi) if n % 3 == 1 else perturbed(rng, mod, xi)
            b = MarkedGroupSpec(m, xi)
        elif kind == 3:
            b = MarkedGroupSpec(m, XiSeq(digits[: rng.randint(1, 16)]))
        elif kind == 4:
            a = MarkedGroupSpec(m, cut(rng, digits))
            same = unrolled(rng, a.xi)
            b = MarkedGroupSpec(m, same if n % 4 else perturbed(rng, mod, same))
        else:
            b = spec_of(m, near)
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("m", list(range(2, 13)) + [-2, -6, -12])
def test_first_difference_law_agrees_with_the_scan(m):
    """The valuation law gives the scan's answer on every pair and budget,
    but for one kind: where the scan runs into a budget past a rational's
    periodic horizon, the law answers with an index over the budget, the
    one the unbudgeted scan finds.  No pair reads a rational's digit past
    the horizon."""
    rng = random.Random(f"law{m}")
    seen = Counter()
    pairs = law_pairs(rng, m, 150)
    for a, b in pairs + [(b, a) for a, b in pairs]:
        kinds = {type(x.xi_norm) for x in (a, b)}
        seq = next((x.xi for x in (a, b) if isinstance(x.xi_norm, XiSeq)), None)
        horizon = len(seq.preperiod + seq.period) if XiRat in kinds and seq and seq.period else None
        for budget in (None, 5, 40):
            got, sa, sb = index_or_stop(a, b, budget)
            ref = index_or_stop(a, b, budget, ref_first_difference)[0]
            if got == ref:
                seen["equal"] += 1
            else:
                assert isinstance(ref, tuple) and budget is not None
                assert horizon is not None and ref[1] > horizon
                assert got > budget and got == index_or_stop(a, b, None, ref_first_difference)[0]
                seen["past the budget"] += 1
            if horizon is not None:
                rat = sa if isinstance(a.xi_norm, XiRat) else sb
                assert len(rat.rs) <= horizon + 1, (m, a.xi, b.xi, budget)
                if isinstance(got, int) and got > horizon:
                    seen["law", got > horizon + 1] += 1
                seen["cycle"] += got is None
            seen["stop"] += isinstance(got, tuple)
    assert seen["past the budget"] and seen["cycle"] and seen["stop"], seen
    assert seen["law", False] and seen["law", True], seen


# --- prefix realization -------------------------------------------------------------


def ref_xi_from_prefix(m, prefix):
    """The lift search that the fixed-point pass replaced: of the |m| lifts
    of the residue matching k digits, the one that matches digit k + 1."""
    m = abs(m)
    n, modulus = prefix[0], m
    for k in range(1, len(prefix)):
        n = next(
            lift
            for lift in range(n, n + m * modulus, modulus)
            if RDigitStream(MarkedGroupSpec(m, XiRat(lift))).digit(k + 1) == prefix[k]
        )
        modulus *= m
    return n, modulus


@pytest.mark.parametrize("m", [1, 2, 4, 6, 10, 12, 30, -6])
def test_xi_from_prefix_agrees(m):
    rng = random.Random(f"xfp{m}")
    mod = abs(m)
    units = [d for d in range(mod) if math.gcd(d, mod) == 1]
    for _ in range(60):
        prefix = [rng.choice(units)] + [rng.randrange(mod) for _ in range(rng.randint(0, 24))]
        assert xi_from_prefix(m, prefix) == ref_xi_from_prefix(m, prefix), (m, prefix)


# --- shared letters ------------------------------------------------------------------


def ref_w_word(m, digits):
    letters = [ALetter(1)] * (len(digits) + 1)
    letters.append(BaseLetter(EVec.basis(0, m)))
    letters.append(ALetter(-1))
    for t in digits:
        if t:
            letters.append(BaseLetter(EVec.basis(0, -t)))
        letters.append(ALetter(-1))
    return GroupWord(tuple(letters))


def ref_win_e_word(m, digits):
    pos = ref_w_word(m, digits)
    neg = ref_w_word(-m, [-t for t in digits])
    b = GroupWord((BaseLetter(EVec.basis(0)),))
    return pos * b * neg * b.inverse()


def ref_v_k_word(k):
    inner = parse_word("a") * GroupWord((BaseLetter(EVec.basis(0, k)),)) * parse_word("A")
    return commutator(inner, parse_word("b"))


def ref_word_from_evec(vec):
    return GroupWord(tuple(BaseLetter(EVec.basis(i, c)) for i, c in vec.entries))


def ref_to_word(form):
    letters = list(ref_word_from_evec(form.segments[0]).letters)
    for d, seg in zip(form.deltas, form.segments[1:]):
        letters.append(ALetter(d))
        letters.extend(ref_word_from_evec(seg).letters)
    return GroupWord(tuple(letters))


def ref_inverse(w):
    return GroupWord(tuple(
        ALetter(-x.exp) if isinstance(x, ALetter) else BaseLetter(-x.vec)
        for x in reversed(w.letters)
    ))


def ref_cyclic_reduce_pass(ctx, w):
    """``cyclic_reduce`` with a new letter per conjugator letter."""
    segs, deltas = ref_reduce_letters(ctx, w.letters)
    conj = []
    lo, hi = 0, len(deltas)
    while lo < hi:
        lead, tail = segs[lo], segs[hi]
        if tail:
            conj.extend(ref_word_from_evec(-_evec(tail)).letters)
            _merge_into(lead, tail)
            segs[hi] = {}
        d_first = deltas[lo]
        if deltas[hi - 1] == d_first:
            break
        fired = _up(ctx, lead) if d_first == -1 else _down(ctx, lead)
        if fired is None:
            break
        conj.extend(ref_word_from_evec(_evec(lead)).letters)
        conj.append(ALetter(d_first))
        lo, hi = lo + 1, hi - 1
        _merge_into(segs[hi], fired)
    return _alt_to_form(segs[lo : hi + 1], deltas[lo:hi]), GroupWord(tuple(conj))


SHARED_LETTERS = (A_POS, A_NEG, _B_POS, _B_NEG)


def unshared(w):
    """The letters of w equal to a shared letter but not that object: every
    a-letter, and every payload +-e_0, must be the shared one."""
    return [x for x in w.letters if x in SHARED_LETTERS and not any(x is y for y in SHARED_LETTERS)]


def digit_lists(rng, m):
    """Digit lists over range(|m|), each holding both 0 and |m| - 1."""
    top = abs(m) - 1
    yield from ([0], [top], [0, top], [top, top, 0, top])
    for _ in range(40):
        digits = [rng.randrange(top + 1) for _ in range(rng.randint(0, 12))] + [0, top]
        rng.shuffle(digits)
        yield digits


@pytest.mark.parametrize("m", [2, -2, 3, 5, 7, 64])
def test_probe_words_agree(m):
    rng = random.Random(f"probe{m}")
    for digits in digit_lists(rng, m):
        new, ref = w_word(m, digits), ref_w_word(m, digits)
        assert new.letters == ref.letters, (m, digits)
        assert unshared(new) == []
        # one letter per payload within a call
        payloads = {}
        for x in new.letters:
            if isinstance(x, BaseLetter):
                assert payloads.setdefault(x.vec, x) is x, (m, digits, x)
        new, ref = win_e_word(m, digits), ref_win_e_word(m, digits)
        assert new.letters == ref.letters, (m, digits)
        assert unshared(new) == []
    for k in range(-3, abs(m) + 2):
        assert v_k_word(k).letters == ref_v_k_word(k).letters
        assert unshared(v_k_word(k)) == []


@pytest.mark.parametrize("m,xi", CASES)
def test_form_words_agree(m, xi):
    """Reduced and normal forms, cyclic cores and conjugators, inverses and
    conjugacy witnesses, all built from the shared letters."""
    rng = random.Random(f"words{m}{xi}")
    ctx = GroupCtx.make(m, xi)
    checked = 0
    for _ in range(150):
        vec = EVec.from_items(random_seg(rng, 3))
        assert word_from_evec(vec).letters == ref_word_from_evec(vec).letters
        assert unshared(word_from_evec(vec)) == []
        w = random_word(rng, m, 3)
        # w's own letters are new ones: its inverse shares every a-letter
        assert w.inverse().letters == ref_inverse(w).letters
        assert [x for x in unshared(w.inverse()) if isinstance(x, ALetter)] == []
        for reduce in (britton_reduce, normal_form):
            kind, form = outcome(reduce, ctx, w)
            if kind == "ok":
                assert form.to_word().letters == ref_to_word(form).letters
                assert unshared(form.to_word()) == []
        new, ref = outcome(cyclic_reduce, ctx, w), outcome(ref_cyclic_reduce_pass, ctx, w)
        assert new == ref, (m, xi, format_word(w))
        if new[0] == "ok":
            assert unshared(new[1][1]) == []
            checked += 1
        g = random_word(rng, m, 2)
        kind, witness = outcome(are_conjugate, ctx, g * w * g.inverse(), w)
        if kind == "ok" and witness is not None:
            assert unshared(witness) == []
    assert checked >= 50, checked


@pytest.mark.parametrize("m,xi", [(2, "int:3"), (3, "rat:5/7"), (-5, "int:12"), (4, "int:2"),
                                  (7, "rseq:1;2,0,6")])
def test_recover_asks_the_same_words(m, xi):
    """The oracle sees the words of the builders that made new letters, in
    order: v_k for k = 1..|m|, then win_e(|m|; r_1..r_{i-1}, t) for each
    level i and t = 0..|m|-1."""
    ctx = GroupCtx.make(m, xi)
    asked = []

    def oracle(w):
        asked.append(w)
        return is_trivial(ctx, w)

    r = ctx.digits(6)
    assert recover_parameters(oracle, 6) == (abs(m), r)
    expected = [ref_v_k_word(k) for k in range(1, abs(m) + 1)]
    expected += [ref_win_e_word(abs(m), r[: i - 1] + [t])
                 for i in range(1, 7) for t in range(abs(m))]
    assert asked == expected
    assert all(unshared(w) == [] for w in asked)
