import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import bslim
import bslim.group
from bslim import (
    ParseError,
    ShapeMismatch,
    WitnessCheckFailed,
    XiRat,
    XiSeq,
)
from bslim.lattice import EVec, GroupCtx
from bslim.group import (
    ALetter,
    BaseLetter,
    GroupWord,
    ReducedForm,
    are_conjugate,
    base_conjugacy_solve,
    britton_reduce,
    commutator,
    cyclic_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
    sigma_and_tlength,
    word_from_evec,
)

E0 = EVec.basis(0)
E1 = EVec.basis(1)

W = parse_word  # compact by default


def compact_length(w: GroupWord) -> int:
    """Free-group length over {a, b}; payloads must be multiples of e_0."""
    return len(format_word(w, "compact"))


@pytest.fixture
def ctx23():
    return GroupCtx.make(2, XiRat(3))


@pytest.fixture
def ctx21():
    return GroupCtx.make(2, XiRat(1))


def random_word(rng, max_len=6):
    return W("".join(rng.choice("aAbB") for _ in range(rng.randrange(max_len + 1))))


def freely_reduced_words(max_len, alphabet="aAbB"):
    inverse = {"a": "A", "A": "a", "b": "B", "B": "b"}
    frontier = [""]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for ch in alphabet:
                if w and inverse[w[-1]] == ch:
                    continue
                new.append(w + ch)
        yield from new
        frontier = new


# --- parsing/formatting -------------------------------------------------------

def test_parse_compact():
    w = W("abA")
    assert w.letters == (ALetter(1), BaseLetter(E0), ALetter(-1))


def test_parse_extended():
    w = parse_word("e1^2 a^-1", "extended")
    assert w.letters == (BaseLetter(2 * E1), ALetter(-1))


def test_parse_error_offset():
    with pytest.raises(ParseError) as info:
        W("abc")
    assert info.value.offset == 2
    with pytest.raises(ParseError):
        parse_word("e1^0", "extended")
    with pytest.raises(ParseError):
        parse_word("a^2", "extended")


def test_format_roundtrip_both_modes():
    rng = random.Random(0)
    for _ in range(50):
        w = random_word(rng)
        assert parse_word(format_word(w, "compact"), "compact") == w
        assert parse_word(format_word(w, "extended"), "extended") == w
    w = parse_word("a e3^-2 a^-1 e0", "extended")
    assert parse_word(format_word(w), "extended") == w


def test_word_algebra():
    w = W("ab")
    assert format_word(w * w.inverse(), "compact") == "abBA"
    assert compact_length(W("abbA")) == 4
    assert compact_length(word_from_evec(3 * E0)) == 3
    with pytest.raises(ValueError):
        compact_length(word_from_evec(E1))


def test_inverse_keeps_the_shared_letters():
    """The inverse of a parsed word is made of the same four shared letter
    objects the reader recognises by identity, and equals the letterwise
    construction."""
    rng = random.Random(5)
    shared = [W(ch).letters[0] for ch in "aAbB"]
    text = "".join(rng.choice("aAbB") for _ in range(300))
    inv = W(text).inverse()
    assert all(any(x is y for y in shared) for x in inv.letters)
    assert inv.letters == tuple(
        ALetter(-x.exp) if isinstance(x, ALetter) else BaseLetter(-x.vec)
        for x in reversed(W(text).letters)
    )
    # other payloads still get fresh letters
    w = parse_word("e2^3 a e0^-2", "extended")
    assert format_word(w.inverse()) == "e0^2 a^-1 e2^-3"


def test_inverse_of_built_letters_shares_b_and_B():
    """A letter built by hand with payload +-e_0 inverts to the shared B or
    b letter; a zero payload stays a (new) zero letter."""
    b, big_b = W("b").letters[0], W("B").letters[0]
    assert GroupWord((BaseLetter(EVec.basis(0)),)).inverse().letters[0] is big_b
    assert GroupWord((BaseLetter(EVec.basis(0, -1)),)).inverse().letters[0] is b
    zero = GroupWord((BaseLetter(EVec.zero()),)).inverse()
    assert zero.letters == (BaseLetter(EVec.zero()),)
    assert format_word(zero) == ""


# --- Britton reduction ---------------------------------------------------------

def test_reduce_defining_relation(ctx23):
    form = britton_reduce(ctx23, W("abbA"))
    assert form.t_length == 0
    assert form.segments == (E1,)


def test_reduce_no_pinch(ctx23):
    form = britton_reduce(ctx23, W("abA"))
    assert form.t_length == 2
    assert form.deltas == (1, -1)
    assert form.segments == (EVec.zero(), E0, EVec.zero())


def test_reduce_free_cancellation(ctx23):
    form = britton_reduce(ctx23, W("aA"))
    assert form.is_identity


def test_pinches_merge_into_the_larger_segment(ctx23):
    """A pinch merges its image into the larger of the two dicts, so 10,000
    pinches a b^2 A beside a segment over 10,000 basis vectors stay linear;
    merging that segment into each one-entry image took seconds."""
    big = EVec(tuple((i, 1) for i in range(1, 10_001)))
    w = GroupWord((BaseLetter(big),)) * W("abbA" * 10_000)
    start = time.process_time()
    form = britton_reduce(ctx23, w)
    assert time.process_time() - start < 1.0
    assert form.deltas == () and form.segments[0] == big + EVec.basis(1, 10_000)


def test_is_trivial_examples(ctx23, ctx21):
    relator = W("babbABaBBA")  # commutator of b with a b^2 a^-1
    assert is_trivial(ctx23, relator)
    assert is_trivial(ctx21, relator)
    v3 = commutator(W("abbbA"), W("b"))
    assert not is_trivial(ctx23, v3)
    assert is_trivial(ctx23, W(""))


def test_triviality_conjugation_invariance(ctx23):
    rng = random.Random(5)
    for _ in range(120):
        u, v = random_word(rng), random_word(rng)
        assert is_trivial(ctx23, u * v) == is_trivial(ctx23, v * u)


def test_reduce_serialization_consistency(ctx23):
    rng = random.Random(9)
    for _ in range(80):
        w = random_word(rng)
        back = parse_word(
            format_word(britton_reduce(ctx23, w).to_word(), "extended"), "extended"
        )
        assert is_trivial(ctx23, w * back.inverse())


# --- normal forms ----------------------------------------------------------------

def test_normal_form_examples(ctx23):
    nf = normal_form(ctx23, W("abb"))
    assert nf.segments == (E1, EVec.zero()) and nf.deltas == (1,)
    nf = normal_form(ctx23, W("Ab"))
    assert nf.segments == (EVec.zero(), E0) and nf.deltas == (-1,)
    assert normal_form(ctx23, W("aA")).is_identity


def test_normal_form_representative_ranges(ctx23):
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(rng, max_len=8)
        nf = normal_form(ctx23, w)
        for d, seg in zip(nf.deltas, nf.segments[1:]):
            if d == 1:
                assert seg.is_zero or (
                    seg.entries == ((0, seg.coeff(0)),)
                    and 0 <= seg.coeff(0) < ctx23.m_abs
                )
            else:
                assert seg.is_zero or seg.entries == ((0, seg.coeff(0)),)
        # still reduced: re-reducing its word changes nothing
        again = britton_reduce(ctx23, nf.to_word())
        assert again.segments == nf.segments and again.deltas == nf.deltas


def test_normal_form_carry_costs_its_entries_not_its_top_index():
    """The normal-form carry keeps the entries at index ``lattice._BAND``
    (256) and up in a sparse tail, so a shift costs at most the band's 256
    slots plus the tail's entries, not the carry's top index.  Carried in
    one dense list on a 2-core VM, e10000 took 1.5 s down through 10,000
    a^-1, and e5 1.4 s up through 10,000 a, which leave a run of zeros
    after e_0; with the tail each takes about 0.02 s."""
    ctx = GroupCtx.make(3, "rat:1/2")
    ctx.table(10_001)  # the digits are grown beforehand: only the carry is timed
    for text, t_length in (("a^-1 " * 10_000 + "e10000 a e10000^-1", 9_999),
                           ("a " * 10_000 + "e5", 10_000)):
        w = parse_word(text, "extended")
        start = time.process_time()
        form = normal_form(ctx, w)
        assert time.process_time() - start < 0.5
        assert form.t_length == t_length


def test_normal_form_uniqueness_small(ctx23):
    words = [W(s) for s in freely_reduced_words(3)]
    forms = {w: normal_form(ctx23, w) for w in words}
    for u, v in itertools.islice(itertools.combinations(words, 2), 4000):
        same = forms[u] == forms[v]
        assert same == is_trivial(ctx23, u * v.inverse())


# --- cyclic reduction -------------------------------------------------------------

def assert_conjugation(ctx, w, core, conj):
    # g^-1 w g = core
    check = conj.inverse() * w * conj * core.to_word().inverse()
    assert is_trivial(ctx, check)


def test_cyclic_reduce_examples(ctx23):
    core, g = cyclic_reduce(ctx23, W("Aba"))
    assert core.t_length == 0 and core.segments == (E0,)
    assert format_word(g, "extended") == "a^-1"
    assert_conjugation(ctx23, W("Aba"), core, g)

    core, g = cyclic_reduce(ctx23, W("ba"))
    assert core.t_length == 1 and core.segments == (E0, EVec.zero())
    assert g.is_empty

    core, g = cyclic_reduce(ctx23, W("b"))
    assert core.t_length == 0 and core.segments == (E0,)
    assert g.is_empty


def test_cyclic_reduce_random(ctx23):
    rng = random.Random(17)
    for _ in range(120):
        w = random_word(rng, max_len=8)
        core, g = cyclic_reduce(ctx23, w)
        assert_conjugation(ctx23, w, core, g)
        # no wraparound pinch remains
        if core.t_length >= 1:
            assert core.segments[-1].is_zero
            d_last, d_first = core.deltas[-1], core.deltas[0]
            lead = core.segments[0]
            from bslim.lattice import subgroup_membership

            if d_last == 1 and d_first == -1:
                assert not subgroup_membership(ctx23, lead, "EmXi")
            if d_last == -1 and d_first == 1:
                assert not subgroup_membership(ctx23, lead, "E1")


# --- base conjugacy solver ----------------------------------------------------------

def form(segs, deltas):
    return ReducedForm(tuple(segs), tuple(deltas))


def test_solver_identity_case(ctx23):
    u = form([E0, EVec.zero()], [1])
    e = base_conjugacy_solve(ctx23, u, u)
    assert e is not None
    lhs = word_from_evec(e) * u.to_word() * word_from_evec(e).inverse()
    assert is_trivial(ctx23, lhs * u.to_word().inverse())


def test_solver_infeasible(ctx23):
    u = form([E0, EVec.zero()], [1])
    v = form([3 * E0, EVec.zero()], [1])
    assert base_conjugacy_solve(ctx23, u, v) is None


def test_solver_rotated_pair_solvable_directly(ctx23):
    # (0 a e0) and (e0 a 0) are base-conjugate via e = -e0
    u = form([EVec.zero(), E0], [1])
    v = form([E0, EVec.zero()], [1])
    e = base_conjugacy_solve(ctx23, u, v)
    assert e is not None
    lhs = word_from_evec(e) * v.to_word() * word_from_evec(e).inverse()
    assert is_trivial(ctx23, lhs * u.to_word().inverse())


def test_solver_shape_mismatch(ctx23):
    u = form([E0], [])
    with pytest.raises(ShapeMismatch):
        base_conjugacy_solve(ctx23, u, u)
    u = form([E0, EVec.zero()], [1])
    v = form([E0, EVec.zero(), EVec.zero()], [1, -1])
    with pytest.raises(ShapeMismatch):
        base_conjugacy_solve(ctx23, u, v)


@pytest.mark.parametrize("m", [2, 3, -2, 6])
def test_solver_divides_past_every_digit_read(m):
    """Over xi = 0 every digit is 0, so e_n = a^n (|m| e_0) a^-n, and for
    v = a^(n+1) e_0 a^-n the element e_n v (-e_n) has the reduced form
    u = a^n (|m| e_0) a ((1 - |m|) e_0) a^-n.  Every segment is a multiple
    of e_0, so folding the lamp polynomials reads no digit, and the exact
    division (|m| X^n = q(e_n)) is the first read of r_1..r_(n-1)."""
    n, k = 6, abs(m)
    zeros = [EVec.zero()] * n
    v = form([*zeros, EVec.zero(), E0, *zeros], [1] * (n + 1) + [-1] * n)
    u = form([*zeros, k * E0, (1 - k) * E0, *zeros], [1] * (n + 1) + [-1] * n)
    ctx = GroupCtx.make(m, "int:0")
    e = word_from_evec(EVec.basis(n))
    assert is_trivial(ctx, e * v.to_word() * e.inverse() * u.to_word().inverse())
    fresh = GroupCtx.make(m, "int:0")
    assert base_conjugacy_solve(fresh, u, v) == EVec.basis(n)


# --- conjugacy --------------------------------------------------------------------

def assert_witness(ctx, v, w, g):
    assert is_trivial(ctx, g * w * g.inverse() * v.inverse())


def test_conjugate_examples(ctx23):
    g = are_conjugate(ctx23, W("abbA"), W("bb"))
    assert g is not None
    assert_witness(ctx23, W("abbA"), W("bb"), g)

    assert are_conjugate(ctx23, W("b"), W("bb")) is None

    g = are_conjugate(ctx23, W("ab"), W("ba"))
    assert g is not None
    assert_witness(ctx23, W("ab"), W("ba"), g)


def test_conjugate_by_construction(ctx23):
    rng = random.Random(23)
    for _ in range(60):
        w = random_word(rng, max_len=5)
        g = random_word(rng, max_len=5)
        v = g * w * g.inverse()
        found = are_conjugate(ctx23, v, w)
        assert found is not None
        assert_witness(ctx23, v, w, found)


def test_conjugate_symmetry(ctx23):
    rng = random.Random(29)
    for _ in range(60):
        v = random_word(rng, max_len=4)
        w = random_word(rng, max_len=4)
        assert (are_conjugate(ctx23, v, w) is None) == (
            are_conjugate(ctx23, w, v) is None
        )


def test_not_conjugate_distinct_tlength(ctx23):
    assert are_conjugate(ctx23, W("a"), W("aa")) is None
    assert are_conjugate(ctx23, W("b"), W("ab")) is None


@pytest.mark.parametrize("tlength", [24, 28, 32])
def test_stress_class_answers_under_cap(tlength):
    """m = 3, xi = 1/2, all-a^-1 syllables A b^{1..2}: the shapes whose
    dense integer systems ran from seconds to beyond minutes.  Each pair
    must answer within 2 s of process time; over 50 ms is reported."""
    ctx = GroupCtx.make(3, "rat:1/2")
    rng = random.Random(tlength)
    for _ in range(2):
        w = "".join("A" + "b" * rng.randint(1, 2) for _ in range(tlength))
        g = random_word(rng)
        v = g * W(w) * g.inverse()
        for target, positive in ((W(w), True), (W(w + "b"), False)):
            start = time.process_time()
            found = are_conjugate(ctx, v, target)
            spent = time.process_time() - start
            if positive:
                assert found is not None
                assert_witness(ctx, v, target, found)
            else:
                assert found is None
            assert spent < 2.0
            if spent > 0.05:
                print(f"t-length {tlength}, positive={positive}: {spent * 1e3:.0f} ms")


def test_sigma_zero_class_answers_under_cap():
    """m = 3, xi = 1/2, sigma = 0 at t-length 128: 64 a and 64 A shuffled,
    each followed by one to two b or B, conjugated by six random letters.
    The dense integer solve ran past 4 s on pairs 3, 9 and 18 (counting
    from 0); the lift answers each pair within 1 s of process time."""
    ctx = GroupCtx.make(3, "rat:1/2")
    rng = random.Random(1)
    for _ in range(24):
        stable = ["a"] * 64 + ["A"] * 64
        rng.shuffle(stable)
        w = W("".join(x + rng.choice("bB") * rng.randint(1, 2) for x in stable))
        g = W("".join(rng.choice("aAbB") for _ in range(6)))
        v = g * w * g.inverse()
        start = time.process_time()
        found = are_conjugate(ctx, v, w)
        assert time.process_time() - start < 1.0
        assert found is not None
        assert_witness(ctx, v, w, found)


# --- sigma and t-length -------------------------------------------------------------

def test_sigma_tlength_examples(ctx23):
    assert sigma_and_tlength(ctx23, W("abA")) == (0, 2)
    assert sigma_and_tlength(ctx23, W("abbA")) == (0, 0)
    assert sigma_and_tlength(ctx23, W("aab")) == (2, 2)


# --- structural invariants -----------------------------------------------------------

def test_centralizer_of_b_is_base(ctx23):
    # every short word commuting with b lies in the base group
    b = W("b")
    for text in freely_reduced_words(6):
        w = W(text)
        if is_trivial(ctx23, commutator(w, b)):
            assert britton_reduce(ctx23, w).t_length == 0, text


def test_no_relator_shorter_than_defining_one(ctx23):
    # m = 2: the first nontrivial relation has length 10
    for text in freely_reduced_words(9):
        sigma = text.count("a") - text.count("A")
        if sigma != 0:
            continue
        assert not is_trivial(ctx23, W(text)), text
    assert is_trivial(ctx23, W("babbABaBBA"))


def test_word_digit_budget():
    # a compact word of length L needs at most L digits
    from bslim import RDigitBudgetExceeded

    for text in ("abbA", "aabbABA", "babbABaBBA"):
        ctx = GroupCtx.make(2, XiRat(3), budget=len(text))
        is_trivial(ctx, W(text))  # must not raise
    ctx = GroupCtx.make(2, XiSeq((1,)))
    with pytest.raises(RDigitBudgetExceeded):
        is_trivial(ctx, W("aaabbAAA" * 2))


def test_works_with_periodic_digit_spec():
    ctx = GroupCtx.make(2, XiSeq((), (1,)))  # same digits as xi=3
    ctx3 = GroupCtx.make(2, XiRat(3))
    rng = random.Random(31)
    for _ in range(60):
        w = random_word(rng, max_len=7)
        assert is_trivial(ctx, w) == is_trivial(ctx3, w)


# --- witness verification -------------------------------------------------------

def test_wrong_witness_is_rejected(ctx23, monkeypatch):
    monkeypatch.setattr(bslim.group, "base_conjugacy_solve", lambda ctx, u, v: E0)
    with pytest.raises(WitnessCheckFailed):
        are_conjugate(ctx23, W("a"), W("a"))  # b a b^-1 != a


def test_wrong_witness_is_rejected_under_optimize():
    # the check must survive python -O, which strips assert statements
    script = (
        "assert False, 'assert statements are not stripped'\n"
        "import bslim.group as g\n"
        "from bslim import EVec, GroupCtx, WitnessCheckFailed, XiRat\n"
        "g.base_conjugacy_solve = lambda ctx, u, v: EVec.basis(0)\n"
        "try:\n"
        "    g.are_conjugate(GroupCtx.make(2, XiRat(3)), g.parse_word('a'), g.parse_word('a'))\n"
        "except WitnessCheckFailed:\n"
        "    print('rejected')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(bslim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


@pytest.mark.parametrize("call, message", [
    (lambda: ALetter(2), "stable-letter exponents are +-1"),
    (lambda: parse_word("ab", "bogus"), "unknown mode 'bogus'"),
    (lambda: format_word(parse_word("ab"), "bogus"), "unknown mode 'bogus'"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
