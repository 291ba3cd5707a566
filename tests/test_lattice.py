import itertools
import random
import time

import pytest

from bslim import PinchDomainViolation, RDigitStream, XiRat, ZeroElement, ParseError
from bslim.lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    IntPoly,
    _down,
    _up,
    _up_split,
    a_conjugate,
    fixed_interval,
    format_evec,
    parse_evec,
    phi_apply,
    q_poly,
    subgroup_membership,
)

E0 = EVec.basis(0)
E1 = EVec.basis(1)
E2 = EVec.basis(2)


@pytest.fixture
def ctx23():
    # m = 2, xi = 3: digits r = (1, 1, 1, ...)
    return GroupCtx.make(2, XiRat(3))


# --- EVec ------------------------------------------------------------------

def test_evec_algebra():
    v = EVec.from_items({0: 2, 3: -1})
    w = EVec.from_items({0: -2, 1: 5})
    assert (v + w).to_dict() == {1: 5, 3: -1}
    assert (v - v).is_zero
    assert (-v).to_dict() == {0: -2, 3: 1}
    assert (3 * v).to_dict() == {0: 6, 3: -3}
    assert (0 * v).is_zero
    assert v.coeff(0) == 2 and v.coeff(7) == 0
    assert v.max_index() == 3 and EVec.zero().max_index() == -1
    assert EVec.basis(3, 0) == EVec() and EVec.basis(2, -4).to_dict() == {2: -4}
    with pytest.raises(ValueError):
        EVec.basis(-1)


def test_evec_structural_equality():
    assert EVec.from_items([(1, 2), (1, -2)]) == EVec.zero()
    assert EVec.from_items({2: 1, 0: 3}) == EVec.from_items([(0, 3), (2, 1)])
    assert hash(EVec.basis(1)) == hash(EVec.from_items({1: 1}))


@pytest.mark.parametrize(
    "text,items",
    [
        ("", {}),
        ("e0^2 e3^-1", {0: 2, 3: -1}),
        ("e1", {1: 1}),
        ("e2^-4 e2^3", {2: -1}),
    ],
)
def test_evec_grammar(text, items):
    assert parse_evec(text) == EVec.from_items(items)


def test_evec_grammar_roundtrip():
    v = EVec.from_items({0: -2, 5: 1, 9: 7})
    assert parse_evec(format_evec(v)) == v
    assert format_evec(EVec.zero()) == ""


@pytest.mark.parametrize("text", ["x1", "e", "e1^", "e1^0", "e^2", "e1^+ e2"])
def test_evec_grammar_errors(text):
    with pytest.raises(ParseError):
        parse_evec(text)


# --- membership -------------------------------------------------------------

def test_membership_examples(ctx23):
    assert subgroup_membership(ctx23, E1 - E0, "EmXi")
    assert not subgroup_membership(ctx23, E0, "E1")
    assert subgroup_membership(ctx23, 3 * E1 - E0, "EmXi")
    assert not subgroup_membership(ctx23, E0, "EmXi")
    assert subgroup_membership(ctx23, 2 * E0, "EmXi")
    assert subgroup_membership(ctx23, E1, "E1")


def test_membership_closed_under_group_ops(ctx23):
    rng = random.Random(7)
    members = []
    for _ in range(40):
        v = EVec.from_items(
            {i: rng.randrange(-3, 4) for i in rng.sample(range(6), 3)}
        )
        # adjust e_0 coefficient into the subgroup
        val = sum(c * (ctx23.digit(i) if i else 1) for i, c in v.entries)
        v = v - (val % 2) * E0
        assert subgroup_membership(ctx23, v, "EmXi")
        members.append(v)
    for u, v in itertools.islice(itertools.combinations(members, 2), 50):
        assert subgroup_membership(ctx23, u + v, "EmXi")
        assert subgroup_membership(ctx23, -u, "EmXi")


def test_membership_index_m_cosets(ctx23):
    # the vectors j*e_0 (0 <= j < m) hit every coset of E_{m,xi}
    m = ctx23.m_abs
    rng = random.Random(11)
    for _ in range(30):
        v = EVec.from_items({i: rng.randrange(-4, 5) for i in range(4)})
        hits = [j for j in range(m) if subgroup_membership(ctx23, v - j * E0, "EmXi")]
        assert len(hits) == 1


# --- phi -------------------------------------------------------------------

def test_phi_examples(ctx23):
    assert phi_apply(ctx23, E1, "down") == 2 * E0
    assert phi_apply(ctx23, E2, "down") == E1 - E0
    assert phi_apply(ctx23, 2 * E0, "up") == E1


def test_phi_domain_errors(ctx23):
    with pytest.raises(PinchDomainViolation):
        phi_apply(ctx23, E0, "down")
    with pytest.raises(PinchDomainViolation):
        phi_apply(ctx23, E0, "up")


def test_phi_roundtrips(ctx23):
    rng = random.Random(3)
    for _ in range(50):
        v = EVec.from_items(
            {i: rng.randrange(-5, 6) for i in rng.sample(range(1, 7), 3)}
        )
        assert phi_apply(ctx23, phi_apply(ctx23, v, "down"), "up") == v
        w = phi_apply(ctx23, v, "down")
        assert phi_apply(ctx23, phi_apply(ctx23, w, "up"), "down") == w


def test_phi_q_equivariance(ctx23):
    # X * q(down(y)) = q(y) on E_1, and q(up(z)) = X * q(z) on E_{m,xi}
    rng = random.Random(5)
    for _ in range(40):
        y = EVec.from_items(
            {i: rng.randrange(-4, 5) for i in rng.sample(range(1, 6), 2)}
        )
        qy = q_poly(ctx23, y)
        down = q_poly(ctx23, phi_apply(ctx23, y, "down"))
        assert (0,) + down.coeffs == qy.coeffs or (down.is_zero and qy.is_zero)
        z = phi_apply(ctx23, y, "down")
        assert q_poly(ctx23, phi_apply(ctx23, z, "up")).coeffs == (
            ((0,) + q_poly(ctx23, z).coeffs) if not q_poly(ctx23, z).is_zero else ()
        )


# --- a_conjugate -------------------------------------------------------------

def test_a_conjugate_examples(ctx23):
    assert a_conjugate(ctx23, 2 * E0, 1) == E1
    assert a_conjugate(ctx23, E0, 1) is None
    assert a_conjugate(ctx23, E1, -1) == 2 * E0


def test_a_conjugate_inverse_property(ctx23):
    rng = random.Random(13)
    for _ in range(40):
        v = EVec.from_items(
            {i: rng.randrange(-3, 4) for i in rng.sample(range(5), 2)}
        )
        for n in (-2, -1, 1, 2):
            w = a_conjugate(ctx23, v, n)
            if w is not None:
                assert a_conjugate(ctx23, w, -n) == v


# --- q_poly ------------------------------------------------------------------

def test_q_poly_examples(ctx23):
    assert q_poly(ctx23, E0).coeffs == (1,)
    assert q_poly(ctx23, E1).coeffs == (0, 2)
    assert q_poly(ctx23, E2).coeffs == (0, -1, 2)
    assert q_poly(ctx23, EVec.zero()).is_zero


def test_q_poly_additive_injective(ctx23):
    # additivity and injectivity over the enumerated box: support 4,
    # coefficients in [-3, 3]
    seen = set()
    for coeffs in itertools.product(range(-3, 4), repeat=4):
        v = EVec.from_items(dict(enumerate(coeffs)))
        p = q_poly(ctx23, v).coeffs
        assert p not in seen, "q must be injective"
        seen.add(p)
    rng = random.Random(1)
    for _ in range(30):
        u = EVec.from_items({i: rng.randrange(-3, 4) for i in range(4)})
        v = EVec.from_items({i: rng.randrange(-3, 4) for i in range(4)})
        assert q_poly(ctx23, u + v) == q_poly(ctx23, u) + q_poly(ctx23, v)


def test_int_poly_normalization():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0)).is_zero and IntPoly().degree == -1
    assert IntPoly((0, 0, 3)).x_valuation() == 2


def test_int_poly_strips_a_long_run_of_zeros_in_one_pass():
    """IntPoly drops its top zeros in one pass, as LaurentPoly does.  Sliced
    once per zero on a 2-core VM, 40,000 zeros took 2.6 s, and a sum of two
    images that cancels the top 20,000 coefficients 0.74 s."""
    ctx = GroupCtx.make(2, "int:3")
    far = EVec.basis(20_000)
    for build in (lambda: IntPoly((1,) + (0,) * 40_000),
                  lambda: q_poly(ctx, far) + q_poly(ctx, E0 - far)):
        start = time.process_time()
        poly = build()
        assert time.process_time() - start < 0.5
        assert poly.coeffs == (1,)


# --- fixed interval -----------------------------------------------------------

def test_fixed_interval_examples(ctx23):
    assert fixed_interval(ctx23, E0, cap=10) == (0, 0)
    assert fixed_interval(ctx23, E1, cap=10) == (0, 1)
    assert fixed_interval(ctx23, 2 * E0, cap=10) == (1, 0)
    with pytest.raises(ZeroElement):
        fixed_interval(ctx23, EVec.zero())


def test_fixed_interval_cap_reached():
    # xi = 0: q(e_1) = 2X vanishes at xi/m = 0, so up-shifts never stop
    ctx = GroupCtx.make(2, XiRat(0))
    mu, nu = fixed_interval(ctx, E1, cap=12)
    assert mu is CAP_REACHED
    assert nu == 1


def test_fixed_interval_default_cap_is_64(ctx23):
    # mu is the 2-adic valuation of q(x)(xi/m), which is 2^k for x = 2^k e_0
    assert fixed_interval(ctx23, 2**63 * E0) == (63, 0)
    assert fixed_interval(ctx23, 2**64 * E0) == (CAP_REACHED, 0)


def test_digit_budget_rule():
    # an operation touching max support index k reads at most k digits
    from bslim import RDigitBudgetExceeded

    ctx = GroupCtx.make(2, XiRat(3), budget=3)
    v = EVec.from_items({0: 1, 3: 1})
    assert subgroup_membership(ctx, v, "EmXi")  # reads r_1..r_3 only
    assert q_poly(ctx, EVec.basis(3)).degree == 3
    with pytest.raises(RDigitBudgetExceeded):
        subgroup_membership(ctx, EVec.basis(4), "EmXi")


def test_digit_table_grows_in_index_order():
    # the budget error names the first missing index, not the first one read
    from bslim import RDigitBudgetExceeded

    ctx = GroupCtx.make(2, XiRat(3), budget=3)
    with pytest.raises(RDigitBudgetExceeded) as info:
        _up_split(ctx, {6: 1, 4: 1})
    assert info.value.index == 4
    assert ctx.rs == [1, 1, 1, 1]  # rs[0] = 1 is the weight of e_0


@pytest.mark.parametrize(
    "kernel,seg,size",
    [(_up, {0: 2, 5: 1, 2: 1}, 6), (_up_split, {3: 1}, 4), (_down, {1: 2, 6: 1}, 6), (_down, {1: 3}, 1)],
)
def test_kernels_grow_the_table_on_a_read_past_its_end(kernel, seg, size):
    # as far as a pre-grown table would reach: rs[max(seg)] for the up
    # kernels, rs[max(seg) - 1] for _down, and nothing for _down of m e_0
    ctx = GroupCtx.make(3, "rat:5/7")
    kernel(ctx, seg)
    assert len(ctx.rs) == size


@pytest.mark.parametrize("kernel", [_up, _up_split, _down])
def test_kernel_budget_names_the_first_missing_index(kernel):
    from bslim import RDigitBudgetExceeded

    ctx = GroupCtx.make(2, XiRat(3), budget=3)
    with pytest.raises(RDigitBudgetExceeded) as info:
        kernel(ctx, {1: 2, 6: 1, 5: 1})
    assert info.value.index == 4
    assert ctx.rs == [1, 1, 1, 1]


UP_5E1_E9 = {1: 3, 2: 5, 10: 1}  # m = 2, r = 1, 1, ...: 5 e_1 + e_9 has value 6


@pytest.mark.parametrize(
    "kernel,answer", [(_up, UP_5E1_E9), (_up_split, (0, UP_5E1_E9)), (_down, {0: 9, 8: 1})]
)
def test_kernel_redoes_its_pass_after_growing(kernel, answer):
    # on a table that holds r_1 but not r_9 (or r_8), the e_1 term is
    # summed before a read runs past its end; the pass after the growth
    # starts again from zero, so the answer is the pre-grown table's
    for grown_to in (0, 4, 9):
        ctx = GroupCtx.make(2, XiRat(3))
        ctx.table(grown_to)
        assert kernel(ctx, {1: 5, 9: 1}) == answer


def test_context_shares_the_stream_table():
    # the context is the digit stream, so the kernels' table is the stream's
    ctx = GroupCtx.make(3, "rseq:2,1;0,1,2")
    assert isinstance(ctx, RDigitStream)
    assert ctx.table(7) is ctx.rs
    assert ctx.rs == [1, 2, 1, 0, 1, 2, 0, 1]
    assert ctx.digits(7) == ctx.rs[1:]


def test_fixed_interval_counts_up_shifts(ctx23):
    # 4 e_0 allows exactly two up-shifts for m=2, xi=3:
    # 4e_0 -> 2e_1 -> e_1 + e_2 (value 2 -> not divisible... check by oracle)
    mu, nu = fixed_interval(ctx23, 4 * E0, cap=20)
    v = 4 * E0
    count = 0
    while subgroup_membership(ctx23, v, "EmXi"):
        v = phi_apply(ctx23, v, "up")
        count += 1
    assert mu == count and nu == 0


@pytest.mark.parametrize("call, message", [
    (lambda ctx: EVec.from_items([(-1, 1)]), "basis indices are nonnegative"),
    (lambda ctx: subgroup_membership(ctx, EVec.basis(0, 2), "E2"), "unknown subgroup 'E2'"),
    (lambda ctx: phi_apply(ctx, EVec.basis(0, 2), "sideways"), "unknown direction 'sideways'"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call(GroupCtx.make(2, "int:3"))
    assert str(info.value) == message
