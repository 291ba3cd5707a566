"""Differential and dual-route checks that tie independent code paths
together: limit-group reduction against classical BS reduction, the
up-shift count against an exact valuation, conjugacy against a
meet-in-the-middle brute-force oracle on several parameter kinds."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from bslim import XiRat
from bslim.bsclassic import BSSpec, bs_is_trivial
from bslim.group import are_conjugate, is_trivial, normal_form, parse_word
from bslim.lattice import (
    CAP_REACHED,
    EVec,
    GroupCtx,
    _down,
    _up,
    _up_split,
    fixed_interval,
    q_poly,
)
from bslim.madic import MarkedGroupSpec, p_polys, r_digits

W = parse_word
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def freely_reduced_words(max_len):
    yield ""
    frontier = [""]
    for _ in range(max_len):
        new = []
        for w in frontier:
            for ch in "aAbB":
                if w and _INVERSE[w[-1]] == ch:
                    continue
                new.append(w + ch)
        yield from new
        frontier = new


def test_random_long_words_against_bs():
    # xi_n = 3 mod 64 with |xi_n| >= 64 agree with xi = 3 up to length 12
    ctx = GroupCtx.make(2, XiRat(3))
    rng = random.Random(12)
    specs = [BSSpec(2, 67), BSSpec(2, 131)]
    for _ in range(2500):
        text = "".join(rng.choice("aAbB") for _ in range(rng.randrange(13)))
        w = W(text)
        expect = is_trivial(ctx, w)
        for spec in specs:
            assert bs_is_trivial(spec, w) == expect, (spec, text)


def _ball(ctx, w, depth):
    gens = [W(c) for c in "aAbB"]
    start = normal_form(ctx, w)
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        new = []
        for form in frontier:
            base = form.to_word()
            for s in gens:
                cand = normal_form(ctx, s * base * s.inverse())
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
        frontier = new
    return seen


@pytest.mark.parametrize(
    "m,xi", [(3, XiRat(1, 2)), (4, XiRat(6)), (2, XiRat(0))]
)
def test_conjugacy_vs_brute_small(m, xi):
    # conjugator of length <= 6 exists iff depth-3 balls intersect
    ctx = GroupCtx(MarkedGroupSpec(m, xi))
    words = [W(t) for t in freely_reduced_words(3)]
    balls = [_ball(ctx, w, 3) for w in words]
    for (u, bu), (w, bw) in itertools.combinations(zip(words, balls), 2):
        brute = not bu.isdisjoint(bw)
        found = are_conjugate(ctx, u, w)
        if brute:
            assert found is not None, (m, xi, u, w)
        if found is not None:
            assert is_trivial(ctx, found * w * found.inverse() * u.inverse())


@pytest.mark.parametrize("m,xi", [(3, XiRat(1, 2)), (4, XiRat(6))])
def test_normal_form_uniqueness_other_groups(m, xi):
    ctx = GroupCtx(MarkedGroupSpec(m, xi))
    words = [W(t) for t in freely_reduced_words(4)]
    forms = [normal_form(ctx, w) for w in words]
    rng = random.Random(5)
    pairs = list(itertools.combinations(range(len(words)), 2))
    for i, j in rng.sample(pairs, 4000):
        same = forms[i] == forms[j]
        assert same == is_trivial(ctx, words[i] * words[j].inverse())


def test_mu_equals_two_adic_valuation():
    # for m = 2, xi = 3: the up-shift count of x equals the 2-adic
    # valuation of q(x) evaluated at xi/m (dual route for the band height)
    ctx = GroupCtx.make(2, XiRat(3))
    x_val = Fraction(3, 2)
    rng = random.Random(9)

    def val2(fr):
        if fr == 0:
            return None
        v, num = 0, abs(fr.numerator)
        while num % 2 == 0:
            num //= 2
            v += 1
        den = fr.denominator
        while den % 2 == 0:
            den //= 2
            v -= 1
        return v

    for _ in range(120):
        x = EVec.from_items({i: rng.randrange(-4, 5) for i in rng.sample(range(5), 3)})
        if x.is_zero:
            continue
        poly = q_poly(ctx, x)
        chi = sum(c * x_val**e for e, c in enumerate(poly.coeffs))
        mu, nu = fixed_interval(ctx, x, cap=40)
        assert nu == poly.x_valuation()
        v = val2(chi)
        if v is None:
            assert mu is CAP_REACHED
        else:
            assert mu == max(v, 0), (x, chi)


def test_q_poly_matches_p_polys():
    for m, xi in [(2, XiRat(3)), (3, XiRat(1, 2)), (5, XiRat(7))]:
        spec = MarkedGroupSpec(m, xi)
        ctx = GroupCtx(spec)
        ps = p_polys(spec, 6)
        for i in range(1, 7):
            q = q_poly(ctx, EVec.basis(i))
            assert q.coeffs == (0,) + ps[i - 1].coeffs  # X * P_{i-1}


def test_digit_stream_thread_safety():
    # concurrent readers of one shared context agree with the sequential run
    ctx_seq = GroupCtx.make(2, XiRat(5, 3))
    words = [W(t) for t in freely_reduced_words(6)][:400]
    expect = [is_trivial(ctx_seq, w) for w in words]

    shared = GroupCtx.make(2, XiRat(5, 3))
    results = {}

    def worker(idx):
        out = []
        for w in words:
            out.append(is_trivial(shared, w))
        results[idx] = out

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in results.values():
        assert out == expect


def test_digit_table_growth_under_thread_switching():
    # many threads grow one shared table and stream at once; a lost or
    # doubled append would shift every later digit
    expect = [1] + r_digits(MarkedGroupSpec(3, XiRat(5, 7)), 400)
    ctx = GroupCtx.make(3, XiRat(5, 7))
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                k = rng.randint(1, 400)
                if ctx.table(k)[k] != expect[k] or ctx.digit(k) != expect[k]:
                    errors.append(k)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert ctx.rs == expect[: len(ctx.rs)]
    assert ctx.digits(400) == expect[1:]


def test_fresh_tables_grow_once_under_a_barrier_start():
    # six threads released at once all grow the same fresh table; without
    # the stream's lock two of them store the same index and shift the rest
    spec = MarkedGroupSpec(3, XiRat(5, 7))
    expect = [1] + r_digits(spec, 300)
    errors = []

    def worker(ctx, barrier):
        try:
            barrier.wait(timeout=60)
            if ctx.table(300)[:301] != expect:
                errors.append("read")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            ctx, barrier = GroupCtx(spec), threading.Barrier(6)
            threads = [threading.Thread(target=worker, args=(ctx, barrier)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            if ctx.rs != expect:
                errors.append("table")
    finally:
        sys.setswitchinterval(old)
    assert not errors


def test_kernels_read_fresh_tables_under_a_barrier_start():
    # the kernels index the shared table without growing it first: six
    # threads released at once on a fresh context race each read past its
    # end, and must still see every digit and grow the table once
    spec = MarkedGroupSpec(3, XiRat(5, 7))
    segs = [{1: k, 2 * k: 2, 3 * k: -1} for k in range(1, 101)]  # up to e_300
    ref_ctx = GroupCtx(spec)
    expect = [(_up(ref_ctx, s), _up_split(ref_ctx, s), _down(ref_ctx, s)) for s in segs]
    errors = []

    def worker(ctx, barrier):
        try:
            barrier.wait(timeout=60)
            if [(_up(ctx, s), _up_split(ctx, s), _down(ctx, s)) for s in segs] != expect:
                errors.append("answer")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            ctx, barrier = GroupCtx(spec), threading.Barrier(6)
            threads = [threading.Thread(target=worker, args=(ctx, barrier)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            if ctx.rs != ref_ctx.rs:
                errors.append("table")
    finally:
        sys.setswitchinterval(old)
    assert not errors
