"""Certifying checks of conjugacy witnesses and normal forms (McConnell,
Mehlhorn, Naeher & Schweitzer, "Certifying algorithms", Computer Science
Review, 2011): each answer is re-checked by a small checker that shares
nothing with the Britton reader that found it but the letters.

A witness g of ``are_conjugate(ctx, v, w)`` makes g w g^-1 v^-1 trivial,
and a normal form makes nf(w) w^-1 trivial.  Each such word goes through
``markedspace.word_to_compact`` to a word over {a, b} of length L, and
``bsclassic.bs_is_trivial`` decides it in BS(|m|, n) = <a, b | a b^|m| a^-1
= b^n> for n = (xi mod |m|^K) + |m|^K, K = floor(L/2) + 1, xi normalized
for m < 0: the rule of the benchmark's ``bs_sample`` check.

Why that n is enough.  Its first K digits are xi's (checked below), so
with n s_{i-1} = |m| s_i + r_i, n's own digit recurrence, psi(e_0) = 1 and
psi(e_i) = n s_{i-1} give psi(a x a^-1) = psi(x) n/|m| for x in E_{m,xi} of
support below K; psi(x) = q(x)(n/|m|), as q(e_i) = X P_{i-1}(X) and
s_{i-1} = P_{i-1}(n/|m|)/|m|.  Britton reduction of L letters nests at most
(L - 1)/2 deep, so every segment x that it builds has support below K and
stands for a subword u of w that equals b^psi(x) in BS(|m|, n).  So:

- a word trivial in the limit group is trivial in BS(|m|, n): each pinch
  maps to a pinch;
- a word that is not stays so, as the reduced form's image is reduced.
  psi(x) is x's E_{m,xi} value mod |m|, so a x a^-1 pinches in both groups
  or in neither.  q(x) is u's lamp polynomial, so its coefficients sum in
  size to at most u's b letters, at most L - 2 deg q(x), and x's e_0
  coefficient q(x)(0) is below |m|^K <= n in size: n divides it only when
  it is 0, the E_1 test of a^-1 x a.  A reduced form with no stable
  letter is one segment x != 0: for d = deg q(x) >= 1 the roots of q(x)
  lie within L - 2d < |m|^(K-1) <= n/|m| (Cauchy's bound), so
  psi(x) != 0; for d = 0, psi(x) = q(x) != 0.

A wrong reducer can answer with a witness that its own word problem
accepts; this check does not share the reducer, so it fails there.
"""

import random

import pytest

from bslim.bsclassic import BSSpec, bs_is_trivial
from bslim.group import are_conjugate, normal_form, parse_word
from bslim.lattice import GroupCtx
from bslim.markedspace import word_to_compact

from test_properties import realizing_n

GROUPS = [(2, "int:3"), (3, "int:5"), (4, "int:3"), (6, "int:5"), (3, "rat:1/2"), (-4, "int:1"),
          (6, "int:7")]


def trivial_in_bs(ctx, w):
    """w's verdict in BS(|m|, n) for the n of its compact length."""
    text = word_to_compact(ctx, w)
    k = len(text) // 2 + 1
    n = realizing_n(ctx, k)
    assert GroupCtx.make(ctx.m_abs, f"int:{n}").digits(k) == ctx.digits(k)
    return bs_is_trivial(BSSpec(ctx.m_abs, n), parse_word(text)), len(text)


def random_word(rng, sigma_zero):
    """Up to 10 letters over {a, A, b, B}; with sigma = 0, or with sigma != 0."""
    while True:
        text = "".join(rng.choices("aAbB", k=rng.randint(1, 10)))
        if (text.count("a") == text.count("A")) == sigma_zero:
            return text


@pytest.mark.parametrize("m,xi", GROUPS)
def test_witnesses_and_normal_forms_hold_in_classical_bs(m, xi):
    ctx = GroupCtx.make(m, xi)
    rng = random.Random(f"certify{m}{xi}")
    longest, sigmas = 0, set()
    for j in range(100):
        w = parse_word(random_word(rng, j % 2 == 0))
        g = parse_word("".join(rng.choices("aAbB", k=rng.randint(0, 6))))
        v = g * w * g.inverse()
        found = are_conjugate(ctx, v, w)
        assert found is not None
        for check in (found * w * found.inverse() * v.inverse(),
                      normal_form(ctx, w).to_word() * w.inverse(),
                      normal_form(ctx, v).to_word() * v.inverse()):
            ok, length = trivial_in_bs(ctx, check)
            assert ok, (v, w, check)
            longest = max(longest, length)
        sigmas.add(normal_form(ctx, w).sigma != 0)
    assert sigmas == {False, True} and longest > 20, (sigmas, longest)
