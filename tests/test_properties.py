"""Property tests of the conjugacy decision, derandomized so every run
draws the same examples (the profile in conftest.py).

For random words w and g over {a, b}: g w g^-1 is conjugate to w, through
a witness the word problem confirms; and g w g^-1 is never conjugate to
w b.  The proof of the second: the wreath image (P, sigma) of an element
has P(1) invariant under conjugation, since conjugating by (Q, s) gives
(X^s P + (1 - X^sigma) Q, sigma) and both X^s and 1 - X^sigma are
constants at X = 1, while the image of w b has P(1) + 1.

The lamp screen of are_conjugate therefore rejects every rotation of
w b's core before the base solver runs: when sigma != 0, P(1) is also the
sum of the residues of P mod X^sigma - 1, and a cyclic shift of the
residues keeps their sum; when sigma = 0, the screen compares the lamp
polynomials themselves, and a shift by X^s keeps P(1).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bslim import group
from bslim.group import are_conjugate, is_trivial, parse_word
from bslim.lattice import GroupCtx
from bslim.morphisms import wreath_image

CASES = [(2, "int:3"), (3, "rat:1/2"), (5, "int:7"), (-3, "rseq:2,1;0,1,2")]
CTXS = {case: GroupCtx.make(*case) for case in CASES}

words = st.text(alphabet="aAbB", max_size=14)


@given(w=words, g=words, case=st.sampled_from(CASES))
def test_conjugates_have_verified_witnesses(w, g, case):
    ctx = CTXS[case]
    ww, gw = parse_word(w), parse_word(g)
    v = gw * ww * gw.inverse()
    found = are_conjugate(ctx, v, ww)
    assert found is not None
    assert is_trivial(ctx, found * ww * found.inverse() * v.inverse())

    wb = ww * parse_word("b")
    lamps_v, lamps_wb = wreath_image(ctx, v).poly, wreath_image(ctx, wb).poly
    assert sum(lamps_wb.coeffs) == sum(lamps_v.coeffs) + 1  # P(1) differs
    assert are_conjugate(ctx, v, wb) is None


@given(w=words, g=words, case=st.sampled_from(CASES))
def test_residue_screen_rejects_w_b_without_solving(w, g, case):
    """P(1) differs between g w g^-1 and w b, and neither a cyclic shift of
    the residues (sigma != 0) nor a shift by X^s (sigma = 0) changes it."""
    ctx = CTXS[case]
    ww, gw = parse_word(w), parse_word(g)
    v = gw * ww * gw.inverse()
    solve, calls = group.base_conjugacy_solve, []

    def counting_solve(*args):
        calls.append(args)
        return solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group, "base_conjugacy_solve", counting_solve)
        assert are_conjugate(ctx, v, ww * parse_word("b")) is None
    assert not calls
