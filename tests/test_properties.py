"""Property tests of the conjugacy decision, derandomized so every run
draws the same examples.

For random words w and g over {a, b}: g w g^-1 is conjugate to w, through
a witness the word problem confirms; and g w g^-1 is never conjugate to
w b.  The proof of the second: the wreath image (P, sigma) of an element
has P(1) invariant under conjugation, since conjugating by (Q, s) gives
(X^s P + (1 - X^sigma) Q, sigma) and both X^s and 1 - X^sigma are
constants at X = 1, while the image of w b has P(1) + 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bslim.group import are_conjugate, is_trivial, parse_word
from bslim.lattice import GroupCtx
from bslim.morphisms import wreath_image

CASES = [(2, "int:3"), (3, "rat:1/2"), (5, "int:7"), (-3, "rseq:2,1;0,1,2")]
CTXS = {case: GroupCtx.make(*case) for case in CASES}

words = st.text(alphabet="aAbB", max_size=14)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
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
