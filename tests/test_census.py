"""A census of labelled Cayley balls: ν by a route that shares no code with
the enumeration of ``markedspace.shortest_distinguishing``.

Two marked groups are within e^-ν when every word shorter than ν is a
relation of both or of neither, that is when their Cayley graphs,
labelled by the generators, agree on balls of radius about ν/2
(Grigorchuk 1984; Champetier & Guirardel, "Limit groups as limits of free
groups", Israel J. Math., 2005).  The census walks both graphs breadth
first, one sphere at a time, keying each vertex by its ``normal_form``.
A vertex is labelled by the first word that reaches it, extending the
last sphere's labels by a, A, b, B in that order, so the label is the
shortlex-least word of the element.  At each vertex u of the sphere of
radius d it compares the labels of u a, u A, u b and u B in both groups.

Why the first sphere that differs gives ν exactly.  If the tables agree at
every vertex of radius below d, every edge with an end at radius below d
agrees, and a closed path of at most 2d letters uses only such edges (an
edge between two vertices of radius d takes d + 1 + d letters to close),
so no word of 2d letters or fewer tells the groups apart: ν > 2d.  At
radius d, let u g reach x in one group and y != x in the other.  Neither
has length d - 1, as its own table, which agrees, would reach u; so
u g x^-1 and u g y^-1, each trivial in its own group, have 2d + 1 or
2d + 2 letters, and one of them is trivial in exactly one group: if
u g = x held in the second group too, its least word y would come before
x, and the other way round.  A word trivial in a limit group dies in
Z wr Z, which every limit group maps onto, so both its exponent sums are
0 and its length is even: ν = 2d + 2.  If the tables agree below radius R,
ν > 2R.

Each edge that closes onto a known vertex is a relation of its group,
checked with ``is_trivial`` and, through ``bs_is_trivial``, in BS(|m|, n)
for an n realizing enough of its digits (the certifier of
``test_certifying``); each splitting word is checked both ways in both
groups.
"""

import pytest

from bslim.group import format_word, is_trivial, normal_form, parse_word
from bslim.lattice import GroupCtx
from bslim.markedspace import shortest_distinguishing

from test_certifying import trivial_in_bs

GENERATORS = "aAbB"
INVERSE = dict(zip("aAbB", "AaBb"))


def inverse(word: str) -> str:
    return "".join(INVERSE[x] for x in reversed(word))


class Ball:
    """The labelled Cayley ball of one marked group, grown a sphere at a time."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.label = {normal_form(ctx, parse_word("")): ""}
        self.sphere = [""]
        self.sizes = [1]

    def grow(self) -> list[tuple[str, ...]]:
        """The edge table of the outer sphere: for each of its vertices, in
        order, the labels of its targets under a, A, b and B.  The targets
        first reached here make the next sphere."""
        table, nxt = [], []
        for u in self.sphere:
            row = []
            for g in GENERATORS:
                x = self.label.setdefault(normal_form(self.ctx, parse_word(u + g)), u + g)
                if x == u + g:
                    nxt.append(x)
                else:  # the edge closes onto a known vertex: a relation of the group
                    relation = parse_word(u + g + inverse(x))
                    assert is_trivial(self.ctx, relation), (u, g, x)
                    assert trivial_in_bs(self.ctx, relation)[0], (u, g, x)
                row.append(x)
            table.append(tuple(row))
        self.sphere = nxt
        self.sizes.append(len(nxt))
        return table


def census(ctx1, ctx2, radius: int):
    """(ν, a splitting word of that length) from the first sphere below
    ``radius`` whose edge tables differ, or (None, None) if none does; and
    the two balls, whose ``sizes`` are their sphere sizes."""
    balls = Ball(ctx1), Ball(ctx2)
    for d in range(radius):
        sphere = balls[0].sphere  # the same in both, as every table so far agreed
        rows = zip(sphere, *(ball.grow() for ball in balls))
        split = [w for u, row1, row2 in rows
                 for g, x, y in zip(GENERATORS, row1, row2) if x != y
                 for w in (u + g + inverse(x), u + g + inverse(y))
                 if is_trivial(ctx1, parse_word(w)) != is_trivial(ctx2, parse_word(w))]
        if split:
            # a splitting word dies in Z wr Z, so its length is even: 2d + 2
            assert {len(w) for w in split} == {2 * d + 2}, split
            return 2 * d + 2, split[0], balls
    return None, None, balls


def assert_splits(ctx1, ctx2, text):
    """``text`` is trivial in exactly one group, and so it is in the classical
    groups BS(|m|, n) that realize enough digits of each."""
    w = parse_word(text)
    verdicts = [is_trivial(ctx, w) for ctx in (ctx1, ctx2)]
    assert verdicts[0] != verdicts[1], text
    assert [trivial_in_bs(ctx, w)[0] for ctx in (ctx1, ctx2)] == verdicts, text


def check_census(first, second, radius):
    """The census's ν against ``shortest_distinguishing`` up to 2 * radius;
    returns the two balls."""
    ctx1, ctx2 = GroupCtx.make(*first), GroupCtx.make(*second)
    nu, word, balls = census(ctx1, ctx2, radius)
    found = shortest_distinguishing(ctx1, ctx2, 2 * radius)
    assert (found and found[0]) == nu
    if nu is not None:
        assert_splits(ctx1, ctx2, word)
        assert_splits(ctx1, ctx2, format_word(found[1], "compact"))
    return nu, balls


SPHERES = {  # the sphere sizes of int:1 through radius 8
    2: [1, 4, 12, 36, 108, 314, 906, 2614, 7478],
    3: [1, 4, 12, 36, 108, 324, 960, 2836, 8384],
}


@pytest.mark.parametrize("first, second, nu", [
    ((2, "int:1"), (2, "int:3"), None),
    ((2, "int:1"), (2, "int:2"), 14),
    ((3, "int:1"), (3, "int:3"), 16),
    ((2, "int:1"), (3, "int:1"), 10),
], ids=["m2-int1-int3", "m2-int1-int2", "m3-int1-int3", "m2-m3-int1"])
def test_census_gives_the_enumeration_nu(first, second, nu):
    """At radius 8 the census certifies ν > 16 or finds it, and agrees
    with ``shortest_distinguishing(c1, c2, 16)``."""
    found, balls = check_census(first, second, 8)
    assert found == nu
    # the first group is always int:1; the second's sphere at radius nu / 2 may differ
    assert balls[0].sizes == SPHERES[first[0]][: len(balls[0].sizes)]
    agree = len(balls[1].sizes) if nu is None else nu // 2
    assert balls[1].sizes[:agree] == SPHERES[second[0]][:agree]


@pytest.mark.slow
@pytest.mark.parametrize("xi2, nu", [("int:3", 20), ("int:5", None)])
def test_census_at_radius_10(xi2, nu):
    """The h = 1 pair over m = 2 splits at ν = 20, and the h = 2 pair
    agrees through radius 10, so its ν is over 20."""
    found, balls = check_census((2, "int:1"), (2, xi2), 10)
    assert found == nu
    if nu is None:
        assert balls[0].sizes == balls[1].sizes == SPHERES[2] + [21318, 60706]
