"""The three seeded workloads: input generation, execution and answer checks.

Generation uses only :mod:`reference` and ``random.Random`` seeded from the
workload name and the seed, so the same seed gives byte-identical inputs and
the package under test receives nothing but text: compact or extended
words, ``int:``/``rat:``/``rseq:`` parameters, base-vector texts and ``bsl``
argv lists.  Each query carries the answer its construction guarantees.

The groups, the query sizes and the relators inside the long trivial words
are fixed; the seed picks the letters (conjugators, random words, vectors,
exponents).  So every seed draws the same mix of work, and medians and
tails stay comparable between seeds.

* ``reduce``: few long words (1k-4k letters, 1k-2k for normal forms).  Trivial words are products
  of conjugated relators; each also appears with one extra ``b``.  Random
  words go to ``normal_form`` in triples (w, w with a relator spliced in,
  w b).  Cheap tree-action queries on base vectors round out the mix.
* ``conjugacy``: ``are_conjugate`` on (g w g^-1, w) and (g w g^-1, w b),
  from random words, constant-sign shapes and t-length-0 pairs.  Two
  named stress queries from the solver blow-up class, which always exceed
  the cap, are generated beside the pool; only ``selftest.py`` runs them.
* ``session``: short ``bsl --json`` commands through ``bslim.cli.main`` in
  one interpreter, plus direct ``xi_from_prefix`` calls on the digits of -1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

import reference as R

#: Per-query wall-clock cap in seconds.  The slowest regular query of each
#: workload stays many times below it, also through the pauses of a shared
#: host; the conjugacy stress queries run for tens of seconds uncapped, far
#: above it.
CAPS = {"reduce": 5.0, "conjugacy": 2.0, "session": 10.0}

WORKLOADS = ("reduce", "conjugacy", "session")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_word(rng: random.Random, n: int) -> str:
    """A freely reduced word of exactly n letters."""
    out: list[str] = []
    while len(out) < n:
        ch = rng.choice("aAbB")
        if out and out[-1] == R.INVERSE[ch]:
            continue
        out.append(ch)
    return "".join(out)


def shaped_word(plan: random.Random, rng: random.Random, n: int) -> str:
    """A freely reduced word of n letters whose a-letters (positions and
    signs) and b-run lengths come from ``plan``, and whose b-runs take
    their sign from ``rng``."""
    out: list[str] = []
    while len(out) < n:
        if plan.random() < 0.5:
            ch = plan.choice("aA")
            if not out or out[-1] != R.INVERSE[ch]:
                out.append(ch)
        else:
            run = plan.randint(1, 3)
            sign = out[-1] if out and out[-1] in "bB" else rng.choice("bB")
            out += [sign] * run
    return "".join(out[:n])


def _unit(rng: random.Random, m: int, lo: int, hi: int) -> int:
    """A nonzero integer in [lo, hi] coprime to m."""
    while True:
        n = rng.randint(lo, hi)
        if n and math.gcd(n, m) == 1:
            return n


def _conjugate(rng: random.Random, word: str, glen: tuple[int, int]) -> str:
    g = random_word(rng, rng.randint(*glen))
    return g + word + R.inverse(g)


def _relator(plan: random.Random, m: int, r: list[int], max_i: int) -> str:
    """A relator: [b, b_i], a win_e probe on the true digit prefix, or v_k
    with m | k; sometimes inverted."""
    pick = plan.random()
    if pick < 0.5:
        word = R.commutator("b", R.b_i(m, r, plan.randint(max(1, max_i // 10), max_i)))
    elif pick < 0.8:
        word = R.win_e(m, r[: plan.randint(1, max(1, max_i // 8))])
    else:
        word = R.v_k(m * plan.randint(1, 4))
    return R.inverse(word) if plan.random() < 0.5 else word


def trivial_word(rng, plan, m, r, length, max_i, glen=(4, 16)) -> str:
    """A product of conjugated relators with at least ``length`` letters.

    ``plan`` picks the relators and ``rng`` the conjugators, so a plan that
    does not depend on the seed fixes the reduction work of the word while
    the seed still changes its letters."""
    parts: list[str] = []
    total = 0
    while total < length:
        part = _conjugate(rng, _relator(plan, m, r, max_i), glen)
        parts.append(part)
        total += len(part)
    return "".join(parts)


def _compact_from_extended(text: str) -> str:
    out = []
    for token in text.split():
        if token == "a":
            out.append("a")
        elif token == "a^-1":
            out.append("A")
        else:
            idx, _, k = token[1:].partition("^")
            if idx != "0":
                raise ValueError(f"not an {{a, b}} word: {text!r}")
            out.append(R.power("b", int(k) if k else 1))
    return "".join(out)


# --- reduce -------------------------------------------------------------------------

REDUCE_LENGTHS = (1000, 2000, 3000, 4000)
NF_LENGTHS = (1000, 1500, 2000)
FI_CAP = 64


def _random_evec(rng, m, r, top):
    vec = {i: rng.choice((-1, 1)) * rng.randint(1, 9) for i in rng.sample(range(1, top), 4)}
    if rng.random() < 0.6:
        # land in E_{m,xi}, so at least one up-shift is available
        vec[0] = -R.emxi_value(vec, r) + m * rng.randint(-3, 3)
    return {i: c for i, c in vec.items() if c}


#: Fixed parameters: the seed varies words and vectors, not the groups, so
#: the digit work per query is the same for every seed.
REDUCE_SPECS = (
    (2, "int:3"), (2, "rat:1/3"), (2, "rseq:1;0,1"),
    (3, "int:5"), (3, "rat:1/2"), (3, "rseq:1,2;0,2,1"),
    (5, "int:7"), (5, "rat:-3/7"),
)


def gen_reduce(seed: int) -> dict:
    rng = _rng("reduce", seed)
    specs = [list(s) for s in REDUCE_SPECS]
    digits = [R.digits(m, xi, 600) for m, xi in specs]
    pool = []
    for block in range(32):
        k = block % len(specs)
        m, r = specs[k][0], digits[k]
        plan = random.Random(f"reduce-plan:{block}")
        tag = f"b{block:02d}"
        length = REDUCE_LENGTHS[(block // len(specs)) % len(REDUCE_LENGTHS)]
        t = trivial_word(rng, plan, m, r, length, max_i=300)
        pool += [
            {"id": f"{tag}-wp", "op": "wp", "args": [k, t], "expect": True},
            {"id": f"{tag}-wpb", "op": "wp", "args": [k, t + "b"], "expect": False},
            {"id": f"{tag}-br", "op": "br", "args": [k, t], "expect": []},
            {"id": f"{tag}-brb", "op": "br", "args": [k, t + "b"], "expect": [[0, 1]]},
        ]
        w = shaped_word(random.Random(f"reduce-nf:{block}"), rng, NF_LENGTHS[block % len(NF_LENGTHS)])
        cut = rng.randrange(len(w))
        spliced = w[:cut] + trivial_word(rng, rng, m, r, 200, max_i=60) + w[cut:]
        for role, text in (("base", w), ("equal", spliced), ("plus_b", w + "b")):
            pool.append({
                "id": f"{tag}-nf-{role}", "op": "nf", "args": [k, text],
                "expect": {"group": tag, "role": role},
            })
        for j in range(4):
            vec = _random_evec(rng, m, r, 40)
            mu, nu = R.fixed_interval(vec, m, r, FI_CAP)
            if j % 2 == 0:
                pool.append({
                    "id": f"{tag}-fi{j}", "op": "fi", "args": [k, R.evec_text(vec)],
                    "expect": [mu, nu],
                })
            else:
                n = rng.randint(-nu - 1, min(mu if mu is not None else 30, 30) + 1)
                img = R.a_conjugate(vec, n, m, r)
                pool.append({
                    "id": f"{tag}-ac{j}", "op": "ac", "args": [k, R.evec_text(vec), n],
                    "expect": None if img is None else sorted(img.items()),
                })
    rng.shuffle(pool)
    # cross-check a seeded sample of verdicts in BS(m, n); realizing n needs
    # an integer or rational parameter
    candidates = sorted(
        q["id"] for q in pool
        if q["op"] == "wp" and len(q["args"][1]) < 2 * REDUCE_LENGTHS[0]
        and not specs[q["args"][0]][1].startswith("rseq")
    )
    return {
        "specs": specs,
        "pool": pool,
        "fixed": {},
        "bs_sample": rng.sample(candidates, min(4, len(candidates))),
    }


def run_reduce(lib, ctxs, q):
    op, args = q["op"], q["args"]
    ctx = ctxs[args[0]]
    if op in ("wp", "br", "nf"):
        w = lib.group.parse_word(args[1])
        if op == "wp":
            return lib.group.is_trivial(ctx, w)
        if op == "br":
            return lib.group.britton_reduce(ctx, w)
        return lib.group.normal_form(ctx, w)
    x = lib.lattice.parse_evec(args[1])
    if op == "fi":
        return lib.lattice.fixed_interval(ctx, x, FI_CAP)
    return lib.lattice.a_conjugate(ctx, x, args[2])


def keep_reduce(q, got):
    """What a run keeps of an answer.  Normal forms are kept as (sigma,
    digest): holding every form would make peak RSS grow with the number
    of queries answered."""
    if q["op"] != "nf":
        return got
    text = repr((got.deltas, [s.entries for s in got.segments]))
    return got.sigma, hashlib.blake2b(text.encode(), digest_size=16).digest()


def check_reduce(lib, inputs, answers) -> dict[str, str]:
    """Wrong answers by query id, against the construction and the
    reference arithmetic."""
    wrong = {}
    forms: dict[str, dict[str, object]] = {}
    for q in inputs["pool"]:
        qid, op, expect = q["id"], q["op"], q["expect"]
        if qid not in answers:
            continue
        got = answers[qid]
        if op == "wp":
            ok = got is expect
        elif op == "br":
            ok = got.t_length == 0 and [list(e) for e in got.segments[0].entries] == expect
        elif op == "nf":
            forms.setdefault(expect["group"], {})[expect["role"]] = got
            ok = got[0] == q["args"][1].count("a") - q["args"][1].count("A")
        elif op == "fi":
            mu, nu = got
            ok = [None if mu is lib.lattice.CAP_REACHED else mu, nu] == expect
        else:
            ok = (None if got is None else [list(e) for e in got.entries]) == (
                None if expect is None else [list(e) for e in expect]
            )
        if not ok:
            wrong[qid] = f"{op}: got {_short(got)}, expected {_short(expect)}"
    for tag, by_role in forms.items():
        base = by_role.get("base")
        if base is None:
            continue
        if "equal" in by_role and by_role["equal"] != base:
            wrong[f"{tag}-nf-equal"] = "normal form differs from an equal word's"
        if "plus_b" in by_role and by_role["plus_b"] == base:
            wrong[f"{tag}-nf-plus_b"] = "normal form of w b equals that of w"
    by_id = {q["id"]: q for q in inputs["pool"]}
    for qid in inputs["bs_sample"]:
        if qid not in answers:
            continue
        k, text = by_id[qid]["args"]
        m, xi = inputs["specs"][k]
        n = R.realize(m, xi, len(text) // 2 + 1)
        spec = lib.bsclassic.BSSpec(abs(m), n)
        if lib.bsclassic.bs_is_trivial(spec, lib.bsclassic.parse_bs_word(R.bs_word(text))) != answers[qid]:
            wrong[qid] = f"verdict disagrees with BS({abs(m)}, n)"
    return wrong


# --- conjugacy ----------------------------------------------------------------------

RANDOM_TLENGTHS = (4, 6, 8, 10, 12)
SHAPE_TLENGTHS = (4, 6, 8)
STRESS_TLENGTHS = (28, 32)
STRESS_POSITIONS = (60, 160)


def _syllables(rng, tlength, sign=None, bmax=3):
    parts = []
    for _ in range(tlength):
        a = sign if sign is not None else rng.choice("aA")
        c = rng.randint(1, bmax) * (1 if sign is not None else rng.choice((-1, 1)))
        parts.append(a + R.power("b", c))
    return "".join(parts)


def _pair(tag, k, v, w, positive, mode="compact"):
    return {
        "id": f"{tag}-{'pos' if positive else 'neg'}", "op": "conj",
        "args": [k, v, w, mode], "expect": positive,
    }


CONJ_SPECS = ((2, "int:3"), (2, "rat:1/3"), (3, "int:5"), (3, "rat:1/2"), (5, "int:7"), (5, "rat:2/3"))
STRESS_SPEC = (3, "rat:1/2")


def gen_conjugacy(seed: int) -> dict:
    rng = _rng("conjugacy", seed)
    specs = [list(s) for s in CONJ_SPECS + (STRESS_SPEC,)]
    pool = []
    for block in range(150):
        k = block % (len(specs) - 1)
        m = specs[k][0]
        r = R.digits(m, specs[k][1], 64)
        tag = f"c{block:02d}"
        w = _syllables(rng, RANDOM_TLENGTHS[block % len(RANDOM_TLENGTHS)])
        v = R.free_reduce(_conjugate(rng, w, (6, 14)))
        pool += [_pair(f"{tag}-rand", k, v, w, True), _pair(f"{tag}-rand", k, v, w + "b", False)]
        # the sign is fixed per block: all a^-1 costs several times all a
        sign = "aA"[block // (len(specs) - 1) % 2]
        w = _syllables(rng, SHAPE_TLENGTHS[block % len(SHAPE_TLENGTHS)], sign=sign)
        v = R.free_reduce(_conjugate(rng, w, (4, 10)))
        pool += [_pair(f"{tag}-shape", k, v, w, True), _pair(f"{tag}-shape", k, v, w + "b", False)]
        x = _random_evec(rng, m, r, 12)
        n = rng.randint(1, 6)
        v = " ".join(["a"] * n + [R.evec_text(x)] + ["a^-1"] * n)
        x_b = dict(x)
        x_b[0] = x_b.get(0, 0) + 1
        pool += [
            _pair(f"{tag}-tl0", k, v, R.evec_text(x), True, "extended"),
            _pair(f"{tag}-tl0", k, v, R.evec_text({i: c for i, c in x_b.items() if c}), False, "extended"),
        ]
    rng.shuffle(pool)
    fixed = {}
    for pos, tlength in zip(STRESS_POSITIONS, STRESS_TLENGTHS):
        w = _syllables(rng, tlength, sign="A", bmax=2)
        v = R.free_reduce(_conjugate(rng, w, (2, 6)))
        q = _pair(f"stress-t{tlength}", len(specs) - 1, v, w + "b", False)
        fixed[str(pos)] = q
    return {"specs": specs, "pool": pool, "fixed": fixed}


def run_conjugacy(lib, ctxs, q):
    k, v, w, mode = q["args"]
    g = lib.group
    return g.are_conjugate(ctxs[k], g.parse_word(v, mode), g.parse_word(w, mode))


def check_conjugacy(lib, inputs, answers) -> dict[str, str]:
    """Negative pairs must give None; every witness of a positive pair is
    verified again with the word problem on a fresh context."""
    wrong = {}
    g = lib.group
    queries = list(inputs["pool"]) + list(inputs["fixed"].values())
    for q in queries:
        qid = q["id"]
        if qid not in answers:
            continue
        got = answers[qid]
        k, v, w, mode = q["args"]
        if not q["expect"]:
            if got is not None:
                wrong[qid] = "negative pair reported conjugate"
            continue
        if got is None:
            wrong[qid] = "conjugate pair reported not conjugate"
            continue
        m, xi = inputs["specs"][k]
        ctx = lib.lattice.GroupCtx.make(m, xi)
        vw, ww = g.parse_word(v, mode), g.parse_word(w, mode)
        if not g.is_trivial(ctx, got * ww * got.inverse() * vw.inverse()):
            wrong[qid] = "witness does not conjugate"
    return wrong


# --- session ------------------------------------------------------------------------

DIST_KS = (1, 2, 3, 4, 5)  # min |m| of the pair; nu = 2k + 6
XFP_HS = (8, 10, 12, 14, 16)


def _cli(qid, argv, expect):
    return {"id": qid, "op": "cli", "args": ["--json"] + [str(a) for a in argv], "expect": expect}


def _short_trivial(rng, m, r):
    return R.free_reduce(trivial_word(rng, rng, m, r, 20, max_i=4, glen=(1, 4)))


SESSION_SPECS = ((2, "int:3"), (3, "rat:1/2"), (5, "int:7"), (2, "rat:1/3"), (3, "int:5"), (5, "rat:2/3"))


def gen_session(seed: int) -> dict:
    rng = _rng("session", seed)
    pool = []
    specs = set()
    for block in range(14):
        tag = f"s{block:02d}"
        m, xi = SESSION_SPECS[block % len(SESSION_SPECS)]
        r = R.digits(m, xi, 64)
        specs.add((m, xi))
        base = ["--m", m, "--xi", xi]

        k = DIST_KS[block % len(DIST_KS)]
        m2 = rng.randint(k + 1, 7)
        x1, x2 = f"int:{_unit(rng, k, -30, 30)}", f"int:{_unit(rng, m2, -30, 30)}"
        pool.append(_cli(f"{tag}-dist", ["dist", "--m", k, "--xi", x1, "--m2", m2, "--xi2", x2,
                                         "--max-len", 16, "--force"],
                         {"nu": 2 * k + 6, "groups": [[k, x1], [m2, x2]]}))

        h = rng.randint(1, 10)
        n1 = _unit(rng, m, -500, 500)
        n2 = n1 + m**h * _unit(rng, m, 1, 20) * rng.choice((-1, 1))
        pool.append(_cli(f"{tag}-bounds", ["bounds", "--m", m, "--xi", f"int:{n1}", "--xi2", f"int:{n2}"],
                         {"h": h, "lower_exp": 2 * (m + 1) * (h + 1) + 2 * m + 6, "upper_exp": 2 * h + 1}))

        n1 = _unit(rng, m, -50, 50)
        n2 = n1 + rng.choice((-1, 1)) * m * rng.randint(1, 9)
        f = 3 if m == 2 else 2  # rescales p/7 without sharing a factor with m
        iso_cases = [  # same group under (m, xi) -> (-m, -xi); distinct units; p/q = fp/fq; |m| differs
            (["--xi", f"int:{n1}", "--m2", -m, "--xi2", f"int:{-n1}"], True),
            (["--xi", f"int:{n1}", "--xi2", f"int:{n2}"], False),
            (["--xi", f"rat:{n1}/7", "--xi2", f"rat:{f * n1}/{f * 7}"], True),
            (["--xi", f"int:{n1}", "--m2", m + 1, "--xi2", f"int:{n1}"], False),
        ]
        flags, expect = iso_cases[block % len(iso_cases)]
        pool.append(_cli(f"{tag}-iso", ["iso", "--m", m] + flags, {"isomorphic": expect}))

        count = (10, 20, 30)[block % 3]
        pool.append(_cli(f"{tag}-recover", ["recover"] + base + ["--count", count],
                         {"m": m, "digits": r[:count]}))
        count = (50, 100, 200)[block % 3]
        pool.append(_cli(f"{tag}-rdigits", ["rdigits"] + base + ["--count", count],
                         {"digits": R.digits(m, xi, count)}))

        t = _short_trivial(rng, m, r)
        pool.append(_cli(f"{tag}-wp", ["wp"] + base + ["--word", t], {"trivial": True}))
        pool.append(_cli(f"{tag}-wpb", ["wp"] + base + ["--word", t + "b"], {"trivial": False}))
        pool.append(_cli(f"{tag}-nf", ["nf"] + base + ["--word", t + "b"], {"word": "e0", "t_length": 0}))

        w = _syllables(rng, rng.randint(1, 3))
        v = R.free_reduce(_conjugate(rng, w, (2, 5)))
        pool.append(_cli(f"{tag}-conj", ["conj"] + base + ["--word", v, "--word2", w],
                         {"conjugate": True, "pair": [m, xi, v, w]}))
        pool.append(_cli(f"{tag}-conjb", ["conj"] + base + ["--word", v, "--word2", w + "b"],
                         {"conjugate": False}))

        i = rng.randint(1, 12)
        pool.append(_cli(f"{tag}-rel-bi", ["relator", "--kind", "bi", "--index", i] + base,
                         {"word": R.b_i(m, r, i)}))
        kk = rng.randint(1, 6)
        pool.append(_cli(f"{tag}-rel-vk", ["relator", "--kind", "vk", "--index", kk],
                         {"word": R.v_k(kk)}))
        t_digits = [rng.randrange(m) for _ in range(rng.randint(1, 6))]
        kind = ("w", "wine")[block % 2]
        ref = R.w_word(m, t_digits) if kind == "w" else R.win_e(m, t_digits)
        pool.append(_cli(f"{tag}-rel-{kind}", ["relator", "--kind", kind, "--m", m,
                                                "--digits", ",".join(map(str, t_digits))],
                         {"word": ref}))

        w = random_word(rng, rng.randint(6, 30))
        pool.append(_cli(f"{tag}-wreath", ["wreath"] + base + ["--word", w], R.wreath_image(w)))

        w = random_word(rng, rng.randint(4, 12))
        aut = ("J", "thetaK", "embedD", "phiE")[block % 4]
        flags, expect = _aut_case(rng, m, aut, w)
        pool.append(_cli(f"{tag}-aut", ["aut"] + base + ["--word", w, "--aut", aut] + flags,
                         {"word": expect}))

        p, qq = rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, 5)
        rel = "a" + "b" * p + "A" + R.power("b", -qq)
        parts = [_conjugate(rng, rel if rng.random() < 0.5 else R.inverse(rel), (1, 5))
                 for _ in range(rng.randint(1, 3))]
        t = "".join(parts)
        extra = "b" if block % 2 else ""
        pool.append(_cli(f"{tag}-bswp", ["bswp", "--p", p, "--q", qq, "--word", R.bs_word(t + extra)],
                         {"trivial": not extra}))

        mm, nn = ((2, 4), (2, 6), (3, 9), (2, 3))[block % 4]
        kk = rng.randint(1, 6)
        pool.append(_cli(f"{tag}-nk", ["nk", "--m", mm, "--n", nn, "--k", kk],
                         {"args": [mm, nn, kk]}))

        hh = XFP_HS[block % len(XFP_HS)]
        prefix = R.digits(2, "int:-1", hh)
        pool.append({"id": f"{tag}-xfp", "op": "xfp", "args": [2, prefix],
                     "expect": [2**hh - 1, 2**hh]})
    rng.shuffle(pool)
    return {"specs": sorted([list(s) for s in specs]), "pool": pool, "fixed": {}}


def _aut_case(rng, m, aut, w):
    """Flags and the expected extended-alphabet image of w."""
    def base_token(c):
        return "e0" if c == 1 else f"e0^{c}"

    if aut == "phiE":
        e = {i: rng.choice((-1, 1)) * rng.randint(1, 3) for i in sorted(rng.sample(range(0, 5), 2))}
        text = R.evec_text(e)
        plus = [f"e{i}" if c == 1 else f"e{i}^{c}" for i, c in sorted(e.items())]
        minus = [f"e{i}" if c == -1 else f"e{i}^{-c}" for i, c in sorted(e.items())]
        out = []
        for ch in w:
            if ch == "a":
                out += ["a"] + plus
            elif ch == "A":
                out += minus + ["a^-1"]
            else:
                out.append(base_token(1 if ch == "b" else -1))
        return ["--evec", text], " ".join(out)
    if aut == "J":
        factor, flags = -1, []
    elif aut == "thetaK":
        factor = _unit(rng, m, -7, 7)
        flags = ["--coef", factor]
    else:
        factor = rng.randint(1, 5)
        flags = ["--embed", factor]
    out = []
    for ch in w:
        if ch in "aA":
            out.append("a" if ch == "a" else "a^-1")
        else:
            out.append(base_token(factor * (1 if ch == "b" else -1)))
    return flags, " ".join(out)


def run_session(lib, ctxs, q):
    if q["op"] == "xfp":
        return lib.madic.xi_from_prefix(*q["args"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(q["args"])
    return rc, out.getvalue(), err.getvalue()


def _nk_reference(m, n, k):
    alpha, count = n**k, 0
    while alpha % n == 0:
        alpha, count = alpha // n * m, count + 1
    return count, alpha


def check_session(lib, inputs, answers) -> dict[str, str]:
    wrong = {}
    g = lib.group
    for q in inputs["pool"]:
        qid, expect = q["id"], q["expect"]
        if qid not in answers:
            continue
        got = answers[qid]
        if q["op"] == "xfp":
            n, modulus = got
            h = len(q["args"][1])
            if [n, modulus] != expect or R.digits(2, f"int:{n}", h) != q["args"][1]:
                wrong[qid] = f"xi_from_prefix gave {got}"
            continue
        rc, out, err = got
        if rc != 0:
            wrong[qid] = f"exit code {rc}: {err.strip()[:120]}"
            continue
        data = json.loads(out)
        cmd = q["args"][1]
        if cmd == "dist":
            problem = _check_dist(lib, data, expect)
        elif cmd == "nk":
            problem = None if [data["N"], data["alpha"]] == list(_nk_reference(*expect["args"])) else "N(k)"
        elif cmd == "conj" and expect["conjugate"]:
            problem = None
            if not data["conjugate"]:
                problem = "conjugate pair reported not conjugate"
            else:
                m, xi, v, w = expect["pair"]
                ctx = lib.lattice.GroupCtx.make(m, xi)
                x = g.parse_word(data["witness"], "extended")
                if not g.is_trivial(ctx, x * g.parse_word(w) * x.inverse() * g.parse_word(v).inverse()):
                    problem = "witness does not conjugate"
        else:
            problem = None if all(data.get(key) == val for key, val in expect.items()) else "mismatch"
        if problem:
            wrong[qid] = f"{cmd}: {problem}: {out.strip()[:160]}"
    return wrong


def _check_dist(lib, data, expect):
    """The word has the expected length nu = 2 min|m| + 6 and is trivial in
    exactly one of the two groups, decided in BS(|m|, n) for n realizing
    enough digits of each parameter."""
    if data["nu"] != expect["nu"] or data["word"] is None:
        return f"nu {data['nu']} != {expect['nu']}"
    word = _compact_from_extended(data["word"])
    if len(word) != expect["nu"]:
        return "word length differs from nu"
    verdicts = []
    for m, xi in expect["groups"]:
        n = R.realize(m, xi, len(word) // 2 + 1)
        spec = lib.bsclassic.BSSpec(abs(m), n)
        verdicts.append(lib.bsclassic.bs_is_trivial(spec, lib.bsclassic.parse_bs_word(R.bs_word(word))))
    return None if verdicts[0] != verdicts[1] else "word does not distinguish in BS(m, n)"


def _short(x) -> str:
    text = repr(x)
    return text if len(text) < 80 else text[:77] + "..."


GENERATORS = {"reduce": gen_reduce, "conjugacy": gen_conjugacy, "session": gen_session}
RUNNERS = {"reduce": run_reduce, "conjugacy": run_conjugacy, "session": run_session}
CHECKERS = {"reduce": check_reduce, "conjugacy": check_conjugacy, "session": check_session}
KEEPERS = {"reduce": keep_reduce}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def inputs_bytes(inputs: dict) -> bytes:
    """Canonical serialization; equal bytes mean equal inputs."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
