"""Reference arithmetic for the benchmark, written apart from ``bslim``.

The generators build their inputs with it and the answer checks compare
against it, so a defect in the package under test cannot hide itself.
Everything is exact integer arithmetic over plain dicts and strings:

* digits r_i of a parameter through the integer state t_i = q^i s_i, which
  satisfies p t_{i-1} = m t_i + r_i q^i for xi = p/q (the package uses a
  Fraction recurrence instead);
* the conjugation maps up (a x a^-1) and down (a^-1 x a) on base vectors;
* integers n with n = xi mod m^h, so that BS(m, n) agrees with the limit
  group on words of length at most 2h;
* compact relator words, free reduction and the wreath-product image.
"""

from __future__ import annotations

INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


# --- parameters and digits ----------------------------------------------------


def parse_param(xi: str) -> tuple[str, object]:
    """Split the benchmark's own int:/rat:/rseq: texts."""
    kind, _, body = xi.partition(":")
    if kind == "int":
        return "rat", (int(body), 1)
    if kind == "rat":
        p, q = body.split("/")
        return "rat", (int(p), int(q))
    if kind == "rseq":
        pre, _, per = body.partition(";")
        as_list = lambda t: [int(d) for d in t.split(",") if d]
        return "seq", (as_list(pre), as_list(per))
    raise ValueError(f"unknown parameter {xi!r}")


def digits(m: int, xi: str, count: int) -> list[int]:
    """[r_1, ..., r_count] of the parameter normalized to (|m|, sign(m) xi)."""
    kind, data = parse_param(xi)
    mm = abs(m)
    if kind == "seq":
        pre, per = data
        out = list(pre[:count])
        while len(out) < count:
            if not per:
                raise ValueError("finite digit sequence exhausted")
            out.append(per[(len(out) - len(pre)) % len(per)])
        return out
    p, q = data
    if m < 0:
        p = -p
    if mm == 1:
        return [0] * count
    out = []
    t, qi = 1, 1
    for _ in range(count):
        qi *= q
        r = p * t * pow(qi, -1, mm) % mm
        t = (p * t - r * qi) // mm
        out.append(r)
    return out


def realize(m: int, xi: str, h: int) -> int:
    """An integer n > 0 with n = xi mod |m|^h and n >= |m|^h (n >= 2^h + 2
    when |m| = 1), so BS(|m|, n) and the limit group agree on every word of
    length at most 2h.  Integer and rational parameters only."""
    mm = abs(m)
    if mm == 1:
        return 2**h + 2
    kind, data = parse_param(xi)
    if kind != "rat":
        raise ValueError("only integer and rational parameters are realized")
    p, q = data
    if m < 0:
        p = -p
    mod = mm**h
    return p * pow(q, -1, mod) % mod + mod


# --- base vectors -----------------------------------------------------------------


def _clean(vec: dict[int, int]) -> dict[int, int]:
    return {i: c for i, c in vec.items() if c}


def emxi_value(vec: dict[int, int], r: list[int]) -> int:
    return sum(c * (r[i - 1] if i else 1) for i, c in vec.items())


def up(vec: dict[int, int], m: int, r: list[int]) -> dict[int, int] | None:
    """a x a^-1 when x lies in E_{m,xi}, else None: m e_0 -> e_1 and
    e_i - r_i e_0 -> e_{i+1}."""
    val = emxi_value(vec, r)
    if val % m:
        return None
    out = {i + 1: c for i, c in vec.items() if i}
    out[1] = out.get(1, 0) + val // m
    return _clean(out)


def down(vec: dict[int, int], m: int, r: list[int]) -> dict[int, int] | None:
    """a^-1 x a when x lies in E_1, else None."""
    if vec.get(0):
        return None
    out = {0: 0}
    for i, c in vec.items():
        if i == 1:
            out[0] += m * c
        else:
            out[i - 1] = out.get(i - 1, 0) + c
            out[0] -= c * r[i - 2]
    return _clean(out)


def a_conjugate(vec, n, m, r):
    """a^n x a^-n inside the base group, or None."""
    for _ in range(abs(n)):
        vec = up(vec, m, r) if n > 0 else down(vec, m, r)
        if vec is None:
            return None
    return vec


def fixed_interval(vec, m, r, cap):
    """(mu, nu): available up-shifts (None once it meets cap) and down-shifts."""
    nu, seg = 0, vec
    while (seg := down(seg, m, r)) is not None:
        nu += 1
    mu, seg = 0, vec
    while (seg := up(seg, m, r)) is not None:
        mu += 1
        if mu >= cap:
            return None, nu
    return mu, nu


def evec_text(vec: dict[int, int]) -> str:
    return " ".join(f"e{i}^{c}" for i, c in sorted(vec.items()) if c)


# --- compact words ----------------------------------------------------------------


def inverse(word: str) -> str:
    return "".join(INVERSE[ch] for ch in reversed(word))


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def power(letter: str, k: int) -> str:
    return (letter if k > 0 else INVERSE[letter]) * abs(k)


def b_i(m: int, r: list[int], i: int) -> str:
    """b_1 = a b^m a^-1 and b_i = a b_{i-1} b^(-r_{i-1}) a^-1."""
    word = "a" + "b" * m + "A"
    for k in range(2, i + 1):
        word = "a" + word + "B" * r[k - 2] + "A"
    return word


def w_word(m: int, t: list[int]) -> str:
    """a^(n+1) b^m a^-1 b^(-t_1) a^-1 ... b^(-t_n) a^-1."""
    return "a" * (len(t) + 1) + power("b", m) + "A" + "".join(
        power("b", -d) + "A" for d in t
    )


def win_e(m: int, t: list[int]) -> str:
    """w(m, t) b w(-m, -t) b^-1: trivial exactly when t is the digit prefix."""
    return w_word(m, t) + "b" + w_word(-m, [-d for d in t]) + "B"


def v_k(k: int) -> str:
    """[a b^k a^-1, b]: trivial exactly when m divides k."""
    return "a" + "b" * k + "A" + "b" + "a" + "B" * k + "A" + "B"


def commutator(u: str, v: str) -> str:
    return u + v + inverse(u) + inverse(v)


def wreath_image(word: str) -> dict:
    """The image in Z wr Z (a -> shift, b -> X^shift), in the CLI's JSON shape."""
    shift, lamps = 0, {}
    for ch in word:
        if ch in "aA":
            shift += 1 if ch == "a" else -1
        else:
            lamps[shift] = lamps.get(shift, 0) + (1 if ch == "b" else -1)
    lit = sorted(k for k, c in lamps.items() if c)
    if not lit:
        return {"poly": {"offset": 0, "coeffs": []}, "shift": shift}
    lo, hi = lit[0], lit[-1]
    coeffs = [lamps.get(k, 0) for k in range(lo, hi + 1)]
    return {"poly": {"offset": lo, "coeffs": coeffs}, "shift": shift}


def bs_word(word: str) -> str:
    """A compact word in the run-length grammar of ``bsl bswp``."""
    out, i = [], 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        ch, k = word[i], j - i
        gen, sign = ch.lower(), (1 if ch.islower() else -1)
        out.append(f"{gen}^{sign * k}")
        i = j
    return "".join(out)
