"""Command-line surface: every decision procedure behind one flag set.

Exit codes: 0 success, 2 usage or malformed input, 1 domain error.  All
results go to stdout (plain text or --json); errors go to stderr with a
stable ``error: <Type>:`` prefix.  Stdin is never read.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .bsclassic import BS_TOKEN, BS_TOKENS, BSSpec, bs_is_trivial, bs_n_of_k, parse_bs_word
from .errors import BslError, ParseError, SizeLimitExceeded
from .group import (
    ALetter,
    GroupWord,
    are_conjugate,
    britton_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
)
from .lattice import GroupCtx, parse_evec
from .madic import MarkedGroupSpec, XiSeq, _parse_decimal, _parse_digit_list
from .markedspace import (
    MAX_RECOVER_M,
    distance_bounds,
    isomorphic,
    recover_parameters,
    relator,
    shortest_distinguishing,
    word_problem_oracle,
)
from .morphisms import EmbedD, J, PhiE, ThetaK, apply_automorphism, wreath_image


def _int(text: str) -> int:
    """argparse type for integer flags: an ASCII decimal, as in every grammar."""
    try:
        return _parse_decimal(text, 0)
    except ParseError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None


def _ctx(args, second: bool = False) -> GroupCtx:
    """The group of --m/--xi, or --m2/--xi2; it reads no digit past the ``rdigits`` limit."""
    m, xi = (args.m if args.m2 is None else args.m2, args.xi2) if second else (args.m, args.xi)
    return GroupCtx.make(m, xi, SIZE_LIMITS["rdigits"])


def _word(args, attr: str = "word") -> GroupWord:
    return parse_word(getattr(args, attr), args.alphabet)


#: Fixed limits on the size flags, on a 2-core VM.  Digits and recovery cost time
#: quadratic in the count, digits memory linear (`rat:5/7`, m = 3: `rdigits` 0.13 s,
#: 18 MB RSS; `relator` bi 0.19 s, 20 MB; m = 64: `recover` 0.24-0.37 s on int:3, whose
#: digits are 0 after r_1, and 0.37-0.57 s on `rat:5/7`, 17 MB), but
#: `rdigits` bounds digits, not their bits: m = 2, `rat:1/<3^1000>` took 2.0-2.3 s CPU
#: for 1,000 digits and 8.4-11.8 s for 2,000 (ROADMAP item 2).  `dist` grows 6x per two
#: letters (int:1 vs int:5: 0.6-0.7 s, 25 MB).  Every group command reads digits under the
#: `rdigits` limit (`_ctx`).  `recover` tries |m| = 1..64 only (`MAX_RECOVER_M`).
#: A `bswp` pinch rescales a b-exponent: work quadratic in the a-letters (worst: a^-37500
#: b^<4,299 nines> a^37500 in BS(3, 1), 1.1 s, 18 MB).  `nk` caps the size of n^k so
#: alpha prints; m = n/2 with k = 2 is cubic in that size (n = 2^6999: 0.44 s).
#: `relator` caps --index, and prices the word it builds by the letters it would print,
#: before printing them (a word of 10^7 letters: 0.02 s, 36 MB).
SIZE_LIMITS = {"bswp": 150_000, "dist": 20, "nk": 14_000, "rdigits": 10_000, "recover": 64,
               "recover-m": MAX_RECOVER_M, "relator": 10_000, "relator-letters": 10_000_000}


def _capped(args, size_name: str, size: int, limit_name: Optional[str] = None) -> None:
    limit = SIZE_LIMITS[limit_name or args.command]
    if size > limit:
        raise SizeLimitExceeded(f"{size_name} = {size} is over the limit {limit}")


def _sized(args, flag: str, limit_name: Optional[str] = None) -> Optional[int]:
    value = getattr(args, flag.replace("-", "_"))
    _capped(args, f"|--{flag}|", abs(value or 0), limit_name)
    return value


# --- command handlers: each returns (plain text, JSON data) ---------------------
# They name library functions in their bodies, so a wrapper bound here sees each call.


def _rdigits(args):
    digits = _ctx(args).digits(_sized(args, "count"))
    return " ".join(map(str, digits)), {"digits": digits}


def _wp(args):
    trivial = is_trivial(_ctx(args), _word(args))
    return "trivial" if trivial else "nontrivial", {"trivial": trivial}


def _form(args):
    reduce = normal_form if args.command == "nf" else britton_reduce
    form = reduce(_ctx(args), _word(args))
    text = format_word(form.to_word(), "extended")
    return text, {"word": text, "t_length": form.t_length, "sigma": form.sigma}


def _wreath(args):
    elem = wreath_image(_ctx(args), _word(args))
    coeffs = ",".join(map(str, elem.poly.coeffs)) or "0"
    return f"shift={elem.shift} offset={elem.poly.offset} coeffs={coeffs}", elem.to_json()


def _conj(args):
    witness = are_conjugate(_ctx(args), _word(args), _word(args, "word2"))
    if witness is None:
        return "not conjugate", {"conjugate": False, "witness": None}
    text = format_word(witness, "extended")
    return f"conjugate via {text}", {"conjugate": True, "witness": text}


def _dist(args):
    ctx, ctx2 = _ctx(args), _ctx(args, second=True)
    max_len = _sized(args, "max-len")
    if max_len > 14 and not args.force:
        raise BslError("enumeration beyond length 14 needs --force (usage guard)")
    found = shortest_distinguishing(ctx, ctx2, max_len)
    if found is None:
        return f"none up to length {max_len}", {"nu": None, "word": None}
    length, w = found
    text = format_word(w, "extended")
    return f"len={length} word={text}", {"nu": length, "word": text}


def _bounds(args):
    b = distance_bounds(_ctx(args), _ctx(args, second=True))
    data = {"h": b.h, "lower_exp": b.lower_exp, "upper_exp": b.upper_exp}
    return f"h={b.h} lower=e^-{b.lower_exp} upper=e^-{b.upper_exp}", data


def _iso(args):
    flag = isomorphic(_ctx(args), _ctx(args, second=True))
    return "isomorphic" if flag else "not isomorphic", {"isomorphic": flag}


def _recover(args):
    oracle = word_problem_oracle(_ctx(args))
    _sized(args, "m", "recover-m")  # recovery finds no |m| past the bound it searches
    m_abs, digits = recover_parameters(oracle, _sized(args, "count"))
    return f"m={m_abs} digits={' '.join(map(str, digits))}", {"m": m_abs, "digits": digits}


def _relator(args):
    ctx = None
    if args.kind == "bi":
        if args.m is None or args.xi is None:
            raise BslError("bi needs --m and --xi")
        ctx = _ctx(args)
    digits = None if args.digits is None else _parse_digit_list(args.digits, 0)
    if digits is not None and args.m is not None:
        # digits in [0, |m|), as for rseq:; the period 0 lets an empty list through
        MarkedGroupSpec(args.m, XiSeq(digits, (0,)))
    w = relator(args.kind, ctx=ctx, index=_sized(args, "index"), m=args.m, digits=digits)
    _capped(args, "word length", _compact_letters(w), "relator-letters")
    text = format_word(w, "compact")
    return text, {"word": text}


def _compact_letters(w: GroupWord) -> int:
    """The letters ``format_word(w, "compact")`` prints: one per a-letter, |k| per k e_0."""
    return sum(1 if isinstance(x, ALetter) else abs(x.vec.coeff(0)) for x in w.letters)


def _aut(args):
    ctx = _ctx(args)
    if args.aut == "J":
        spec = J()
    elif args.aut == "phiE":
        spec = PhiE(parse_evec(args.evec))
    elif args.aut == "thetaK":
        if args.coef is None:
            raise BslError("thetaK needs --coef")
        spec = ThetaK(args.coef)
    else:
        if args.embed is None:
            raise BslError("embedD needs --embed")
        spec = EmbedD(args.embed)
    text = format_word(apply_automorphism(ctx, spec, _word(args)), "extended")
    return text, {"word": text}


def _bswp(args):  # each a-letter may pinch, rescaling a b-exponent by |p| or |q|
    end = BS_TOKENS.match(args.word).end()  # where parse_bs_word stops, at the first fault
    a_letters = sum(abs(_parse_decimal(tok[2], tok.start(2))) if tok[2] else 1
                    for tok in BS_TOKEN.finditer(args.word, 0, end) if tok[1] in "aA")
    bits = max(abs(args.p), abs(args.q)).bit_length()
    _capped(args, "a-letters * bit_length(max(|p|, |q|))", a_letters * bits)
    trivial = bs_is_trivial(BSSpec(args.p, args.q), parse_bs_word(args.word))
    return "trivial" if trivial else "nontrivial", {"trivial": trivial}


def _nk(args):
    _capped(args, "k * bit_length(|n|)", args.k * abs(args.n).bit_length())
    count, alpha = bs_n_of_k(args.m, args.n, args.k)
    return f"N={count} alpha={alpha}", {"N": count, "alpha": alpha}


# --- the command table: name -> (help, handler, flags in order) ----------------

_GROUP = {
    "--m": dict(type=_int, required=True, help="nonzero modulus (signed)"),
    "--xi": dict(required=True, help="parameter (int:/rat:/rseq: grammar)"),
}
_PAIR = {
    **_GROUP,
    "--xi2": dict(required=True, help="second parameter"),
    "--m2": dict(type=_int, default=None, help="second modulus (defaults to --m)"),
}
_INPUT = dict(required=True, help="input word")
_ALPHABET = dict(choices=("compact", "extended"), default="compact",
                 help="word grammar for --word/--word2 (default compact)")
_WORD = {**_GROUP, "--word": _INPUT, "--alphabet": _ALPHABET}
_REQUIRED_INT = dict(type=_int, required=True)
_COUNT = {**_GROUP, "--count": _REQUIRED_INT}
_COMMANDS = {
    "rdigits": ("digit sequence r_1..r_count", _rdigits, _COUNT),
    "wp": ("word problem", _wp, _WORD),
    "nf": ("normal form", _form, _WORD),
    "reduce": ("Britton-reduced form", _form, _WORD),
    "wreath": ("image in Z wr Z", _wreath, _WORD),
    "conj": ("conjugacy of two words", _conj, {
        **_GROUP, "--word": _INPUT, "--word2": _INPUT, "--alphabet": _ALPHABET,
    }),
    "dist": ("shortest distinguishing word", _dist, {
        **_PAIR,
        "--max-len": dict(type=_int, default=14),
        "--force": dict(action="store_true", help="allow enumeration beyond length 14"),
    }),
    "bounds": ("distance sandwich from digit prefixes", _bounds, _PAIR),
    "iso": ("isomorphism of two marked groups", _iso, _PAIR),
    "recover": ("recover (|m|, digits) from the word problem", _recover, _COUNT),
    "relator": ("relator words (bi, vk, w, wine)", _relator, {
        "--kind": dict(choices=("bi", "vk", "w", "wine"), required=True),
        "--index": dict(type=_int, default=None, help="index for bi/vk"),
        "--m": dict(type=_int, default=None),
        "--xi": dict(default=None, help="needed for bi"),
        "--digits": dict(default=None, help="comma-separated digits for w/wine"),
    }),
    "aut": ("apply an automorphism/endomorphism", _aut, {
        **_WORD,
        "--aut": dict(choices=("J", "phiE", "thetaK", "embedD"), required=True),
        "--evec": dict(default="", help="e for phiE (EVec grammar)"),
        "--coef": dict(type=_int, default=None, help="k for thetaK"),
        "--embed": dict(type=_int, default=None, help="d for embedD"),
    }),
    "bswp": ("word problem in classical BS(p,q)", _bswp, {
        "--p": _REQUIRED_INT, "--q": _REQUIRED_INT, "--word": _INPUT,
    }),
    "nk": ("exponent-shrinking count N(k) in BS(m,n)", _nk, {
        "--m": _REQUIRED_INT, "--n": _REQUIRED_INT, "--k": _REQUIRED_INT,
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``bsl`` parser, built from ``_COMMANDS`` on first use and shared."""
    top = argparse.ArgumentParser(
        prog="bsl", description="exact computation in limits of Baumslag-Solitar groups"
    )
    top.add_argument("--json", action="store_true", help="JSON output")
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subparser from clobbering a top-level --json
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="JSON output")
    subparsers = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        # every command accepts --json in either position
        p = subparsers.add_parser(name, help=help_text, parents=[shared])
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plain, data = _COMMANDS[args.command][1](args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except (BslError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(data) if args.json else plain)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
