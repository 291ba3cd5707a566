"""Command-line surface: every decision procedure behind one flag set.

Exit codes: 0 success, 2 usage or malformed input, 1 domain error.  All
results go to stdout (plain text or --json); errors go to stderr with a
stable ``error: <Type>:`` prefix.  Stdin is never read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bsclassic import BSSpec, bs_is_trivial, bs_n_of_k, parse_bs_word
from .errors import BslError, ParseError, RDigitBudgetExceeded
from .group import (
    GroupWord,
    are_conjugate,
    britton_reduce,
    format_word,
    is_trivial,
    normal_form,
    parse_word,
)
from .lattice import GroupCtx, parse_evec
from .madic import MarkedGroupSpec, _parse_decimal, parse_xi, r_digits
from .markedspace import (
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


def _add_group_flags(p: argparse.ArgumentParser, xi2: bool = False) -> None:
    p.add_argument("--m", type=_int, required=True, help="nonzero modulus (signed)")
    p.add_argument("--xi", required=True, help="parameter (int:/rat:/rseq: grammar)")
    if xi2:
        p.add_argument("--xi2", required=True, help="second parameter")
        p.add_argument("--m2", type=_int, default=None, help="second modulus (defaults to --m)")


def _add_word_flag(p: argparse.ArgumentParser, name: str = "--word") -> None:
    p.add_argument(name, required=True, help="input word")


def _add_alphabet_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--alphabet",
        choices=("compact", "extended"),
        default="compact",
        help="word grammar for --word/--word2 (default compact)",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bsl",
        description="exact computation in limits of Baumslag-Solitar groups",
    )
    top.add_argument("--json", action="store_true", help="JSON output")
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subparser from clobbering a top-level --json
    shared.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS, help="JSON output"
    )
    subparsers = top.add_subparsers(dest="command", required=True)

    def add_cmd(name, help):
        # every command accepts --json in either position
        return subparsers.add_parser(name, help=help, parents=[shared])

    p = add_cmd("rdigits", help="digit sequence r_1..r_count")
    _add_group_flags(p)
    p.add_argument("--count", type=_int, required=True)

    for name, help_text in (
        ("wp", "word problem"),
        ("nf", "normal form"),
        ("reduce", "Britton-reduced form"),
        ("wreath", "image in Z wr Z"),
    ):
        p = add_cmd(name, help=help_text)
        _add_group_flags(p)
        _add_word_flag(p)
        _add_alphabet_flag(p)

    p = add_cmd("conj", help="conjugacy of two words")
    _add_group_flags(p)
    _add_word_flag(p)
    _add_word_flag(p, "--word2")
    _add_alphabet_flag(p)

    p = add_cmd("dist", help="shortest distinguishing word")
    _add_group_flags(p, xi2=True)
    p.add_argument("--max-len", type=_int, default=14)
    p.add_argument(
        "--force",
        action="store_true",
        help="allow enumeration beyond length 14",
    )

    p = add_cmd("bounds", help="distance sandwich from digit prefixes")
    _add_group_flags(p, xi2=True)

    p = add_cmd("iso", help="isomorphism of two marked groups")
    _add_group_flags(p, xi2=True)

    p = add_cmd("recover", help="recover (|m|, digits) from the word problem")
    _add_group_flags(p)
    p.add_argument("--count", type=_int, required=True)

    p = add_cmd("relator", help="relator words (bi, vk, w, wine)")
    p.add_argument("--kind", choices=("bi", "vk", "w", "wine"), required=True)
    p.add_argument("--index", type=_int, default=None, help="index for bi/vk")
    p.add_argument("--m", type=_int, default=None)
    p.add_argument("--xi", default=None, help="needed for bi")
    p.add_argument("--digits", default=None, help="comma-separated digits for w/wine")

    p = add_cmd("aut", help="apply an automorphism/endomorphism")
    _add_group_flags(p)
    _add_word_flag(p)
    _add_alphabet_flag(p)
    p.add_argument("--aut", choices=("J", "phiE", "thetaK", "embedD"), required=True)
    p.add_argument("--evec", default="", help="e for phiE (EVec grammar)")
    p.add_argument("--coef", type=_int, default=None, help="k for thetaK")
    p.add_argument("--embed", type=_int, default=None, help="d for embedD")

    p = add_cmd("bswp", help="word problem in classical BS(p,q)")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    _add_word_flag(p)

    p = add_cmd("nk", help="exponent-shrinking count N(k) in BS(m,n)")
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)

    return top


def _spec(args, second: bool = False) -> MarkedGroupSpec:
    if second:
        m = args.m2 if args.m2 is not None else args.m
        return MarkedGroupSpec(m, parse_xi(args.xi2))
    return MarkedGroupSpec(args.m, parse_xi(args.xi))


def _ctx(args) -> GroupCtx:
    return GroupCtx(_spec(args))


def _word(args, attr: str = "word") -> GroupWord:
    return parse_word(getattr(args, attr), args.alphabet)


def _emit(args, plain: str, data: dict) -> None:
    print(json.dumps(data) if args.json else plain)


def _run(args) -> None:
    cmd = args.command
    if cmd == "rdigits":
        digits = r_digits(_spec(args), args.count)
        _emit(args, " ".join(map(str, digits)), {"digits": digits})
    elif cmd == "wp":
        trivial = is_trivial(_ctx(args), _word(args))
        _emit(args, "trivial" if trivial else "nontrivial", {"trivial": trivial})
    elif cmd in ("nf", "reduce"):
        ctx = _ctx(args)
        w = _word(args)
        form = normal_form(ctx, w) if cmd == "nf" else britton_reduce(ctx, w)
        text = format_word(form.to_word(), "extended")
        _emit(
            args,
            text,
            {"word": text, "t_length": form.t_length, "sigma": form.sigma},
        )
    elif cmd == "wreath":
        elem = wreath_image(_ctx(args), _word(args))
        data = elem.to_json()
        plain = (
            f"shift={elem.shift} offset={elem.poly.offset} "
            f"coeffs={','.join(map(str, elem.poly.coeffs)) or '0'}"
        )
        _emit(args, plain, data)
    elif cmd == "conj":
        ctx = _ctx(args)
        witness = are_conjugate(ctx, _word(args), _word(args, "word2"))
        if witness is None:
            _emit(args, "not conjugate", {"conjugate": False, "witness": None})
        else:
            text = format_word(witness, "extended")
            _emit(args, f"conjugate via {text}", {"conjugate": True, "witness": text})
    elif cmd == "dist":
        if args.max_len > 14 and not args.force:
            raise BslError(
                "enumeration beyond length 14 needs --force (cost grows like 3^n)"
            )
        found = shortest_distinguishing(_spec(args), _spec(args, second=True), args.max_len)
        if found is None:
            _emit(args, f"none up to length {args.max_len}", {"nu": None, "word": None})
        else:
            length, w = found
            text = format_word(w, "extended")
            _emit(args, f"len={length} word={text}", {"nu": length, "word": text})
    elif cmd == "bounds":
        b = distance_bounds(_spec(args), _spec(args, second=True))
        _emit(
            args,
            f"h={b.h} lower=e^-{b.lower_exp} upper=e^-{b.upper_exp}",
            {"h": b.h, "lower_exp": b.lower_exp, "upper_exp": b.upper_exp},
        )
    elif cmd == "iso":
        flag = isomorphic(_spec(args), _spec(args, second=True))
        _emit(args, "isomorphic" if flag else "not isomorphic", {"isomorphic": flag})
    elif cmd == "recover":
        m_abs, digits = recover_parameters(word_problem_oracle(_spec(args)), args.count)
        _emit(
            args,
            f"m={m_abs} digits={' '.join(map(str, digits))}",
            {"m": m_abs, "digits": digits},
        )
    elif cmd == "relator":
        ctx = None
        if args.kind == "bi":
            if args.m is None or args.xi is None:
                raise BslError("bi needs --m and --xi")
            ctx = GroupCtx(MarkedGroupSpec(args.m, parse_xi(args.xi)))
        digits = None
        if args.digits is not None:
            digits, pos = [], 0
            for piece in args.digits.split(","):
                if piece:
                    digits.append(_parse_decimal(piece, pos))
                pos += len(piece) + 1
        w = relator(args.kind, ctx=ctx, index=args.index, m=args.m, digits=digits)
        text = format_word(w, "compact")
        _emit(args, text, {"word": text})
    elif cmd == "aut":
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
        image = apply_automorphism(ctx, spec, _word(args))
        text = format_word(image, "extended")
        _emit(args, text, {"word": text})
    elif cmd == "bswp":
        trivial = bs_is_trivial(BSSpec(args.p, args.q), parse_bs_word(args.word))
        _emit(args, "trivial" if trivial else "nontrivial", {"trivial": trivial})
    elif cmd == "nk":
        count, alpha = bs_n_of_k(args.m, args.n, args.k)
        _emit(args, f"N={count} alpha={alpha}", {"N": count, "alpha": alpha})
    else:  # pragma: no cover - argparse enforces the choices
        raise BslError(f"unknown command {cmd}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except RDigitBudgetExceeded as exc:
        print(
            f"error: RDigitBudgetExceeded: first missing digit index {exc.index}",
            file=sys.stderr,
        )
        return 1
    except (BslError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
