"""Command-line driver, also run by ``python -m godelgen``.

Subcommands: check (validate a signature and show cardinalities),
encode, decode, enumerate, verify, compare.  Exit codes: 0 success,
1 verification found a failure, 2 semantic error, 3 parse error (or a
signature file that cannot be read as UTF-8 text), 4 fuel exhausted.

A one-shot command spends most of its time starting the interpreter and
importing, so only ``verify`` imports the verifier (``adequacy``) and
``json``; every other command loads neither.
"""

from __future__ import annotations

import argparse
import os
import sys

from .codec import DEFAULT_FUEL, assign_tags, class_label, compare, decode, encode
from .errors import (
    CodeOutOfRange,
    FuelExhausted,
    NoWellFoundedPlan,
    SigSyntaxError,
    SigValidationError,
    TermError,
)
from .sigmodel import (
    UNIT_CLASS,
    FiniteIndex,
    compute_cardinality,
    parse_signature,
    validate,
)
from .termrep import EMPTY_COUNTS, parse_term, print_term

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SEMANTIC = 2
EXIT_PARSE = 3
EXIT_FUEL = 4


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise SigSyntaxError(f"{path}: not UTF-8 text: {exc}") from None


def _term_text(text: str) -> str:  # "-" reads the term from standard input
    return sys.stdin.read() if text == "-" else text


def _load(path: str):
    return validate(parse_signature(_read(path)))


def _resolve_fuel(args: argparse.Namespace) -> int:
    if getattr(args, "fuel", None) is not None:
        fuel = args.fuel
    else:
        raw = os.environ.get("GODELGEN_FUEL")
        if raw is None:
            fuel = DEFAULT_FUEL
        else:
            try:
                fuel = int(raw)
            except ValueError:
                raise ValueError(f"GODELGEN_FUEL must be an integer, not {raw!r}")
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    return fuel


def _resolve_index(vsig, type_name: str, text: str | None) -> int | None:
    """Accept a decimal index or, for finite index types, an instance name."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    # the type exists and takes an index: every validated indexed type has 0
    vsig.class_of(type_name, 0)
    kind = vsig.index_kind(type_name)
    if isinstance(kind, FiniteIndex):
        block, _inf = vsig.ctors_for_class(kind.type_name, UNIT_CLASS)
        entry = block.entry_for(text)
        if entry is not None and entry.count == 1:
            return entry.base
        if entry is not None:
            raise TermError(
                f"index name {text} covers {entry.count} instances;"
                " give a decimal index"
            )
    raise TermError(f"cannot resolve index {text!r} for type {type_name}")


def _target(vsig, args: argparse.Namespace) -> tuple[str, int | None]:
    """The --type and --index flags; parse_term, encode and decode check them."""
    return args.type_name, _resolve_index(vsig, args.type_name, args.index)


# -------------------------------------------------------------- commands


def cmd_check(args: argparse.Namespace) -> int:
    sig = parse_signature(_read(args.signature))
    compute_cardinality(sig)
    ana = sig.analysis
    for decl in sig.decls:
        for cls in ana.classes[decl.name]:
            print(f"{class_label(decl.name, cls)}: {ana.card[(decl.name, cls)]}")
    validate(sig)
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    vsig = _load(args.signature)
    plan = assign_tags(vsig)
    type_name, index = _target(vsig, args)
    term = parse_term(vsig, type_name, index, _term_text(args.term))
    print(encode(plan, type_name, index, EMPTY_COUNTS, term))
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    fuel = _resolve_fuel(args)
    vsig = _load(args.signature)
    plan = assign_tags(vsig)
    type_name, index = _target(vsig, args)
    term = decode(plan, type_name, index, EMPTY_COUNTS, args.code, fuel)
    print(print_term(vsig, term, index=index))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    fuel = _resolve_fuel(args)
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    vsig = _load(args.signature)
    plan = assign_tags(vsig)
    type_name, index = _target(vsig, args)
    for code in plan.class_plan(type_name, index).cardinality.codes_below(args.count):
        term = decode(plan, type_name, index, EMPTY_COUNTS, code, fuel)
        print(f"{code}\t{print_term(vsig, term, index=index)}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    import json

    from . import adequacy

    fuel = _resolve_fuel(args)
    vsig = _load(args.signature)
    plan = assign_tags(vsig)
    budget = adequacy.EnumBudget(max_size=args.max_size, max_code=args.max_code, fuel=fuel)
    report = adequacy.verify_all(plan, budget)
    if args.as_json:
        print(json.dumps(report.json_dict(args.signature), indent=2))
    else:
        for row in report.classes:
            label = (
                row.type_name
                if row.index_class == "-"
                else f"{row.type_name}[{row.index_class}]"
            )
            status = "ok" if row.passed else "FAIL"
            print(
                f"{label}: {status}"
                f" ({row.terms_checked} terms, {row.codes_checked} codes)"
            )
            if row.counterexample is not None:
                print(f"  {row.counterexample}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    vsig = _load(args.signature)
    plan = assign_tags(vsig)
    type_name, index = _target(vsig, args)
    left = parse_term(vsig, type_name, index, _term_text(args.left))
    right = parse_term(vsig, type_name, index, _term_text(args.right))
    order = compare(plan, type_name, index, left, right)
    print({-1: "LT", 0: "EQ", 1: "GT"}[order])
    return EXIT_OK


# ---------------------------------------------------------------- driver


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", dest="type_name", required=True,
                        help="type whose class to work in")
    parser.add_argument("--index", default=None,
                        help="concrete index: decimal, or an instance name"
                             " for finite index types")


def _add_fuel_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fuel", type=int, default=None,
                        help="decode step budget (default 100000, or"
                             " GODELGEN_FUEL)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godelgen",
        description="Bijective numbering of terms over binding signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a signature; print cardinalities")
    p.add_argument("signature")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("encode", help="print the code of a term")
    p.add_argument("signature")
    _add_target_flags(p)
    p.add_argument("term")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="print the term of a code")
    p.add_argument("signature")
    _add_target_flags(p)
    _add_fuel_flag(p)
    p.add_argument("code", type=int)
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("enumerate", help="print the first terms of a class")
    p.add_argument("signature")
    _add_target_flags(p)
    _add_fuel_flag(p)
    p.add_argument("count", type=int)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="check the numbering on bounded ranges")
    p.add_argument("signature")
    p.add_argument("--max-size", dest="max_size", type=int, default=6)
    p.add_argument("--max-code", dest="max_code", type=int, default=10_000)
    p.add_argument("--json", dest="as_json", action="store_true")
    _add_fuel_flag(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("compare", help="order two terms by their codes")
    p.add_argument("signature")
    _add_target_flags(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=cmd_compare)

    return parser


def run(argv: list[str] | None = None) -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # lifted: codes of any length
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SigSyntaxError as exc:
        return _fail(exc, EXIT_PARSE)
    except TermError as exc:
        return _fail(exc, EXIT_PARSE)
    except (SigValidationError, NoWellFoundedPlan, CodeOutOfRange, ValueError) as exc:
        return _fail(exc, EXIT_SEMANTIC)
    except FuelExhausted as exc:
        return _fail(exc, EXIT_FUEL)
    except OSError as exc:
        return _fail(exc, EXIT_PARSE)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _fail(exc: BaseException, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
