"""Bijective numbering for dependently typed term languages.

Given a signature in a small LF-style syntax, the package derives an
explicit bijection between each inhabited term class and an initial
segment of the naturals (all of N for infinite classes), together with
machinery to verify that bijection exhaustively up to a budget.

Typical use::

    from godelgen import assign_tags, decode_closed, parse_signature, validate

    vsig = validate(parse_signature(open("lang.sig").read()))
    plan = assign_tags(vsig)
    term = decode_closed(plan, "t", None, 42)

``import godelgen`` loads no submodule.  Each public name in ``_HOME`` is
imported from its home module the first time it is used, through
``godelgen.X``, ``from godelgen import X`` or ``from godelgen import *``,
and is the same object as ``godelgen.<home>.X``; ``godelgen.<home>``
itself also loads on first use.
"""

from importlib import import_module

# each public name, by the module it lives in
_HOME = {
    name: home
    for home, names in {
        "adequacy": "AdequacyReport ClassReport EnumBudget Verdict enumerate_terms"
                    " verify_all verify_class verify_one_to_one verify_onto"
                    " verify_total_unique",
        "bignat": "mingle mingle_fold unmingle unmingle_fold",
        "codec": "DEFAULT_FUEL ClassPlan CodecPlan assign_tags build_plan class_label"
                 " compare decode decode_closed encode encode_closed",
        "errors": "CodeOutOfRange Diagnostic FuelExhausted GodelgenError"
                  " NoWellFoundedPlan SigSyntaxError SigValidationError TermError",
        "natcollections": "GapMap GapSet TermMap TermSet parse_set_literal set_literal",
        "sigmodel": "Cardinality IndexClass Signature ValidatedSignature"
                    " compute_cardinality parse_signature validate",
        "termrep": "EMPTY_COUNTS Con CountVector Term TermArg Var check_term parse_term"
                   " print_term term_size",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name, or a home module, on first use (PEP 562)."""
    if name in _HOME:
        value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
        return value
    if name in _HOME.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
