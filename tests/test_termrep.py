"""Term parsing, printing, checking, and sizes."""

import ast
import copy
import dataclasses
import pickle
import sys
import time
from pathlib import Path

import pytest

from conftest import SIG_NAMES, sig_text
from godelgen import codec, sigmodel, termrep
from godelgen.codec import assign_tags, decode, decode_closed, encode, encode_closed
from godelgen.errors import SigSyntaxError, TermError
from godelgen.sigmodel import (
    SApp,
    SArrow,
    SBind,
    SName,
    SNum,
    SPi,
    SType,
    parse_signature,
    tokenize,
    validate,
)
from godelgen.termrep import (
    EMPTY_COUNTS,
    Con,
    CountVector,
    TermArg,
    Var,
    check_term,
    parse_term,
    print_term,
    term_size,
)


def roundtrip(vsig, type_name, index, text):
    term = parse_term(vsig, type_name, index, text)
    check_term(vsig, type_name, index, EMPTY_COUNTS, term)
    printed = print_term(vsig, term, index=index)
    assert parse_term(vsig, type_name, index, printed) == term
    return term, printed


# ------------------------------------------------------------ count vector


def test_count_vector_basics():
    v = EMPTY_COUNTS
    assert v.get("t", None) == 0
    w = v.extend("t", None).extend("t", None).extend("term", 3)
    assert w.get("t", None) == 2
    assert w.get("term", 3) == 1
    assert v.get("t", None) == 0, "extend must not mutate"
    assert w == CountVector({("t", None): 2, ("term", 3): 1})
    assert hash(w) == hash(CountVector({("term", 3): 1, ("t", None): 2}))


# ---------------------------------------------------------------- parsing


def test_parse_and_print_lambda(vsigs):
    v = vsigs["lambda"]
    _, printed = roundtrip(v, "t", None, "lam [x] x")
    assert printed == "lam [x0] x0"
    _, printed = roundtrip(v, "t", None, "app (lam [x] x) (lam [y] y)")
    assert printed == "app (lam [x0] x0) (lam [x0] x0)"


def test_alpha_equivalent_terms_are_identical(vsigs):
    v = vsigs["lambda"]
    a = parse_term(v, "t", None, "lam [x] lam [y] app x y")
    b = parse_term(v, "t", None, "lam [u] lam [v] app u v")
    assert a == b


def test_levels_fixed_at_binding(vsigs):
    v = vsigs["lambda"]
    t = parse_term(v, "t", None, "lam [x] lam [y] x")
    inner = t.args[0].body
    assert t == Con(
        "lam", (), (TermArg(1, Con("lam", (), (TermArg(1, Var("t", None, 0)),))),)
    )
    assert inner.args[0].body.level == 0
    t2 = parse_term(v, "t", None, "lam [x] lam [y] y")
    assert t2.args[0].body.args[0].body.level == 1


def test_a_shadowing_binder_leaves_scope_with_its_argument(vsigs):
    v = vsigs["lambda"]
    outer, inner = Var("t", None, 0), Var("t", None, 1)
    t = parse_term(v, "t", None, "lam [x] app (lam [x] x) x")
    assert t == Con("lam", (), (TermArg(1, Con("app", (), (
        TermArg(0, Con("lam", (), (TermArg(1, inner),))),
        TermArg(0, outer),
    ))),))
    # a namer that reuses one name prints the same shadowing back
    assert print_term(v, t, namer=lambda *_: "x") == "lam [x] app (lam [x] x) x"


def test_parse_indexed(vsigs):
    v = vsigs["termfam"]
    roundtrip(v, "term", 0, "unit")
    roundtrip(v, "term", 0, "rec [f] f")
    roundtrip(v, "term", 1, "lam [x] x")
    roundtrip(v, "term", 2, "lam [x] lam [y] app (lam [u] u) y")
    t, _ = roundtrip(v, "term", 0, "app (lam [x] x) unit")
    assert t.ctor == "app"


def test_shared_letter_distinct_levels(vsigs):
    # x (term 0) and f (term 0) share a letter but get distinct levels
    v = vsigs["termfam"]
    _, printed = roundtrip(v, "term", 1, "lam [x] rec [f] app (lam [y] f) x")
    assert printed == "lam [x0] rec [x1] app (lam [x2] x1) x0"


def test_distinct_index_gets_distinct_letter():
    from godelgen.sigmodel import parse_signature, validate

    v = validate(
        parse_signature(
            "nat : type. z : nat. s : nat -> nat. term : nat -> type."
            " unit : term z. lam : (term z -> term N) -> term (s N)."
            " app : term (s N) -> term z -> term N."
            " wrap : (term (s z) -> term N) -> term N."
        )
    )
    _, printed = roundtrip(v, "term", 1, "wrap [g] lam [x] app g x")
    # g binds at index 1, x at index 0: different letters, both level 0
    assert printed == "wrap [x0] lam [y0] app x0 y0"


def test_parse_explicit_index_args(vsigs):
    v = vsigs["exists"]
    t, printed = roundtrip(v, "term", 0, "exists 2 [x] app (app x unit) unit")
    assert t.index_args == (2,)
    assert printed == "exists 2 [x0] app (app x0 unit) unit"
    t2, _ = roundtrip(v, "term", 0, "exists (s (s z)) [x] app (app x unit) unit")
    assert t2 == t


def test_parse_numerals(vsigs):
    v = vsigs["nat"]
    five = parse_term(v, "nat", None, "5")
    assert five == parse_term(v, "nat", None, "s (s (s (s (s z))))")
    assert term_size(five) == 6
    assert parse_term(v, "nat", None, "0") == Con("z")


def test_only_decimal_words_are_numerals(vsigs):
    v = vsigs["nat"]
    # Arabic-Indic three is a decimal digit; superscript two is a digit
    # but not decimal, so it is a name
    assert parse_term(v, "nat", None, "s \u0663") == parse_term(v, "nat", None, "4")
    with pytest.raises(TermError, match="unbound name '\u00b2'"):
        parse_term(v, "nat", None, "s \u00b2")


def test_numerals_are_bounded_by_the_default_fuel(vsigs):
    # a numeral's s chain has one node more than its value, so 99,999, the
    # largest nat code DEFAULT_FUEL decodes, is the largest numeral read
    v = vsigs["nat"]
    assert termrep.DEFAULT_FUEL is codec.DEFAULT_FUEL
    assert term_size(parse_term(v, "nat", None, "99999")) == codec.DEFAULT_FUEL
    assert parse_term(v, "nat", None, "0" * 6000 + "3") == parse_term(v, "nat", None, "3")
    assert parse_term(v, "nat", None, "s \u0660\u0660\u0660\u0660\u0660\u0660\u0661") == (
        parse_term(v, "nat", None, "2"))
    texts = ["100000", "10000000000", "1" * 5000, "s " + "2" * 5000, "s (" + "9" * 200_000 + ")"]
    for text in texts:
        start = time.perf_counter()
        with pytest.raises(TermError, match="^numeral over 99999, the largest nat code"):
            parse_term(v, "nat", None, text)
        assert time.perf_counter() - start < 1
    # a numeral names a constructor first, at any length
    name = "7" * 5000
    digits = validate(parse_signature(f"b : type. {name} : b. 0 : b."))
    assert parse_term(digits, "b", None, "0" + name) == Con(name)
    with pytest.raises(TermError, match=f"^numeral {'8' * 5000} is only a term when"):
        parse_term(digits, "b", None, "8" * 5000)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_a_numeral_past_ints_digit_limit_is_a_term_or_syntax_error(vsigs):
    # an index atom in term text, and a numeral in a signature, of more
    # digits than int reads; with the limit lifted, as the CLI lifts it,
    # both read as they always did
    term_text = "exists " + "2" * 5000 + " [x] unit"
    sig = sig_text("nat") + " t : nat -> type. c : t " + "1" * 5000 + "."
    reads = [(lambda: parse_term(vsigs["exists"], "term", 0, term_text), TermError),
             (lambda: parse_signature(sig), SigSyntaxError)]
    for read, error in reads:
        start = time.perf_counter()
        with pytest.raises(error, match="numeral of 5000 digits is over Python's limit"):
            read()
        assert time.perf_counter() - start < 1
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert parse_term(vsigs["exists"], "term", 0, term_text).index_args == (int("2" * 5000),)
        assert "c" in parse_signature(sig).ctors
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_constructor_named_by_digits_reads_back():
    # a declared name is read as written, before it is read as a numeral
    vsig = validate(parse_signature("bit : type. 0 : bit. 007 : bit. w : type."
                                    " 01 : bit -> w -> w. 7 : w."))
    plan = assign_tags(vsig)
    assert parse_term(vsig, "bit", None, "007") == Con("007")
    for type_name in ("bit", "w"):
        for code in plan.class_plan(type_name, None).cardinality.codes_below(40):
            term = decode_closed(plan, type_name, None, code)
            back = parse_term(vsig, type_name, None, print_term(vsig, term))
            assert back == term and encode_closed(plan, type_name, None, back) == code
    assert parse_term(vsig, "w", None, "01 007 (01 0 7)") == decode_closed(plan, "w", None, 4)


def test_numerals_inside_terms(vsigs):
    v = vsigs["natlist"]
    a = parse_term(v, "natlist", None, "natlist/+ 2 natlist/0")
    b = parse_term(v, "natlist", None, "natlist/+ (s (s z)) natlist/0")
    assert a == b


def test_abbrev_expansion():
    from godelgen.sigmodel import parse_signature, validate

    v = validate(
        parse_signature(
            "t : type. lam : (t -> t) -> t. app : t -> t -> t.\n"
            "%abbrev id : t = lam [x] x."
        )
    )
    assert parse_term(v, "t", None, "app id id") == parse_term(
        v, "t", None, "app (lam [x] x) (lam [x] x)"
    )
    # expansion happens at the use site, under the surrounding binders
    t = parse_term(v, "t", None, "lam [y] app y id")
    assert t == parse_term(v, "t", None, "lam [y] app y (lam [x] x)")


def test_abbrev_expands_in_an_explicit_index_argument():
    from godelgen.sigmodel import parse_signature, validate

    v = validate(parse_signature(sig_text("exists") + "%abbrev two : nat = s (s z).\n"))
    assert parse_term(v, "term", 0, "exists two [x] unit") == parse_term(
        v, "term", 0, "exists (s (s z)) [x] unit"
    )


def test_parse_errors(vsigs):
    v = vsigs["termfam"]
    with pytest.raises(TermError, match="cannot construct"):
        parse_term(v, "term", 1, "unit")
    with pytest.raises(TermError, match="cannot construct"):
        parse_term(v, "term", 0, "lam [x] x")
    with pytest.raises(TermError, match="unbound name"):
        parse_term(v, "term", 0, "app (lam [x] y) unit")
    with pytest.raises(TermError, match="cannot construct"):
        parse_term(v, "term", 0, "app unit unit")
    with pytest.raises(TermError, match="argument"):
        parse_term(v, "term", 0, "app (lam [x] x)")
    with pytest.raises(TermError, match="cannot be applied"):
        parse_term(v, "term", 1, "lam [x] app (x unit) unit")
    with pytest.raises(TermError, match="bind"):
        parse_term(v, "term", 1, "lam unit")
    with pytest.raises(TermError, match="syntax"):
        parse_term(v, "term", 0, "app (lam [x] x")
    with pytest.raises(TermError):
        parse_term(v, "term", -1, "unit")
    with pytest.raises(TermError, match="unknown type"):
        parse_term(v, "nosuch", None, "unit")
    ex = vsigs["exists"]
    for bad_index in ("s", "(z z)", "(s z z)"):
        with pytest.raises(TermError, match="invalid nat index value"):
            parse_term(ex, "term", 0, f"exists {bad_index} [x] x")


def test_binder_given_as_an_explicit_index(vsigs):
    # a binder is no index expression at all, of any index type
    assert message(vsigs["exists"], "term", 0, "exists [x] x unit") == "invalid index value"


def test_explicit_index_values_print_with_the_index_types_constructors():
    # num is nat-shaped but not named nat, so its values print as terms
    v = validate(parse_signature(
        "num : type. zero : num. succ : num -> num."
        " w : num -> type. wb : w zero. ex : {M : num} w M -> w N."
    ))
    t, printed = roundtrip(v, "w", 3, "ex (succ (succ zero)) (ex zero wb)")
    assert t.index_args == (2,)
    assert printed == "ex (succ (succ zero)) (ex zero wb)"


def test_print_term_infers_the_index_of_zero_and_constant_patterns(vsigs):
    assert print_term(vsigs["termfam"], Con("unit")) == "unit"
    reg = validate(parse_signature(
        "flag : type. lo : flag. hi : flag."
        " reg : flag -> type. rlo : reg lo. rhi : reg hi. step : reg F -> reg F."
    ))
    assert print_term(reg, Con("rhi")) == "rhi"
    with pytest.raises(TermError) as info:
        print_term(reg, Con("step", (), (TermArg(0, Con("rhi")),)))
    assert str(info.value) == (
        "the index of a term headed by step is not determined by its pattern;"
        " pass index= explicitly"
    )


def test_out_of_scope_variable_type(vsigs):
    v = vsigs["termfam"]
    # x has type term 0 inside lam at 1; using it as term 1 must fail
    with pytest.raises(TermError, match="term 0"):
        parse_term(v, "term", 1, "lam [x] rec [f] app x f")


# term text read in one pass: messages, accepted forms and fault order

LAMBDA_ABBREVS = "%abbrev a : t = lam [x] x.\n%abbrev k : t = lam [x] lam [y] x.\n"
EXISTS_ABBREVS = (
    "%abbrev two : nat = s (s z).\n%abbrev e : term z = exists (s z) [x] app x unit.\n"
)


@pytest.fixture(scope="module")
def lam_ab():
    return validate(parse_signature(sig_text("lambda") + LAMBDA_ABBREVS))


@pytest.fixture(scope="module")
def ex_ab():
    return validate(parse_signature(sig_text("exists") + EXISTS_ABBREVS))


def message(vsig, type_name, index, text) -> str:
    with pytest.raises(TermError) as info:
        parse_term(vsig, type_name, index, text)
    return str(info.value)


@pytest.mark.parametrize("text, expected", [
    ("(lam [x] x) (lam [x] x)", "only constructors can be applied"),
    ("(type) a", "only constructors can be applied"),
    ("((app) a) a", "only constructors can be applied"),
    ("a a", "abbreviation a cannot be applied"),
    ("lam [x] x x", "variable x cannot be applied"),
    ("lam [x] x lam", "variable x cannot be applied"),
    ("[x] x", "binder [x] is only allowed in constructor arguments"),
    ("t -> t", "invalid term"),
    ("lam [x] x -> x", "invalid term"),
    ("type", "invalid term"),
    ("{N : nat} t", "invalid term"),
    ("app (t -> t) (lam [x] y)", "invalid term"),
    ("app ({N : nat} t) (lam [x] y)", "invalid term"),
    ("app (lam [x] y) (t -> t)", "unbound name 'y'"),
    ("lam [x] [y] x", "argument of lam binds only 1 variable(s)"),
    ("app ([x] x) a", "argument of app binds only 0 variable(s)"),
    ("lam (lam [x] x)", "argument of lam must bind 1 variable(s) with [name]"),
    ("app x (", "term syntax error: 1:8: unexpected 'end of input'"),
    ("lam [x] x )", "term syntax error: 1:11: trailing input ')'"),
    ("lam [x] x ]", "term syntax error: 1:11: trailing input ']'"),
    ("foo a", "unbound name 'foo'"),
    ("5", "numeral 5 is only a term when the signature declares nat with z and s"),
    ("app", "constructor app expects 2 argument(s), got 0"),
    ("lam ((app) a a)", "argument of lam must bind 1 variable(s) with [name]"),
    # an arrow is found where it is read, so a fault read before it wins
    ("app y a -> a", "unbound name 'y'"),
    ("lam a -> a", "argument of lam must bind 1 variable(s) with [name]"),
    ("app a -> a", "invalid term"),
    ("lam [x] app x <- x", "invalid term"),
    ("(a) -> a", "invalid term"),
])
def test_term_text_messages(lam_ab, text, expected):
    assert message(lam_ab, "t", None, text) == expected


def test_index_arguments_and_numeral_names_in_term_text():
    two = validate(parse_signature(
        sig_text("nat") + "t : type. base : t. two : {M:nat} {N:nat} t -> t."
    ))
    assert message(two, "t", None, "two z") == "constructor two expects 3 argument(s), got 1"
    assert message(two, "t", None, "two z -> base") == "invalid term"
    # a numeral names a constructor, as in a signature, before it names a nat
    digits = validate(parse_signature("b : type. 0 : b. 1 : b."))
    assert parse_term(digits, "b", None, "01") == Con("1")


def test_an_abbreviation_whose_body_is_no_term_fails_where_it_is_used():
    # the signature takes any expression as a body; it is read at each use
    v = validate(parse_signature(
        sig_text("lambda") + LAMBDA_ABBREVS + "%abbrev f : t = app a a -> a.\n"
        "%abbrev g : t = (a) -> a.\n"
    ))
    assert message(v, "t", None, "lam [x] f") == "invalid term"
    assert message(v, "t", None, "app g a") == "invalid term"


def test_reading_an_abbreviation_evaluates_no_index(monkeypatch):
    # validate evaluates each abbreviation's index once; the reader reuses it
    v = validate(parse_signature(
        sig_text("nat") + "t : nat -> type. tz : t z. ts : t N -> t (s N)."
        " %abbrev t2 : t 2 = ts (ts tz)."
    ))
    calls, index_value = [], sigmodel._index_value
    monkeypatch.setattr(sigmodel, "_index_value", lambda *a: calls.append(a) or index_value(*a))
    two = Con("ts", (), (TermArg(0, Con("ts", (), (TermArg(0, Con("tz")),))),))
    assert [parse_term(v, "t", 2, "t2") for _ in range(5)] == [two] * 5
    assert calls == []


def test_abbreviation_of_another_type(ex_ab):
    assert message(ex_ab, "term", 0, "two") == "abbreviation two has type nat, expected term 0"
    assert message(ex_ab, "term", 1, "e") == "abbreviation e has type term 0, expected term 1"


@pytest.mark.parametrize("text", [
    "(app) (lam [x] x) (lam [x] x)",
    "((app)) (lam [x] x) a",
    "app ((lam [x] x)) ((a))",
])
def test_brackets_around_a_head_or_an_argument_change_nothing(lam_ab, text):
    assert parse_term(lam_ab, "t", None, text) == parse_term(
        lam_ab, "t", None, "app (lam [x] x) (lam [x] x)"
    )


@pytest.mark.parametrize("text", [
    "lam ([x] x)", "lam [x] (x)", "((lam [x] x))", "lam [x] x %% a comment", "(a)",
])
def test_forms_of_the_identity(lam_ab, text):
    assert parse_term(lam_ab, "t", None, text) == parse_term(lam_ab, "t", None, "lam [x] x")


def test_a_syntax_fault_wins_over_an_earlier_term_fault(lam_ab):
    assert message(lam_ab, "t", None, "lam [x] y )") == "term syntax error: 1:11: trailing input ')'"
    assert message(lam_ab, "t", None, "app y (lam [x] x") == (
        "term syntax error: 1:17: expected ')', found 'end of input'"
    )


def test_a_wrong_argument_count_is_found_at_the_end_of_its_application(lam_ab):
    # the argument faults before the surplus atom are found first
    assert message(lam_ab, "t", None, "app (lam [x] y) z w") == "unbound name 'y'"
    assert message(lam_ab, "t", None, "app a a a") == "constructor app expects 2 argument(s), got 3"
    assert message(lam_ab, "t", None, "app a (lam [x] x) (a) [y] y") == (
        "constructor app expects 2 argument(s), got 4"
    )
    assert message(lam_ab, "t", None, "app a") == "constructor app expects 2 argument(s), got 1"


@pytest.mark.parametrize("text, expanded, code", [
    ("lam [z] app z k", "lam [z] app z (lam [x] lam [y] x)", 264),
    ("lam [z] app k (app z a)", "lam [z] app (lam [x] lam [y] x) (app z (lam [x] x))", 844),
    ("lam [u] lam [w] app (app w k) (app a u)",
     "lam [u] lam [w] app (app w (lam [x] lam [y] x)) (app (lam [x] x) u)", 4229510),
])
def test_abbreviations_with_binders_under_outer_binders(lam_ab, text, expanded, code):
    # the abbreviations' binders take levels above the outer ones
    term = parse_term(lam_ab, "t", None, text)
    assert term == parse_term(lam_ab, "t", None, expanded)
    assert encode_closed(assign_tags(lam_ab), "t", None, term) == code


@pytest.mark.parametrize("text, code", [
    ("exists z [x] app (lam [y] x) unit", 54),
    ("exists (s z) [x] app x unit", 12),
    ("exists 2 [x] app (app x unit) unit", 90),
    ("exists 1 [y] e", 12489),
    ("exists (s z) [y] app (lam [q] app y (e)) unit", 18889178826985160064072),
    ("exists two [x] app (app x e) e", 258704736090),
])
def test_index_arguments_and_indexed_abbreviations(ex_ab, text, code):
    term = parse_term(ex_ab, "term", 0, text)
    assert encode_closed(assign_tags(ex_ab), "term", 0, term) == code
    assert parse_term(ex_ab, "term", 0, print_term(ex_ab, term, index=0)) == term


def test_term_text_builds_no_surface_tree(vsigs, plans, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a surface node was built")

    text = print_term(vsigs["lambda"], decode_closed(plans["lambda"], "t", None, 10**40))
    for name in ("SName", "SApp", "SBind"):
        monkeypatch.setattr(sigmodel, name, refuse)
    term = parse_term(vsigs["lambda"], "t", None, text)
    assert encode_closed(plans["lambda"], "t", None, term) == 10**40


def test_tokens_share_one_string_per_text():
    toks = tokenize("x0 y " + "x" + "0")
    assert toks == ["x0", "y", "x0", ""]
    assert toks[0] is toks[2]


@pytest.mark.parametrize("text", [
    *(sig_text(name) for name in SIG_NAMES),
    "lam [x] app (x)(lam[y]y)", "a->b<-c.{N:nat}t\u0663 \u00b2", "a\x1cb\u3000c\n\t",
    "%abbrev a : t = b. %% note", "a, b", "x %%", "%foo {", "",
])
def test_plain_texts_split_as_the_lexeme_reads_them(text):
    # a plain text is split by str methods, any other by _LEXEME; both agree
    lexed = [tok for tok in sigmodel._LEXEME.findall(text) if tok] + [""]
    toks, seen = sigmodel._tokens(text)
    assert toks == tokenize(text) == lexed and list(seen) == list(dict.fromkeys(lexed[:-1]))
    assert all(toks[toks.index(tok)] is tok for tok in toks)


# --------------------------------------------------------------- checking


def test_check_term_rejects_bad_levels(vsigs):
    v = vsigs["lambda"]
    bad = Con("lam", (), (TermArg(1, Var("t", None, 3)),))
    with pytest.raises(TermError, match="level"):
        check_term(v, "t", None, EMPTY_COUNTS, bad)
    ok = Con("lam", (), (TermArg(1, Var("t", None, 0)),))
    check_term(v, "t", None, EMPTY_COUNTS, ok)


def test_check_term_open_terms(vsigs):
    v = vsigs["lambda"]
    free = Var("t", None, 0)
    with pytest.raises(TermError):
        check_term(v, "t", None, EMPTY_COUNTS, free)
    check_term(v, "t", None, EMPTY_COUNTS.extend("t", None), free)


def test_check_term_binder_count(vsigs):
    v = vsigs["lambda"]
    bad = Con("lam", (), (TermArg(0, Con("lam", (), (TermArg(1, Var("t", None, 0)),))),))
    with pytest.raises(TermError, match="bind"):
        check_term(v, "t", None, EMPTY_COUNTS, bad)


def test_check_term_wrong_family(vsigs):
    v = vsigs["natlist"]
    bad = Con("natlist/+", (), (TermArg(0, Con("natlist/0")), TermArg(0, Con("natlist/0"))))
    with pytest.raises(TermError, match="constructs"):
        check_term(v, "natlist", None, EMPTY_COUNTS, bad)


def test_check_term_index_args(vsigs):
    v = vsigs["exists"]
    t = parse_term(v, "term", 0, "exists 1 [x] app x unit")
    check_term(v, "term", 0, EMPTY_COUNTS, t)
    with pytest.raises(TermError, match="index"):
        check_term(v, "term", 0, EMPTY_COUNTS, Con("exists", (), t.args))


# ------------------------------------------------------------------ sizes


def test_term_size(vsigs):
    v = vsigs["lambda"]
    assert term_size(parse_term(v, "t", None, "lam [x] x")) == 2
    assert term_size(parse_term(v, "t", None, "app (lam [x] x) (lam [x] x)")) == 5


def test_term_size_counts_index_magnitude(vsigs):
    # an index argument of value v contributes v + 1 to the size
    v = vsigs["exists"]
    t0 = parse_term(v, "term", 0, "exists 0 [x] x")
    assert term_size(t0) == 3
    t1 = parse_term(v, "term", 0, "exists 1 [x] app x unit")
    assert term_size(t1) == 6
    t2 = parse_term(v, "term", 0, "exists 2 [x] app (app x unit) unit")
    assert term_size(t2) == 9


# ----------------------------------------------------------------- naming


def test_custom_namer(vsigs):
    v = vsigs["lambda"]
    t = parse_term(v, "t", None, "lam [x] lam [y] app x y")
    alt = print_term(v, t, namer=lambda ty, ix, lvl, ord: f"fresh{ord}")
    assert alt == "lam [fresh0] lam [fresh1] app fresh0 fresh1"
    assert parse_term(v, "t", None, alt) == t


def test_printer_avoids_constant_names():
    from godelgen.sigmodel import parse_signature, validate

    v = validate(parse_signature("t : type. x0 : t. lam : (t -> t) -> t."))
    term = parse_term(v, "t", None, "lam [w] w")
    printed = print_term(v, term)
    assert printed == "lam [x0'] x0'"
    assert parse_term(v, "t", None, printed) == term


def test_print_open_term(vsigs):
    v = vsigs["lambda"]
    open_term = Con("app", (), (TermArg(0, Var("t", None, 0)), TermArg(0, Var("t", None, 1))))
    text = print_term(v, open_term)
    assert text == "app x0 x1"
    assert print_term(v, Var("t", None, 0)) == "x0"  # the index of a Var is its own
    # a binder at the free variable's level hides its name only in its argument
    shadowing = Con("app", (), (
        TermArg(0, Con("app", (), (
            TermArg(0, Var("t", None, 0)),
            TermArg(0, Con("lam", (), (TermArg(1, Var("t", None, 0)),))),
        ))),
        TermArg(0, Var("t", None, 0)),
    ))
    by_ordinal = print_term(v, shadowing, namer=lambda ty, ix, lvl, ord: f"v{ord}")
    assert by_ordinal == "app (app v0 (lam [v1] v1)) v0"


def test_print_rejects_unknown_constructors(vsigs):
    # as check_term does: at the head, whose index is inferred from its
    # pattern or given, with index arguments, and inside an argument
    v = vsigs["lambda"]
    inner = Con("lam", (), (TermArg(1, Con("nope")),))
    calls = [
        lambda: print_term(v, Con("nope")),
        lambda: print_term(v, Con("nope"), None),
        lambda: print_term(vsigs["termfam"], Con("nope", (3,)), 0),
        lambda: print_term(v, inner),
    ]
    for call in calls:
        with pytest.raises(TermError, match="^unknown constructor 'nope'$"):
            call()


@pytest.mark.parametrize("index_args", [[1], ("a",), (), (1, 2), (-1,), (True,), (1.0,), None])
def test_print_rejects_the_index_arguments_check_term_rejects(vsigs, index_args):
    v = vsigs["exists"]
    node = Con("exists", index_args, (TermArg(1, Con("unit")),))
    with pytest.raises(TermError) as checked:
        check_term(v, "term", 0, EMPTY_COUNTS, node)
    for term in (node, Con("rec", (), (TermArg(1, node),))):  # at the head, and inside
        with pytest.raises(TermError) as printed:
            print_term(v, term, 0)
        assert str(printed.value) == str(checked.value)
    with pytest.raises(TermError, match=r"^index arguments \[\] of unit are not a tuple$"):
        print_term(v, Con("unit", []), 0)


def test_print_rejects_the_argument_counts_check_term_rejects(vsigs):
    v = vsigs["lambda"]
    ident = parse_term(v, "t", None, "lam [x] x")
    for args in [(TermArg(0, ident),), (TermArg(0, ident),) * 3, ()]:
        node = Con("app", (), args)
        with pytest.raises(TermError) as checked:
            check_term(v, "t", None, EMPTY_COUNTS, node)
        assert str(checked.value) == f"constructor app takes 2 argument(s), got {len(args)}"
        for term in (node, Con("lam", (), (TermArg(1, node),))):  # at the head, and inside
            with pytest.raises(TermError) as printed:
                print_term(v, term)
            assert str(printed.value) == str(checked.value)


def test_check_term_does_no_pairing_arithmetic(vsigs, monkeypatch):
    # check_term is encode's walk under a plan with no class plans: each
    # node's code is its variable count, so no operand is ever paired
    v = vsigs["lambda"]
    term = decode_closed(assign_tags(v), "t", None, 10**29999 + 12345)
    assert term_size(term) > 10_000

    def no_pairing(*args):
        raise AssertionError("check_term paired operands")

    for name in ("_spread", "_compact", "mingle_fold"):
        monkeypatch.setattr(codec, name, no_pairing)
    check_term(v, "t", None, EMPTY_COUNTS, term)
    with pytest.raises(AssertionError, match="paired"):
        encode_closed(assign_tags(v), "t", None, term)


def test_deep_terms(vsigs):
    v = vsigs["nat"]
    text = "1024"
    t = parse_term(v, "nat", None, text)
    assert term_size(t) == 1025
    check_term(v, "nat", None, EMPTY_COUNTS, t)
    printed = print_term(v, t)
    assert parse_term(v, "nat", None, printed) == t


# ------------------------------------------------------------- term nodes


NODES = [
    Var("t", None, 2),
    TermArg(1, Var("t", None, 0)),
    Con("lam", (), (TermArg(1, Con("app", (), (TermArg(0, Var("t", None, 0)),) * 2)),)),
    SName("x", at=3),
    SNum(7, at=1),
    SApp(SName("s"), (SNum(1),)),
    SArrow(SName("t"), SName("t")),
    SBind("x", SName("x")),
    SPi("N", SName("nat"), SApp(SName("t"), (SName("N"),))),
    SType(at=2),
]


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_are_slotted_and_frozen(node):
    assert not hasattr(node, "__dict__")
    name = dataclasses.fields(node)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, name, getattr(node, name))
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node


def _objects(term):
    """Each Con, TermArg and Var object of term, once."""
    seen, todo, out = set(), [term], []
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            todo.extend(node.args if isinstance(node, Con) else
                        [node.body] if isinstance(node, TermArg) else [])
    return out


def _twin(node):
    """node rebuilt through its class's constructor."""
    if isinstance(node, Var):
        return Var(node.type_name, node.index, node.level)
    if isinstance(node, TermArg):
        return TermArg(node.binder_count, _twin(node.body))
    return Con(node.ctor, node.index_args, tuple(_twin(ta) for ta in node.args))


def _with_index_args(plan):
    # exists.sig is termfam plus exists {M:nat}, whose nodes carry index args
    for code in range(200):
        term = decode_closed(plan, "term", 1, code)
        if any(isinstance(n, Con) and n.index_args for n in _objects(term)):
            return term
    raise AssertionError("no exists node in codes 0..199")


WALK_BUILT = {
    "decode lambda": lambda v, p: decode_closed(p["lambda"], "t", None, 4321),
    "decode termfam": lambda v, p: decode_closed(p["termfam"], "term", 2, 77),
    "decode exists": lambda v, p: _with_index_args(p["exists"]),
    "parse binder": lambda v, p: parse_term(v["lambda"], "t", None, "lam [x] app x (lam [y] y)"),
    "parse numeral": lambda v, p: parse_term(v["nat"], "nat", None, "s 3"),
    "parse brackets": lambda v, p: parse_term(
        v["lambda"], "t", None, "app (lam [x] x) (app (lam [y] app y y) (lam [z] z))"),
}


@pytest.mark.parametrize("source", WALK_BUILT)
def test_walk_built_nodes_are_the_declared_classes(vsigs, plans, source):
    nodes = _objects(WALK_BUILT[source](vsigs, plans))
    assert {type(n) for n in nodes} >= {Con, TermArg}
    for node in nodes:
        assert type(node) in (Con, TermArg, Var)
        assert not hasattr(node, "__dict__")
        for field in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field.name, getattr(node, field.name))
        for copied in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
            assert type(copied) is type(node) and copied == node
        twin = _twin(node)
        assert repr(node) == repr(twin)
        assert node == twin and twin == node and hash(node) == hash(twin)


def test_a_term_of_any_depth_pickles_flat():
    # the default protocol recursed once per node, past the recursion limit
    deep = _nat_chain(100_000)
    back = pickle.loads(pickle.dumps(deep))
    assert type(back) is Con and back == deep and hash(back) == hash(deep)
    # a shared subterm is written once and read back shared
    shared = _lam_dag(40)
    data = pickle.dumps(shared)
    assert len(data) < 2000
    node = back = pickle.loads(data)
    for _ in range(40):
        assert node.ctor == "app" and node.args[0].body is node.args[1].body
        node = node.args[0].body
    assert node == Con("lam", (), (TermArg(1, Var("t", None, 0)),))
    assert back == shared and hash(back) == hash(shared)


def _lam_dag(levels, leaf_level=0):
    """b_(i+1) = app b_i b_i over b_0 = lam [x] x: 2**levels leaves, levels + 1 objects."""
    node = Con("lam", (), (TermArg(1, Var("t", None, leaf_level)),))
    for _ in range(levels):
        node = Con("app", (), (TermArg(0, node), TermArg(0, node)))
    return node


def test_dag_equality_and_size_cost_the_distinct_nodes():
    # 2**20 paths and 21 objects: a walk of every path takes seconds
    levels = 20
    shared, apart = _lam_dag(levels), _lam_dag(levels)
    copied = pickle.loads(pickle.dumps(shared))
    # shared with its last leaf changed: a right spine of new nodes whose
    # left arguments are equal DAGs built apart, so the walk meets each
    # node of shared with a new partner on its way down to the leaf
    last_leaf = _lam_dag(0, leaf_level=1)
    for i in range(levels):
        last_leaf = Con("app", (), (TermArg(0, _lam_dag(i)), TermArg(0, last_leaf)))
    started = time.perf_counter()
    assert shared == copied and copied == shared and shared == apart
    assert shared != last_leaf and last_leaf != shared
    assert term_size(shared) == term_size(copied) == 3 * 2**levels - 1
    assert time.perf_counter() - started < 0.05


def test_con_hash_is_the_hash_of_its_preorder():
    # a node hashes its constructor, index arguments, and each argument's
    # binder count with its body's hash
    z = Con("z")
    one = Con("s", (), (TermArg(0, z),))
    assert hash(z) == hash(("z", (), ()))
    assert hash(one) == hash(("s", (), ((0, hash(z)),)))
    x = Var("term", 1, 0)
    rec = Con("rec", (3,), (TermArg(1, x),))
    assert hash(x) == hash(("term", 1, 0))
    assert hash(rec) == hash(("rec", (3,), ((1, hash(x)),)))


def _nat_chain(depth, base="z"):
    term = Con(base)
    for _ in range(depth):
        term = Con("s", (), (TermArg(0, term),))
    return term


def test_con_hash_hashes_each_shared_subterm_once():
    # 2**40 nodes as a tree, 40 as objects
    shared = Con("z")
    for _ in range(40):
        shared = Con("app", (), (TermArg(0, shared), TermArg(0, shared)))
    started = time.perf_counter()
    hash(shared)
    assert time.perf_counter() - started < 0.01


def test_con_hash_walks_a_deep_chain_without_recursion():
    assert hash(_nat_chain(100_000)) == hash(_nat_chain(100_000))
    assert hash(_nat_chain(100_000)) != hash(_nat_chain(99_999))


def test_con_hash_is_a_function_of_structure(vsigs, plans):
    # alpha-equal terms built apart, and a shared DAG and its tree
    v = vsigs["lambda"]
    a = parse_term(v, "t", None, "lam [x] lam [y] app y (app x x)")
    b = parse_term(v, "t", None, "lam [u] lam [w] app w (app u u)")
    c = decode_closed(plans["lambda"], "t", None, encode_closed(plans["lambda"], "t", None, a))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    shared = tree = Con("z")
    for _ in range(8):
        shared = Con("app", (), (TermArg(0, shared), TermArg(0, shared)))
        tree = Con("app", (), (TermArg(0, tree), TermArg(0, _twin(tree))))
    assert shared == tree and hash(shared) == hash(tree)


# the dataclass-generated repr, which recurses, as a reference
_RefCon = dataclasses.make_dataclass("Con", ["ctor", "index_args", "args"])
_RefArg = dataclasses.make_dataclass("TermArg", ["binder_count", "body"])


def _reference(term):
    if not isinstance(term, Con):
        return term
    return _RefCon(term.ctor, term.index_args,
                   tuple(_RefArg(ta.binder_count, _reference(ta.body)) for ta in term.args))


def test_con_repr_is_the_dataclass_repr(vsigs, plans):
    seen = 0
    for name in SIG_NAMES:
        vsig = vsigs[name]
        for decl in vsig.decls:
            for cls, reps in vsig.class_reps(decl.name):
                for code in vsig.cardinality(decl.name, cls).codes_below(40):
                    term = decode_closed(plans[name], decl.name, reps[0], code)
                    assert repr(term) == repr(_reference(term))
                    seen += 1
    assert seen > 500
    assert repr(Con("z")) == "Con(ctor='z', index_args=(), args=())"
    assert repr(TermArg(0, Con("z"))) == "TermArg(binder_count=0, body=Con(ctor='z', index_args=(), args=()))"


def test_repr_and_deepcopy_of_a_deep_term(plans):
    assert sys.getrecursionlimit() <= 1000
    term = decode_closed(plans["nat"], "nat", None, 5000)
    text = repr(term)
    assert text.count("Con(ctor='s'") == 5000 and text.endswith("args=())" + "),))" * 5000)
    assert copy.deepcopy(term) is term and copy.copy(term) is term


def test_con_equality_walks_a_deep_chain_without_recursion():
    assert _nat_chain(100_000) == _nat_chain(100_000)
    assert _nat_chain(100_000) != _nat_chain(100_000, base="q")
    assert _nat_chain(100_000) != _nat_chain(99_999)


def test_con_equality_tells_nodes_apart():
    x = Var("t", None, 0)
    assert Con("z") != x and x != Con("z")
    assert (Con("z") == x) is False
    assert Con("z").__eq__(x) is NotImplemented
    lam = Con("lam", (), (TermArg(1, x),))
    assert lam != Con("lam", (), (TermArg(0, x),))
    assert lam == Con("lam", (), (TermArg(1, Var("t", None, 0)),))
    assert lam != Con("lam", (), (TermArg(1, Var("t", None, 1)),))
    assert Con("rec", (3,)) != Con("rec", (4,))


def test_con_equality_skips_shared_subterms():
    # 2**40 nodes as a tree, 40 as objects: a walk that entered a pair of
    # identical subterms would not finish
    shared = Con("z")
    for _ in range(39):
        shared = Con("app", (), (TermArg(0, shared), TermArg(0, shared)))
    a = Con("app", (), (TermArg(0, shared), TermArg(0, shared)))
    b = Con("app", (), (TermArg(0, shared), TermArg(0, shared)))
    started = time.perf_counter()
    assert a == b
    assert time.perf_counter() - started < 0.01


def test_occurrences_of_a_bound_variable_share_one_var(vsigs, plans):
    v = vsigs["lambda"]
    term = parse_term(v, "t", None, "lam [x] app x x")
    first, second = (ta.body for ta in term.args[0].body.args)
    assert first is second
    plan = plans["lambda"]
    back = decode_closed(plan, "t", None, encode_closed(plan, "t", None, term))
    first, second = (ta.body for ta in back.args[0].body.args)
    assert back == term and first is second


def _var_args(term):
    """The distinct (binder count, Var) pairs of term's arguments whose body
    is a Var, and how many distinct TermArg objects carry them."""
    var_args = [ta for ta in _objects(term) if isinstance(ta, TermArg) and isinstance(ta.body, Var)]
    return {(ta.binder_count, ta.body) for ta in var_args}, len(var_args)


def test_each_variable_argument_is_built_once_per_walk(vsigs, plans):
    # one TermArg per (binder count, Var) in each lookup context, not one
    # per occurrence; whole nodes are not shared
    plan, code = plans["lambda"], 10**2999 + 12345
    term = decode_closed(plan, "t", None, code)
    occurrences = sum(isinstance(ta.body, Var) for t in termrep._nodes(term) for ta in t.args)
    pairs, built = _var_args(term)
    assert built == len(pairs) < occurrences // 10
    back = parse_term(vsigs["lambda"], "t", None, print_term(vsigs["lambda"], term))
    assert _var_args(back) == (pairs, len(pairs))
    for t in (term, back):
        assert len(termrep._nodes(t)) + occurrences == term_size(t)  # no Con is shared
        assert encode_closed(plan, "t", None, t) == code
        assert pickle.loads(pickle.dumps(t)) == t


def test_a_shared_context_still_reports_every_fault(vsigs):
    # a head's record is filed at its (token, type, index) only after the
    # head passed every test; a hit still tests the scope
    lam = vsigs["lambda"]
    ctx = termrep.Lookups()
    text = "app (lam [x] x) (lam [x] x)"
    assert termrep._parse(lam, "t", None, text, ctx) == parse_term(lam, "t", None, text)
    assert ("app", "t", None) in ctx.reads and ("lam", "t", None) in ctx.reads
    with pytest.raises(TermError, match="^variable app cannot be applied$"):
        termrep._parse(lam, "t", None, "lam [app] app (lam [x] x) app", ctx)
    with pytest.raises(TermError, match="^variable lam cannot be applied$"):
        termrep._parse(lam, "t", None, "app (lam [lam] (lam [y] y)) (lam [x] x)", ctx)
    # lam fits term 1 and its record is filed there, but not at term 0
    fam = vsigs["termfam"]
    ctx = termrep.Lookups()
    assert termrep._parse(fam, "term", 1, "lam [x] x", ctx) == Con(
        "lam", (), (TermArg(1, Var("term", 0, 0)),))
    for _ in range(2):
        with pytest.raises(TermError, match="^constructor lam cannot construct term 0$"):
            termrep._parse(fam, "term", 0, "lam [x] x", ctx)
        with pytest.raises(TermError, match="^constructor lam cannot construct term 0$"):
            termrep._parse(fam, "term", 1, "app (rec [f] f) (lam [y] y)", ctx)


def _attributes(obj):
    """Each attribute of obj by identity and, for a container, its size."""
    return {
        name: (id(value), len(value) if hasattr(value, "__len__") else None)
        for name, value in vars(obj).items()
    }


def _counts_state(counts):
    return {slot: getattr(counts, slot) for slot in CountVector.__slots__}


T = ("t", None)
# two free t variables, x0 and x1; the lam binds level 2
OPEN = Con("app", (), (
    TermArg(0, Var(*T, 1)),
    TermArg(0, Con("lam", (), (TermArg(1, Con("app", (), (
        TermArg(0, Var(*T, 2)), TermArg(0, Var(*T, 0)),
    ))),))),
))
CLOSED_TEXT = "lam [x] app (lam [y] app y x) x"


class TestCallContext:
    """Each public walk runs in its owner's one lookup context, the plan's
    for the codec and the signature's for termrep, and leaves nothing else
    behind: nothing more on the plan or the signature, nothing on its
    analysis and layouts, EMPTY_COUNTS or a CountVector the caller passed."""

    WALKS = {
        "decode": lambda p, c: decode(p, "t", None, c, 987_654_321),
        "encode": lambda p, c: encode(p, "t", None, c, OPEN),
        "check_term": lambda p, c: check_term(p.vsig, "t", None, c, OPEN),
        "print_term": lambda p, c: print_term(p.vsig, OPEN, None),
        "parse_term": lambda p, c: parse_term(p.vsig, "t", None, CLOSED_TEXT),
    }

    @pytest.mark.parametrize("walk", WALKS)
    def test_two_calls_agree_and_leave_no_state(self, plans, walk):
        plan = plans["lambda"]
        vsig = plan.vsig
        counts = EMPTY_COUNTS.extend(*T).extend(*T)
        owners = (plan, vsig, vsig.analysis)
        owner = plan if walk in ("decode", "encode") else vsig

        def state():
            return ([{k: v for k, v in _attributes(o).items() if k != "_lookups"}
                     for o in owners]
                    + [dict(plan.classes), dict(vsig.layouts)]
                    + [_counts_state(EMPTY_COUNTS), _counts_state(counts)])

        def contexts():
            return [vars(o).get("_lookups") for o in owners]

        before, held = state(), contexts()
        first = self.WALKS[walk](plan, counts)
        kept = contexts()
        second = self.WALKS[walk](plan, counts)
        assert first == second
        assert state() == before
        # the owner gains at most its one context, kept across both calls
        i = owners.index(owner)
        assert isinstance(kept[i], termrep.Lookups) and held[i] in (None, kept[i])
        assert [c is k for c, k in zip(contexts(), kept)] == [True] * 3
        assert [h is k for j, (h, k) in enumerate(zip(held, kept)) if j != i] == [True] * 2
        assert counts == CountVector({T: 2}) and EMPTY_COUNTS == CountVector()
        assert EMPTY_COUNTS._counts == {} and EMPTY_COUNTS.key() == frozenset()

    def test_open_terms_keep_their_levels(self, plans):
        plan = plans["lambda"]
        counts = EMPTY_COUNTS.extend(*T).extend(*T)
        assert [decode(plan, "t", None, counts, code) for code in (0, 1)] == [
            Var(*T, 0), Var(*T, 1)]
        code = encode(plan, "t", None, counts, OPEN)
        back = decode(plan, "t", None, counts, code)
        assert back == OPEN
        inner = back.args[1].body.args[0].body
        assert [ta.body.level for ta in inner.args] == [2, 0]
        check_term(plan.vsig, "t", None, counts, back)
        term = parse_term(plan.vsig, "t", None, "lam [x] lam [y] app y (lam [w] x)")
        assert term.args[0].body.args[0].body.args[0].body == Var(*T, 1)
        assert term.args[0].body.args[0].body.args[1].body.args[0].body == Var(*T, 0)
        assert parse_term(plan.vsig, "t", None, print_term(plan.vsig, term)) == term

    def test_messages_are_unchanged(self, plans):
        plan = plans["lambda"]
        vsig = plan.vsig
        one = EMPTY_COUNTS.extend(*T)
        unbound = Con("lam", (), (TermArg(0, Var(*T, 0)),))
        for call in (lambda: encode(plan, "t", None, one, unbound),
                     lambda: check_term(vsig, "t", None, one, unbound)):
            with pytest.raises(TermError, match=r"^argument 0 of lam binds 1 variable\(s\),"
                               r" term has 0$"):
                call()
        for call in (lambda: encode(plan, "t", None, one, OPEN),
                     lambda: check_term(vsig, "t", None, one, OPEN)):
            with pytest.raises(TermError, match=r"^variable level 1 out of scope \(1 in context\)$"):
                call()
        with pytest.raises(TermError, match="^unbound name 'y'$"):
            parse_term(vsig, "t", None, "lam [x] app x y")


def test_the_library_runs_no_walk_driver_and_leaves_the_gc_alone():
    # the walks are plain loops, and the cyclic collector is process-global
    src = Path(__file__).resolve().parent.parent / "src" / "godelgen"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "gc"):
                names = [f"gc.{node.attr}"]
            found += [(path.name, n) for n in names
                      if n == "gc" or n.startswith("gc.") or "_walk" in n or n == "run_walk"]
    assert found == []


def test_index_expressions_have_one_home():
    # only sigmodel builds or reads index expressions; term text goes
    # through its to_index_expr
    src = Path(__file__).resolve().parent.parent / "src" / "godelgen"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "sigmodel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name in ("IxVar", "IxCon", "IxNum")]
    assert found == []
