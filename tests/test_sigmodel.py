"""Signature parsing, cardinality analysis, and validation rules."""

import itertools
import random
import time
from pathlib import Path

import pytest

from godelgen import sigmodel
from godelgen.errors import SigSyntaxError, SigValidationError, TermError
from godelgen.sigmodel import (
    EMPTY,
    INFINITE,
    IxCon,
    IxNum,
    IxVar,
    NatIndex,
    S_CLASS,
    UNIT_CLASS,
    Z_CLASS,
    compute_cardinality,
    fin_class,
    finite,
    parse_signature,
    validate,
)

from conftest import SIG_NAMES, sig_text
from corpus import random_indexed_signature


def check(text):
    return validate(parse_signature(text))


def rejection(text):
    with pytest.raises(SigValidationError) as info:
        check(text)
    return info.value.diagnostics


# ---------------------------------------------------------------- parsing


def test_parse_minimal():
    sig = parse_signature("t : type. a : t. b : t -> t.")
    assert [d.name for d in sig.decls] == ["t"]
    assert [c.name for c in sig.decls[0].ctors] == ["a", "b"]
    assert sig.ctors["b"].args[0].type_name == "t"


def test_parse_empty_signature():
    sig = parse_signature("   %% nothing but a comment\n")
    assert sig.decls == []


def test_parse_comments_and_whitespace():
    sig = parse_signature(
        """
        %% a list of naturals
        nat : type.  z : nat.
        s : nat -> nat.   %% successor
        """
    )
    assert len(sig.ctors) == 2


def test_parse_indexed_family():
    sig = parse_signature(sig_text("termfam"))
    lam = sig.ctors["lam"]
    assert lam.family == "term"
    assert lam.result_index == (IxCon("s", (IxVar("N"),)),)
    assert lam.args[0].binders == (("term", (IxCon("z"),)),)
    assert lam.args[0].type_name == "term"
    assert lam.args[0].index == (IxVar("N"),)


def test_parse_backward_arrow():
    a = parse_signature("t : type. c : t -> t -> t.")
    b = parse_signature("t : type. c : t <- t <- t.")
    ca, cb = a.ctors["c"], b.ctors["c"]
    assert len(ca.args) == len(cb.args) == 2
    assert ca.result_index == cb.result_index == ()


def test_parse_mixed_arrows():
    sig = parse_signature("t : type. u : type. c : u <- (t -> t).")
    c = sig.ctors["c"]
    assert c.family == "u"
    assert c.args[0].binders == (("t", ()),)


def test_parse_explicit_abstraction():
    sig = parse_signature(sig_text("exists"))
    ex = sig.ctors["exists"]
    assert ex.pi_args == (("M", "nat", ()),)
    assert ex.args[0].binders == (("term", (IxVar("M"),)),)


def test_parse_numeral_index():
    sig = parse_signature(sig_text("nat") + "f : nat -> type. f3 : f 3.")
    assert sig.ctors["f3"].result_index == (IxNum(3),)


def test_parse_abbrev():
    sig = parse_signature(
        "t : type. lam : (t -> t) -> t. app : t -> t -> t.\n"
        "%abbrev id : t = lam [x] x."
    )
    ab = sig.abbrevs["id"]
    assert ab.type_name == "t"


def test_abbrev_expands_in_index_position():
    sig = parse_signature(
        sig_text("nat")
        + "%abbrev two : nat = s (s z).\n"
        + "f : nat -> type. g : f two -> f z. fz : f z. fs : f N -> f (s N)."
    )
    g = sig.ctors["g"]
    assert g.args[0].index == (IxCon("s", (IxCon("s", (IxCon("z"),)),)),)


def test_abbrev_defined_through_itself_is_a_syntax_error():
    text = sig_text("nat") + "%abbrev a : nat = s b. %abbrev b : nat = a. f : nat -> type."
    with pytest.raises(SigSyntaxError, match="in terms of itself"):
        parse_signature(text + " g : f a -> f z.")
    # one abbreviation inside another, or twice side by side, is no cycle
    sig = parse_signature(
        sig_text("nat") + "%abbrev one : nat = s z. %abbrev two : nat = s one."
        " f : nat -> type. g : f two -> f z."
        " b : type. b0 : b. p : type. mk : b -> b -> p. %abbrev x : b = b0."
        " q : p -> type. q0 : q (mk x x)."
    )
    assert sig.ctors["g"].args[0].index == (IxCon("s", (IxCon("s", (IxCon("z"),)),)),)
    assert sig.ctors["q0"].result_index == (IxCon("mk", (IxCon("b0"), IxCon("b0"))),)


def test_abbrev_terms_defined_through_each_other_are_a_syntax_error():
    # elaborating a would expand a, b, a, ... without end
    for cycle in (
        "%abbrev a : nat = s b. %abbrev b : nat = s a.",
        "%abbrev a : nat = s a.",
        "%abbrev c : nat = s a. %abbrev a : nat = b. %abbrev b : nat = s (s a).",
    ):
        with pytest.raises(SigSyntaxError, match="'a' is defined in terms of itself"):
            parse_signature(sig_text("nat") + cycle)
    lam = "t : type. lam : (t -> t) -> t. app : t -> t -> t. "
    with pytest.raises(SigSyntaxError, match="'x' is defined in terms of itself"):
        parse_signature(lam + "%abbrev x : t = lam [y] app y x.")
    # a binder shadows the abbreviation, and a chain is no cycle
    parse_signature(lam + "%abbrev x : t = lam [x] x.")
    chain = " ".join(f"%abbrev a{i} : nat = s a{i - 1}." for i in range(1, 3000))
    sig = parse_signature(sig_text("nat") + "%abbrev a0 : nat = z. " + chain)
    assert len(sig.abbrevs) == 3000


def test_abbrev_index_is_validated_like_a_constructor_index():
    nat_family = sig_text("nat") + "t : nat -> type. tz : t z. ts : t N -> t (s N)."
    (d,) = rejection(nat_family + " %abbrev bad : t (s foo) = tz.")
    assert (d.rule, d.subject) == ("index-expr", "bad")
    assert d.message == "invalid index expression for type t"
    flags = "b : type. b0 : b. b1 : b. k : b -> type. k0 : k b0. k1 : k b1."
    assert [(d.rule, d.subject) for d in rejection(
        flags + " %abbrev far : k 5 = k0. %abbrev odd : k b7 = k0."
    )] == [("index-out-of-range", "far"), ("index-expr", "odd")]
    check(nat_family + " %abbrev one : t (s z) = ts tz.")
    check(flags + " %abbrev hi : k b1 = k1. %abbrev hi2 : k 1 = k1.")


def test_parse_errors():
    with pytest.raises(SigSyntaxError):
        parse_signature("t : type")  # missing period
    with pytest.raises(SigSyntaxError, match="unknown type"):
        parse_signature("t : type. lam : (u -> t) -> t.")
    with pytest.raises(SigSyntaxError, match="duplicate"):
        parse_signature("t : type. t : t.")
    with pytest.raises(SigSyntaxError, match="duplicate"):
        parse_signature("t : type. a : t. a : t.")
    with pytest.raises(SigSyntaxError, match="%infix"):
        parse_signature("%infix + 5.")
    with pytest.raises(SigSyntaxError):
        parse_signature("t : type. c : ((t -> t) -> t) -> t.")  # higher-order binder


# (text, message, line, col) of the first syntax error in each text
SYNTAX_ERRORS = [
    ("t : type.\na : t $ t.", "unexpected character '$'", 2, 7),
    ("t : type.\n  %infix + 5.", "unsupported declaration %infix", 2, 3),
    ("%abbrevs x.", "unsupported declaration %abbrevs", 1, 1),
    ("t : type.\na : (t -> t.", "expected ')', found '.'", 2, 12),
    ("t : type. k : t (t", "expected ')', found 'end of input'", 1, 19),
    ("t : type", "expected '.', found 'end of input'", 1, 9),
    # a comment does not move the end of the input
    ("t : type %% no period", "expected '.', found 'end of input'", 1, 10),
    ("t : type.\nk : t %% c\n", "expected '.', found 'end of input'", 3, 1),
    ("t : type. a : t = t.", "expected '.', found '='", 1, 17),
    ("t type.", "expected ':', found 'type'", 1, 3),
    ("t : type.\na : t.\nb : t. a : t.", "duplicate name 'a'", 3, 8),
    ("t : type. é : t. é : t.", "duplicate name 'é'", 1, 18),
    ("t : type. a : t. %abbrev x : t = y. %abbrev y : t = x.",
     "abbreviation 'x' is defined in terms of itself", 1, 26),
    ("nat : type. z : nat. k : {N", "expected ':', found 'end of input'", 1, 28),
    ("t : type. a : { : t} t.", "expected a variable name after '{'", 1, 17),
    ("nat : type.\r\nz : nat.\r\n  k : {N : nat} nat ->.", "unexpected '.'", 3, 23),
    ("t : type. a : t -> ] t.", "unexpected ']'", 1, 20),
    ("t : type. -> : t.", "expected a declaration, found '->'", 1, 11),
    ("t : type. c : ((t -> t) -> t) -> t.", "binder arguments must be first-order", 1, 11),
    ("t : type. lam : (u -> t) -> t.", "unknown type 'u'", 1, 18),
    ("t : type.\n\ta : [x] t.", "expected a type, possibly applied to index arguments", 2, 2),
    ("nat : type. z : nat. s : nat -> nat. t : nat -> type. k : t (N z).",
     "index variable 'N' cannot be applied", 1, 55),
    ("nat : type. z : nat. s : nat -> nat. t : nat z -> type.",
     "type 'nat' expects 0 index argument(s), got 1", 1, 42),
    ("nat : type. z : nat. term : nat -> type. unit : term z.\n%abbrev u : term N = unit.",
     "abbreviation type must be ground, found variable 'N'", 2, 9),
    ("t : type. k : (t -> t) -> type.", "index kinds must be type names", 1, 11),
    ("t : type. k : foo -> type.", "unknown type 'foo'", 1, 11),
    ("nat : type. z : nat. t : type. base : t. c : t -> {M:nat} t.",
     "explicit abstraction must precede all arguments", 1, 42),
    ("nat : type. z : nat. %abbrev w : nat = [x] x.\nf : nat -> type. fw : f w.",
     "abbreviation 'w' cannot be used in an index expression", 2, 18),
]


@pytest.mark.parametrize("text, message, line, col", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, line, col):
    with pytest.raises(SigSyntaxError) as info:
        parse_signature(text)
    assert (str(info.value), info.value.line, info.value.col) == (
        f"{line}:{col}: {message}", line, col
    )


@pytest.mark.parametrize("name", SIG_NAMES)
def test_parsing_works_out_no_position_without_an_error(monkeypatch, name):
    # positions are for errors and abbreviations, and these have neither
    def where(self, i):
        raise AssertionError(f"position of token {i} worked out")

    monkeypatch.setattr(sigmodel._Parser, "where", where)
    parse_signature(sig_text(name))


def test_unknown_type_must_be_declared_before_use():
    with pytest.raises(SigSyntaxError, match="unknown type"):
        parse_signature("c : t. t : type.")


def test_slash_and_plus_in_names():
    sig = parse_signature(sig_text("natlist"))
    assert "natlist/+" in sig.ctors
    assert "natlist/0" in sig.ctors


# ---------------------------------------------------------- cardinalities


def test_cardinality_examples(vsigs):
    v = vsigs["nat"]
    assert v.cardinality("nat", UNIT_CLASS) == INFINITE
    v = vsigs["bool"]
    assert v.cardinality("bool", UNIT_CLASS) == finite(2)
    v = vsigs["termfam"]
    assert v.cardinality("term", Z_CLASS) == INFINITE
    assert v.cardinality("term", S_CLASS) == INFINITE


def test_cardinality_empty():
    sig = compute_cardinality(parse_signature("e : type."))
    assert sig.analysis.card[("e", UNIT_CLASS)] == EMPTY


def test_cardinality_empty_loop():
    # a recursive type with no base case has no terms at all
    sig = compute_cardinality(parse_signature("m : type. m/s : m -> m."))
    assert sig.analysis.card[("m", UNIT_CLASS)] == EMPTY


def test_cardinality_products():
    sig = compute_cardinality(
        parse_signature(
            "b : type. b0 : b. b1 : b. p : type. mk : b -> b -> p. other : p."
        )
    )
    assert sig.analysis.card[("p", UNIT_CLASS)] == finite(5)


def test_cardinality_uniform_finite_family():
    sig = compute_cardinality(
        parse_signature(sig_text("nat") + "f : nat -> type. fz : f z. fs : f N -> f (s N).")
    )
    assert sig.analysis.card[("f", Z_CLASS)] == finite(1)
    assert sig.analysis.card[("f", S_CLASS)] == finite(1)


def test_cardinality_finite_indexed():
    v = check("b : type. bt : b. bf : b. opt : b -> type. oyes : opt bt. ono : opt bf.")
    assert v.cardinality("opt", fin_class(0)) == finite(1)
    assert v.cardinality("opt", fin_class(1)) == finite(1)


SIXTEEN = "b : type. " + " ".join(f"b{i} : b." for i in range(16))
FAMILY = sig_text("nat") + "t : nat -> type. "


@pytest.mark.parametrize(
    "text, expected",
    [
        # ta's argument index is not pinned, so only counting shows t[s]
        # infinite: tz, ta tz, ta (ta tz), ...
        (FAMILY + "tz : t N. ta : t (s N) -> t N.", {"t[z]": "Infinite", "t[s]": "Infinite"}),
        (FAMILY + "tz : t z. ts : t N -> t (s N).", {"t[z]": "Finite(1)", "t[s]": "Finite(1)"}),
        ("t : type. lam : (t -> t) -> t.", {"t[-]": "Infinite"}),
        (
            FAMILY + "tz : t z. ts : t N -> t (s N). p : type. mk : {M : nat} t M -> p.",
            {"t[z]": "Finite(1)", "t[s]": "Finite(1)", "p[-]": "Infinite"},
        ),
        (SIXTEEN + " p : type. mk : b -> b -> b -> b -> p.", {"p[-]": "Finite(65536)"}),
        (SIXTEEN + " p : type. mk : b -> b -> b -> b -> p. one : p.", {"p[-]": "Infinite"}),
    ],
    ids=["crawl", "converges", "binder-only", "pi-bound", "cutoff", "over-cutoff"],
)
def test_cardinality_edge_cases(text, expected):
    card = compute_cardinality(parse_signature(text)).analysis.card
    labels = {f"{t}[{k.label}]": str(c) for (t, k), c in card.items()}
    assert {key: labels[key] for key in expected} == expected


# c's values index k, k's terms count b, and b's values index g
INDEX_CHAIN = (
    "c : type. c0 : c. c1 : c. c2 : c. k : c -> type. kv : k X. b : type."
    " b0 : k c0 -> b. b1 : k c1 -> b. b2 : k c2 -> b. g : b -> type. gv : g X."
)


@pytest.mark.parametrize(
    "text, cyclic",
    [
        # p's block needs b's value, which needs p's block
        ("p : type. a : p. b : p. q : p -> type. qv : q N. mk : q b -> p.", ["p"]),
        # the same through r
        (
            "p : type. a : p. q : p -> type. r : type. qv : q N. rq : q a -> r. mk : r -> p.",
            ["p"],
        ),
        # mk counts p through q's classes, which are p's values
        ("p : type. a : p. q : p -> type. qv : q N. mk : {N : p} q N -> p.", ["p"]),
        (INDEX_CHAIN, []),
    ],
    ids=["direct", "indirect", "abstraction", "chain"],
)
def test_finite_index_type_is_counted_before_the_families_it_indexes(text, cyclic):
    # an index type that reaches a family it indexes is rejected, whatever
    # the path, and nothing that only restates it is reported; two index
    # types that reach each other: test_reject_index_types_indexed_through_each_other
    if cyclic:
        assert [(d.rule, d.subject, d.message) for d in rejection(text)] == [
            ("index-type", x, f"the instances of index type {x} depend on index values of type {x}")
            for x in cyclic
        ]
        return
    v = check(text)
    assert v.cardinality("b", UNIT_CLASS) == finite(3)
    assert v.classes("g") == tuple(fin_class(i) for i in range(3))


def test_cardinality_deterministic():
    texts = [sig_text(n) for n in ("nat", "termfam", "mixed")]
    for text in texts:
        a = compute_cardinality(parse_signature(text)).analysis.card
        b = compute_cardinality(parse_signature(text)).analysis.card
        assert a == b


# ------------------------------------------------------------- validation


def test_examples_validate(vsigs):
    # fixture construction already validated every example signature
    assert set(vsigs) >= {"nat", "natlist", "rat", "lambda", "termfam"}


def test_partition_term_family(vsigs):
    v = vsigs["termfam"]
    block, inf = v.ctors_for_class("term", Z_CLASS)
    assert [e.ctor_name for e in block.entries] == ["unit"]
    assert block.total == 1
    assert [c.name for c in inf] == ["app", "rec"]
    block, inf = v.ctors_for_class("term", S_CLASS)
    assert block.total == 0
    assert [c.name for c in inf] == ["lam", "app", "rec"]


def test_partition_nat(vsigs):
    block, inf = vsigs["nat"].ctors_for_class("nat", UNIT_CLASS)
    assert [e.ctor_name for e in block.entries] == ["z"]
    assert [c.name for c in inf] == ["s"]


def test_partition_mixed(vsigs):
    block, inf = vsigs["mixed"].ctors_for_class("tree", UNIT_CLASS)
    assert [e.ctor_name for e in block.entries] == ["leaf"]
    assert [c.name for c in inf] == ["node"]


# Per class: finite entries (constructor, base, radices, count), then the
# infinite constructors in tag-search order.
NAT_PART = ((("z", 0, (), 1),), ("s",))
BOOL_PART = ((("true", 0, (), 1), ("false", 1, (), 1)), ())
PARTITIONS = {
    "nat": {("nat", "-"): NAT_PART},
    "natlist": {
        ("nat", "-"): NAT_PART,
        ("natlist", "-"): ((("natlist/0", 0, (), 1),), ("natlist/+",)),
    },
    "rat": {("nat", "-"): NAT_PART, ("rat", "-"): ((), ("whole", "frac"))},
    "ratflip": {("nat", "-"): NAT_PART, ("rat", "-"): ((), ("frac", "whole"))},
    "lambda": {("t", "-"): ((), ("lam", "app"))},
    "termfam": {
        ("nat", "-"): NAT_PART,
        ("term", "z"): ((("unit", 0, (), 1),), ("app", "rec")),
        ("term", "s"): ((), ("lam", "app", "rec")),
    },
    "bool": {("bool", "-"): BOOL_PART},
    "exists": {
        ("nat", "-"): NAT_PART,
        ("term", "z"): ((("unit", 0, (), 1),), ("app", "rec", "exists")),
        ("term", "s"): ((), ("lam", "app", "rec", "exists")),
    },
    "mixed": {
        ("bool", "-"): BOOL_PART,
        ("tree", "-"): ((("leaf", 0, (), 1),), ("node",)),
    },
}


@pytest.mark.parametrize("name", SIG_NAMES)
def test_partition_every_class(vsigs, name):
    v = vsigs[name]
    got = {}
    for decl in v.decls:
        for k in v.classes(decl.name):
            block, inf = v.ctors_for_class(decl.name, k)
            entries = tuple((e.ctor_name, e.base, e.radices, e.count) for e in block.entries)
            got[(decl.name, k.label)] = (entries, tuple(c.name for c in inf))
            assert block.total == sum(e.count for e in block.entries)
    assert got == PARTITIONS[name]


def test_reject_nonuniform():
    diags = rejection(
        sig_text("termfam")
        + """
        actuals : nat -> type.
        actuals/0 : actuals z.
        actuals/+ : term z -> actuals N -> actuals (s N).
        """
    )
    assert [d.rule for d in diags] == ["uniform"]
    assert diags[0].subject == "actuals"
    assert "uniform" in diags[0].message


def test_reject_finite_binder_type():
    diags = rejection("b : type. tt : b. ff : b. w : type. wz : w. mk : (b -> w) -> w.")
    assert any(d.rule == "finite-binder" and d.subject == "mk" for d in diags)
    assert any("infinite" in d.message for d in diags)


def test_reject_multi_index():
    diags = rejection(
        sig_text("nat")
        + """
        plus : nat -> nat -> nat -> type.
        plus/z : plus z Y Y.
        plus/s : plus (s X) Y (s Z) <- plus X Y Z.
        """
    )
    assert [d.rule for d in diags] == ["single-index"]
    assert diags[0].subject == "plus"


def test_reject_deep_pattern():
    diags = rejection(
        sig_text("nat") + "f : nat -> type. fz : f z. fo : f N -> f (s (s N))."
    )
    assert any(d.rule == "pattern" and d.subject == "fo" for d in diags)


def test_deep_index_expression_in_argument_is_legal():
    # depth is only restricted in result patterns, not argument indices
    check(
        sig_text("nat")
        + "f : nat -> type. fz : f z. fs : f N -> f (s N). g : f (s (s N)) -> f N -> f N."
    )


def test_reject_constant_successor_pattern():
    # a constructor only at index 1 would break class uniformity silently
    diags = rejection(
        sig_text("nat") + "f : nat -> type. fz : f z. fo : f (s z). fs : f N -> f (s N)."
    )
    assert any(d.rule == "pattern" and d.subject == "fo" for d in diags)


def test_reject_indexed_index_type():
    diags = rejection(
        sig_text("termfam") + "var : term z -> type. v : var X."
    )
    assert any(d.rule == "index-type" and d.subject == "var" for d in diags)


def test_reject_unbound_index_var():
    diags = rejection(sig_text("nat") + "f : nat -> type. fz : f z. bad : f M -> f z. fs : f N -> f (s N).")
    assert any(d.rule == "unbound-index-var" and d.subject == "bad" for d in diags)


def test_reject_infinite_nonnat_index():
    diags = rejection(
        "t : type. a : t. b : t -> t -> t. f : t -> type. fz : f X."
    )
    assert any(d.rule == "index-type" and d.subject == "f" for d in diags)


def test_reject_finite_abstraction_type():
    diags = rejection(
        "b : type. tt : b. ff : b. t : type. base : t. c : {M:b} t -> t."
    )
    assert any(d.rule == "abstraction-type" for d in diags)


def test_reject_abstraction_var_in_result():
    diags = rejection(
        sig_text("nat")
        + "f : nat -> type. fz : f z. fs : f N -> f (s N). bad : {M:nat} f M."
    )
    assert any(d.rule == "abstraction-var" for d in diags)


def test_reject_dead_infinite_ctor():
    diags = rejection(
        sig_text("nat") + "e : type. t : type. base : t. c : t -> nat -> e -> t."
    )
    assert any(d.rule == "dead-ctor" and d.subject == "c" for d in diags)


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "b : type. b0 : b. g : b -> type. g0 : g b0. f : nat -> type. fc : g N -> f N.",
            ["fc: index variable 'N' has type nat, used where b is required [wrong-index-type]"],
        ),
        # bp has no instances, so b counts as finite, but its abstraction stays
        (
            "e : type. b : type. b0 : b. bp : {M:nat} e -> b. g : b -> type. g0 : g X.",
            [
                "g: index type b may not use binders [index-type]",
                "bp: constructor can never be applied at b[-]:"
                " some argument type is uninhabited [dead-ctor]",
            ],
        ),
        # gc's argument f z is empty, so gc sits in g's finite block at
        # count 0 and takes no tag: it is not dead
        (
            "f : nat -> type. fb : f (s N). fs : f N -> f (s N)."
            " g : type. gb : g. gc : f z -> g -> g.",
            [
                "f: indexed types must be uniform across index classes"
                " (z: Empty, s: Infinite) [uniform]"
            ],
        ),
        (
            "b : type. b0 : b. b1 : b. g : b -> type. g0 : g b0. g1 : g b1."
            " t : type. tb : t. c : g 5 -> t -> t.",
            ["c: index 5 out of range for type g [index-out-of-range]"],
        ),
        # x has the term c (mk [v] v), but its count, and y's, is 0: a
        # binder-filled argument is counted by its closed count, and e is
        # empty.  Only binder-target and finite-binder report it; no false
        # "index type x is uninhabited" follows from the miscount
        (
            "e : type. y : type. mk : (e -> e) -> y. x : type. c : y -> x."
            " g : x -> type. g0 : g X.",
            [
                "mk: variables can only be of infinite type; e is not infinite"
                " in every reachable class [finite-binder]",
                "mk: an argument that binds variables must target an infinite"
                " type; e is not [binder-target]",
            ],
        ),
        (
            "e : type. x : type. mk : (e -> e) -> x. g : x -> type. g0 : g X.",
            [
                "g: index type x may not use binders [index-type]",
                "mk: variables can only be of infinite type; e is not infinite"
                " in every reachable class [finite-binder]",
                "mk: an argument that binds variables must target an infinite"
                " type; e is not [binder-target]",
            ],
        ),
    ],
    ids=[
        "wrong-index-type", "abstraction-in-index-type", "untagged-empty-ctor",
        "argument-index-out-of-range", "uninhabited-index-type",
        "uninhabited-index-type-with-binders",
    ],
)
def test_diagnostics_exactly(text, expected):
    assert [str(d) for d in rejection(sig_text("nat") + text)] == expected


def test_reject_count_overflow_without_infinite_ctor():
    diags = rejection(
        """
        b : type. b0 : b. b1 : b.
        w1 : type. m1 : b -> b -> b -> b -> w1.
        w2 : type. m2 : w1 -> w1 -> w1 -> w1 -> w2.
        w3 : type. m3 : w2 -> w2 -> w3.
        """
    )
    assert any(d.rule == "no-infinite-ctor" and d.subject == "w3" for d in diags)


def test_dead_finite_ctor_allowed():
    # a finite constructor over an empty type simply has no instances
    v = check("e : type. t : type. a : t. c : e -> t.")
    block, inf = v.ctors_for_class("t", UNIT_CLASS)
    assert block.total == 1
    assert not inf


def test_reject_index_type_indexed_through_itself():
    # p's block needs the value of `a`, which needs p's block
    diags = rejection("p : type. a : p. q : p -> type. qa : q a. mk : q a -> p.")
    assert any(d.rule == "index-type" and d.subject == "p" for d in diags)
    # and nothing that only restates it (mk's index, q's uniformity)
    assert [(d.rule, d.subject) for d in diags] == [("index-type", "p")]


def test_reject_index_types_indexed_through_each_other():
    # p's block needs r's through mp, and r's needs p's through mr: each
    # edge evaluates its own indices, so both types are reported
    diags = rejection(
        "p : type. r : type. a : p. ra : r. q : p -> type. u : r -> type."
        " qa : q a. ua : u ra. mp : u ra -> p. mr : q a -> r."
    )
    assert [(d.rule, d.subject) for d in diags] == [("index-type", "r"), ("index-type", "p")]


def test_reject_unresolved_result_index():
    # mk is given one argument too few, so q0 would have no instances
    diags = rejection(
        "b : type. b0 : b. b1 : b. p : type. mk : b -> b -> p."
        " q : p -> type. q0 : q (mk b0). qs : q X -> q X."
    )
    assert any(d.rule == "index-expr" and d.subject == "q0" for d in diags)


def test_reject_constant_result_index_out_of_range():
    diags = rejection(
        "b : type. b0 : b. b1 : b. k : b -> type."
        " k0 : k b0. k1 : k b1. kk : k 5. ks : k X -> k X."
    )
    assert [(d.rule, d.subject) for d in diags] == [("index-out-of-range", "kk")]


def test_constant_result_indices_in_range_are_kept():
    v = check(
        "b : type. b0 : b. b1 : b. k : b -> type."
        " k0 : k b0. k1 : k 1. ks : k X -> k X."
    )
    assert v.pattern("k0") == ("const", 0)
    assert v.pattern("k1") == ("const", 1)


def test_multiple_diagnostics_reported_together():
    diags = rejection(
        sig_text("nat")
        + """
        plus : nat -> nat -> nat -> type.
        plus/z : plus z Y Y.
        b : type. tt : b. ff : b.
        w : type. wz : w. mk : (b -> w) -> w.
        """
    )
    rules = {d.rule for d in diags}
    assert "single-index" in rules and "finite-binder" in rules


def test_validated_class_of(vsigs):
    v = vsigs["termfam"]
    assert v.class_of("term", 0) == Z_CLASS
    assert v.class_of("term", 7) == S_CLASS
    assert v.class_of("nat", None) == UNIT_CLASS
    with pytest.raises(TermError):
        v.class_of("term", None)
    with pytest.raises(TermError):
        v.class_of("nat", 3)


def reference_targets(vsig, ctor, index, index_args):
    """arg_targets by binding the index variables and evaluating every
    index expression with sigmodel._index_value."""
    pat = vsig.pattern(ctor.name)
    binding = {}
    if pat[0] == "var":
        binding[pat[1]] = index
    elif pat[0] == "succ":
        binding[pat[1]] = index - 1
    for (var, _, _), value in zip(ctor.pi_args, index_args):
        binding[var] = value

    def value(type_name, ix):
        kind = vsig.index_kind(type_name)
        if kind is None:
            return None
        return sigmodel._index_value(
            vsig.sig, vsig.analysis.nat_shapes,
            lambda t: vsig.ctors_for_class(t, UNIT_CLASS)[0],
            kind.type_name, ix[0], binding,
        )

    return tuple(
        (a.type_name, value(a.type_name, a.index),
         tuple((bt, value(bt, bix)) for bt, bix in a.binders))
        for a in ctor.args
    )


LAYOUT_SIGS = {
    **{name: sig_text(name) for name in SIG_NAMES},
    "wide": (Path(__file__).parent.parent / "perfbench" / "data" / "wide.sig").read_text(),
    "finite": "b : type. b0 : b. b1 : b. k : b -> type."
    " k0 : k b0. k1 : k 1. ks : k X -> k X. kb : (k b0 -> k X) -> k b1 -> k X.",
    "deep-argument": sig_text("nat")
    + "f : nat -> type. fz : f z. fs : f N -> f (s N). g : f (s (s N)) -> f N -> f N."
    " h : {m:nat} (f (s m) -> f (s (s N))) -> f 2 -> f (s N).",
}


@pytest.mark.parametrize("name", [*sorted(LAYOUT_SIGS), "chain"])
def test_each_edge_is_built_once(monkeypatch, name):
    built, edge = [], sigmodel.Analysis._edge
    monkeypatch.setattr(
        sigmodel.Analysis, "_edge", lambda self, c, k: built.append(c) or edge(self, c, k)
    )
    v = check(LAYOUT_SIGS.get(name, INDEX_CHAIN))
    assert len(built) == sum(map(len, v.analysis.graph.values()))


def test_each_class_is_partitioned_once(monkeypatch):
    calls, partition = [], sigmodel._partition
    monkeypatch.setattr(sigmodel, "_partition", lambda *a: calls.append(a) or partition(*a))
    v = check(LAYOUT_SIGS["finite"])
    assert len(calls) == len(v.analysis.graph) == 3


def index_strata(n):
    # f(i) is indexed by the finite b(i), and b(i+1)'s one constructor
    # takes f(i) at index 0: n + 1 strata of finite index types
    return "b0 : type. b0c : b0.\n" + "".join(
        f"f{i} : b{i} -> type. f{i}c : f{i} X. b{i + 1} : type. b{i + 1}c : f{i} 0 -> b{i + 1}.\n"
        for i in range(n)
    )


COUNT_SIGS = {**LAYOUT_SIGS, "chain": INDEX_CHAIN, "strata": index_strata(20)}


@pytest.mark.parametrize("name", sorted(COUNT_SIGS))
def test_each_class_is_counted_once(monkeypatch, name):
    # a stratum reads the strata below it as counted, so none is counted again
    counted, productive = [], sigmodel._productive
    monkeypatch.setattr(
        sigmodel, "_productive", lambda graph, inhab: counted.extend(graph) or productive(graph, inhab)
    )
    v = check(COUNT_SIGS[name])
    assert sorted(counted, key=repr) == sorted(v.analysis.graph, key=repr)


def test_validate_is_linear_in_the_strata():
    # each of the 1,001 finite index types was once counted with the whole
    # graph below it: 3.5 s at 400 strata
    text = index_strata(1_000)
    start = time.perf_counter()
    v = check(text)
    assert time.perf_counter() - start < 2
    assert v.cardinality("b1000", UNIT_CLASS) == finite(1)


def assert_arg_targets_match_reference(v):
    for decl in v.decls:
        kind = v.index_kind(decl.name)
        indices = (
            [None] if kind is None else range(7 if isinstance(kind, NatIndex) else kind.count)
        )
        for index in indices:
            for ctor in decl.ctors:
                if not sigmodel.applies(v.pattern(ctor.name), index):
                    continue
                for index_args in itertools.product(range(4), repeat=len(ctor.pi_args)):
                    assert v.arg_targets(ctor.name, index, index_args) == reference_targets(
                        v, ctor, index, index_args
                    ), (ctor.name, index, index_args)


@pytest.mark.parametrize("name", sorted(LAYOUT_SIGS))
def test_arg_targets_match_reference(name):
    assert_arg_targets_match_reference(check(LAYOUT_SIGS[name]))


def test_arg_targets_match_reference_on_generated_signatures():
    # the seeded signatures of test_generated_indexed_signatures_round_trip
    rng, checked = random.Random(7), 0
    for _ in range(200):
        try:
            v = check(random_indexed_signature(rng))
        except SigValidationError:
            continue
        assert_arg_targets_match_reference(v)
        checked += 1
    assert checked >= 30


def test_arg_targets(vsigs):
    v = vsigs["termfam"]
    # lam at 5: its body lives at 4 (the N of s N), its binder at z
    assert v.arg_targets("lam", 5) == (("term", 4, (("term", 0),)),)
    assert v.arg_targets("app", 3) == (("term", 4, ()), ("term", 0, ()))
    assert v.arg_targets("s", None) == (("nat", None, ()),)
    assert vsigs["exists"].arg_targets("exists", 1, (6,)) == (("term", 1, (("term", 6),)),)


def test_class_reps(vsigs):
    assert vsigs["nat"].class_reps("nat") == [(UNIT_CLASS, [None])]
    assert vsigs["termfam"].class_reps("term") == [
        (Z_CLASS, [0]),
        (S_CLASS, [1, 2]),
    ]
