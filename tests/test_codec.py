"""Tag assignment and the term/nat codec."""

import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from godelgen import codec
from godelgen.adequacy import EnumBudget, _SweepMemo, verify_all
from godelgen.bignat import unmingle_fold
from godelgen.codec import (
    DEFAULT_FUEL,
    _TRIAL_FUEL,
    _decode,
    _encode,
    _first_failing_class,
    _trial_ends,
    assign_tags,
    build_plan,
    compare,
    decode,
    decode_closed,
    encode,
    encode_closed,
)
from godelgen.errors import (
    CodeOutOfRange,
    FuelExhausted,
    GodelgenError,
    NoWellFoundedPlan,
    SigValidationError,
    TermError,
)
from godelgen.natcollections import TermMap, TermSet
from godelgen.sigmodel import (
    S_CLASS,
    UNIT_CLASS,
    Z_CLASS,
    compute_cardinality,
    fin_class,
    parse_signature,
    validate,
)
from godelgen.termrep import (
    EMPTY_COUNTS,
    Con,
    Lookups,
    TermArg,
    Var,
    check_term,
    parse_term,
    print_term,
)

from conftest import SIG_NAMES, sig_text
from corpus import chain_signature, corpus, random_indexed_signature, random_signature


def enc(vsigs, plans, sig, type_name, index, text):
    term = parse_term(vsigs[sig], type_name, index, text)
    return encode_closed(plans[sig], type_name, index, term)


# ------------------------------------------------------------ tag choices


def test_tags_follow_declaration_order(plans):
    assert plans["lambda"].classes[("t", UNIT_CLASS)].tags == ("lam", "app")
    assert plans["termfam"].classes[("term", Z_CLASS)].tags == ("app", "rec")
    assert plans["termfam"].classes[("term", S_CLASS)].tags == ("lam", "app", "rec")
    assert plans["rat"].classes[("rat", UNIT_CLASS)].tags == ("whole", "frac")
    assert plans["nat"].classes[("nat", UNIT_CLASS)].tags == ("s",)
    assert plans["exists"].classes[("term", Z_CLASS)].tags == ("app", "rec", "exists")


def test_recursive_head_at_tag_zero_is_repaired(vsigs, plans):
    # frac first: decoding 0 would demand another 0-coded rat forever
    flip = build_plan(vsigs["ratflip"])
    assert flip.classes[("rat", UNIT_CLASS)].tags == ("frac", "whole")
    with pytest.raises(FuelExhausted):
        decode_closed(flip, "rat", None, 0, fuel=500)
    repaired = plans["ratflip"]
    assert repaired.classes[("rat", UNIT_CLASS)].tags == ("whole", "frac")
    t = decode_closed(repaired, "rat", None, 0)
    assert print_term(vsigs["ratflip"], t) == "whole z"


def test_flipped_plan_matches_straight_plan(vsigs, plans):
    # after repair both declarations code rationals identically
    for code in range(200):
        a = decode_closed(plans["rat"], "rat", None, code)
        b = decode_closed(plans["ratflip"], "rat", None, code)
        assert a == b


def test_build_plan_rejects_non_permutation(vsigs):
    with pytest.raises(ValueError, match="permutation"):
        build_plan(vsigs["lambda"], {("t", UNIT_CLASS): ("lam", "lam")})


def test_no_plan_when_trials_cannot_pass(vsigs, monkeypatch):
    monkeypatch.setattr(codec, "_TRIAL_FUEL", 0)
    with pytest.raises(NoWellFoundedPlan) as e:
        assign_tags(vsigs["lambda"])
    assert e.value.failed_classes == ["t"]


def test_class_failing_only_through_a_later_loop_is_retried():
    # a is trialled first and loops only through b's declaration order;
    # once b is repaired, a's declaration order decodes
    vsig = validate(parse_signature(
        sig_text("nat")
        + "a : type. b : type. ma : b -> a. ma2 : a -> a. bs : b -> b. bl : nat -> b."
    ))
    plan = assign_tags(vsig)
    assert plan.classes[("a", UNIT_CLASS)].tags == ("ma", "ma2")
    assert plan.classes[("b", UNIT_CLASS)].tags == ("bl", "bs")
    budget = EnumBudget.with_overrides(max_size=4, max_code=100)
    report = verify_all(plan, budget)
    assert report.passed, report.json_dict("ab")


# ------------------------------------------------------ tag search oracle


def _next_permutation(seq: list[str], pos: dict[str, int]) -> bool:
    # step to the next permutation in declaration order; False on wrap
    i = len(seq) - 2
    while i >= 0 and pos[seq[i]] >= pos[seq[i + 1]]:
        i -= 1
    if i < 0:
        seq.reverse()
        return False
    j = len(seq) - 1
    while pos[seq[j]] <= pos[seq[i]]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = reversed(seq[i + 1 :])
    return True


def oracle_failing_class(plan, trial_fuel, skip):
    # the first class, in declaration order, whose code 0 or 1 runs public
    # decode out of fuel; shares no loop check with the tag search
    vsig = plan.vsig
    for decl in vsig.decls:
        for cls, reps in vsig.class_reps(decl.name):
            if (decl.name, cls) in skip:
                continue
            for index in reps:
                for code in vsig.cardinality(decl.name, cls).codes_below(2):
                    try:
                        decode(plan, decl.name, index, EMPTY_COUNTS, code, trial_fuel)
                    except FuelExhausted:
                        return (decl.name, cls)
    return None


def permutation_search(vsig, trial_fuel=600):
    """Reference tag search: a failing class steps through every
    permutation of its infinite constructors in lexicographic order."""
    base, order, pos = {}, {}, {}
    for decl in vsig.decls:
        for cls in vsig.classes(decl.name):
            _, infinite = vsig.ctors_for_class(decl.name, cls)
            names = tuple(c.name for c in infinite)
            key = (decl.name, cls)
            base[key] = order[key] = names
            pos[key] = {name: k for k, name in enumerate(names)}
    failed = []
    while True:
        plan = build_plan(vsig, order)
        offender = oracle_failing_class(plan, trial_fuel, set(failed))
        if offender is None:
            if failed:
                raise NoWellFoundedPlan([str(key) for key in failed])
            return plan
        current = list(order[offender])
        if _next_permutation(current, pos[offender]):
            order[offender] = tuple(current)
        else:
            failed.append(offender)
            order[offender] = base[offender]


def tags_of(plan):
    return {key: cp.tags for key, cp in plan.classes.items()}


WIDE = """
nat : type. z : nat. s : nat -> nat.
exp : type.
add : exp -> exp -> exp.
mul : exp -> exp -> exp.
let : exp -> (exp -> exp) -> exp.
lam : (exp -> exp) -> exp.
app : exp -> exp -> exp.
lit : nat -> exp.
"""


def plans_tried(monkeypatch, vsig):
    # the search's plan (None when it finds none) and every plan it built
    built = []

    def recording(*args):
        built.append(build_plan(*args))
        return built[-1]

    monkeypatch.setattr(codec, "build_plan", recording)
    try:
        plan = assign_tags(vsig)
    except NoWellFoundedPlan:
        plan = None
    finally:
        monkeypatch.undo()
    return plan, built


@pytest.mark.parametrize("name", SIG_NAMES + ["chain5"])
def test_tags_match_permutation_search(vsigs, plans, name):
    if name == "chain5":
        vsig = validate(parse_signature(chain_signature(5)))
        plan = assign_tags(vsig)
    else:
        vsig, plan = vsigs[name], plans[name]
    assert tags_of(plan) == tags_of(permutation_search(vsig))


def test_generated_indexed_signatures_round_trip():
    rng = random.Random(7)
    planned = 0
    for _ in range(200):
        text = random_indexed_signature(rng)
        first = compute_cardinality(parse_signature(text)).analysis
        again = compute_cardinality(parse_signature(text)).analysis
        assert (first.card, first.patterns) == (again.card, again.patterns), text
        try:
            vsig = validate(parse_signature(text))
        except SigValidationError:
            continue
        for (t, k), card in vsig.analysis.card.items():
            if card.is_finite:
                assert vsig.ctors_for_class(t, k)[0].total == card.count, text
        try:
            plan = assign_tags(vsig)
        except NoWellFoundedPlan:
            continue
        planned += 1
        for decl in vsig.decls:
            for cls, reps in vsig.class_reps(decl.name):
                card = vsig.cardinality(decl.name, cls)
                codes = range(21 if card.is_infinite else min(card.count or 0, 21))
                for index in reps:
                    for code in codes:
                        term = decode_closed(plan, decl.name, index, code)
                        assert encode_closed(plan, decl.name, index, term) == code, text
    assert planned >= 30


def test_tags_match_permutation_search_on_generated_signatures(monkeypatch):
    monkeypatch.setattr(codec, "_TRIAL_FUEL", 100)
    rng = random.Random(0)
    compared = 0
    for _ in range(60):
        try:
            vsig = validate(parse_signature(random_signature(rng)))
        except SigValidationError:
            continue
        # a small trial fuel keeps the oracle's full sweeps cheap
        try:
            expected = tags_of(permutation_search(vsig, trial_fuel=100))
        except NoWellFoundedPlan:
            continue
        assert tags_of(assign_tags(vsig)) == expected
        compared += 1
    assert compared >= 40


def test_wide_tags_and_plan_count(monkeypatch):
    # the permutation search stepped through 361 plans to reach this order;
    # add, mul and let at tag 0 each fail without reading tag 1, so one plan
    # each rules out their five candidates
    plan, tried = plans_tried(monkeypatch, validate(parse_signature(WIDE)))
    assert plan.classes[("exp", UNIT_CLASS)].tags == (
        "lam", "add", "mul", "let", "app", "lit"
    )
    assert len(tried) == 4


@pytest.mark.parametrize("k", [2, 5, 7, 12, 200])
def test_plan_count_is_linear_in_constructors(monkeypatch, k):
    # each recursive constructor at tag 0 loops on code 0 without reading
    # tag 1, so it costs one plan, not one per partner at tag 1
    plan, tried = plans_tried(monkeypatch, validate(parse_signature(chain_signature(k))))
    assert plan.classes[("t", UNIT_CLASS)].tags[0] == "b"
    assert len(tried) == k


@pytest.mark.parametrize("k", [13, 16])
def test_more_than_twelve_infinite_constructors_plan_and_verify(k):
    plan = assign_tags(validate(parse_signature(chain_signature(k))))
    assert plan.classes[("t", UNIT_CLASS)].tags[0] == "b"
    report = verify_all(plan, EnumBudget(max_size=3, max_code=200))
    assert report.passed, report.json_dict(f"chain{k}")


def old_tag_candidates(names):
    # the candidate list the search once built in full before its first trial
    if len(names) < 2:
        return [names]
    return [
        (a, b) + tuple(n for n in names if n not in (a, b))
        for a in names
        for b in names
        if a != b
    ]


@pytest.mark.parametrize("n", range(8))
def test_tag_order_is_the_candidate_list_made_when_tried(n):
    names = tuple(f"c{i}" for i in range(n))
    assert [codec._tag_order(names, i) for i in range(max(n * (n - 1), 1))] == (
        old_tag_candidates(names)
    )


def test_a_passing_declaration_order_plans_in_linear_memory():
    # 400 recursive constructors after the base one: declaration order
    # passes, so one order is built, not all 159,600 candidates (518 MB)
    vsig = validate(parse_signature("\n".join(
        [sig_text("nat"), "t : type.", "b : nat -> t."]
        + [f"r{i} : t -> t -> t." for i in range(399)]
    )))
    tracemalloc.start()
    try:
        plan = assign_tags(vsig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.classes[("t", UNIT_CLASS)].tags == ("b", *(f"r{i}" for i in range(399)))
    assert peak < 5_000_000


T012 = (
    "t0 : type. t1 : type. t2 : type."
    " t0c0 : t0 -> t0 -> t0. t0c1 : t1 -> t2 -> t0. t0c2 : t2 -> t0. t0c3 : t2 -> t0."
    " t1c0 : t2 -> t1. t1c1 : nat -> t1. t2c0 : t0 -> t2 -> t2. t2c1 : nat -> t2."
)


def test_t012_has_a_plan_among_the_candidates():
    vsig = validate(parse_signature(sig_text("nat") + T012))
    plan = build_plan(vsig, {
        ("t0", UNIT_CLASS): ("t0c1", "t0c0", "t0c2", "t0c3"),
        ("t2", UNIT_CLASS): ("t2c1", "t2c0"),
    })
    assert oracle_failing_class(plan, _TRIAL_FUEL, set()) is None
    assert verify_all(plan, EnumBudget(max_size=3, max_code=100)).passed


@pytest.mark.xfail(
    strict=True,
    raises=NoWellFoundedPlan,
    reason="the search moves only the first failing class; a class blamed"
    " for another's loop uses up its candidates (ROADMAP item 4)",
)
def test_t012_plans():
    plan = assign_tags(validate(parse_signature(sig_text("nat") + T012)))
    assert verify_all(plan, EnumBudget(max_size=3, max_code=100)).passed


# ------------------------------------------------------- trial loop check


def trial(plan, type_name, index, code, fuel=_TRIAL_FUEL):
    # a tag-search trial's verdict (FuelExhausted, or None where it ends)
    # and the fuel it spent
    cell = [fuel]
    ends = _trial_ends(plan, Lookups(), type_name, index, code, cell)
    return (None if ends else FuelExhausted), fuel - cell[0]


def plain(plan, type_name, index, code, fuel=_TRIAL_FUEL):
    try:
        decode(plan, type_name, index, EMPTY_COUNTS, code, fuel)
    except FuelExhausted:
        return FuelExhausted
    return None


def candidate_plans(vsig, most=4):
    # every candidate order of each class with at most `most` infinite
    # constructors, the other classes in declaration order: plans that do
    # not depend on how many rounds the search runs
    for decl in vsig.decls:
        for cls in vsig.classes(decl.name):
            names = tuple(c.name for c in vsig.ctors_for_class(decl.name, cls)[1])
            if len(names) <= most:
                for i in range(max(len(names) * (len(names) - 1), 1)):
                    yield build_plan(vsig, {(decl.name, cls): codec._tag_order(names, i)})


def test_trial_verdicts_match_plain_decode_on_generated_signatures():
    rng = random.Random(3)
    searched = trials = early = 0
    for make in [random_signature, random_indexed_signature] * 30:
        try:
            vsig = validate(parse_signature(make(rng)))
        except SigValidationError:
            continue
        searched += 1
        for plan in candidate_plans(vsig):
            assert _first_failing_class(plan, _TRIAL_FUEL, set(), Lookups()) == (
                oracle_failing_class(plan, _TRIAL_FUEL, set())
            )
            for decl in vsig.decls:
                for cls, reps in vsig.class_reps(decl.name):
                    for index in reps:
                        for code in vsig.cardinality(decl.name, cls).codes_below(2):
                            out, spent = trial(plan, decl.name, index, code)
                            assert out == plain(plan, decl.name, index, code)
                            trials += 1
                            early += out is FuelExhausted and spent < _TRIAL_FUEL
    assert searched >= 30 and trials >= 1000 and early >= 100


def test_trial_stops_at_the_first_repeated_state(vsigs):
    # frac at tag 0: rat code 0 decodes to frac z r, r being rat code 0 again
    flip = build_plan(vsigs["ratflip"])
    out, spent = trial(flip, "rat", None, 0)
    assert out is FuelExhausted and spent <= 2
    cell = [_TRIAL_FUEL]
    with pytest.raises(FuelExhausted):
        _decode(flip, "rat", None, EMPTY_COUNTS, 0, cell, Lookups())
    assert cell == [0]


def test_loop_with_growing_counts_stops_at_a_capped_repeat():
    # f at tag 0: b code 0 is f of b code 0 under one more nat variable;
    # the trial caps each count at 2, so the fourth state repeats the third
    vsig = validate(parse_signature(
        sig_text("nat") + "b : type. f : (nat -> b) -> b. g : nat -> b."
    ))
    out, spent = trial(build_plan(vsig), "b", None, 0)
    assert out is FuelExhausted and spent == 3
    assert plain(build_plan(vsig), "b", None, 0) is FuelExhausted
    assert assign_tags(vsig).classes[("b", UNIT_CLASS)].tags == ("g", "f")


def test_loop_with_a_growing_index_burns_the_trial_fuel():
    # f at tag 0: b N code 0 is f of b (s N) code 0, so no state repeats
    # and only the fuel stops the trial
    vsig = validate(parse_signature(
        sig_text("nat") + "b : nat -> type. f : b (s N) -> b N. g : nat -> b N."
    ))
    out, spent = trial(build_plan(vsig), "b", 0, 0)
    assert out is FuelExhausted and spent == _TRIAL_FUEL
    # b (s N) moves g to tag 0; then b z's declaration order ends
    plan = assign_tags(vsig)
    assert [plan.classes[("b", k)].tags for k in (Z_CLASS, S_CLASS)] == [("f", "g"), ("g", "f")]


def finite_chain(arity, n):
    # b0 has one constant and each b(i) one constructor of arity copies
    # of b(i-1), so b(i) has one term: of 2**(i+1) - 1 nodes at arity 2,
    # of i + 1 at arity 1
    return "b0 : type. b0c : b0.\n" + "".join(
        f"b{i} : type. b{i}c : {f'b{i - 1} -> ' * arity}b{i}.\n" for i in range(1, n)
    )


@pytest.mark.parametrize(
    "text",
    [finite_chain(2, 10) + "t : type. tb : b9 -> t. ts : t -> t.", finite_chain(1, 700)],
    ids=["binary-chain-under-t", "unary-chain-700"],
)
def test_finite_classes_end_their_trials_at_once(text):
    # code 0 of b9 has 1,023 nodes, of b699 700: a trial that walked
    # them would run out of fuel, though no finite class can loop
    vsig = validate(parse_signature(text))
    start = time.perf_counter()
    plan = assign_tags(vsig)
    assert time.perf_counter() - start < 0.1
    report = verify_all(plan, EnumBudget(max_size=3, max_code=50))
    assert report.passed, report.json_dict("chain")


# --------------------------------------------------------- encode anchors


def test_encode_lambda(vsigs, plans):
    assert enc(vsigs, plans, "lambda", "t", None, "lam [x] x") == 0
    assert enc(vsigs, plans, "lambda", "t", None, "app (lam [x] x) (lam [x] x)") == 1


def test_level_shift(vsigs, plans):
    # a variable's code does not change under enclosing binders
    assert enc(vsigs, plans, "lambda", "t", None, "lam [x] lam [y] x") == 2
    assert enc(vsigs, plans, "lambda", "t", None, "lam [x] lam [y] y") == 6


def test_encode_natlist(vsigs, plans):
    assert enc(vsigs, plans, "natlist", "natlist", None, "natlist/0") == 0
    assert enc(vsigs, plans, "natlist", "natlist", None, "natlist/+ z natlist/0") == 1


def test_encode_rat(vsigs, plans):
    assert enc(vsigs, plans, "rat", "rat", None, "whole 3") == 6
    assert enc(vsigs, plans, "rat", "rat", None, "whole 0") == 0
    assert enc(vsigs, plans, "rat", "rat", None, "frac 0 (whole 0)") == 1


def test_encode_indexed(vsigs, plans):
    assert enc(vsigs, plans, "termfam", "term", 0, "unit") == 0
    assert enc(vsigs, plans, "termfam", "term", 0, "rec [f] f") == 2
    assert enc(vsigs, plans, "exists", "term", 0, "exists z [x] x") == 3


def test_nat_code_is_identity(vsigs, plans):
    plan, vsig = plans["nat"], vsigs["nat"]
    term = Con("z", (), ())
    for n in range(1025):
        assert encode_closed(plan, "nat", None, term) == n
        assert decode_closed(plan, "nat", None, n) == term
        term = Con("s", (), (TermArg(0, term),))


def test_nat_identity_survives_declaration_order():
    from godelgen.sigmodel import parse_signature, validate

    v = validate(parse_signature("nat : type. s : nat -> nat. z : nat."))
    plan = assign_tags(v)
    term = Con("z", (), ())
    for n in range(100):
        assert encode_closed(plan, "nat", None, term) == n
        term = Con("s", (), (TermArg(0, term),))


def ill_fitting_terms(vsigs, plans):
    """(plan, type, index, term) cases where the closed term does not fit."""
    unit = parse_term(vsigs["termfam"], "term", 0, "unit")
    lam0 = parse_term(vsigs["lambda"], "t", None, "lam [x] x")
    # wrong argument, index-argument and binder counts, and index
    # arguments that are not naturals; the finite ones once got codes
    pair = assign_tags(validate(parse_signature(
        "bool : type. true : bool. false : bool. pair : type. mk : bool -> bool -> pair."
    )))
    true, false, ident = Con("true"), Con("false"), Con("lam", (), (TermArg(1, Var("t", None, 0)),))
    return [
        (plans["termfam"], "term", 1, unit),
        (plans["termfam"], "term", 0, lam0),
        (pair, "pair", None, Con("mk", (), (TermArg(0, false),))),  # coded as mk true false
        (pair, "pair", None, Con("mk")),
        (pair, "pair", None, Con("mk", (), (TermArg(0, true), TermArg(0, false), TermArg(0, true)))),
        (pair, "pair", None, Con("mk", (5,), (TermArg(0, true), TermArg(0, false)))),
        (pair, "bool", None, Con("true", (), (TermArg(0, false),))),
        (plans["lambda"], "t", None, Con("lam", (), (TermArg(0, ident),))),
        (plans["lambda"], "t", None, Con("app", (), (TermArg(1, ident), TermArg(0, ident)))),
    ] + [
        (plans["exists"], "term", 0, Con("exists", (value,), (TermArg(1, Con("unit")),)))
        for value in (-1, True, "1", 1.0)
    ]


def test_encode_rejects_ill_fitting_terms(vsigs, plans):
    for plan, type_name, index, term in ill_fitting_terms(vsigs, plans):
        with pytest.raises(TermError):
            encode_closed(plan, type_name, index, term)


def first_error(fn, *args) -> str:
    with pytest.raises(TermError) as info:
        fn(*args)
    return str(info.value)


def first_errors(cases):
    """(encode's message, check_term's message) for each case."""
    return [
        (first_error(encode_closed, plan, type_name, index, term),
         first_error(check_term, plan.vsig, type_name, index, EMPTY_COUNTS, term))
        for plan, type_name, index, term in cases
    ]


def test_first_error_of_ill_fitting_terms(vsigs, plans):
    # encode and check_term test each node alike, so they agree
    not_natural = "index argument {} of exists is not a natural"
    assert first_errors(ill_fitting_terms(vsigs, plans)) == [
        ("constructor unit cannot construct term 1",) * 2,
        ("constructor lam cannot construct term 0",) * 2,
        *[(f"constructor mk takes 2 argument(s), got {n}",) * 2 for n in (1, 0, 3)],
        ("constructor mk takes 0 index argument(s), got 1",) * 2,
        ("constructor true takes 0 argument(s), got 1",) * 2,
        ("argument 0 of lam binds 1 variable(s), term has 0",) * 2,
        ("argument 0 of app binds 0 variable(s), term has 1",) * 2,
        *[(not_natural.format(v),) * 2 for v in ("-1", "True", "'1'", "1.0")],
    ]


def test_first_error_is_the_leftmost_in_depth_first_order(vsigs, plans):
    # each term has a fault in two arguments; the first argument's is
    # reported, however deep it lies
    pair = assign_tags(validate(parse_signature(
        "bool : type. true : bool. false : bool. pair : type. mk : bool -> bool -> pair."
    )))
    ident = Con("lam", (), (TermArg(1, Var("t", None, 0)),))

    def con(name, *args, index_args=()):
        return Con(name, index_args, tuple(TermArg(*a) for a in args))

    cases = [
        (plans["lambda"], "t", None,
         con("app", (0, con("lam", (0, Var("t", None, 0)))), (0, con("z")))),
        (plans["lambda"], "t", None,
         con("app", (0, con("app", (0, ident), (0, Var("t", None, 3)))), (1, ident))),
        (plans["lambda"], "t", None,
         con("app", (0, ident), (0, con("app", (0, con("nosuch")), (2, ident))))),
        (pair, "pair", None, con("mk", (0, con("true", (0, con("false")))), (1, con("true")))),
        (pair, "pair", None, con("mk", (0, con("true")), (0, con("maybe")))),
        (plans["termfam"], "term", 1, con("app", (0, con("unit")), (1, con("lam", (1, con("unit")))))),
        (plans["termfam"], "term", 0,
         con("app", (0, con("lam", (1, Var("term", 1, 0)))), (0, con("rec", (1, Var("term", 0, 1)))))),
        (plans["exists"], "term", 0, con(
            "exists", (1, con("app", (0, Var("term", 2, 0)), (0, Var("term", 0, 0)))), index_args=(2,))),
        (plans["natlist"], "natlist", None,
         con("natlist/+", (0, con("s", (0, con("natlist/0")))), (0, con("z")))),
    ]
    assert first_errors(cases) == [
        ("argument 0 of lam binds 1 variable(s), term has 0",) * 2,
        ("variable level 3 out of scope (0 in context)",) * 2,
        ("unknown constructor 'nosuch'",) * 2,
        ("constructor true takes 0 argument(s), got 1",) * 2,
        ("unknown constructor 'maybe'",) * 2,
        ("constructor unit cannot construct term 2",) * 2,
        ("variable of type term 1, expected term 0",) * 2,
        ("variable of type term 2, expected term 1",) * 2,
        ("constructor natlist/0 constructs natlist, expected nat",) * 2,
    ]
    texts = [
        ("lambda", "t", None, "app (lam [x] y) (lam [x] z)"),
        ("lambda", "t", None, "app (lam x) (lam [y] w)"),
        ("lambda", "t", None, "app (app (lam [x] x) (lam [y] q)) (s z)"),
        ("lambda", "t", None, "app (lam [x] x x) z"),
        ("termfam", "term", 0, "app (lam [x] x) (app unit unit)"),
        ("termfam", "term", 1, "app (lam [x] unit) (rec [f] [g] f)"),
        ("exists", "term", 0, "exists x [y] unit"),
        ("exists", "term", 0, "exists 3 [y] app y (lam [q] w)"),
        ("natlist", "natlist", None, "natlist/+ (s natlist/0) (natlist/+ z)"),
        ("natlist", "natlist", None, "natlist/+ 3 (natlist/+ 2 natlist/0 z)"),
    ]
    assert [first_error(parse_term, vsigs[s], t, i, text) for s, t, i, text in texts] == [
        "unbound name 'y'",
        "argument of lam must bind 1 variable(s) with [name]",
        "unbound name 'q'",
        "variable x cannot be applied",
        "constructor unit cannot construct term 1",
        "constructor unit cannot construct term 1",
        "invalid nat index value",
        "variable y has type term 3, expected term 1",
        "constructor natlist/0 constructs natlist, expected nat",
        "constructor natlist/+ expects 2 argument(s), got 3",
    ]


def _replace_node(term, pos, fn):
    """term with its pos-th node in pre-order replaced by fn(node)."""
    seen = [-1]

    def walk(t):
        seen[0] += 1
        if seen[0] == pos:
            return fn(t)
        if isinstance(t, Var):
            return t
        return Con(t.ctor, t.index_args, tuple(TermArg(a.binder_count, walk(a.body)) for a in t.args))

    return walk(term)


def _node_count(term) -> int:
    return 1 + sum(_node_count(a.body) for a in term.args) if isinstance(term, Con) else 1


MUTATED = [("lambda", "t", None), ("termfam", "term", 0), ("termfam", "term", 2),
           ("exists", "term", 0), ("exists", "term", 1), ("natlist", "natlist", None)]


def _repeated_keys(vsig, term, type_name, index) -> list[int]:
    """Pre-order positions of the Con nodes of a well-typed term whose
    (constructor, type, index, index arguments) an earlier node has."""
    seen, out, todo, pos = set(), [], [(term, type_name, index)], -1
    while todo:
        t, type_name, index = todo.pop()
        pos += 1
        if isinstance(t, Con):
            key = (t.ctor, type_name, index, t.index_args)
            if key in seen:
                out.append(pos)
            seen.add(key)
            targets = vsig.arg_targets(t.ctor, index, t.index_args)
            todo += [(ta.body, ty, ix) for ta, (ty, ix, _) in zip(reversed(t.args), reversed(targets))]
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_fails_exactly_where_check_term_does(vsigs, plans, data):
    # a decoded term with one node changed: a swapped constructor, a
    # variable of another type or level, another binder count, other index
    # arguments (sometimes a list) or another argument count.  Half the time
    # the node changed is one whose key an earlier node has, so encode has
    # its step record
    sig, type_name, index = data.draw(st.sampled_from(MUTATED))
    vsig, plan = vsigs[sig], plans[sig]
    term = decode_closed(plan, type_name, index, data.draw(st.integers(0, 5000)))
    types, levels = sorted(vsig.sig.by_name), st.integers(-1, 3)
    kind = data.draw(st.sampled_from(["ctor", "var", "binders", "index_args", "arity"]))

    def mutate(node):
        if kind == "var":
            ix = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
            return Var(data.draw(st.sampled_from(types)), ix, data.draw(levels))
        if isinstance(node, Var):
            return node
        ctor, index_args, args = node.ctor, node.index_args, node.args
        if kind == "ctor":  # a list is unhashable and no constructor
            ctor = data.draw(st.sampled_from([*sorted(vsig.sig.ctors), "nosuch", [ctor]]))
        elif kind == "binders" and args:
            j = data.draw(st.integers(0, len(args) - 1))
            swapped = TermArg(data.draw(st.integers(0, 3)), args[j].body)
            args = args[:j] + (swapped,) + args[j + 1:]
        elif kind == "index_args":
            values = st.one_of(st.integers(-1, 4), st.sampled_from([True, 1.0]))
            index_args = data.draw(st.lists(values, max_size=2))  # a list is unhashable
            index_args = index_args if data.draw(st.booleans()) else tuple(index_args)
        elif kind == "arity":
            args = args[:-1] if data.draw(st.booleans()) else args + args[:1]
        return Con(ctor, index_args, args)

    repeated = _repeated_keys(vsig, term, type_name, index)
    if repeated and data.draw(st.booleans()):
        pos = data.draw(st.sampled_from(repeated))
    else:
        pos = data.draw(st.integers(0, _node_count(term) - 1))
    mutated = _replace_node(term, pos, mutate)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except TermError as exc:
            return str(exc)

    checked = outcome(check_term, vsig, type_name, index, EMPTY_COUNTS, mutated)
    code = outcome(encode_closed, plan, type_name, index, mutated)
    if checked is None:
        assert decode_closed(plan, type_name, index, code) == mutated
    else:
        assert code == checked


def _app(*args):
    return Con("app", (), tuple(TermArg(0, a) for a in args))


_IDENTITY = Con("lam", (), (TermArg(1, Var("t", None, 0)),))


def _exists(value, body):
    return Con("exists", (value,), (TermArg(1, body),))


# ill-formed nodes whose key a well-formed node before them has, with a
# well-formed term of that key and check_term's message: index arguments
# that equal 1 but are no natural, and an app with one argument
REPEATED_KEYS = [
    ("exists", "term", 0, _exists(1, _exists(True, Con("unit"))),
     _exists(1, Con("unit")), "index argument True of exists is not a natural"),
    ("exists", "term", 0, _exists(1, _exists(1.0, Con("unit"))),
     _exists(1, Con("unit")), "index argument 1.0 of exists is not a natural"),
    ("lambda", "t", None, _app(_app(_IDENTITY, _IDENTITY), _app(_IDENTITY)),
     _app(_IDENTITY, _IDENTITY), "constructor app takes 2 argument(s), got 1"),
]


@pytest.mark.parametrize("sig, type_name, index, term, good, message", REPEATED_KEYS)
def test_a_step_record_hit_still_tests_the_node(
    vsigs, plans, sig, type_name, index, term, good, message
):
    with pytest.raises(TermError) as checked:
        check_term(vsigs[sig], type_name, index, EMPTY_COUNTS, term)
    assert str(checked.value) == message
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        encode_closed(plans[sig], type_name, index, term)
    # in a context that keeps its step records across terms, as an onto
    # sweep's does, once a well-formed term has filled them
    ctx = _SweepMemo()
    _encode(plans[sig], type_name, index, EMPTY_COUNTS, good, ctx)
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        _encode(plans[sig], type_name, index, EMPTY_COUNTS, term, ctx)


ILL_FORMED_FIELDS = [
    (Con(["exists"], (1,), (TermArg(1, Con("unit")),)), "unknown constructor ['exists']"),
    (Con("exists", [1], (TermArg(1, Con("unit")),)),
     "index arguments [1] of exists are not a tuple"),
    (Con("exists", ("a",), (TermArg(1, Con("unit")),)),
     "index argument 'a' of exists is not a natural"),
]


@pytest.mark.parametrize("term, message", ILL_FORMED_FIELDS)
def test_a_field_of_the_wrong_type_is_a_term_error(vsigs, plans, term, message):
    # such fields once escaped check_term, encode and print_term as TypeError
    vsig, plan = vsigs["exists"], plans["exists"]
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        check_term(vsig, "term", 0, EMPTY_COUNTS, term)
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        encode_closed(plan, "term", 0, term)
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        print_term(vsig, term, 0)
    if message.startswith("unknown"):  # exists leaves the index to be given
        with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
            print_term(vsig, term)  # the index inferred


def test_containers_and_compare_reject_ill_fitting_terms(vsigs, plans):
    cases = ill_fitting_terms(vsigs, plans) + [
        (plans["lambda"], "t", None, Con("z")),  # a constructor of another type
        (plans["termfam"], "term", 2, Con("unit")),  # and of another class
        (plans["lambda"], "t", None, Var("t", None, 0)),  # a free variable
        (plans["lambda"], "nosuch", None, Con("lam")),  # an unknown type
        (plans["termfam"], "term", None, Con("unit")),  # a missing index
    ]
    for plan, type_name, index, term in cases:
        with pytest.raises(TermError):
            TermSet(plan, type_name, index).insert(term)
        with pytest.raises(TermError):
            TermMap(plan, type_name, index).insert(term, "value")
        with pytest.raises(TermError):
            compare(plan, type_name, index, term, term)


def test_encode_and_decode_reject_a_bad_target(vsigs, plans):
    # (type, index) pairs that name no class: check_term's messages
    unit = parse_term(vsigs["termfam"], "term", 0, "unit")
    for type_name, index in [("nope", None), ("term", None), ("nat", 0)]:
        expected = first_error(check_term, vsigs["termfam"], type_name, index, EMPTY_COUNTS, unit)
        assert first_error(decode_closed, plans["termfam"], type_name, index, 0) == expected
        assert first_error(encode_closed, plans["termfam"], type_name, index, unit) == expected
    assert expected == "type nat takes no index"


# --------------------------------------------------------- decode anchors


def test_decode_lambda_zero(vsigs, plans):
    t = decode_closed(plans["lambda"], "t", None, 0)
    assert print_term(vsigs["lambda"], t) == "lam [x0] x0"


def test_decode_indexed_one(vsigs, plans):
    t = decode_closed(plans["termfam"], "term", 0, 1)
    assert print_term(vsigs["termfam"], t, index=0) == "app (lam [x0] x0) unit"


def test_decode_finite_range(plans):
    decode_closed(plans["bool"], "bool", None, 0)
    decode_closed(plans["bool"], "bool", None, 1)
    with pytest.raises(CodeOutOfRange):
        decode_closed(plans["bool"], "bool", None, 2)
    with pytest.raises(CodeOutOfRange):
        decode_closed(plans["bool"], "bool", None, -1)
    with pytest.raises(CodeOutOfRange):
        decode_closed(plans["lambda"], "t", None, -5)


def scanned_entry_at(block, offset):
    # the linear scan decode once made for a finite code
    for e in block.entries:
        if offset < e.base + e.count:
            return e
    raise IndexError(offset)


ZERO_COUNT_ENTRY = "e : type. f : type. c : e -> f. a : f. b : f."


def test_finite_entries_are_found_as_a_scan_finds_them():
    # by name through entry_for, and by code in decode, at every offset of
    # every finite block of the contract corpus; in ZERO_COUNT_ENTRY, c has
    # no codes and shares base 0 with a
    sigs = [*corpus(), ("zero-count", ZERO_COUNT_ENTRY)]
    offsets = 0
    for _, text in sigs:
        try:
            vsig = validate(parse_signature(text))
        except GodelgenError:
            continue
        plan = build_plan(vsig)  # finite codes decode through no tag
        for decl in vsig.decls:
            for cls, reps in vsig.class_reps(decl.name):
                block, infinite = vsig.ctors_for_class(decl.name, cls)
                for name in [e.ctor_name for e in block.entries] + [c.name for c in infinite]:
                    assert block.entry_for(name) == next(
                        (e for e in block.entries if e.ctor_name == name), None
                    )
                for offset in range(block.total):
                    for index in reps:
                        term = decode_closed(plan, decl.name, index, offset)
                        assert term.ctor == scanned_entry_at(block, offset).ctor_name
                        assert encode_closed(plan, decl.name, index, term) == offset
                    offsets += 1
    assert offsets >= 600
    vsig = validate(parse_signature(ZERO_COUNT_ENTRY))
    block = vsig.ctors_for_class("f", UNIT_CLASS)[0]
    assert [(e.ctor_name, e.base, e.count) for e in block.entries] == [
        ("c", 0, 0), ("a", 0, 1), ("b", 1, 1)
    ]
    assert [decode_closed(build_plan(vsig), "f", None, c).ctor for c in (0, 1)] == ["a", "b"]


def test_decode_fuel_is_a_step_budget(vsigs, plans):
    with pytest.raises(FuelExhausted):
        decode_closed(plans["nat"], "nat", None, 50, fuel=10)
    decode_closed(plans["nat"], "nat", None, 50, fuel=51)


def test_empty_class_plans_without_trials():
    from godelgen.sigmodel import parse_signature, validate

    vsig = validate(parse_signature("e : type.\nd : type.\nmk : d.\n"))
    plan = assign_tags(vsig)  # must not trial-decode the empty class
    assert plan.class_plan("e", None).cardinality.is_empty
    with pytest.raises(CodeOutOfRange):
        decode_closed(plan, "e", None, 0)
    assert decode_closed(plan, "d", None, 0) == Con("mk", (), ())


# ------------------------------------------------------------ round trips


# chain-shaped classes decode in O(code), so their sweeps stay narrow
SWEEPS = [
    ("nat", "nat", [None], 500),
    ("natlist", "natlist", [None], 300),
    ("rat", "rat", [None], 300),
    ("lambda", "t", [None], 2000),
    ("termfam", "term", [0, 1, 2], 700),
    ("exists", "term", [0, 1, 2], 400),
    ("mixed", "tree", [None], 1000),
    ("mixed", "bool", [None], 2),
]


@pytest.mark.parametrize("sig,type_name,indices,hi", SWEEPS)
def test_decode_encode_identity(vsigs, plans, sig, type_name, indices, hi):
    vsig, plan = vsigs[sig], plans[sig]
    for index in indices:
        for code in range(hi):
            t = decode_closed(plan, type_name, index, code)
            check_term(vsig, type_name, index, EMPTY_COUNTS, t)
            assert encode_closed(plan, type_name, index, t) == code


@settings(max_examples=60, deadline=None)
@given(code=st.integers(min_value=0, max_value=10**6))
def test_identity_at_large_codes_lambda(vsigs, plans, code):
    t = decode_closed(plans["lambda"], "t", None, code)
    assert encode_closed(plans["lambda"], "t", None, t) == code


@settings(max_examples=60, deadline=None)
@given(code=st.integers(min_value=0, max_value=10**6), index=st.integers(0, 3))
def test_identity_at_large_codes_indexed(vsigs, plans, code, index):
    t = decode_closed(plans["termfam"], "term", index, code)
    assert encode_closed(plans["termfam"], "term", index, t) == code


def test_parse_encode_decode_print_loop(vsigs, plans):
    cases = [
        ("lambda", "t", None, "lam [x] lam [y] app x (app y x)"),
        ("termfam", "term", 1, "lam [x] rec [f] app (lam [y] f) x"),
        ("exists", "term", 0, "exists 2 [x] app (app x unit) unit"),
        ("natlist", "natlist", None, "natlist/+ 3 (natlist/+ 0 natlist/0)"),
        ("rat", "rat", None, "frac 2 (frac 1 (whole 4))"),
    ]
    for sig, type_name, index, text in cases:
        vsig, plan = vsigs[sig], plans[sig]
        t = parse_term(vsig, type_name, index, text)
        code = encode_closed(plan, type_name, index, t)
        assert decode_closed(plan, type_name, index, code) == t
        assert parse_term(
            vsig, type_name, index, print_term(vsig, t, index=index)
        ) == t


# ------------------------------------------------------------- open terms


def test_open_term_coherence(vsigs, plans):
    rng = random.Random(7)
    vsig, plan = vsigs["lambda"], plans["lambda"]
    for _ in range(150):
        counts = EMPTY_COUNTS
        for _ in range(rng.randrange(0, 5)):
            counts = counts.extend("t", None)
        code = rng.randrange(0, 5000)
        t = decode(plan, "t", None, counts, code)
        check_term(vsig, "t", None, counts, t)
        assert encode(plan, "t", None, counts, t) == code


def test_open_term_coherence_indexed(vsigs, plans):
    rng = random.Random(11)
    vsig, plan = vsigs["exists"], plans["exists"]
    for _ in range(150):
        counts = EMPTY_COUNTS
        for _ in range(rng.randrange(0, 4)):
            counts = counts.extend("term", rng.randrange(0, 3))
        index = rng.randrange(0, 3)
        code = rng.randrange(0, 2000)
        t = decode(plan, "term", index, counts, code)
        check_term(vsig, "term", index, counts, t)
        assert encode(plan, "term", index, counts, t) == code


def test_variables_take_the_first_codes(vsigs, plans):
    counts = EMPTY_COUNTS.extend("t", None).extend("t", None)
    for level in range(2):
        t = decode(plans["lambda"], "t", None, counts, level)
        assert t.level == level
    t = decode(plans["lambda"], "t", None, counts, 2)
    assert t == Con("lam", (), (TermArg(1, decode(plans["lambda"], "t", None,
                                                  counts.extend("t", None), 0)),))


# -------------------------------------------------------------- invariant


def test_payload_is_monotone(vsigs, plans):
    # binderless recursive slots always carry a smaller code
    for sig in ("nat", "natlist", "rat", "lambda", "termfam", "exists", "mixed"):
        vsig, plan = vsigs[sig], plans[sig]
        for (type_name, _cls), cp in plan.classes.items():
            if not cp.tags:
                continue
            f, i_count = cp.finite.total, len(cp.tags)
            for code in range(2, 300):
                q, tag = divmod(code - f, i_count) if code >= f else (None, None)
                if q is None:
                    continue
                ctor = vsig.sig.ctors[cp.tags[tag]]
                radices = []
                for arg in ctor.args:
                    card = vsig.cardinality(
                        arg.type_name, vsig.classes(arg.type_name)[0]
                    )
                    radices.append(0 if card.is_infinite else card.count)
                rem = q
                for radix in reversed(radices):
                    if radix:
                        rem //= radix
                n_slots = len(ctor.pi_args) + radices.count(0)
                values = unmingle_fold(rem, n_slots)
                slot = iter(values[len(ctor.pi_args):])
                for arg, radix in zip(ctor.args, radices):
                    if radix:
                        continue
                    value = next(slot)
                    if not arg.binders:
                        assert value < code, (sig, type_name, code, ctor.name)


# ---------------------------------------------------------------- compare


def test_compare(vsigs, plans):
    v, p = vsigs["lambda"], plans["lambda"]
    a = parse_term(v, "t", None, "lam [x] x")
    b = parse_term(v, "t", None, "lam [y] y")
    c = parse_term(v, "t", None, "app (lam [x] x) (lam [x] x)")
    assert compare(p, "t", None, a, b) == 0
    assert compare(p, "t", None, a, c) == -1
    assert compare(p, "t", None, c, a) == 1
    assert compare(p, "t", None, c, c) == 0


def test_compare_rejects_type_mismatch(vsigs, plans):
    unit = parse_term(vsigs["termfam"], "term", 0, "unit")
    lam1 = parse_term(vsigs["termfam"], "term", 1, "lam [x] x")
    with pytest.raises(TermError):
        compare(plans["termfam"], "term", 0, unit, lam1)


def test_default_fuel_value():
    assert DEFAULT_FUEL == 100_000
