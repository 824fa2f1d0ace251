"""Tests for the bounded bijection verifier and its term enumerator."""

import itertools
import signal
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SIG_NAMES, sig_text
from corpus import load_contract, report_digest
from godelgen import adequacy, codec
from godelgen.adequacy import (
    MEMO_GENERATION,
    EnumBudget,
    Verdict,
    _SweepMemo,
    _variant_namer,
    enumerate_terms,
    verify_all,
    verify_class,
    verify_one_to_one,
    verify_onto,
    verify_total_unique,
)
from godelgen.codec import (
    DEFAULT_FUEL,
    CodecPlan,
    _decode,
    _encode,
    assign_tags,
    build_plan,
    decode,
    encode,
)
from godelgen.errors import FuelExhausted, TermError
from godelgen.sigmodel import S_CLASS, parse_signature, validate
from godelgen.termrep import (
    EMPTY_COUNTS,
    Con,
    CountVector,
    Lookups,
    TermArg,
    Var,
    check_term,
    parse_term,
    print_term,
    term_size,
)

# Budgets keep chain-shaped classes (a nat code n is n + 1 nodes deep)
# to a few hundred codes while tree-shaped classes get the full default
# sweep.
NAT_CHAIN = {("nat", "-"): (6, 600)}
BUDGETS = {
    "nat": EnumBudget.with_overrides(max_size=8, per_class=NAT_CHAIN),
    "natlist": EnumBudget.with_overrides(
        per_class={**NAT_CHAIN, ("natlist", "-"): (6, 400)}
    ),
    "rat": EnumBudget.with_overrides(
        per_class={**NAT_CHAIN, ("rat", "-"): (6, 400)}
    ),
    "ratflip": EnumBudget.with_overrides(
        per_class={**NAT_CHAIN, ("rat", "-"): (6, 400)}
    ),
    "lambda": EnumBudget(),
    "termfam": EnumBudget.with_overrides(per_class=NAT_CHAIN),
    "bool": EnumBudget(),
    "exists": EnumBudget.with_overrides(
        max_code=3000, per_class={("nat", "-"): (6, 600)}
    ),
    "mixed": EnumBudget.with_overrides(per_class={("nat", "-"): (6, 600)}),
}


def closed_lambda_counts(max_size):
    # t(s, v) = number of terms of exactly s nodes with v free variables:
    # a variable costs one node, lam adds a variable, app splits the rest.
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def t(s, v):
        if s < 1:
            return 0
        total = v if s == 1 else 0
        total += t(s - 1, v + 1)
        total += sum(t(a, v) * t(s - 1 - a, v) for a in range(1, s - 1))
        return total

    return [t(s, 0) for s in range(1, max_size + 1)]


class TestEnumerator:
    def test_lambda_counts_match_recurrence(self, vsigs):
        terms = enumerate_terms(vsigs["lambda"], "t", None, 6)
        by_size = [0] * 6
        for term in terms:
            by_size[term_size(term) - 1] += 1
        assert by_size == closed_lambda_counts(6) == [0, 1, 2, 4, 13, 42]
        assert len(terms) == 62

    def test_lambda_smallest_terms(self, vsigs):
        vsig = vsigs["lambda"]
        terms = enumerate_terms(vsig, "t", None, 2)
        assert [print_term(vsig, t) for t in terms] == ["lam [x0] x0"]

    def test_bool_terms(self, vsigs):
        vsig = vsigs["bool"]
        terms = enumerate_terms(vsig, "bool", None, 3)
        assert [print_term(vsig, t) for t in terms] == ["true", "false"]

    def test_empty_type_enumerates_nothing(self):
        vsig = validate(parse_signature("e : type.\nd : type.\nmk : d.\n"))
        assert enumerate_terms(vsig, "e", None, 8) == []

    def test_nat_terms_in_size_order(self, vsigs):
        vsig = vsigs["nat"]
        terms = enumerate_terms(vsig, "nat", None, 4)
        rendered = [print_term(vsig, t) for t in terms]
        assert rendered == ["z", "s z", "s (s z)", "s (s (s z))"]

    def test_arguments_vary_first_fastest(self, vsigs):
        vsig = vsigs["mixed"]
        rendered = [print_term(vsig, t) for t in enumerate_terms(vsig, "tree", None, 5)]
        assert rendered == [
            "leaf",
            "node true leaf",
            "node false leaf",
            "node true (node true leaf)",
            "node false (node true leaf)",
            "node true (node false leaf)",
            "node false (node false leaf)",
        ]

    def test_index_values_split_before_arguments(self, vsigs):
        vsig = vsigs["exists"]
        terms = enumerate_terms(vsig, "term", 0, 4)
        assert len(terms) == 22
        assert [print_term(vsig, t, index=0) for t in terms[-3:]] == [
            "exists 0 [x0] rec [x1] x1",
            "exists 0 [x0] rec [x1] unit",
            "exists 1 [x0] unit",
        ]

    def test_indexed_enumeration_respects_index(self, vsigs):
        vsig = vsigs["termfam"]
        zero = enumerate_terms(vsig, "term", 0, 3)
        assert "unit" in {print_term(vsig, t, index=0) for t in zero}
        one = enumerate_terms(vsig, "term", 1, 4)
        rendered = {print_term(vsig, t, index=1) for t in one}
        assert "lam [x0] x0" in rendered
        assert "unit" not in rendered

    @pytest.mark.parametrize("index", [None, -1])
    def test_bad_index_is_rejected(self, vsigs, index):
        with pytest.raises(TermError, match="nonnegative index"):
            enumerate_terms(vsigs["termfam"], "term", index, 3)


class TestBudget:
    def test_defaults(self):
        budget = EnumBudget()
        assert budget.max_size == 6
        assert budget.max_code == 10_000
        assert budget.size_for("nat", "-") == 6
        assert budget.code_for("nat", "-") == 10_000

    def test_overrides_select_by_class(self):
        budget = EnumBudget.with_overrides(
            per_class={("nat", "-"): (5, 300), ("term", "z"): (4, 200)}
        )
        assert budget.size_for("nat", "-") == 5
        assert budget.code_for("term", "z") == 200
        assert budget.code_for("term", "s") == 10_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_size": 0},
            {"max_code": 1},
            {"per_class": ((("nat", "-"), (0, 100)),)},
            {"per_class": ((("nat", "-"), (3, 1)),)},
            {"fuel": 0},
        ],
    )
    def test_rejects_degenerate_bounds(self, kwargs):
        with pytest.raises(ValueError):
            EnumBudget(**kwargs)


class TestVerifyAll:
    @pytest.mark.parametrize("name", sorted(BUDGETS))
    def test_examples_verify(self, plans, name):
        report = verify_all(plans[name], BUDGETS[name])
        assert report.passed, report.json_dict(name)
        for row in report.classes:
            assert row.terms_checked > 0 or row.codes_checked >= 0
            assert row.counterexample is None
        assert report_digest(report.json_dict(name)) == load_contract()["verify"][name]

    def test_report_shape_for_indexed_family(self, plans):
        report = verify_all(plans["termfam"], BUDGETS["termfam"])
        labels = [(row.type_name, row.index_class) for row in report.classes]
        assert labels == [("nat", "-"), ("term", "z"), ("term", "s")]
        by_label = {row.index_class: row for row in report.classes}
        # the s class is verified at two representative indices
        assert by_label["s"].codes_checked == 2 * 10_000
        assert by_label["z"].codes_checked == 10_000

    def test_report_deterministic(self, plans):
        budget = EnumBudget.with_overrides(max_size=4, max_code=50)
        r1 = verify_all(plans["lambda"], budget)
        r2 = verify_all(plans["lambda"], budget)
        assert r1 == r2  # elapsed time is excluded from comparison
        assert r1.json_dict("x.sig") == r2.json_dict("x.sig")

    def test_json_layout(self, plans):
        budget = EnumBudget.with_overrides(max_size=3, max_code=10)
        report = verify_all(plans["bool"], budget)
        data = report.json_dict("tests/data/bool.sig")
        assert data["signature"] == "tests/data/bool.sig"
        assert data["classes"] == [
            {
                "type": "bool",
                "index_class": "-",
                "total": True,
                "unique": True,
                "onto": True,
                "one_to_one": True,
                "terms_checked": 2,
                "codes_checked": 2,
            }
        ]

    def test_finite_class_clamps_code_sweep(self, plans):
        report = verify_all(plans["bool"], EnumBudget())
        (row,) = report.classes
        assert row.codes_checked == 2

    @pytest.mark.parametrize("text, empty", [
        ("e : type. bool : type. t : bool. f : bool.", [("e", "-")]),
        (sig_text("nat") + "f : nat -> type. fs : f N -> f (s N).", [("f", "z"), ("f", "s")]),
    ])
    def test_uninhabited_classes_verify_with_no_codes(self, text, empty):
        report = verify_all(assign_tags(validate(parse_signature(text))))
        assert report.passed, report.json_dict("empty")
        rows = {(row.type_name, row.index_class): row for row in report.classes}
        for key in empty:
            assert (rows[key].terms_checked, rows[key].codes_checked) == (0, 0)

    def test_a_large_enum_verifies_in_linear_time(self):
        # 16,000 constants: a finite entry is found by bisect on decode and
        # by a name map on encode; a scan of the entries per code took 14-17 s
        n = 16_000
        plan = assign_tags(validate(parse_signature(
            "e : type. " + " ".join(f"c{i} : e." for i in range(n))
        )))

        def too_long(signum, frame):
            raise TimeoutError("still running after 10 s")

        previous = signal.signal(signal.SIGALRM, too_long)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            report = verify_all(plan, EnumBudget(max_size=1, max_code=n))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        (row,) = report.classes
        assert report.passed and (row.terms_checked, row.codes_checked) == (n, n)


class TestFailureDetection:
    def test_unrepaired_tag_order_fails_onto(self, vsigs):
        # frac first makes code 0 ask for a rat inside a rat forever
        plan = build_plan(vsigs["ratflip"])
        verdict = verify_onto(plan, "rat", None, EnumBudget.with_overrides(max_code=5))
        assert not verdict.passed
        assert verdict.checked == 0
        assert "code 0" in verdict.counterexample
        assert "FuelExhausted" in verdict.counterexample

    def test_failure_surfaces_in_report(self, vsigs):
        plan = build_plan(vsigs["ratflip"])
        budget = EnumBudget.with_overrides(
            max_size=4, max_code=5, per_class={("nat", "-"): (4, 5)}
        )
        report = verify_all(plan, budget)
        assert not report.passed
        failing = {row.type_name: row for row in report.classes if not row.passed}
        assert set(failing) == {"rat"}
        assert failing["rat"].counterexample is not None
        data = report.json_dict("x")
        rat_row = [r for r in data["classes"] if r["type"] == "rat"][0]
        assert "counterexample" in rat_row

    def test_ill_typed_decode_fails_onto_with_check_terms_message(self, plans):
        # natlist's tag 0 names s, a nat constructor, so code 1 decodes to
        # s z at natlist; encode's tests report it as check_term does
        plan = plans["natlist"]
        vsig = plan.vsig
        key = ("natlist", vsig.class_of("natlist", None))
        cp = plan.classes[key]
        assert cp.tags == ("natlist/+",)
        bad_cp = replace(cp, tags=("s",), steps=(("s", (0,), 0),))
        bad = CodecPlan(vsig, {**plan.classes, key: bad_cp})
        term = _decode(bad, "natlist", None, EMPTY_COUNTS, 1, [DEFAULT_FUEL], Lookups())
        assert term == Con("s", (), (TermArg(0, Con("z")),))
        with pytest.raises(TermError) as info:
            check_term(vsig, "natlist", None, EMPTY_COUNTS, term)
        assert str(info.value) == "constructor s constructs nat, expected natlist"
        budget = EnumBudget.with_overrides(max_code=50)
        verdict = verify_onto(bad, "natlist", None, budget)
        assert verdict == reference_onto(bad, "natlist", None, budget)
        assert verdict == Verdict(
            False, 1, f"code 1 decoded to an ill-typed term: {info.value}"
        )


def _refuse(*_):
    raise TermError("refused")


def _starve(*_):
    raise FuelExhausted()


def _counter():
    # 0, 1, 0, ...: bool has codes 0 and 1 only, and one-to-one decodes
    # each code it is given while the other half has stopped
    codes = itertools.cycle(range(2))
    return lambda *_: next(codes)


# the term-side verdicts, each reached through an encode, a decode or a
# read that misbehaves (a factory makes a fresh fake per run); bool's terms
# are true (code 0) and then false (code 1).  Every verifier encodes and
# decodes through _encode and _decode, and reads through _parse; the onto
# sweep's decode re-encodes each node by codec's _node_code, which encode's
# walk calls too
TERM_FAULTS = {
    "fails-to-encode": (
        "_encode", lambda: _refuse, verify_total_unique,
        (Verdict(False, 0, "term 'true' failed to encode: refused"), Verdict(True, 0)),
    ),
    "fails-to-encode-one-to-one": (
        "_encode", lambda: _refuse, verify_one_to_one,
        Verdict(False, 0, "term 'true' failed to encode: refused"),
    ),
    "variant-differs": (
        "_encode", _counter, verify_total_unique,
        (Verdict(True, 0), Verdict(False, 0, "variant 'true' encoded to 1, not 0")),
    ),
    "shared-code": (
        "_encode", lambda: lambda *_: 0, verify_one_to_one,
        Verdict(False, 1, "terms 'true' and 'false' share code 0"),
    ),
    "no-decode-back": (
        "_decode", lambda: _starve, verify_one_to_one,
        Verdict(False, 0, "code 0 of term 'true' did not decode back: FuelExhausted"),
    ),
    "no-round-trip": (
        "_decode", lambda: lambda *_: Con("false"), verify_one_to_one,
        Verdict(False, 0, "term 'true' did not round-trip"),
    ),
    "re-encodes-elsewhere": (
        "_node_code", lambda: lambda *_: 7, verify_onto,
        Verdict(False, 0, "code 0 decoded to a term that re-encodes to 7"),
    ),
    "variant-fails-to-read-back": (
        "_parse", lambda: _refuse, verify_total_unique,
        (Verdict(True, 0), Verdict(False, 0, "variant 'true' failed to read back: refused")),
    ),
}


def _owner(name):
    """The module whose function name a fault replaces."""
    return adequacy if hasattr(adequacy, name) else codec


@pytest.mark.parametrize("fault", sorted(TERM_FAULTS))
def test_term_side_failure_verdicts(plans, monkeypatch, fault):
    name, fake, verifier, expected = TERM_FAULTS[fault]
    monkeypatch.setattr(_owner(name), name, fake())
    assert verifier(plans["bool"], "bool", None, EnumBudget()) == expected


def test_a_term_that_fails_to_encode_is_reported_not_raised(plans, monkeypatch):
    monkeypatch.setattr(adequacy, "_encode", _refuse)
    report = verify_all(plans["bool"])
    assert not report.passed
    failed = Verdict(False, 0, "term 'true' failed to encode: refused")
    assert [(row.total, row.one_to_one) for row in report.classes] == [(failed, failed)]


def test_a_variant_that_fails_to_read_back_is_reported_not_raised(plans, monkeypatch):
    monkeypatch.setattr(adequacy, "_parse", _refuse)
    report = verify_all(plans["bool"])
    assert not report.passed
    failed = Verdict(False, 0, "variant 'true' failed to read back: refused")
    assert [(row.total.passed, row.unique) for row in report.classes] == [(True, failed)]


# every public entry point that takes a (type, index) checks it with class_of
TARGET_ENTRY_POINTS = {
    "class_of": lambda plan, t, i: plan.vsig.class_of(t, i),
    "class_plan": lambda plan, t, i: plan.class_plan(t, i),
    "enumerate_terms": lambda plan, t, i: enumerate_terms(plan.vsig, t, i, 2),
    "verify_onto": lambda plan, t, i: verify_onto(plan, t, i, EnumBudget()),
    "verify_total_unique": lambda plan, t, i: verify_total_unique(plan, t, i, EnumBudget()),
    "verify_one_to_one": lambda plan, t, i: verify_one_to_one(plan, t, i, EnumBudget()),
    "encode": lambda plan, t, i: encode(plan, t, i, EMPTY_COUNTS, Con("unit")),
    "decode": lambda plan, t, i: decode(plan, t, i, EMPTY_COUNTS, 0),
    "parse_term": lambda plan, t, i: parse_term(plan.vsig, t, i, "unit"),
    "check_term": lambda plan, t, i: check_term(plan.vsig, t, i, EMPTY_COUNTS, Con("unit")),
}


@pytest.mark.parametrize(
    "type_name, index, message",
    [
        ("nosuch", None, "unknown type 'nosuch'"),
        ("term", None, "type term requires a nonnegative index"),
        ("term", -1, "type term requires a nonnegative index"),
        ("nat", 0, "type nat takes no index"),
    ],
)
@pytest.mark.parametrize("entry", sorted(TARGET_ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_target(plans, entry, type_name, index, message):
    with pytest.raises(TermError) as info:
        TARGET_ENTRY_POINTS[entry](plans["termfam"], type_name, index)
    assert str(info.value) == message


def test_a_class_reports_its_first_failing_representative(plans, monkeypatch):
    # term[s] is checked at indices 1 and 2, and both fail here
    monkeypatch.setattr(
        adequacy, "verify_onto", lambda plan, t, index, budget: Verdict(False, index, f"at {index}")
    )
    report = verify_class(plans["termfam"], "term", S_CLASS, EnumBudget(max_size=2, max_code=4))
    assert report.onto == Verdict(False, 1, "at 1")
    assert report.total.passed and report.one_to_one.passed


def test_variants_avoid_constructor_names():
    # the u-variant of "lam [x] u0" must not bind u0 over the constant u0
    vsig = validate(parse_signature(sig_text("lambda") + "u0 : t. w0 : t."))
    total, unique = verify_total_unique(assign_tags(vsig), "t", None, EnumBudget(max_size=3))
    assert total == unique == Verdict(True, 13)


# ---------------------------------------------------------------------
# The enumerated pass against the two verifiers it replaced, kept here as
# they were: each enumerates the terms, and encodes each term, itself.


def reference_total_unique(plan, type_name, index, budget):
    vsig = plan.vsig
    label = vsig.class_of(type_name, index).label
    terms = enumerate_terms(vsig, type_name, index, budget.size_for(type_name, label))
    namers = [None, _variant_namer(vsig, "u"), _variant_namer(vsig, "w")]
    checked = 0
    for term in terms:
        try:
            code = encode(plan, type_name, index, EMPTY_COUNTS, term)
        except TermError as exc:
            shown = print_term(vsig, term, index=index)
            return (
                Verdict(False, checked, f"term {shown!r} failed to encode: {exc}"),
                Verdict(True, checked),
            )
        for namer in namers:
            shown = print_term(vsig, term, index=index, namer=namer)
            try:
                recoded = encode(
                    plan, type_name, index, EMPTY_COUNTS, parse_term(vsig, type_name, index, shown)
                )
            except TermError as exc:
                fault = f"variant {shown!r} failed to read back: {exc}"
            else:
                if recoded == code:
                    continue
                fault = f"variant {shown!r} encoded to {recoded}, not {code}"
            return Verdict(True, checked), Verdict(False, checked, fault)
        checked += 1
    return Verdict(True, checked), Verdict(True, checked)


def reference_one_to_one(plan, type_name, index, budget):
    vsig = plan.vsig
    label = vsig.class_of(type_name, index).label
    terms = enumerate_terms(vsig, type_name, index, budget.size_for(type_name, label))
    seen = {}
    checked = 0
    for term in terms:
        try:
            code = encode(plan, type_name, index, EMPTY_COUNTS, term)
        except TermError as exc:
            shown = print_term(vsig, term, index=index)
            return Verdict(False, checked, f"term {shown!r} failed to encode: {exc}")
        clash = seen.get(code)
        if clash is not None:
            a = print_term(vsig, clash, index=index)
            b = print_term(vsig, term, index=index)
            return Verdict(False, checked, f"terms {a!r} and {b!r} share code {code}")
        seen[code] = term
        try:
            back = decode(plan, type_name, index, EMPTY_COUNTS, code, budget.fuel)
        except FuelExhausted as exc:
            shown = print_term(vsig, term, index=index)
            return Verdict(
                False, checked,
                f"code {code} of term {shown!r} did not decode back:"
                f" {type(exc).__name__}",
            )
        if back != term:
            shown = print_term(vsig, term, index=index)
            return Verdict(False, checked, f"term {shown!r} did not round-trip")
        checked += 1
    return Verdict(True, checked)


def _every_index(plan):
    vsig = plan.vsig
    return [(d.name, i) for d in vsig.decls for _c, reps in vsig.class_reps(d.name) for i in reps]


def _pass_and_reference(plan, type_name, index, budget):
    return (
        (*verify_total_unique(plan, type_name, index, budget),
         verify_one_to_one(plan, type_name, index, budget)),
        (*reference_total_unique(plan, type_name, index, budget),
         reference_one_to_one(plan, type_name, index, budget)),
    )


# each fault's target in the pass, and the public call the references make;
# a fault in codec's arithmetic reaches the references through public encode
REFERENCE_TARGETS = {"_encode": "encode", "_decode": "decode", "_parse": "parse_term"}


class TestEnumeratedPass:
    @pytest.mark.parametrize("fault", sorted(TERM_FAULTS))
    def test_each_fault_gives_the_references_verdict(self, plans, monkeypatch, fault):
        name, fake, verifier, expected = TERM_FAULTS[fault]
        budget = EnumBudget()
        monkeypatch.setattr(_owner(name), name, fake())
        got = verifier(plans["bool"], "bool", None, budget)
        if name in REFERENCE_TARGETS:
            monkeypatch.undo()
            monkeypatch.setattr(sys.modules[__name__], REFERENCE_TARGETS[name], fake())
        reference = {verify_total_unique: reference_total_unique,
                     verify_one_to_one: reference_one_to_one, verify_onto: reference_onto}[verifier]
        assert got == reference(plans["bool"], "bool", None, budget) == expected

    @pytest.mark.parametrize("name", [*SIG_NAMES, "ratflip-unrepaired"])
    @pytest.mark.parametrize("budget", [EnumBudget(max_size=4), EnumBudget(max_size=5, fuel=6)],
                             ids=["size-4", "fuel-6"])
    def test_every_index_matches_the_references(self, name, budget):
        plan = _sweep_plan(name)
        for type_name, index in _every_index(plan):
            got, want = _pass_and_reference(plan, type_name, index, budget)
            assert got == want, (type_name, index)

    def test_one_to_one_fails_while_total_and_unique_run_on(self, plans):
        # lambda's tags keep their constructors but swap their steps, so
        # decode reads a lam's code as an app's, whose subterm codes loop
        plan = plans["lambda"]
        key = ("t", plan.vsig.class_of("t", None))
        cp = plan.classes[key]
        bad = CodecPlan(plan.vsig, {**plan.classes, key: replace(cp, steps=cp.steps[::-1])})
        budget = EnumBudget(max_size=5, fuel=1000)
        (total, unique, one), want = _pass_and_reference(bad, "t", None, budget)
        assert (total, unique, one) == want
        assert total == unique == Verdict(True, 20)
        assert one == Verdict(
            False, 0, "code 0 of term 'lam [x0] x0' did not decode back: FuelExhausted"
        )

    def test_unique_fails_while_one_to_one_runs_on(self, plans, monkeypatch):
        plan, budget = plans["lambda"], EnumBudget(max_size=5)
        monkeypatch.setattr(adequacy, "_parse", _refuse)
        got = (*verify_total_unique(plan, "t", None, budget),
               verify_one_to_one(plan, "t", None, budget))
        monkeypatch.setattr(sys.modules[__name__], "parse_term", _refuse)
        want = (*reference_total_unique(plan, "t", None, budget),
                reference_one_to_one(plan, "t", None, budget))
        assert got == want == (
            Verdict(True, 0),
            Verdict(False, 0, "variant 'lam [x0] x0' failed to read back: refused"),
            Verdict(True, 20),
        )

    def test_a_verify_all_enumerates_once_per_representative_index(self, plans, monkeypatch):
        calls = []

        def counted(vsig, type_name, index, max_size):
            calls.append((type_name, index))
            return enumerate_terms(vsig, type_name, index, max_size)

        monkeypatch.setattr(adequacy, "enumerate_terms", counted)
        plan = plans["termfam"]
        assert verify_all(plan, EnumBudget(max_size=3, max_code=20)).passed
        assert calls == _every_index(plan)


# ---------------------------------------------------------------------
# The onto sweep's memo against a sweep without one.


def reference_onto(plan, type_name, index, budget):
    """verify_onto as it is without a memo: per code, public decode, then
    check_term, then encode, each over the whole term."""
    vsig = plan.vsig
    top = budget.code_for(type_name, vsig.class_of(type_name, index).label)
    card = plan.class_plan(type_name, index).cardinality
    if not card.is_infinite:
        top = min(card.count, top)
    for code in range(top):
        try:
            term = decode(plan, type_name, index, EMPTY_COUNTS, code, DEFAULT_FUEL)
        except FuelExhausted as exc:
            return Verdict(False, code, f"code {code} did not decode: FuelExhausted: {exc}")
        try:
            check_term(vsig, type_name, index, EMPTY_COUNTS, term)
        except TermError as exc:
            return Verdict(False, code, f"code {code} decoded to an ill-typed term: {exc}")
        back = encode(plan, type_name, index, EMPTY_COUNTS, term)
        if back != code:
            return Verdict(
                False, code, f"code {code} decoded to a term that re-encodes to {back}"
            )
    return Verdict(True, top)


def _sweep_plan(name):
    if name == "wide":
        wide = Path(__file__).parent.parent / "perfbench" / "data" / "wide.sig"
        return assign_tags(validate(parse_signature(wide.read_text())))
    if name == "ratflip-unrepaired":
        # frac first: code 0 asks for a rat inside a rat forever
        return build_plan(validate(parse_signature(sig_text("ratflip"))))
    return assign_tags(validate(parse_signature(sig_text(name))))


class TestSweepMemo:
    @pytest.mark.parametrize("name", [*SIG_NAMES, "wide", "ratflip-unrepaired"])
    def test_onto_matches_a_sweep_without_memo(self, name):
        plan = _sweep_plan(name)
        vsig = plan.vsig
        # past one memo generation, so entries are promoted and dropped
        budget = EnumBudget(max_code=MEMO_GENERATION + 44)
        verdicts = []
        for decl in vsig.decls:
            for _cls, reps in vsig.class_reps(decl.name):
                for index in reps:
                    verdict = verify_onto(plan, decl.name, index, budget)
                    assert verdict == reference_onto(plan, decl.name, index, budget)
                    verdicts.append(verdict)
        assert sum(v.checked for v in verdicts) > 0
        assert all(v.passed for v in verdicts) == (name != "ratflip-unrepaired")

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_memo_hit_spends_the_fuel_of_its_subterm(self, plans, n):
        plan = plans["nat"]

        def outcome(fuel, memo):
            cell = [fuel]
            try:
                term = _decode(plan, "nat", None, EMPTY_COUNTS, n, cell, memo)
            except FuelExhausted as exc:
                return "FuelExhausted", str(exc), cell
            return term, cell

        # code n is n + 1 nodes deep, and its subterm code n - 1 is n deep
        for fuel in (n - 1, n, n + 1, n + 2):
            memo = _SweepMemo()
            _decode(plan, "nat", None, EMPTY_COUNTS, n - 1, [DEFAULT_FUEL], memo)
            assert outcome(fuel, memo) == outcome(fuel, Lookups())
        assert outcome(n, Lookups())[0] == "FuelExhausted"
        assert outcome(n + 1, Lookups())[-1] == [0]

    def test_memo_entries_are_per_context(self, plans):
        plan = plans["lambda"]
        one = EMPTY_COUNTS.extend("t", None)
        two = one.extend("t", None)
        x0 = Var("t", None, 0)
        term = Con("app", (), (TermArg(0, x0), TermArg(0, x0)))
        encoded, decoded = _SweepMemo(), _SweepMemo()
        for counts in (one, two, one):
            code = _encode(plan, "t", None, counts, term, encoded)
            assert code == encode(plan, "t", None, counts, term)
        with pytest.raises(TermError, match="out of scope"):
            _encode(plan, "t", None, EMPTY_COUNTS, term, encoded)
        for counts in (one, EMPTY_COUNTS, two, one):
            got = _decode(plan, "t", None, counts, 9, [DEFAULT_FUEL], decoded)
            assert got == decode(plan, "t", None, counts, 9)

    def test_memo_keeps_two_generations(self):
        memo = _SweepMemo()

        def get(key):  # as the codec reads the memo
            return memo.young.get(key) or memo.promote(key)

        for key in range(MEMO_GENERATION):
            memo[key] = key + 1
        assert get(0) == 1
        memo[MEMO_GENERATION] = 0  # young is full: it becomes old
        assert get(1) == 2  # promoted from old
        for key in range(MEMO_GENERATION + 1, 2 * MEMO_GENERATION + 2):
            memo[key] = key + 1
        assert len(memo.young) + len(memo.old) <= 2 * MEMO_GENERATION
        assert get(2) is None  # dropped with its generation
        assert get(1) == 2  # was promoted, so it survived one rotation


# The onto sweep re-encodes each node as decode builds it; planted faults
# that first show below the top node give the sweep without a memo's verdict.


def _replan(plan, type_name, **fields):
    """plan with the class plan of type_name (unindexed) changed."""
    key = (type_name, plan.vsig.class_of(type_name, None))
    return CodecPlan(plan.vsig, {**plan.classes, key: replace(plan.classes[key], **fields)})


def _reversed_steps(plan):
    """Per class with two tags or more, plan with that class's steps reversed:
    each tag decodes as another constructor while encode keeps the tags."""
    return [CodecPlan(plan.vsig, {**plan.classes, key: replace(cp, steps=cp.steps[::-1])})
            for key, cp in plan.classes.items() if len(cp.tags) > 1]


def _off_by_one_where(test):
    """A _node_code that adds 1 to the code of each node test picks by its
    step record and variable count."""
    real = codec._node_code
    return lambda step, v, ia, codes: real(step, v, ia, codes) + bool(test(step, v))


class TestPlantedFaults:
    BUDGET = EnumBudget(max_code=300, fuel=1000)

    def sweeps(self, plan):
        verdicts = []
        for type_name, index in _every_index(plan):
            verdict = verify_onto(plan, type_name, index, self.BUDGET)
            assert verdict == reference_onto(plan, type_name, index, self.BUDGET)
            verdicts.append(verdict)
        return verdicts

    @pytest.mark.parametrize("name", ["lambda", "termfam", "exists", "rat"])
    def test_reversed_steps(self, plans, name):
        faults = [v for bad in _reversed_steps(plans[name]) for v in self.sweeps(bad)
                  if not v.passed]
        # lambda's and rat's code 0 then loop; termfam's and exists' codes
        # also decode to terms that re-encode elsewhere
        assert faults and any("re-encodes to" in v.counterexample for v in faults) == (
            name in ("termfam", "exists"))

    def test_a_nat_tag_that_builds_a_natlist(self, plans):
        bad = _replan(plans["natlist"], "nat", tags=("natlist/+",),
                      steps=(("natlist/+", (0, 0), 0),))
        # natlist code 3 is natlist/+ holding nat code 1, built as a natlist
        with pytest.raises(TermError, match="^constructor natlist/.*, expected nat$"):
            _decode(bad, "natlist", None, EMPTY_COUNTS, 3, [DEFAULT_FUEL], _SweepMemo())
        assert self.sweeps(bad)[1] == Verdict(
            False, 3, "code 3 decoded to an ill-typed term:"
            " constructor natlist/+ constructs natlist, expected nat")

    def test_a_natlist_tag_that_builds_a_nat(self, plans):
        bad = _replan(plans["natlist"], "natlist", tags=("s",), steps=(("s", (0,), 0),))
        assert [v.passed for v in self.sweeps(bad)] == [True, False]

    def test_a_wrong_code_for_z(self, plans, monkeypatch):
        monkeypatch.setattr(codec, "_node_code", _off_by_one_where(
            lambda step, v: step[1] is not None and step[1].ctor_name == "z"))
        # natlist code 1 is natlist/+ z natlist/0: z, code 0, fails first
        with pytest.raises(TermError, match="^code 0 decoded to a node"):
            _decode(plans["natlist"], "natlist", None, EMPTY_COUNTS, 1, [DEFAULT_FUEL],
                    _SweepMemo())
        assert self.sweeps(plans["natlist"])[1] == Verdict(
            False, 1, "code 1 decoded to a term that re-encodes to 3")

    def test_a_wrong_code_for_app_under_a_binder(self, plans, monkeypatch):
        # every top node is closed, so only a subterm's code is wrong
        monkeypatch.setattr(codec, "_node_code", _off_by_one_where(
            lambda step, v: step[2] == 1 and v))
        assert self.sweeps(plans["lambda"]) == [
            Verdict(False, 4, "code 4 decoded to a term that re-encodes to 6")]


# The sweep's lookup context lives for one sweep and changes nothing it reads.


def _attributes(obj):
    """Each attribute of obj by identity and, for a container, its size."""
    return {
        name: (id(value), len(value) if hasattr(value, "__len__") else None)
        for name, value in vars(obj).items()
    }


class TestSweepContext:
    BUDGET = EnumBudget(max_size=4, max_code=MEMO_GENERATION + 44)

    @pytest.mark.parametrize("name", ["lambda", "termfam", "exists"])
    def test_a_second_sweep_reports_alike_and_leaves_no_state(self, name):
        plan = _sweep_plan(name)
        vsig = plan.vsig
        owners = (plan, vsig, vsig.analysis)
        before = [_attributes(o) for o in owners] + [dict(plan.classes), dict(vsig.layouts)]
        first = verify_all(plan, self.BUDGET)
        second = verify_all(plan, self.BUDGET)
        assert first.passed and first == second
        after = [_attributes(o) for o in owners] + [dict(plan.classes), dict(vsig.layouts)]
        assert after == before
        assert EMPTY_COUNTS == CountVector() and EMPTY_COUNTS._counts == {}
        assert EMPTY_COUNTS.key() == frozenset()

    def test_count_keys_agree_with_equality_after_a_sweep(self, plans):
        plan = plans["termfam"]
        a = EMPTY_COUNTS.extend("term", 1).extend("term", 2).extend("term", 1)
        b = EMPTY_COUNTS.extend("term", 2).extend("term", 1).extend("term", 1)
        c = EMPTY_COUNTS.extend("term", 1).extend("term", 2)
        decoded, encoded = _SweepMemo(), _SweepMemo()
        entries = []
        for counts in (a, b, c):
            for code in range(20):
                term = _decode(plan, "term", 1, counts, code, [DEFAULT_FUEL], decoded)
                assert _encode(plan, "term", 1, counts, term, encoded) == code
            entries.append(len(decoded.young) + len(decoded.old))
        assert a == b and hash(a) == hash(b) and a.key() == b.key()
        assert a != c and a.key() != c.key()
        # b found every node a decoded, and c, a different context, none
        assert entries[0] == entries[1] < entries[2] < MEMO_GENERATION

    def test_a_count_vector_equals_no_frozenset_or_dict(self):
        a = EMPTY_COUNTS.extend("t", None)
        for other in (a.key(), dict(a._counts), frozenset(), {}):
            assert a != other and other != a
            assert not a == other
        assert EMPTY_COUNTS != frozenset() and EMPTY_COUNTS != {}
        assert len({a, a.key()}) == 2 and len({EMPTY_COUNTS, frozenset()}) == 2
