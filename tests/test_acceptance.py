"""Acceptance gate: one test per required behavior, at its stated bound.

Each test is independent and states its tolerance (time limits, sweep
ranges) inline; `pytest -v tests/test_acceptance.py` reports one
pass/fail line per requirement.
"""

import random
import time

import numpy as np
import pytest

from conftest import sig_text
from godelgen.adequacy import EnumBudget, enumerate_terms, verify_all, verify_onto
from godelgen.bignat import mingle, unmingle
from godelgen.codec import build_plan, decode_closed, encode_closed
from godelgen.errors import SigValidationError
from godelgen.natcollections import GapSet, TermSet
from godelgen.sigmodel import parse_signature, validate
from godelgen.termrep import Con, TermArg, parse_term, print_term, term_size


def _nat_term(n):
    term = Con("z", (), ())
    for _ in range(n):
        term = Con("s", (), (TermArg(0, term),))
    return term


# ---------------------------------------------------------------------
# 1. Bit interleaving: the 4x4 table, and the inverse on every pair
#    below 4096, in under a second.


# (shift, mask) steps that spread 16 bits to the even bit positions, and
# back; each step works in place (out=), so no step allocates an array
_SPREAD = ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555))
_COMPACT = ((1, 0x33333333), (2, 0x0F0F0F0F), (4, 0x00FF00FF), (8, 0x0000FFFF))


def _spread_cols(x):
    x, scratch = x.copy(), np.empty_like(x)
    for shift, mask in _SPREAD:
        np.left_shift(x, np.uint32(shift), out=scratch)
        x |= scratch
        x &= np.uint32(mask)
    return x


def _compact_cols(x, out, scratch):
    """The even bits of each cell of x, packed low, written to out."""
    np.bitwise_and(x, np.uint32(0x55555555), out=out)
    for shift, mask in _COMPACT:
        np.right_shift(out, np.uint32(shift), out=scratch)
        out |= scratch
        out &= np.uint32(mask)
    return out


def test_interleave_table_and_exhaustive_inverse_below_4096():
    started = time.perf_counter()

    table = [[mingle(a, b) for b in range(4)] for a in range(4)]
    assert table == [
        [0, 1, 4, 5],
        [2, 3, 6, 7],
        [8, 9, 12, 13],
        [10, 11, 14, 15],
    ]

    # scalar implementation, exhaustive on every pair below 256
    for a in range(256):
        for b in range(256):
            assert unmingle(mingle(a, b)) == (a, b)

    # every pair below 4096, via an independent bit-twiddling oracle,
    # inverted 32 rows at a time so the work stays in cache
    a = np.arange(4096, dtype=np.uint32)[:, None]
    b = np.arange(4096, dtype=np.uint32)[None, :]
    codes = (_spread_cols(a) << np.uint32(1)) | _spread_cols(b)
    assert codes.dtype == np.uint32
    out, scratch = np.empty((32, 4096), np.uint32), np.empty((32, 4096), np.uint32)
    for i in range(0, 4096, 32):
        rows = codes[i:i + 32]
        np.right_shift(rows, np.uint32(1), out=out)
        odd = _compact_cols(out, out, scratch)
        assert np.array_equal(odd, np.broadcast_to(a[i:i + 32], rows.shape))
        assert np.array_equal(_compact_cols(rows, out, scratch), np.broadcast_to(b, rows.shape))
    # the oracle and the implementation agree on a spread of samples
    rng = random.Random(1)
    for _ in range(2000):
        x, y = rng.randrange(4096), rng.randrange(4096)
        assert mingle(x, y) == int(codes[x, y])

    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------
# 2. Gap-form sets: the worked figures, in both directions.

GAP_FIGURES = [
    ((), ()),
    ((0,), (0,)),
    ((3,), (3,)),
    ((0, 5), (0, 4)),
    ((1, 5), (1, 3)),
    ((2, 5), (2, 2)),
    ((4, 5), (4, 0)),
    ((0, 2, 4), (0, 1, 1)),
    ((2, 3, 4), (2, 0, 0)),
    ((4, 11, 96), (4, 6, 84)),
]


def test_gap_set_figures_convert_both_ways():
    for elements, gaps in GAP_FIGURES:
        assert GapSet.from_elements(elements).gaps == gaps
        assert GapSet(gaps).elements() == elements


# ---------------------------------------------------------------------
# 3. Arithmetic classes follow their structural formulas.


def test_whole_number_codes_double(plans):
    plan = plans["rat"]
    for n in range(101):
        whole = Con("whole", (), (TermArg(0, _nat_term(n)),))
        assert encode_closed(plan, "rat", None, whole) == 2 * n


def test_list_codes_follow_cons_formula(plans):
    plan = plans["natlist"]
    rng = random.Random(3)

    def build(values):
        if not values:
            return Con("natlist/0", (), ()), 0
        head, tail = values[0], values[1:]
        tail_term, tail_code = build(tail)
        term = Con(
            "natlist/+", (), (TermArg(0, _nat_term(head)), TermArg(0, tail_term))
        )
        return term, 1 + mingle(head, tail_code)

    for _ in range(200):
        values = [rng.randrange(50) for _ in range(rng.randrange(9))]
        term, expected = build(values)
        assert encode_closed(plan, "natlist", None, term) == expected


def test_unary_numbers_code_as_themselves(plans):
    plan = plans["nat"]
    term = Con("z", (), ())
    for n in range(1025):
        assert encode_closed(plan, "nat", None, term) == n
        assert decode_closed(plan, "nat", None, n) == term
        term = Con("s", (), (TermArg(0, term),))


# ---------------------------------------------------------------------
# 4. Untyped lambda terms: full verification to size 6 and code
#    10000, plus the anchor codes, in under 30 seconds.


def test_lambda_verifies_and_matches_anchors(vsigs, plans):
    started = time.perf_counter()
    vsig, plan = vsigs["lambda"], plans["lambda"]

    report = verify_all(plan, EnumBudget(max_size=6, max_code=10_000))
    assert report.passed
    (row,) = report.classes
    assert row.terms_checked == 62
    assert row.codes_checked == 10_000

    identity = parse_term(vsig, "t", None, "lam [x] x")
    assert encode_closed(plan, "t", None, identity) == 0
    decoded = decode_closed(plan, "t", None, 1)
    assert print_term(vsig, decoded) == "app (lam [x0] x0) (lam [x0] x0)"

    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------
# 5. An indexed family: verification at indices 0, 1 and 2 with the
#    full code sweep, plus anchors, in under 60 seconds.


def test_indexed_family_verifies_at_three_indices(vsigs, plans):
    started = time.perf_counter()
    vsig, plan = vsigs["termfam"], plans["termfam"]

    # the nat support type decodes one node per step, so its sweep is
    # shortened; both term classes keep the full ten thousand codes
    budget = EnumBudget.with_overrides(
        max_size=6, max_code=10_000, per_class={("nat", "-"): (6, 700)}
    )
    report = verify_all(plan, budget)
    assert report.passed
    rows = {row.index_class: row for row in report.classes}
    assert rows["z"].codes_checked == 10_000  # index 0
    assert rows["s"].codes_checked == 20_000  # indices 1 and 2

    assert encode_closed(plan, "term", 0, parse_term(vsig, "term", 0, "unit")) == 0
    recursor = parse_term(vsig, "term", 0, "rec [f] f")
    assert encode_closed(plan, "term", 0, recursor) == 2

    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------
# 6. Declaration-order tags on the flipped signature loop at code 0;
#    the tag search repairs them and reproduces the original codes.


def test_reversed_tags_fail_and_the_search_recovers(vsigs, plans):
    unrepaired = build_plan(vsigs["ratflip"])
    verdict = verify_onto(
        unrepaired, "rat", None, EnumBudget.with_overrides(max_code=10)
    )
    assert not verdict.passed
    assert verdict.checked == 0
    assert "code 0" in verdict.counterexample
    assert "FuelExhausted" in verdict.counterexample

    repaired = plans["ratflip"]
    assert repaired.class_plan("rat", None).tags == ("whole", "frac")
    assert verify_onto(
        repaired, "rat", None, EnumBudget.with_overrides(max_code=300)
    ).passed
    straight = plans["rat"]
    for code in range(300):
        a = print_term(vsigs["ratflip"], decode_closed(repaired, "rat", None, code))
        b = print_term(vsigs["rat"], decode_closed(straight, "rat", None, code))
        assert a == b


# ---------------------------------------------------------------------
# 7. Shapes outside the supported fragment are rejected, each under
#    its own rule.


def _rules_of(text):
    with pytest.raises(SigValidationError) as caught:
        validate(parse_signature(text))
    return {d.rule for d in caught.value.diagnostics}


def test_nonuniform_family_is_rejected():
    rules = _rules_of(
        sig_text("termfam")
        + """
        actuals : nat -> type.
        actuals/0 : actuals z.
        actuals/+ : term z -> actuals N -> actuals (s N).
        """
    )
    assert rules == {"uniform"}


def test_binder_over_finite_type_is_rejected():
    rules = _rules_of(
        "b : type. tt : b. ff : b. w : type. wz : w. mk : (b -> w) -> w."
    )
    assert "finite-binder" in rules


def test_multi_index_relation_is_rejected():
    rules = _rules_of(
        sig_text("nat")
        + """
        plus : nat -> nat -> nat -> type.
        plus/z : plus z Y Y.
        plus/s : plus (s X) Y (s Z) <- plus X Y Z.
        """
    )
    assert rules == {"single-index"}


# ---------------------------------------------------------------------
# 8. Codes ignore bound-variable names: renamings collapse.


def test_five_hundred_terms_keep_their_codes_under_renaming(vsigs, plans):
    vsig, plan = vsigs["lambda"], plans["lambda"]
    terms = enumerate_terms(vsig, "t", None, 8)[:500]
    assert len(terms) == 500
    rng = random.Random(9)
    for term in terms:
        code = encode_closed(plan, "t", None, term)
        for stem in ("u", "fresh", f"r{rng.randrange(1000)}x"):
            namer = lambda _t, _i, _l, ordinal, s=stem: f"{s}{ordinal}"
            renamed = print_term(vsig, term, namer=namer)
            reparsed = parse_term(vsig, "t", None, renamed)
            assert encode_closed(plan, "t", None, reparsed) == code


def test_term_set_collapses_variants_to_three_elements(vsigs, plans):
    vsig, plan = vsigs["lambda"], plans["lambda"]
    bases = [
        parse_term(vsig, "t", None, s)
        for s in (
            "lam [x] x",
            "lam [x] lam [y] app x y",
            "app (lam [x] x) (lam [x] lam [y] y)",
        )
    ]
    ts = TermSet(plan, "t")
    for i in range(100):
        namer = lambda _t, _ix, _l, ordinal, i=i: f"v{i}n{ordinal}"
        variant = print_term(vsig, bases[i % 3], namer=namer)
        ts = ts.insert(parse_term(vsig, "t", None, variant))
    assert ts.size() == 3


# ---------------------------------------------------------------------
# 9. The first two hundred codes decode to exactly the structurally
#    enumerated terms (whole classes where sizes stay bounded, else
#    compared inside a size window both ways).

FULL_SWEEPS = [("nat", "nat", None, 201), ("bool", "bool", None, 3),
               ("mixed", "bool", None, 3)]
WINDOWED_SWEEPS = [("natlist", "natlist", None), ("rat", "rat", None),
                   ("ratflip", "rat", None), ("lambda", "t", None),
                   ("termfam", "term", 0), ("termfam", "term", 1),
                   ("exists", "term", 0), ("mixed", "tree", None)]


@pytest.mark.parametrize("name,type_name,index,max_size", FULL_SWEEPS)
def test_decoded_prefix_is_the_whole_enumeration(
    vsigs, plans, name, type_name, index, max_size
):
    vsig, plan = vsigs[name], plans[name]
    card = plan.class_plan(type_name, index).cardinality
    top = 200 if card.is_infinite else min(200, card.count)
    decoded = {
        print_term(vsig, decode_closed(plan, type_name, index, n), index=index)
        for n in range(top)
    }
    enumerated = {
        print_term(vsig, t, index=index)
        for t in enumerate_terms(vsig, type_name, index, max_size)
        if encode_closed(plan, type_name, index, t) < top
    }
    assert decoded == enumerated
    assert len(decoded) == top


@pytest.mark.parametrize("name,type_name,index", WINDOWED_SWEEPS)
def test_decoded_prefix_matches_enumeration_in_window(
    vsigs, plans, name, type_name, index
):
    vsig, plan = vsigs[name], plans[name]
    window = 6
    decoded = {
        print_term(vsig, term, index=index)
        for term in (
            decode_closed(plan, type_name, index, n) for n in range(200)
        )
        if term_size(term) <= window
    }
    enumerated = {
        print_term(vsig, t, index=index)
        for t in enumerate_terms(vsig, type_name, index, window)
        if encode_closed(plan, type_name, index, t) < 200
    }
    assert decoded == enumerated
    assert decoded  # the window is wide enough to be meaningful
