"""The lookup contexts that public walks share: one per codec plan, one per
validated signature (termrep._in_context).  Shared by threads, left out
of copies, and dropped by a call that leaves one over its bound."""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading
import time
import tracemalloc

import pytest

from conftest import sig_text
from godelgen import codec, termrep
from godelgen.codec import CodecPlan, assign_tags, decode, encode
from godelgen.natcollections import TermSet
from godelgen.sigmodel import ValidatedSignature, parse_signature, validate
from godelgen.termrep import EMPTY_COUNTS, Lookups, check_term, parse_term, print_term


def _fresh_plan(name):
    """A plan and signature no other test has warmed."""
    return assign_tags(validate(parse_signature(sig_text(name))))


def _targets(seed):
    """Seeded (signature, type, index, code) round-trip targets."""
    rng = random.Random(seed)
    return ([("lambda", "t", None, rng.randrange(10**6)) for _ in range(12)]
            + [("termfam", "term", i, rng.randrange(10**4)) for i in range(4) for _ in range(3)]
            + [("termfam", "nat", None, rng.randrange(40)) for _ in range(3)])


def _round_trip(plans, targets, call_public):
    """Per target, its decoded term, text, code back and TermSet answer,
    through the public calls or, when call_public is false, through the
    private walks with a fresh Lookups per call."""
    out, sets = [], {}
    for name, type_name, index, code in targets:
        plan = plans[name]
        vsig = plan.vsig
        if call_public:
            term = decode(plan, type_name, index, EMPTY_COUNTS, code)
            text = print_term(vsig, term, index)
            back = parse_term(vsig, type_name, index, text)
            recoded = encode(plan, type_name, index, EMPTY_COUNTS, back)
            check_term(vsig, type_name, index, EMPTY_COUNTS, back)
        else:
            term = codec._decode(plan, type_name, index, EMPTY_COUNTS, code,
                                 [codec.DEFAULT_FUEL], Lookups())
            text = termrep._print(vsig, term, index, None, Lookups())
            back = termrep._parse(vsig, type_name, index, text, Lookups())
            recoded = codec._encode(plan, type_name, index, EMPTY_COUNTS, back, Lookups())
        key = (name, type_name, index)
        ts = sets.get(key) or TermSet(plan, type_name, index)
        sets[key] = ts.insert(back)
        out.append((term, text, back, recoded, sets[key].member(term)))
    return out, {key: ts.codes for key, ts in sets.items()}


@pytest.mark.parametrize("bound", [termrep.LOOKUPS_BOUND, 8])
def test_threads_share_a_plan(monkeypatch, bound):
    # a bound of 8 drops the contexts again and again while other threads walk in them
    monkeypatch.setattr(termrep, "LOOKUPS_BOUND", bound)
    plans = {"lambda": _fresh_plan("lambda"), "termfam": _fresh_plan("termfam")}
    seeds = range(4)  # four threads, more than the cores of a small machine
    expected = {s: _round_trip(plans, _targets(s), False) for s in seeds}
    results, errors = {}, []

    def work(seed):
        try:
            results[seed] = _round_trip(plans, _targets(seed), True)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    started = time.perf_counter()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert [t.is_alive() for t in threads] == [False] * len(threads)
    assert errors == []
    assert results == expected
    for seed, (out, _) in results.items():
        assert [row[3] for row in out] == [code for *_, code in _targets(seed)]
        assert all(row[4] for row in out)
    assert time.perf_counter() - started < 5


def _warm(plan):
    vsig = plan.vsig
    term = decode(plan, "t", None, EMPTY_COUNTS, 123_456)
    check_term(vsig, "t", None, EMPTY_COUNTS, term)
    parse_term(vsig, "t", None, print_term(vsig, term))
    assert isinstance(vars(plan)["_lookups"], Lookups)
    assert isinstance(vars(vsig)["_lookups"], Lookups)


COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("copier", COPIERS)
def test_copies_carry_no_context(copier):
    plan = _fresh_plan("lambda")
    vsig = plan.vsig
    reprs = (repr(plan), repr(vsig))
    _warm(plan)
    assert (repr(plan), repr(vsig)) == reprs  # the context is no field
    assert [f.name for f in dataclasses.fields(CodecPlan)] == ["vsig", "classes"]
    assert [f.name for f in dataclasses.fields(ValidatedSignature)] == [
        "sig", "analysis", "layouts", "abbrev_index"]
    assert "_lookups" not in vars(dataclasses.replace(plan))
    assert "_lookups" not in vars(dataclasses.replace(vsig))

    plan_copy, vsig_copy = COPIERS[copier](plan), COPIERS[copier](vsig)
    assert "_lookups" not in vars(plan_copy) and "_lookups" not in vars(vsig_copy)
    if copier != "copy":  # a shallow copy shares the original signature
        assert "_lookups" not in vars(plan_copy.vsig)
    codes = [0, 1, 7, 98_765, 10**40 + 3]
    terms = [decode(plan, "t", None, EMPTY_COUNTS, c) for c in codes]
    texts = [print_term(vsig, t) for t in terms]
    del plan, vsig
    gc.collect()  # ids of the originals' Vars may now be reused
    for code, term, text in zip(codes, terms, texts):
        for v in (plan_copy.vsig, vsig_copy):
            assert decode(plan_copy, "t", None, EMPTY_COUNTS, code) == term
            assert print_term(v, term) == text
            assert parse_term(v, "t", None, text) == term
            assert encode(plan_copy, "t", None, EMPTY_COUNTS, parse_term(v, "t", None, text)) == code


def test_a_deep_term_leaves_nothing_behind():
    # lam [x0] lam [x1] ... lam [x19999] x0: every walk of it passes the bound
    n = 20_000
    text = "".join(f"lam [x{i}] " for i in range(n)) + "x0"
    plan = _fresh_plan("lambda")
    vsig = plan.vsig

    def public():
        term = parse_term(vsig, "t", None, text)
        code = encode(plan, "t", None, EMPTY_COUNTS, term)
        back = decode(plan, "t", None, EMPTY_COUNTS, code)
        assert back == term and print_term(vsig, back) == text

    def per_call():  # each walk in its own context
        term = termrep._parse(vsig, "t", None, text, Lookups())
        code = codec._encode(plan, "t", None, EMPTY_COUNTS, term, Lookups())
        back = codec._decode(plan, "t", None, EMPTY_COUNTS, code, [codec.DEFAULT_FUEL], Lookups())
        assert back == term and termrep._print(vsig, back, None, None, Lookups()) == text

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # collections under tracemalloc add seconds; both runs are measured alike
    tracemalloc.start()
    try:
        peaks = []
        for run in (per_call, public):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            assert retained < 1 << 20, (run.__name__, retained)
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert peaks[1] <= 1.05 * peaks[0], peaks
    assert "_lookups" not in vars(plan) and "_lookups" not in vars(vsig)
