"""Bounded verification that a codec plan really is a bijection.

Four properties per (type, index class), checked against an
independent structural enumerator rather than the codec itself:
total (every term encodes), unique (alpha-variants and reprints
encode alike), onto (every code decodes to a well-typed term and
round-trips), and one-to-one (no two terms share a code).

Total, unique and one-to-one come from one pass over one enumeration
per index (_enumerated), which encodes each term once; onto sweeps the
codes, whose decodes re-encode each node as they build it.  Both call
the codec's loops and termrep's print and read cores directly, with
lookup contexts held for the whole pass or sweep; a _SweepMemo (a
termrep.Lookups with a bounded memo of the nodes already done) where
nodes recur.  Encode tests each node as check_term does.  Every decode
spends at most the budget's fuel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .codec import DEFAULT_FUEL, CodecPlan, _decode, _encode
from .errors import FuelExhausted, TermError
from .sigmodel import IndexClass, ValidatedSignature
from .termrep import (
    EMPTY_COUNTS,
    Con,
    Lookups,
    Term,
    TermArg,
    Var,
    _parse,
    _print,
    binder_name,
)

DEFAULT_MAX_SIZE = 6
DEFAULT_MAX_CODE = 10_000

# entries per generation of an onto sweep's memos
MEMO_GENERATION = 256


@dataclass(frozen=True)
class EnumBudget:
    """Bounds for the verification sweeps.

    per_class maps (type name, class label) pairs such as ("nat", "-")
    or ("term", "z") to (max_size, max_code) overrides for classes
    that need tighter or wider sweeps than the defaults.  fuel is the
    step budget of each decode the sweeps make.
    """

    max_size: int = DEFAULT_MAX_SIZE
    max_code: int = DEFAULT_MAX_CODE
    per_class: tuple[tuple[tuple[str, str], tuple[int, int]], ...] = ()
    fuel: int = DEFAULT_FUEL

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError("max_size must be at least 1")
        if self.max_code < 2:
            raise ValueError("max_code must be at least 2 (codes 0 and 1)")
        if self.fuel < 1:
            raise ValueError("fuel must be at least 1")
        for (_key, (size, code)) in self.per_class:
            if size < 1 or code < 2:
                raise ValueError("per_class overrides must keep max_size >= 1"
                                 " and max_code >= 2")

    @staticmethod
    def with_overrides(
        max_size: int = DEFAULT_MAX_SIZE,
        max_code: int = DEFAULT_MAX_CODE,
        per_class: dict[tuple[str, str], tuple[int, int]] | None = None,
    ) -> "EnumBudget":
        items = tuple(sorted((per_class or {}).items()))
        return EnumBudget(max_size, max_code, items)

    def size_for(self, type_name: str, label: str) -> int:
        for key, (size, _code) in self.per_class:
            if key == (type_name, label):
                return size
        return self.max_size

    def code_for(self, type_name: str, label: str) -> int:
        for key, (_size, code) in self.per_class:
            if key == (type_name, label):
                return code
        return self.max_code


@dataclass(frozen=True)
class Verdict:
    passed: bool
    checked: int
    counterexample: str | None = None


@dataclass(frozen=True)
class ClassReport:
    type_name: str
    index_class: str
    total: Verdict
    unique: Verdict
    onto: Verdict
    one_to_one: Verdict

    @property
    def passed(self) -> bool:
        return (self.total.passed and self.unique.passed
                and self.onto.passed and self.one_to_one.passed)

    @property
    def terms_checked(self) -> int:
        return self.total.checked

    @property
    def codes_checked(self) -> int:
        return self.onto.checked

    @property
    def counterexample(self) -> str | None:
        for verdict in (self.total, self.unique, self.onto, self.one_to_one):
            if not verdict.passed:
                return verdict.counterexample
        return None


@dataclass(frozen=True)
class AdequacyReport:
    classes: tuple[ClassReport, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.classes)

    def json_dict(self, signature: str) -> dict:
        rows = []
        for row in self.classes:
            entry = {
                "type": row.type_name,
                "index_class": row.index_class,
                "total": row.total.passed,
                "unique": row.unique.passed,
                "onto": row.onto.passed,
                "one_to_one": row.one_to_one.passed,
                "terms_checked": row.terms_checked,
                "codes_checked": row.codes_checked,
            }
            if row.counterexample is not None:
                entry["counterexample"] = row.counterexample
            rows.append(entry)
        return {"signature": signature, "classes": rows}


# ------------------------------------------------------------- enumerator


def enumerate_terms(
    vsig: ValidatedSignature, type_name: str, index: int | None, max_size: int
) -> list[Term]:
    """All closed well-typed terms of at most max_size nodes, smallest first.

    Purely structural: picks a constructor from the class graph and
    distributes the remaining size over its slots, so it never consults
    the codec.
    """
    memo: dict = {}
    out: list[Term] = []
    for size in range(1, max_size + 1):
        out.extend(_terms_at(vsig, type_name, index, size, EMPTY_COUNTS, memo))
    return out


def _terms_at(vsig, type_name, index, size, counts, memo):
    """The terms of exactly size nodes at (type, index) under these
    variable counts: a variable, or each constructor of the class's graph
    edges, in declaration order, over each split of the size left under
    it, with the first argument varying fastest."""
    key = (type_name, index, size, counts)
    found = memo.get(key)
    if found is not None:
        return found
    results: list[Term] = []
    if size == 1:
        for level in range(counts.get(type_name, index)):
            results.append(Var(type_name, index, level))
    for edge in vsig.analysis.graph[(type_name, vsig.class_of(type_name, index))].values():
        ctor = edge.ctor
        n_pi = len(ctor.pi_args)
        for split in _splits(size - 1, n_pi + len(ctor.args)):
            pi_values = tuple(part - 1 for part in split[:n_pi])
            columns = []
            for (arg_type, arg_index, keys), part in zip(
                vsig.arg_targets(ctor.name, index, pi_values), split[n_pi:]
            ):
                subs = _terms_at(vsig, arg_type, arg_index, part,
                                 counts.bind(keys) if keys else counts, memo)
                if not subs:
                    break
                columns.append([TermArg(len(keys), sub) for sub in subs])
            else:
                for args in product(*reversed(columns)):
                    results.append(Con(ctor.name, pi_values, args[::-1]))
    memo[key] = results
    return results


def _splits(total, parts):
    """Each tuple of parts positive sizes that sum to total, the first
    varying slowest: one per explicit index value (a value v takes v + 1)
    and one per argument."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:  # not through combinations, which copies range(1, total)
        return [(total,)] if total > 0 else []
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))
            for cuts in combinations(range(1, total), parts - 1)]


# -------------------------------------------------------------- verifiers


def _variant_namer(vsig: ValidatedSignature, stem: str):
    return lambda _type, _index, _level, ordinal: binder_name(vsig, f"{stem}{ordinal}")


def verify_total_unique(
    plan: CodecPlan, type_name: str, index: int | None, budget: EnumBudget
) -> tuple[Verdict, Verdict]:
    """Every enumerated term encodes, and every rendering of it reads back
    to the same code; a rendering that fails to read back fails unique."""
    return _enumerated(plan, type_name, index, budget)[:2]


def verify_one_to_one(
    plan: CodecPlan, type_name: str, index: int | None, budget: EnumBudget
) -> Verdict:
    """Distinct terms take distinct codes, and decode inverts encode."""
    return _enumerated(plan, type_name, index, budget)[2]


def _enumerated(plan, type_name, index, budget) -> tuple[Verdict, Verdict, Verdict]:
    """The total, unique and one-to-one verdicts at one index, from one
    walk over enumerate_terms that encodes each term once.  Its two halves,
    total with unique and one-to-one, each stop at their own first fault;
    a term that fails to encode stops both.  The terms' encodes share a
    _SweepMemo, as the enumerator shares their subterms; the variants'
    encodes (their nodes are fresh), decodes, prints and reads, a Lookups."""
    vsig = plan.vsig
    label = vsig.class_of(type_name, index).label
    terms = enumerate_terms(vsig, type_name, index, budget.size_for(type_name, label))
    namers = [None, _variant_namer(vsig, "u"), _variant_namer(vsig, "w")]
    encoded, ctx, seen = _SweepMemo(), Lookups(), {}
    show = lambda term, namer=None: _print(vsig, term, index, namer, ctx)

    def unique_fault(term, code):
        for namer in namers:
            shown = show(term, namer)
            try:
                back = _parse(vsig, type_name, index, shown, ctx)
                recoded = _encode(plan, type_name, index, EMPTY_COUNTS, back, ctx)
            except TermError as exc:
                return 1, f"variant {shown!r} failed to read back: {exc}"
            if recoded != code:
                return 1, f"variant {shown!r} encoded to {recoded}, not {code}"
        return None

    def one_to_one_fault(term, code):
        clash = seen.get(code)
        if clash is not None:
            return 2, f"terms {show(clash)!r} and {show(term)!r} share code {code}"
        seen[code] = term
        try:
            back = _decode(plan, type_name, index, EMPTY_COUNTS, code, [budget.fuel], ctx)
        except FuelExhausted as exc:
            shown, why = show(term), type(exc).__name__
            return 2, f"code {code} of term {shown!r} did not decode back: {why}"
        return None if back == term else (2, f"term {show(term)!r} did not round-trip")

    # per half, the terms it passed, and once it stops, its failing verdict's
    # position in the result (total 0, unique 1, one-to-one 2) and message
    passed, faults = [0, 0], [None, None]
    for term in terms:
        if faults[0] and faults[1]:
            break
        try:
            code = _encode(plan, type_name, index, EMPTY_COUNTS, term, encoded)
        except TermError as exc:
            fault = f"term {show(term)!r} failed to encode: {exc}"
            faults = [f or (at, fault) for f, at in zip(faults, (0, 2))]
            break
        faults = [faults[0] or unique_fault(term, code), faults[1] or one_to_one_fault(term, code)]
        passed = [n + (not f) for n, f in zip(passed, faults)]
    verdicts = [Verdict(True, passed[0]), Verdict(True, passed[0]), Verdict(True, passed[1])]
    for n, fault in zip(passed, faults):
        if fault:
            verdicts[fault[0]] = Verdict(False, n, fault[1])
    return tuple(verdicts)


class _SweepMemo(Lookups):
    """A lookup context kept for a whole sweep (an onto sweep's decodes,
    or the terms' encodes in _enumerated), since every code or term
    looks the same things up again, plus a memo of the nodes already done.
    The memo is bounded, in two generations: a hit in the old one moves the
    entry to the young one, and a full young generation becomes the old
    one, dropping the previous old one."""

    __slots__ = ("young", "old")
    memoizes = True

    def __init__(self) -> None:
        super().__init__()
        self.young, self.old = {}, {}

    def promote(self, key):
        """key's value in the old generation, moved to the young one, or None."""
        value = self.old.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def __setitem__(self, key, value) -> None:
        if len(self.young) >= MEMO_GENERATION:
            self.old, self.young = self.young, {}
        self.young[key] = value


def verify_onto(
    plan: CodecPlan,
    type_name: str,
    index: int | None,
    budget: EnumBudget,
) -> Verdict:
    """Every code up to the budget decodes to a well-typed term that round-trips.

    The decodes share a _SweepMemo, which does a subterm shared by many
    codes (code n - 1 in nat code n) once, and under which decode
    re-encodes each node it builds (codec._decode).  A code that fails
    there runs again as public decode, then encode, for the verdict: the
    first failing code is reported."""
    cp = plan.class_plan(type_name, index)
    codes = cp.cardinality.codes_below(budget.code_for(type_name, cp.index_class.label))
    ctx = _SweepMemo()
    for code in codes:
        try:
            _decode(plan, type_name, index, EMPTY_COUNTS, code, [budget.fuel], ctx)
            continue
        except (FuelExhausted, TermError):
            pass  # decode, then encode, may meet another fault first
        try:
            term = _decode(plan, type_name, index, EMPTY_COUNTS, code, [budget.fuel], Lookups())
        except FuelExhausted as exc:
            return Verdict(False, code, f"code {code} did not decode: {type(exc).__name__}: {exc}")
        try:  # encode tests each node as check_term does, with its messages
            back = _encode(plan, type_name, index, EMPTY_COUNTS, term, Lookups())
        except TermError as exc:
            return Verdict(False, code, f"code {code} decoded to an ill-typed term: {exc}")
        if back != code:
            return Verdict(False, code, f"code {code} decoded to a term that re-encodes to {back}")
    return Verdict(True, len(codes))


def _merge(a: Verdict, b: Verdict) -> Verdict:
    """a if it failed, else b counting a's checks too."""
    return a if not a.passed else Verdict(b.passed, a.checked + b.checked, b.counterexample)


def verify_class(
    plan: CodecPlan,
    type_name: str,
    cls: IndexClass,
    budget: EnumBudget,
) -> ClassReport:
    """Run all four verifiers at every representative index of a class."""
    vsig = plan.vsig
    reps = [r for c, rs in vsig.class_reps(type_name) if c == cls for r in rs]
    total = unique = onto = one = Verdict(True, 0)
    for index in reps:
        t, u, o = _enumerated(plan, type_name, index, budget)
        total, unique = _merge(total, t), _merge(unique, u)
        onto = _merge(onto, verify_onto(plan, type_name, index, budget))
        one = _merge(one, o)
    return ClassReport(type_name, cls.label, total, unique, onto, one)


def verify_all(plan: CodecPlan, budget: EnumBudget | None = None) -> AdequacyReport:
    """Verify every class of every type; deterministic given the budget."""
    budget, vsig = budget or EnumBudget(), plan.vsig
    started = time.perf_counter()
    rows = []
    for decl in vsig.decls:
        for cls in vsig.classes(decl.name):
            rows.append(verify_class(plan, decl.name, cls, budget))
    return AdequacyReport(tuple(rows), time.perf_counter() - started)
