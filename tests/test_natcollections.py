"""Tests for gap-form sets and maps of naturals and of coded terms."""

import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from godelgen.codec import DEFAULT_FUEL, decode_closed
from godelgen.errors import FuelExhausted
from godelgen.natcollections import (
    GapMap,
    GapSet,
    TermMap,
    TermSet,
    parse_set_literal,
    set_literal,
)
from godelgen.termrep import parse_term, print_term

# each pair is (elements, gap sequence) for the same set
FIGURES = [
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

elements_lists = st.lists(st.integers(min_value=0, max_value=120), max_size=30)
# small naturals, so that operations meet, and a few huge ones
naturals = st.one_of(st.integers(0, 60), st.integers(10**100, 10**100 + 3))


class TestGapForm:
    @pytest.mark.parametrize("elements,gaps", FIGURES)
    def test_elements_to_gaps(self, elements, gaps):
        assert GapSet.from_elements(elements).gaps == gaps

    @pytest.mark.parametrize("elements,gaps", FIGURES)
    def test_gaps_to_elements(self, elements, gaps):
        assert GapSet(gaps).elements() == elements

    def test_every_subset_of_ten_round_trips(self):
        for n in range(1024):
            elements = tuple(i for i in range(10) if n >> i & 1)
            s = GapSet.from_elements(elements)
            assert s.elements() == elements
            assert s.size() == len(elements)
            assert all(s.member(e) for e in elements)
            assert not any(s.member(x) for x in range(10) if x not in elements)

    def test_every_gap_sequence_denotes_a_set(self):
        # canonical form doubles as the representation: nothing to reject
        for length in range(5):
            for gaps in itertools.product(range(5), repeat=length):
                s = GapSet(gaps)
                assert GapSet.from_elements(s.elements()) == s

    def test_duplicates_collapse_and_order_is_ignored(self):
        assert GapSet.from_elements([5, 0, 5, 0, 3]) == GapSet.from_elements([0, 3, 5])

    def test_rejects_negative_elements(self):
        # anything but an int of at least 0, at every entry point
        for bad in [-1, -2, 2.5, 1.5, "a", True, None, (1,)]:
            for make in (
                lambda: GapSet.from_elements([3, bad]),
                lambda: GapSet.from_elements([bad]),
                lambda: GapSet().insert(bad),
                lambda: GapSet.from_elements([4, 11]).insert(bad),
            ):
                with pytest.raises(ValueError, match="^set elements must be naturals$"):
                    make()

    def test_rejects_gaps_that_are_not_naturals(self):
        # a negative or non-int gap denotes no set; GapMap's keys are a GapSet
        for make in (
            lambda: GapSet((5, -3)),
            lambda: GapSet((1.5,)),
            lambda: GapSet((True,)),
            lambda: GapSet([0, "a"]),
            lambda: GapMap(((-1, "a"),)),
            lambda: GapMap(((2, "a"), (0.0, "b"))),
        ):
            with pytest.raises(ValueError, match="^set gaps must be naturals$"):
                make()
        for gaps in [(), (0,), (5, 3), (0, 0, 0), (10**100, 0)]:
            assert GapSet(gaps).gaps == gaps
            assert GapSet.from_elements(GapSet(gaps).elements()) == GapSet(gaps)
            assert GapMap(tuple((g, None) for g in gaps)).keys() == GapSet(gaps)

    def test_lists_are_stored_as_tuples(self):
        s = GapSet([3, 1])
        assert s == GapSet((3, 1)) and s.gaps == (3, 1)
        assert hash(s) == hash(GapSet((3, 1)))
        assert s.insert(0).gaps == (0, 2, 1) and s.remove(3).gaps == (5,)
        m = GapMap([[2, "x"], (0, "y")])
        assert m == GapMap(((2, "x"), (0, "y"))) and hash(m) == hash(GapMap(m.entries))
        assert m.insert(0, "z").entries == ((0, "z"), (1, "x"), (0, "y"))

    def test_derived_elements_stay_out_of_equality_and_repr(self):
        s = GapSet.from_elements([4, 11, 96])
        built = GapSet().insert(96).insert(4).insert(11)
        assert repr(s) == repr(built) == "GapSet(gaps=(4, 6, 84))"
        assert s == built == GapSet((4, 6, 84))
        assert hash(s) == hash(built) == hash(GapSet((4, 6, 84)))
        assert repr(GapMap.from_items([(4, "a")])) == "GapMap(entries=((4, 'a'),))"

    @given(elements_lists)
    def test_from_elements_matches_python_set(self, xs):
        s = GapSet.from_elements(xs)
        assert s.elements() == tuple(sorted(set(xs)))
        assert s.size() == len(set(xs))


class TestSetOps:
    def test_insert_into_empty(self):
        assert GapSet().insert(5).gaps == (5,)

    def test_insert_between(self):
        assert GapSet((0, 4)).insert(1).gaps == (0, 0, 3)

    def test_insert_existing_is_identity(self):
        s = GapSet((0, 4))
        assert s.insert(5) == s

    def test_remove_middle(self):
        assert GapSet((2, 0, 0)).remove(3).gaps == (2, 1)

    def test_remove_absent_is_identity(self):
        s = GapSet((2, 0, 0))
        assert s.remove(7) == s

    def test_member(self):
        s = GapSet((1, 3))
        assert s.member(5) and not s.member(4)
        assert 5 in s and 4 not in s

    def test_union_example(self):
        assert GapSet((0, 4)).union(GapSet((1, 3))).gaps == (0, 0, 3)

    def test_intersection_example(self):
        assert GapSet((0, 4)).intersection(GapSet((1, 3))).gaps == (5,)

    def test_difference_example(self):
        assert GapSet((0, 4)).difference(GapSet((1, 3))).gaps == (0,)

    def test_subset(self):
        assert GapSet((5,)).subset(GapSet((0, 4)))
        assert not GapSet((4,)).subset(GapSet((0, 4)))
        assert GapSet().subset(GapSet())

    def test_huge_elements_stay_cheap(self):
        # linear in the number of elements, not their magnitude
        big = 10**100
        s = GapSet.from_elements([big, big + 7])
        assert s.gaps == (big, 6)
        assert s.member(big + 7)
        assert s.union(GapSet((0,))).size() == 3

    @given(elements_lists, elements_lists)
    def test_ops_match_python_sets(self, xs, ys):
        a, b = GapSet.from_elements(xs), GapSet.from_elements(ys)
        sa, sb = set(xs), set(ys)
        assert a.union(b).elements() == tuple(sorted(sa | sb))
        assert a.intersection(b).elements() == tuple(sorted(sa & sb))
        assert a.difference(b).elements() == tuple(sorted(sa - sb))
        assert a.subset(b) == (sa <= sb)

    @given(st.lists(st.tuples(st.sampled_from(["insert", "remove", "member"]), naturals)))
    def test_op_sequences_match_python_set(self, ops):
        # insert and remove splice the gaps and elements they touch
        s, ref = GapSet(), set()
        for op, x in ops:
            if op == "insert":
                s, _ = s.insert(x), ref.add(x)
            elif op == "remove":
                s, _ = s.remove(x), ref.discard(x)
            else:
                assert s.member(x) == (x in ref) == (x in s)
            assert s.elements() == tuple(sorted(ref)) == GapSet(s.gaps).elements()
            assert s == GapSet.from_elements(ref) and s.size() == len(ref)

    def test_eight_thousand_inserts_and_members_are_fast(self):
        xs = random.Random(15).sample(range(10**6), 8000)
        t0 = time.perf_counter()
        s = GapSet()
        for x in xs:
            s = s.insert(x)
        assert all(s.member(x) for x in xs)
        spent = time.perf_counter() - t0
        assert s.elements() == tuple(sorted(xs))
        assert spent < 3.0, f"8,000 inserts and members took {spent:.2f} s"

    def test_algebraic_laws_on_random_sets(self):
        rng = random.Random(20260823)
        for _ in range(200):
            a = GapSet.from_elements(rng.sample(range(40), rng.randrange(12)))
            b = GapSet.from_elements(rng.sample(range(40), rng.randrange(12)))
            c = GapSet.from_elements(rng.sample(range(40), rng.randrange(12)))
            assert a.union(b) == b.union(a)
            assert a.intersection(b) == b.intersection(a)
            assert a.union(a) == a and a.intersection(a) == a
            assert a.union(b.union(c)) == a.union(b).union(c)
            assert a.intersection(b.intersection(c)) == a.intersection(b).intersection(c)
            assert a.difference(b).subset(a)
            assert a.union(b).size() + a.intersection(b).size() == a.size() + b.size()


class TestLiterals:
    def test_parse(self):
        assert parse_set_literal("{4,11,96}").gaps == (4, 6, 84)
        assert parse_set_literal("{}") == GapSet()
        assert parse_set_literal(" { 3 , 1 } ").elements() == (1, 3)

    def test_format(self):
        assert set_literal(GapSet((4, 6, 84))) == "{4,11,96}"
        assert set_literal(GapSet()) == "{}"
        assert str(GapSet((4, 6, 84))) == "[4,6,84]"

    @pytest.mark.parametrize("bad", ["4,11", "{4;11}", "{x}", "{-1}"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_set_literal(bad)


class TestGapMap:
    def test_insert_lookup(self):
        m = GapMap().insert(5, "five").insert(0, "zero")
        assert m.lookup(5) == "five"
        assert m.lookup(0) == "zero"
        assert m.lookup(3) is None
        assert m.lookup(3, "absent") == "absent"

    def test_insert_replaces(self):
        m = GapMap().insert(4, "a").insert(4, "b")
        assert m.size() == 1
        assert m.lookup(4) == "b"

    def test_remove(self):
        m = GapMap.from_items([(2, "x"), (3, "y"), (4, "z")])
        assert m.remove(3).items() == ((2, "x"), (4, "z"))
        assert m.remove(9) == m

    def test_keys_share_the_set_representation(self):
        keys = [4, 11, 96]
        m = GapMap.from_items((k, str(k)) for k in keys)
        assert m.keys() == GapSet.from_elements(keys)
        assert m.keys().gaps == (4, 6, 84)

    def test_a_set_is_a_map_to_unit(self):
        rng = random.Random(7)
        for _ in range(50):
            xs = rng.sample(range(60), rng.randrange(15))
            s = GapSet.from_elements(xs)
            m = GapMap.from_items((x, None) for x in xs)
            assert tuple(gap for gap, _ in m.entries) == s.gaps

    def test_rejects_negative_keys(self):
        for bad in [-1, 1.5, "a", True, None]:
            for make in (
                lambda: GapMap().insert(bad, "x"),
                lambda: GapMap.from_items([(bad, "x")]),
                lambda: GapMap.from_items([(1, "y"), (bad, "x")]),
                lambda: GapMap.from_items([(4, "y")]).insert(bad, "x"),
            ):
                with pytest.raises(ValueError, match="^map keys must be naturals$"):
                    make()

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 9)), max_size=25))
    def test_matches_python_dict(self, items):
        m = GapMap.from_items(items)
        d = dict(items)
        assert m.items() == tuple(sorted(d.items()))
        assert all(m.lookup(k) == v for k, v in d.items())

    @given(st.lists(st.tuples(st.sampled_from(["insert", "remove", "lookup"]), naturals,
                              st.integers(0, 9))))
    def test_op_sequences_match_python_dict(self, ops):
        m, ref = GapMap(), {}
        for op, k, v in ops:
            if op == "insert":
                m, ref[k] = m.insert(k, v), v
            elif op == "remove":
                m, _ = m.remove(k), ref.pop(k, None)
            else:
                assert m.lookup(k) == ref.get(k) and m.lookup(k, "d") == ref.get(k, "d")
            assert m.items() == tuple(sorted(ref.items()))
            assert m == GapMap.from_items(ref.items()) == GapMap(m.entries)
            assert m.keys() == GapSet.from_elements(ref) and m.size() == len(ref)


class TestTermCollections:
    def test_alpha_variants_are_one_element(self, plans):
        plan = plans["lambda"]
        ts = TermSet(plan, "t")
        vsig = plan.vsig
        ts = ts.insert(parse_term(vsig, "t", None, "lam [x] x"))
        ts = ts.insert(parse_term(vsig, "t", None, "lam [y] y"))
        assert ts.size() == 1
        assert ts.member(parse_term(vsig, "t", None, "lam [anything] anything"))

    def test_elements_decode_canonically(self, plans):
        plan = plans["lambda"]
        vsig = plan.vsig
        ts = TermSet(plan, "t", codes=GapSet((0, 0)))
        assert [print_term(vsig, t) for t in ts.elements()] == [
            "lam [x0] x0",
            "app (lam [x0] x0) (lam [x0] x0)",
        ]

    @pytest.mark.parametrize(
        "name, type_name, index", [("lambda", "t", None), ("termfam", "term", 1)]
    )
    def test_elements_are_the_decodes_of_the_codes(self, plans, name, type_name, index):
        plan = plans[name]
        codes = GapSet.from_elements([*range(300), 4321, 10**40])
        got = TermSet(plan, type_name, index, codes).elements()
        assert got == tuple(decode_closed(plan, type_name, index, c) for c in codes.elements())

    def test_each_element_gets_its_own_fuel(self, plans):
        # each member's decode takes over half of DEFAULT_FUEL steps
        plan = plans["nat"]
        half = DEFAULT_FUEL // 2
        deep = TermSet(plan, "nat", codes=GapSet.from_elements([half, half + 1]))
        assert deep.elements() == (decode_closed(plan, "nat", None, half),
                                   decode_closed(plan, "nat", None, half + 1))
        with pytest.raises(FuelExhausted):
            TermSet(plan, "nat", codes=GapSet.from_elements([DEFAULT_FUEL])).elements()

    def test_empty_membership(self, plans):
        plan = plans["lambda"]
        term = parse_term(plan.vsig, "t", None, "lam [x] x")
        assert not TermSet(plan, "t").member(term)

    def test_set_ops_go_through_codes(self, plans):
        plan = plans["lambda"]
        vsig = plan.vsig
        texts = ["lam [x] x", "app (lam [x] x) (lam [x] x)", "lam [x] lam [y] x"]
        terms = [parse_term(vsig, "t", None, s) for s in texts]
        a = TermSet(plan, "t").insert(terms[0]).insert(terms[1])
        b = TermSet(plan, "t").insert(terms[1]).insert(terms[2])
        assert a.union(b).size() == 3
        assert a.intersection(b).size() == 1
        assert a.difference(b).member(terms[0])
        assert not a.difference(b).member(terms[1])

    def test_remove(self, plans):
        plan = plans["lambda"]
        vsig = plan.vsig
        ident, other = (parse_term(vsig, "t", None, s) for s in ("lam [x] x", "lam [x] lam [y] x"))
        ts = TermSet(plan, "t").insert(ident).insert(other)
        assert ts.remove(parse_term(vsig, "t", None, "lam [y] y")).elements() == (other,)
        assert ts.remove(ident).remove(ident).remove(other).size() == 0

    def test_mismatched_classes_refuse_to_mix(self, plans):
        plan = plans["termfam"]
        a = TermSet(plan, "term", 0)
        b = TermSet(plan, "term", 1)
        with pytest.raises(ValueError, match="different classes"):
            a.union(b)

    def test_ill_typed_insert_is_rejected(self, plans):
        plan = plans["termfam"]
        unit = parse_term(plan.vsig, "term", 0, "unit")
        with pytest.raises(Exception):
            TermSet(plan, "term", 1).insert(unit)

    def test_term_map(self, plans):
        plan = plans["lambda"]
        vsig = plan.vsig
        tm = TermMap(plan, "t")
        ident = parse_term(vsig, "t", None, "lam [x] x")
        also_ident = parse_term(vsig, "t", None, "lam [q] q")
        tm = tm.insert(ident, "identity")
        assert tm.lookup(also_ident) == "identity"
        tm = tm.insert(also_ident, "still identity")
        assert tm.size() == 1
        assert tm.lookup(ident) == "still identity"
        assert tm.keys().size() == 1
        assert tm.remove(ident).size() == 0
        assert tm.lookup(parse_term(vsig, "t", None, "lam [x] lam [y] y")) is None
