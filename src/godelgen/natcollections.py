"""Canonical finite sets and maps over naturals, and over coded terms.

A set of naturals is stored as its gap sequence: the first element,
then the count of missing numbers before each later element.  Every
gap sequence denotes a set and every set has exactly one sequence, so
equality is plain sequence equality.  Maps interleave a value with
each gap; term sets store the codes of their members.  A set derives
its ascending elements once, for bisection, outside equality and repr.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, filterfalse
from operator import sub
from typing import Any, Iterable

from .codec import DEFAULT_FUEL, CodecPlan, _decode, encode_closed
from .termrep import EMPTY_COUNTS, Term, _in_context


def _naturals(xs: Iterable, what: str) -> tuple[int, ...]:
    """The distinct values of xs, ascending, if each is an int of at least 0."""
    xs = tuple(xs)
    if all(x.__class__ is int for x in xs) and min(xs, default=0) >= 0:
        return tuple(sorted(set(xs)))
    raise ValueError(f"{what} must be naturals")


def _gaps(elements: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """Gaps i..j-1 of the set with these ascending elements."""
    window = elements[i:j]
    return tuple(map(sub, window, (elements[i - 1] + 1 if i else 0, *[e + 1 for e in window])))


def _built(cls, **parts):
    """An instance of cls holding parts already derived; __init__ would derive them again."""
    obj = object.__new__(cls)
    obj.__dict__.update(parts)
    return obj


@dataclass(frozen=True)
class GapSet:
    """Finite set of naturals in gap form, e.g. {4, 11, 96} as (4, 6, 84)."""

    gaps: tuple[int, ...] = ()
    _elements: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gaps = tuple(self.gaps)
        if not all(g.__class__ is int for g in gaps) or min(gaps, default=0) < 0:
            raise ValueError("set gaps must be naturals")
        object.__setattr__(self, "gaps", gaps)
        sums = accumulate([g + 1 for g in gaps])  # each element plus 1
        object.__setattr__(self, "_elements", tuple([e - 1 for e in sums]))

    @staticmethod
    def from_elements(xs: Iterable[int]) -> "GapSet":
        return _ascending(_naturals(xs, "set elements"))

    def elements(self) -> tuple[int, ...]:
        return self._elements

    def size(self) -> int:
        return len(self.gaps)

    def _at(self, x: int) -> tuple[int, bool]:
        """Where x is or would go among the elements, and whether it is there."""
        i = bisect_left(self._elements, x)
        return i, i < len(self._elements) and self._elements[i] == x

    def member(self, x: int) -> bool:
        return self._at(x)[1]

    __contains__ = member

    def insert(self, x: int) -> "GapSet":
        _naturals((x,), "set elements")
        i, found = self._at(x)
        if found:
            return self
        elements = self._elements[:i] + (x,) + self._elements[i:]
        gaps = self.gaps[:i] + _gaps(elements, i, i + 2) + self.gaps[i + 1 :]  # x splits gap i
        return _built(GapSet, gaps=gaps, _elements=elements)

    def remove(self, x: int) -> "GapSet":
        i, found = self._at(x)
        if not found:
            return self
        elements = self._elements[:i] + self._elements[i + 1 :]
        gaps = self.gaps[:i] + _gaps(elements, i, i + 1) + self.gaps[i + 2 :]  # x's gaps join
        return _built(GapSet, gaps=gaps, _elements=elements)

    def union(self, other: "GapSet") -> "GapSet":
        return _ascending(tuple(sorted({*self._elements, *other._elements})))

    def intersection(self, other: "GapSet") -> "GapSet":
        return _ascending(tuple(filter(set(other._elements).__contains__, self._elements)))

    def difference(self, other: "GapSet") -> "GapSet":
        return _ascending(tuple(filterfalse(set(other._elements).__contains__, self._elements)))

    def subset(self, other: "GapSet") -> bool:
        return set(self._elements).issubset(other._elements)

    def __str__(self) -> str:
        return "[" + ",".join(str(g) for g in self.gaps) + "]"


def _ascending(elements: tuple[int, ...]) -> GapSet:
    """The set of these distinct naturals, given in ascending order."""
    return _built(GapSet, gaps=_gaps(elements, 0, len(elements)), _elements=elements)


def set_literal(s: GapSet) -> str:
    """Element form for command-line I/O, e.g. {4,11,96}."""
    return "{" + ",".join(str(e) for e in s.elements()) + "}"


def parse_set_literal(text: str) -> GapSet:
    body = text.strip()
    if not body.startswith("{") or not body.endswith("}"):
        raise ValueError(f"set literal must look like {{1,2,3}}: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return GapSet()
    try:
        return GapSet.from_elements(int(part) for part in inner.split(","))
    except ValueError as exc:
        raise ValueError(f"bad set literal {text!r}: {exc}") from None


@dataclass(frozen=True)
class GapMap:
    """Finite map from naturals, keys in gap form with values alongside."""

    entries: tuple[tuple[int, Any], ...] = ()
    _keys: GapSet = field(init=False, repr=False, compare=False)  # where each key is

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple([(g, v) for g, v in self.entries]))
        object.__setattr__(self, "_keys", GapSet([g for g, _ in self.entries]))

    @staticmethod
    def from_items(items: Iterable[tuple[int, Any]]) -> "GapMap":
        items = tuple(items)
        keys = GapSet.from_elements(_naturals([k for k, _ in items], "map keys"))
        entries = tuple(zip(keys.gaps, map(dict(items).__getitem__, keys._elements)))
        return _built(GapMap, entries=entries, _keys=keys)

    def _spliced(self, keys: GapSet, i: int, values: list, j: int) -> "GapMap":
        """The map with these keys, entries i..j-1 replaced by values at their gaps."""
        window = tuple(zip(keys.gaps[i : i + len(values)], values))
        return _built(GapMap, entries=self.entries[:i] + window + self.entries[j:], _keys=keys)

    def items(self) -> tuple[tuple[int, Any], ...]:
        return tuple(zip(self._keys._elements, [v for _, v in self.entries]))

    def size(self) -> int:
        return len(self.entries)

    def lookup(self, k: int, default: Any = None) -> Any:
        i, found = self._keys._at(k)
        return self.entries[i][1] if found else default

    def insert(self, k: int, v: Any) -> "GapMap":
        _naturals((k,), "map keys")
        i, found = self._keys._at(k)
        # unless k is a key, it splits the gap of entry i, if there is one
        moved = () if found else self.entries[i : i + 1]
        return self._spliced(self._keys.insert(k), i, [v, *[value for _, value in moved]], i + 1)

    def remove(self, k: int) -> "GapMap":
        i, found = self._keys._at(k)
        if not found:
            return self
        # entry i + 1, if there is one, takes over the gap of entry i
        moved = [value for _, value in self.entries[i + 1 : i + 2]]
        return self._spliced(self._keys.remove(k), i, moved, i + 2)

    def keys(self) -> GapSet:
        return self._keys


# ------------------------------------------------------------- term sets


def _code(keyed, term: Term) -> int:
    """A TermSet's or TermMap's key for term; TermError unless it fits."""
    return encode_closed(keyed.plan, keyed.type_name, keyed.index, term)


@dataclass(frozen=True)
class TermSet:
    """Set of closed terms of one (type, index), keyed by their codes.

    Alpha-equivalent terms share a code, so they are one element;
    iteration decodes back to canonical representatives.
    """

    plan: CodecPlan
    type_name: str
    index: int | None = None
    codes: GapSet = GapSet()

    def _like(self, codes: GapSet) -> "TermSet":
        return TermSet(self.plan, self.type_name, self.index, codes)

    def _codes_of(self, other: "TermSet") -> GapSet:
        if (self.plan, self.type_name, self.index) != (other.plan, other.type_name, other.index):
            raise ValueError("term sets belong to different classes")
        return other.codes

    def insert(self, term: Term) -> "TermSet":
        return self._like(self.codes.insert(_code(self, term)))

    def remove(self, term: Term) -> "TermSet":
        return self._like(self.codes.remove(_code(self, term)))

    def member(self, term: Term) -> bool:
        return self.codes.member(_code(self, term))

    def union(self, other: "TermSet") -> "TermSet":
        return self._like(self.codes.union(self._codes_of(other)))

    def intersection(self, other: "TermSet") -> "TermSet":
        return self._like(self.codes.intersection(self._codes_of(other)))

    def difference(self, other: "TermSet") -> "TermSet":
        return self._like(self.codes.difference(self._codes_of(other)))

    def size(self) -> int:
        return self.codes.size()

    def elements(self) -> tuple[Term, ...]:
        """The members, decoded in the plan's lookup context, each with DEFAULT_FUEL."""
        plan, type_name, index = self.plan, self.type_name, self.index
        return _in_context(plan, lambda ctx: tuple([
            _decode(plan, type_name, index, EMPTY_COUNTS, code, [DEFAULT_FUEL], ctx)
            for code in self.codes.elements()]))


@dataclass(frozen=True)
class TermMap:
    """Finite map keyed by closed terms of one (type, index)."""

    plan: CodecPlan
    type_name: str
    index: int | None = None
    entries: GapMap = GapMap()

    def _like(self, entries: GapMap) -> "TermMap":
        return TermMap(self.plan, self.type_name, self.index, entries)

    def insert(self, term: Term, value: Any) -> "TermMap":
        return self._like(self.entries.insert(_code(self, term), value))

    def lookup(self, term: Term, default: Any = None) -> Any:
        return self.entries.lookup(_code(self, term), default)

    def remove(self, term: Term) -> "TermMap":
        return self._like(self.entries.remove(_code(self, term)))

    def size(self) -> int:
        return self.entries.size()

    def keys(self) -> TermSet:
        return TermSet(self.plan, self.type_name, self.index, self.entries.keys())
