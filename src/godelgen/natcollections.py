"""Canonical finite sets and maps over naturals, and over coded terms.

A set of naturals is stored as its gap sequence: the first element,
then the count of missing numbers before each later element.  Every
gap sequence denotes a set and every set has exactly one sequence, so
equality is plain sequence equality.  Maps interleave a value with
each gap; term sets store the codes of their members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .codec import CodecPlan, decode_closed, encode_closed
from .termrep import Term


def _regap(elements: Iterable[int]) -> tuple[int, ...]:
    gaps = []
    prev = -1
    for e in elements:
        gaps.append(e - prev - 1)
        prev = e
    return tuple(gaps)


@dataclass(frozen=True)
class GapSet:
    """Finite set of naturals in gap form, e.g. {4, 11, 96} as (4, 6, 84)."""

    gaps: tuple[int, ...] = ()

    @staticmethod
    def from_elements(xs: Iterable[int]) -> "GapSet":
        elements = sorted(set(xs))
        if elements and elements[0] < 0:
            raise ValueError("set elements must be naturals")
        return GapSet(_regap(elements))

    def iter_elements(self) -> Iterator[int]:
        prev = -1
        for gap in self.gaps:
            prev += gap + 1
            yield prev

    def elements(self) -> tuple[int, ...]:
        return tuple(self.iter_elements())

    def size(self) -> int:
        return len(self.gaps)

    def member(self, x: int) -> bool:
        for e in self.iter_elements():
            if e == x:
                return True
            if e > x:
                return False
        return False

    def insert(self, x: int) -> "GapSet":
        if x < 0:
            raise ValueError("set elements must be naturals")
        return GapSet(_regap(_merge_union(self.iter_elements(), iter((x,)))))

    def remove(self, x: int) -> "GapSet":
        return GapSet(_regap(e for e in self.iter_elements() if e != x))

    def union(self, other: "GapSet") -> "GapSet":
        return GapSet(_regap(_merge_union(self.iter_elements(), other.iter_elements())))

    def intersection(self, other: "GapSet") -> "GapSet":
        return GapSet(
            _regap(_merge_common(self.iter_elements(), other.iter_elements(), True))
        )

    def difference(self, other: "GapSet") -> "GapSet":
        return GapSet(
            _regap(_merge_common(self.iter_elements(), other.iter_elements(), False))
        )

    def subset(self, other: "GapSet") -> bool:
        return self.intersection(other) == self

    def __contains__(self, x: int) -> bool:
        return self.member(x)

    def __str__(self) -> str:
        return "[" + ",".join(str(g) for g in self.gaps) + "]"


def _merge_union(a: Iterator[int], b: Iterator[int]) -> Iterator[int]:
    x = next(a, None)
    y = next(b, None)
    while x is not None or y is not None:
        if y is None or (x is not None and x < y):
            yield x
            x = next(a, None)
        elif x is None or y < x:
            yield y
            y = next(b, None)
        else:
            yield x
            x = next(a, None)
            y = next(b, None)


def _merge_common(a: Iterator[int], b: Iterator[int], keep_common: bool) -> Iterator[int]:
    # elements of a that are (keep_common) or are not (difference) in b
    x = next(a, None)
    y = next(b, None)
    while x is not None:
        while y is not None and y < x:
            y = next(b, None)
        if (y == x) == keep_common:
            yield x
        x = next(a, None)


def set_literal(s: GapSet) -> str:
    """Element form for command-line I/O, e.g. {4,11,96}."""
    return "{" + ",".join(str(e) for e in s.iter_elements()) + "}"


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

    @staticmethod
    def from_items(items: Iterable[tuple[int, Any]]) -> "GapMap":
        picked: dict[int, Any] = {}
        for k, v in items:
            if k < 0:
                raise ValueError("map keys must be naturals")
            picked[k] = v
        return GapMap(_regap_items(sorted(picked.items())))

    def iter_items(self) -> Iterator[tuple[int, Any]]:
        prev = -1
        for gap, value in self.entries:
            prev += gap + 1
            yield prev, value

    def items(self) -> tuple[tuple[int, Any], ...]:
        return tuple(self.iter_items())

    def size(self) -> int:
        return len(self.entries)

    def lookup(self, k: int, default: Any = None) -> Any:
        for key, value in self.iter_items():
            if key == k:
                return value
            if key > k:
                return default
        return default

    def insert(self, k: int, v: Any) -> "GapMap":
        if k < 0:
            raise ValueError("map keys must be naturals")
        kept = [(key, value) for key, value in self.iter_items() if key != k]
        kept.append((k, v))
        kept.sort(key=lambda kv: kv[0])
        return GapMap(_regap_items(kept))

    def remove(self, k: int) -> "GapMap":
        return GapMap(
            _regap_items([(key, value) for key, value in self.iter_items() if key != k])
        )

    def keys(self) -> GapSet:
        return GapSet(tuple(gap for gap, _value in self.entries))


def _regap_items(items: list[tuple[int, Any]]) -> tuple[tuple[int, Any], ...]:
    out = []
    prev = -1
    for k, v in items:
        out.append((k - prev - 1, v))
        prev = k
    return tuple(out)


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

    def _compatible(self, other: "TermSet") -> None:
        if (self.plan, self.type_name, self.index) != (
            other.plan,
            other.type_name,
            other.index,
        ):
            raise ValueError("term sets belong to different classes")

    def insert(self, term: Term) -> "TermSet":
        return self._like(self.codes.insert(_code(self, term)))

    def remove(self, term: Term) -> "TermSet":
        return self._like(self.codes.remove(_code(self, term)))

    def member(self, term: Term) -> bool:
        return self.codes.member(_code(self, term))

    def union(self, other: "TermSet") -> "TermSet":
        self._compatible(other)
        return self._like(self.codes.union(other.codes))

    def intersection(self, other: "TermSet") -> "TermSet":
        self._compatible(other)
        return self._like(self.codes.intersection(other.codes))

    def difference(self, other: "TermSet") -> "TermSet":
        self._compatible(other)
        return self._like(self.codes.difference(other.codes))

    def size(self) -> int:
        return self.codes.size()

    def elements(self) -> tuple[Term, ...]:
        return tuple(
            decode_closed(self.plan, self.type_name, self.index, code)
            for code in self.codes.iter_elements()
        )


@dataclass(frozen=True)
class TermMap:
    """Finite map keyed by closed terms of one (type, index)."""

    plan: CodecPlan
    type_name: str
    index: int | None = None
    entries: GapMap = GapMap()

    def insert(self, term: Term, value: Any) -> "TermMap":
        return TermMap(
            self.plan, self.type_name, self.index, self.entries.insert(_code(self, term), value)
        )

    def lookup(self, term: Term, default: Any = None) -> Any:
        return self.entries.lookup(_code(self, term), default)

    def remove(self, term: Term) -> "TermMap":
        return TermMap(
            self.plan, self.type_name, self.index, self.entries.remove(_code(self, term))
        )

    def size(self) -> int:
        return self.entries.size()

    def keys(self) -> TermSet:
        return TermSet(self.plan, self.type_name, self.index, self.entries.keys())
