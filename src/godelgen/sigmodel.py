"""Signature syntax, index-class analysis, and well-formedness checking.

A signature is a sequence of declarations in a small LF-style syntax:

    nat : type.
    z : nat.
    s : nat -> nat.
    term : nat -> type.
    lam : (term z -> term N) -> term (s N).
    %% comments run to end of line

One regular expression splits the text into tokens, which are plain
strings; a token's line and column are worked out from the text only
for an error or an abbreviation.  The expression parser and the index
conversion are loops over an explicit stack of frames, so nesting of
any depth needs no interpreter frames.

Types may be indexed by one other type.  Analysis groups the concrete
indices of each family into classes (unindexed types have a single
class; nat-shaped indices split into zero/successor; finite indices get
one class per value) and computes a cardinality per class from one class
graph, with an edge for each class and constructor that applies there,
carrying the classes of its abstractions, arguments and bound variables:

- one worklist pass finds the productive (inhabited) classes;
- one sweep over the strongly connected components of the inhabited
  edges, each after the components it reaches, makes a class infinite if
  it lies on a cycle of pinned edges (the same concrete index recurs) or
  reaches an infinite class, and otherwise counts it as a sum of
  products, a count above COUNT_CUTOFF being infinite.

The counts of finite index types give the classes of the families they
index, so the analysis (one Analysis object, built by its constructor)
works in strata, finite index types first, and builds each edge once; a
finite index type that reaches a family it indexes is an index-type
error.  Each stratum is counted and partitioned once, after its edges, and
each type's index-kind faults are recorded where its kind is decided.
Validation then enforces the rules that make a per-class bijection with
N derivable: it reports the faults the analysis found and reads the same
graph, counts and partitions, one diagnostic per violated rule.

Each index in a constructor's arguments compiles to one rule, (type,
slot, offset): a constant, or the parent's index or an explicit index
value plus an offset.  The analysis reads from a rule the classes the
index can land in, and arg_targets applies the same rule to concrete
values, so the two cannot disagree.  Likewise applies, the one fit test,
reads a concrete index: the graph asks it at each class's least index.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod

from .errors import Diagnostic, SigSyntaxError, SigValidationError, TermError

# Counts above this are treated as infinite.  Classes whose true count
# overflows the cutoff get rejected later (no infinite constructor to
# anchor a decode), rather than silently miscoded.
COUNT_CUTOFF = 1 << 16

# ----------------------------------------------------------------------
# Lexer, shared with term parsing.  A token is its text: a word, one
# punctuation character, "%abbrev", or "" for the end of the input.  A
# word is an operator if it is one of _OPERATORS, a numeral if it is
# decimal, and a name otherwise.

_WORD = r"[\w'/+*<>=&^?!#@~|-]"
# whitespace and comments match outside the group, tokens inside it; any
# character starts a match, so the matches tile the text
_LEXEME = re.compile(rf"\s+|%%[^\n]*|({_WORD}+|[:.()\[\]{{}}]|%{_WORD}*|\S)")
_PLAIN = re.compile(rf"(?:[\s:.()\[\]{{}}]|{_WORD})*")  # no comment, % or other character
_PUNCT = frozenset(":.()[]{}")
_OPERATORS = frozenset({"->", "<-", "="})
_NOT_NAME = _PUNCT | _OPERATORS | {"%abbrev", ""}  # every other token is a word


def tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end, one string object per
    distinct token text.  A character that starts no token, or a %
    declaration other than %abbrev, is a token of its own; the parser
    rejects it."""
    return _tokens(text)[0]


def _tokens(text: str) -> tuple[list[str], dict[str, str]]:
    """tokenize(text), and a dict whose keys are its distinct tokens.  A plain
    text is split by str methods, which find _LEXEME's tokens faster."""
    if _PLAIN.fullmatch(text):
        for c in _PUNCT:
            text = text.replace(c, f" {c} ")
        raw = text.split()
    else:
        raw = [tok for tok in _LEXEME.findall(text) if tok]
    seen: dict[str, str] = {}
    return [*map(seen.setdefault, raw, raw), ""], seen


def _token_error(tok: str) -> str | None:
    """Why no rule of the grammar accepts tok, if none does."""
    if tok[:1] == "%":
        return None if tok == "%abbrev" else f"unsupported declaration {tok}"
    if len(tok) == 1 and tok not in _PUNCT and not re.match(_WORD, tok):
        return f"unexpected character {tok!r}"
    return None


# ----------------------------------------------------------------------
# Surface expressions.  One grammar serves signature declarations, index
# expressions, and term text; each consumer restricts what it accepts.
# A leaf records the position of its token in the parser's token list.


@dataclass(frozen=True, slots=True)
class SName:
    name: str
    at: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class SNum:
    value: int
    at: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class SApp:
    fn: "SExpr"
    args: tuple["SExpr", ...]


@dataclass(frozen=True, slots=True)
class SArrow:
    arg: "SExpr"
    result: "SExpr"


@dataclass(frozen=True, slots=True)
class SBind:
    var: str
    body: "SExpr"


@dataclass(frozen=True, slots=True)
class SPi:
    var: str
    var_type: "SExpr"
    body: "SExpr"


@dataclass(frozen=True, slots=True)
class SType:
    at: int = field(compare=False, default=0)


SExpr = SName | SNum | SApp | SArrow | SBind | SPi | SType


class _NumeralTooLong(SigSyntaxError):
    """A numeral has more digits than int reads: no fault of the syntax."""


class _Parser:
    """A parser over the tokens of text, or over toks, tokens already read
    and checked from a text (an abbreviation's body).  Positions are worked
    out from the text only when an error or an abbreviation needs one."""

    def __init__(self, text: str, toks: list[str] | None = None):
        self.text = text
        self.i = 0
        self._offsets: list[int] | None = None  # of each token; see where
        self._line_starts: list[int] = []
        if toks is None:
            toks, seen = _tokens(text)
            errors = [toks.index(tok) for tok in seen if _token_error(tok)]  # each distinct once
            if errors:
                self.fail(_token_error(toks[min(errors)]), min(errors))
        self.toks = toks

    def where(self, i: int) -> tuple[int, int]:
        """Line and column of token i; a comment that ends the text does
        not move the position of its end."""
        if self._offsets is None:
            text, offsets, last = self.text, [], None
            for last in _LEXEME.finditer(text):
                if last.lastindex:
                    offsets.append(last.start())
            tail = last is not None and not last.lastindex and last.group().startswith("%%")
            offsets.append(last.start() if tail else len(text))
            self._offsets = offsets
            self._line_starts = [0, *(m.end() for m in re.finditer("\n", text))]
        offset = self._offsets[i]
        line = bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1

    def peek(self) -> str:
        return self.toks[self.i]

    def fail(self, message: str, at: int | None = None):
        """Raise a syntax error at token at, by default the next one."""
        raise SigSyntaxError(message, *self.where(self.i if at is None else at))

    def expect(self, text: str) -> None:
        tok = self.toks[self.i]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.i += 1

    def name(self, after: str) -> str:
        """The variable name that follows the token after."""
        tok = self.toks[self.i]
        if tok in _NOT_NAME:
            self.fail(f"expected a variable name after {after!r}")
        self.i += 1
        return tok

    def expr(self) -> SExpr:
        """One expression, read in a loop.  The expression being read is
        its operands so far, each with the arrow before it (parts), the
        arrow before the operand being read (op) and that operand's atoms.
        Reading a bracket, a binder or an abstraction pushes a frame
        holding the enclosing expression, what opened the inner one and,
        for a binder or an abstraction, its variable (and type)."""
        toks, stack = self.toks, []
        op, parts, atoms = None, [], []
        while True:
            tok = toks[self.i]
            if tok not in _NOT_NAME:
                atoms.append(self.word(tok, self.i))
                self.i += 1
                continue
            if tok == "(" or tok == "[" or (tok == "{" and not atoms):
                self.i += 1
                var = None
                if tok == "[":
                    var = self.name("[")
                    self.expect("]")
                elif tok == "{":
                    var = self.name("{")
                    self.expect(":")
                stack.append((tok, op, parts, atoms, var))
                op, parts, atoms = None, [], []
                continue
            if not atoms:
                self.fail(f"unexpected {tok or 'end of input'!r}")
            parts.append((op, atoms[0] if len(atoms) == 1 else SApp(atoms[0], tuple(atoms[1:]))))
            atoms = []
            if tok == "->" or tok == "<-":
                op = tok
                self.i += 1
                continue
            value = _build_arrows(parts)
            # hand the finished expression to the frames it completes
            while stack:
                kind, op, parts, atoms, var = stack.pop()
                if kind == "(":
                    self.expect(")")
                    atoms.append(value)
                    break
                if kind == "[":
                    # a binder extends as far right as possible; parenthesize
                    # it when it is not the last argument
                    atoms.append(SBind(var, value))
                    break
                if kind == "{":
                    self.expect("}")
                    stack.append(("}", op, parts, atoms, (var, value)))
                    op, parts, atoms = None, [], []
                    break
                # the body of an abstraction ends where its expression does
                parts.append((op, SPi(*var, value)))
                value = _build_arrows(parts)
            else:
                return value

    def atom(self) -> SExpr:
        """The atom that starts at the next token: a word, a bracketed
        expression, or a binder, which extends as far right as its
        expression does."""
        tok = self.toks[self.i]
        self.i += 1
        if tok == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok == "[":
            var = self.name("[")
            self.expect("]")
            return SBind(var, self.expr())
        return self.word(tok, self.i - 1)

    def word(self, tok: str, at: int) -> SExpr:
        """The leaf that word tok, token at, spells."""
        if tok == "type":
            return SType(at)
        if tok.isdecimal():
            try:
                return SNum(int(tok), at)
            except ValueError:  # over int's digit limit (sys.set_int_max_str_digits)
                raise _NumeralTooLong(f"numeral of {len(tok)} digits is over Python's"
                                     " limit on digits read as an int", *self.where(at)) from None
        return SName(tok, at)

    def whole(self) -> SExpr:
        """The whole text as one expression, as term text is read."""
        self.i = 0
        e = self.expr()
        if self.peek():
            self.fail(f"trailing input {self.peek()!r}")
        return e


def _build_arrows(parts: list[tuple[str | None, SExpr]]) -> SExpr:
    # '->' is right-associative; 'a <- b' is 'b -> a' with '<-' binding
    # looser and associating left, so 'h <- p1 <- p2' is 'p2 -> p1 -> h'
    if len(parts) == 1:
        return parts[0][1]
    groups: list[list[SExpr]] = [[parts[0][1]]]
    for op, e in parts[1:]:
        if op == "<-":
            groups.append([e])
        else:
            groups[-1].append(e)

    def rfold(chain: list[SExpr]) -> SExpr:
        out = chain[-1]
        for item in reversed(chain[:-1]):
            out = SArrow(item, out)
        return out

    result = rfold(groups[0])
    for premise in groups[1:]:
        result = SArrow(rfold(premise), result)
    return result


# ----------------------------------------------------------------------
# Signature structure.


@dataclass(frozen=True)
class IxVar:
    name: str


@dataclass(frozen=True)
class IxCon:
    name: str
    args: tuple["IndexExpr", ...] = ()


@dataclass(frozen=True)
class IxNum:
    value: int


IndexExpr = IxVar | IxCon | IxNum


@dataclass
class Arg:
    """One constructor argument: zero or more bound variables, then a target."""

    binders: tuple[tuple[str, tuple[IndexExpr, ...]], ...]
    type_name: str
    index: tuple[IndexExpr, ...]


@dataclass
class Ctor:
    name: str
    family: str
    result_index: tuple[IndexExpr, ...]
    pi_args: tuple[tuple[str, str, tuple[IndexExpr, ...]], ...]  # (var, type, its index)
    args: tuple[Arg, ...]


@dataclass
class TypeDecl:
    name: str
    index_types: tuple[str, ...]
    ctors: list[Ctor] = field(default_factory=list)


@dataclass
class Abbrev:
    name: str
    type_name: str
    index: tuple[IndexExpr, ...]
    body: SExpr
    toks: list[str]  # the body's tokens, then "" for its end
    line: int = 0
    col: int = 0


@dataclass
class Signature:
    decls: list[TypeDecl] = field(default_factory=list)
    by_name: dict[str, TypeDecl] = field(default_factory=dict)
    ctors: dict[str, Ctor] = field(default_factory=dict)
    abbrevs: dict[str, Abbrev] = field(default_factory=dict)
    analysis: "Analysis | None" = None


def parse_signature(text: str) -> Signature:
    """Parse signature text.  Raises SigSyntaxError on malformed input."""
    p = _Parser(text)
    sig = Signature()
    while p.peek():
        if p.peek() == "%abbrev":
            _parse_abbrev(p, sig)
        else:
            _parse_decl(p, sig)
    _check_abbrev_cycles(sig)
    return sig


def _declared_name(p: _Parser, sig: Signature, missing: str) -> tuple[int, str]:
    """The position and name of the declaration at the next token, read
    through its ':'; missing is the error when no name is there."""
    at, name = p.i, p.peek()
    if name in _NOT_NAME:
        p.fail(missing)
    if name in sig.by_name or name in sig.ctors or name in sig.abbrevs:
        p.fail(f"duplicate name {name!r}")
    p.i += 1
    p.expect(":")
    return at, name


def _parse_abbrev(p: _Parser, sig: Signature) -> None:
    p.expect("%abbrev")
    at, name = _declared_name(p, sig, "expected a name after %abbrev")
    type_expr = p.expr()
    p.expect("=")
    start = p.i
    body = p.expr()
    toks = p.toks[start:p.i]
    toks.append("")
    p.expect(".")
    type_name, index = _to_typeapp(p, sig, type_expr, at)
    for e in index:
        for v in _expr_vars(e):
            p.fail(f"abbreviation type must be ground, found variable {v!r}", at)
    sig.abbrevs[name] = Abbrev(name, type_name, index, body, toks, *p.where(at))


def _abbrev_uses(sig: Signature, body: SExpr) -> list[str]:
    """The abbreviations that elaborating body as a term expands: names
    in term position that no enclosing binder shadows."""
    uses, todo = [], [(body, frozenset())]
    while todo:
        e, bound = todo.pop()
        if isinstance(e, SName):
            if e.name in sig.abbrevs and e.name not in bound:
                uses.append(e.name)
        elif isinstance(e, SBind):
            todo.append((e.body, bound | {e.var}))
        elif isinstance(e, SApp) and isinstance(e.fn, (SName, SNum)):
            fn = e.fn.name if isinstance(e.fn, SName) else str(e.fn.value)
            ctor = sig.ctors.get(fn)
            # explicit index arguments expand as index expressions, and
            # to_index_expr stops a cycle there itself
            if ctor is not None:
                todo.extend((a, bound) for a in e.args[len(ctor.pi_args):])
    return uses


def _check_abbrev_cycles(sig: Signature) -> None:
    """Raise SigSyntaxError if an abbreviation's term expands through
    itself, which would never finish: a strongly connected component of
    the uses between abbreviations (_sccs) that has more than one member
    or uses itself, reported at its member reached first."""
    uses = {name: _abbrev_uses(sig, ab.body) for name, ab in sig.abbrevs.items()}
    for comp in _sccs(uses):
        if len(comp) > 1 or comp[0] in uses[comp[0]]:
            ab = sig.abbrevs[comp[-1]]
            raise SigSyntaxError(
                f"abbreviation {ab.name!r} is defined in terms of itself", ab.line, ab.col
            )


def _parse_decl(p: _Parser, sig: Signature) -> None:
    tok = p.peek()
    at, name = _declared_name(p, sig, f"expected a declaration, found {tok or 'end of input'!r}")
    e = p.expr()
    p.expect(".")

    premises, result = _split_arrows(e)
    if isinstance(result, SType):
        index_types = []
        for prem in premises:
            if isinstance(prem, SName):
                head = prem
            elif isinstance(prem, SApp) and isinstance(prem.fn, SName):
                head = prem.fn
            else:
                p.fail("index kinds must be type names", at)
            if head.name not in sig.by_name:
                p.fail(f"unknown type {head.name!r}", at)
            if isinstance(prem, SApp) and len(prem.args) > len(sig.by_name[head.name].index_types):
                _to_typeapp(p, sig, prem, at)  # reports the surplus index arguments
            index_types.append(head.name)
        decl = TypeDecl(name, tuple(index_types))
        sig.decls.append(decl)
        sig.by_name[name] = decl
        return

    pis = []
    while isinstance(e, SPi):
        pis.append(e)
        e = e.body
    # abstraction names are variables wherever they occur in the declaration
    pivars = {pi.var for pi in pis}
    pi_args = [(x.var, *_to_typeapp(p, sig, x.var_type, at, pivars)) for x in pis]
    premises, result = _split_arrows(e)
    if any(isinstance(x, SPi) for x in premises) or isinstance(result, SPi):
        p.fail("explicit abstraction must precede all arguments", at)
    family, result_index = _to_typeapp(p, sig, result, at, pivars)
    args = tuple(_to_arg(p, sig, prem, at, pivars) for prem in premises)

    ctor = Ctor(name, family, result_index, tuple(pi_args), args)
    sig.by_name[family].ctors.append(ctor)
    sig.ctors[name] = ctor


def _split_arrows(e: SExpr) -> tuple[list[SExpr], SExpr]:
    premises = []
    while isinstance(e, SArrow):
        premises.append(e.arg)
        e = e.result
    return premises, e


def _to_arg(p: _Parser, sig: Signature, e: SExpr, at: int, pivars) -> Arg:
    if isinstance(e, SArrow):
        parts, target = _split_arrows(e)
        binders = []
        for part in parts:
            if isinstance(part, SArrow):
                p.fail("binder arguments must be first-order", at)
            bt, bix = _to_typeapp(p, sig, part, at, pivars)
            binders.append((bt, bix))
        t, ix = _to_typeapp(p, sig, target, at, pivars)
        return Arg(tuple(binders), t, ix)
    t, ix = _to_typeapp(p, sig, e, at, pivars)
    return Arg((), t, ix)


def _to_typeapp(
    p: _Parser, sig: Signature, e: SExpr, at: int, pivars=frozenset()
) -> tuple[str, tuple[IndexExpr, ...]]:
    """e as a type applied to index expressions; errors are reported at
    token at (the declaration's name), or at the type's own name."""
    if isinstance(e, SName):
        head, atoms = e, ()
    elif isinstance(e, SApp) and isinstance(e.fn, SName):
        head, atoms = e.fn, e.args
    else:
        p.fail("expected a type, possibly applied to index arguments", at)
    if head.name not in sig.by_name:
        p.fail(f"unknown type {head.name!r}", head.at)
    decl = sig.by_name[head.name]
    if len(atoms) != len(decl.index_types):
        p.fail(
            f"type {head.name!r} expects {len(decl.index_types)} index"
            f" argument(s), got {len(atoms)}",
            head.at,
        )
    return head.name, tuple([
        to_index_expr(sig, a, lambda message: p.fail(message, at), pivars) for a in atoms
    ])


def to_index_expr(sig: Signature, e: SExpr, fail, pivars) -> IndexExpr:
    """The index expression surface e spells, in a signature or in term
    text; fail(message) raises the caller's error.  Upper-case names and
    the abstraction names pivars are variables, and abbreviations expand
    in place.  A loop over a stack of frames, one per application whose
    arguments are being read: its head, its arguments, their index
    expressions so far, and the abbreviations being expanded around it."""
    stack, expanding = [], ()
    while True:
        if isinstance(e, SNum):
            value = IxNum(e.value)
        elif isinstance(e, SName):
            if e.name[0].isupper():
                value = IxVar(e.name)
            elif e.name in sig.abbrevs:
                # in index position the body must itself be an index expression
                body = sig.abbrevs[e.name].body
                if isinstance(body, (SBind, SPi, SArrow, SType)):
                    fail(f"abbreviation {e.name!r} cannot be used in an index expression")
                if e.name in expanding:
                    fail(f"abbreviation {e.name!r} is defined in terms of itself")
                e, expanding = body, expanding + (e.name,)
                continue
            else:
                value = IxVar(e.name) if e.name in pivars else IxCon(e.name)
        elif isinstance(e, SApp) and isinstance(e.fn, SName):
            if e.fn.name[0].isupper():
                fail(f"index variable {e.fn.name!r} cannot be applied")
            stack.append((e.fn.name, e.args, [], expanding))
            value = None
        else:
            fail("invalid index expression")
        while stack:
            name, surface, args, expanding = stack[-1]
            if value is not None:
                args.append(value)
            if len(args) < len(surface):
                e = surface[len(args)]
                break
            stack.pop()
            value = IxCon(name, tuple(args))
        else:
            return value


def _expr_vars(e: IndexExpr) -> list[str]:
    """The variables of e, left to right."""
    out, todo = [], [e]
    while todo:
        e = todo.pop()
        if isinstance(e, IxVar):
            out.append(e.name)
        elif isinstance(e, IxCon):
            todo.extend(reversed(e.args))
    return out


# ----------------------------------------------------------------------
# Index classes and cardinalities.


@dataclass(frozen=True)
class IndexClass:
    kind: str  # 'unit' | 'z' | 's' | 'fin'
    value: int | None = None  # the least index of the class; None for unit

    @property
    def label(self) -> str:
        if self.kind == "unit":
            return "-"
        if self.kind == "fin":
            return str(self.value)
        return self.kind

    def __repr__(self) -> str:
        return f"IndexClass({self.label})"


UNIT_CLASS = IndexClass("unit")
Z_CLASS = IndexClass("z", 0)
S_CLASS = IndexClass("s", 1)


def fin_class(value: int) -> IndexClass:
    return IndexClass("fin", value)


def _class_at(kind, index: int | None) -> IndexClass:
    """The class of a valid index of a family of this index kind."""
    if kind is None:
        return UNIT_CLASS
    if isinstance(kind, NatIndex):
        return S_CLASS if index else Z_CLASS
    return fin_class(index)


@dataclass(frozen=True)
class Cardinality:
    kind: str  # 'empty' | 'finite' | 'infinite'
    count: int | None = None

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def codes_below(self, limit: int) -> range:
        """The codes of a class of this cardinality that lie below limit:
        none for an empty class."""
        return range(limit if self.is_infinite else min(self.count or 0, limit))

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.count})"
        return self.kind.capitalize()


EMPTY = Cardinality("empty")
INFINITE = Cardinality("infinite")


def finite(count: int) -> Cardinality:
    return Cardinality("finite", count)


@dataclass(frozen=True)
class NatIndex:
    type_name: str
    zero: str
    succ: str


@dataclass(frozen=True)
class FiniteIndex:
    type_name: str
    count: int


@dataclass(frozen=True)
class FiniteCtorEntry:
    ctor_name: str
    base: int
    radices: tuple[int, ...]
    count: int


@dataclass(frozen=True)
class FiniteBlock:
    entries: tuple[FiniteCtorEntry, ...]
    total: int

    @cached_property
    def _by_name(self) -> dict[str, FiniteCtorEntry]:
        return {e.ctor_name: e for e in self.entries}

    @cached_property
    def bases(self) -> tuple[int, ...]:  # ascending; equal where an entry has no codes
        return tuple([e.base for e in self.entries])

    def entry_for(self, ctor_name: str) -> FiniteCtorEntry | None:
        return self._by_name.get(ctor_name)


@dataclass(eq=False, slots=True)
class Edge:
    """One constructor at one class it applies to, with the (type, class)
    keys its terms there are built from."""

    ctor: Ctor
    pis: tuple[frozenset, ...]  # the classes of each abstraction's type
    args: tuple[tuple[frozenset, bool, tuple[frozenset, ...]], ...]  # (targets, pinned, binders)
    unmet: set[int] = field(default_factory=set)  # needs no inhabited class met
    kinds: tuple[int, ...] = ()  # per argument, its radix, or 0 if infinite (_partition)


def _nat_shape(decl: TypeDecl) -> NatIndex | None:
    """Detect a type with exactly a zero and a self-successor constructor."""
    if decl.index_types or len(decl.ctors) != 2 or any(c.pi_args for c in decl.ctors):
        return None
    zero = [c.name for c in decl.ctors if not c.args]
    succ = [
        c.name for c in decl.ctors
        if len(c.args) == 1 and not c.args[0].binders and c.args[0].type_name == decl.name
    ]
    return NatIndex(decl.name, *zero, *succ) if len(zero) == len(succ) == 1 else None


def applies(pattern: tuple, index: int | None) -> bool:
    """Whether a constructor with this result pattern builds terms at a
    valid concrete index of its family (None for an unindexed family).
    The analysis asks it at each class's least index (IndexClass.value),
    which stands for the whole class."""
    if pattern[0] == "unit":
        return index is None
    if pattern[0] == "zero":
        return index == 0
    if pattern[0] == "succ":
        return index is not None and index > 0
    if pattern[0] == "var":
        return index is not None
    if pattern[0] == "const":
        return index == pattern[1]
    return False


def _succ_chain(expr: IndexExpr, shape: NatIndex) -> tuple[IndexExpr, int]:
    """expr without its outer successors, and how many there were; a loop,
    so a chain of any depth is fine."""
    succs = 0
    while isinstance(expr, IxCon) and expr.name == shape.succ and len(expr.args) == 1:
        succs += 1
        expr = expr.args[0]
    return expr, succs


def _index_value(
    sig: Signature,
    nat_shapes: dict[str, NatIndex],
    block_of,
    ixtype: str,
    expr: IndexExpr,
    binding: dict[str, int],
) -> int | None:
    """Value of an index expression of type ixtype, or None if it is not
    a well-formed value under binding.  block_of(t) is the instance block
    of finite type t, or None while its count is unknown.  A finite
    constructor's value is its entry's base plus its arguments' values in
    mixed radix, so the value is a sum over the expression's nodes, each
    weighted by the radices to its right on its path, taken in one loop
    over a work list at any depth.  A leaf argument's value, and a
    constructor argument's base, must lie below the argument's radix."""
    total, todo = 0, [(ixtype, expr, 1, None)]
    while todo:
        ixtype, expr, weight, radix = todo.pop()
        shape = nat_shapes.get(ixtype)
        succs = 0
        if shape is not None:
            expr, succs = _succ_chain(expr, shape)
        if isinstance(expr, IxNum):
            value = expr.value + succs
        elif isinstance(expr, IxVar):
            value = binding.get(expr.name)
            value = None if value is None else value + succs
        elif shape is not None:
            value = succs if expr.name == shape.zero and not expr.args else None
        else:
            block = block_of(ixtype)
            entry = block.entry_for(expr.name) if block is not None else None
            if entry is None or len(expr.args) != len(entry.radices):
                return None
            value, w = entry.base, weight
            for sub, r, arg in reversed([*zip(expr.args, entry.radices, sig.ctors[expr.name].args)]):
                todo.append((arg.type_name, sub, w, r))
                w *= r
        if value is None or radix is not None and value >= radix:
            return None
        total += weight * value
    return total


class Analysis:
    """The index analysis of a signature, run by the constructor in one
    pass over strata that builds each edge and counts each class once.
    First come the types that an index type other than a nat-shaped one
    reaches, one strongly connected component of their dependencies at a
    time, each after those it reaches; then every other type, in
    declaration order.  A type depends on its index type and on the types
    of its constructors' abstractions, arguments and bound variables, so a
    finite index type is counted before the families it indexes get
    classes.

    kinds: per type, None (unindexed), a NatIndex or a FiniteIndex, or
    'invalid'; classes: its index classes; graph: class ->
    constructor -> Edge; card and partitions: each class's cardinality
    and its finite-instance block and infinite constructors (_partition);
    patterns and rules: per constructor (see _rule); kind_faults: per
    type, in declaration order, what makes its index kind unusable;
    deferred: the other faults, in the order found."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.nat_shapes: dict[str, NatIndex] = {
            d.name: shape for d in sig.decls if (shape := _nat_shape(d)) is not None
        }
        shape = self.nat_shapes.get("nat")
        self.nat_literal = shape if shape and (shape.zero, shape.succ) == ("z", "s") else None
        # in declaration order, each set when its stratum is reached
        self.kinds: dict[str, object] = dict.fromkeys(sig.by_name)
        self.classes: dict[str, tuple[IndexClass, ...]] = dict.fromkeys(sig.by_name, ())
        self.kind_faults: dict[str, list[Diagnostic]] = dict.fromkeys(sig.by_name, ())
        self.graph: dict[tuple[str, IndexClass], dict[str, Edge]] = {}
        self.card: dict[tuple[str, IndexClass], Cardinality] = {}
        self.partitions: dict[tuple[str, IndexClass], tuple[FiniteBlock, tuple[Ctor, ...]]] = {}
        self.patterns: dict[str, tuple] = {}
        self.rules: dict[str, tuple] = {}  # compiled at each constructor's first edge
        self.deferred: dict[Diagnostic, None] = {}  # in the order found

        deps: dict[str, list[str]] = {}
        todo = [x for d in sig.decls for x in d.index_types if x not in self.nat_shapes]
        while todo:
            t = todo.pop()
            if t not in deps:
                decl = sig.by_name[t]
                deps[t] = [*decl.index_types]
                for c in decl.ctors:
                    deps[t] += [p for _, p, _ in c.pi_args]
                    for a in c.args:
                        deps[t] += [a.type_name, *(bt for bt, _ in a.binders)]
                todo += deps[t]
        # each stratum is counted once its edges are built; it reaches only
        # itself and the strata before it, whose classes stay as counted
        inhab, infinite, counts = set(), set(), {}
        for stratum in [*_sccs(deps), [d.name for d in sig.decls if d.name not in deps]]:
            for t in stratum:
                self._set_kind(sig.by_name[t])
            graph = {
                (t, k): {c.name: self._edge(c, k)
                         for c in sig.by_name[t].ctors if applies(self.pattern_of(c), k.value)}
                for t in stratum for k in self.classes[t]
            }
            _productive(graph, inhab)
            _sweep(graph, inhab, infinite, counts)
            for ck in graph:
                self.card[ck] = (
                    EMPTY if ck not in inhab else INFINITE if ck in infinite else finite(counts[ck])
                )
            for ck, edges in graph.items():
                self.partitions[ck] = _partition(edges.values(), self.card)
            self.graph.update(graph)
        self.graph = {
            (d.name, k): self.graph[(d.name, k)] for d in sig.decls for k in self.classes[d.name]
        }
        # the patterns of families without classes are worked out here, last
        for c in sig.ctors.values():
            self.pattern_of(c)

    def defer(self, rule: str, subject: str, message: str) -> None:
        self.deferred.setdefault(Diagnostic(rule, subject, message))

    def block_of(self, type_name: str) -> FiniteBlock | None:
        """The instance block of a finite unindexed type, or None while its
        count is unknown or if it is not finite."""
        ck = (type_name, UNIT_CLASS)
        if ck in self.partitions and self.card[ck].is_finite:
            return self.partitions[ck][0]
        return None

    def _set_kind(self, d: TypeDecl) -> None:
        """d's index kind and classes, and the faults that make its index
        type unusable: more than one index, an index type that is indexed,
        not nat-shaped or finite, or uses binders.  A finite index type is
        counted before the families it indexes, unless it lies in their
        stratum, which is deferred as an index-type fault."""
        kind, classes, faults = "invalid", (), []
        fault = lambda message, rule="index-type": faults.append(Diagnostic(rule, d.name, message))
        x = d.index_types[0] if d.index_types else None
        if not d.index_types:
            kind, classes = None, (UNIT_CLASS,)
        elif len(d.index_types) > 1:
            fault(
                f"indexed types must take exactly one index, {d.name} takes {len(d.index_types)}",
                "single-index",
            )
        elif self.sig.by_name[x].index_types:
            fault(
                f"index type {x} is itself indexed; indices must be"
                " nat-shaped or finite unindexed types"
            )
        elif x in self.nat_shapes:
            kind, classes = self.nat_shapes[x], (Z_CLASS, S_CLASS)
        elif (x, UNIT_CLASS) not in self.graph:  # x lies in d's stratum
            self.defer(
                "index-type",
                x,
                f"the instances of index type {x} depend on index values of type {x}",
            )
        else:
            xcard = self.card[(x, UNIT_CLASS)]
            if not xcard.is_finite:
                fault(f"index type {x} must be nat-shaped or finite ({xcard})")
            else:
                kind = FiniteIndex(x, xcard.count)
                classes = tuple(fin_class(v) for v in range(xcard.count))
                ctors = self.sig.by_name[x].ctors
                if any(c.pi_args or any(a.binders for a in c.args) for c in ctors):
                    fault(f"index type {x} may not use binders")
        self.kinds[d.name], self.classes[d.name], self.kind_faults[d.name] = kind, classes, faults

    def constant(self, report, subject: str, type_name: str, expr: IndexExpr) -> int | None:
        """The value of expr as a constant index of type_name, or None;
        evaluated as _index_value does.  report(rule, subject, message) is
        told when expr has no value or lies out of range."""
        kind = self.kinds[type_name]
        value = _index_value(self.sig, self.nat_shapes, self.block_of, kind.type_name, expr, {})
        if value is None:
            report("index-expr", subject, f"invalid index expression for type {type_name}")
        elif isinstance(kind, FiniteIndex) and value >= kind.count:
            report(
                "index-out-of-range", subject, f"index {value} out of range for type {type_name}"
            )
        return value

    def pattern_of(self, ctor: Ctor) -> tuple:
        if ctor.name not in self.patterns:
            self.patterns[ctor.name] = self._compute_pattern(ctor)
        return self.patterns[ctor.name]

    def _compute_pattern(self, ctor: Ctor) -> tuple:
        kind = self.kinds.get(ctor.family)
        if kind is None:
            return ("unit",)
        if kind == "invalid":
            return ("invalid",)
        expr = ctor.result_index[0]
        if isinstance(expr, IxVar):
            return ("var", expr.name)
        if isinstance(kind, NatIndex):
            if expr == IxNum(0) or expr == IxCon(kind.zero):
                return ("zero",)
            if (
                isinstance(expr, IxCon)
                and expr.name == kind.succ
                and len(expr.args) == 1
                and isinstance(expr.args[0], IxVar)
            ):
                return ("succ", expr.args[0].name)
            self.defer(
                "pattern",
                ctor.name,
                "result index must use at most one level of matching"
                " (zero, successor of a variable, or a variable)",
            )
            return ("invalid",)
        # finite index: a concrete value
        value = self.constant(self.defer, ctor.name, ctor.family, expr)
        return ("invalid",) if value is None else ("const", value)

    def _rule(self, ctor: Ctor, type_name: str, index: tuple[IndexExpr, ...]) -> tuple:
        """(type, slot, offset) for an index of type_name in ctor.  The
        index is offset when slot is None (None for an unindexed type),
        else the value in slot plus offset.  Slot 0 holds the parent's
        index and slot 1 + i explicit index value i; under a successor
        pattern s N, N is slot 0 with offset -1.  An index with no value
        is reported and gets slot -1, its offset counting the successors
        around it: s <bad> is still a successor."""
        kind = self.kinds[type_name]
        if kind is None:
            return type_name, None, None
        if kind == "invalid":  # reported with the type
            return type_name, -1, 0
        expr, succs = index[0], 0
        if isinstance(kind, NatIndex):
            expr, succs = _succ_chain(expr, kind)
        if not isinstance(expr, IxVar):
            value = self.constant(self.defer, ctor.name, type_name, index[0])
            if value is None or isinstance(kind, FiniteIndex) and value >= kind.count:
                return type_name, -1, succs
            return type_name, None, value
        # an abstraction's variable shadows the result pattern's
        slots = {var: (1 + i, t) for i, (var, t, _) in enumerate(ctor.pi_args)}
        pat = self.pattern_of(ctor)
        if pat[0] in ("var", "succ"):
            slots.setdefault(pat[1], (0, self.kinds[ctor.family].type_name))
        slot, var_type = slots.get(expr.name, (-1, None))
        if slot < 0:
            self.defer(
                "unbound-index-var",
                ctor.name,
                f"index variable {expr.name!r} is not bound by the result"
                " pattern or an explicit abstraction",
            )
        elif var_type != kind.type_name:
            self.defer(
                "wrong-index-type",
                ctor.name,
                f"index variable {expr.name!r} has type {var_type},"
                f" used where {kind.type_name} is required",
            )
            slot = -1
        return type_name, slot, succs - 1 if slot == 0 and pat[0] == "succ" else succs

    def _classes(self, ctor: Ctor, k: IndexClass, rule: tuple) -> tuple[frozenset, bool]:
        """The (type, class) keys an index by rule can land in when ctor
        builds a term of class k, and whether the index is pinned: a
        constant, or the parent's own index."""
        type_name, slot, offset = rule
        if slot is None:
            return frozenset(((type_name, _class_at(self.kinds[type_name], offset)),)), True
        pat = self.pattern_of(ctor)[0]
        if slot == 0 and pat == "succ":
            offset += 1  # the successors around the parent's predecessor
        if offset > 0:
            return frozenset(((type_name, S_CLASS),)), False
        if slot < 0:
            return frozenset(), False
        if slot == 0 and pat == "var":
            return frozenset(((type_name, k),)), True
        # the parent's predecessor or an abstraction's value: any class
        return frozenset((type_name, c) for c in self.classes[type_name]), False

    def _edge(self, ctor: Ctor, k: IndexClass) -> Edge:
        # a constructor's rules do not depend on k, and all its edges are
        # built in one stratum, after the kinds they read are set
        rules = self.rules.get(ctor.name)
        if rules is None:
            rules = self.rules[ctor.name] = tuple([
                (*self._rule(ctor, a.type_name, a.index),
                 tuple([self._rule(ctor, bt, bix) for bt, bix in a.binders]))
                for a in ctor.args
            ])
        args = []
        for *target, binders in rules:
            targets, pinned = self._classes(ctor, k, target)
            args.append((targets, pinned, tuple([self._classes(ctor, k, b)[0] for b in binders])))
        pis = [frozenset((p, pk) for pk in self.classes[p]) for _, p, _ in ctor.pi_args]
        return Edge(ctor, tuple(pis), tuple(args))


def _productive(graph, inhab: set) -> None:
    """Adds to inhab, which holds the lower strata's inhabited classes,
    those of one stratum's graph, in one worklist pass (the productive
    symbols of a grammar).  An edge needs a class of each abstraction's
    type and, for each argument that no bound variable can fill, a target
    class; each edge is left with the needs no inhabited class met."""
    waiting: dict[tuple[str, IndexClass], list] = {}
    todo = []
    for ck, edges in graph.items():
        for e in edges.values():
            needs = [*e.pis, *(ts for ts, _, bs in e.args if not any(b & ts for b in bs))]
            needs = [need for need in needs if need.isdisjoint(inhab)]
            e.unmet = set(range(len(needs)))
            if not needs:
                todo.append(ck)
            for i, need in enumerate(needs):
                for c in need:
                    waiting.setdefault(c, []).append((ck, e, i))
    while todo:
        ck = todo.pop()
        if ck not in inhab:
            inhab.add(ck)
            for src, e, i in waiting.get(ck, ()):
                e.unmet.discard(i)
                if not e.unmet:
                    todo.append(src)


def _sweep(graph, inhab, infinite: set, counts: dict) -> None:
    """Adds to infinite the infinite inhabited classes of one stratum's
    graph, and to counts the counts of the others, the lower strata's being
    there already, in one sweep over the strongly connected components of
    the inhabited edges, each after the components it reaches.  A class is
    infinite if it lies on a cycle of pinned edges (the same concrete index
    comes back), if it reaches an infinite class, or if its count passes
    COUNT_CUTOFF."""
    reach = {
        ck: inhab.intersection(chain.from_iterable(
            chain(*e.pis, *(ts.union(*bs) for ts, _, bs in e.args))
            for e in edges.values() if not e.unmet
        ))
        for ck, edges in graph.items() if ck in inhab
    }
    succ = {ck: r & reach.keys() for ck, r in reach.items()}  # within the stratum
    for comp in _sccs(succ):
        cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
        if cyclic and _pinned_cycle(graph, comp) or any(
            not reach[c].isdisjoint(infinite) for c in comp
        ):
            infinite.update(comp)
            continue
        # The counts solve x = f(x), where f sums over the edges products of
        # sums (abstractions) and maxima (arguments) of counts, the lower
        # components' counts being constants; rounds from x = 0 rise to the
        # least solution.  A change in round r comes, through a term of the
        # maximizing choice whose other factors are nonzero, from a change
        # of some member in round r - 1.  Traced back from round n + 1
        # (n members), the changes repeat a member u, and the terms on that
        # cycle map a change of u to one at least as large a lap later, so
        # u then grows on every lap: no finite solution.  So only a cyclic
        # component iterates, at most n + 1 rounds.
        counts.update(dict.fromkeys(comp, 0))
        for _ in range(len(comp) + 1 if cyclic else 1):
            old, new = [counts[c] for c in comp], [_count(graph[c], counts) for c in comp]
            counts.update(zip(comp, new))
            if old == new or max(new) > COUNT_CUTOFF:
                break
        if max(new) > COUNT_CUTOFF or cyclic and old != new:
            infinite.update(comp)


def _count(edges: dict[str, Edge], counts) -> int:
    """A class's count: over its inhabited edges, the product of each
    abstraction's total and each argument's largest target count (an
    uninhabited class counts 0)."""
    total = 0
    for e in edges.values():
        if not e.unmet:
            n = 1
            for need in e.pis:
                n *= sum(counts.get(c, 0) for c in need)
            for ts, _, _ in e.args:
                n *= max((counts.get(c, 0) for c in ts), default=0)
            total += n
    return total


def _pinned_cycle(graph, comp: list) -> bool:
    """Whether the pinned edges among a component's classes form a cycle."""
    members = set(comp)
    pinned = {
        ck: {c for e in graph[ck].values() if not e.unmet for ts, pin, _ in e.args
             if pin and len(ts) == 1 for c in ts if c in members}
        for ck in comp
    }
    return any(len(p) > 1 or p[0] in pinned[p[0]] for p in _sccs(pinned))


def _sccs(succ: dict) -> list[list]:
    """Strongly connected components of a graph, each listed after every
    component it reaches (Tarjan 1972), with an explicit stack."""
    index, low, stack, out = {}, {}, [], []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] is not v:
                        comp.append(stack.pop())
                    index.update(dict.fromkeys(comp, len(succ)))  # done: no longer open
                    out.append(comp)
    return out


def compute_cardinality(sig: Signature) -> Signature:
    """Fill in per-class cardinalities.  Returns the same signature."""
    sig.analysis = Analysis(sig)
    return sig


# ----------------------------------------------------------------------
# Validation.


def _without_lookups(owner) -> dict:
    """owner's state for pickle and copy: its attributes but its lookup
    context (termrep._in_context), whose tables key Vars by id()."""
    return {k: v for k, v in owner.__dict__.items() if k != "_lookups"}


@dataclass
class ValidatedSignature:
    sig: Signature
    analysis: Analysis
    layouts: dict[str, tuple]  # per constructor; see _layout
    abbrev_index: dict[str, int | None]  # per abbreviation, its type's index

    __getstate__ = _without_lookups

    @property
    def decls(self) -> list[TypeDecl]:
        return self.sig.decls

    def index_kind(self, type_name: str):
        return self.analysis.kinds[type_name]

    def classes(self, type_name: str) -> tuple[IndexClass, ...]:
        return self.analysis.classes[type_name]

    def cardinality(self, type_name: str, cls: IndexClass) -> Cardinality:
        return self.analysis.card[(type_name, cls)]

    def pattern(self, ctor_name: str) -> tuple:
        return self.analysis.patterns[ctor_name]

    def class_of(self, type_name: str, index: int | None) -> IndexClass:
        """The class of (type, index), the one check of a target: TermError
        for an unknown type, an index on an unindexed type, a missing or
        negative index, or a finite index out of range."""
        if type_name not in self.analysis.kinds:
            raise TermError(f"unknown type {type_name!r}")
        kind = self.analysis.kinds[type_name]
        if kind is None:
            if index is not None:
                raise TermError(f"type {type_name} takes no index")
        elif index is None or index < 0:
            raise TermError(f"type {type_name} requires a nonnegative index")
        elif isinstance(kind, FiniteIndex) and index >= kind.count:
            raise TermError(
                f"index {index} out of range for type {type_name}"
                f" (0..{kind.count - 1})"
            )
        return _class_at(kind, index)

    def class_reps(self, type_name: str) -> list[tuple[IndexClass, list[int | None]]]:
        """Representative concrete indices per class, for verification:
        each class's least index, and 2 as well for the successor class."""
        return [
            (k, [1, 2] if k == S_CLASS else [k.value]) for k in self.analysis.classes[type_name]
        ]

    def index_value(self, ixtype: str, expr: IndexExpr) -> int | None:
        """Value of a closed index expression of type ixtype, None if ill-formed."""
        ana = self.analysis
        return _index_value(self.sig, ana.nat_shapes, ana.block_of, ixtype, expr, {})

    def arg_targets(
        self, ctor_name: str, index: int | None, index_args: tuple[int, ...] = ()
    ) -> tuple[tuple[str, int | None, tuple[tuple[str, int | None], ...]], ...]:
        """(type, index, binder keys) of each argument of a constructor at
        this index with these explicit index values; a binder key is the
        (type, index) of one variable that the argument binds."""
        applied, rules = self.layouts[ctor_name]
        if applied is not None:
            return applied
        return _apply_layout(rules, (index, *index_args))

    def ctors_for_class(
        self, type_name: str, cls: IndexClass
    ) -> tuple[FiniteBlock, tuple[Ctor, ...]]:
        """Finite-instance block and ordered infinite constructors of a class."""
        return self.analysis.partitions[(type_name, cls)]


def validate(sig: Signature) -> ValidatedSignature:
    """Check every well-formedness rule; raise SigValidationError listing
    all violations, or return the signature paired with its analysis.
    The faults the analysis found come first, then each type's index-kind
    faults in declaration order, then the rules read here from the
    analysis' graph, counts and partitions."""
    if sig.analysis is None:
        compute_cardinality(sig)
    ana = sig.analysis
    diags = dict(ana.deferred)
    # an index type whose instances need its own index values has no
    # instance block; the checks that evaluate its indices only restate that
    self_indexed = [d for d in diags if d.rule == "index-type"]
    if self_indexed:
        raise SigValidationError(self_indexed)
    diags.update(dict.fromkeys(chain.from_iterable(ana.kind_faults.values())))

    def add(rule: str, subject: str, message: str) -> None:
        diags.setdefault(Diagnostic(rule, subject, message))

    analyzed = [d for d in sig.decls if ana.kinds[d.name] != "invalid"]
    for decl in analyzed:
        for ctor in decl.ctors:
            _validate_ctor(ana, ctor, add)

    # an abbreviation's index follows a constructor's result-index rules
    abbrev_index = {}
    for ab in sig.abbrevs.values():
        kind = ana.kinds[ab.type_name]
        if kind != "invalid":
            abbrev_index[ab.name] = (
                None if kind is None else ana.constant(add, ab.name, ab.type_name, ab.index[0])
            )

    # uniformity: every class of an indexed family has the same cardinality
    for decl in analyzed:
        cards = [ana.card[(decl.name, k)] for k in ana.classes[decl.name]]
        if cards and any(c != cards[0] for c in cards[1:]):
            parts = ", ".join(
                f"{k.label}: {ana.card[(decl.name, k)]}"
                for k in ana.classes[decl.name]
            )
            add(
                "uniform",
                decl.name,
                f"indexed types must be uniform across index classes ({parts})",
            )

    if not diags:
        for t, k in ana.graph:
            (block, inf), card = ana.partitions[(t, k)], ana.card[(t, k)]
            if card.is_infinite and not inf:
                add(
                    "no-infinite-ctor",
                    t,
                    f"class {t}[{k.label}] is infinite (or its count"
                    f" exceeds {COUNT_CUTOFF}) but has no infinite"
                    " constructor to anchor decoding",
                )
            if card.is_finite and block.total != card.count:
                raise AssertionError(f"partition/count mismatch for {t}[{k.label}]")

    if diags:
        raise SigValidationError(diags)
    layouts = {c: _layout(ana.rules[c]) for c in sig.ctors}
    return ValidatedSignature(sig, ana, layouts, abbrev_index)


def _layout(rules: tuple) -> tuple:
    """A constructor's argument layout, (applied, rules), read by
    arg_targets: rules holds (type, slot, offset, binders) per argument
    and binders a (type, slot, offset) rule per bound variable (see
    Analysis._rule).  When no rule reads a slot, applied is the targets
    and rules is None."""
    for _, slot, _, binders in rules:
        if slot is not None or any(b[1] is not None for b in binders):
            return None, rules
    return _apply_layout(rules, ()), None


def _apply_layout(rules: tuple, slots: tuple) -> tuple:
    """The targets of _layout's rules at these slot values."""
    targets = []
    for type_name, slot, offset, binders in rules:
        keys = ()
        if binders:
            keys = tuple([(bt, bo if bs is None else slots[bs] + bo) for bt, bs, bo in binders])
        targets.append((type_name, offset if slot is None else slots[slot] + offset, keys))
    return tuple(targets)


def _partition(edges, card_map) -> tuple[FiniteBlock, tuple[Ctor, ...]]:
    """Finite-instance block of a class and, in declaration order, the
    constructors outside it: those with an abstraction, a binder, or an
    infinite or unknown slot.  Each edge records its slot kinds: a finite
    slot's radix, 0 for an infinite or unknown one."""
    entries = []
    infinite: list[Ctor] = []
    base = 0
    for e in edges:
        kinds, is_open = [], e.ctor.pi_args or any(a.binders for a in e.ctor.args)
        for targets, _, _ in e.args:
            cards = [card_map.get(c) for c in targets]
            if any(c is None or c.is_infinite for c in cards):
                is_open = True
                kinds.append(0)
            else:
                kinds.append(max((c.count if c.is_finite else 0 for c in cards), default=0))
        e.kinds = tuple(kinds)
        if is_open:
            infinite.append(e.ctor)
        else:
            count = prod(kinds)
            entries.append(FiniteCtorEntry(e.ctor.name, base, e.kinds, count))
            base += count
    return FiniteBlock(tuple(entries), base), tuple(infinite)


def _validate_ctor(ana: Analysis, ctor: Ctor, add) -> None:
    seen_vars = set()
    pat = ana.patterns[ctor.name]
    if pat[0] in ("var", "succ"):
        seen_vars.add(pat[1])
    for var, ptype, pix in ctor.pi_args:
        if var in seen_vars:
            add(
                "abstraction-var",
                ctor.name,
                f"abstracted variable {var!r} shadows another index variable",
            )
        seen_vars.add(var)
        if pix or ptype not in ana.nat_shapes:
            add(
                "abstraction-type",
                ctor.name,
                "explicit abstraction must range over a nat-shaped index type",
            )
        for e in ctor.result_index:
            if var in _expr_vars(e):
                add(
                    "abstraction-var",
                    ctor.name,
                    f"abstracted variable {var!r} cannot appear in the result index",
                )

    for k in ana.classes[ctor.family]:
        edge = ana.graph[(ctor.family, k)].get(ctor.name)
        if edge is None:  # ctor does not apply at k
            continue
        for a, (targets, _, binders) in zip(ctor.args, edge.args):
            for (bt, _), bkeys in zip(a.binders, binders):
                bcards = [ana.card.get(c) for c in bkeys]
                if not bcards or any(c is None or not c.is_infinite for c in bcards):
                    add(
                        "finite-binder",
                        ctor.name,
                        f"variables can only be of infinite type; {bt} is not"
                        " infinite in every reachable class",
                    )
            if a.binders:
                tcards = [ana.card.get(c) for c in targets]
                if not tcards or any(c is None or not c.is_infinite for c in tcards):
                    add(
                        "binder-target",
                        ctor.name,
                        f"an argument that binds variables must target an"
                        f" infinite type; {a.type_name} is not",
                    )
        # a constructor that takes a tag at k but has no instances there
        # would leave that tag's codes without terms
        if edge.unmet and ctor in ana.partitions[(ctor.family, k)][1]:
            add(
                "dead-ctor",
                ctor.name,
                f"constructor can never be applied at {ctor.family}"
                f"[{k.label}]: some argument type is uninhabited",
            )

