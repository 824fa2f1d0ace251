"""Signature syntax, index-class analysis, and well-formedness checking.

A signature is a sequence of declarations in a small LF-style syntax:

    nat : type.
    z : nat.
    s : nat -> nat.
    term : nat -> type.
    lam : (term z -> term N) -> term (s N).
    %% comments run to end of line

Types may be indexed by one other type.  Analysis groups the concrete
indices of each family into classes (unindexed types have a single
class; nat-shaped indices split into zero/successor; finite indices get
one class per value) and computes a cardinality per class.  Validation
then enforces the rules that make a per-class bijection with N
derivable, reporting one diagnostic per violated rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._walk import run_walk
from .errors import Diagnostic, SigSyntaxError, SigValidationError

# Counts above this are treated as infinite.  Classes whose true count
# overflows the cutoff get rejected later (no infinite constructor to
# anchor a decode), rather than silently miscoded.
COUNT_CUTOFF = 1 << 16

# ----------------------------------------------------------------------
# Lexer, shared with term parsing.

_PUNCT = set(":.()[]{}")
_OPERATORS = {"->", "<-", "="}
_IDENT_EXTRA = set("_'/+*<>=&^?!#@~|-")


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 4x per token
class Token:
    kind: str  # 'ident' | 'num' | 'punct' | 'op' | 'abbrev' | 'eof'
    text: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in _IDENT_EXTRA


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            if text.startswith("%%", i):
                while i < n and text[i] != "\n":
                    i += 1
                continue
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i + 1 : j]
            if word == "abbrev":
                toks.append(Token("abbrev", "%abbrev", line, col))
                col += j - i
                i = j
                continue
            raise SigSyntaxError(f"unsupported declaration %{word}", line, col)
        if ch in _PUNCT:
            toks.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if _is_ident_char(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            if word in _OPERATORS:
                kind = "op"
            elif word.isdigit():
                kind = "num"
            else:
                kind = "ident"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise SigSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ----------------------------------------------------------------------
# Surface expressions.  One grammar serves signature declarations, index
# expressions, and term text; each consumer restricts what it accepts.


@dataclass(frozen=True)
class SName:
    name: str
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SNum:
    value: int
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SApp:
    fn: "SExpr"
    args: tuple["SExpr", ...]


@dataclass(frozen=True)
class SArrow:
    arg: "SExpr"
    result: "SExpr"


@dataclass(frozen=True)
class SBind:
    var: str
    body: "SExpr"


@dataclass(frozen=True)
class SPi:
    var: str
    var_type: "SExpr"
    body: "SExpr"


@dataclass(frozen=True)
class SType:
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


SExpr = SName | SNum | SApp | SArrow | SBind | SPi | SType


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SigSyntaxError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def _starts_atom(self) -> bool:
        tok = self.peek()
        return tok.kind in ("ident", "num") or tok.text in ("(", "[")

    def expr(self) -> SExpr:
        """One expression; _expr, _pi, _app and _atom are walks (run_walk)."""
        return run_walk(self._expr())

    def _expr(self):
        if self.peek().text == "{":
            return (yield from self._pi())
        parts: list[tuple[str | None, SExpr]] = [(None, (yield from self._app()))]
        while self.peek().kind == "op" and self.peek().text in ("->", "<-"):
            op = self.advance().text
            if self.peek().text == "{":
                parts.append((op, (yield from self._pi())))
            else:
                parts.append((op, (yield from self._app())))
        return _build_arrows(parts)

    def _pi(self):
        self.expect("{")
        var_tok = self.peek()
        if var_tok.kind not in ("ident", "num"):
            self.fail("expected a variable name after '{'")
        self.advance()
        self.expect(":")
        var_type = yield self._expr()
        self.expect("}")
        body = yield self._expr()
        return SPi(var_tok.text, var_type, body)

    def _app(self):
        atoms = [(yield from self._atom())]
        while self._starts_atom():
            atoms.append((yield from self._atom()))
        if len(atoms) == 1:
            return atoms[0]
        return SApp(atoms[0], tuple(atoms[1:]))

    def _atom(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if tok.text == "type":
                return SType(tok.line, tok.col)
            return SName(tok.text, tok.line, tok.col)
        if tok.kind == "num":
            self.advance()
            return SNum(int(tok.text), tok.line, tok.col)
        if tok.text == "(":
            self.advance()
            inner = yield self._expr()
            self.expect(")")
            return inner
        if tok.text == "[":
            self.advance()
            var_tok = self.peek()
            if var_tok.kind not in ("ident", "num"):
                self.fail("expected a variable name after '['")
            self.advance()
            self.expect("]")
            # a binder extends as far right as possible; parenthesize it
            # when it is not the last argument
            body = yield self._expr()
            return SBind(var_tok.text, body)
        self.fail(f"unexpected {tok.text or 'end of input'!r}")


def _build_arrows(parts: list[tuple[str | None, SExpr]]) -> SExpr:
    # '->' is right-associative; 'a <- b' is 'b -> a' with '<-' binding
    # looser and associating left, so 'h <- p1 <- p2' is 'p2 -> p1 -> h'
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


def parse_term_text(text: str) -> SExpr:
    """Parse standalone term text into a surface expression."""
    p = _Parser(tokenize(text))
    e = p.expr()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return e


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
    line: int = 0
    col: int = 0


@dataclass
class TypeDecl:
    name: str
    index_types: tuple[str, ...]
    ctors: list[Ctor] = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class Abbrev:
    name: str
    type_name: str
    index: tuple[IndexExpr, ...]
    body: SExpr
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
    p = _Parser(tokenize(text))
    sig = Signature()
    while p.peek().kind != "eof":
        if p.peek().kind == "abbrev":
            _parse_abbrev(p, sig)
        else:
            _parse_decl(p, sig)
    _check_abbrev_cycles(sig)
    return sig


def _taken(sig: Signature, name: str) -> bool:
    return name in sig.by_name or name in sig.ctors or name in sig.abbrevs


def _parse_abbrev(p: _Parser, sig: Signature) -> None:
    p.advance()
    name_tok = p.peek()
    if name_tok.kind not in ("ident", "num"):
        p.fail("expected a name after %abbrev")
    p.advance()
    if _taken(sig, name_tok.text):
        p.fail(f"duplicate name {name_tok.text!r}", name_tok)
    p.expect(":")
    type_expr = p.expr()
    p.expect("=")
    body = p.expr()
    p.expect(".")
    type_name, index = _to_typeapp(p, sig, type_expr, name_tok)
    for e in index:
        for v in _expr_vars(e):
            p.fail(f"abbreviation type must be ground, found variable {v!r}", name_tok)
    sig.abbrevs[name_tok.text] = Abbrev(
        name_tok.text, type_name, index, body, name_tok.line, name_tok.col
    )


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
            if ctor is not None:  # explicit index arguments do not expand
                todo.extend((a, bound) for a in e.args[len(ctor.pi_args):])
    return uses


def _check_abbrev_cycles(sig: Signature) -> None:
    """Raise SigSyntaxError if an abbreviation's term expands through
    itself, which would never finish."""
    done: set[str] = set()
    for root in sig.abbrevs:
        if root in done:
            continue
        # a depth-first search: each abbreviation being expanded, in order,
        # with the uses in its body still to follow
        expanding = {root: iter(_abbrev_uses(sig, sig.abbrevs[root].body))}
        while expanding:
            name = next(next(reversed(expanding.values())), None)
            if name is None:
                done.add(expanding.popitem()[0])
            elif name in expanding:
                ab = sig.abbrevs[name]
                raise SigSyntaxError(
                    f"abbreviation {name!r} is defined in terms of itself", ab.line, ab.col
                )
            elif name not in done:
                expanding[name] = iter(_abbrev_uses(sig, sig.abbrevs[name].body))


def _parse_decl(p: _Parser, sig: Signature) -> None:
    name_tok = p.peek()
    if name_tok.kind not in ("ident", "num"):
        p.fail(f"expected a declaration, found {name_tok.text or 'end of input'!r}")
    p.advance()
    name = name_tok.text
    if _taken(sig, name):
        p.fail(f"duplicate name {name!r}", name_tok)
    p.expect(":")
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
                p.fail("index kinds must be type names", name_tok)
            if head.name not in sig.by_name:
                p.fail(f"unknown type {head.name!r}", name_tok)
            index_types.append(head.name)
        decl = TypeDecl(name, tuple(index_types), [], name_tok.line, name_tok.col)
        sig.decls.append(decl)
        sig.by_name[name] = decl
        return

    pis = []
    while isinstance(e, SPi):
        pis.append(e)
        e = e.body
    # abstraction names are variables wherever they occur in the declaration
    pivars = {pi.var for pi in pis}
    pi_args = [(x.var, *_to_typeapp(p, sig, x.var_type, name_tok, pivars)) for x in pis]
    premises, result = _split_arrows(e)
    if any(isinstance(x, SPi) for x in premises) or isinstance(result, SPi):
        p.fail("explicit abstraction must precede all arguments", name_tok)
    family, result_index = _to_typeapp(p, sig, result, name_tok, pivars)
    args = tuple(_to_arg(p, sig, prem, name_tok, pivars) for prem in premises)

    ctor = Ctor(
        name, family, result_index, tuple(pi_args), args, name_tok.line, name_tok.col
    )
    sig.by_name[family].ctors.append(ctor)
    sig.ctors[name] = ctor


def _split_arrows(e: SExpr) -> tuple[list[SExpr], SExpr]:
    premises = []
    while isinstance(e, SArrow):
        premises.append(e.arg)
        e = e.result
    return premises, e


def _to_arg(p: _Parser, sig: Signature, e: SExpr, tok: Token, pivars) -> Arg:
    if isinstance(e, SArrow):
        parts, target = _split_arrows(e)
        binders = []
        for part in parts:
            if isinstance(part, SArrow):
                p.fail("binder arguments must be first-order", tok)
            bt, bix = _to_typeapp(p, sig, part, tok, pivars)
            binders.append((bt, bix))
        t, ix = _to_typeapp(p, sig, target, tok, pivars)
        return Arg(tuple(binders), t, ix)
    t, ix = _to_typeapp(p, sig, e, tok, pivars)
    return Arg((), t, ix)


def _to_typeapp(
    p: _Parser, sig: Signature, e: SExpr, tok: Token, pivars=frozenset()
) -> tuple[str, tuple[IndexExpr, ...]]:
    if isinstance(e, SName):
        head, atoms = e, ()
    elif isinstance(e, SApp) and isinstance(e.fn, SName):
        head, atoms = e.fn, e.args
    else:
        p.fail("expected a type, possibly applied to index arguments", tok)
    if head.name not in sig.by_name:
        p.fail(f"unknown type {head.name!r}", head if head.line else tok)
    decl = sig.by_name[head.name]
    if len(atoms) != len(decl.index_types):
        p.fail(
            f"type {head.name!r} expects {len(decl.index_types)} index"
            f" argument(s), got {len(atoms)}",
            head if head.line else tok,
        )
    return head.name, tuple(
        run_walk(_to_index_expr(p, sig, a, tok, pivars, ())) for a in atoms
    )


def _to_index_expr(p: _Parser, sig: Signature, e: SExpr, tok: Token, pivars, expanding):
    """Walk: the index expression e spells.  Upper-case names and the
    abstraction names pivars are variables; abbreviations expand in place,
    expanding holding those whose bodies are being expanded."""
    if isinstance(e, SNum):
        return IxNum(e.value)
    if isinstance(e, SName):
        if e.name[0].isupper():
            return IxVar(e.name)
        if e.name in sig.abbrevs:
            # in index position the body must itself be an index expression
            body = sig.abbrevs[e.name].body
            if isinstance(body, (SBind, SPi, SArrow, SType)):
                p.fail(
                    f"abbreviation {e.name!r} cannot be used in an index expression", tok
                )
            if e.name in expanding:
                p.fail(f"abbreviation {e.name!r} is defined in terms of itself", tok)
            expanding += (e.name,)
            return (yield _to_index_expr(p, sig, body, tok, pivars, expanding))
        return IxVar(e.name) if e.name in pivars else IxCon(e.name)
    if isinstance(e, SApp) and isinstance(e.fn, SName):
        if e.fn.name[0].isupper():
            p.fail(f"index variable {e.fn.name!r} cannot be applied", tok)
        args = []
        for a in e.args:
            args.append((yield _to_index_expr(p, sig, a, tok, pivars, expanding)))
        return IxCon(e.fn.name, tuple(args))
    p.fail("invalid index expression", tok)


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
    value: int | None = None

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
Z_CLASS = IndexClass("z")
S_CLASS = IndexClass("s")


def fin_class(value: int) -> IndexClass:
    return IndexClass("fin", value)


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

    def entry_for(self, ctor_name: str) -> FiniteCtorEntry | None:
        for e in self.entries:
            if e.ctor_name == ctor_name:
                return e
        return None

    def entry_at(self, offset: int) -> tuple[FiniteCtorEntry, int]:
        for e in self.entries:
            if offset < e.base + e.count:
                return e, offset - e.base
        raise IndexError(offset)


@dataclass
class Analysis:
    kinds: dict[str, object]  # None | NatIndex | FiniteIndex | 'multi' | 'invalid'
    classes: dict[str, tuple[IndexClass, ...]]
    card: dict[tuple[str, IndexClass], Cardinality]
    patterns: dict[str, tuple]
    nat_shapes: dict[str, NatIndex]  # the types with a zero and a successor
    deferred: list[Diagnostic]
    nat_literal: NatIndex | None


def _nat_shape(decl: TypeDecl) -> NatIndex | None:
    """Detect a type with exactly a zero and a self-successor constructor."""
    if decl.index_types or len(decl.ctors) != 2:
        return None
    zero = succ = None
    for c in decl.ctors:
        if c.pi_args:
            return None
        if not c.args:
            if zero is not None:
                return None
            zero = c.name
        elif (
            len(c.args) == 1
            and not c.args[0].binders
            and c.args[0].type_name == decl.name
        ):
            if succ is not None:
                return None
            succ = c.name
        else:
            return None
    if zero is None or succ is None:
        return None
    return NatIndex(decl.name, zero, succ)


def applies(pattern: tuple, cls: IndexClass) -> bool:
    """Whether a constructor with this result pattern builds terms of cls."""
    if pattern[0] == "unit":
        return cls.kind == "unit"
    if pattern[0] == "zero":
        return cls.kind == "z"
    if pattern[0] == "succ":
        return cls.kind == "s"
    if pattern[0] == "var":
        return cls.kind != "unit"
    if pattern[0] == "const":
        return cls.kind == "fin" and cls.value == pattern[1]
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
    of finite type t, or None while its count is unknown."""
    shape = nat_shapes.get(ixtype)
    succs = 0
    if shape is not None:
        expr, succs = _succ_chain(expr, shape)
    if isinstance(expr, IxNum):
        return expr.value + succs
    if isinstance(expr, IxVar):
        value = binding.get(expr.name)
        return None if value is None else value + succs
    if shape is not None:
        return succs if expr.name == shape.zero and not expr.args else None
    block = block_of(ixtype)
    entry = block.entry_for(expr.name) if block is not None else None
    if entry is None or len(expr.args) != len(entry.radices):
        return None
    offset = 0
    for sub_expr, radix, arg in zip(expr.args, entry.radices, sig.ctors[expr.name].args):
        sub = _index_value(sig, nat_shapes, block_of, arg.type_name, sub_expr, binding)
        if sub is None or sub >= radix:
            return None
        offset = offset * radix + sub
    return entry.base + offset


class _Analyzer:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.nat_shapes = {
            d.name: shape for d in sig.decls if (shape := _nat_shape(d)) is not None
        }
        self.raw_kinds: dict[str, object] = {}
        for d in sig.decls:
            if len(d.index_types) == 0:
                self.raw_kinds[d.name] = None
            elif len(d.index_types) == 1:
                xname = d.index_types[0]
                xdecl = sig.by_name.get(xname)
                if xdecl is None or xdecl.index_types:
                    self.raw_kinds[d.name] = "invalid"
                else:
                    shape = self.nat_shapes.get(xname)
                    self.raw_kinds[d.name] = shape if shape else ("fin?", xname)
            else:
                self.raw_kinds[d.name] = "multi"

    def defer(self, rule: str, subject: str, message: str) -> None:
        d = Diagnostic(rule, subject, message)
        if d not in self._seen:
            self._seen.add(d)
            self.diags.append(d)

    # ---- per-round state

    def _setup_round(self, prev_card) -> None:
        # each round reports afresh; the stable round's list is the result
        self.diags: list[Diagnostic] = []
        self._seen: set[Diagnostic] = set()
        self.kinds = {}
        self.classes = {}
        for d in self.sig.decls:
            raw = self.raw_kinds[d.name]
            if raw is None:
                self.kinds[d.name] = None
                self.classes[d.name] = (UNIT_CLASS,)
            elif isinstance(raw, NatIndex):
                self.kinds[d.name] = raw
                self.classes[d.name] = (Z_CLASS, S_CLASS)
            elif isinstance(raw, tuple) and raw[0] == "fin?":
                xcard = prev_card.get((raw[1], UNIT_CLASS))
                if xcard is not None and xcard.is_finite:
                    self.kinds[d.name] = FiniteIndex(raw[1], xcard.count)
                    self.classes[d.name] = tuple(
                        fin_class(v) for v in range(xcard.count)
                    )
                else:
                    self.kinds[d.name] = "invalid"
                    self.classes[d.name] = ()
            else:
                self.kinds[d.name] = raw
                self.classes[d.name] = ()
        self.prev_card = prev_card
        self._pattern_cache: dict[str, tuple] = {}
        self._building: set[str] = set()  # index types whose block is being built

    def pattern_of(self, ctor: Ctor) -> tuple:
        if ctor.name in self._pattern_cache:
            return self._pattern_cache[ctor.name]
        pat = self._compute_pattern(ctor)
        self._pattern_cache[ctor.name] = pat
        return pat

    def _compute_pattern(self, ctor: Ctor) -> tuple:
        kind = self.kinds.get(ctor.family)
        if kind is None:
            return ("unit",)
        if kind in ("multi", "invalid"):
            return ("invalid",)
        expr = ctor.result_index[0]
        if isinstance(kind, NatIndex):
            if isinstance(expr, IxVar):
                return ("var", expr.name)
            if isinstance(expr, IxNum):
                if expr.value == 0:
                    return ("zero",)
                self.defer(
                    "pattern",
                    ctor.name,
                    "result index must use at most one level of matching"
                    " (zero, successor of a variable, or a variable)",
                )
                return ("invalid",)
            if isinstance(expr, IxCon):
                if expr.name == kind.zero and not expr.args:
                    return ("zero",)
                if (
                    expr.name == kind.succ
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
        # finite index: a concrete value or a bare variable
        if isinstance(expr, IxVar):
            return ("var", expr.name)
        value = _index_value(
            self.sig, self.nat_shapes, self._index_block, kind.type_name, expr, {}
        )
        if value is None:
            self.defer(
                "index-expr",
                ctor.name,
                f"invalid index expression for type {ctor.family}",
            )
            return ("pending",)
        if value >= kind.count:
            self.defer(
                "index-out-of-range",
                ctor.name,
                f"index {value} out of range for type {ctor.family}",
            )
        return ("const", value)

    def _index_block(self, t: str) -> FiniteBlock | None:
        """Instance block of finite type t under the previous round's counts."""
        card = self.prev_card.get((t, UNIT_CLASS))
        if card is None or not card.is_finite:
            return None
        if t in self._building:
            # t's block would need the value of an index of type t
            self.defer(
                "index-type",
                t,
                f"the instances of index type {t} depend on index values of type {t}",
            )
            return None
        self._building.add(t)
        block = self._build_block(t, UNIT_CLASS, self.prev_card)[0]
        self._building.remove(t)
        return block

    def _build_block(
        self, t: str, k: IndexClass, card_map
    ) -> tuple[FiniteBlock, tuple[Ctor, ...]]:
        """Finite-instance block of class k and, in declaration order, the
        constructors outside it: those with an infinite or unknown slot."""
        entries = []
        infinite: list[Ctor] = []
        base = 0
        decl = self.sig.by_name[t]
        for ctor in decl.ctors:
            if not applies(self.pattern_of(ctor), k):
                continue
            if ctor.pi_args or any(a.binders for a in ctor.args):
                infinite.append(ctor)
                continue
            radices = []
            ok = True
            for a in ctor.args:
                classes, _ = self.eval_classes(ctor, k, a.type_name, a.index)
                counts = []
                for c in classes:
                    cc = card_map.get((a.type_name, c))
                    if cc is None or cc.is_infinite:
                        ok = False
                        break
                    counts.append(cc.count if cc.is_finite else 0)
                if not ok:
                    break
                radices.append(max(counts) if counts else 0)
            if not ok:
                infinite.append(ctor)
                continue
            count = 1
            for r in radices:
                count *= r
            entries.append(FiniteCtorEntry(ctor.name, base, tuple(radices), count))
            base += count
        return FiniteBlock(tuple(entries), base), tuple(infinite)

    def _var_ctx(self, ctor: Ctor, k: IndexClass) -> dict[str, tuple]:
        """Map index variables to abstract bindings at class k."""
        ctx: dict[str, tuple] = {}
        kind = self.kinds.get(ctor.family)
        pat = self.pattern_of(ctor)
        ixt = kind.type_name if isinstance(kind, (NatIndex, FiniteIndex)) else None
        if pat[0] == "var":
            ctx[pat[1]] = ("cur", ixt, k)
        elif pat[0] == "succ":
            ctx[pat[1]] = ("pred", ixt)
        for var, ptype, _ in ctor.pi_args:
            ctx[var] = ("any", ptype)
        return ctx

    def eval_classes(
        self,
        ctor: Ctor,
        k: IndexClass,
        target_type: str,
        index: tuple[IndexExpr, ...],
    ) -> tuple[frozenset[IndexClass], bool]:
        """Classes an argument occurrence can land in, plus whether the
        concrete index is pinned (a constant, or identical to the source's)."""
        tkind = self.kinds.get(target_type)
        if tkind in ("multi", "invalid") or tkind is None and index:
            return frozenset(), False
        if tkind is None:
            return frozenset((UNIT_CLASS,)), True
        if not index:
            return frozenset(), False
        ctx = self._var_ctx(ctor, k)
        return self._eval_expr(ctor, target_type, tkind, index[0], ctx)

    def _eval_expr(
        self, ctor: Ctor, target_type: str, tkind, expr: IndexExpr, ctx
    ) -> tuple[frozenset[IndexClass], bool]:
        if isinstance(expr, IxVar):
            binding = ctx.get(expr.name)
            if binding is None:
                self.defer(
                    "unbound-index-var",
                    ctor.name,
                    f"index variable {expr.name!r} is not bound by the result"
                    " pattern or an explicit abstraction",
                )
                return frozenset(), False
            if binding[1] != tkind.type_name:
                self.defer(
                    "wrong-index-type",
                    ctor.name,
                    f"index variable {expr.name!r} has type {binding[1]},"
                    f" used where {tkind.type_name} is required",
                )
                return frozenset(), False
            if binding[0] == "cur":
                return frozenset((binding[2],)), True
            if binding[0] == "pred":
                return frozenset((Z_CLASS, S_CLASS)), False
            # 'any': abstraction-bound, ranges over its whole type
            if isinstance(tkind, NatIndex):
                return frozenset((Z_CLASS, S_CLASS)), False
            return frozenset(fin_class(v) for v in range(tkind.count)), False
        if isinstance(tkind, NatIndex):
            if isinstance(expr, IxNum):
                return frozenset((Z_CLASS if expr.value == 0 else S_CLASS,)), True
            if isinstance(expr, IxCon):
                if expr.name == tkind.zero and not expr.args:
                    return frozenset((Z_CLASS,)), True
                inner, succs = _succ_chain(expr, tkind)
                if succs:
                    _, concrete = self._eval_expr(ctor, target_type, tkind, inner, ctx)
                    # s e is pinned only when e is a constant; the source's
                    # index under s shifts the value, which unpins it
                    pinned = concrete and not isinstance(inner, IxVar)
                    return frozenset((S_CLASS,)), pinned
            self.defer(
                "index-expr",
                ctor.name,
                f"invalid index expression for type {target_type}",
            )
            return frozenset(), False
        # finite target
        if isinstance(expr, IxNum):
            if expr.value < tkind.count:
                return frozenset((fin_class(expr.value),)), True
            self.defer(
                "index-out-of-range",
                ctor.name,
                f"index {expr.value} out of range for type {target_type}",
            )
            return frozenset(), False
        value = _index_value(
            self.sig, self.nat_shapes, self._index_block, tkind.type_name, expr, {}
        )
        if value is None:
            self.defer(
                "index-expr",
                ctor.name,
                f"invalid index expression for type {target_type}",
            )
            return frozenset(), False
        if value >= tkind.count:
            self.defer(
                "index-out-of-range",
                ctor.name,
                f"index value {value} out of range for type {target_type}",
            )
            return frozenset(), False
        return frozenset((fin_class(value),)), True

    # ---- fixed point

    def _fixpoint(self) -> dict[tuple[str, IndexClass], Cardinality]:
        all_classes = [
            (d.name, k) for d in self.sig.decls for k in self.classes[d.name]
        ]
        inhab: dict[tuple[str, IndexClass], bool] = {ck: False for ck in all_classes}
        changed = True
        while changed:
            changed = False
            for t, k in all_classes:
                if inhab[(t, k)]:
                    continue
                for ctor in self.sig.by_name[t].ctors:
                    if applies(self.pattern_of(ctor), k) and self._ctor_inhabited(
                        ctor, k, inhab
                    ):
                        inhab[(t, k)] = True
                        changed = True
                        break

        infinite: set[tuple[str, IndexClass]] = set()
        while True:
            before = len(infinite)
            self._cycle_pass(all_classes, inhab, infinite)
            self._propagate_pass(all_classes, inhab, infinite)
            counts = self._count_pass(all_classes, inhab, infinite)
            if len(infinite) == before:
                break

        card: dict[tuple[str, IndexClass], Cardinality] = {}
        for ck in all_classes:
            if not inhab[ck]:
                card[ck] = EMPTY
            elif ck in infinite:
                card[ck] = INFINITE
            else:
                card[ck] = finite(counts[ck])
        return card

    def _ctor_inhabited(self, ctor: Ctor, k: IndexClass, inhab) -> bool:
        for _, ptype, _ in ctor.pi_args:
            if not any(
                inhab.get((ptype, pk), False) for pk in self.classes.get(ptype, ())
            ):
                return False
        for a in ctor.args:
            targets, _ = self.eval_classes(ctor, k, a.type_name, a.index)
            ok = any(inhab.get((a.type_name, c), False) for c in targets)
            if not ok:
                # a bound variable of the right type also provides a body
                for bt, bix in a.binders:
                    bclasses, _ = self.eval_classes(ctor, k, bt, bix)
                    if bt == a.type_name and bclasses & targets:
                        ok = True
                        break
            if not ok:
                return False
        return True

    def _edges(self, t: str, k: IndexClass, inhab):
        """Concrete-index containment edges used for cycle detection."""
        out = []
        for ctor in self.sig.by_name[t].ctors:
            if not applies(self.pattern_of(ctor), k):
                continue
            if not self._ctor_inhabited(ctor, k, inhab):
                continue
            for a in ctor.args:
                targets, pinned = self.eval_classes(ctor, k, a.type_name, a.index)
                if pinned and len(targets) == 1:
                    (tc,) = targets
                    if inhab.get((a.type_name, tc), False):
                        out.append((a.type_name, tc))
        return out

    def _cycle_pass(self, all_classes, inhab, infinite) -> None:
        graph = {
            ck: self._edges(ck[0], ck[1], inhab) for ck in all_classes if inhab[ck]
        }
        for start in graph:
            if start in infinite:
                continue
            # can we get back to start following at least one edge?
            stack = list(graph.get(start, ()))
            seen = set()
            while stack:
                node = stack.pop()
                if node == start:
                    infinite.add(start)
                    break
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(graph.get(node, ()))

    def _propagate_pass(self, all_classes, inhab, infinite) -> None:
        changed = True
        while changed:
            changed = False
            for t, k in all_classes:
                if (t, k) in infinite or not inhab[(t, k)]:
                    continue
                if self._class_forced_infinite(t, k, inhab, infinite):
                    infinite.add((t, k))
                    changed = True

    def _class_forced_infinite(self, t, k, inhab, infinite) -> bool:
        for ctor in self.sig.by_name[t].ctors:
            if not applies(self.pattern_of(ctor), k):
                continue
            if not self._ctor_inhabited(ctor, k, inhab):
                continue
            for _, ptype, _ in ctor.pi_args:
                if any(
                    (ptype, pk) in infinite for pk in self.classes.get(ptype, ())
                ):
                    return True
            for a in ctor.args:
                targets, _ = self.eval_classes(ctor, k, a.type_name, a.index)
                if any((a.type_name, c) in infinite for c in targets):
                    return True
                for bt, bix in a.binders:
                    bclasses, _ = self.eval_classes(ctor, k, bt, bix)
                    if any((bt, c) in infinite for c in bclasses):
                        return True
        return False

    def _count_pass(self, all_classes, inhab, infinite):
        live = [ck for ck in all_classes if inhab[ck] and ck not in infinite]
        counts = {ck: 0 for ck in live}

        def class_count(t, classes) -> int:
            vals = []
            for c in classes:
                if (t, c) in infinite:
                    return COUNT_CUTOFF + 1
                if not inhab.get((t, c), False):
                    vals.append(0)
                else:
                    vals.append(counts.get((t, c), 0))
            return max(vals) if vals else 0

        changed = True
        while changed:
            changed = False
            for t, k in live:
                total = 0
                for ctor in self.sig.by_name[t].ctors:
                    if not applies(self.pattern_of(ctor), k):
                        continue
                    contrib = 1
                    for _, ptype, _ in ctor.pi_args:
                        factor = sum(
                            counts.get((ptype, pk), 0)
                            for pk in self.classes.get(ptype, ())
                            if inhab.get((ptype, pk), False)
                        )
                        contrib *= factor
                    for a in ctor.args:
                        targets, _ = self.eval_classes(ctor, k, a.type_name, a.index)
                        contrib *= class_count(a.type_name, targets)
                    total += contrib
                    if total > COUNT_CUTOFF:
                        break
                if total > COUNT_CUTOFF:
                    infinite.add((t, k))
                    for ck in list(counts):
                        if ck == (t, k):
                            del counts[ck]
                    return counts  # caller reruns the closure passes
                if total != counts[(t, k)]:
                    counts[(t, k)] = total
                    changed = True
        return counts

    # ---- driver

    def run(self) -> Analysis:
        prev: dict[tuple[str, IndexClass], Cardinality] = {}
        for _ in range(10):
            self._setup_round(prev)
            card = self._fixpoint()
            if card == prev:
                break
            prev = card
        else:
            raise SigValidationError(
                [Diagnostic("analysis", "signature", "index analysis did not stabilize")]
            )
        patterns = {c: self.pattern_of(self.sig.ctors[c]) for c in self.sig.ctors}

        nat_literal = None
        shape = self.nat_shapes.get("nat")
        if shape is not None and shape.zero == "z" and shape.succ == "s":
            nat_literal = shape

        return Analysis(
            kinds=dict(self.kinds),
            classes=dict(self.classes),
            card=card,
            patterns=patterns,
            nat_shapes=self.nat_shapes,
            deferred=list(self.diags),
            nat_literal=nat_literal,
        )


def compute_cardinality(sig: Signature) -> Signature:
    """Fill in per-class cardinalities.  Returns the same signature."""
    sig.analysis = _Analyzer(sig).run()
    return sig


# ----------------------------------------------------------------------
# Validation.


@dataclass
class ValidatedSignature:
    sig: Signature
    analysis: Analysis
    partitions: dict[tuple[str, IndexClass], tuple[FiniteBlock, tuple[Ctor, ...]]]
    family_card: dict[str, Cardinality]  # uniformity: one per family
    layouts: dict[str, tuple]  # per constructor; see _compile_layout

    @property
    def decls(self) -> list[TypeDecl]:
        return self.sig.decls

    def decl(self, type_name: str) -> TypeDecl:
        return self.sig.by_name[type_name]

    def has_type(self, type_name: str) -> bool:
        return type_name in self.sig.by_name

    def index_kind(self, type_name: str):
        return self.analysis.kinds[type_name]

    def classes(self, type_name: str) -> tuple[IndexClass, ...]:
        return self.analysis.classes[type_name]

    def cardinality(self, type_name: str, cls: IndexClass) -> Cardinality:
        return self.analysis.card[(type_name, cls)]

    def pattern(self, ctor_name: str) -> tuple:
        return self.analysis.patterns[ctor_name]

    def class_of(self, type_name: str, index: int | None) -> IndexClass:
        kind = self.analysis.kinds[type_name]
        if kind is None:
            if index is not None:
                raise ValueError(f"type {type_name} takes no index")
            return UNIT_CLASS
        if index is None or index < 0:
            raise ValueError(f"type {type_name} requires a nonnegative index")
        if isinstance(kind, NatIndex):
            return Z_CLASS if index == 0 else S_CLASS
        if index >= kind.count:
            raise ValueError(
                f"index {index} out of range for type {type_name}"
                f" (0..{kind.count - 1})"
            )
        return fin_class(index)

    def class_reps(self, type_name: str) -> list[tuple[IndexClass, list[int | None]]]:
        """Representative concrete indices per class, for verification."""
        kind = self.analysis.kinds[type_name]
        if kind is None:
            return [(UNIT_CLASS, [None])]
        if isinstance(kind, NatIndex):
            return [(Z_CLASS, [0]), (S_CLASS, [1, 2])]
        return [(fin_class(v), [v]) for v in range(kind.count)]

    def index_value(
        self, ixtype: str, expr: IndexExpr, binding: dict[str, int]
    ) -> int | None:
        """Value of an index expression of type ixtype, None if ill-formed."""
        return _index_value(
            self.sig, self.analysis.nat_shapes, self._index_block, ixtype, expr, binding
        )

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

    def _index_block(self, type_name: str) -> FiniteBlock:
        return self.partitions[(type_name, UNIT_CLASS)][0]

    def ctors_for_class(
        self, type_name: str, cls: IndexClass
    ) -> tuple[FiniteBlock, tuple[Ctor, ...]]:
        """Finite-instance block and ordered infinite constructors of a class."""
        return self.partitions[(type_name, cls)]


def validate(sig: Signature) -> ValidatedSignature:
    """Check every well-formedness rule; raise SigValidationError listing
    all violations, or return the signature paired with its analysis."""
    analyzer = _Analyzer(sig)
    if sig.analysis is None:
        sig.analysis = analyzer.run()
    else:
        analyzer._setup_round(sig.analysis.card)
    ana = sig.analysis
    diags: list[Diagnostic] = list(ana.deferred)
    # an index type whose instances need its own index values has no
    # instance block; the checks that evaluate its indices only restate that
    self_indexed = [d for d in diags if d.rule == "index-type"]
    if self_indexed:
        raise SigValidationError(self_indexed)

    def add(rule: str, subject: str, message: str) -> None:
        d = Diagnostic(rule, subject, message)
        if d not in diags:
            diags.append(d)

    for decl in sig.decls:
        kind = ana.kinds[decl.name]
        if kind == "multi":
            add(
                "single-index",
                decl.name,
                f"indexed types must take exactly one index,"
                f" {decl.name} takes {len(decl.index_types)}",
            )
            continue
        if kind == "invalid":
            xname = decl.index_types[0]
            xdecl = sig.by_name.get(xname)
            if xdecl is not None and xdecl.index_types:
                add(
                    "index-type",
                    decl.name,
                    f"index type {xname} is itself indexed; indices must be"
                    " nat-shaped or finite unindexed types",
                )
            else:
                xcard = ana.card.get((xname, UNIT_CLASS))
                detail = f" ({xcard})" if xcard is not None else ""
                add(
                    "index-type",
                    decl.name,
                    f"index type {xname} must be nat-shaped or finite{detail}",
                )
            continue
        if isinstance(kind, FiniteIndex):
            xdecl = sig.by_name[kind.type_name]
            if any(a.binders for c in xdecl.ctors for a in c.args) or any(
                c.pi_args for c in xdecl.ctors
            ):
                add(
                    "index-type",
                    decl.name,
                    f"index type {kind.type_name} may not use binders",
                )
            if kind.count == 0:
                add(
                    "index-type",
                    decl.name,
                    f"index type {kind.type_name} is uninhabited",
                )

    analyzed = {d.name for d in sig.decls if ana.kinds[d.name] not in ("multi", "invalid")}

    for decl in sig.decls:
        if decl.name not in analyzed:
            continue
        for ctor in decl.ctors:
            _validate_ctor(analyzer, ctor, add)

    # an abbreviation's index follows a constructor's result-index rules
    for ab in sig.abbrevs.values():
        kind = ana.kinds[ab.type_name]
        if ab.type_name not in analyzed or kind is None:
            continue
        value = _index_value(
            sig, ana.nat_shapes, analyzer._index_block, kind.type_name, ab.index[0], {}
        )
        if value is None:
            add("index-expr", ab.name, f"invalid index expression for type {ab.type_name}")
        elif isinstance(kind, FiniteIndex) and value >= kind.count:
            add(
                "index-out-of-range",
                ab.name,
                f"index {value} out of range for type {ab.type_name}",
            )

    # uniformity: every class of an indexed family has the same cardinality
    for decl in sig.decls:
        if decl.name not in analyzed:
            continue
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

    partitions: dict[tuple[str, IndexClass], tuple[FiniteBlock, tuple[Ctor, ...]]] = {}
    if not diags:
        for decl in sig.decls:
            for k in ana.classes[decl.name]:
                block, inf = analyzer._build_block(decl.name, k, ana.card)
                partitions[(decl.name, k)] = (block, inf)
                card = ana.card[(decl.name, k)]
                if card.is_infinite and not inf:
                    add(
                        "no-infinite-ctor",
                        decl.name,
                        f"class {decl.name}[{k.label}] is infinite (or its count"
                        f" exceeds {COUNT_CUTOFF}) but has no infinite"
                        " constructor to anchor decoding",
                    )
                if len(inf) > 12:
                    add(
                        "tag-bound",
                        decl.name,
                        f"class {decl.name}[{k.label}] has {len(inf)} infinite"
                        " constructors; at most 12 are supported",
                    )
                if card.is_finite and block.total != card.count:
                    raise AssertionError(
                        f"partition/count mismatch for {decl.name}[{k.label}]"
                    )

    if diags:
        raise SigValidationError(diags)
    family_card = {t: ana.card[(t, classes[0])] for t, classes in ana.classes.items()}
    vsig = ValidatedSignature(sig, ana, partitions, family_card, {})
    vsig.layouts.update((c.name, _compile_layout(vsig, c)) for c in sig.ctors.values())
    return vsig


def _compile_layout(vsig: ValidatedSignature, ctor: Ctor) -> tuple:
    """ctor's argument layout, (applied, rules), read by arg_targets.

    rules holds (type, slot, offset, binders) per argument and binders
    (type, slot, offset) per bound variable.  The index is offset itself
    when slot is None (None for an unindexed type), else the value in
    slot plus offset.  Slot 0 holds the parent's index and slot 1 + i
    explicit index value i; under a successor pattern s N, N is slot 0
    with offset -1.  When no rule reads a slot, applied is the targets.
    """
    ana = vsig.analysis
    pat = ana.patterns[ctor.name]
    slots = {var: 1 + i for i, (var, _, _) in enumerate(ctor.pi_args)}
    if pat[0] in ("var", "succ"):
        slots[pat[1]] = 0
    read = []  # the slots that some rule reads

    def rule(type_name: str, index: tuple[IndexExpr, ...]) -> tuple:
        kind = ana.kinds[type_name]
        if kind is None:
            return type_name, None, None
        expr, succs = index[0], 0
        if isinstance(kind, NatIndex):
            expr, succs = _succ_chain(expr, kind)
        if isinstance(expr, IxVar) and expr.name in slots:
            slot = slots[expr.name]
            read.append(slot)
            return type_name, slot, succs - 1 if slot == 0 and pat[0] == "succ" else succs
        value = vsig.index_value(kind.type_name, index[0], {})
        if value is None:  # the validator rejects every other form
            raise AssertionError(f"irreducible index expression in {ctor.name}")
        return type_name, None, value

    rules = tuple([
        (*rule(a.type_name, a.index), tuple([rule(bt, bix) for bt, bix in a.binders]))
        for a in ctor.args
    ])
    return (None, rules) if read else (_apply_layout(rules, ()), None)


def _apply_layout(rules: tuple, slots: tuple) -> tuple:
    """The targets of _compile_layout's rules at these slot values."""
    targets = []
    for type_name, slot, offset, binders in rules:
        keys = ()
        if binders:
            keys = tuple([(bt, bo if bs is None else slots[bs] + bo) for bt, bs, bo in binders])
        targets.append((type_name, offset if slot is None else slots[slot] + offset, keys))
    return tuple(targets)


def _validate_ctor(analyzer: _Analyzer, ctor: Ctor, add) -> None:
    sig, ana = analyzer.sig, analyzer.sig.analysis
    first_diag = len(analyzer.diags)
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

    classes = [k for k in ana.classes[ctor.family] if applies(pat, k)]
    for k in classes:
        for a in ctor.args:
            targets, _ = analyzer.eval_classes(ctor, k, a.type_name, a.index)
            tcards = [ana.card.get((a.type_name, c)) for c in targets]
            for bt, bix in a.binders:
                bclasses, _ = analyzer.eval_classes(ctor, k, bt, bix)
                bcards = [ana.card.get((bt, c)) for c in bclasses]
                if not bcards or any(c is None or not c.is_infinite for c in bcards):
                    add(
                        "finite-binder",
                        ctor.name,
                        f"variables can only be of infinite type; {bt} is not"
                        " infinite in every reachable class",
                    )
            if a.binders:
                if not tcards or any(c is None or not c.is_infinite for c in tcards):
                    add(
                        "binder-target",
                        ctor.name,
                        f"an argument that binds variables must target an"
                        f" infinite type; {a.type_name} is not",
                    )
        # an infinite-partition constructor none of whose instances exist
        # would still occupy a tag and break surjectivity
        if _is_infinite_partition(sig, ana, ctor):
            inhab_map = {
                ck: not c.is_empty for ck, c in ana.card.items()
            }
            if not analyzer._ctor_inhabited(ctor, k, inhab_map):
                add(
                    "dead-ctor",
                    ctor.name,
                    f"constructor can never be applied at {ctor.family}"
                    f"[{k.label}]: some argument type is uninhabited",
                )
    # index diagnostics found while checking this constructor come last
    for d in analyzer.diags[first_diag:]:
        add(d.rule, d.subject, d.message)


def _is_infinite_partition(sig, ana, ctor: Ctor) -> bool:
    if ctor.pi_args or any(a.binders for a in ctor.args):
        return True
    for a in ctor.args:
        cards = [ana.card.get((a.type_name, k)) for k in ana.classes.get(a.type_name, ())]
        if any(c is not None and c.is_infinite for c in cards):
            return True
    return False

