"""Terms over a validated signature.

Bound variables are de Bruijn levels: a variable records the type and
concrete index it was introduced at, plus how many variables of that
(type, index) were already in scope at its binding site.  Levels are
fixed at binding time and never shifted, so alpha-equivalent terms are
structurally identical.

Checking, printing and reading term text are each one loop over an
explicit stack of frames, one per constructor whose arguments are in
progress; a frame resumes at its next argument, so arguments are
visited, and errors raised, left to right, and a term of any depth works
at the default recursion limit.  Term text is read straight from its
tokens into the term, with no surface tree in between (see _read).
Every walk, here and in codec, has one lookup context (Lookups) and
builds nodes without the frozen __init__ (_var, _arg, _con).  A public
call walks in its owner's context (_in_context): the signature's for
print_term, parse_term and check_term, the plan's for the codec's calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from .errors import SigSyntaxError, TermError
from .sigmodel import (
    _NOT_NAME,
    Ctor,
    SExpr,
    ValidatedSignature,
    _NumeralTooLong,
    _Parser,
    applies,
    to_index_expr,
)

DEFAULT_FUEL = 100_000  # decode's default steps, and the most nodes a numeral's s chain has


@dataclass(frozen=True, slots=True)
class Var:
    type_name: str
    index: int | None
    level: int


@dataclass(frozen=True, slots=True)
class TermArg:
    """One constructor argument: the body with its bound-variable count."""

    binder_count: int
    body: "Term"


@dataclass(frozen=True, eq=False, slots=True)
class Con:
    ctor: str
    index_args: tuple[int, ...] = ()
    args: tuple[TermArg, ...] = ()

    def __eq__(self, other) -> bool:
        """One walk over both terms in step, on a stack; it stops at the first
        difference, skips a pair that is one object and enters a pair at a
        branch once, so a shared subterm costs its distinct nodes."""
        if not isinstance(other, Con):
            return NotImplemented
        entered: dict[int, Con] = {}  # id(a) -> its last partner; both terms are alive
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if not isinstance(a, Con):
                if a != b:  # a Var equals only an equal Var
                    return False
            elif (
                not isinstance(b, Con)
                or a.ctor != b.ctor
                or a.index_args != b.index_args
                or len(a.args) != len(b.args)
            ):
                return False
            elif len(a.args) < 2 or entered.get(id(a)) is not b:  # paths multiply only at branches
                if len(a.args) > 1:
                    entered[id(a)] = b
                i = len(a.args)
                while i:  # right to left, so popped left to right; an index loop makes no iterator
                    i -= 1
                    x, y = a.args[i], b.args[i]
                    if x.binder_count != y.binder_count:
                        return False
                    todo.append((x.body, y.body))
        return True

    def __hash__(self) -> int:
        """hash((ctor, index_args, ((binder_count, hash(body)), ...))), built
        bottom up over the distinct nodes."""
        done: dict[int, int] = {}  # id(node) -> hash; self keeps every node alive
        for t in _nodes(self):
            done[id(t)] = hash((t.ctor, t.index_args, tuple(
                (ta.binder_count, done[id(ta.body)] if isinstance(ta.body, Con) else hash(ta.body))
                for ta in t.args)))
        return done[id(self)]

    def __repr__(self) -> str:
        """The dataclass repr, Con and TermArg nested, written in a loop
        over a stack of the pieces still to write."""
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            if type(t) is str:
                out.append(t)
                continue
            out.append(
                f"{type(t).__qualname__}(ctor={t.ctor!r}, index_args={t.index_args!r}, args=("
            )
            todo.append(",))" if len(t.args) == 1 else "))")
            for i in reversed(range(len(t.args))):  # pushed right to left
                ta = t.args[i]
                if isinstance(ta, TermArg):
                    body = ta.body
                    todo += [")", body if isinstance(body, Con) else repr(body),
                             f"{type(ta).__qualname__}(binder_count={ta.binder_count!r}, body="]
                else:
                    todo.append(repr(ta))
                if i:
                    todo.append(", ")
        return "".join(out)

    # nodes are immutable, so a copy is the node itself, and a pickle is
    # flat; the default protocols would recurse once per node

    def __copy__(self) -> "Con":
        return self

    def __deepcopy__(self, memo) -> "Con":
        return self

    def __reduce__(self):
        """(_unflatten, (nodes,)): the distinct Con nodes in post-order, each
        (ctor, index_args, args), an argument with a Con body written as
        (binder count, its body's position) and any other as (argument,)."""
        nodes = _nodes(self)
        at = dict(zip(map(id, nodes), itertools.count()))  # self keeps every node alive
        return _unflatten, ([(t.ctor, t.index_args, tuple([
            (ta.binder_count, at[id(ta.body)]) if isinstance(getattr(ta, "body", None), Con)
            else (ta,) for ta in t.args])) for t in nodes],)


def _nodes(term: Term) -> list[Con]:
    """The distinct Con nodes of term, each once by identity, in post-order
    (a node after its arguments' bodies, left to right), walked on a stack."""
    done: dict[int, Con] = {}  # id -> node, as each ends; term keeps every node alive
    stack = [(term, iter(term.args))] if isinstance(term, Con) else []
    while stack:
        t, todo = stack[-1]
        for ta in todo:  # resumes after the argument it last went into
            body = getattr(ta, "body", None)
            if isinstance(body, Con) and id(body) not in done:  # nor in progress: no cycles
                stack.append((body, iter(body.args)))
                break
        else:
            stack.pop()
            done[id(t)] = t
    return list(done.values())


# Walks build nodes through these rather than the frozen __init__, which
# sets each field through object.__setattr__: object.__new__, then each
# slot's member descriptor, so a node is the same as the constructor's.
_new = object.__new__
_set_type, _set_index, _set_level = (getattr(Var, f.name).__set__ for f in fields(Var))
_set_count, _set_body = (getattr(TermArg, f.name).__set__ for f in fields(TermArg))
_set_ctor, _set_index_args, _set_args = (getattr(Con, f.name).__set__ for f in fields(Con))


def _var(type_name: str, index: int | None, level: int) -> Var:
    node = _new(Var)
    _set_type(node, type_name)
    _set_index(node, index)
    _set_level(node, level)
    return node


def _arg(binder_count: int, body: "Term") -> TermArg:
    node = _new(TermArg)
    _set_count(node, binder_count)
    _set_body(node, body)
    return node


def _con(ctor: str, index_args: tuple[int, ...], args: tuple[TermArg, ...]) -> Con:
    node = _new(Con)
    _set_ctor(node, ctor)
    _set_index_args(node, index_args)
    _set_args(node, args)
    return node


def _unflatten(nodes: list) -> Con:
    """The last of nodes, listed as Con.__reduce__ lists them, rebuilt."""
    built: list[Con] = []
    for ctor, index_args, args in nodes:
        args = tuple([_arg(a[0], built[a[1]]) if len(a) == 2 else a[0] for a in args])
        built.append(_con(ctor, index_args, args))
    return built[-1]


Term = Var | Con


class CountVector:
    """Immutable map from (type, concrete index) to a variable count."""

    __slots__ = ("_counts",)

    def __init__(self, counts: dict | None = None):
        self._counts = dict(counts) if counts else {}

    def get(self, type_name: str, index: int | None) -> int:
        return self._counts.get((type_name, index), 0)

    def extend(self, type_name: str, index: int | None) -> "CountVector":
        return self.bind(((type_name, index),))

    def bind(self, keys) -> "CountVector":
        """A copy with one more variable at each (type, index) key."""
        new = CountVector(self._counts)
        counts = new._counts
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        return new

    def key(self) -> frozenset:
        """The items as a frozenset: equal vectors give equal keys, and a
        key hashes in C and keeps its hash (the walks' lookup keys hold it)."""
        return frozenset(self._counts.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, CountVector) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{t}[{i if i is not None else '-'}]: {c}"
            for (t, i), c in sorted(self._counts.items(), key=repr)
        )
        return f"CountVector({{{inner}}})"


EMPTY_COUNTS = CountVector()


class Lookups:
    """The lookup context of term walks: one per validated signature and
    one per codec plan for their public calls (_in_context), one for a
    caller's many walks (see adequacy, assign_tags).  It holds one Var per
    (type, index, level) and one TermArg per (binder count, id of such a
    Var); the argument targets of each (constructor, index, index
    arguments); each bind; the reader's head records (reads, see _read);
    and two tables that codec fills in:
    - plans: per (type, index), its class plan, finite total, tag count
      and finite entries' bases, and each tag's decode record, made on
      first use (operand count, finite slots if any, index-argument
      count, and the targets of a constructor without index arguments);
    - steps: per (constructor, type, index, index arguments), encode's
      and check_term's step record (see codec._encode).
    Each table's value depends only on its key and its owner, and an entry
    is never changed once made but by filling in a tag's decode record, so
    walks on several threads may share a context: a race makes an entry
    twice, and both are right.  A walk carries a caller's CountVector as its
    map (never written) and key, so a binder it has met copies nothing."""

    __slots__ = ("plans", "steps", "variables", "var_args", "targets", "binds", "reads")
    memoizes = False  # whether it also memoizes whole nodes (see adequacy)

    def __init__(self) -> None:
        self.plans, self.steps, self.variables, self.var_args = {}, {}, {}, {}
        self.targets, self.binds, self.reads = {}, {}, {}

    def var(self, type_name: str, index: int | None, level: int) -> Var:
        """The one Var of (type_name, index, level)."""
        key = (type_name, index, level)
        return self.variables.get(key) or self.variables.setdefault(key, _var(*key))

    def var_arg(self, binder_count: int, var: Var) -> TermArg:
        """The one TermArg of binder_count and var, a Var held here."""
        return self.var_args.setdefault((binder_count, id(var)), _arg(binder_count, var))

    def bind(self, counts: dict, key: frozenset, keys) -> tuple[dict, frozenset]:
        """The count map counts, whose key is key, with one more variable at
        each binder key, and its key; made once.  Walks look in binds first."""
        pair = self.binds.get((key, keys))
        if pair is None:
            counts = counts.copy()
            for k in keys:
                counts[k] = counts.get(k, 0) + 1
            pair = self.binds[key, keys] = (counts, frozenset(counts.items()))
        return pair

    def targets_of(self, arg_targets, ctor_name: str, index: int | None, index_args: tuple):
        """arg_targets(ctor_name, index, index_args), computed once."""
        call = (ctor_name, index, index_args)
        found = self.targets.get(call)
        if found is None:
            found = self.targets[call] = arg_targets(*call)
        return found


# entries a public call may leave in its owner's lookup context; past them
# the context is dropped, so a deep term's walk keeps nothing afterwards
LOOKUPS_BOUND = 1024


def _in_context(owner, walk, *args):
    """walk(*args, ctx) in owner's lookup context, made on first use and held
    in its __dict__, outside its fields, so ==, repr, fields() and replace()
    ignore it; pickle and copy leave it out (sigmodel._without_lookups), since
    var_args is keyed by id().  A call that leaves the context over
    LOOKUPS_BOUND entries drops it from owner; a walk that holds it still
    finishes in it."""
    ctx = owner.__dict__.get("_lookups") or owner.__dict__.setdefault("_lookups", Lookups())
    try:
        return walk(*args, ctx)
    finally:
        if sum(map(len, (ctx.plans, ctx.steps, ctx.variables, ctx.var_args, ctx.targets,
                         ctx.binds, ctx.reads))) > LOOKUPS_BOUND:
            owner.__dict__.pop("_lookups", None)


def _not_an_index(message: str):
    """Term text reports every argument that is no index expression alike."""
    raise TermError("invalid index value")


def _index_value(vsig: ValidatedSignature, e: SExpr, ixtype: str) -> int:
    """The value of an explicit index argument; abbreviations expand in it
    as in a signature's index positions."""
    expr = to_index_expr(vsig.sig, e, _not_an_index, frozenset())
    value = vsig.index_value(ixtype, expr)
    if value is None:
        raise TermError(f"invalid {ixtype} index value")
    return value


def parse_term(
    vsig: ValidatedSignature, type_name: str, index: int | None, text: str
) -> Term:
    """Parse closed term text against an expected type and index.

    The text is read in one pass over its tokens that builds only the
    term (see _read).  Only a text with a fault is also parsed by the
    grammar, so that a syntax fault anywhere in it is the one reported."""
    vsig.class_of(type_name, index)
    return _in_context(vsig, _parse, vsig, type_name, index, text)


def _parse(vsig, type_name, index, text, ctx):
    """parse_term at a checked target, in the lookup context ctx."""
    try:
        p = _Parser(text)
        try:
            return _read(vsig, p, type_name, index, ctx)
        except TermError:
            try:
                p.whole()
            except _NumeralTooLong:  # no syntax fault
                pass
            raise
    except SigSyntaxError as exc:
        raise TermError(f"term syntax error: {exc}") from None


def _describe(type_name: str, index: int | None) -> str:
    return type_name if index is None else f"{type_name} {index}"


# tokens that cannot start an atom (a word, a "(" or a "[")
_NO_ATOM = _NOT_NAME - {"(", "["}
_CLOSE = ")"  # frame: a bracket to close when the expression in it ends


def _read(
    vsig: ValidatedSignature, p: _Parser, want_type: str, want_index: int | None, ctx: Lookups
) -> Term:
    """The term that p's tokens spell at the wanted type, read as the
    grammar reads them and elaborated as they are read.

    One loop over the tokens, with a stack of frames: one per constructor
    application whose atoms are being read (holding its counts), one per
    bracket still open, and one per abbreviation whose body is being read.
    A binder writes its variable, made once per bind, into the scope and
    logs the entry it shadows, which is put back when its argument ends.
    An abbreviation's body is read from its own tokens (Abbrev.toks), in a
    new empty scope.  Arguments are read, and faults raised, left to right,
    so the fault read first is the one reported; an application with too
    few or too many atoms is reported at its end.  A token sequence that is
    no term raises "invalid term", which parse_term replaces with the
    grammar's syntax error.  An arrow or an abstraction is no term: it is
    found where it is read, or where an application it follows still lacks
    arguments.  Most checks need only the next token; the few that need
    the extent of a bracket read a table of bracket matches (_structure)
    built when first needed.  A head whose (token, type, index) passed every
    test, naming a constructor without index arguments, is then one lookup
    in ctx.reads, which still tests that no variable has its name."""
    ctors, abbrevs, lit = vsig.sig.ctors, vsig.sig.abbrevs, vsig.analysis.nat_literal
    reads, var_args, tables, binders = ctx.reads, ctx.var_args, {}, {}  # binders: Vars per bind

    def structure(src: _Parser) -> dict[int, int]:
        if id(src) not in tables:
            if src is p:
                p.whole()  # the table reads grammatical tokens only
            tables[id(src)] = _structure(src.toks)
        return tables[id(src)]

    sources: dict[str, _Parser] = {}  # a parser per abbreviation body read
    src, i, stack = p, 0, []
    toks = src.toks
    scope, counts, ck = {}, {}, frozenset()
    shadowed: list[tuple[str, Var | None]] = []  # per binder in scope, the entry it hid
    # the argument being read: its binders, how many are left, their Vars, its constructor
    keys, left, bound, owner = (), 0, (), None
    start = True  # at the start of an expression, not of one atom
    while True:
        tok, head, term = toks[i], None, None
        if left and tok != "[" and tok != "(":
            raise _must_bind(owner, keys)
        if start:
            if tok == "(":
                match = structure(src)
                if toks[match[i] + 1] not in _NO_ATOM:  # the bracket heads an application
                    if left:
                        raise _must_bind(owner, keys)
                    w = _bare_word(toks, match, i)
                    if w is None:
                        raise TermError("only constructors can be applied")
                    head, i = toks[w], match[i] + 1
            elif tok not in _NOT_NAME and toks[i + 1] not in _NO_ATOM:
                head, i = tok, i + 1
        elif tok == "(" and not left and toks[i + 1] not in _NOT_NAME and (
                toks[i + 2] not in _NO_ATOM):  # a bracketed application
            stack.append(_CLOSE)
            head, i = toks[i + 1], i + 2
        if head is not None:
            # an application: the head, then its index atoms and arguments
            step = reads.get((head, want_type, want_index))
            if step is not None and step[0].name not in scope:
                (ctor, targets), values = step, ()
            else:
                if head == "type":
                    raise TermError("only constructors can be applied")
                name = _numeral(head)[0] if head.isdecimal() and head not in ctors else head
                if name in scope:
                    raise TermError(f"variable {name} cannot be applied")
                if name in abbrevs:
                    raise TermError(f"abbreviation {name} cannot be applied")
                if name not in ctors:
                    raise TermError(f"unbound name {name!r}")
                ctor = ctors[name]
                if ctor.family != want_type or want_index is not None:
                    _check_ctor(vsig, ctor, want_type, want_index)
                values = []
                for _, ptype, _ in ctor.pi_args:
                    if toks[i] in _NO_ATOM:
                        raise _short(ctor, len(values), toks[i])
                    src.i = i
                    e = src.atom()
                    i = src.i
                    values.append(_index_value(vsig, e, ptype))
                values = tuple(values)
                targets = ctx.targets_of(vsig.arg_targets, name, want_index, values)
                if not values:  # the head passed every test: file its record
                    reads[head, want_type, want_index] = (ctor, targets)
            stack.append((ctor, values, targets, [], counts, ck))
        elif tok == "(":
            stack.append(_CLOSE)
            i, start = i + 1, True
            continue
        elif tok == "[":
            var = toks[i + 1]
            if not left:
                if owner is None:
                    raise TermError(f"binder [{var}] is only allowed in constructor arguments")
                raise TermError(f"argument of {owner} binds only {len(keys)} variable(s)")
            if var in _NOT_NAME or toks[i + 2] != "]":
                raise TermError("invalid term")
            # every occurrence of the variable shares this Var
            shadowed.append((var, scope.get(var)))
            scope[var] = bound[len(keys) - left]
            i, left, start = i + 3, left - 1, True
            continue
        elif tok in _NOT_NAME or tok == "type":
            raise TermError("invalid term")
        elif start and (toks[i + 1] == "->" or toks[i + 1] == "<-"):
            raise TermError("invalid term")  # an arrow is no term
        elif tok.isdecimal():
            name, value = (tok, None) if tok in ctors else _numeral(tok)
            if name in ctors:
                term = _constant(vsig, ctors[name], want_type, want_index)
            elif lit is not None and want_type == lit.type_name:
                if value is None:
                    raise TermError(f"numeral over {DEFAULT_FUEL - 1}, the largest nat"
                                    " code that the default fuel decodes")
                term = _con("z", (), ())
                for _ in range(value):
                    term = _con("s", (), (_arg(0, term),))
            else:
                raise TermError(
                    f"numeral {name} is only a term when the signature declares"
                    " nat with z and s"
                )
            i += 1
        elif tok in scope:
            term = scope[tok]
            if term.type_name != want_type or term.index != want_index:
                raise TermError(
                    f"variable {tok} has type {_describe(term.type_name, term.index)},"
                    f" expected {_describe(want_type, want_index)}"
                )
            i += 1
        elif tok in abbrevs:
            ab = abbrevs[tok]
            ab_index = vsig.abbrev_index[tok]
            if (ab.type_name, ab_index) != (want_type, want_index):
                raise TermError(
                    f"abbreviation {tok} has type {_describe(ab.type_name, ab_index)},"
                    f" expected {_describe(want_type, want_index)}"
                )
            # the body is closed, so the current scope never leaks in
            stack.append([src, i + 1, scope])
            if tok not in sources:
                sources[tok] = _Parser("", ab.toks)
            src, i, start = sources[tok], 0, True
            toks = src.toks
            scope, keys, left, owner = {}, (), 0, None
            continue
        elif tok in ctors:
            term = _constant(vsig, ctors[tok], want_type, want_index)
            i += 1
        else:
            raise TermError(f"unbound name {tok!r}")
        # hand the term to the frames it completes, then start the next atom
        while stack:
            frame = stack[-1]
            if frame.__class__ is tuple:  # an application
                ctor, values, targets, args, counts, ck = frame
                if term is not None:
                    n = len(targets[len(args)][2])
                    args.append(var_args.get((n, id(term))) or ctx.var_arg(n, term)
                                if term.__class__ is Var else _arg(n, term))
                    while n:  # the argument's binders leave scope
                        n -= 1
                        var, hidden = shadowed.pop()
                        if hidden is None:
                            del scope[var]
                        else:
                            scope[var] = hidden
                j, opens = len(args), toks[i] not in _NO_ATOM
                if j < len(targets):
                    if not opens:
                        raise _short(ctor, len(values) + j, toks[i])
                    want_type, want_index, keys = targets[j]
                    left, owner, start = len(keys), ctor.name, False
                    if keys:  # each binder's level counts those outside it
                        bound = binders.get((ck, keys)) or binders.setdefault((ck, keys), tuple([
                            ctx.var(*key, counts.get(key, 0) + keys[:k].count(key))
                            for k, key in enumerate(keys)]))
                        counts, ck = ctx.binds.get((ck, keys)) or ctx.bind(counts, ck, keys)
                    break
                if opens:
                    raise _arity(ctor, len(values) + j + _atoms(toks, i, structure(src)))
                term = _con(ctor.name, values, tuple(args))
            elif frame is _CLOSE:
                if toks[i] != ")":
                    raise TermError("invalid term")
                i += 1
            else:  # an abbreviation's body ends
                if toks[i]:
                    raise TermError("invalid term")
                src, i, scope = frame
                toks = src.toks
            stack.pop()
        else:
            if toks[i]:
                raise TermError("invalid term")  # trailing input
            return term


def _numeral(tok: str) -> tuple[str, int | None]:
    """Decimal token tok as str(int(tok)) writes it, and its value, or None
    from DEFAULT_FUEL up, whose s chain outgrows a default decode; int()
    reads at most its last few digits, so a long token costs one pass."""
    w = len(str(DEFAULT_FUEL))
    if any(map(int, tok[:-w])):
        return "".join([str(int(d)) for d in tok]).lstrip("0"), None
    value = int(tok[-w:])
    return str(value), value if value < DEFAULT_FUEL else None


def _check_ctor(vsig: ValidatedSignature, ctor: Ctor, want_type: str, want_index: int | None):
    """Raise TermError unless ctor constructs the wanted type at the wanted
    index, a valid target of that type.  At no index the family test
    decides: every constructor of an unindexed family fits."""
    if ctor.family != want_type:
        raise TermError(
            f"constructor {ctor.name} constructs {ctor.family},"
            f" expected {_describe(want_type, want_index)}"
        )
    if want_index is not None and not applies(vsig.pattern(ctor.name), want_index):
        raise TermError(
            f"constructor {ctor.name} cannot construct"
            f" {_describe(want_type, want_index)}"
        )


def _constant(vsig: ValidatedSignature, ctor: Ctor, want_type: str, want_index: int | None):
    """The term that ctor, written alone, is at the wanted type."""
    _check_ctor(vsig, ctor, want_type, want_index)
    if ctor.pi_args or ctor.args:
        raise _arity(ctor, 0)
    return _con(ctor.name, (), ())


def _arity(ctor: Ctor, got: int) -> TermError:
    return TermError(
        f"constructor {ctor.name} expects {len(ctor.pi_args) + len(ctor.args)}"
        f" argument(s), got {got}"
    )


def _short(ctor: Ctor, got: int, tok: str) -> TermError:
    """The error for an application of ctor that ends at tok with got atoms,
    too few: if an arrow follows, the application is its operand."""
    return TermError("invalid term") if tok == "->" or tok == "<-" else _arity(ctor, got)


def _must_bind(owner: str, keys: tuple) -> TermError:
    return TermError(f"argument of {owner} must bind {len(keys)} variable(s) with [name]")


def _structure(toks: list[str]) -> dict[int, int]:
    """For grammatical tokens: the position of the ")" that closes each "("."""
    match, opened = {}, []
    for i, tok in enumerate(toks):
        if tok == "(":
            opened.append(i)
        elif tok == ")":
            match[opened.pop()] = i
    return match


def _bare_word(toks: list[str], match: dict[int, int], i: int) -> int | None:
    """The position of the word that the brackets opening at i hold and
    nothing else, as in "((app))", if there is one."""
    j = match[i]
    while toks[i] == "(" and match[i] == j:
        i, j = i + 1, j - 1
    return i if i == j and toks[i] not in _NOT_NAME else None


def _atoms(toks: list[str], i: int, match: dict[int, int]) -> int:
    """How many atoms of an application start at i."""
    n = 0
    while toks[i] not in _NO_ATOM:
        n += 1
        if toks[i] == "[":
            break  # a binder is the last atom of its application
        i = match[i] + 1 if toks[i] == "(" else i + 1
    return n


# ----------------------------------------------------------------------
# Printing.

_LETTERS = "xyzuvwpqrabcdefghijklmnost"


class _Namer:
    """Default binder naming: one letter per distinct (type, index),
    in order of first appearance, suffixed with the variable's level."""

    def __init__(self, vsig: ValidatedSignature):
        self.vsig = vsig
        self.letters: dict[tuple[str, int | None], str] = {}

    def __call__(self, type_name: str, index: int | None, level: int, ordinal: int) -> str:
        key = (type_name, index)
        if key not in self.letters:
            i = len(self.letters)
            letter = _LETTERS[i] if i < len(_LETTERS) else f"x{i}_"
            self.letters[key] = letter
        return binder_name(self.vsig, f"{self.letters[key]}{level}")


def binder_name(vsig: ValidatedSignature, name: str) -> str:
    """name, primed until it names no constructor, type or abbreviation,
    so that term text reads it back as the variable it binds."""
    sig = vsig.sig
    while name in sig.ctors or name in sig.by_name or name in sig.abbrevs:
        name += "'"
    return name


_INFER = object()


def _unknown_ctor(name: str) -> TermError:
    """The error for a term node whose constructor the signature lacks."""
    return TermError(f"unknown constructor {name!r}")


def print_term(vsig: ValidatedSignature, term: Term, index=_INFER, namer=None) -> str:
    """Render a term as parseable text.

    The concrete index steers binder bookkeeping; when omitted it is
    recovered from the head constructor's pattern, which fails for heads
    whose pattern is a bare variable (pass it explicitly then).

    ``namer(type, index, level, ordinal)`` supplies binder names; the
    default picks a letter per (type, index) and appends the level, so
    printing is deterministic and injective on alpha-classes.  A node whose
    constructor is unknown, or whose index arguments or argument count
    check_term rejects, raises check_term's TermError.
    """
    if index is _INFER:
        index = _infer_index(vsig, term)
    return _in_context(vsig, _print, vsig, term, index, namer)


def _print(vsig, term, index, namer, ctx) -> str:
    """print_term at a known index, in the lookup context ctx."""
    if namer is None:
        namer = _Namer(vsig)
    ordinals = itertools.count()

    def fresh(t, ix, level):
        return namer(t, ix, level, next(ordinals))

    def index_value_text(ixtype: str, value: int) -> str:
        lit = vsig.analysis.nat_literal
        if lit is not None and ixtype == lit.type_name:
            return str(value)
        shape = vsig.analysis.nat_shapes[ixtype]
        if not value:
            return shape.zero
        inner = f"{shape.succ} (" * (value - 1) + f"{shape.succ} {shape.zero}"
        return "(" + inner + ")" * value

    out: list[str] = []  # the text's pieces, joined once at the end
    emit = out.append
    # per Con being printed, its arguments still to print; a ")" to emit
    # once the argument it closes is printed; and, below that, for an
    # argument with binders, the length the log had when it began
    stack: list = []
    ctors, arg_targets = vsig.sig.ctors, vsig.arg_targets
    # one name per (type, index, level) in scope; every write logs the
    # name it hides, and a binder's argument undoes its writes as it ends
    t, env, log, counts, ck = term, {}, [], {}, frozenset()
    while True:
        if isinstance(t, Var):
            key = (t.type_name, t.index, t.level)
            name = env.get(key)
            if name is None:
                # free variable of an open term; name it like its binder would
                name = env[key] = fresh(*key)
                log.append((key, None))
            emit(name)
        else:
            ctor = ctors.get(t.ctor) if isinstance(t.ctor, str) else None
            if ctor is None:
                raise _unknown_ctor(t.ctor)
            emit(t.ctor)
            if t.index_args != () or ctor.pi_args or len(t.args) != len(ctor.args):
                _check_con(vsig, ctor.family, None, t)  # as check_term, but not the fit
                for (_, ptype, _), value in zip(ctor.pi_args, t.index_args):
                    emit(" " + index_value_text(ptype, value))
            targets = ctx.targets.get((t.ctor, index, t.index_args))
            if targets is None:
                targets = ctx.targets_of(arg_targets, t.ctor, index, t.index_args)
            stack.append((enumerate(zip(targets, t.args)), len(t.args) - 1, counts, ck))
        while stack:
            frame = stack[-1]
            if frame == ")":
                emit(stack.pop())
                continue
            if frame.__class__ is int:
                del stack[-1]
                while len(log) > frame:
                    key, hidden = log.pop()
                    if hidden is None:
                        del env[key]
                    else:
                        env[key] = hidden
                continue
            todo, last, counts, ck = frame
            step = next(todo, None)
            if step is None:
                stack.pop()
                continue
            j, ((_, index, keys), ta) = step
            t = ta.body
            if keys:
                # a binder reaches to the end, so only a last one goes bare
                paren = j != last
                emit(" (" if paren else " ")
                stack.append(len(log))
                for i, key in enumerate(keys):
                    bt, bix = key
                    level = counts.get(key, 0) + keys[:i].count(key)
                    name = fresh(bt, bix, level)
                    log.append(((bt, bix, level), env.get((bt, bix, level))))
                    env[bt, bix, level] = name
                    emit(f"[{name}] ")
                counts, ck = ctx.binds.get((ck, keys)) or ctx.bind(counts, ck, keys)
            else:
                paren = not isinstance(t, Var) and bool(t.args or t.index_args)
                emit(" (" if paren else " ")
            if paren:
                stack.append(")")
            break
        else:
            return "".join(out)


def _infer_index(vsig: ValidatedSignature, term: Term) -> int | None:
    if isinstance(term, Var):
        return term.index
    if not isinstance(term.ctor, str) or term.ctor not in vsig.sig.ctors:
        raise _unknown_ctor(term.ctor)
    pat = vsig.pattern(term.ctor)
    if pat[0] == "unit":
        return None
    if pat[0] == "zero":
        return 0
    if pat[0] == "const":
        return pat[1]
    raise TermError(
        f"the index of a term headed by {term.ctor} is not determined by"
        " its pattern; pass index= explicitly"
    )


def check_term(
    vsig: ValidatedSignature,
    type_name: str,
    index: int | None,
    counts: CountVector,
    term: Term,
) -> None:
    """Raise TermError unless term is well-typed at (type, index) under
    counts.  It is encode's walk (codec._encode) under a plan with no class
    plans, where a node's code is its variable count: each node is tested
    as encode tests it, and no pairing runs."""
    from .codec import CodecPlan, _encode  # codec imports this module

    vsig.class_of(type_name, index)
    _in_context(vsig, _encode, CodecPlan(vsig, {}), type_name, index, counts, term)


def _check_var(term: Var, type_name: str, index: int | None, counts: dict) -> int:
    """term's level, unless the variable does not fit (type, index) under counts."""
    if term.type_name != type_name or term.index != index:
        raise TermError(
            f"variable of type {_describe(term.type_name, term.index)},"
            f" expected {_describe(type_name, index)}"
        )
    if not 0 <= term.level < counts.get((type_name, index), 0):
        raise TermError(
            f"variable level {term.level} out of scope"
            f" ({counts.get((type_name, index), 0)} in context)"
        )
    return term.level


def _check_con(vsig: ValidatedSignature, type_name: str, index: int | None, term: Con):
    """Raise TermError unless the node term fits (type, index), a valid
    target: its constructor is known and passes _check_ctor, as in _read,
    it has the constructor's argument and index-argument counts, and its
    index arguments are a tuple of naturals.  The loops over the arguments
    check each one's binder count (see binder_mismatch)."""
    ctor = vsig.sig.ctors.get(term.ctor) if isinstance(term.ctor, str) else None
    if ctor is None:
        raise _unknown_ctor(term.ctor)
    if ctor.family != type_name or index is not None:
        _check_ctor(vsig, ctor, type_name, index)
    if not isinstance(term.index_args, tuple):
        raise TermError(f"index arguments {term.index_args!r} of {term.ctor} are not a tuple")
    if len(term.index_args) != len(ctor.pi_args):
        raise TermError(
            f"constructor {term.ctor} takes {len(ctor.pi_args)} index"
            f" argument(s), got {len(term.index_args)}"
        )
    if len(term.args) != len(ctor.args):
        raise TermError(
            f"constructor {term.ctor} takes {len(ctor.args)} argument(s),"
            f" got {len(term.args)}"
        )
    for value in term.index_args:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise TermError(f"index argument {value!r} of {term.ctor} is not a natural")


def binder_mismatch(term: Con, expected: int, ta: TermArg) -> TermError:
    """The error for an argument that binds other than expected variables."""
    pos = next(i for i, t in enumerate(term.args) if t is ta)
    return TermError(
        f"argument {pos} of {term.ctor} binds {expected}"
        f" variable(s), term has {ta.binder_count}"
    )


def term_size(term: Term) -> int:
    """Nodes of the expanded term, a shared subterm counted at each use;
    explicit index values of magnitude v count v + 1."""
    size: dict[int, int] = {}  # id(node) -> size; term keeps every node alive
    for t in _nodes(term):
        size[id(t)] = 1 + sum(t.index_args) + len(t.index_args) + sum(
            [size.get(id(ta.body), 1) for ta in t.args])  # a Var counts 1
    return size.get(id(term), 1)
