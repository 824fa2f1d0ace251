"""Terms over a validated signature.

Bound variables are de Bruijn levels: a variable records the type and
concrete index it was introduced at, plus how many variables of that
(type, index) were already in scope at its binding site.  Levels are
fixed at binding time and never shifted, so alpha-equivalent terms are
structurally identical.

Checking, printing and elaboration are each one loop over an explicit
stack of frames, one per constructor whose arguments are in progress;
a frame resumes at its next argument, so arguments are visited, and
errors raised, left to right, and a term of any depth works at the
default recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SigSyntaxError, TermError
from .sigmodel import (
    Ctor,
    IndexClass,
    SApp,
    SBind,
    SExpr,
    SName,
    SNum,
    ValidatedSignature,
    applies,
    parse_term_text,
    to_index_expr,
)


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

    # == and hash use the pre-order list of nodes and their binder counts,
    # which determines the term; it is built in a loop, so any depth works

    def _flat(self) -> list:
        flat, todo = [], [self]
        while todo:
            t = todo.pop()
            if isinstance(t, Con):
                flat.append((t.ctor, t.index_args, tuple(ta.binder_count for ta in t.args)))
                todo.extend(ta.body for ta in t.args)
            else:
                flat.append(t)
        return flat

    def __eq__(self, other) -> bool:
        return self._flat() == other._flat() if isinstance(other, Con) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._flat()))


Term = Var | Con


class CountVector:
    """Immutable map from (type, concrete index) to a variable count."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: dict | None = None):
        self._counts = dict(counts) if counts else {}
        self._hash = None  # computed on first use; extend builds many

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

    def items(self):
        return self._counts.items()

    def __eq__(self, other) -> bool:
        return isinstance(other, CountVector) and self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{t}[{i if i is not None else '-'}]: {c}"
            for (t, i), c in sorted(self._counts.items(), key=repr)
        )
        return f"CountVector({{{inner}}})"


EMPTY_COUNTS = CountVector()


def _not_an_index(message: str):
    """Term text reports every argument that is no index expression alike."""
    raise TermError("invalid index value")


def _index_value(vsig: ValidatedSignature, e: SExpr, ixtype: str) -> int:
    """The value of an explicit index argument; abbreviations expand in it
    as in a signature's index positions."""
    expr = to_index_expr(vsig.sig, e, _not_an_index, frozenset())
    value = vsig.index_value(ixtype, expr, {})
    if value is None:
        raise TermError(f"invalid {ixtype} index value")
    return value


def parse_term(
    vsig: ValidatedSignature, type_name: str, index: int | None, text: str
) -> Term:
    """Parse closed term text against an expected type and index."""
    _check_target(vsig, type_name, index)
    try:
        surface = parse_term_text(text)
    except SigSyntaxError as exc:
        raise TermError(f"term syntax error: {exc}") from None
    return _elab(vsig, surface, type_name, index, {}, EMPTY_COUNTS)


def _check_target(
    vsig: ValidatedSignature, type_name: str, index: int | None
) -> IndexClass:
    if not vsig.has_type(type_name):
        raise TermError(f"unknown type {type_name!r}")
    try:
        return vsig.class_of(type_name, index)
    except ValueError as exc:
        raise TermError(str(exc)) from None


def _describe(type_name: str, index: int | None) -> str:
    return type_name if index is None else f"{type_name} {index}"


def _elab(
    vsig: ValidatedSignature,
    e: SExpr,
    want_type: str,
    want_index: int | None,
    scope: dict[str, Var],
    counts: CountVector,
) -> Term:
    """The term that surface e elaborates to at the wanted type, built in
    a loop over a stack of _elab_con frames, one per constructor whose
    arguments are being elaborated."""
    sig, stack = vsig.sig, []
    while True:
        term = None
        if isinstance(e, SName):
            if e.name in scope:
                term = scope[e.name]  # every occurrence shares its binder's Var
                if (term.type_name, term.index) != (want_type, want_index):
                    raise TermError(
                        f"variable {e.name} has type {_describe(term.type_name, term.index)},"
                        f" expected {_describe(want_type, want_index)}"
                    )
            elif e.name in sig.abbrevs:
                ab = sig.abbrevs[e.name]
                kind, ab_index = vsig.index_kind(ab.type_name), None
                if kind is not None:  # validate checked that the index has a value
                    ab_index = vsig.index_value(kind.type_name, ab.index[0], {})
                if (ab.type_name, ab_index) != (want_type, want_index):
                    raise TermError(
                        f"abbreviation {e.name} has type {_describe(ab.type_name, ab_index)},"
                        f" expected {_describe(want_type, want_index)}"
                    )
                # abbreviations expand where they occur; their bodies are
                # closed, so the current scope never leaks in
                e, scope = ab.body, {}
                continue
            elif e.name in sig.ctors:
                stack.append(_elab_con(
                    vsig, sig.ctors[e.name], (), want_type, want_index, scope, counts
                ))
            else:
                raise TermError(f"unbound name {e.name!r}")
        elif isinstance(e, SNum):
            lit = vsig.analysis.nat_literal
            if str(e.value) in sig.ctors:
                stack.append(_elab_con(
                    vsig, sig.ctors[str(e.value)], (), want_type, want_index, scope, counts
                ))
            elif lit is not None and want_type == lit.type_name:
                term = Con("z")
                for _ in range(e.value):
                    term = Con("s", (), (TermArg(0, term),))
            else:
                raise TermError(
                    f"numeral {e.value} is only a term when the signature declares"
                    " nat with z and s"
                )
        elif isinstance(e, SApp):
            if not isinstance(e.fn, (SName, SNum)):
                raise TermError("only constructors can be applied")
            fname = e.fn.name if isinstance(e.fn, SName) else str(e.fn.value)
            if fname in scope:
                raise TermError(f"variable {fname} cannot be applied")
            if fname in sig.abbrevs:
                raise TermError(f"abbreviation {fname} cannot be applied")
            if fname not in sig.ctors:
                raise TermError(f"unbound name {fname!r}")
            stack.append(_elab_con(
                vsig, sig.ctors[fname], e.args, want_type, want_index, scope, counts
            ))
        elif isinstance(e, SBind):
            raise TermError(f"binder [{e.var}] is only allowed in constructor arguments")
        else:
            raise TermError("invalid term")
        # hand the term to the frames it completes, then start the next argument
        while stack:
            ctor, index_values, targets, surface_args, args, scope, counts = stack[-1]
            if term is not None:
                args.append(TermArg(len(targets[len(args)][2]), term))
            j = len(args)
            if j < len(targets):
                want_type, want_index, keys = targets[j]
                e = surface_args[j]
                if keys:
                    outer = counts
                    scope, counts = dict(scope), counts.bind(keys)
                    for i, key in enumerate(keys):
                        if not isinstance(e, SBind):
                            raise TermError(
                                f"argument of {ctor.name} must bind {len(keys)}"
                                f" variable(s) with [name]"
                            )
                        bt, bix = key
                        scope[e.var] = Var(bt, bix, outer.get(bt, bix) + keys[:i].count(key))
                        e = e.body
                if isinstance(e, SBind):
                    raise TermError(f"argument of {ctor.name} binds only {len(keys)} variable(s)")
                break
            stack.pop()
            term = Con(ctor.name, index_values, tuple(args))
        else:
            return term


def _elab_con(
    vsig: ValidatedSignature,
    ctor: Ctor,
    surface_args: tuple[SExpr, ...],
    want_type: str,
    want_index: int | None,
    scope: dict,
    counts: CountVector,
) -> tuple:
    """_elab's frame for ctor applied to surface_args: the constructor,
    its index values, its arguments' targets and surface forms, the
    arguments elaborated so far, and the scope and counts around it."""
    if ctor.family != want_type:
        raise TermError(
            f"constructor {ctor.name} constructs {ctor.family},"
            f" expected {_describe(want_type, want_index)}"
        )
    if not applies(vsig.pattern(ctor.name), vsig.class_of(want_type, want_index)):
        raise TermError(
            f"constructor {ctor.name} cannot construct"
            f" {_describe(want_type, want_index)}"
        )
    n_pi = len(ctor.pi_args)
    if len(surface_args) != n_pi + len(ctor.args):
        raise TermError(
            f"constructor {ctor.name} expects {n_pi + len(ctor.args)}"
            f" argument(s), got {len(surface_args)}"
        )
    index_values = ()
    if n_pi:
        pairs = zip(ctor.pi_args, surface_args)
        index_values = tuple([_index_value(vsig, se, ptype) for (_, ptype, _), se in pairs])
    targets = vsig.arg_targets(ctor.name, want_index, index_values)
    return ctor, index_values, targets, surface_args[n_pi:], [], scope, counts


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
        name = f"{self.letters[key]}{level}"
        while name in self.vsig.sig.ctors or name in self.vsig.sig.by_name or name in self.vsig.sig.abbrevs:
            name += "'"
        return name


_INFER = object()


def print_term(vsig: ValidatedSignature, term: Term, index=_INFER, namer=None) -> str:
    """Render a term as parseable text.

    The concrete index steers binder bookkeeping; when omitted it is
    recovered from the head constructor's pattern, which fails for heads
    whose pattern is a bare variable (pass it explicitly then).

    ``namer(type, index, level, ordinal)`` supplies binder names; the
    default picks a letter per (type, index) and appends the level, so
    printing is deterministic and injective on alpha-classes.
    """
    if namer is None:
        namer = _Namer(vsig)
    if index is _INFER:
        index = _infer_index(vsig, term)
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
    # per Con being printed, its arguments still to print; and a ")" to
    # emit once the argument it closes is printed
    stack: list = []
    arg_targets = vsig.arg_targets
    t, env, counts = term, {}, EMPTY_COUNTS
    while True:
        if isinstance(t, Var):
            key = (t.type_name, t.index, t.level)
            name = env.get(key)
            if name is None:
                # free variable of an open term; name it like its binder would
                name = env[key] = fresh(*key)
            emit(name)
        else:
            emit(t.ctor)
            if t.index_args:
                for (_, ptype, _), value in zip(vsig.sig.ctors[t.ctor].pi_args, t.index_args):
                    emit(" " + index_value_text(ptype, value))
            targets = arg_targets(t.ctor, index, t.index_args)
            stack.append((enumerate(zip(targets, t.args)), len(t.args) - 1, env, counts))
        while stack:
            frame = stack[-1]
            if frame == ")":
                emit(stack.pop())
                continue
            todo, last, env, counts = frame
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
                inner_env, inner_counts = dict(env), counts.bind(keys)
                for i, key in enumerate(keys):
                    bt, bix = key
                    level = counts.get(bt, bix) + keys[:i].count(key)
                    name = fresh(bt, bix, level)
                    inner_env[(bt, bix, level)] = name
                    emit(f"[{name}] ")
                env, counts = inner_env, inner_counts
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
    """Raise TermError unless term is well-typed at (type, index) under counts."""
    _check_target(vsig, type_name, index)
    _check(vsig, type_name, index, counts, term)


def _check(vsig, type_name, index, counts, term, memo=None):
    """Raise TermError unless term is well-typed here.  A loop over a
    stack of frames, one per Con whose arguments are being checked: the
    node, its remaining (target, argument) pairs, its counts and memo key.
    A memo maps (id(node), type, index, counts) to the node for Con nodes
    already checked; the node in the value keeps its id from being reused."""
    ctors, pattern, class_of, arg_targets = (
        vsig.sig.ctors, vsig.pattern, vsig.class_of, vsig.arg_targets
    )
    stack = []
    while True:
        if isinstance(term, Var):
            if (term.type_name, term.index) != (type_name, index):
                raise TermError(
                    f"variable of type {_describe(term.type_name, term.index)},"
                    f" expected {_describe(type_name, index)}"
                )
            if not 0 <= term.level < counts.get(type_name, index):
                raise TermError(
                    f"variable level {term.level} out of scope"
                    f" ({counts.get(type_name, index)} in context)"
                )
        elif memo is None or memo.get((id(term), type_name, index, counts)) is None:
            ctor = ctors.get(term.ctor)
            if ctor is None:
                raise TermError(f"unknown constructor {term.ctor!r}")
            if ctor.family != type_name:
                raise TermError(
                    f"constructor {term.ctor} constructs {ctor.family},"
                    f" expected {_describe(type_name, index)}"
                )
            if not applies(pattern(ctor.name), class_of(type_name, index)):
                raise TermError(
                    f"constructor {term.ctor} cannot construct {_describe(type_name, index)}"
                )
            check_shape(ctor, term)
            targets = arg_targets(term.ctor, index, term.index_args)
            key = None if memo is None else (id(term), type_name, index, counts)
            stack.append((term, zip(targets, term.args), counts, key))
        while stack:
            node, todo, node_counts, key = stack[-1]
            step = next(todo, None)
            if step is not None:
                (type_name, index, keys), ta = step
                if ta.binder_count != len(keys):
                    raise binder_mismatch(node, len(keys), ta)
                counts = node_counts.bind(keys) if keys else node_counts
                term = ta.body
                break
            stack.pop()
            if memo is not None:
                memo[key] = node
        else:
            return


def check_shape(ctor: Ctor, term: Con) -> None:
    """Raise TermError unless term has ctor's argument and index-argument
    counts and its index arguments are naturals.  The loops over the
    arguments check each one's binder count (see binder_mismatch)."""
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
    """Number of nodes; explicit index values of magnitude v count v + 1."""
    total = 0
    todo = [term]
    while todo:
        t = todo.pop()
        total += 1
        if isinstance(t, Con):
            total += sum(t.index_args) + len(t.index_args)
            todo.extend(ta.body for ta in t.args)
    return total
