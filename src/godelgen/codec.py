"""Bijective codes between well-typed terms and naturals.

Every (type, index class) carries its own code space.  Codes are laid
out with bound variables first (0..V-1), then the finite-instance
block, then the infinite constructors interleaved round-robin by tag:

    code = V + F + I*payload + tag

The payload mingles the explicit index arguments and the codes of the
infinite subterms, then folds finite subterms in by their radix.

Encode and decode are each one loop over an explicit stack of frames,
one frame per constructor node whose arguments are in progress, so a
term of any depth needs no interpreter frames.  A frame resumes at its
next argument, so arguments are visited, and errors raised, left to
right.

Each node costs one keyed lookup in a lookup context (termrep.Lookups)
plus its arithmetic: the plan's, which its public calls share and drop
past termrep.LOOKUPS_BOUND entries (termrep._in_context), or an onto
sweep's.  Decode looks up the record of its (type, index) (see
_decode), encode a step record per (constructor, type, index, index
arguments) (see _encode), and both share encode's arithmetic
(_node_code): the onto sweep's decode encodes each node it builds.
check_term is encode's walk without the arithmetic.  One or two pairing
operands are mingled and unmingled by bignat's private helpers, without
the public functions' checks on inputs the codec has just made itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .bignat import _compact, _spread, mingle_fold, unmingle_fold
from .errors import CodeOutOfRange, FuelExhausted, NoWellFoundedPlan, TermError
from .sigmodel import (
    Cardinality,
    FiniteBlock,
    FiniteCtorEntry,
    IndexClass,
    UNIT_CLASS,
    ValidatedSignature,
    _without_lookups,
)
from .termrep import (
    DEFAULT_FUEL,
    EMPTY_COUNTS,
    CountVector,
    Lookups,
    Term,
    Var,
    _arg,
    _check_con,
    _check_var,
    _con,
    _in_context,
    binder_mismatch,
)

_TRIAL_FUEL = 600  # states per tag-search trial (_trial_ends)
_NO_CODE = FiniteCtorEntry("", 0, (), 0)  # every step's entry under check_term's plan


def class_label(type_name: str, cls: IndexClass) -> str:
    return type_name if cls is UNIT_CLASS else f"{type_name}[{cls.label}]"


@dataclass(frozen=True)
class ClassPlan:
    """Code-space layout for one (type, index class)."""

    type_name: str
    index_class: IndexClass
    cardinality: Cardinality
    finite: FiniteBlock
    tags: tuple[str, ...]  # infinite constructor names; position = tag
    # per tag: the constructor's name, its slot kinds (the radix of a
    # finite argument, 0 for an infinite one) and its abstraction count
    steps: tuple[tuple[str, tuple[int, ...], int], ...]

    @property
    def label(self) -> str:
        return class_label(self.type_name, self.index_class)


@dataclass(frozen=True, eq=False)
class CodecPlan:
    """Tag assignment for every class of a validated signature."""

    vsig: ValidatedSignature
    classes: dict[tuple[str, IndexClass], ClassPlan]

    __getstate__ = _without_lookups

    def class_plan(self, type_name: str, index: int | None) -> ClassPlan:
        """The plan of the class of (type, index); TermError for a bad
        target, from class_of."""
        return self.classes[(type_name, self.vsig.class_of(type_name, index))]


def build_plan(
    vsig: ValidatedSignature,
    tag_orders: dict[tuple[str, IndexClass], tuple[str, ...]] | None = None,
) -> CodecPlan:
    """Assemble a plan with explicitly chosen tag orders.

    Testing hook: no termination trials are run, so the result may not
    decode every code.  Classes absent from tag_orders use declaration
    order.  Use assign_tags for a checked plan.
    """
    classes: dict[tuple[str, IndexClass], ClassPlan] = {}
    for decl in vsig.decls:
        for cls in vsig.classes(decl.name):
            block, infinite = vsig.ctors_for_class(decl.name, cls)
            names = tuple(c.name for c in infinite)
            key = (decl.name, cls)
            edges = vsig.analysis.graph[key]  # each records its slot kinds
            if tag_orders and key in tag_orders:
                order = tuple(tag_orders[key])
                if sorted(order) != sorted(names):
                    raise ValueError(
                        f"tag order for {class_label(decl.name, cls)}"
                        f" must be a permutation of {names}"
                    )
                names = order
            classes[key] = ClassPlan(
                decl.name, cls, vsig.cardinality(decl.name, cls), block, names,
                tuple([(n, edges[n].kinds, len(edges[n].ctor.pi_args)) for n in names]),
            )
    return CodecPlan(vsig, classes)


def _first_failing_class(
    plan: CodecPlan, trial_fuel: int, skip: set[tuple[str, IndexClass]], ctx: Lookups
) -> tuple[str, IndexClass] | None:
    vsig = plan.vsig  # ctx: one lookup context for the plan's trials
    for decl in vsig.decls:
        for cls, reps in vsig.class_reps(decl.name):
            key = (decl.name, cls)
            if key in skip or not plan.classes[key].tags:  # no tags, so no loop
                continue
            if not all(_trial_ends(plan, ctx, decl.name, i, c, [trial_fuel]) for i in reps
                       for c in vsig.cardinality(decl.name, cls).codes_below(2)):
                return key
    return None


def _trial_ends(plan, ctx, type_name, index, code, cell):
    """Whether the decode of code at (type, index) under no variables ends:
    a walk on decode's records over the states (type, index, counts, code)
    it visits, one unit of the fuel cell each, that builds no term.  Codes
    stay at most 1, so counts are capped at 2, above which they decode
    alike.  A variable, a finite entry or slot and a class with no tags end
    at once.  It fails at a state that repeats one still open above it (so
    would recur forever), or when the fuel runs out."""
    path, stack = set(), [(type_name, index, {}, frozenset(), code)]
    while stack:
        type_name, index, counts, ck, code = stack.pop()
        key = (type_name, index, ck, code)
        if counts is None:  # a closing entry: the state's arguments are all walked
            path.remove(key)
            continue
        if key in path or cell[0] <= 0:
            return False
        cell[0] -= 1
        record = ctx.plans.get((type_name, index)) or _class_record(plan, ctx, type_name, index)
        _, total, width, tag_steps, _ = record
        c = code - counts.get((type_name, index), 0) - total
        if c < 0 or not width:
            continue
        q, tag = divmod(c, width)
        step = tag_steps[tag] or _decode_step(plan, ctx, record, tag, index)
        name, n_ops, kinds, n_pi, targets = step
        for radix in kinds or ():
            q //= radix or 1  # finite arguments fold out first
        values = iter(unmingle_fold(q, n_ops))  # index arguments, then infinite slots' codes
        index_args = tuple([next(values) for _ in range(n_pi)])
        targets = targets or ctx.targets_of(plan.vsig.arg_targets, name, index, index_args)
        path.add(key)
        stack.append((type_name, index, None, ck, code))
        for (type_name, index, keys), radix in zip(targets, kinds or [0] * len(targets)):
            if not radix:  # an infinite slot, its counts capped at 2
                sub = {**counts, **{k: min(counts.get(k, 0) + keys.count(k), 2) for k in keys}}
                sub_ck = frozenset(sub.items()) if keys else ck
                stack.append((type_name, index, sub, sub_ck, next(values)))
    return True


def _tag_order(names: tuple[str, ...], i: int) -> tuple[str, ...]:
    """Candidate i of a class's tag orders: its n(n-1) ordered pairs of
    names at tags 0 and 1, lexicographic in declaration positions, the
    rest in declaration order (so candidate 0 is declaration order), or
    names itself, the one candidate, for fewer than two names."""
    if len(names) < 2:
        return names
    a, b = divmod(i, len(names) - 1)
    b += b >= a
    return (names[a], names[b]) + tuple([n for j, n in enumerate(names) if j != a and j != b])


def assign_tags(vsig: ValidatedSignature) -> CodecPlan:
    """Choose a tag order whose decode terminates on codes 0 and 1.

    Those trial codes reach only payloads, digits and subterm codes of at
    most 1, so only tags 0 and 1 of each class matter.  A class's
    candidates are its ordered pairs of infinite constructors at tags 0
    and 1, the rest in declaration order; the first is declaration order,
    and each is built when it is tried (_tag_order).
    A class whose trial fails (_trial_ends) moves to its next candidate, or
    to its next tag-0 constructor if the round never read its tag 1; one
    that exhausts them fails.  A class may also fail through a later
    class's loop, so failures start another round, keeping the other
    classes' orders, until a round fails no fewer classes than the last.
    """
    names = {
        (decl.name, cls): tuple(c.name for c in vsig.ctors_for_class(decl.name, cls)[1])
        for decl in vsig.decls
        for cls in vsig.classes(decl.name)
    }
    choice = dict.fromkeys(names, 0)
    failed: list[tuple[str, IndexClass]] = []
    last_failed = len(names) + 1  # more than any round can fail
    while True:
        plan = build_plan(vsig, {key: _tag_order(names[key], i) for key, i in choice.items()})
        ctx = Lookups()  # the round's class records (_class_record)
        offender = _first_failing_class(plan, _TRIAL_FUEL, set(failed), ctx)
        if offender is not None:
            n, cp, i = len(names[offender]), plan.classes[offender], choice[offender] + 1
            if n > 1 and all(r[3][1] is None for r in ctx.plans.values() if r[0] is cp):
                i += -i % (n - 1)  # tag 1 was never read: on to the next tag-0 constructor
            choice[offender] = i % max(n * (n - 1), 1)
            if choice[offender] == 0:
                failed.append(offender)
        elif not failed:
            return plan
        elif len(failed) >= last_failed:
            raise NoWellFoundedPlan([class_label(t, c) for t, c in failed])
        else:
            last_failed, failed = len(failed), []


# ------------------------------------------------------------------ encode


def encode(
    plan: CodecPlan,
    type_name: str,
    index: int | None,
    counts: CountVector,
    term: Term,
) -> int:
    """Code of a well-typed term under the given free-variable counts."""
    plan.vsig.class_of(type_name, index)
    return _in_context(plan, _encode, plan, type_name, index, counts, term)


def _encode(plan, type_name, index, counts, term, ctx):
    """term's code, in a loop over a stack of frames, one per Con whose
    arguments are being encoded: the node, its counts and their key,
    variable count, arguments' targets and their codes so far, its step
    record and its memo key.  Nodes are tested by _check_var and
    _check_con; check_term is this walk under a plan with no class plans
    (_encode_step), so the two fail alike, with one message.

    A Con costs one lookup: its step record in ctx.steps, keyed by
    (constructor, type, index, index arguments), which _encode_step fills
    only once a node with that key has passed _check_con in full.  The key
    pins every test but two, which a hit still makes: the argument count,
    and that each index argument is an int (True and 1.0 equal 1).  A node
    that fails either is tested by _check_con, for its message.

    ctx is the lookup context (termrep.Lookups) of the plan's public calls
    or of the verifier's enumerated terms (adequacy._SweepMemo), whose memo also
    maps (id(node), type, index, counts key) to (node, code) for Con nodes
    already encoded, the node keeping its id from being reused."""
    stack, counts, ck = [], counts._counts, counts.key()
    steps, binds = ctx.steps, ctx.binds
    memo = ctx if ctx.memoizes else None
    while True:
        code = None
        if isinstance(term, Var):
            code = _check_var(term, type_name, index, counts)
        else:
            key = None
            if memo is not None:
                key = (id(term), type_name, index, ck)
                hit = memo.young.get(key) or memo.promote(key)
                if hit is not None:
                    code = hit[1]
            if code is None:
                name, ia = term.ctor, term.index_args
                try:
                    step = steps.get((name, type_name, index, ia))
                except TypeError:  # an unhashable field: _check_con judges the node
                    step = None
                if (
                    step is None
                    or len(term.args) != len(step[0])
                    or ia and not all([type(x) is int for x in ia])
                ):
                    step = _encode_step(plan, ctx, type_name, index, term)
                v = counts.get((type_name, index), 0)
                stack.append((term, counts, ck, v, step[0], [], step, key))
        # hand the code to the frames it completes, then start the next argument
        while stack:
            node, node_counts, node_ck, v, targets, codes, step, key = stack[-1]
            if code is not None:
                codes.append(code)
            j = len(codes)
            if j < len(targets):
                type_name, index, keys = targets[j]
                ta = node.args[j]
                if ta.binder_count != len(keys):  # a finite block's constructors bind nothing
                    raise binder_mismatch(node, len(keys), ta)
                counts, ck = node_counts, node_ck
                if keys:
                    counts, ck = binds.get((ck, keys)) or ctx.bind(counts, ck, keys)
                term = ta.body
                break
            stack.pop()
            code = _node_code(step, v, node.index_args, codes)
            if memo is not None:
                memo[key] = (node, code)
        else:
            return code


def _node_code(step, v, index_args, codes):
    """The code of a node from its step record (_encode_step), the v
    variables of its (type, index) in scope, and its arguments' codes."""
    _, entry, tag, total, width, kinds = step
    if entry is not None:
        offset = 0
        for radix, c in zip(entry.radices, codes):
            offset = offset * radix + c
        return v + entry.base + offset
    # the pairing operands: the index arguments, then the infinite
    # arguments' codes; finite ones fold in by radix
    if kinds is None:
        ops = [*index_args, *codes] if index_args else codes
    else:
        ops = [*index_args, *[c for r, c in zip(kinds, codes) if not r]]
    if len(ops) == 1:
        payload = ops[0]
    elif len(ops) == 2:  # mingle, without its checks on codes made here
        payload = _spread(ops[0]) << 1 | _spread(ops[1])
    else:
        payload = mingle_fold(ops)
    if kinds is not None:
        for r, c in zip(kinds, codes):
            if r:
                payload = payload * r + c
    return v + total + width * payload + tag


def _encode_step(plan, ctx, type_name, index, term):
    """term's step record, after _check_con passes it in full: (targets,
    finite entry or None, tag or None, finite total, tag count, slot kinds
    if any is finite or None), made the first time for its key; under a
    plan with no class plans (check_term's), an empty entry: the code is v."""
    _check_con(plan.vsig, type_name, index, term)
    key = (term.ctor, type_name, index, term.index_args)
    step = ctx.steps.get(key)
    if step is None:
        targets = ctx.targets_of(plan.vsig.arg_targets, term.ctor, index, term.index_args)
        if not plan.classes:  # check_term's plan
            return ctx.steps.setdefault(key, (targets, _NO_CODE, None, 0, 0, None))
        cp = (ctx.plans.get((type_name, index)) or _class_record(plan, ctx, type_name, index))[0]
        # a constructor that fits the class is in its finite block or its tags
        entry, tag, kinds = cp.finite.entry_for(term.ctor), None, None
        if entry is None:
            tag = cp.tags.index(term.ctor)
            kinds = cp.steps[tag][1]
            if not any(kinds):
                kinds = None
        step = ctx.steps[key] = (targets, entry, tag, cp.finite.total, len(cp.tags), kinds)
    return step


def _class_record(plan, ctx, type_name, index):
    """The record of (type, index) in ctx.plans: (class plan, finite
    total, tag count, each tag's decode record or None until first used,
    the finite entries' bases, which decode bisects)."""
    cp = plan.class_plan(type_name, index)
    n = len(cp.tags)
    record = ctx.plans[type_name, index] = (cp, cp.finite.total, n, [None] * n, cp.finite.bases)
    return record


def encode_closed(
    plan: CodecPlan, type_name: str, index: int | None, term: Term
) -> int:
    return encode(plan, type_name, index, EMPTY_COUNTS, term)


# ------------------------------------------------------------------ decode


def decode(
    plan: CodecPlan,
    type_name: str,
    index: int | None,
    counts: CountVector,
    code: int,
    fuel: int = DEFAULT_FUEL,
) -> Term:
    """Term whose code this is, or CodeOutOfRange for finite classes;
    TermError for an unknown type or an index that does not fit it.

    Fuel is debited once per decode step; running out signals a plan
    whose decode is not well founded at this code.
    """
    plan.vsig.class_of(type_name, index)
    return _in_context(plan, _decode, plan, type_name, index, counts, code, [fuel])


def _decode(plan, type_name, index, counts, code, cell, ctx):
    """The term of this code, debiting the fuel cell once per node, in a
    loop over a stack of frames, one per Con whose arguments are being
    decoded: its name, index arguments, arguments' targets and codes, the
    arguments decoded so far, its counts and their key, its memo key and
    fuel at its start.

    A node costs one lookup: the record of its (type, index) in ctx.plans
    (_class_record), whose list holds each tag's decode record
    (_decode_step), made on first use: what the tag's step in the class
    plan implies for every node, so a node with no finite argument builds
    no digit list, and one with no index argument slices nothing.

    ctx is the lookup context (termrep.Lookups) of the plan's public calls
    or of an onto sweep (adequacy._SweepMemo), whose memo also maps (type, index,
    counts key, code) to (term, steps), steps being the fuel the term's
    decode spent; a hit is taken only if that much fuel is left, so fuel
    runs out at the same node as without a memo.  Under a memo, each Con
    is encoded as it ends, tested as an encode hit is, and must give the
    code decoded, else TermError: so a term that decodes encodes back."""
    stack, counts, ck = [], counts._counts, counts.key()
    plans, variables, targets_seen, binds = ctx.plans, ctx.variables, ctx.targets, ctx.binds
    steps, memo = ctx.steps, ctx if ctx.memoizes else None
    while True:
        term = key = start = None
        if memo is not None:
            key = (type_name, index, ck, code)
            hit = memo.young.get(key) or memo.promote(key)
            if hit is not None and hit[1] <= cell[0]:
                cell[0] -= hit[1]
                term = hit[0]
            start = cell[0]
        if term is None:
            if cell[0] <= 0:
                raise FuelExhausted(
                    f"decode ran out of fuel at {type_name} code {code};"
                    " raise the fuel, or the plan is not well founded here"
                )
            cell[0] -= 1
            if code < 0:
                raise CodeOutOfRange(f"negative code {code}")
            record = plans.get((type_name, index)) or _class_record(plan, ctx, type_name, index)
            cp, total, width, tag_steps, bases = record
            v = counts.get((type_name, index), 0)
            c = code - v
            targets = None
            if c < 0:
                term = variables.get((type_name, index, code)) or ctx.var(type_name, index, code)
            elif c < total:
                # the last entry based at or below c, so not one with no codes
                entry = cp.finite.entries[bisect_right(bases, c) - 1]
                offset, name, index_args, sub_codes = c - entry.base, entry.ctor_name, (), []
                for radix in reversed(entry.radices):
                    offset, d = divmod(offset, radix)
                    sub_codes.append(d)
                sub_codes.reverse()
            elif not width:
                limit = v + total
                raise CodeOutOfRange(
                    f"code {code} out of range for {cp.label} (codes 0..{limit - 1})"
                    if limit
                    else f"code {code} out of range for empty class {cp.label}"
                )
            else:
                q, tag = divmod(c - total, width)
                name, n_ops, kinds, n_pi, targets = (
                    tag_steps[tag] or _decode_step(plan, ctx, record, tag, index)
                )
                if kinds is not None:  # finite arguments fold out first, by radix
                    fin_rev = []
                    for radix in reversed(kinds):
                        if radix:
                            q, e = divmod(q, radix)
                            fin_rev.append(e)
                if n_ops == 1:
                    values = [q]
                elif n_ops == 2:  # unmingle, without its checks on a code made here
                    values = [_compact(q >> 1), _compact(q)]
                else:
                    values = unmingle_fold(q, n_ops)
                if n_pi:
                    index_args, sub_codes = tuple(values[:n_pi]), values[n_pi:]
                else:
                    index_args, sub_codes = (), values
                if kinds is not None:
                    inf_vals, fin_vals = iter(sub_codes), iter(reversed(fin_rev))
                    sub_codes = [next(fin_vals) if r else next(inf_vals) for r in kinds]
            if term is None:
                if targets is None:
                    targets = targets_seen.get((name, index, index_args))
                    if targets is None:
                        targets = ctx.targets_of(plan.vsig.arg_targets, name, index, index_args)
                stack.append((name, index_args, targets, sub_codes, [], counts, ck, key, start))
        # hand the term to the frames it completes, then start the next argument
        while stack:
            name, index_args, targets, sub_codes, args, node_counts, node_ck, key, start = (
                stack[-1]
            )
            if term is not None:
                n = len(targets[len(args)][2])
                args.append(ctx.var_args.get((n, id(term))) or ctx.var_arg(n, term)
                            if term.__class__ is Var else _arg(n, term))  # a Var's is shared
            j = len(args)
            if j < len(targets):
                type_name, index, keys = targets[j]
                counts, ck = node_counts, node_ck
                if keys:
                    counts, ck = binds.get((ck, keys)) or ctx.bind(counts, ck, keys)
                code = sub_codes[j]
                break
            stack.pop()
            term = _con(name, index_args, tuple(args))
            if memo is not None:  # the node's encode, on its arguments' codes
                step = steps.get((name, key[0], key[1], index_args))
                if step is None or len(args) != len(step[0]) or index_args and not all(
                        [type(x) is int for x in index_args]):
                    step = _encode_step(plan, ctx, key[0], key[1], term)
                # decode walked the arguments at targets, and gave them its binders
                if step[0] is not targets and step[0] != targets or key[3] != _node_code(
                        step, node_counts.get(key[:2], 0), index_args, sub_codes):
                    raise TermError(f"code {key[3]} decoded to a node that re-encodes elsewhere")
                memo[key] = (term, start - cell[0])
        else:
            return term


def _decode_step(plan, ctx, record, tag, index):
    """The decode record of a tag of a (type, index) record: (constructor,
    operand count, slot kinds if any is finite or None, n_pi, the targets
    at this index if n_pi is 0, else None: they depend on the index
    arguments)."""
    name, kinds, n_pi = record[0].steps[tag]
    targets = None if n_pi else ctx.targets_of(plan.vsig.arg_targets, name, index, ())
    step = record[3][tag] = (name, n_pi + kinds.count(0), kinds if any(kinds) else None, n_pi, targets)
    return step


def decode_closed(
    plan: CodecPlan,
    type_name: str,
    index: int | None,
    code: int,
    fuel: int = DEFAULT_FUEL,
) -> Term:
    return decode(plan, type_name, index, EMPTY_COUNTS, code, fuel)


# ----------------------------------------------------------------- compare


def compare(
    plan: CodecPlan, type_name: str, index: int | None, t1: Term, t2: Term
) -> int:
    """Three-way order of two closed terms: -1, 0, or 1.

    Zero exactly when the terms are alpha-equivalent.
    """
    a = encode_closed(plan, type_name, index, t1)
    b = encode_closed(plan, type_name, index, t2)
    return (a > b) - (a < b)
