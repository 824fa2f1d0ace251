"""Span recording around the calls one godelgen module makes into another.

The package source is never edited.  ``install`` swaps names that one
module looks up in another (``adequacy.decode``, ``codec.mingle_fold``,
methods of ``ValidatedSignature`` and ``TermSet``, ...) for wrappers
that record a span per call, and ``restore`` puts the originals back.
Internal recursion (``codec._decode``, ``termrep.check_term`` calling
itself) is left alone, so a span covers one call at a layer boundary.

Spans live in four flat arrays (name id, parent, start, end, in
nanoseconds) until the run ends; ``layer_metrics`` folds them into the
per-layer figures.  A span's self time is its duration minus the
durations of its direct children.  Work the tracer itself does between
calls, such as counting the nodes of a decoded term, runs inside a
``trace.bookkeeping`` span so that it is not charged to any layer.

A name that a later version of the package no longer has is skipped,
and its metrics read 0.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

from godelgen import adequacy, cli, codec, natcollections, sigmodel, termrep
from godelgen.termrep import Con

_clock = time.perf_counter_ns


def term_nodes(term) -> int:
    """Constructor and variable nodes of a term, without recursion."""
    count = 0
    todo = [term]
    while todo:
        t = todo.pop()
        count += 1
        if isinstance(t, Con):
            todo.extend(ta.body for ta in t.args)
    return count


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # the open spans; verify_onto's deep-stack thread runs while the
        # main thread waits in join, so one stack serves both
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------ wrappers

    def spanned(self, name, fn, after=None, name_for=None):
        """fn wrapped to record one span per call.

        after(args, result) runs once the span has closed, inside a
        bookkeeping span; name_for(args) picks the span name per call.
        """
        nid = self.name_id(name)
        book = self.name_id("trace.bookkeeping")
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack = self.stack

        def open_span(span_name: int) -> int:
            idx = len(starts)
            names.append(span_name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(_clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = _clock()
            stack.pop()

        def traced(*args, **kwargs):
            idx = open_span(nid if name_for is None else self.name_id(name_for(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if after is not None:
                bidx = open_span(book)
                try:
                    after(args, result)
                finally:
                    close_span(bidx)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, name, fn):
        counts = self.counts

        def tallied(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        tallied.__wrapped__ = fn
        return tallied

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- install

    def install(self, api=None) -> None:
        """Wrap every layer boundary; api is the caller's own namespace."""
        counts = self.counts
        class_of = sigmodel.ValidatedSignature.class_of

        def nodes_of(result_pos, key):
            def after(args, result):
                term = result if result_pos is None else args[result_pos]
                counts[key] += term_nodes(term)
            return after

        def class_key(args) -> str:
            plan, type_name, index = args[0], args[1], args[2]
            cls = class_of(plan.vsig, type_name, index)
            return type_name if cls.kind == "unit" else f"{type_name}.{cls.label}"

        def bits(pos):
            def after(args, result):
                n = result if pos is None else args[pos]
                counts["bignat.bits_interleaved"] += n.bit_length()
            return after

        def onto_codes(args, verdict):
            counts["adequacy.onto.codes"] += verdict.checked

        def enumerated(args, terms):
            counts["adequacy.enumerate_terms.terms"] += len(terms)

        def planned(args, plan):
            counts["codec.assign_tags.classes"] += len(plan.classes)

        span = self.spanned
        dec = lambda f: span("codec.decode", f, nodes_of(None, "codec.decode.nodes"))
        enc = lambda f: span("codec.encode", f, nodes_of(-1, "codec.encode.nodes"))
        chk = lambda f: span("termrep.check_term", f, nodes_of(-1, "termrep.check_term.nodes"))
        prt = lambda f: span("termrep.print_term", f, nodes_of(1, "termrep.print_term.nodes"))
        prs = lambda f: span("termrep.parse_term", f, nodes_of(None, "termrep.parse_term.nodes"))
        stk = lambda f: span("_stack.call_with_deep_stack", f)
        tags = lambda f: span("codec.assign_tags", f, planned)
        psig = lambda f: span("sigmodel.parse_signature", f)
        vsig = lambda f: span("sigmodel.validate", f)

        p = self.patch
        p(codec, "mingle_fold", lambda f: span("bignat.mingle_fold", f, bits(None)))
        p(codec, "unmingle_fold", lambda f: span("bignat.unmingle_fold", f, bits(0)))
        p(codec, "build_plan", lambda f: span("codec.build_plan", f))
        p(codec, "decode", dec)  # decode_closed and the tag search's trials
        p(codec, "encode_closed", enc)  # encode itself recurses by this name
        p(codec, "check_term", chk)
        for meth in ("eval_index", "match_index", "class_of"):
            p(sigmodel.ValidatedSignature, meth,
              lambda f, m=meth: span(f"sigmodel.{m}", f))
        p(termrep.CountVector, "extend",
          lambda f: self.counted("termrep.countvector_extend.calls", f))

        p(adequacy, "decode", dec)
        p(adequacy, "encode", enc)
        p(adequacy, "check_term", chk)
        p(adequacy, "print_term", prt)
        p(adequacy, "parse_term", prs)
        p(adequacy, "call_with_deep_stack", stk)
        p(adequacy, "enumerate_terms",
          lambda f: span("adequacy.enumerate_terms", f, enumerated))
        for prop in ("total_unique", "onto", "one_to_one"):
            after = onto_codes if prop == "onto" else None
            p(adequacy, f"verify_{prop}",
              lambda f, prop=prop, after=after: span(
                  f"adequacy.{prop}", f, after,
                  name_for=lambda args, prop=prop: f"adequacy.{prop}.{class_key(args)}"))

        p(natcollections, "check_term", chk)
        p(natcollections, "encode_closed", enc)
        for meth in ("insert", "member", "union", "difference"):
            p(natcollections.TermSet, meth,
              lambda f, m=meth: span(f"natcollections.termset_{m}", f))

        p(cli, "call_with_deep_stack", stk)
        p(cli, "assign_tags", tags)
        p(cli, "parse_signature", psig)
        p(cli, "validate", vsig)
        p(cli, "decode", dec)
        p(cli, "encode", enc)
        p(cli, "parse_term", prs)
        p(cli, "print_term", prt)
        p(cli, "verify_all", lambda f: span("adequacy.verify_all", f))
        p(cli, "compare", lambda f: span("codec.compare", f))
        p(cli, "run", lambda f: span("cli.run", f))

        if api is not None:
            p(api, "parse_signature", psig)
            p(api, "validate", vsig)
            p(api, "assign_tags", tags)
            p(api, "decode_closed", dec)
            p(api, "encode_closed", enc)
            p(api, "check_term", chk)
            p(api, "print_term", prt)
            p(api, "parse_term", prs)
            p(api, "verify_all", lambda f: span("adequacy.verify_all", f))

    # ------------------------------------------------------------- summary

    def raw(self) -> dict:
        """Per span name: calls, inclusive and self nanoseconds; plus counts."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0] * n_names
        own = [0] * n_names
        under_tags = Counter()
        tags_id = self._ids.get("codec.assign_tags", -2)
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        self_ns = array("q", bytes(8 * len(starts)))
        for i in range(len(starts)):
            dur = ends[i] - starts[i]
            self_ns[i] += dur
            par = parents[i]
            if par >= 0:
                self_ns[par] -= dur
                if names[par] == tags_id:
                    under_tags[self.names[names[i]]] += 1
        for i in range(len(starts)):
            nid = names[i]
            calls[nid] += 1
            incl[nid] += ends[i] - starts[i]
            own[nid] += self_ns[i]
        spans = {
            self.names[k]: {"calls": calls[k], "incl_ns": incl[k], "self_ns": own[k]}
            for k in range(n_names)
        }
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "under_assign_tags": dict(under_tags),
            "n_spans": len(starts),
        }


def merge_raw(parts: list[dict]) -> dict:
    """Sum raw summaries, such as one per CLI child process."""
    spans: dict = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    counts: Counter = Counter()
    under: Counter = Counter()
    n_spans = 0
    for part in parts:
        for name, row in part["spans"].items():
            for key, value in row.items():
                spans[name][key] += value
        counts.update(part["counts"])
        under.update(part["under_assign_tags"])
        n_spans += part["n_spans"]
    return {"spans": dict(spans), "counts": dict(counts),
            "under_assign_tags": dict(under), "n_spans": n_spans}


CLASSES = ("t", "nat", "term.z", "term.s")


def layer_metrics(raw: dict) -> dict[str, float]:
    """The span-derived per-layer metrics, by name."""
    spans, counts = raw["spans"], raw["counts"]
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0}

    def row(name):
        return spans.get(name, zero)

    def per_node(name, nodes_key):
        nodes = counts.get(nodes_key, 0)
        return row(name)["incl_ns"] / 1e3 / nodes if nodes else 0.0

    out: dict[str, float] = {}
    for layer, name in (("bignat", "mingle_fold"), ("bignat", "unmingle_fold"),
                        ("sigmodel", "eval_index"), ("sigmodel", "match_index"),
                        ("sigmodel", "class_of"),
                        ("natcollections", "termset_insert"),
                        ("natcollections", "termset_member")):
        r = row(f"{layer}.{name}")
        out[f"{layer}.{name}.calls"] = r["calls"]
        out[f"{layer}.{name}.self_s"] = r["self_ns"] / 1e9
    out["bignat.bits_interleaved"] = counts.get("bignat.bits_interleaved", 0)
    for name in ("decode", "encode"):
        r = row(f"codec.{name}")
        out[f"codec.{name}.calls"] = r["calls"]
        out[f"codec.{name}.self_s"] = r["self_ns"] / 1e9
        out[f"codec.{name}.nodes"] = counts.get(f"codec.{name}.nodes", 0)
        out[f"codec.{name}.us_per_node"] = per_node(f"codec.{name}", f"codec.{name}.nodes")
    plans = raw["under_assign_tags"].get("codec.build_plan", 0)
    out["codec.assign_tags.s"] = row("codec.assign_tags")["incl_ns"] / 1e9
    out["codec.assign_tags.plans_tried"] = plans
    out["codec.assign_tags.trial_decodes"] = raw["under_assign_tags"].get("codec.decode", 0)
    out["codec.assign_tags.useful_ratio"] = (
        counts.get("codec.assign_tags.classes", 0) / plans if plans else 0.0
    )
    out["sigmodel.parse_signature.s"] = row("sigmodel.parse_signature")["incl_ns"] / 1e9
    out["sigmodel.validate.s"] = row("sigmodel.validate")["incl_ns"] / 1e9
    for name in ("check_term", "print_term", "parse_term"):
        r = row(f"termrep.{name}")
        out[f"termrep.{name}.calls"] = r["calls"]
        out[f"termrep.{name}.self_s"] = r["self_ns"] / 1e9
        out[f"termrep.{name}.us_per_node"] = per_node(
            f"termrep.{name}", f"termrep.{name}.nodes")
    out["termrep.countvector_extend.calls"] = counts.get("termrep.countvector_extend.calls", 0)
    out["adequacy.enumerate_terms.terms"] = counts.get("adequacy.enumerate_terms.terms", 0)
    out["adequacy.onto.codes"] = counts.get("adequacy.onto.codes", 0)
    for prop in ("total_unique", "onto", "one_to_one"):
        for cls in CLASSES:
            out[f"adequacy.{prop}_s.{cls}"] = row(f"adequacy.{prop}.{cls}")["incl_ns"] / 1e9
    out["cli.run.self_s"] = row("cli.run")["self_ns"] / 1e9
    r = row("_stack.call_with_deep_stack")
    out["stack.calls"] = r["calls"]
    out["stack.self_s"] = r["self_ns"] / 1e9
    out["trace.spans"] = raw["n_spans"]
    return out
