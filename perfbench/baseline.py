"""One-shot probe of every ROADMAP baseline row, the ROADMAP figure beside ours.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Not one of the benchmark's workloads: it runs each row once (medians of
a few repeats for the short ones) and prints a table.  Takes about a
minute and a half on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

from godelgen import (  # noqa: E402
    Con, EnumBudget, TermArg, assign_tags, check_term, decode_closed, encode_closed,
    parse_signature, parse_term, print_term, term_size, validate, verify_onto,
)
from godelgen.bignat import mingle  # noqa: E402
from godelgen.termrep import EMPTY_COUNTS  # noqa: E402
from spans import term_nodes  # noqa: E402


def plan_of(text: str):
    return assign_tags(validate(parse_signature(text)))


def sig_plan(name: str):
    return plan_of((run.ROOT / run.SIGS[name]).read_text())


def best_of(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def nat_chain(n: int):
    term = Con("z", (), ())
    for _ in range(n):
        term = Con("s", (), (TermArg(0, term),))
    return term


def rows():
    # mingle by operand width
    for bits, roadmap, calls in ((8, 1.3, 20_000), (64, 4.4, 10_000),
                                 (1024, 76, 1_000), (65536, 48_000, 3)):
        a = b = (1 << bits) - 1
        spent = best_of(lambda: [mingle(a, b) for _ in range(calls)], 5)
        yield f"mingle {bits} bits", roadmap, spent / calls * 1e6, "us"

    # decode and encode per node: a nat chain, then lambda codes 0..9,999
    nat = sig_plan("nat")
    term = decode_closed(nat, "nat", None, 800)
    nodes = term_nodes(term)
    yield "nat code 800 decode per node", 11.1, best_of(
        lambda: decode_closed(nat, "nat", None, 800)) / nodes * 1e6, "us"
    yield "nat code 800 encode per node", 5.9, best_of(
        lambda: encode_closed(nat, "nat", None, term)) / nodes * 1e6, "us"

    lam = sig_plan("lambda")
    vsig = lam.vsig
    t0 = time.perf_counter()
    terms = [decode_closed(lam, "t", None, c) for c in range(10_000)]
    decode_s = time.perf_counter() - t0
    nodes = sum(term_nodes(t) for t in terms)
    yield "lambda codes 0..9,999 nodes", 140_483, nodes, "count"
    yield "lambda decode per node", 9.5, decode_s / nodes * 1e6, "us"
    spent = best_of(lambda: [encode_closed(lam, "t", None, t) for t in terms], 1)
    yield "lambda encode per node", 4.0, spent / nodes * 1e6, "us"
    texts = [print_term(vsig, t) for t in terms]
    spent = best_of(lambda: [parse_term(vsig, "t", None, s) for s in texts], 1)
    yield "lambda parse_term per node", 15.6, spent / nodes * 1e6, "us"
    spent = best_of(lambda: [print_term(vsig, t) for t in terms], 1)
    yield "lambda print_term per node", 4.3, spent / nodes * 1e6, "us"
    spent = best_of(lambda: [check_term(vsig, "t", None, EMPTY_COUNTS, t) for t in terms], 1)
    yield "lambda check_term per node", 2.6, spent / nodes * 1e6, "us"

    # huge codes
    for exp, roadmap in ((3000, 0.06), (10000, 0.32), (30000, 1.77)):
        spent = best_of(lambda: decode_closed(lam, "t", None, 10**exp), 1)
        yield f"lambda decode of 10^{exp}", roadmap, spent, "s"

    # the tag search: one base constructor declared after k-1 recursive ones
    for k, roadmap in ((5, 0.75), (6, 4.7)):
        text = "\n".join(["nat : type.", "z : nat.", "s : nat -> nat.", "t : type."]
                         + [f"r{i} : t -> t -> t." for i in range(k - 1)]
                         + ["b : nat -> t."])
        vs = validate(parse_signature(text))
        yield f"assign_tags, {k} infinite constructors", roadmap, best_of(
            lambda: assign_tags(vs), 1), "s"

    # verify_onto: tree classes, then the quadratic chain classes
    for name, type_name, index, codes, roadmap in (
            ("lambda", "t", None, 10_000, 2.40), ("termfam", "term", 1, 10_000, 2.97),
            ("nat", "nat", None, 500, 3.2), ("nat", "nat", None, 1000, 12.2),
            ("rat", "rat", None, 1000, 3.3), ("rat", "rat", None, 2000, 12.6)):
        plan = sig_plan(name)
        budget = EnumBudget(max_code=codes)
        t0 = time.perf_counter()
        verdict = verify_onto(plan, type_name, index, budget)
        spent = time.perf_counter() - t0
        assert verdict.passed and verdict.checked == codes
        label = type_name if index is None else f"{type_name}[{index}]"
        yield f"verify_onto {label}, {codes} codes, 1 worker", roadmap, spent, "s"

    # recursion depth at the default limit: 1 means the operation failed
    deep = {500: nat_chain(500), 1500: nat_chain(1500)}
    paren = "s (" * 499 + "s z" + ")" * 499
    probes = (
        ("decode, nat depth 1500", lambda: decode_closed(nat, "nat", None, 1500)),
        ("encode, nat depth 1500", lambda: encode_closed(nat, "nat", None, deep[1500])),
        ("term_size, nat depth 1500", lambda: term_size(deep[1500])),
        ("print_term, nat depth 1500", lambda: print_term(nat.vsig, deep[1500])),
        ("hash, Con depth 500", lambda: hash(deep[500])),
        ("==, Con depth 500", lambda: deep[500] == nat_chain(500)),
        ("parse_term, 500 nested parentheses",
         lambda: parse_term(nat.vsig, "nat", None, paren)),
    )
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for label, probe in probes:
            try:
                probe()
                failed = 0
            except RecursionError:
                failed = 1
            yield f"fails at limit 1000: {label}", 1, failed, "count"
    finally:
        sys.setrecursionlimit(old)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="also write the rows as JSON here")
    args = parser.parse_args()
    out = []
    for row, roadmap, measured, unit in run.on_big_stack(lambda: list(rows())):
        out.append({"row": row, "roadmap": roadmap, "measured": measured, "unit": unit})
        print(f"{row:48s} {roadmap:>12g} {measured:>14.4g} {unit}")
    if args.out:
        doc = {"python": platform.python_version(), "machine": platform.machine(),
               "rows": out}
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
