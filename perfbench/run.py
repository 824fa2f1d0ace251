#!/usr/bin/env python3
"""Benchmark of godelgen, driven through its public API from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/NOTES.md for why each exists):

  tree     verify_all on lambda at the acceptance budget, then a TermSet
           phase on decoded low codes and their alpha-renamed reprints
  indexed  verify_all on termfam at the acceptance budget
  bigcode  huge lambda codes through decode, check, encode, print,
           parse and re-encode, on a big-stack thread
  cli      one-shot godelgen commands, each in a fresh child process

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run (see perfbench/spans.py).  The process is pinned to
one CPU, and the untraced run times each unit against a reference
computation sampled on that CPU (see perfbench/refclock.py).  Every
output is checked against perfbench/pins.json or against an independent
computation; a mismatch or an exception counts as a failed operation.

--size tiny shrinks every workload for the smoke test (perfbench/smoke.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SIGS = {
    "nat": "tests/data/nat.sig",
    "natlist": "tests/data/natlist.sig",
    "rat": "tests/data/rat.sig",
    "ratflip": "tests/data/ratflip.sig",
    "lambda": "tests/data/lambda.sig",
    "termfam": "tests/data/termfam.sig",
    "bool": "tests/data/bool.sig",
    "exists": "tests/data/exists.sig",
    "mixed": "tests/data/mixed.sig",
    "wide": "perfbench/data/wide.sig",
}

# class each CLI command works in, per signature
TARGETS = {
    "nat": ("nat", None), "natlist": ("natlist", None), "rat": ("rat", None),
    "ratflip": ("rat", None), "lambda": ("t", None), "termfam": ("term", 1),
    "bool": ("bool", None), "exists": ("term", 0), "mixed": ("tree", None),
    "wide": ("exp", None),
}
SUBCOMMANDS = ("check", "encode", "decode", "enumerate", "verify", "compare")

BIGCODE_DIGITS = {"full": (3000, 10000, 30000), "tiny": (30, 100, 300)}
# a run holds two or three units, so it always covers a pool of two
BIGCODE_POOL = 2
# low lambda codes the TermSet phase draws from, and how many per set
TERMSET = {"full": (3000, 400), "tiny": (200, 20)}
BIG_STACK = 512 * 1024 * 1024
DEPTH_PROBE = 1500


def bigcode_pool(digits: int) -> list[int]:
    """The fixed codes of one width; a run's seed picks among them."""
    return [
        random.Random(f"bigcode:{digits}:{k}").randrange(10 ** (digits - 1), 10**digits)
        for k in range(BIGCODE_POOL)
    ]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------- harness


class Checks:
    """Attempted and failed operations; a failure is a mismatch or an error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, *args):
        """fn(*args), counting an exception as a failed operation."""
        try:
            return fn(*args)
        except Exception as exc:  # any error is a failed operation
            self.expect(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


def on_big_stack(fn, *args):
    """fn(*args) on a thread with a 512 MiB stack, as the CLI runs commands."""
    box: dict = {}

    def target():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(400_000)
        try:
            box["value"] = fn(*args)
        except BaseException as exc:
            box["error"] = exc
        finally:
            sys.setrecursionlimit(old)

    previous = threading.stack_size(BIG_STACK)
    try:
        worker = threading.Thread(target=target, name="bench-big-stack")
        worker.start()
    finally:
        threading.stack_size(previous)
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


def repeat_for(seconds: float, unit, between) -> list[tuple[float, float]]:
    """Run unit() until another run would overshoot the budget; the
    perf_counter window (start, end) of each run.

    between() runs after each unit, outside the timing, so that samples
    of set-up are spread over the whole run.
    """
    windows: list[tuple[float, float]] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        unit()
        windows.append((t0, time.perf_counter()))
        between()
        if time.perf_counter() - started + median(t1 - t0 for t0, t1 in windows) > seconds:
            return windows


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Bench:
    """State shared by the workloads of one run."""

    def __init__(self, args, pins: dict) -> None:
        import godelgen
        from godelgen import adequacy, codec, sigmodel, termrep

        self.args = args
        self.size = args.size
        self.rng = random.Random(args.seed)
        self.pins = pins
        self.checks = Checks()
        self.gg = godelgen
        self.empty = termrep.EMPTY_COUNTS
        # every call the workloads make goes through this namespace, so
        # the traced run can wrap the bench's own calls as well
        self.api = types.SimpleNamespace(
            parse_signature=sigmodel.parse_signature,
            validate=sigmodel.validate,
            assign_tags=codec.assign_tags,
            decode_closed=codec.decode_closed,
            encode_closed=codec.encode_closed,
            check_term=termrep.check_term,
            print_term=termrep.print_term,
            parse_term=termrep.parse_term,
            verify_all=adequacy.verify_all,
        )
        self.texts = {name: (ROOT / path).read_text() for name, path in SIGS.items()}

    def setup(self, names) -> dict:
        """Parse, validate and assign tags for each named signature."""
        api = self.api
        plans = {}
        for name in names:
            vsig = api.validate(api.parse_signature(self.texts[name]))
            plans[name] = api.assign_tags(vsig)
        return plans

    def timed_setup(self, names, reps: int, windows: list) -> dict:
        """Set up reps times, appending each perf_counter window to windows."""
        for _ in range(reps):
            gc.collect()
            t0 = time.perf_counter()
            plans = self.setup(names)
            windows.append((t0, time.perf_counter()))
        return plans


# ------------------------------------------------------------- workloads


def verify_budget(size: str, name: str):
    from godelgen import EnumBudget

    if size == "tiny":
        return EnumBudget.with_overrides(
            max_size=3, max_code=100, per_class={("nat", "-"): (3, 50)})
    if name == "termfam":
        # the acceptance budget: the nat chain is quadratic, so it is capped
        return EnumBudget.with_overrides(
            max_size=6, max_code=10_000, per_class={("nat", "-"): (6, 700)})
    return EnumBudget(max_size=6, max_code=10_000)


def verify(bench: Bench, name: str, plan, budget) -> None:
    """One verify_all verdict, checked against the pinned report rows."""
    report = bench.checks.run(f"{name}: verify_all", bench.api.verify_all, plan, budget)
    if report is None:
        return
    pinned = bench.pins["verify"][bench.size][name]
    rows = [[r.type_name, r.index_class, r.passed, r.terms_checked, r.codes_checked]
            for r in report.classes]
    bench.checks.expect(report.passed, f"{name}: verify_all did not pass")
    bench.checks.expect(rows == pinned, f"{name}: report rows {rows} != pinned {pinned}")


def lambda_anchors(bench: Bench, plan) -> None:
    api, c = bench.api, bench.checks
    vsig = plan.vsig
    identity = c.run("parse lam [x] x", api.parse_term, vsig, "t", None, "lam [x] x")
    c.expect(c.run("encode identity", api.encode_closed, plan, "t", None, identity) == 0,
             "lambda: lam [x] x is not code 0")
    one = c.run("decode 1", api.decode_closed, plan, "t", None, 1)
    c.expect(one is not None and api.print_term(vsig, one)
             == "app (lam [x0] x0) (lam [x0] x0)", "lambda: code 1 moved")


class TermSetPhase:
    """Writes, then reads, of TermSets keyed by low lambda codes.

    Inputs come from the seed: two code samples A and B, the query
    sample Q, and the binder names of each reprint.  Expected results are
    computed on the integer codes, independently of TermSet.
    """

    def __init__(self, bench: Bench, plan) -> None:
        low, k = TERMSET[bench.size]
        rng = bench.rng
        self.bench, self.plan = bench, plan
        self.a = rng.sample(range(low), k)
        self.b = rng.sample(range(low), k)
        self.q = rng.sample(range(low), k)
        self.stems = [f"v{rng.randrange(10_000)}n" for _ in range(k)]

    def reprint(self, term, stem: str):
        api, vsig = self.bench.api, self.plan.vsig
        text = api.print_term(vsig, term,
                              namer=lambda _t, _i, _l, ordinal: f"{stem}{ordinal}")
        return api.parse_term(vsig, "t", None, text)

    def run(self) -> tuple[int, float]:
        """One phase; the TermSet operations made and the time they took."""
        api, c, plan = self.bench.api, self.bench.checks, self.plan
        gg = self.bench.gg
        decode = lambda code: api.decode_closed(plan, "t", None, code)
        writes = []
        for codes in (self.a, self.b):
            items = []
            for code, stem in zip(codes, self.stems):
                term = decode(code)
                items.append((term, self.reprint(term, stem)))
            writes.append(items)
        queries = [decode(code) for code in self.q]

        ops = 0
        t0 = time.perf_counter()
        sets = []
        for items in writes:
            ts = gg.TermSet(plan, "t")
            for term, variant in items:
                ts = ts.insert(term).insert(variant)
                ops += 2
            sets.append(ts)
        set_a, set_b = sets
        members = [set_a.member(term) for term in queries]
        ops += len(queries)
        union = set_a.union(set_b)
        diff = set_a.difference(set_b)
        ops += 2
        spent = time.perf_counter() - t0

        a, b = set(self.a), set(self.b)
        c.expect(set_a.codes.elements() == tuple(sorted(a)), "TermSet A elements")
        c.expect(set_b.codes.elements() == tuple(sorted(b)), "TermSet B elements")
        c.expect(members == [code in a for code in self.q], "TermSet member answers")
        c.expect(union.codes.elements() == tuple(sorted(a | b)), "TermSet union")
        c.expect(diff.codes.elements() == tuple(sorted(a - b)), "TermSet difference")
        return ops, spent


def tree(bench: Bench, plans: dict):
    """lambda: verify_all, then the TermSet phase; one unit is both."""
    plan = plans["lambda"]
    budget = verify_budget(bench.size, "lambda")
    phase = TermSetPhase(bench, plan)
    termset = []

    def unit():
        verify(bench, "lambda", plan, budget)
        result = bench.checks.run("TermSet phase", phase.run)
        if result is not None:
            termset.append(result)

    lambda_anchors(bench, plan)
    return unit, {"termset": termset}


def indexed(bench: Bench, plans: dict):
    """termfam: verify_all at the acceptance budget; one unit is one verdict."""
    plan = plans["termfam"]
    api, c, vsig = bench.api, bench.checks, plan.vsig
    budget = verify_budget(bench.size, "termfam")

    def unit():
        verify(bench, "termfam", plan, budget)

    # anchors, and seeded round trips at each representative index
    unit_term = c.run("parse unit", api.parse_term, vsig, "term", 0, "unit")
    c.expect(c.run("encode unit", api.encode_closed, plan, "term", 0, unit_term) == 0,
             "termfam: unit is not code 0")
    rec = c.run("parse rec", api.parse_term, vsig, "term", 0, "rec [f] f")
    c.expect(c.run("encode rec", api.encode_closed, plan, "term", 0, rec) == 2,
             "termfam: rec [f] f is not code 2")

    def round_trip(index: int, code: int) -> int:
        term = api.decode_closed(plan, "term", index, code)
        text = api.print_term(vsig, term, index=index)
        return api.encode_closed(plan, "term", index, api.parse_term(vsig, "term", index, text))

    for index in (0, 1, 2):
        for code in bench.rng.sample(range(100_000), 3):
            c.expect(c.run("round trip", round_trip, index, code) == code,
                     f"termfam: term {index} code {code} does not round-trip")
    return unit, {}


def bigcode(bench: Bench, plans: dict):
    """Huge lambda codes; one unit is one code of each width, round-tripped."""
    plan = plans["lambda"]
    api, c, vsig, empty = bench.api, bench.checks, plan.vsig, bench.empty
    digits = BIGCODE_DIGITS[bench.size]
    pools = {d: bigcode_pool(d) for d in digits}
    pinned = bench.pins["bigcode"]
    first = bench.rng.randrange(BIGCODE_POOL)
    rounds = [0]

    def round_trip(code: int, expected_sha: str) -> list:
        steps = []
        term = api.decode_closed(plan, "t", None, code)
        api.check_term(vsig, "t", None, empty, term)
        steps.append(api.encode_closed(plan, "t", None, term) == code)
        text = api.print_term(vsig, term)
        steps.append(sha(text) == expected_sha)
        back = api.parse_term(vsig, "t", None, text)
        steps.append(api.encode_closed(plan, "t", None, back) == code)
        return steps

    def one_round():
        k = (first + rounds[0]) % BIGCODE_POOL
        rounds[0] += 1
        return [(d, k, round_trip(pools[d][k], pinned[str(d)][k])) for d in digits]

    def unit():
        try:
            results = on_big_stack(one_round)
        except Exception as exc:
            c.expect(False, f"bigcode round: {type(exc).__name__}: {exc}")
            return
        for d, k, steps in results:
            for step, ok in zip(("encode", "print sha256", "re-encode"), steps):
                c.expect(ok, f"bigcode {d} digits #{k}: {step}")

    return unit, {}


def cli_mix(bench: Bench) -> list[dict]:
    """One round of 30 commands: every subcommand, every signature.

    Each tests/data signature gets three subcommands, so that any two
    consecutive signatures in the seeded order cover all six; wide gets
    check and two commands that search its tags.  The seed also picks
    each command's arguments from the pinned pool, and the order.
    """
    rng = bench.rng
    pool = bench.pins["cli"]
    if bench.size == "tiny":
        pairs = [("lambda", sub) for sub in SUBCOMMANDS]
    else:
        names = [n for n in SIGS if n != "wide"]
        rng.shuffle(names)
        subs = list(SUBCOMMANDS)
        rng.shuffle(subs)
        pairs = [(n, subs[(3 * i + j) % 6]) for i, n in enumerate(names) for j in range(3)]
        pairs.append(("wide", "check"))
        pairs += [("wide", s) for s in rng.sample(SUBCOMMANDS[1:], 2)]
    mix = [rng.choice(pool[f"{n}/{s}"]) for n, s in pairs]
    rng.shuffle(mix)
    return mix


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("GODELGEN_FUEL", "PYTHONPATH")}


def run_command(bench: Bench, entry: dict,
                trace_parts: list | None = None) -> tuple[float, float]:
    """Run one pinned command in a fresh process; its perf_counter window."""
    argv = [sys.executable, str(BENCH / "clidriver.py"), *entry["argv"]]
    env = child_env()
    read_fd = None
    pass_fds: tuple = ()
    if trace_parts is not None:
        read_fd, write_fd = os.pipe()
        env["GODELGEN_BENCH_TRACE_FD"] = str(write_fd)
        pass_fds = (write_fd,)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, pass_fds=pass_fds)
    if read_fd is not None:
        os.close(pass_fds[0])
    out, err = proc.communicate()
    t1 = time.perf_counter()
    if read_fd is not None:
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
        if payload:
            trace_parts.append(json.loads(payload))
    shown = " ".join(entry["argv"])
    ok = bench.checks.expect(proc.returncode == entry["code"],
                             f"`{shown}` exited {proc.returncode}, pinned {entry['code']}")
    if ok:
        bench.checks.expect(out == entry["stdout"], f"`{shown}` printed other output")
    else:
        print(err[-400:], file=sys.stderr)
    return t0, t1


def tail_of(samples: list[float]) -> float:
    """The highest whole percentile with at least ten samples beyond it
    (p66 of a 30-command round), by nearest rank."""
    n = len(samples)
    if n <= 10:
        return max(samples)
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return sorted(samples)[rank - 1]


def cli(bench: Bench, plans: dict):
    """One-shot commands; one unit is one round of the 30-command mix."""
    mix = cli_mix(bench)
    commands: list[tuple[float, float]] = []
    tails: list[float] = []

    def unit():
        windows = [run_command(bench, entry) for entry in mix]
        commands.extend(windows)
        tails.append(tail_of([t1 - t0 for t0, t1 in windows]))

    return unit, {"commands": commands, "tails": tails, "mix": mix}


# workload, and how many set-ups it times before its first unit and after each
WORKLOADS = {"tree": (tree, 15), "indexed": (indexed, 15), "bigcode": (bigcode, 15),
             "cli": (cli, 2)}
# the signatures each workload sets up
SIGS_OF = {"tree": ["lambda"], "indexed": ["termfam"], "bigcode": ["lambda"],
           "cli": list(SIGS)}


def signatures(bench: Bench, name: str) -> list[str]:
    return ["lambda"] if bench.size == "tiny" and name == "cli" else SIGS_OF[name]


# -------------------------------------------------------------- measuring


def end_to_end(bench: Bench, name: str) -> dict:
    """The untraced run.  Every stretch is timed against a reference clock
    (perfbench/refclock.py): task_rel is in its units, and setup_s in
    seconds at its nominal speed, so that neither follows the machine's."""
    make, reps = WORKLOADS[name]
    names = signatures(bench, name)
    setups: list[tuple[float, float]] = []
    with refclock.RefClock() as clock:
        plans = bench.timed_setup(names, reps, setups)
        unit, extra = make(bench, plans)
        units = repeat_for(bench.args.seconds, unit,
                           lambda: bench.timed_setup(names, reps, setups))
    tasks = extra["commands"] if name == "cli" else units
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    task_s = [clock.seconds(*w) for w in tasks]
    task_rel = [clock.units(*w) for w in tasks]
    setup_s = [clock.seconds(*w) for w in setups]
    setup_rel = [clock.units(*w) for w in setups]
    print(f"{name}: {len(units)} unit(s), {len(tasks)} task(s) of"
          f" {min(task_s):.3f}..{max(task_s):.3f} s (median {median(task_s):.3f} s),"
          f" {min(task_rel):.0f}..{max(task_rel):.0f} reference chunks;"
          f" {len(setups)} set-ups of {min(setup_s):.4f}..{max(setup_s):.4f} s"
          f" (median {median(setup_s):.4f} s), median {median(setup_rel):.2f} chunks;"
          f" {len(clock.mid)} reference samples", file=sys.stderr)
    if name != "cli":
        print(f"{name}: units in reference chunks, in order: "
              + " ".join(f"{u:.0f}" for u in task_rel), file=sys.stderr)
    return {"setup_s": median(setup_rel) * refclock.CHUNK_S, "task_rel": median(task_rel),
            "peak_rss_mb": rss}


def import_probe(reps: int = 5) -> tuple[float, float]:
    """Median ms to import godelgen.cli, and godelgen.bignat's own share,
    in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import godelgen.cli; print((time.perf_counter() - t) * 1e3)"
    )
    totals, bignat = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, cwd=ROOT, env=child_env())
        totals.append(float(proc.stdout.strip().splitlines()[-1]))
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "godelgen.bignat":
                bignat.append(int(parts[0].split(":")[-1]) / 1e3)
    return median(totals), median(bignat) if bignat else 0.0


def mingle_probe(rng: random.Random) -> dict[str, float]:
    """Microseconds per bignat.mingle call at each operand width."""
    from godelgen.bignat import mingle

    out = {}
    for bits, calls in ((8, 20_000), (64, 10_000), (1024, 1_000), (65536, 3)):
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        b = rng.getrandbits(bits) | 1 << (bits - 1)
        per_call = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                mingle(a, b)
            per_call.append((time.perf_counter() - t0) / calls * 1e6)
        out[f"bignat.mingle_us.{bits}b"] = median(per_call)
    return out


def depth_probe(bench: Bench) -> int:
    """How many of decode, encode, print, parse and == fail on a nat
    term DEPTH_PROBE deep at the interpreter's default recursion limit."""
    gg, api = bench.gg, bench.api
    plan = bench.setup(["nat"])["nat"]
    vsig = plan.vsig

    def chain():
        term = gg.Con("z", (), ())
        for _ in range(DEPTH_PROBE):
            term = gg.Con("s", (), (gg.TermArg(0, term),))
        return term

    term = chain()
    text = "s (" * (DEPTH_PROBE - 1) + "s z" + ")" * (DEPTH_PROBE - 1)
    probes = (
        lambda: api.decode_closed(plan, "nat", None, DEPTH_PROBE) == term,
        lambda: api.encode_closed(plan, "nat", None, term) == DEPTH_PROBE,
        lambda: api.print_term(vsig, term) == text,
        lambda: api.parse_term(vsig, "nat", None, text) == term,
        lambda: term == chain(),
    )
    failures = 0
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for probe in probes:
            try:
                bench.checks.expect(probe(), "depth probe gave a wrong answer")
            except RecursionError:
                failures += 1
    finally:
        sys.setrecursionlimit(old)
    return failures


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "godelgen").rglob("*.py"))


def per_layer(bench: Bench, name: str) -> dict:
    """A traced run: each workload once with spans, beside one untraced unit."""
    import spans

    out: dict = {}
    out["cli.import_ms"], out["bignat.import_ms"] = import_probe()
    out.update(mingle_probe(bench.rng))
    out["termrep.depth_failures"] = depth_probe(bench)
    out["src.lines"] = source_lines()

    make, _reps = WORKLOADS[name]
    names = signatures(bench, name)
    unit, extra = make(bench, bench.setup(names))
    gc.collect()
    t0 = time.perf_counter()
    unit()
    untraced = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install(bench.api)
    try:
        bench.setup(names)
        gc.collect()
        if name == "cli":
            parts: list = []
            t0 = time.perf_counter()
            for entry in extra["mix"]:
                run_command(bench, entry, parts)
            traced = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            unit()
            traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    raw = tracer.raw()
    if name == "cli":
        raw = spans.merge_raw([raw, *parts])
    out.update(spans.layer_metrics(raw))
    out["trace.overhead"] = traced / untraced - 1
    print(f"{name}: untraced unit {untraced:.3f} s, traced {traced:.3f} s,"
          f" {raw['n_spans']} spans, peak RSS {peak_rss_mb():.0f} MB", file=sys.stderr)

    ops, spent = extra["termset"][0] if extra.get("termset") else (0, 0.0)
    out["natcollections.termset_ops_per_s"] = ops / spent if spent else 0.0
    out["cli.cmd_ms.tail"] = extra["tails"][0] * 1e3 if extra.get("tails") else 0.0
    return out


# ------------------------------------------------------------------- main


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "godelgen" / "__init__.py").is_file():
        print(f"error: no godelgen sources under {SRC}", file=sys.stderr)
        return 2
    for path in SIGS.values():
        if not (ROOT / path).is_file():
            print(f"error: missing signature {path}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import godelgen

    if Path(godelgen.__file__).resolve().parent != SRC / "godelgen":
        print(f"error: imported godelgen from {godelgen.__file__}", file=sys.stderr)
        return 2
    pins = json.loads((BENCH / "pins.json").read_text())
    units = declared_metrics(bool(args.trace))

    refclock.pin_to_one_cpu()
    bench = Bench(args, pins)
    if args.trace:
        values = per_layer(bench, args.workload)
    else:
        values = end_to_end(bench, args.workload)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are emitted but not"
              " declared in BENCHMARK.json, or declared but not emitted", file=sys.stderr)
        return 3
    checks = bench.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
