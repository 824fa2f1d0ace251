"""Deep terms, deep signature index expressions, threads and Ctrl-C.

Every check runs in a fresh interpreter at the default recursion limit,
so no setting made by the test session can hide a depth failure.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from conftest import sig_path

SRC = Path(__file__).resolve().parent.parent / "src"
DEPTH = 50_000


def nested_succ(depth: int) -> str:
    return "s (" * (depth - 1) + "s z" + ")" * (depth - 1)


NAT_TEXT = nested_succ(DEPTH)


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_term_text_nesting_at_the_default_limit():
    # a chain of abbreviations, each defined through the next, and
    # brackets nested around an application's head and around a term
    out = run_fresh(
        """
        import sys
        from godelgen import parse_signature, parse_term, term_size, validate

        assert sys.getrecursionlimit() == 1000
        n = int(sys.argv[2])
        chain = "".join(f"%abbrev a{i} : nat = s a{i + 1}. " for i in range(n - 1))
        text = open(sys.argv[1]).read() + chain + f"%abbrev a{n - 1} : nat = z."
        vsig = validate(parse_signature(text))
        term = parse_term(vsig, "nat", None, "a0")
        assert term == parse_term(vsig, "nat", None, str(n - 1))
        assert term_size(term) == n
        deep = "(" * n + "s" + ")" * n + " " + "(" * n + "z" + ")" * n
        assert parse_term(vsig, "nat", None, deep) == parse_term(vsig, "nat", None, "s z")
        print("ok")
        """,
        str(sig_path("nat")), "3000",
    )
    assert out == "ok\n"


def test_binder_nest_round_trips_in_linear_time():
    # each binder used to copy the whole scope, so parse and print took
    # 24 s and 39 s at this depth
    out = run_fresh(
        """
        import sys, time
        from godelgen import parse_signature, parse_term, print_term, validate

        n = int(sys.argv[2])
        vsig = validate(parse_signature(open(sys.argv[1]).read()))
        text = "".join(f"lam [x{i}] " for i in range(n)) + "x0"
        start = time.perf_counter()
        term = parse_term(vsig, "t", None, text)
        assert print_term(vsig, term) == text
        elapsed = time.perf_counter() - start
        assert elapsed < 10, elapsed
        print("ok")
        """,
        str(sig_path("lambda")), "20000",
    )
    assert out == "ok\n"


def test_cli_decodes_a_deep_nat():
    done = subprocess.run(
        [sys.executable, "-m", "godelgen.cli", "decode", str(sig_path("nat")),
         "--type", "nat", "--fuel", "60000", str(DEPTH)],
        env=fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == NAT_TEXT + "\n"


def test_sigint_ends_verify():
    # verify on lambda with ten million codes runs for minutes
    proc = subprocess.Popen(
        [sys.executable, "-m", "godelgen.cli", "verify", str(sig_path("lambda")),
         "--max-code", "10000000"],
        env=fresh_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(2)
        assert proc.poll() is None, "verify finished before it was interrupted"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            raise AssertionError("verify still running 10 s after SIGINT")


def test_verify_and_cli_start_no_thread_and_keep_the_limit():
    out = run_fresh(
        """
        import sys
        import threading

        from godelgen import EnumBudget, assign_tags, cli, parse_signature, validate, verify_all

        started, limits = [], []
        real_start, real_limit = threading.Thread.start, sys.setrecursionlimit
        threading.Thread.start = lambda self: started.append(self.name) or real_start(self)
        sys.setrecursionlimit = lambda n: limits.append(n) or real_limit(n)
        before = sys.getrecursionlimit()
        plan = assign_tags(validate(parse_signature(open(sys.argv[1]).read())))
        verify_all(plan, EnumBudget(max_size=3, max_code=50))
        assert cli.run(["verify", sys.argv[1], "--max-size", "3", "--max-code", "50"]) == 0
        assert cli.run(["decode", sys.argv[1], "--type", "nat", "7"]) == 0
        print(started, limits, sys.getrecursionlimit() == before)
        """,
        str(sig_path("nat")),
    )
    assert out.splitlines()[-1] == "[] [] True"


SIG_HEAD = "nat : type. z : nat. s : nat -> nat. t : nat -> type.\n"
DEEP_INDEX_SIGS = {
    # a result index deeper than one successor is a pattern diagnostic
    "result": lambda n: SIG_HEAD + f"k : t ({nested_succ(n)}).\n",
    "argument": lambda n: SIG_HEAD
    + f"base : t N. k : t ({nested_succ(n)}) -> t z. k2 : t ({nested_succ(n)}) -> t (s N).\n",
}


@pytest.mark.parametrize("shape", sorted(DEEP_INDEX_SIGS))
def test_deep_signature_index_behaves_like_a_shallow_one(tmp_path, shape):
    results = []
    for depth in (3, 3_000):
        path = tmp_path / f"{shape}{depth}.sig"
        path.write_text(DEEP_INDEX_SIGS[shape](depth))
        runs = []
        for command in (["check"], ["verify", "--max-size", "3", "--max-code", "30"]):
            done = subprocess.run(
                [sys.executable, "-m", "godelgen.cli", *command, str(path)],
                env=fresh_env(), capture_output=True, text=True, timeout=300,
            )
            runs.append((done.returncode, done.stdout, done.stderr.replace(path.name, "SIG")))
        results.append(runs)
    shallow, deep = results
    assert deep == shallow
    if shape == "result":
        assert shallow[0][0] == 2 and "[pattern]" in shallow[0][2]
    else:
        assert [code for code, _, _ in shallow] == [0, 0]


def finite_index_sig(n: int) -> str:
    # b0 has one constant, each b(i) one constructor over b(i-1), and g's
    # one constructor sits at the constant of b(n), nested n deep
    types = "".join(f"b{i} : type. b{i}c : b{i - 1} -> b{i}.\n" for i in range(1, n + 1))
    value = "".join(f"(b{i}c " for i in range(n, 0, -1)) + "b0c" + ")" * n
    return f"b0 : type. b0c : b0.\n{types}g : b{n} -> type. g0 : g {value}.\n"


def test_deep_finite_index_constant_checks_like_a_shallow_one(tmp_path):
    # check only: verify decodes one term per class, each b(i)'s n deep
    runs = []
    for depth in (3, 3_000):
        path = tmp_path / f"finite{depth}.sig"
        path.write_text(finite_index_sig(depth))
        done = subprocess.run(
            [sys.executable, "-m", "godelgen.cli", "check", str(path)],
            env=fresh_env(), capture_output=True, text=True, timeout=300,
        )
        lines = done.stdout.splitlines()
        assert lines[:-1] == [f"b{i}: Finite(1)" for i in range(depth + 1)]
        runs.append((done.returncode, lines[-1], done.stderr))
    assert runs == [(0, "g[0]: Finite(1)", "")] * 2


# Every public entry point at any depth, from the export table.  A row is an
# expression that must be true, run on a DEEP-node nat term (code DEEP - 1,
# the largest code DEFAULT_FUEL decodes), on its code or on its text; the
# DAG rows run on a 40-level DAG, of 2**40 leaves and 41 objects.  Each half
# of the rows runs in order, in one namespace, in a fresh interpreter, and
# the two halves run side by side.
DEEP = 100_000
HALVES = (
    {
        "decode_closed": "decode_closed(plan, 'nat', None, code) == twin",
        "decode": "decode(plan, 'nat', None, EMPTY_COUNTS, code) == term",
        "check_term": "check_term(vsig, 'nat', None, EMPTY_COUNTS, term) is None",
        "compare": "compare(plan, 'nat', None, term, Con('z')) == 1",
        "encode": "encode(plan, 'nat', None, EMPTY_COUNTS, term) == code",
        "encode_closed": "encode_closed(plan, 'nat', None, term) == code",
        "parse_term": "parse_term(vsig, 'nat', None, text) == term",
        "print_term": "print_term(vsig, term) == text",
        "term_size": "term_size(term) == DEEP",
        "TermArg": "TermArg(0, term) == TermArg(0, twin)",
        "Con.__eq__": "term == twin",
        "Con.__hash__": "hash(term) == hash(twin)",
        # linear on a chain class; a class whose binders fill arguments of
        # its own type (u : type. w : (u -> u) -> u.) is still super-linear,
        # since each variable count is a memo state with its own term list
        "enumerate_terms": "len(enumerate_terms(vsig, 'nat', None, DEEP)) == DEEP",
    },
    {
        "parse_signature": "(deep_sig := parse_signature(deep_sig_text)).abbrevs['deep'].type_name"
                           " == 'nat'",
        "validate": "validate(deep_sig).sig is deep_sig",
        "GapSet": "GapSet.from_elements([0, code]).member(code)",
        "GapMap": "GapMap.from_items([(code, 'v')]).lookup(code) == 'v'",
        "set_literal": "set_literal(GapSet.from_elements([code])) == f'{{{code}}}'",
        "parse_set_literal": "parse_set_literal(f'{{{code}}}').elements() == (code,)",
        "mingle": "unmingle(mingle(code, code)) == (code, code)",
        "unmingle": "mingle(*unmingle(code)) == code",
        "mingle_fold": "unmingle_fold(mingle_fold([code] * 3), 3) == [code] * 3",
        "unmingle_fold": "mingle_fold(unmingle_fold(code, 3)) == code",
        "Con.__repr__": "repr(term).count('Con(') == DEEP",
        "Con.__copy__": "copy.copy(term) is term",
        "Con.__deepcopy__": "copy.deepcopy(term) is term",
        "Con.__reduce__": "pickle.loads(pickle.dumps(term)) == term",
        "TermSet.insert": "TermSet(plan, 'nat').insert(term) == deep_set",
        "TermSet.member": "deep_set.member(term)",
        "TermSet.remove": "deep_set.remove(term).size() == 0",
        "TermSet.union": "deep_set.union(zero_set).size() == 2",
        "TermSet.intersection": "deep_set.intersection(deep_set) == deep_set",
        "TermSet.difference": "deep_set.difference(zero_set) == deep_set",
        "TermSet.size": "deep_set.size() == 1",
        "TermSet.elements": "deep_set.elements() == (term,)",
        "TermMap.insert": "TermMap(plan, 'nat').insert(term, 'v') == deep_map",
        "TermMap.lookup": "deep_map.lookup(term) == 'v'",
        "TermMap.remove": "deep_map.remove(term).size() == 0",
        "TermMap.size": "deep_map.size() == 1",
        "TermMap.keys": "deep_map.keys() == deep_set",
        # each must cost the 41 objects, not the 2**40 paths of the expanded term
        "Con.__eq__ on a DAG": "dag == back and dag == dag_apart"
                               " and dag != last_leaf and last_leaf != dag",
        "Con.__hash__ on a DAG": "hash(dag) == hash(back) == hash(dag_apart)",
        "Con.__reduce__ on a DAG": "len(data := pickle.dumps(dag)) < 2000"
                                   " and (d := pickle.loads(data)) == dag"
                                   " and d.args[0].body is d.args[1].body",
        "term_size on a DAG": "term_size(dag) == 3 * 2**40 - 1",
    },
)
ROWS = {**HALVES[0], **HALVES[1]}
NO_INPUT = "takes no term, code or text"
EXEMPT = {
    **dict.fromkeys(
        "AdequacyReport ClassReport Verdict EnumBudget Cardinality IndexClass Signature"
        " ValidatedSignature ClassPlan CodecPlan CountVector".split(), f"a record: {NO_INPUT}"),
    **dict.fromkeys(
        "CodeOutOfRange Diagnostic FuelExhausted GodelgenError NoWellFoundedPlan"
        " SigSyntaxError SigValidationError TermError".split(), "an error class"),
    **dict.fromkeys("DEFAULT_FUEL EMPTY_COUNTS Term".split(), "a constant or a type alias"),
    **dict.fromkeys("assign_tags build_plan compute_cardinality class_label".split(),
                    f"takes a signature, a type or a class: {NO_INPUT}"),
    **dict.fromkeys(
        "verify_all verify_class verify_one_to_one verify_onto verify_total_unique".split(),
        "takes a plan and a budget, which bounds each term it builds"),
    "Var": "a leaf: holds no subterm",
    "Con.__init__": "builds one node from its fields, with no walk (the twin term is built by it)",
    "Con.__setattr__": "frozen: raises at once",
    "Con.__delattr__": "frozen: raises at once",
    "Con.__getstate__": "the slots dataclass's pickle hook, which __reduce__ overrides",
    "Con.__setstate__": "the slots dataclass's pickle hook, which __reduce__ overrides",
    "Con.__replace__": "copy.replace (Python 3.13): builds one node, with no walk",
    **{f"{cls}.{name}": "made by dataclass: reads the codes, not the terms"
       for cls in ("TermSet", "TermMap")
       for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
                    "__replace__")},
}

ROW_SCRIPT = """
import copy, json, pickle, signal, sys, time
from godelgen import *

assert sys.getrecursionlimit() == 1000
DEEP, rows = int(sys.argv[2]), json.loads(sys.argv[3])
sig_text = open(sys.argv[1]).read()
vsig = validate(parse_signature(sig_text))
plan = assign_tags(vsig)
code = DEEP - 1
text = "s (" * (DEEP - 2) + "s z" + ")" * (DEEP - 2)
deep_sig_text = f"{sig_text}%abbrev deep : nat = {text}."  # an abbreviation whose body is text
term = decode_closed(plan, "nat", None, code)
twin = Con("z")
for _ in range(code):
    twin = Con("s", (), (TermArg(0, twin),))
deep_set = TermSet(plan, "nat", None, GapSet.from_elements([code]))
zero_set = TermSet(plan, "nat", None, GapSet.from_elements([0]))
deep_map = TermMap(plan, "nat", None, GapMap.from_items([(code, "v")]))


def lam(leaf):
    return Con("lam", (), (TermArg(1, leaf),))


def app(f, x):
    return Con("app", (), (TermArg(0, f), TermArg(0, x)))


# last_leaf is dag with its last leaf changed: a right spine of its own
# objects over an equal DAG built apart
dag, dag_apart, last_leaf = lam(Var("t", None, 0)), lam(Var("t", None, 0)), lam(Var("t", None, 1))
for _ in range(40):
    dag, dag_apart, last_leaf = app(dag, dag), app(dag_apart, dag_apart), app(dag_apart, last_leaf)
back = pickle.loads(pickle.dumps(dag))


def too_long(signum, frame):
    raise TimeoutError("still running after 10 s")


signal.signal(signal.SIGALRM, too_long)
out = {}
for name, expr in rows.items():
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        ok = eval(expr) is True
    except Exception as exc:
        ok = f"{type(exc).__name__}: {exc}"
    signal.setitimer(signal.ITIMER_REAL, 0)
    out[name] = [ok, time.perf_counter() - start]
print(json.dumps(out))
"""


def _covered(name: str) -> bool:
    return name in ROWS or name in EXEMPT or any(row.startswith(f"{name}.") for row in ROWS)


def test_every_export_and_method_has_a_depth_row_or_an_exemption():
    import godelgen
    from godelgen import Con, TermMap, TermSet

    assert [name for name in godelgen._HOME if not _covered(name)] == []
    for cls in (Con, TermSet, TermMap):
        methods = [f"{cls.__name__}.{name}" for name, value in vars(cls).items()
                   if callable(value) and (name.startswith("__") or not name.startswith("_"))]
        assert [name for name in methods if not _covered(name)] == []


def test_every_public_entry_point_at_any_depth():
    children = [
        subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(ROW_SCRIPT), str(sig_path("nat")), str(DEEP),
             json.dumps(rows)],
            env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for rows in HALVES
    ]
    results = {}
    try:
        for child in children:
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            results.update(json.loads(out))
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert list(results) == list(ROWS)
    assert {name: ok for name, (ok, _) in results.items() if ok is not True} == {}
    slow = {name: s for name, (_, s) in results.items() if "DAG" in name and s >= 0.05}
    assert slow == {}
