"""Deep terms, deep signature index expressions, threads and Ctrl-C.

Every check runs in a fresh interpreter at the default recursion limit,
so no setting made by the test session can hide a depth failure.
"""

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


def test_deep_nat_round_trips_at_the_default_limit():
    out = run_fresh(
        """
        import sys
        from godelgen import (Con, TermArg, assign_tags, check_term, decode_closed,
                              encode_closed, parse_signature, parse_term, print_term,
                              term_size, validate)
        from godelgen.termrep import EMPTY_COUNTS

        assert sys.getrecursionlimit() == 1000
        depth = int(sys.argv[2])
        vsig = validate(parse_signature(open(sys.argv[1]).read()))
        plan = assign_tags(vsig)
        term = Con("z")
        for _ in range(depth):
            term = Con("s", (), (TermArg(0, term),))
        decoded = decode_closed(plan, "nat", None, depth, fuel=60_000)
        assert decoded == term and decoded is not term
        assert hash(decoded) == hash(term)
        assert encode_closed(plan, "nat", None, term) == depth
        check_term(vsig, "nat", None, EMPTY_COUNTS, term)
        text = print_term(vsig, term)
        assert text == "s (" * (depth - 1) + "s z" + ")" * (depth - 1)
        assert parse_term(vsig, "nat", None, text) == term
        assert term_size(term) == depth + 1
        print("ok")
        """,
        str(sig_path("nat")), str(DEPTH),
    )
    assert out == "ok\n"


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
