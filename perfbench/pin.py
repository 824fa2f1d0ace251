"""Write perfbench/pins.json: the outputs the benchmark expects.

    python3 perfbench/pin.py

Pins are taken from the current sources and then held fixed: the
numbering is the product, so no later change may move a code, a
verification report or a command's output.  Regenerate only when a
change of output is intended, and say so where the change is recorded.

Pinned here: each report row of verify_all on lambda and termfam at the
full and tiny budgets; a SHA-256 of the printed term of every pooled
huge code; and for every pooled CLI command its stdout and exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

from godelgen import assign_tags, decode_closed, parse_signature, print_term, validate  # noqa: E402
from godelgen import verify_all  # noqa: E402

# per subcommand, the argument variants the seed picks from
DECODE_CODES = (3, 17, 123, 999)
ENCODE_CODES = (5, 42, 300, 2024)
ENUMERATE_COUNTS = (4, 7, 10, 13)
COMPARE_CODES = ((2, 9), (40, 40), (77, 12), (500, 501))
VERIFY_FLAGS = (
    ("--max-size", "3", "--max-code", "40"),
    ("--max-size", "3", "--max-code", "60", "--json"),
    ("--max-size", "4", "--max-code", "80"),
    ("--max-size", "3", "--max-code", "100", "--json"),
)
WIDE_VARIANTS = 2  # each wide command searches its tags for about 3 s


def plan_of(name: str):
    return assign_tags(validate(parse_signature((run.ROOT / run.SIGS[name]).read_text())))


def verify_pins() -> dict:
    out = {}
    for size in ("full", "tiny"):
        out[size] = {}
        for name in ("lambda", "termfam"):
            report = verify_all(plan_of(name), run.verify_budget(size, name))
            out[size][name] = [
                [r.type_name, r.index_class, r.passed, r.terms_checked, r.codes_checked]
                for r in report.classes
            ]
    return out


def bigcode_pins() -> dict:
    plan = plan_of("lambda")

    def printed(code: int) -> str:
        return run.sha(print_term(plan.vsig, decode_closed(plan, "t", None, code)))

    out = {}
    for digits in run.BIGCODE_DIGITS["tiny"] + run.BIGCODE_DIGITS["full"]:
        out[str(digits)] = [run.on_big_stack(printed, code)
                            for code in run.bigcode_pool(digits)]
    return out


def command_variants(name: str) -> dict[str, list[list[str]]]:
    plan = plan_of(name)
    type_name, index = run.TARGETS[name]
    card = plan.class_plan(type_name, index).cardinality
    fit = (lambda c: c) if card.is_infinite else (lambda c: c % card.count)

    def text(code: int) -> str:
        term = run.on_big_stack(decode_closed, plan, type_name, index, fit(code))
        return run.on_big_stack(lambda: print_term(plan.vsig, term, index=index))

    sig = run.SIGS[name]
    target = ["--type", type_name] + ([] if index is None else ["--index", str(index)])
    variants = {
        "check": [["check", sig]],
        "decode": [["decode", sig, *target, str(fit(c))] for c in DECODE_CODES],
        "encode": [["encode", sig, *target, text(c)] for c in ENCODE_CODES],
        "enumerate": [["enumerate", sig, *target, str(n)] for n in ENUMERATE_COUNTS],
        "compare": [["compare", sig, *target, text(a), text(b)] for a, b in COMPARE_CODES],
        "verify": [["verify", sig, *flags] for flags in VERIFY_FLAGS],
    }
    if name == "wide":
        variants = {sub: argvs[:WIDE_VARIANTS] for sub, argvs in variants.items()}
    return variants


def cli_pins() -> dict:
    out = {}
    for name in run.SIGS:
        for sub, argvs in command_variants(name).items():
            entries = []
            for argv in argvs:
                proc = subprocess.run(
                    [sys.executable, str(run.BENCH / "clidriver.py"), *argv],
                    cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True)
                entries.append({"argv": argv, "stdout": proc.stdout, "code": proc.returncode})
            out[f"{name}/{sub}"] = entries
            print(f"pinned {name}/{sub}", file=sys.stderr)
    return out


def main() -> None:
    pins = {"verify": verify_pins(), "bigcode": bigcode_pins(), "cli": cli_pins()}
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
