"""The package's cold start and its export table, each in a fresh interpreter.

``import godelgen`` loads no submodule, a command imports only the modules
it runs, and every public name resolves, on first use, to the object its
home module defines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sig_path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the public names and their home modules, as the package exported them
# when every submodule was imported eagerly
EXPORTS = {
    "adequacy": ["AdequacyReport", "ClassReport", "EnumBudget", "Verdict",
                 "enumerate_terms", "verify_all", "verify_class",
                 "verify_one_to_one", "verify_onto", "verify_total_unique"],
    "bignat": ["mingle", "mingle_fold", "unmingle", "unmingle_fold"],
    "codec": ["DEFAULT_FUEL", "ClassPlan", "CodecPlan", "assign_tags", "build_plan",
              "class_label", "compare", "decode", "decode_closed", "encode",
              "encode_closed"],
    "errors": ["CodeOutOfRange", "Diagnostic", "FuelExhausted", "GodelgenError",
               "NoWellFoundedPlan", "SigSyntaxError", "SigValidationError",
               "TermError"],
    "natcollections": ["GapMap", "GapSet", "TermMap", "TermSet", "parse_set_literal",
                       "set_literal"],
    "sigmodel": ["Cardinality", "IndexClass", "Signature", "ValidatedSignature",
                 "compute_cardinality", "parse_signature", "validate"],
    "termrep": ["EMPTY_COUNTS", "Con", "CountVector", "Term", "TermArg", "Var",
                "check_term", "parse_term", "print_term", "term_size"],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code: str):
    """Run code in a new interpreter with src on its path; what it prints, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    # json is imported here only to print the answer, after the check
    code = "import sys, godelgen; mods = [m for m in sys.modules if m.startswith('godelgen.')]\n"
    assert fresh(code + "import json; print(json.dumps(mods))") == []


def loaded_after(argv: list[str]) -> list[str]:
    """The godelgen submodules, and json, that one command leaves loaded."""
    code = ("import sys; from godelgen import cli\n"
            f"cli.run({argv!r})\n"
            "mods = sorted(m for m in sys.modules"
            " if m.startswith('godelgen.') or m == 'json')\n"
            "import json; print(json.dumps(mods))")
    return fresh(code)


@pytest.mark.parametrize("argv", [
    ["check", str(sig_path("nat"))],
    ["decode", str(sig_path("lambda")), "--type", "t", "3"],
], ids=["check", "decode"])
def test_commands_other_than_verify_load_no_verifier(argv):
    loaded = loaded_after(argv)
    assert "godelgen.cli" in loaded
    for module in ("godelgen.adequacy", "godelgen.natcollections", "json"):
        assert module not in loaded


def test_verify_loads_the_verifier():
    assert "godelgen.adequacy" in loaded_after(["verify", str(sig_path("bool"))])


def test_every_name_resolves_to_its_home_object():
    code = (
        "import importlib, json, godelgen\n"
        f"exports = {EXPORTS!r}\n"
        "bad = [f'{home}.{name}' for home, names in exports.items() for name in names\n"
        "       if getattr(godelgen, name)"
        " is not getattr(importlib.import_module('godelgen.' + home), name)]\n"
        "print(json.dumps([bad, godelgen.__all__]))"
    )
    bad, exported = fresh(code)
    assert bad == []
    assert exported == ALL


def test_home_modules_load_on_first_use():
    code = (
        "import json, godelgen\n"
        f"print(json.dumps([getattr(godelgen, home).__name__ for home in {sorted(EXPORTS)!r}]))"
    )
    assert fresh(code) == [f"godelgen.{home}" for home in sorted(EXPORTS)]


def test_star_import_binds_every_name_and_dir_lists_them():
    code = (
        "import json\n"
        "names = {}\n"
        "exec('from godelgen import *', names)\n"
        "import godelgen\n"
        "print(json.dumps([sorted(n for n in names if n != '__builtins__'),"
        " dir(godelgen)]))"
    )
    bound, listed = fresh(code)
    assert bound == ALL
    assert set(ALL) <= set(listed)


def test_unknown_name_raises_attribute_error():
    import godelgen

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        godelgen.nope
