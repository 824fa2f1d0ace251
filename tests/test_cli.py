"""End-to-end tests of the command-line driver, run in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import sig_path
from godelgen import adequacy, cli
from godelgen.adequacy import AdequacyReport, ClassReport, Verdict
from godelgen.errors import TermError

LAMBDA = str(sig_path("lambda"))
NAT = str(sig_path("nat"))
TERMFAM = str(sig_path("termfam"))
EXISTS = str(sig_path("exists"))
BOOL = str(sig_path("bool"))
RAT = str(sig_path("rat"))
RATFLIP = str(sig_path("ratflip"))

FINITE_INDEXED = """\
flag : type.
lo : flag.
hi : flag.

reg : flag -> type.
rlo : reg lo.
rhi : reg hi.
step : reg F -> reg F.
"""


def run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_single_infinite_type(self, capsys):
        code, out, err = run(capsys, ["check", LAMBDA])
        assert (code, err) == (0, "")
        assert out == "t: Infinite\n"

    def test_indexed_family_lists_every_class(self, capsys):
        code, out, _ = run(capsys, ["check", TERMFAM])
        assert code == 0
        assert out.splitlines() == ["nat: Infinite", "term[z]: Infinite",
                                    "term[s]: Infinite"]

    def test_finite_type(self, capsys):
        code, out, _ = run(capsys, ["check", BOOL])
        assert code == 0
        assert out == "bool: Finite(2)\n"

    def test_invalid_signature_prints_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("b : type.\ntt : b.\nt : type.\nk : (b -> t) -> t.\n")
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert "[" in err  # diagnostics carry their rule tag

    @pytest.mark.parametrize(
        "text, out, err",
        [
            # x has the term c (mk [v] v), yet x and y count 0; the binder
            # faults report it, and no "is uninhabited" (see
            # test_diagnostics_exactly in test_sigmodel.py)
            (
                "e : type. y : type. mk : (e -> e) -> y. x : type. c : y -> x."
                " g : x -> type. g0 : g X.",
                "e: Empty\ny: Finite(0)\nx: Finite(0)\n",
                "",
            ),
            (
                "e : type. x : type. mk : (e -> e) -> x. g : x -> type. g0 : g X.",
                "e: Empty\nx: Finite(0)\n",
                "g: index type x may not use binders [index-type]\n",
            ),
        ],
        ids=["through-another-type", "with-binders"],
    )
    def test_index_type_counted_uninhabited(self, capsys, tmp_path, text, out, err):
        path = tmp_path / "uninhabited.sig"
        path.write_text(text)
        binder_faults = (
            "mk: variables can only be of infinite type; e is not infinite in every"
            " reachable class [finite-binder]\n"
            "mk: an argument that binds variables must target an infinite type;"
            " e is not [binder-target]\n"
        )
        assert run(capsys, ["check", str(path)]) == (2, out, "error: " + err + binder_faults)

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("t : .\n")
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 3
        assert "error:" in err

    def test_abbrev_cycle_is_a_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text(sig_path("nat").read_text()
                       + "%abbrev a : nat = s b.\n%abbrev b : nat = s a.\n")
        code, _, err = run(capsys, ["encode", str(bad), "--type", "nat", "a"])
        assert code == 3
        assert "abbreviation 'a' is defined in terms of itself" in err

    def test_bad_abbrev_index_fails_check(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text(sig_path("nat").read_text() + "t : nat -> type. tz : t z."
                       " ts : t N -> t (s N). %abbrev bad : t (s foo) = tz.\n")
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert err == "error: bad: invalid index expression for type t [index-expr]\n"

    def test_non_decimal_digit_in_a_signature_is_a_name(self, capsys, tmp_path):
        sig = tmp_path / "digit.sig"
        sig.write_text(sig_path("nat").read_text() + "t : nat -> type.\nk : t \u00b2.\n")
        code, out, err = run(capsys, ["check", str(sig)])
        assert (code, out) == (2, "nat: Infinite\nt[z]: Empty\nt[s]: Empty\n")
        assert err == (
            "error: k: result index must use at most one level of matching"
            " (zero, successor of a variable, or a variable) [pattern]\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "no/such/file.sig"])
        assert code == 3
        assert "error:" in err

    def test_file_that_is_not_utf8_is_a_read_error(self, capsys, tmp_path):
        bad = tmp_path / "utf16.sig"
        bad.write_bytes(b"\xff\xfe" + "nat : type.\n".encode("utf-16-le"))
        code, out, err = run(capsys, ["check", str(bad)])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert "can't decode byte 0xff in position 0" in err

    def test_self_indexed_index_type_is_a_semantic_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("p : type. a : p. q : p -> type. qa : q a. mk : q a -> p.\n")
        code, _, err = run(capsys, ["check", str(bad)])
        assert code == 2
        assert "[index-type]" in err
        assert err.splitlines() == [
            "error: p: the instances of index type p depend on index values"
            " of type p [index-type]"
        ]


class TestEncode:
    def test_identity_is_zero(self, capsys):
        assert run(capsys, ["encode", LAMBDA, "--type", "t", "lam [x] x"]) == \
            (0, "0\n", "")

    def test_snd_projection(self, capsys):
        code, out, _ = run(
            capsys, ["encode", LAMBDA, "--type", "t", "lam [x] lam [y] y"]
        )
        assert (code, out) == (0, "6\n")

    def test_indexed_encode(self, capsys):
        code, out, _ = run(
            capsys, ["encode", TERMFAM, "--type", "term", "--index", "0", "unit"]
        )
        assert (code, out) == (0, "0\n")

    def test_bad_term_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, ["encode", LAMBDA, "--type", "t", "lam [x"])
        assert code == 3
        assert "error:" in err

    def test_unknown_type(self, capsys):
        code, _, err = run(capsys, ["encode", LAMBDA, "--type", "u", "z"])
        assert code == 3
        assert "unknown type" in err

    def test_malformed_index_argument_is_a_parse_error(self, capsys):
        code, _, err = run(
            capsys,
            ["encode", EXISTS, "--type", "term", "--index", "0", "exists s [x] x"],
        )
        assert code == 3
        assert "invalid nat index value" in err

    def test_abbrev_in_an_index_argument(self, capsys, tmp_path):
        sig = tmp_path / "two.sig"
        sig.write_text(sig_path("exists").read_text() + "%abbrev two : nat = s (s z).\n")
        code, out, _ = run(
            capsys,
            ["encode", str(sig), "--type", "term", "--index", "0", "exists two [x] unit"],
        )
        assert (code, out) == (0, "27\n")

    def test_non_decimal_digit_is_a_name(self, capsys):
        code, _, err = run(capsys, ["encode", NAT, "--type", "nat", "s \u00b2"])
        assert (code, err) == (3, "error: unbound name '\u00b2'\n")

    def test_indexed_family_requires_an_index(self, capsys):
        code, _, err = run(capsys, ["encode", TERMFAM, "--type", "term", "unit"])
        assert code == 3
        assert "index" in err


class TestDecode:
    def test_app_of_identities(self, capsys):
        code, out, _ = run(capsys, ["decode", LAMBDA, "--type", "t", "1"])
        assert (code, out) == (0, "app (lam [x0] x0) (lam [x0] x0)\n")

    @pytest.mark.parametrize("digits", [5_000, 30_000])
    def test_a_code_of_any_length_round_trips(self, capsys, digits):
        # past Python's default limit of 4,300 digits for int-string conversion
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code_text = "1" + "0" * (digits - 6) + "12345"
        status, term, err = run(capsys, ["decode", LAMBDA, "--type", "t", code_text])
        assert (status, err) == (0, "")
        status, out, err = run(capsys, ["encode", LAMBDA, "--type", "t", term.strip()])
        assert (status, out, err) == (0, code_text + "\n", "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_a_term_given_as_dash_is_read_from_standard_input(self, capsys):
        # the text of a 30,000-digit code is longer than one command-line
        # argument may be, so the command reads it from its standard input
        code_text = "1" + "0" * 29_994 + "12345"
        status, term, _ = run(capsys, ["decode", LAMBDA, "--type", "t", code_text])
        assert status == 0 and len(term.encode()) > 128 * 1024
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run_with_input(text, *argv):
            proc = subprocess.run([sys.executable, "-m", "godelgen", *argv], input=text,
                                  env=env, capture_output=True, text=True, timeout=60)
            return proc.returncode, proc.stdout, proc.stderr

        assert run_with_input(term, "encode", LAMBDA, "--type", "t", "-") == (
            0, code_text + "\n", "")
        for argv in (["-", "lam [y] app y y"], ["lam [y] app y y", "-"]):
            assert run_with_input("lam [x]\n  app x x\n", "compare", LAMBDA, "--type", "t",
                                  *argv) == (0, "EQ\n", "")
        assert run_with_input("lam [x] x", "compare", LAMBDA, "--type", "t", "-",
                              "app (lam [x] x) (lam [x] x)") == (0, "LT\n", "")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_run_restores_the_callers_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5_000)
            assert run(capsys, ["decode", LAMBDA, "--type", "t", "1" * 6_000])[0] == 0
            assert run(capsys, ["decode", BOOL, "--type", "bool", "2"])[0] == 2
            assert sys.get_int_max_str_digits() == 5_000
        finally:
            sys.set_int_max_str_digits(limit)

    def test_code_past_a_finite_class(self, capsys):
        code, _, err = run(capsys, ["decode", BOOL, "--type", "bool", "2"])
        assert code == 2
        assert "out of range" in err

    def test_negative_code(self, capsys):
        code, _, err = run(capsys, ["decode", LAMBDA, "--type", "t", "--", "-1"])
        assert code == 2

    def test_fuel_flag_exhausts(self, capsys):
        code, _, err = run(
            capsys, ["decode", RAT, "--type", "rat", "--fuel", "3", "2000"]
        )
        assert code == 4
        assert "fuel" in err

    def test_fuel_env_exhausts(self, capsys, monkeypatch):
        monkeypatch.setenv("GODELGEN_FUEL", "2")
        code, _, err = run(capsys, ["decode", RAT, "--type", "rat", "7"])
        assert code == 4

    def test_fuel_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GODELGEN_FUEL", "2")
        code, out, _ = run(
            capsys, ["decode", RAT, "--type", "rat", "--fuel", "1000", "7"]
        )
        assert (code, out) == (0, "frac (s z) (frac z (whole z))\n")

    def test_fuel_must_be_positive(self, capsys):
        code, _, err = run(
            capsys, ["decode", LAMBDA, "--type", "t", "--fuel", "0", "1"]
        )
        assert code == 2
        assert "fuel" in err

    def test_bad_fuel_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GODELGEN_FUEL", "lots")
        code, _, err = run(capsys, ["decode", LAMBDA, "--type", "t", "1"])
        assert code == 2
        assert "GODELGEN_FUEL" in err


class TestEnumerate:
    def test_finite_class_clamps(self, capsys):
        code, out, _ = run(capsys, ["enumerate", BOOL, "--type", "bool", "5"])
        assert code == 0
        assert out == "0\ttrue\n1\tfalse\n"

    def test_empty_class_prints_nothing(self, capsys, tmp_path):
        sig = tmp_path / "empty.sig"
        sig.write_text("e : type.\nd : type.\nmk : d.\n")
        code, out, _ = run(capsys, ["enumerate", str(sig), "--type", "e", "10"])
        assert (code, out) == (0, "")

    def test_lines_are_code_tab_term(self, capsys):
        code, out, _ = run(
            capsys,
            ["enumerate", TERMFAM, "--type", "term", "--index", "1", "4"],
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0\tlam [x0] x0"
        assert all(line.split("\t")[0] == str(i) for i, line in enumerate(lines))

    def test_negative_count(self, capsys):
        code, _, err = run(capsys, ["enumerate", BOOL, "--type", "bool", "--", "-3"])
        assert code == 2


class TestVerify:
    def test_passing_signature(self, capsys):
        code, out, _ = run(capsys, ["verify", BOOL])
        assert code == 0
        assert "bool: ok" in out

    def test_bounded_run_on_infinite_type(self, capsys):
        code, out, _ = run(
            capsys, ["verify", LAMBDA, "--max-size", "4", "--max-code", "300"]
        )
        assert code == 0
        assert "t: ok" in out
        assert "300 codes" in out

    def test_text_lines_of_an_indexed_family(self, capsys):
        code, out, _ = run(
            capsys, ["verify", TERMFAM, "--max-size", "3", "--max-code", "20"]
        )
        assert (code, out.splitlines()) == (0, [
            "nat: ok (3 terms, 20 codes)",
            "term[z]: ok (6 terms, 20 codes)",
            "term[s]: ok (17 terms, 40 codes)",
        ])

    def test_json_output_is_byte_identical(self, capsys):
        argv = ["verify", BOOL, "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        data = json.loads(first)
        assert data["signature"] == BOOL
        assert data["classes"][0]["type"] == "bool"
        assert data["classes"][0]["one_to_one"] is True

    def test_fuel_flag_bounds_each_decode(self, capsys):
        code, out, _ = run(capsys, ["verify", NAT, "--fuel", "50", "--max-code", "60"])
        assert code == 1
        assert "code 50 did not decode: FuelExhausted" in out

    def test_fuel_env_bounds_each_decode(self, capsys, monkeypatch):
        monkeypatch.setenv("GODELGEN_FUEL", "50")
        code, out, _ = run(capsys, ["verify", NAT, "--max-code", "60"])
        assert code == 1
        assert "code 50 did not decode: FuelExhausted" in out

    def test_uninhabited_class_verifies(self, capsys, tmp_path):
        sig = tmp_path / "ebool.sig"
        sig.write_text("e : type. bool : type. t : bool. f : bool.\n")
        code, out, err = run(capsys, ["verify", str(sig)])
        assert (code, out, err) == (0, "e: ok (0 terms, 0 codes)\nbool: ok (2 terms, 2 codes)\n", "")
        code, out, _ = run(capsys, ["verify", "--json", str(sig)])
        assert code == 0
        row = json.loads(out)["classes"][0]
        assert (row["type"], row["onto"], row["terms_checked"], row["codes_checked"]) == (
            "e", True, 0, 0
        )

    def test_default_fuel_covers_the_default_sweep(self, capsys):
        code, out, _ = run(capsys, ["verify", NAT, "--max-code", "60"])
        assert (code, out) == (0, "nat: ok (6 terms, 60 codes)\n")

    def test_zero_code_budget_is_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", BOOL, "--max-code", "0"])
        assert code == 2
        assert "max_code" in err

    def test_a_variant_that_fails_to_read_back_exits_one(self, capsys, monkeypatch):
        def refuse(*_):
            raise TermError("refused")

        monkeypatch.setattr(adequacy, "_parse", refuse)
        code, out, err = run(capsys, ["verify", BOOL])
        assert (code, err) == (1, "")
        assert out == "bool: FAIL (0 terms, 2 codes)\n  variant 'true' failed to read back: refused\n"

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        failing = AdequacyReport(
            (
                ClassReport(
                    "t",
                    "-",
                    Verdict(True, 3),
                    Verdict(True, 3),
                    Verdict(False, 7, "code 7 did not decode"),
                    Verdict(True, 3),
                ),
            )
        )
        monkeypatch.setattr(adequacy, "verify_all", lambda plan, budget: failing)
        code, out, _ = run(capsys, ["verify", LAMBDA])
        assert code == 1
        assert "t: FAIL" in out
        assert "code 7 did not decode" in out


class TestCompare:
    def test_orderings(self, capsys):
        base = ["compare", LAMBDA, "--type", "t"]
        assert run(capsys, base + ["lam [x] x", "lam [x] lam [y] x"])[:2] == (0, "LT\n")
        assert run(capsys, base + ["lam [a] a", "lam [b] b"])[:2] == (0, "EQ\n")
        assert run(capsys, base + ["lam [x] lam [y] y", "lam [x] x"])[:2] == (0, "GT\n")

    def test_parse_error_in_either_term(self, capsys):
        code, _, err = run(
            capsys, ["compare", LAMBDA, "--type", "t", "lam [x] x", "lam ["]
        )
        assert code == 3


class TestFiniteIndexNames:
    @pytest.fixture
    def sig(self, tmp_path):
        path = tmp_path / "reg.sig"
        path.write_text(FINITE_INDEXED)
        return str(path)

    def test_name_resolves_to_instance_offset(self, capsys, sig):
        by_name = run(capsys, ["encode", sig, "--type", "reg", "--index", "hi", "rhi"])
        by_number = run(capsys, ["encode", sig, "--type", "reg", "--index", "1", "rhi"])
        assert by_name == by_number == (0, "0\n", "")

    def test_decode_with_named_index(self, capsys, sig):
        code, out, _ = run(
            capsys, ["decode", sig, "--type", "reg", "--index", "lo", "1"]
        )
        assert (code, out) == (0, "step rlo\n")

    def test_unknown_name(self, capsys, sig):
        code, _, err = run(
            capsys, ["encode", sig, "--type", "reg", "--index", "mid", "rhi"]
        )
        assert code == 3
        assert "cannot resolve index" in err

    @pytest.mark.parametrize(
        "command",
        [["encode", "rlo"], ["decode", "0"], ["enumerate", "3"], ["compare", "rlo", "rlo"]],
        ids=["encode", "decode", "enumerate", "compare"],
    )
    def test_index_past_the_range(self, capsys, sig, command):
        argv = [command[0], sig, "--type", "reg", "--index", "5", *command[1:]]
        assert run(capsys, argv) == (
            3, "", "error: index 5 out of range for type reg (0..1)\n"
        )

    def test_name_of_several_instances(self, capsys, tmp_path):
        path = tmp_path / "pair.sig"
        path.write_text(
            "c : type. c0 : c. c1 : c. b : type. b0 : b. bp : c -> b."
            " g : b -> type. g0 : g X."
        )
        code, out, err = run(
            capsys, ["encode", str(path), "--type", "g", "--index", "bp", "g0"]
        )
        assert (code, out) == (3, "")
        assert err == "error: index name bp covers 2 instances; give a decimal index\n"


class TestDriver:
    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", NAT, "--type", "nope", "z"],
            ["decode", NAT, "--type", "nope", "0"],
            ["enumerate", NAT, "--type", "nope", "3"],
            ["compare", NAT, "--type", "nope", "z", "z"],
            ["decode", NAT, "--type", "nope", "--index", "foo", "0"],
        ],
        ids=["encode", "decode", "enumerate", "compare", "named-index"],
    )
    def test_unknown_type_is_reported_once(self, capsys, argv):
        assert run(capsys, argv) == (3, "", "error: unknown type 'nope'\n")

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            cli.run([])
        assert caught.value.code == 2

    def test_module_runs_as_a_script(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "godelgen.cli", "check", NAT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "nat: Infinite\n", "")

    def test_package_runs_as_a_script(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run_package(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "godelgen", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            return proc.returncode, proc.stdout, proc.stderr

        assert run_package("check", NAT) == (0, "nat: Infinite\n", "")
        code, out, err = run_package()
        assert (code, out) == (2, "")
        assert err.startswith("usage: godelgen ")

    def test_repaired_plan_is_used_transparently(self, capsys):
        straight = run(capsys, ["decode", RAT, "--type", "rat", "12"])
        flipped = run(capsys, ["decode", RATFLIP, "--type", "rat", "12"])
        assert straight == flipped
        assert straight[0] == 0
