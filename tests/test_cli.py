import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsw.cli import _emit_items, _parser, build_parser, main, relation_records
from hsw.mzveval import H0Evaluator

ROOT = Path(__file__).resolve().parent.parent
NEAR_ONE = "s[1000001/1000000,1]"
BELOW_DOUBLE = "tolerance 1e-30 is below the double-precision resolution of"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "eval", "s[1,2]*s[1,2]", "--mode", "symbolic")
        assert code == 0
        assert out.strip() == "2*s[1,2]s[1,2] - s[1,4]"

    def test_symbolic_normalizes(self, capsys):
        code, out, _ = run(capsys, "eval", "e[1] + e[1]", "--mode", "symbolic")
        assert code == 0
        assert out.strip() == "2*s[1,1]"

    def test_zst(self, capsys):
        code, out, _ = run(capsys, "eval", "e[1]e[1]", "--mode", "zst")
        assert code == 0
        assert out.strip() == "1/2*T^2 + 1/2*s[1,2]"

    def test_znum(self, capsys):
        code, out, _ = run(capsys, "eval", "e[1]e[1]", "--mode", "znum")
        assert code == 0
        value = float(out.split("±")[0])
        assert abs(value + 0.8224670334) < 1e-5

    def test_znum_unit_letter(self, capsys):
        # (-1)(-1) = 1: words with a unit letter and a real letter evaluate
        code, out, _ = run(capsys, "eval", "e[1]e[-1]", "--mode", "znum")
        assert code == 0
        value, bound = map(float, out.split("±"))
        assert bound < 1e-6 and abs(value + 0.582240526465) < 1e-9

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "s[1,2")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("expr", ["1/0", "e[1/0]", "s[1/0,2]"])
    def test_division_by_zero_exit_2(self, capsys, expr):
        code, _, err = run(capsys, "eval", expr)
        assert code == 2
        assert "parse error: division by zero" in err and "Traceback" not in err

    @pytest.mark.parametrize("expr", ["e[z^2]*e[1]e[3]", "e[2]*e[3]e[z]"])
    def test_monoid_mismatch_exit_2(self, capsys, expr):
        code, _, err = run(capsys, "eval", expr)
        assert code == 2
        assert err.startswith("parse error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["e[z]+e[3]"], ["e[z]-e[3]", "--mode", "zst"]])
    def test_mixed_monoid_sum_exit_2(self, capsys, argv):
        # a sum mixes monoids no more than a product does: the error points at the + or -
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2 and out == ""
        assert err.startswith("parse error: letters from different monoid instances")
        assert f"at position 4 in {argv[0]!r}" in err

    def test_unsupported_word_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "e[z]", "--mode", "znum")
        assert code == 2
        assert "evaluation error" in err

    @pytest.mark.parametrize(
        "expr",
        ["(" * 400 + "1" + ")" * 400, "e[z^2]*" + "e[z]" * 300],
        ids=["nested-parentheses", "long-word-product"],
    )
    def test_recursion_limit_exit_2(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        # the memoized products stay usable afterwards
        code, out, _ = run(capsys, "eval", "e[z^2]*e[z]e[z]")
        assert code == 0
        assert out == (
            "s[z^3,1]s[z^3,1]s[z^2,1] + s[z^3,1]s[z^3,1]s[z,1] - s[z^3,1]s[z^3,2]"
            " + s[z^3,1]s[z,1]s[z,1] - s[z^3,2]s[z,1]\n"
        )

    def test_s_block_length_overflow_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "s[z,99999999999999999999]")
        assert code == 2 and out == ""
        assert err == "parse error: s-block length too large at position 0 in 's[z,99999999999999999999]'\n"


class TestVerify:
    def test_coincidence_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "coincidence", "--k", "2", "--order", "8", "--max-n", "3"
        )
        assert code == 0
        assert "RESULT coincidence: pass" in out

    def test_addition_json_records(self, capsys):
        code, out, _ = run(
            capsys, "verify", "addition", "--max-degree", "5", "--format", "json"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["type"] == "summary" and summary["status"] == "pass"
        items = [rec for rec in lines if rec["type"] == "item"]
        assert all(rec["status"] == "pass" for rec in items)
        assert all("wpoly" in rec and "reduced" in rec for rec in items)
        witnessed = [rec for rec in items if "witness" in rec]
        assert witnessed and all(
            {"scalar", "m", "n"} <= set(rec["witness"]) for rec in witnessed
        )

    def test_pythagoras_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "pythagoras", "--max-N", "3", "--z", "1")
        assert code == 0

    def test_regularization_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "regularization", "--count", "20", "--max-weight", "4"
        )
        assert code == 0

    def test_harmonic_hom_unit_product_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "harmonic-hom", "--letters", "-1")
        assert code == 0
        assert "RESULT harmonic-hom: pass (3 items" in out

    def test_unknown_theorem_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "frobnicate"])
        assert exc.value.code == 2

    def test_out_of_range_order_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "coincidence", "--order", "99"])
        assert exc.value.code == 2

    def test_item_lines_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "addition", "--max-degree", "4", "--format", "json")
        _, out2, _ = run(capsys, "verify", "addition", "--max-degree", "4", "--format", "json")
        items1 = [l for l in out1.splitlines() if '"item"' in l]
        items2 = [l for l in out2.splitlines() if '"item"' in l]
        assert items1 == items2


class TestEnvironmentDefaults:
    def test_env_sets_default_tol_flags_win(self, capsys, monkeypatch):
        # the quadrature refines further, to a smaller bound, under a tighter tolerance
        monkeypatch.delenv("HSW_TOL", raising=False)
        _, out, _ = run(capsys, "eval", "e[2]e[3]", "--mode", "znum")
        default_bound = float(out.split("±")[1])
        monkeypatch.setenv("HSW_TOL", "1e-13")
        code, out, _ = run(capsys, "eval", "e[2]e[3]", "--mode", "znum")
        assert code == 0
        env_bound = float(out.split("±")[1])
        assert env_bound < default_bound
        monkeypatch.setenv("HSW_TOL", "not-a-number")
        code, out, _ = run(capsys, "eval", "e[2]e[3]", "--mode", "znum", "--tol", "1e-13")
        assert code == 0
        assert float(out.split("±")[1]) == env_bound


class TestParserCache:
    """One parser per ``HSW_ORDER``/``HSW_TOL`` pair, built on first use."""

    COINCIDENCE = ("verify", "coincidence", "--k", "1", "--max-n", "1", "--format", "json")

    def test_shared_within_one_environment(self, monkeypatch):
        monkeypatch.setenv("HSW_ORDER", "8")
        eight = build_parser()
        assert build_parser() is eight
        monkeypatch.setenv("HSW_ORDER", "10")
        assert build_parser() is not eight
        assert _parser.cache_info().maxsize == 8

    def test_bad_variable_between_good_calls(self, capsys, monkeypatch):
        monkeypatch.delenv("HSW_ORDER", raising=False)
        code, first, _ = run(capsys, *self.COINCIDENCE)
        assert code == 0
        monkeypatch.setenv("HSW_ORDER", "abc")
        with pytest.raises(SystemExit) as exc:
            main(list(self.COINCIDENCE))
        assert exc.value.code == 2
        assert "--order: must be an integer from 0 to 16, got 'abc'" in capsys.readouterr().err
        monkeypatch.delenv("HSW_ORDER")
        code, last, _ = run(capsys, *self.COINCIDENCE)
        assert code == 0
        items = [line for line in last.splitlines() if '"item"' in line]
        assert items and items == [line for line in first.splitlines() if '"item"' in line]
        summary = json.loads(last.splitlines()[-1])
        assert summary["status"] == "pass" and summary["params"]["order"] == 12

    def test_help_shows_the_current_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HSW_ORDER", "8")
        code, out, _ = run(capsys, *self.COINCIDENCE)
        assert code == 0 and json.loads(out.splitlines()[-1])["params"]["order"] == 8
        monkeypatch.setenv("HSW_ORDER", "10")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "coincidence", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "HSW_ORDER sets the default (default: 10)" in help_text

    def test_import_builds_no_parser(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        probe = "import hsw.cli; print(hsw.cli._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "0"


class TestRelations:
    def test_weight_4_contains_named_relation(self, capsys):
        code, out, _ = run(
            capsys, "relations", "--weight", "4", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        texts = {rec["relation"] for rec in records}
        assert "4*z(2,2) - 3*z(4) = 0" in texts
        for rec in records:
            assert abs(rec["residual"]) < 1e-9
            assert abs(rec["residual"]) <= rec["bound"] + 1e-12
            assert {"weight", "terms", "residual", "bound"} <= set(rec)

    def test_each_relation_once(self, capsys):
        # addition[2, 3], addition[3, 2] and pythagoras[4] all induce 4*z(2,2) - 3*z(4) = 0
        for weight in range(4, 13, 2):
            code, out, _ = run(capsys, "relations", "--weight", str(weight), "--format", "json")
            assert code == 0
            records = [json.loads(line) for line in out.strip().splitlines()]
            texts = [rec["relation"] for rec in records]
            assert records and len(texts) == len(set(texts))
            if weight == 4:
                assert [(rec["source"], rec["degrees"]) for rec in records] == [("addition", [2, 3])]

    @pytest.mark.parametrize("weight", ["14", "16"])
    def test_weights_above_12_within_bound(self, capsys, weight):
        code, out, _ = run(capsys, "relations", "--weight", weight, "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records
        for rec in records:
            assert abs(rec["residual"]) <= rec["bound"]

    def test_weight_18_in_process(self):
        # past the CLI's weight cap the W generators go beyond W_8; nothing caps them
        records = list(relation_records(18, H0Evaluator()))
        assert len(records) == 5
        for rec in records:
            assert abs(rec["residual"]) <= rec["bound"]

    def test_weight_2_empty(self, capsys):
        code, out, _ = run(capsys, "relations", "--weight", "2")
        assert code == 0
        assert out.strip() == ""

    def test_odd_weight_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["relations", "--weight", "3"])
        assert exc.value.code == 2


class TestInputErrors:
    @pytest.mark.parametrize(
        "env, argv",
        [
            ({"HSW_ORDER": "abc"}, ["verify", "coincidence"]),
            ({"HSW_ORDER": "99"}, ["verify", "coincidence"]),
            ({"HSW_TOL": "abc"}, ["eval", "s[1,2]", "--mode", "znum"]),
            ({"HSW_TOL": "-1e-7"}, ["verify", "harmonic-hom", "--max-weight", "1"]),
            ({}, ["eval", "s[1,2]", "--mode", "znum", "--tol", "0"]),
            ({}, ["verify", "harmonic-hom", "--tol", "-1"]),
            ({}, ["verify", "harmonic-hom", "--quad-tol", "nan"]),
            ({}, ["verify", "regularization", "--count", "-5"]),
            ({}, ["verify", "regularization", "--count", "0"]),
            ({}, ["verify", "harmonic-hom", "--letters", ","]),
            ({}, ["verify", "coincidence", "--k", "7"]),
            ({}, ["verify", "coincidence", "--max-n", "9"]),
            ({}, ["verify", "pythagoras", "--max-N", "7"]),
            ({}, ["verify", "addition", "--max-degree", "17"]),
            ({}, ["verify", "regularization", "--max-weight", "9"]),
            ({}, ["verify", "harmonic-hom", "--max-weight", "4"]),
            ({}, ["verify", "harmonic-hom", "--letters", "1/2"]),
            ({}, ["verify", "harmonic-hom", "--letters", "1/0"]),
            ({}, ["verify", "addition", "--z", "q"]),
            ({}, ["verify", "addition", "--z", "1/0"]),
            ({}, ["relations", "--weight", "3"]),
            ({}, ["relations", "--weight", "18"]),
            ({}, ["relations", "--weight", "0"]),
            ({}, ["eval", "s[1,2]", "--mode", "bogus"]),
            ({"HSW_TOL": "inf"}, ["eval", "s[1,2]", "--mode", "znum"]),
            ({"HSW_ORDER": "-1"}, ["verify", "coincidence"]),
        ],
    )
    def test_exit_2_with_message(self, capsys, monkeypatch, env, argv):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "e[1000001/1000000]", "--mode", "znum"],
            ["verify", "harmonic-hom", "--letters", "1000001/1000000", "--max-weight", "1"],
            ["eval", "e[2]", "--mode", "znum", "--tol", "1e-30"],
            ["verify", "harmonic-hom", "--quad-tol", "1e-30"],
        ],
    )
    def test_quadrature_error_exit_2(self, capsys, argv):
        # a letter too close to 1, or a tolerance below double precision
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "evaluation error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--letters", "1000001/1000000"], f"{NEAR_ONE} needs more than 10000 series terms to reach 1e-07"),
            (["--quad-tol", "1e-30"], f"{BELOW_DOUBLE} s[2,1]"),
            (["--letters", "2,1000001/1000000"], f"{NEAR_ONE} needs more than 10000 series terms to reach 1e-07"),
            # the later word's refusal does not jump ahead of s[2,1]'s bound
            (["--letters", "2,1000001/1000000", "--quad-tol", "1e-30"], f"{BELOW_DOUBLE} s[2,1]"),
            (["--letters", "1000001/1000000,2", "--quad-tol", "1e-30"],
             f"{NEAR_ONE} needs more than 10000 series terms to reach 1e-30"),
        ],
        ids=["near-one", "below-double", "second-near-one", "bound-first", "refusal-first"],
    )
    def test_harmonic_hom_error_names_first_failing_word(self, capsys, argv, message):
        # every word is evaluated before the first item: no partial output, and the
        # message names the first failing word in the order u, v, then the terms of u*v
        code, out, err = run(capsys, "verify", "harmonic-hom", *argv)
        assert (code, out, err) == (2, "", f"evaluation error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "addition", "--order", "12"],
            ["verify", "pythagoras", "--seed", "1"],
            ["eval", "s[1,2]", "--mode", "znum", "--mzv-n", "5"],
        ],
    )
    def test_flag_of_another_theorem_exit_2(self, capsys, argv):
        # a flag the command does not take: another theorem's, or one that is gone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {argv[-2]}" in err and "Traceback" not in err

    def test_max_n_alias(self, capsys):
        outputs = []
        for flag in ("--max-n", "--max-N"):
            code, out, _ = run(capsys, "verify", "pythagoras", flag, "1", "--format", "json")
            assert code == 0
            summary = json.loads(out.strip().splitlines()[-1])
            assert summary["items"] == 2 and summary["params"]["max_N"] == 1
            outputs.append([line for line in out.splitlines() if '"item"' in line])
        assert outputs[0] == outputs[1]

    def test_zero_items_fail(self, capsys):
        report = _emit_items("harmonic-hom", {}, iter(()), "text")
        assert report.passed is False
        assert "RESULT harmonic-hom: fail (0 items" in capsys.readouterr().out


def emit_relations(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = ROOT / "scripts" / "emit_relations.py"
    return subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestEmitRelations:
    def test_same_as_cli(self):
        # the golden ``relations --weight W --format json`` records of W = 2..8
        golden = (ROOT / "tests" / "golden" / "relations.jsonl").read_text().splitlines(keepends=True)
        proc = emit_relations("8")
        assert proc.returncode == 0
        assert proc.stdout == "".join(line for line in golden if json.loads(line)["weight"] <= 8)

    @pytest.mark.parametrize("arg", ["18", "x"])
    def test_bad_weight_exit_2(self, arg):
        proc = emit_relations(arg)
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
