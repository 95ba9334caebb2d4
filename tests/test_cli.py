import json

import pytest

from hsw.cli import main


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
        code, out, _ = run(capsys, "eval", "e[1]e[1]", "--mode", "znum", "--mzv-n", "100000")
        assert code == 0
        value = float(out.split("±")[0])
        assert abs(value + 0.8224670334) < 1e-5

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "s[1,2")
        assert code == 2
        assert "parse error" in err

    def test_unsupported_word_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "e[z]", "--mode", "znum")
        assert code == 2
        assert "evaluation error" in err


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
    def test_env_sets_default_cutoff_flags_win(self, capsys, monkeypatch):
        monkeypatch.setenv("HSW_MZV_N", "50000")
        code, out, _ = run(capsys, "eval", "s[1,2]", "--mode", "znum")
        assert code == 0
        env_bound = float(out.split("±")[1])
        monkeypatch.setenv("HSW_MZV_N", "not-a-number")
        code, out, _ = run(capsys, "eval", "s[1,2]", "--mode", "znum", "--mzv-n", "50000")
        assert code == 0
        assert float(out.split("±")[1]) == env_bound


class TestRelations:
    def test_weight_4_contains_named_relation(self, capsys):
        code, out, _ = run(
            capsys, "relations", "--weight", "4", "--format", "json", "--mzv-n", "200000"
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
            ({"HSW_MZV_N": "abc"}, ["eval", "s[1,2]", "--mode", "znum"]),
            ({"HSW_MZV_N": "5"}, ["eval", "s[1,2]", "--mode", "znum"]),
            ({"HSW_MZV_N": "abc"}, ["relations", "--weight", "4"]),
            ({"HSW_TOL": "abc"}, ["eval", "s[1,2]", "--mode", "znum"]),
            ({"HSW_TOL": "-1e-7"}, ["verify", "harmonic-hom", "--max-weight", "1"]),
            ({}, ["eval", "s[1,2]", "--mode", "znum", "--mzv-n", "5"]),
            ({}, ["eval", "s[1,2]", "--mode", "znum", "--tol", "0"]),
            ({}, ["verify", "harmonic-hom", "--tol", "-1"]),
            ({}, ["verify", "harmonic-hom", "--quad-tol", "nan"]),
            ({}, ["verify", "regularization", "--count", "-5"]),
            ({}, ["verify", "regularization", "--count", "0"]),
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
        code, out, _ = run(capsys, "verify", "harmonic-hom", "--letters", ",")
        assert code == 1
        assert "RESULT harmonic-hom: fail (0 items" in out
