"""Golden CLI output: text and JSON must match the recorded files byte for byte.

Only wall times are masked: the ``(N items, X.XXs)`` of a text summary and
the ``wall_time`` of a JSON summary.  ``eval`` outputs run to megabytes, so
``golden/eval.sha256`` keeps the SHA-256 of each output instead of the text;
its expressions are the ones ``perfbench/reference.json`` records.  So does
``golden/harmonic_hom_bench.sha256`` for the 465 items of the benchmark's
``verify harmonic-hom`` command, wall time masked, and
``golden/harmonic_hom_w3.sha256`` for a weight-3 run whose words of up to
6 letters mix zero and unit letters with real ones, so that the kernel's
error units for each zero/unit letter pattern show in its bounds.
``golden/relations_w14_30.sha256`` keeps one SHA-256 per even weight 14..30
of the JSON lines of :func:`hsw.cli.relation_records`, the records that
``relations --weight W --format json`` prints.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ENV_VARS = ("HSW_ORDER", "HSW_TOL")

_WALL_TEXT = re.compile(r"(\(\d+ items, )\d+\.\d+s\)")
_WALL_JSON = re.compile(r'("wall_time": )[0-9.eE+-]+')


def mask(text: str) -> str:
    text = _WALL_TEXT.sub(r"\1X.XXs)", text)
    return _WALL_JSON.sub(r"\1null", text)


def cli(*argv: str) -> str:
    from hsw.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"hsw {' '.join(argv)} exited {code}"
    return buf.getvalue()


def verify_all() -> str:
    env = {k: v for k, v in os.environ.items() if k not in ENV_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_all.py")],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def relations(fmt: str) -> str:
    return "".join(
        cli("relations", "--weight", str(w), "--format", fmt) for w in range(2, 13, 2)
    )


def eval_digests(cases: list[tuple[str, str]]) -> str:
    lines = []
    for mode, expr in cases:
        digest = hashlib.sha256(cli("eval", expr, "--mode", mode).encode()).hexdigest()
        lines.append(f"{digest} {mode} {expr}\n")
    return "".join(lines)


def eval_cases(golden_text: str) -> list[tuple[str, str]]:
    return [tuple(line.split(" ", 2)[1:]) for line in golden_text.splitlines()]


HARMONIC_HOM = ("verify", "harmonic-hom", "--letters=2,-2", "--max-weight", "2", "--format", "json")
# The quadrature benchmark workload's command: 465 items, kept as a SHA-256.
HARMONIC_HOM_BENCH = ("verify", "harmonic-hom", "--letters=2,3,5/2,-2,7/3", "--max-weight", "2", "--format", "json")
# 780 items up to weight 3: zero letters come from the -e_0 term of a product,
# unit letters from (-1)(-1), so the words mix both with real letters.
HARMONIC_HOM_W3 = ("verify", "harmonic-hom", "--letters=2,-1,7/3", "--max-weight", "3", "--format", "json")


def relation_digests(weights: range) -> str:
    from hsw.cli import relation_records
    from hsw.mzveval import H0Evaluator

    lines = []
    for weight in weights:
        text = "".join(json.dumps(record) + "\n" for record in relation_records(weight, H0Evaluator()))
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()} {weight}\n")
    return "".join(lines)


def digest_line(*argv: str) -> str:
    return f"{hashlib.sha256(mask(cli(*argv)).encode()).hexdigest()} {' '.join(argv)}\n"


CASES = {
    "verify_all.txt": verify_all,
    "relations.txt": lambda: relations("text"),
    "relations.jsonl": lambda: relations("json"),
    "addition.jsonl": lambda: cli("verify", "addition", "--max-degree", "16", "--format", "json"),
    "pythagoras.jsonl": lambda: cli("verify", "pythagoras", "--max-N", "6", "--format", "json"),
    "harmonic_hom.jsonl": lambda: cli(*HARMONIC_HOM),
    "harmonic_hom_bench.sha256": lambda: digest_line(*HARMONIC_HOM_BENCH),
    "harmonic_hom_w3.sha256": lambda: digest_line(*HARMONIC_HOM_W3),
    "relations_w14_30.sha256": lambda: relation_digests(range(14, 31, 2)),
}


def _first_difference(got: str, want: str) -> str:
    for n, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {n}:\n  got  {a[:300]}\n  want {b[:300]}"
    return f"line counts differ: got {len(got.splitlines())}, want {len(want.splitlines())}"


def _check(name: str, got: str) -> None:
    want = (GOLDEN / name).read_text()
    assert got == want, f"{name} differs from the golden file at {_first_difference(got, want)}"


@pytest.fixture
def clean_env(monkeypatch):
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, clean_env):
    _check(name, mask(CASES[name]()))


def test_golden_eval(clean_env):
    cases = eval_cases((GOLDEN / "eval.sha256").read_text())
    assert cases
    _check("eval.sha256", eval_digests(cases))


# Interns letters against their order first, so that ids and ``MonoidElement.key``
# disagree, then runs one ``hsw`` command.
REVERSED_INTERNING = """
import sys
from fractions import Fraction
from hsw.cli import main
from hsw.monoid import cyclic, rational

for q in (Fraction(7, 3), Fraction(5, 2), 3, -2, 2):
    rational(q)
for n in range(5, 0, -1):
    cyclic(n)
assert cyclic(1).id > cyclic(2).id and rational(2).id > rational(-2).id
sys.exit(main(sys.argv[1:]))
"""


def reversed_interning(*argv: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in ENV_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", REVERSED_INTERNING, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_output_does_not_depend_on_intern_order():
    # byte-identical to the golden files when letter ids run against the letter order
    golden = (GOLDEN / "eval.sha256").read_text()
    mode, expr = next(case for case in eval_cases(golden) if "z^2" in case[1])
    digest = hashlib.sha256(reversed_interning("eval", expr, "--mode", mode).encode()).hexdigest()
    assert f"{digest} {mode} {expr}" in golden.splitlines()
    _check("harmonic_hom.jsonl", mask(reversed_interning(*HARMONIC_HOM)))


def hash_seed_digests(*argv: str) -> set[str]:
    """SHA-256 of one ``hsw`` command's masked stdout in fresh interpreters, per ``PYTHONHASHSEED`` 0 and 1."""
    env = {k: v for k, v in os.environ.items() if k not in ENV_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    digests = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "hsw", *argv],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": seed}, check=True,
        )
        digests.add(hashlib.sha256(mask(proc.stdout).encode()).hexdigest())
    return digests


def test_output_does_not_depend_on_hash_seed():
    # a word is a str, whose hash is seeded: no output order may follow a set's or dict's layout
    digest, mode, expr = (GOLDEN / "eval.sha256").read_text().splitlines()[0].split(" ", 2)
    assert hash_seed_digests("eval", expr, "--mode", mode) == {digest}
    regularization = ("verify", "regularization", "--count", "20", "--max-weight", "6", "--format", "json")
    assert len(hash_seed_digests(*regularization)) == 1


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in CASES.items():
        (GOLDEN / name).write_text(mask(produce()))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    cases = sorted(tuple(key.split(" ", 1)) for key in reference["eval"])
    (GOLDEN / "eval.sha256").write_text(eval_digests(cases))


if __name__ == "__main__":
    if any(name in os.environ for name in ENV_VARS):
        sys.exit(f"unset {', '.join(ENV_VARS)} before recording")
    record()
