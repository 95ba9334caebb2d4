"""Golden CLI output: text and JSON must match the recorded files byte for byte.

Only wall times are masked: the ``(N items, X.XXs)`` of a text summary and
the ``wall_time`` of a JSON summary.  ``eval`` outputs run to megabytes, so
``golden/eval.sha256`` keeps the SHA-256 of each output instead of the text;
its expressions are the ones ``perfbench/reference.json`` records.

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
ENV_VARS = ("HSW_ORDER", "HSW_MZV_N", "HSW_TOL")

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


CASES = {
    "verify_all.txt": verify_all,
    "relations.txt": lambda: relations("text"),
    "relations.jsonl": lambda: relations("json"),
    "addition.jsonl": lambda: cli("verify", "addition", "--max-degree", "16", "--format", "json"),
    "pythagoras.jsonl": lambda: cli("verify", "pythagoras", "--max-N", "6", "--format", "json"),
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
