"""The benchmark's tracer still finds every layer function it wraps.

``perfbench/child.py``'s ``instrument`` patches hsw functions and methods by
name (``Series2.star``, ``H0Evaluator._iterint``, ``verify_pythagoras``, ...);
a rename makes it fail, as does a change to ``reg._reg_word.cache_info()``,
which a traced pass reads.  It runs in a subprocess because the patches last
for the life of the process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from child import instrument
from spans import Tracer
import hsw.cli
from hsw import reg

tracer = Tracer()
instrument(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = hsw.cli.main(json.loads(sys.argv[3]))
summary = tracer.summary()
regw = reg._reg_word.cache_info()  # read as child.py reads it
out = {key: summary[key] for key in ("roots", "calls", "counters")}
print(json.dumps(out | {"code": code, "reg_word": [regw.hits, regw.misses, regw.currsize]}))
"""


def traced_run(*argv: str) -> dict:
    """Exit code, root span names, call counts, counters and rule memo figures of one traced run."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_instrumented_cli_run():
    result = traced_run("verify", "pythagoras", "--max-N", "2")
    assert result["code"] == 0
    assert result["roots"] == ["cli.main"]
    assert result["calls"]["cli.main"] == 1
    # The driver is looked up when the command runs, so the CLI calls the wrapped one.
    assert result["calls"]["wcalc.verify_pythagoras"] == 1


def test_instrumented_quadrature_hook():
    # The benchmark counts quadrature misses through H0Evaluator._iterint.
    result = traced_run("verify", "harmonic-hom", "--max-weight", "1")
    assert result["code"] == 0
    assert result["roots"] == ["cli.main"]
    assert result["calls"]["mzveval.verify_harmonic_hom"] == 1
    assert result["counters"]["mzveval.quad.misses"] > 0


def test_instrumented_relations_reach_zeta():
    # relation_records fills the evaluator with H0Evaluator.prefetch, which calls the wrapped zeta.
    result = traced_run("relations", "--weight", "4")
    assert result["code"] == 0
    assert result["roots"] == ["cli.main"]
    assert result["calls"]["mzveval.zeta"] > 0
    assert result["calls"]["mzveval.quad"] > 0


def test_instrumented_regularization_reads_the_rule_memo():
    # Traced passes read reg._reg_word.cache_info() for the reg.reg_word.* metrics.
    result = traced_run("verify", "regularization", "--count", "2", "--max-weight", "4")
    assert result["code"] == 0
    assert result["roots"] == ["cli.main"]
    assert result["calls"]["reg.z_st"] > 0
    _, misses, _ = result["reg_word"]
    assert misses > 0
