"""The runtime needs only the standard library: the CLI loads neither mpmath nor numpy.

The tests themselves import ``mpmath`` for references, so the check runs in a
fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hsw
from hsw.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["eval", "e[2]e[3]", "--mode", "znum"]),
        main(["verify", "harmonic-hom", "--max-weight", "1"]),
    ]
print(json.dumps({"codes": codes, "loaded": sorted({"mpmath", "numpy"} & set(sys.modules))}))
"""


def test_cli_runs_on_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC)], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "loaded": []}
