"""Self-test of the benchmark at tiny size (under a minute).

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json`` keeps to its format;
* every workload, untraced and traced, emits exactly the metrics that
  ``BENCHMARK.json`` names, each with its unit, and passes its checks;
* a traced pass writes its spans and counters to ``perfbench/out/`` at exit;
* the last stdout line of ``run.py`` is the result object and nothing else;
* a deliberately wrong reference output raises ``failed_frac`` above 0;
* without the program's source the benchmark exits non-zero and prints no
  result.

Scratch files go to ``perfbench/out/``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists the four workloads")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "each workload has a one-line why of <= 200 chars")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    expect(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
           "metric names are unique and well formed")
    expect(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics), "units and directions are well formed")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end-to-end bounds are in (0, 0.25]")
    expect(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
           "per-layer metrics carry no bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in seconds, lower-better, with the largest bound")


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    OUT.mkdir(exist_ok=True)

    for name in workloads.NAMES:
        plain = run.measure(name, 0, 0.1, trace=False, scale="tiny")["result"]
        check_metrics(plain, spec["end_to_end"], f"{name} untraced")
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               f"{name} untraced: every end-to-end value is above 0")
        (OUT / f"{name}-0.npz").unlink(missing_ok=True)
        traced = run.measure(name, 0, 0.1, trace=True, scale="tiny")["result"]
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        with numpy.load(OUT / f"{name}-0.npz") as spans:
            expect(len(spans["start"]) > 0 and "cli.main" in spans["names"]
                   and "monoid.mul_calls" in spans["counter_names"],
                   f"{name} traced: spans and counters were written at exit")

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "relations", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    expect(proc.returncode == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
           "run.py exits 0 and its last line is the result object")

    bad = workloads.load_reference()
    for entry in bad["eval"].values():
        entry["sha256"] = "0" * 64
    bad_path = OUT / "wrong_reference.json"
    bad_path.write_text(json.dumps(bad))
    for name in ("algebra", "regularize"):
        out = run.measure(name, 0, 0.1, trace=False, scale="tiny", reference=bad_path)
        expect(out["details"]["failed_frac"] > 0 and not out["result"]["correct"],
               f"{name}: a wrong reference gives failed_frac "
               f"{out['details']['failed_frac']:.3f} > 0")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "algebra", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
