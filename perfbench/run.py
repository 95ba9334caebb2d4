"""Benchmark entry point: repeated fresh-interpreter passes of one workload.

    python3 perfbench/run.py --workload algebra --seed 0 --seconds 15 --trace 0

Run from the repository root.  Each pass is a new ``python3`` process
(``child.py``) that imports ``hsw`` from ``src/``, makes the workload's
inputs from the seed, drives ``hsw.cli.main`` in-process and checks every
output, so caches start cold as they do for a CLI user.  Passes repeat until
``--seconds`` have gone by; each figure is the median over the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of the traced
ones, plus ``trace.overhead_frac``, the traced ``wall_norm`` over the
untraced one, minus 1.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it says how the run went.  The
exit code is 0 when every output was correct, 1 when one was not, and 2 when
the run could not be made (for example without ``src/hsw``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The metric names and units are those of BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Raw times, reported on the info line and by report.py but not gated: they
# follow the machine's wandering speed, and between runs move by about as much
# as the largest bound allowed (25 %) with no change to the program (see
# README.md).  ``setup_s`` and ``wall_norm`` are the gated forms of the first two.
UNGATED = {
    "setup_wall_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
}

# Thread caps and a fixed string-hash seed for every pass: one process, one
# thread, and dict/set layouts that do not change from pass to pass.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# A run must end within 180 s; no pass may start or run past this.
HARD_LIMIT_S = 165.0
# In a traced pass the CLI calls must cover the timed window: the benchmark's
# own work between them may take at most this share of it.
BENCH_SHARE_MAX = 0.01


class RunError(RuntimeError):
    """A pass could not be made (crash, timeout or missing program)."""


def environment(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "child_env": dict(CHILD_ENV),
    }


def child_env() -> dict:
    """The caller's environment without ``PYTHONPATH`` or the ``HSW_*`` CLI defaults."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH" and not k.startswith("HSW_")}
    env.update(CHILD_ENV)
    return env


def _child(workload, seed, scale, trace, reference, limit_at) -> dict:
    extra = ["--trace"] if trace else []
    if reference:
        extra += ["--reference", str(reference)]
    timeout = limit_at - time.perf_counter()
    if timeout <= 0:
        raise RunError("no time left for another pass")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, *extra, "--spawned-at"]
    try:
        proc = subprocess.run(
            cmd + [repr(time.perf_counter())],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"pass exceeded {timeout:.0f} s and was stopped") from exc
    if proc.returncode != 0:
        raise RunError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", reference=None) -> dict:
    """Run passes for ``seconds`` and return the contract result plus details."""
    if not (ROOT / "src" / "hsw" / "__init__.py").is_file():
        raise RunError(f"no hsw source under {ROOT / 'src'}")
    started = time.perf_counter()
    limit_at = started + HARD_LIMIT_S
    # Compile the bytecode once, untimed, so no pass pays for it.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import hsw.cli"],
        cwd=ROOT, check=True, env=child_env(),
    )
    plain: list[dict] = []
    traced: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(_child(workload, seed, scale, False, reference, limit_at))
        if trace:
            traced.append(_child(workload, seed, scale, True, reference, limit_at))
        now = time.perf_counter()
        if now - measure_start >= seconds or now + (now - begun) > limit_at:
            break

    runs = plain + traced
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    problems = [p["first_failure"] for p in runs if p["first_failure"]]
    if trace:
        for p in traced:
            share = p["layers"]["bench.self_s"] / p["layers"]["trace.wall_s"]
            if p["trace"]["roots"] != ["cli.main"] or share > BENCH_SHARE_MAX:
                failed += 1
                problems.append(f"CLI calls do not cover the traced window: "
                                f"roots {p['trace']['roots']}, bench share {share:.4f}")
        metrics = {
            name: {"value": _median(p["layers"][name] for p in traced), "unit": unit}
            for name, unit in PER_LAYER.items() if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = {
            "value": _median(t["wall_norm"] / p["wall_norm"] for p, t in zip(plain, traced)) - 1.0,
            "unit": PER_LAYER["trace.overhead_frac"],
        }
    else:
        metrics = {
            name: {"value": _median(p[name] for p in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    bounds = [p["bound_max"] for p in plain if p["bound_max"] is not None]
    details = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "passes": len(plain),
        "traced_passes": len(traced),
        "elapsed_s": time.perf_counter() - started,
        "pass_wall_s": [p["wall_s"] for p in plain],
        **{name: _median(p[name] for p in plain) for name in UNGATED},
        "records": plain[0]["records"],
        "item_tail_pct": plain[0]["item_tail_pct"],
        "failed_frac": failed / attempted,
        "bound_max": max(bounds) if bounds else None,
        "first_failure": problems[0] if problems else "",
        "env": environment(plain[0]["numpy"]),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print("info " + json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
