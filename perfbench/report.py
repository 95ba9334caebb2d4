"""Side-by-side tables of the benchmark, and the seed-spread check.

    python3 perfbench/report.py                       # every workload, seeds 0 and 1
    python3 perfbench/report.py --seeds 0,7 --trace   # also the per-layer table
    python3 perfbench/report.py --spread 10 --workloads algebra

The table prints every end-to-end metric by name and unit for each workload
and seed, plus ``failed_frac`` (failed over attempted items), ``bound_max``
(largest reported error bound, for the workloads whose output carries one)
and the tail percentile with its record count.  A gain measured on one seed
should be confirmed on another: the seeds sit next to each other.

``--spread N`` runs each workload on seeds 1..N and prints, per end-to-end
metric, the median and the distance between the first and third quartiles
as a share of the median, beside the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def table(names, seeds, seconds, trace) -> None:
    columns = []
    for name in names:
        for seed in seeds:
            out = run.measure(name, seed, seconds, trace=False)
            layer = run.measure(name, seed, seconds, trace=True) if trace else None
            columns.append((f"{name}@{seed}", out, layer))
    env = columns[0][1]["details"]["env"]
    print(f"environment: {json.dumps(env)}")
    rows = [(f"{m} [{u}]", lambda o, lay, m=m: o["result"]["metrics"][m]["value"])
            for m, u in run.END_TO_END.items()]
    rows += [(f"{m} [{u}]", lambda o, lay, m=m: o["details"][m])
             for m, u in run.UNGATED.items()]
    rows += [
        ("failed_frac [ratio]", lambda o, lay: o["details"]["failed_frac"]),
        ("bound_max [abs]", lambda o, lay: o["details"]["bound_max"]),
        ("item_tail percentile", lambda o, lay: o["details"]["item_tail_pct"]),
        ("records per pass", lambda o, lay: o["details"]["records"]),
        ("passes", lambda o, lay: o["details"]["passes"]),
        ("correct", lambda o, lay: o["result"]["correct"]),
    ]
    if trace:
        rows += [(f"{m} [{u}]", lambda o, lay, m=m: lay["result"]["metrics"][m]["value"])
                 for m, u in run.PER_LAYER.items()]
    width = max(len(r[0]) for r in rows)
    print(" " * width + "".join(f"{c[0]:>16}" for c in columns))
    for label, get in rows:
        print(f"{label:<{width}}" + "".join(f"{_fmt(get(o, lay)):>16}" for _, o, lay in columns))


def spread(names, count, seconds) -> int:
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}
    worst = 0.0
    for name in names:
        results = [run.measure(name, seed, seconds, trace=False)
                   for seed in range(1, count + 1)]
        if not all(r["result"]["correct"] for r in results):
            print(f"{name}: a run was not correct")
            return 1
        for metric in [*run.END_TO_END, *run.UNGATED]:
            if metric in run.END_TO_END:
                values = [r["result"]["metrics"][metric]["value"] for r in results]
            else:
                values = [r["details"][metric] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            if metric in bounds and metric != "setup_s":
                worst = max(worst, share / bounds[metric])
            bound = f"{bounds[metric]:.2f}" if metric in bounds else "none"
            print(f"{name:<11} {metric:<13} median {statistics.median(values):<12.5g} "
                  f"spread {share:6.3f}  bound {bound}  "
                  f"values {' '.join(f'{v:.4g}' for v in values)}", flush=True)
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seeds", default="0,1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true", help="add the per-layer rows")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run seeds 1..N per workload and print the quartile spreads")
    args = parser.parse_args(argv)
    names = [n for n in args.workloads.split(",") if n]
    seconds = args.seconds or run.SPEC["run_seconds"]
    if args.spread:
        return spread(names, args.spread, seconds)
    table(names, [int(s) for s in args.seeds.split(",")], seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
