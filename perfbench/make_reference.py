"""Record ``reference.json``: the slots the seeded draws take from, and the expected eval outputs.

Run from the repository root against the commit whose outputs are the
reference (it imports ``hsw`` from ``src/``):

    python3 perfbench/make_reference.py

It writes

* ``algebra_slots``: random word pairs ``u*v`` grouped by cold-cache cost and
  output size;
* ``regularize_slots``: CLI seeds of ``verify regularization``, grouped by cost
  and slowest item;
* ``eval``: term count and digest of every ``eval`` output a pass can ask for.

Grouping: every candidate is timed with every cache of ``hsw`` cleared,
once, and three times (keeping the least) when it comes near a slot.
Slot ``i`` of ``k`` takes the candidates nearest, on a log scale, to the
``(i + 1/2)/k`` quantiles of all candidates' costs and of one more figure:
the output term count for the pairs, since it sets the memory a pass peaks
at, and the slowest record interval for the seeds, since the tail metric
rests on the slowest records.  The costs only shape the draw; the outputs
are what the passes check.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import Capture  # noqa: E402
from hsw import cli, halg, reg, wcalc  # noqa: E402

ALGEBRA_CANDIDATES = 960
REGULARIZE_CANDIDATES = 960
PER_SLOT = 4


def clear_all_caches() -> None:
    halg.clear_caches()
    reg._reg_word.cache_clear()
    reg._e1_star_power.cache_clear()
    wcalc.w_value.cache_clear()
    wcalc._eval_monomial.cache_clear()


def timed_cli(argv: list[str]) -> tuple[float, float, list[str]]:
    """Cold-cache cost of one CLI call, its slowest record interval, and its output."""
    clear_all_caches()
    stamps: list[float] = []
    capture = Capture(stamps)
    start = time.perf_counter()
    with contextlib.redirect_stdout(capture):
        rc = cli.main(argv)
    end = time.perf_counter()
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    slowest = max(b - a for a, b in zip([start, *stamps], stamps))
    return round(1e3 * (end - start), 1), round(1e3 * slowest, 3), capture.lines


def random_word(rng: random.Random) -> str:
    lo, hi = workloads.ALGEBRA_WEIGHTS
    return "".join(
        f"e[{rng.choice(workloads.ALGEBRA_LETTERS)}]" for _ in range(rng.randint(lo, hi))
    )


def retime(entry: dict, argv: list[str]) -> None:
    """Time ``argv`` twice more and keep the smallest figures: less noise near a slot."""
    for _ in range(2):
        cost_ms, item_ms, _ = timed_cli(argv)
        entry["cost_ms"] = min(entry["cost_ms"], cost_ms)
        if "item_ms" in entry:
            entry["item_ms"] = min(entry["item_ms"], item_ms)


def slots(candidates: list[dict], count: int, keys: tuple[str, ...], argv_of) -> list[list[dict]]:
    """``count`` groups of ``PER_SLOT`` candidates, each near one quantile of ``keys``.

    Slot ``i`` is centred on the candidate at quantile ``(i + 1/2)/count`` of
    the summed log ``keys``; the ``3 * PER_SLOT`` nearest candidates are
    retimed before the final pick.
    """
    def logs(e: dict) -> dict[str, float]:
        return {k: math.log(e[k]) for k in keys}

    ranked = sorted(candidates, key=lambda e: sum(logs(e).values()))
    left = list(candidates)
    retimed: set[int] = set()
    groups = []
    for i in range(count):
        anchor = ranked[int((i + 0.5) / count * len(ranked))]
        target = logs(anchor)

        def distance(e: dict) -> float:
            return max(abs(math.log(e[k]) - target[k]) for k in keys)

        left.sort(key=distance)
        for e in [anchor, *left[: 3 * PER_SLOT]]:
            if id(e) not in retimed:
                retime(e, argv_of(e))
                retimed.add(id(e))
        target = logs(anchor)
        left.sort(key=distance)
        groups.append(sorted(left[:PER_SLOT], key=lambda e: e["cost_ms"]))
        del left[:PER_SLOT]
    return groups


def algebra_argv(entry: dict) -> list[str]:
    return ["eval", entry["expr"], "--mode", "symbolic"]


def regularize_argv(entry: dict) -> list[str]:
    return [
        "verify", "regularization", "--count", str(workloads.REGULARIZE_COUNT),
        "--max-weight", str(workloads.REGULARIZE_MAX_WEIGHT), "--seed", str(entry["seed"]),
        "--format", "json",
    ]


def main() -> int:
    outputs: dict[str, dict] = {}
    rng = random.Random("algebra-pool")
    pairs = []
    for i in range(ALGEBRA_CANDIDATES):
        entry = {"expr": f"{random_word(rng)}*{random_word(rng)}"}
        entry["cost_ms"], _, lines = timed_cli(algebra_argv(entry))
        digest = outputs[f"symbolic {entry['expr']}"] = workloads.digest(lines[0])
        entry["terms"] = digest["terms"]
        pairs.append(entry)
        cost_ms = entry["cost_ms"]
        print(f"algebra {i}: {cost_ms} ms", file=sys.stderr)

    seeds = []
    for seed in range(REGULARIZE_CANDIDATES):
        entry = {"seed": seed}
        entry["cost_ms"], entry["item_ms"], _ = timed_cli(regularize_argv(entry))
        seeds.append(entry)
        cost_ms = entry["cost_ms"]
        print(f"regularize seed {seed}: {cost_ms} ms", file=sys.stderr)

    for expr in workloads.UNIT_TAIL_FAMILY + workloads.UNIT_TAIL_FAMILY_TINY:
        _, _, lines = timed_cli(["eval", expr, "--mode", "zst"])
        outputs[f"zst {expr}"] = workloads.digest(lines[0])

    algebra_slots = slots(pairs, workloads.ALGEBRA_SLOTS, ("cost_ms", "terms"), algebra_argv)
    used = {f"symbolic {e['expr']}" for slot in algebra_slots for e in slot}
    ref = {
        "params": workloads.slot_params(),
        "algebra_slots": algebra_slots,
        "regularize_slots": slots(
            seeds, workloads.REGULARIZE_SLOTS, ("cost_ms", "item_ms"), regularize_argv
        ),
        "eval": {k: v for k, v in outputs.items() if k in used or k.startswith("zst ")},
    }
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
