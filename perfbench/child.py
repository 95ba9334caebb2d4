"""One pass of a workload in a fresh interpreter; prints one JSON result line.

Started by ``run.py`` with the parent's ``perf_counter`` at spawn time, so
set-up time counts interpreter start, ``import hsw`` and input generation.
The pass then calls ``hsw.cli.main(argv)`` once per planned call with stdout
captured and every emitted line timestamped, and checks the outputs only
after the timed window has closed.  A traced pass writes its spans and
counters once, at exit, to ``perfbench/out/<workload>-<seed>.npz``.

    python3 perfbench/child.py --workload algebra --seed 0 --spawned-at T
        [--scale full|tiny] [--trace] [--reference FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


class Capture:
    """Stand-in for stdout that keeps each finished line and when it finished."""

    def __init__(self, stamps: list[float]):
        self.lines: list[str] = []
        self.stamps = stamps
        self._partial: list[str] = []

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._partial.append(text)
            return len(text)
        now = time.perf_counter()
        *complete, rest = text.split("\n")
        for piece in complete:
            self._partial.append(piece)
            self.lines.append("".join(self._partial))
            self._partial = []
            self.stamps.append(now)
        if rest:
            self._partial.append(rest)
        return len(text)

    def flush(self) -> None:
        pass


def tail_rank(n: int) -> tuple[int, int]:
    """Highest integer percentile with at least 10 of ``n`` records beyond it, and its rank.

    Nearest-rank definition: the value at percentile ``p`` is the
    ``ceil(p n / 100)``-th smallest.  Below 20 records the median is used.
    """
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, rank
    return 50, max(1, -(-50 * n // 100))


REFERENCE_LOOP_N = 500_000
# The loop's typical time on the machine the recorded figures come from;
# ``setup_s`` is the set-up time scaled to a machine running the loop this fast.
NOMINAL_REFERENCE_S = 0.04


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch ``hsw``.

    The machine's speed wanders by tens of percent within a minute, and this
    loop slows with it (timed around a ``quadrature`` pass, it correlates
    0.8 with the pass time).  ``wall_norm``, the wall time in units of this
    loop, is steady where ``wall_s`` is not, and moves only with the program;
    so does ``setup_s``, scaled the same way.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - t


def instrument(tracer) -> None:
    """Wrap the layer boundaries of hsw; span names are ``<layer>.<function>``."""
    from spans import replace_everywhere

    from hsw import cli, halg, monoid, mzveval, reg, series, trig, wcalc

    def patch_function(layer, module, name, after=None):
        orig = getattr(module, name)
        replace_everywhere(orig, tracer.span(f"{layer}.{name}", orig, after))

    def patch_method(layer, cls, attr, span_name, after=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, tracer.span(f"{layer}.{span_name}", orig, after))

    def star_words_out(args, result):
        tracer.add("halg.terms_out", len(result.terms))

    def zeta_out(args, result):
        tracer.maximum("mzveval.zeta.bound_max", result[1])

    def evaluator_lookup(args, result):
        w = args[1]
        if w and not all(a.is_zero or a.is_unit for a in w):
            tracer.add("mzveval.quad.lookups")

    patch_function("cli", cli, "main")
    patch_function("halg", halg, "harmonic")
    patch_function("halg", halg, "star_words", star_words_out)
    patch_method("series", series.Series1, "exp_star", "exp_star")
    patch_method("series", series.Series1, "star", "Series1.star")
    patch_method("series", series.Series2, "star", "Series2.star")
    for name in trig.__all__:
        patch_function("trig", trig, name)
    for name in (
        "w_value", "eval_w", "reduce_ap", "addition_defect_coeff", "pythagoras_coeff",
        "ap_witness_addition", "addition_series2", "pythagoras_series",
        "verify_addition", "verify_pythagoras",
    ):
        patch_function("wcalc", wcalc, name)
    for name in ("strip_e0", "reg_t", "z_st", "substitute_st", "z_num_with_bound",
                 "verify_regularization"):
        patch_function("reg", reg, name)
    patch_method("reg", reg.RegularizedValue, "__mul__", "rv_mul")
    patch_function("mzveval", mzveval, "zeta", zeta_out)
    patch_function("mzveval", mzveval, "verify_harmonic_hom")
    patch_method("mzveval", mzveval.H0Evaluator, "__call__", "quad", evaluator_lookup)
    mzveval.H0Evaluator._iterint = tracer.counting(
        "mzveval.quad.misses", mzveval.H0Evaluator._iterint
    )
    monoid.MonoidElement.__mul__ = tracer.counting(
        "monoid.mul_calls", monoid.MonoidElement.__mul__
    )


LAYERS = ("cli", "halg", "series", "trig", "wcalc", "reg", "mzveval")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, wall_s: float, cache_info: dict) -> dict:
    """The per-layer figures of one traced pass, keyed by metric name."""
    self_s = summary["self_s"]
    calls = summary["calls"]
    counters = summary["counters"]

    def selfs(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    star = cache_info["star"]
    regw = cache_info["reg_word"]
    lookups = counters.get("mzveval.quad.lookups", 0)
    out = {f"{layer}.self_s": selfs(layer + ".") for layer in LAYERS}
    out.update({
        "bench.self_s": wall_s - summary["root_s"],
        "monoid.mul_calls": counters.get("monoid.mul_calls", 0),
        "halg.harmonic.calls": calls.get("halg.harmonic", 0),
        "halg.harmonic.self_s": self_s.get("halg.harmonic", 0.0),
        "halg.star_words.calls": calls.get("halg.star_words", 0),
        "halg.star_words.self_s": self_s.get("halg.star_words", 0.0),
        "halg.terms_out": counters.get("halg.terms_out", 0),
        "halg.star_cache.hit_ratio": _ratio(star[0], star[0] + star[1]),
        "halg.star_cache.entries": star[2],
        "wcalc.eval_w.calls": calls.get("wcalc.eval_w", 0),
        "reg.z_st.calls": calls.get("reg.z_st", 0),
        "reg.z_st.self_s": self_s.get("reg.z_st", 0.0),
        "reg.substitute_st.self_s": self_s.get("reg.substitute_st", 0.0),
        "reg.rv_mul.self_s": self_s.get("reg.rv_mul", 0.0),
        "reg.reg_word.entries": regw[2],
        "reg.reg_word.hit_ratio": _ratio(regw[0], regw[0] + regw[1]),
        "mzveval.zeta.calls": calls.get("mzveval.zeta", 0),
        "mzveval.zeta.self_s": self_s.get("mzveval.zeta", 0.0),
        "mzveval.zeta.bound_max": counters.get("mzveval.zeta.bound_max", 0.0),
        "mzveval.evaluator.calls": calls.get("mzveval.quad", 0),
        "mzveval.quad.self_s": self_s.get("mzveval.quad", 0.0),
        "mzveval.quad.hit_ratio": _ratio(
            lookups - counters.get("mzveval.quad.misses", 0), lookups
        ),
        "trace.wall_s": wall_s,
    })
    return out


def run_pass(args) -> dict:
    spawned_at = args.spawned_at
    if not (SRC / "hsw" / "__init__.py").is_file():
        raise SystemExit(f"hsw source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import hsw.cli
    from hsw import halg, reg

    if Path(hsw.cli.__file__).resolve().parent != (SRC / "hsw").resolve():
        raise SystemExit(f"imported hsw from {hsw.cli.__file__}, not from {SRC}")
    reference = workloads.load_reference(args.reference)
    calls = workloads.build(args.workload, args.seed, args.scale, reference)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        instrument(tracer)
    main = hsw.cli.main
    setup_wall_s = time.perf_counter() - spawned_at

    stamps: list[float] = []
    results = []
    real_stdout = sys.stdout
    loop_before = reference_loop()
    t0 = time.perf_counter()
    for call in calls:
        capture = Capture(stamps)
        sys.stdout = capture
        try:
            rc = main(call.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed item, not a lost pass
            rc = -1
            capture.lines.append(f"{type(exc).__name__}: {exc}")
        finally:
            sys.stdout = real_stdout
        results.append((call, rc, capture.lines))
    t_end = time.perf_counter()
    wall_s = t_end - t0
    reference_s = (loop_before + reference_loop()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    first_failure = ""
    for call, rc, lines in results:
        a, f, why = workloads.check(call, rc, lines)
        attempted += a
        failed += f
        if why and not first_failure:
            first_failure = f"{' '.join(call.argv)[:120]}: {why}"
    if attempted == 0:
        attempted, failed, first_failure = 1, 1, "the pass yielded no items"

    intervals = [b - a for a, b in zip([t0, *stamps], stamps)]
    n = len(intervals)
    pct, rank = tail_rank(n)
    ordered = sorted(intervals)
    bounds = []
    for call, rc, lines in results:
        if call.kind == "eval":
            continue
        for line in lines:
            try:
                bounds.append(float(json.loads(line)["bound"]))
            except (ValueError, KeyError, TypeError):
                pass
    out = {
        "setup_s": setup_wall_s * NOMINAL_REFERENCE_S / reference_s,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "wall_norm": wall_s / reference_s,
        "item_p50_ms": 1e3 * statistics.median(intervals) if n else 0.0,
        "item_tail_ms": 1e3 * ordered[rank - 1] if n else 0.0,
        "item_tail_pct": pct,
        "records": n,
        "peak_rss_mb": peak_rss_mb,
        "bound_max": max(bounds) if bounds else None,
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        summary = tracer.summary()
        star = halg._star_words_cached.cache_info()
        regw = reg._reg_word.cache_info()
        cache_info = {
            "star": (star.hits, star.misses, star.currsize),
            "reg_word": (regw.hits, regw.misses, regw.currsize),
        }
        out["layers"] = layer_metrics(summary, wall_s, cache_info)
        out["trace"] = {"spans": summary["spans"], "roots": summary["roots"]}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-{args.seed}.npz")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", default=None)
    args = parser.parse_args(argv)
    result = run_pass(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
