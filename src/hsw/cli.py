"""Command-line front end.

Three verbs:

* ``verify {coincidence,addition,pythagoras,regularization,harmonic-hom}``
  runs a theorem driver and streams one line-delimited record per checked
  item (text or JSON), exiting 0 on success and 1 on any failure;
* ``relations --weight W`` emits, for every addition/Pythagoras coefficient
  of the given even weight, the induced linear relation among multiple zeta
  values together with its numeric residual and error bound;
* ``eval EXPR`` parses a polynomial expression and prints it normalized
  (``symbolic``), in S/T normal form (``zst``) or numerically (``znum``).

Defaults honour the environment variables ``HSW_ORDER``, ``HSW_MZV_N`` and
``HSW_TOL``; explicit flags win.  A variable's value is checked like the flag
it stands for, so a bad one exits 2 unless that flag is given.  Exit codes:
0 pass, 1 verification failure (a run with no items fails too), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator

from .halg import HPoly, ParseError, combine, format_poly, format_terms, parse_poly
from .monoid import UNIT, MonoidElement, parse_element
from .mzveval import (
    DEFAULT_CUTOFF,
    MIN_CUTOFF,
    H0Evaluator,
    UnsupportedWordError,
    verify_harmonic_hom,
    word_to_mzv,
)
from .reg import verify_regularization, z_num_with_bound, z_st
from .reporting import CheckResult
from .trig import verify_coincidence, verify_reflection_product
from .series import DEFAULT_ORDER
from .wcalc import (
    addition_defect_coeff,
    eval_w,
    pythagoras_coeff,
    verify_addition,
    verify_pythagoras,
)

__all__ = ["main", "VerificationReport", "relation_records"]

MAX_ORDER = 16
MAX_RELATION_WEIGHT = 12


@dataclass
class VerificationReport:
    """Outcome of one theorem run; machine and human renderings agree on status."""

    theorem: str
    params: dict
    items: list[CheckResult]
    wall_time: float

    @property
    def passed(self) -> bool:
        """True when there was at least one item and every item passed."""
        return bool(self.items) and all(item.passed for item in self.items)

    def summary_dict(self) -> dict:
        return {
            "type": "summary",
            "theorem": self.theorem,
            "params": self.params,
            "status": "pass" if self.passed else "fail",
            "items": len(self.items),
            "failed": sum(1 for i in self.items if not i.passed),
            "wall_time": round(self.wall_time, 3),
        }


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], requirement: str):
    """An argparse ``type`` that also checks the converted value.

    argparse passes a string default through ``type`` too, whenever the flag
    is absent; that is how a bad ``HSW_*`` value exits 2 like a bad flag.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_ORDER = _checked(int, lambda n: 0 <= n <= MAX_ORDER, f"an integer from 0 to {MAX_ORDER}")
_COUNT = _checked(int, lambda n: n >= 1, "a positive integer")
_CUTOFF = _checked(int, lambda n: n >= MIN_CUTOFF, f"an integer >= {MIN_CUTOFF}")
_TOLERANCE = _checked(float, lambda x: 0 < x < math.inf, "a finite positive number")


def _emit_items(
    theorem: str,
    params: dict,
    items: Iterable[CheckResult],
    fmt: str,
    out=None,
) -> VerificationReport:
    out = out if out is not None else sys.stdout
    collected: list[CheckResult] = []
    start = time.perf_counter()
    for item in items:
        collected.append(item)
        if fmt == "json":
            record = {"type": "item", "theorem": theorem}
            record.update(item.as_dict())
            print(json.dumps(record), file=out, flush=True)
        else:
            status = "PASS" if item.passed else "FAIL"
            detail = f"  {item.detail}" if item.detail else ""
            print(f"[{status}] {theorem}: {item.item}{detail}", file=out, flush=True)
    report = VerificationReport(theorem, params, collected, time.perf_counter() - start)
    if fmt == "json":
        print(json.dumps(report.summary_dict()), file=out, flush=True)
    else:
        print(
            f"RESULT {theorem}: {'pass' if report.passed else 'fail'} "
            f"({len(collected)} items, {report.wall_time:.2f}s)",
            file=out,
            flush=True,
        )
    return report


def _parse_z(parser: argparse.ArgumentParser, text: str) -> MonoidElement:
    try:
        return parse_element(text)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _relation_terms(poly: HPoly) -> list[tuple[Fraction, tuple[int, ...]]]:
    indexed = ((word_to_mzv(w), c) for w, c in poly.terms.items())
    acc = combine((idx.ks, c * idx.sign) for idx, c in indexed)
    terms = [(c, ks) for ks, c in acc.items()]
    return sorted(terms, key=lambda t: (len(t[1]), t[1]), reverse=True)


def _normalize_terms(
    terms: list[tuple[Fraction, tuple[int, ...]]]
) -> list[tuple[int, tuple[int, ...]]]:
    if not terms:
        return []
    lcm = 1
    for c, _ in terms:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    scaled = [(int(c * lcm), ks) for c, ks in terms]
    g = 0
    for c, _ in scaled:
        g = math.gcd(g, abs(c))
    if g > 1:
        scaled = [(c // g, ks) for c, ks in scaled]
    if scaled[0][0] < 0:
        scaled = [(-c, ks) for c, ks in scaled]
    return scaled


def _relation_text(terms: list[tuple[int, tuple[int, ...]]]) -> str:
    zetas = ((c, f"z({','.join(map(str, ks))})" if ks else "") for c, ks in terms)
    return format_terms(zetas) + " = 0"


def relation_records(weight: int, evaluator) -> Iterator[dict]:
    """Zeta-value relations induced by the coefficients of the given even weight."""
    if weight % 2 or weight < 2:
        raise ValueError("weight must be a positive even integer")
    sources: list[tuple[str, list[int], object]] = []
    for i in range(weight + 2):
        j = weight + 1 - i
        sources.append(("addition", [i, j], addition_defect_coeff(i, j)))
    sources.append(("pythagoras", [weight], pythagoras_coeff(weight // 2)))
    for kind, degrees, wp in sources:
        if wp.is_zero:
            continue
        poly = eval_w(wp, UNIT)
        terms = _normalize_terms(_relation_terms(poly))
        if not terms:
            continue
        residual = 0.0
        bound = 0.0
        for c, ks in terms:
            v, b = evaluator.zeta_value(ks) if ks else (1.0, 0.0)
            residual += c * v
            bound += abs(c) * b
        yield {
            "type": "relation",
            "weight": weight,
            "source": kind,
            "degrees": degrees,
            "relation": _relation_text(terms),
            "terms": [{"coeff": c, "index": list(ks)} for c, ks in terms],
            "residual": residual,
            "bound": bound,
        }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    theorem = args.theorem
    if theorem == "coincidence":
        if not 1 <= args.k <= 6:
            parser.error("--k must be between 1 and 6")
        if not 0 <= args.max_n <= 8:
            parser.error("--max-n must be between 0 and 8")
        z = _parse_z(parser, args.z)
        order = args.order
        items = verify_coincidence(z, k=args.k, max_n=args.max_n, order=order)
        params = {"k": args.k, "order": order, "max_n": args.max_n, "z": args.z}
        reflection = verify_reflection_product(z, order=min(order, 8))

        def chained() -> Iterator[CheckResult]:
            yield from items
            yield from reflection

        report = _emit_items(theorem, params, chained(), args.format)
    elif theorem == "addition":
        if not 0 <= args.max_degree <= MAX_ORDER:
            parser.error(f"--max-degree must be between 0 and {MAX_ORDER}")
        z = _parse_z(parser, args.z)
        params = {"max_degree": args.max_degree, "z": args.z}
        report = _emit_items(
            theorem, params, verify_addition(z, args.max_degree), args.format
        )
    elif theorem == "pythagoras":
        if not 0 <= args.max_n <= 6:
            parser.error("--max-N must be between 0 and 6")
        z = _parse_z(parser, args.z)
        params = {"max_N": args.max_n, "z": args.z}
        report = _emit_items(theorem, params, verify_pythagoras(z, args.max_n), args.format)
    elif theorem == "regularization":
        if not 0 <= args.max_weight <= 8:
            parser.error("--max-weight must be between 0 and 8 for regularization")
        params = {"count": args.count, "max_weight": args.max_weight, "seed": args.seed}
        report = _emit_items(
            theorem,
            params,
            verify_regularization(args.count, args.max_weight, args.seed),
            args.format,
        )
    else:  # harmonic-hom
        if not 1 <= args.max_weight <= 2:
            parser.error("--max-weight must be 1 or 2 for harmonic-hom (quadrature depth cap)")
        try:
            letters = [Fraction(part) for part in args.letters.split(",") if part.strip()]
        except ValueError:
            parser.error("--letters must be a comma-separated list of rationals")
        if any(abs(q) < 1 or q == 1 for q in letters):
            parser.error("--letters must have modulus >= 1 and differ from 1")
        params = {"letters": args.letters, "max_weight": args.max_weight, "tol": args.tol}
        report = _emit_items(
            theorem,
            params,
            verify_harmonic_hom(letters, args.max_weight, args.tol, args.quad_tol),
            args.format,
        )
    return 0 if report.passed else 1


def _cmd_relations(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.weight % 2 or args.weight < 2:
        parser.error("--weight must be a positive even integer")
    if args.weight > MAX_RELATION_WEIGHT:
        parser.error(f"--weight must be at most {MAX_RELATION_WEIGHT}")
    evaluator = H0Evaluator(n_terms=args.mzv_n)
    for record in relation_records(args.weight, evaluator):
        if args.format == "json":
            print(json.dumps(record), flush=True)
        else:
            print(
                f"weight={record['weight']} {record['source']}{record['degrees']}: "
                f"{record['relation']}  residual={record['residual']:.3e} "
                f"bound={record['bound']:.3e}",
                flush=True,
            )
    return 0


def _cmd_eval(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        poly = parse_poly(args.expr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if args.mode == "symbolic":
        print(format_poly(poly))
        return 0
    if args.mode == "zst":
        print(z_st(poly))
        return 0
    evaluator = H0Evaluator(n_terms=args.mzv_n, tol=args.tol)
    try:
        value, bound = z_num_with_bound(poly, evaluator)
    except UnsupportedWordError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.9f} ± {bound:.2e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Raw strings when set: argparse checks them through the flag's ``type``.
    default_order = os.environ.get("HSW_ORDER", DEFAULT_ORDER)
    default_mzv_n = os.environ.get("HSW_MZV_N", DEFAULT_CUTOFF)
    default_tol = os.environ.get("HSW_TOL", 1e-7)

    parser = argparse.ArgumentParser(
        prog="hsw",
        description="Exact harmonic-algebra trigonometry and zeta-value evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a theorem verification")
    verify.add_argument(
        "theorem",
        choices=["coincidence", "addition", "pythagoras", "regularization", "harmonic-hom"],
    )
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--order", type=_ORDER, default=default_order, help=f"truncation order (default {default_order}; HSW_ORDER)")
    verify.add_argument("--k", type=int, default=2, help="block length for coincidence")
    verify.add_argument("--max-n", "--max-N", type=int, default=5, dest="max_n", help="coefficient identities (coincidence) or coefficients (pythagoras)")
    verify.add_argument("--max-degree", type=int, default=9, dest="max_degree")
    verify.add_argument("--z", default="z", help="monoid element literal (default the cyclic generator)")
    verify.add_argument("--count", type=_COUNT, default=100, help="random inputs for regularization")
    verify.add_argument("--max-weight", type=int, default=None, dest="max_weight")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--letters", default="2,3,5/2")
    verify.add_argument("--tol", type=_TOLERANCE, default=1e-5)
    verify.add_argument("--quad-tol", type=_TOLERANCE, default=default_tol, dest="quad_tol", help="quadrature tolerance (HSW_TOL)")

    relations = sub.add_parser("relations", help="emit zeta-value relations at a weight")
    relations.add_argument("--weight", type=int, required=True)
    relations.add_argument("--format", choices=["text", "json"], default="text")
    relations.add_argument("--mzv-n", type=_CUTOFF, default=default_mzv_n, dest="mzv_n", help="zeta sum cutoff (HSW_MZV_N)")

    ev = sub.add_parser("eval", help="parse and evaluate a polynomial expression")
    ev.add_argument("expr")
    ev.add_argument("--mode", choices=["symbolic", "zst", "znum"], default="symbolic")
    ev.add_argument("--mzv-n", type=_CUTOFF, default=default_mzv_n, dest="mzv_n", help="zeta sum cutoff (HSW_MZV_N)")
    ev.add_argument("--tol", type=_TOLERANCE, default=default_tol, help="quadrature tolerance (HSW_TOL)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.max_weight is None:
                args.max_weight = 5 if args.theorem == "regularization" else 2
            return _cmd_verify(parser, args)
        if args.command == "relations":
            return _cmd_relations(parser, args)
        return _cmd_eval(parser, args)
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the stream; not a failure.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
