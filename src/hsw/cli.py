"""Command-line front end.

Three verbs:

* ``verify {coincidence,addition,pythagoras,regularization,harmonic-hom}``
  runs a theorem driver and streams one line-delimited record per checked
  item (text or JSON), exiting 0 on success and 1 on any failure;
* ``relations --weight W`` emits each distinct linear relation among
  multiple zeta values that the addition/Pythagoras coefficients of the given
  even weight induce, together with its numeric residual and error bound;
* ``eval EXPR`` parses a polynomial expression and prints it normalized
  (``symbolic``), in S/T normal form (``zst``) or numerically (``znum``).

Defaults honour the environment variables ``HSW_ORDER`` and ``HSW_TOL``;
explicit flags win.  They are read on every call of :func:`main`, which keeps
one parser per pair of values (:func:`build_parser`).  A variable's value is
checked like the flag it stands for, so a bad one exits 2 unless that flag is
given.  Exit codes: 0 pass, 1 verification failure (a run with no items fails
too), 2 usage or input error (also a word no oracle evaluates to the requested
tolerance, and an expression nested too deeply or with too long a word to
evaluate).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from .halg import HPoly, ParseError, format_poly, format_terms, parse_poly
from .monoid import UNIT, parse_element
from .mzveval import H0Evaluator, QuadratureError, UnsupportedWordError, verify_harmonic_hom, word_to_mzv
from .reg import Evaluator, exact_sum, verify_regularization, z_num_with_bound, z_st
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
MAX_RELATION_WEIGHT = 16


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


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], Any], requirement: str):
    """An argparse ``type`` that also checks the converted value.

    ``ok`` rejects a value by returning something false or by raising
    ``ValueError``.  argparse passes a string default through ``type`` too,
    whenever the flag is absent; that is how a bad ``HSW_*`` value exits 2
    like a bad flag.
    """

    def parse(text: str):
        try:
            value = convert(text)
            accepted = ok(value)
        except (ValueError, ZeroDivisionError):
            accepted = False
        if not accepted:
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


def _int_range(low: int, high: int):
    return _checked(int, lambda n: low <= n <= high, f"an integer from {low} to {high}")


def _letters(text: str) -> list[Fraction]:
    """The rationals of a comma-separated ``--letters`` list, each a valid letter."""
    letters = [Fraction(part) for part in text.split(",") if part.strip()]
    if not letters or any(abs(q) < 1 or q == 1 for q in letters):
        raise ValueError(f"not a list of letters: {text!r}")
    return letters


_ORDER = _int_range(0, MAX_ORDER)
_COUNT = _checked(int, lambda n: n >= 1, "a positive integer")
_TOLERANCE = _checked(float, lambda x: 0 < x < math.inf, "a finite positive number")
_WEIGHT = _checked(
    int, lambda w: 2 <= w <= MAX_RELATION_WEIGHT and w % 2 == 0, f"an even integer from 2 to {MAX_RELATION_WEIGHT}"
)
# ``--z`` and ``--letters`` keep the text as typed: the JSON params echo it.
_ELEMENT = _checked(str, parse_element, "an element literal: 0, 1, z, z^n or a rational of modulus >= 1")
_LETTERS = _checked(str, _letters, "a non-empty comma-separated list of rationals of modulus >= 1 other than 1")


def _emit_items(
    theorem: str,
    params: dict,
    items: Iterable[CheckResult],
    fmt: str,
) -> VerificationReport:
    collected: list[CheckResult] = []
    start = time.perf_counter()
    for item in items:
        collected.append(item)
        if fmt == "json":
            record = {"type": "item", "theorem": theorem}
            record.update(item.as_dict())
            print(json.dumps(record), flush=True)
        else:
            status = "PASS" if item.passed else "FAIL"
            detail = f"  {item.detail}" if item.detail else ""
            print(f"[{status}] {theorem}: {item.item}{detail}", flush=True)
    report = VerificationReport(theorem, params, collected, time.perf_counter() - start)
    if fmt == "json":
        print(json.dumps(report.summary_dict()), flush=True)
    else:
        print(
            f"RESULT {theorem}: {'pass' if report.passed else 'fail'} "
            f"({len(collected)} items, {report.wall_time:.2f}s)",
            flush=True,
        )
    return report


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def _relation(poly: HPoly) -> tuple[Fraction, list[tuple[int, tuple[int, ...]]]]:
    """The zeta relation of a nonzero ``poly``: a factor, and the terms ``(c, index)`` of ``factor * poly``.

    The factor makes the coefficients coprime integers, the first term
    (deepest, then largest index) positive; ``I(w) = (-1)^depth zeta(index)``.
    """
    indexed = sorted(
        ((word_to_mzv(w), c) for w, c in poly.terms.items()), key=lambda t: (len(t[0]), t[0]), reverse=True
    )
    # lcm of the denominators over gcd of the numerators: for reduced fractions
    # that is the gcd of the coefficients scaled to integers by the lcm.
    scale = Fraction(
        math.lcm(*(c.denominator for _, c in indexed)), math.gcd(*(c.numerator for _, c in indexed))
    )
    signed = [(-c if len(ks) % 2 else c, ks) for ks, c in indexed]
    if signed[0][0] < 0:
        scale = -scale
    return scale, [(int(c * scale), ks) for c, ks in signed]


def _relation_text(terms: list[tuple[int, tuple[int, ...]]]) -> str:
    zetas = ((c, f"z({','.join(map(str, ks))})" if ks else "") for c, ks in terms)
    return format_terms(zetas) + " = 0"


def relation_records(weight: int, evaluator: Evaluator) -> Iterator[dict]:
    """Distinct zeta-value relations induced by the coefficients of the given even weight.

    The first coefficient that induces a relation names its source."""
    if weight % 2 or weight < 2:
        raise ValueError("weight must be a positive even integer")
    sources: list[tuple[str, list[int], object]] = []
    for i in range(weight + 2):
        j = weight + 1 - i
        sources.append(("addition", [i, j], addition_defect_coeff(i, j)))
    sources.append(("pythagoras", [weight], pythagoras_coeff(weight // 2)))
    seen: set[str] = set()
    for kind, degrees, wp in sources:
        if wp.is_zero:
            continue
        poly = eval_w(wp, UNIT)
        if poly.is_zero:
            continue
        scale, terms = _relation(poly)
        text = _relation_text(terms)
        if text in seen:
            continue
        seen.add(text)
        # Both sums are exact and rounded once, after the scaling.
        residual, bound = exact_sum(poly.terms, evaluator)
        yield {
            "type": "relation",
            "weight": weight,
            "source": kind,
            "degrees": degrees,
            "relation": text,
            "terms": [{"coeff": c, "index": list(ks)} for c, ks in terms],
            "residual": float(residual * scale),
            "bound": float(bound * abs(scale)),
        }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _coincidence(args: argparse.Namespace) -> tuple[dict, Iterator[CheckResult]]:
    z = parse_element(args.z)
    items = chain(
        verify_coincidence(z, k=args.k, max_n=args.max_n, order=args.order),
        verify_reflection_product(z, order=min(args.order, 8)),
    )
    return {"k": args.k, "order": args.order, "max_n": args.max_n, "z": args.z}, items


def _addition(args: argparse.Namespace) -> tuple[dict, Iterator[CheckResult]]:
    items = verify_addition(parse_element(args.z), args.max_degree)
    return {"max_degree": args.max_degree, "z": args.z}, items


def _pythagoras(args: argparse.Namespace) -> tuple[dict, Iterator[CheckResult]]:
    items = verify_pythagoras(parse_element(args.z), args.max_n)
    return {"max_N": args.max_n, "z": args.z}, items


def _regularization(args: argparse.Namespace) -> tuple[dict, Iterator[CheckResult]]:
    items = verify_regularization(args.count, args.max_weight, args.seed)
    return {"count": args.count, "max_weight": args.max_weight, "seed": args.seed}, items


def _harmonic_hom(args: argparse.Namespace) -> tuple[dict, Iterator[CheckResult]]:
    letters = _letters(args.letters)
    items = verify_harmonic_hom(letters, args.max_weight, args.tol, args.quad_tol)
    return {"letters": args.letters, "max_weight": args.max_weight, "tol": args.tol}, items


def _cmd_verify(args: argparse.Namespace) -> int:
    params, items = args.driver(args)
    return 0 if _emit_items(args.theorem, params, items, args.format).passed else 1


def _cmd_relations(args: argparse.Namespace) -> int:
    evaluator = H0Evaluator()
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


def _cmd_eval(args: argparse.Namespace) -> int:
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
    value, bound = z_num_with_bound(poly, H0Evaluator(tol=args.tol))
    print(f"{value:.9f} ± {bound:.2e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser for the current ``HSW_ORDER`` and ``HSW_TOL``.

    One parser is built per pair of values, on first use, and shared by every
    later call with that pair: treat it as read-only.  argparse passes a string
    default through the flag's ``type`` at every parse, so a bad value still
    exits 2 on every call.
    """
    return _parser(os.environ.get("HSW_ORDER"), os.environ.get("HSW_TOL"))


@functools.lru_cache(maxsize=8)
def _parser(order: str | None, tol: str | None) -> argparse.ArgumentParser:
    # Raw strings when set: argparse checks them through the flag's ``type``.
    default_order = DEFAULT_ORDER if order is None else order
    default_tol = 1e-7 if tol is None else tol

    # theorem -> (driver, [(option strings, argparse type, default, help)]):
    # a theorem takes exactly the flags its driver reads.
    theorems = {
        "coincidence": (_coincidence, [
            (["--k"], _int_range(1, 6), 2, "block length"),
            (["--max-n", "--max-N"], _int_range(0, 8), 5, "coefficient identities to check"),
            (["--order"], _ORDER, default_order, "truncation order; HSW_ORDER sets the default"),
            (["--z"], _ELEMENT, "z", "monoid element literal"),
        ]),
        "addition": (_addition, [
            (["--max-degree"], _int_range(0, MAX_ORDER), 9, "largest total degree i+j"),
            (["--z"], _ELEMENT, "z", "monoid element literal"),
        ]),
        "pythagoras": (_pythagoras, [
            (["--max-n", "--max-N"], _int_range(0, 6), 5, "largest coefficient index"),
            (["--z"], _ELEMENT, "z", "monoid element literal"),
        ]),
        "regularization": (_regularization, [
            (["--count"], _COUNT, 100, "number of random inputs"),
            (["--max-weight"], _int_range(0, 8), 5, "largest word weight"),
            (["--seed"], int, 0, "random seed"),
        ]),
        "harmonic-hom": (_harmonic_hom, [
            (["--letters"], _LETTERS, "2,3,5/2", "comma-separated rational letters"),
            (["--max-weight"], _int_range(1, 3), 2, "largest word weight"),
            (["--tol"], _TOLERANCE, 1e-5, "multiplicativity tolerance"),
            (["--quad-tol"], _TOLERANCE, default_tol, "quadrature tolerance; HSW_TOL sets the default"),
        ]),
    }

    parser = argparse.ArgumentParser(
        prog="hsw",
        description="Exact harmonic-algebra trigonometry and zeta-value evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json"], default="text")

    verify = sub.add_parser("verify", help="run a theorem verification")
    by_theorem = verify.add_subparsers(dest="theorem", required=True)
    for theorem, (driver, flags) in theorems.items():
        one = by_theorem.add_parser(
            theorem, parents=[fmt], formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        one.set_defaults(run=_cmd_verify, driver=driver)
        for names, kind, default, text in flags:
            one.add_argument(*names, type=kind, default=default, help=text)

    relations = sub.add_parser("relations", parents=[fmt], help="emit zeta-value relations at a weight")
    relations.set_defaults(run=_cmd_relations)
    relations.add_argument("--weight", type=_WEIGHT, required=True)

    ev = sub.add_parser("eval", help="parse and evaluate a polynomial expression")
    ev.set_defaults(run=_cmd_eval)
    ev.add_argument("expr")
    ev.add_argument("--mode", choices=["symbolic", "zst", "znum"], default="symbolic")
    ev.add_argument("--tol", type=_TOLERANCE, default=default_tol, help="quadrature tolerance (HSW_TOL)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (UnsupportedWordError, QuadratureError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # The parser recurses per parenthesis and the word product per letter.
        print("input error: too deeply nested or too long a word to evaluate", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the stream; not a failure.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
