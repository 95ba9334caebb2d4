"""The four workloads: which CLI calls a pass makes, and how each output is checked.

A pass is a list of :class:`Call`; :func:`build` makes it from the workload
name, the seed, the scale (``full`` for measurement, ``tiny`` for the
self-test) and the reference file.  :func:`check` turns one call's captured
output into (items attempted, items failed, first failure).

Seeded draws come from slots recorded in ``reference.json`` by
``make_reference.py``.  Each slot holds a few inputs of nearly equal cold-cache
cost, and the slots' costs follow the quantiles of the cost of random inputs,
heavy tail included.  A pass takes one input from every slot, so each seed
runs different inputs with the same cost profile.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

NAMES = ("algebra", "regularize", "relations", "quadrature")

# The unit-tail family run through ``eval --mode zst``: its cost grows about
# 3x per added unit letter, which a random draw only exposes now and then.
UNIT_TAIL_FAMILY = (
    "e[1]e[1]e[1]e[1]*e[1]e[1]e[1]e[1]e[1]",
    "e[1]e[1]e[1]e[1]e[1]*e[1]e[1]e[1]e[1]e[1]",
    "e[1]e[1]e[1]e[1]e[1]*e[1]e[1]e[1]e[1]e[1]e[1]",
    "e[z]e[1]e[1]*e[z]e[1]e[1]e[z]e[1]e[1]",
)
UNIT_TAIL_FAMILY_TINY = ("e[1]e[1]*e[1]e[1]e[1]",)

# Random words of the algebra slots: weights 5..8 over {0, 1, z, z^2}.
ALGEBRA_LETTERS = ("0", "1", "z", "z^2")
ALGEBRA_WEIGHTS = (5, 8)
ALGEBRA_SLOTS = 16

# Arguments of each randomized regularization command; its slots hold CLI seeds.
REGULARIZE_COUNT = 2
REGULARIZE_MAX_WEIGHT = 6
REGULARIZE_SLOTS = 48

RELATION_WEIGHTS = (2, 4, 6, 8, 10, 12)
QUADRATURE_LETTERS = ("2", "3", "5/2", "-2", "7/3")


@dataclass
class Call:
    """One ``hsw.cli.main(argv)`` call and what its output must satisfy."""

    argv: list[str]
    kind: str  # "verify", "relations" or "eval"
    expect: dict = field(default_factory=dict)


def slot_params() -> dict:
    """The generator settings the recorded slots belong to."""
    return {
        "algebra_letters": list(ALGEBRA_LETTERS),
        "algebra_weights": list(ALGEBRA_WEIGHTS),
        "algebra_slots": ALGEBRA_SLOTS,
        "regularize_count": REGULARIZE_COUNT,
        "regularize_max_weight": REGULARIZE_MAX_WEIGHT,
        "regularize_slots": REGULARIZE_SLOTS,
    }


def load_reference(path: Path | str | None = None) -> dict:
    with open(path or REFERENCE) as fh:
        reference = json.load(fh)
    if reference.get("params") != slot_params():
        raise ValueError("reference.json was recorded with other settings; rerun make_reference.py")
    return reference


def draw(rng: random.Random, slots: list[list[dict]]) -> list[dict]:
    """One entry from every slot, in slot order.

    A fixed order keeps the caches a pass shares between its commands in the
    same state from seed to seed.
    """
    return [rng.choice(slot) for slot in slots]


def _verify(theorem: str, *args: str, items: int | None = None) -> Call:
    expect = {} if items is None else {"items": items}
    return Call(["verify", theorem, *args, "--format", "json"], "verify", expect)


def _eval(expr: str, mode: str, reference: dict) -> Call:
    key = f"{mode} {expr}"
    if key not in reference["eval"]:
        raise KeyError(f"no reference output recorded for eval {key!r}")
    return Call(["eval", expr, "--mode", mode], "eval", dict(reference["eval"][key]))


def harmonic_hom_items(letters: int, max_weight: int) -> int:
    """Item count of ``verify harmonic-hom``: unordered pairs of words of weight <= 2."""
    words = letters + (letters * letters if max_weight >= 2 else 0)
    return words * (words + 1) // 2


def build(name: str, seed: int, scale: str, reference: dict) -> list[Call]:
    """The calls of one pass of workload ``name``."""
    rng = random.Random(f"{name}:{seed}")
    tiny = scale == "tiny"
    if name == "algebra":
        if tiny:
            calls = [
                _verify("coincidence", "--k", "2", "--order", "6"),
                _verify("addition", "--max-degree", "4"),
                _verify("pythagoras", "--max-N", "2"),
            ]
            picks = [rng.choice(slot) for slot in reference["algebra_slots"][:3]]
        else:
            calls = [
                _verify("coincidence", "--k", str(k), "--order", "16") for k in (1, 2, 3)
            ]
            calls.append(_verify("addition", "--max-degree", "16"))
            calls.append(_verify("pythagoras", "--max-N", "6"))
            picks = draw(rng, reference["algebra_slots"])
        calls += [_eval(e["expr"], "symbolic", reference) for e in picks]
        return calls
    if name == "regularize":
        if tiny:
            seeds = [rng.randrange(1000)]
            count, max_weight, family = "4", "4", UNIT_TAIL_FAMILY_TINY
        else:
            seeds = [e["seed"] for e in draw(rng, reference["regularize_slots"])]
            count, max_weight = str(REGULARIZE_COUNT), str(REGULARIZE_MAX_WEIGHT)
            family = UNIT_TAIL_FAMILY
        calls = [
            _verify(
                "regularization", "--count", count, "--max-weight", max_weight,
                "--seed", str(s),
            )
            for s in seeds
        ]
        calls += [_eval(expr, "zst", reference) for expr in family]
        return calls
    if name == "relations":
        weights = list(RELATION_WEIGHTS[:3] if tiny else RELATION_WEIGHTS)
        rng.shuffle(weights)
        return [
            Call(["relations", "--weight", str(w), "--format", "json"], "relations")
            for w in weights
        ]
    if name == "quadrature":
        letters = list(QUADRATURE_LETTERS[:2] if tiny else QUADRATURE_LETTERS)
        rng.shuffle(letters)
        max_weight = 1 if tiny else 2
        return [
            _verify(
                # "=" keeps argparse from reading a leading "-2" as an option.
                "harmonic-hom", f"--letters={','.join(letters)}",
                "--max-weight", str(max_weight),
                items=harmonic_hom_items(len(letters), max_weight),
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:/\d+)?")
_SIGNED_SPLIT = re.compile(r" ([+-]) ")


def parse_terms(text: str) -> dict[str, Fraction]:
    """Signed-term text (``2*s[1,2]s[1,2] - s[1,4]``, ``1/2*T^2 + ...``) as monomial -> coefficient.

    The monomial is everything after the coefficient factor; term order in
    the text does not matter.
    """
    text = text.strip()
    if text == "0":
        return {}
    parts = _SIGNED_SPLIT.split(text)
    bodies = parts[0::2]
    signs = ["+", *parts[1::2]]
    if bodies[0].startswith("-"):
        signs[0] = "-"
        bodies[0] = bodies[0][1:]
    out: dict[str, Fraction] = {}
    for sign, body in zip(signs, bodies):
        head, star, rest = body.partition("*")
        if _NUMBER.fullmatch(body):
            coeff, mono = Fraction(body), "1"
        elif star and _NUMBER.fullmatch(head):
            coeff, mono = Fraction(head), rest
        else:
            coeff, mono = Fraction(1), body
        if not mono:
            raise ValueError(f"malformed term {body!r}")
        out[mono] = out.get(mono, Fraction(0)) + (-coeff if sign == "-" else coeff)
    return {m: c for m, c in out.items() if c}


def digest(text: str) -> dict:
    """Term count and SHA-256 of the sorted ``monomial coefficient`` lines."""
    terms = parse_terms(text)
    canon = "\n".join(sorted(f"{m} {c}" for m, c in terms.items()))
    return {"terms": len(terms), "sha256": hashlib.sha256(canon.encode()).hexdigest()}


def check(call: Call, rc: int | None, lines: list[str]) -> tuple[int, int, str]:
    """(items attempted, items failed, first failure) for one call's output.

    A verification that yields no item counts as one failed item, so an empty
    run cannot pass.  ``relations`` may yield none at a weight; the pass as a
    whole must still yield some (see ``child.py``).
    """
    attempted = failed = 0
    problems: list[str] = []

    def fail(why: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(why)

    if call.kind == "eval":
        attempted = 1
        if rc != 0 or len(lines) != 1:
            fail(f"exit {rc}, {len(lines)} lines")
        else:
            try:
                got = digest(lines[0])
            except ValueError as exc:
                got = {"error": str(exc)}
            if got != {"terms": call.expect["terms"], "sha256": call.expect["sha256"]}:
                fail(f"output differs from reference ({got})")
    else:
        summary = None
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                attempted += 1
                fail(f"unparsable line {line[:80]!r}")
                continue
            kind = record.get("type")
            if kind == "summary":
                summary = record
            elif kind == "item":
                attempted += 1
                if record.get("status") != "pass":
                    fail(f"item {record.get('item')} failed")
            elif kind == "relation":
                attempted += 1
                if not abs(record["residual"]) <= record["bound"]:
                    fail(f"relation {record['relation']}: |residual| > bound")
            else:
                attempted += 1
                fail(f"unexpected record {line[:80]!r}")
        if call.kind == "verify":
            if summary is None or summary.get("status") != "pass":
                fail("summary missing or not pass")
            elif summary.get("items") != attempted:
                fail("summary item count differs from the records")
            if "items" in call.expect and attempted != call.expect["items"]:
                fail(f"{attempted} items, expected {call.expect['items']}")
            if attempted == 0:
                attempted = 1
                fail("no items")
        if rc != 0:
            fail(f"exit code {rc}")
    return attempted, min(failed, attempted), problems[0] if problems else ""
