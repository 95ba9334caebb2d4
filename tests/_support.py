"""Shared sampling helpers for the test suite."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from hsw.halg import HPoly, Word, integer_sum, star_terms
from hsw.monoid import UNIT, ZERO, cyclic, rational
from hsw.reg import RegularizedValue

ALPHABET_01 = (ZERO, UNIT)
ALPHABET_01Z = (ZERO, UNIT, cyclic(1))
ALPHABET_01ZZ2 = (ZERO, UNIT, cyclic(1), cyclic(2))
ALPHABET_QQ = (ZERO, UNIT, rational(-1), rational(2), rational(-3), rational(Fraction(5, 2)))

COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))


def random_word(rng: random.Random, weight: int, alphabet) -> Word:
    return Word(tuple(rng.choice(alphabet) for _ in range(weight)))


def random_poly(
    rng: random.Random,
    max_weight: int,
    alphabet,
    max_terms: int = 2,
) -> HPoly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        weight = rng.randint(0, max_weight)
        terms.append((random_word(rng, weight, alphabet), rng.choice(COEFFS)))
    return HPoly(terms)


@functools.lru_cache(maxsize=None)
def reference_star_words(u: Word, v: Word) -> HPoly:
    """The harmonic product of two words by the plain Fraction recursion.

    An independent check on the integer kernel of ``hsw.halg``:
    ``e_a w * e_b w' = e_{ab}(w * e_b w' + e_a w * w' - e_0 (w * w'))``.
    """
    if not u:
        return HPoly.from_word(v)
    if not v:
        return HPoly.from_word(u)
    ab = u[0] * v[0]
    tail_u = Word(u[1:])
    tail_v = Word(v[1:])
    head = reference_star_words(tail_u, v) + reference_star_words(u, tail_v)
    cross = reference_star_words(tail_u, tail_v)
    out: dict[Word, Fraction] = {}
    for w, c in head.terms.items():
        key = Word((ab,) + w)
        out[key] = out.get(key, Fraction(0)) + c
    for w, c in cross.terms.items():
        key = Word((ab, ZERO) + w)
        out[key] = out.get(key, Fraction(0)) - c
    return HPoly({w: c for w, c in out.items() if c})


def _run(letters, letter) -> int:
    """Length of the leading run of ``letter`` in ``letters``."""
    return next((i for i, a in enumerate(letters) if a is not letter), len(letters))


@functools.lru_cache(maxsize=None)
def _reference_reg_word(w: Word) -> tuple[int, tuple[tuple[int, dict[Word, int]], ...]]:
    """``(den, ((t, h), ...))``: ``w = sum_t (h / den) * e_1^{*t}``, by the per-word recursion.

    ``base * e_1 = m w + rest`` with ``m`` the trailing unit run of ``w`` and
    ``base`` the word without its last letter; every word of ``rest`` is
    smaller, so ``w = (base * e_1 - rest) / m`` recurses down to admissible words.
    """
    m = _run(w[::-1], UNIT)
    if m == 0:
        return 1, ((0, {w: 1}),)
    base = Word(w[:-1])
    sources = [(1, 1, _reference_reg_word(base))] + [
        (-c, 0, _reference_reg_word(word))
        for word, c in star_terms(base, Word((UNIT,))).items()
        if word != w
    ]
    den = math.lcm(*(d for _, _, (d, _) in sources))
    acc: dict[int, dict[Word, int]] = {}
    for factor, shift, (d, parts) in sources:
        for t, h in parts:
            slot = acc.setdefault(t + shift, {})
            for word, n in h.items():
                slot[word] = slot.get(word, 0) + factor * (den // d) * n
    parts = sorted((t, h) for t, slot in acc.items() if (h := {x: n for x, n in slot.items() if n}))
    g = math.gcd(den * m, *(n for _, h in parts for n in h.values()))
    return den * m // g, tuple((t, {x: n // g for x, n in h.items()}) for t, h in parts)


def reference_z_st(p: HPoly) -> RegularizedValue:
    """The S/T normal form by the per-word recursion, an independent check on ``hsw.reg.z_st``."""
    groups: dict[tuple[int, int], list] = {}
    for w, c in p.terms.items():
        s = _run(w, ZERO)
        den, parts = _reference_reg_word(Word(w[s:]))
        for t, h in parts:
            groups.setdefault((s, t), []).append((c / den, h))
    return RegularizedValue({st: integer_sum(parts) for st, parts in groups.items()})
