"""Shared sampling helpers for the test suite."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from hsw.halg import HPoly, Word, integer_sum, star_terms, to_letters, to_word
from hsw.monoid import UNIT, ZERO, MonoidElement, cyclic, rational
from hsw.reg import RegularizedValue

ALPHABET_01 = (ZERO, UNIT)
ALPHABET_01Z = (ZERO, UNIT, cyclic(1))
ALPHABET_01ZZ2 = (ZERO, UNIT, cyclic(1), cyclic(2))
ALPHABET_QQ = (ZERO, UNIT, rational(-1), rational(2), rational(-3), rational(Fraction(5, 2)))

COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))


def random_word(rng: random.Random, weight: int, alphabet) -> Word:
    return to_word(rng.choice(alphabet) for _ in range(weight))


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


Letters = tuple[MonoidElement, ...]


@functools.lru_cache(maxsize=None)
def reference_quasi_shuffle(u: Letters, v: Letters) -> dict[Letters, int]:
    """The harmonic product of two words spelled in monoid elements, by the plain recursion.

    An independent check on the id-keyed kernel of ``hsw.halg``: it never
    touches letter ids or the product table, only ``MonoidElement.__mul__``.
    ``e_a w * e_b w' = e_{ab}(w * e_b w' + e_a w * w' - e_0 (w * w'))``.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    ab = u[0] * v[0]
    out: dict[Letters, int] = {}
    for part in (reference_quasi_shuffle(u[1:], v), reference_quasi_shuffle(u, v[1:])):
        for w, c in part.items():
            out[(ab,) + w] = out.get((ab,) + w, 0) + c
    for w, c in reference_quasi_shuffle(u[1:], v[1:]).items():
        out[(ab, ZERO) + w] = out.get((ab, ZERO) + w, 0) - c
    return {w: c for w, c in out.items() if c}


def reference_star_words(u: Word, v: Word) -> HPoly:
    """:func:`reference_quasi_shuffle` of two id words, as a polynomial."""
    product = reference_quasi_shuffle(to_letters(u), to_letters(v))
    return HPoly({to_word(w): c for w, c in product.items()})


def _run(w: Word, letter: int) -> int:
    """Length of the leading run of the letter id ``letter`` in ``w``."""
    return next((i for i, a in enumerate(w) if a != letter), len(w))


@functools.lru_cache(maxsize=None)
def _reference_reg_word(w: Word) -> tuple[int, tuple[tuple[int, dict[Word, int]], ...]]:
    """``(den, ((t, h), ...))``: ``w = sum_t (h / den) * e_1^{*t}``, by the per-word recursion.

    ``base * e_1 = m w + rest`` with ``m`` the trailing unit run of ``w`` and
    ``base`` the word without its last letter; every word of ``rest`` is
    smaller, so ``w = (base * e_1 - rest) / m`` recurses down to admissible words.
    """
    m = _run(w[::-1], UNIT.id)
    if m == 0:
        return 1, ((0, {w: 1}),)
    base = w[:-1]
    sources = [(1, 1, _reference_reg_word(base))] + [
        (-c, 0, _reference_reg_word(word))
        for word, c in star_terms(base, UNIT.id).items()
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
        s = _run(w, ZERO.id)
        den, parts = _reference_reg_word(w[s:])
        for t, h in parts:
            groups.setdefault((s, t), []).append((Fraction(c) / den, h))
    return RegularizedValue({st: integer_sum(parts) for st, parts in groups.items()})
