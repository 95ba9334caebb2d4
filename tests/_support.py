"""Shared sampling helpers for the test suite."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from hsw.halg import HPoly, Word
from hsw.monoid import UNIT, ZERO, cyclic, rational

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
