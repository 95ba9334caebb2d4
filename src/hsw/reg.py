"""Harmonic regularization: rewriting arbitrary elements over admissible words.

A word is *admissible* (class ``H0``) when it is empty or neither starts with
the zero letter nor ends with the unit letter; admissible words span a
subalgebra closed under the harmonic product.  Allowing trailing unit-letter
powers on admissible words gives the intermediate class ``H1``.  Every
element of the full algebra can be written uniquely as a polynomial in two
central symbols

    S  (standing for e_0)   and   T  (standing for e_1)

with admissible coefficients; :func:`z_st` computes that normal form
constructively:

* leading zero letters peel off by concatenation (``strip_e0``), because
  ``e_0^m * w = e_0^m w`` for the harmonic product;
* trailing unit letters are removed recursively (``reg_t``): for
  ``w = w' e_1^m`` the product ``w' e_1^{m-1} * e_1`` equals ``m w`` plus
  words that are strictly smaller in the (nonzero-letter count, trailing-run)
  order, so solving for ``w`` terminates.

Substituting ``S -> e_0`` and ``T -> e_1`` back (:func:`substitute_st`) and
expanding harmonically reproduces the input exactly; the drivers and the test
suite verify this roundtrip and the multiplicativity of the rewriting.
Evaluating at ``S = T = 0`` with a numeric functional on admissible words
gives the regularized evaluation :func:`z_num`.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from fractions import Fraction
from typing import Callable, Iterator

from .halg import (
    HPoly,
    LinComb,
    Word,
    combine,
    format_terms,
    format_word,
    harmonic,
    star_words,
)
from .monoid import UNIT, ZERO, cyclic
from .reporting import CheckResult

__all__ = [
    "WordClass",
    "RegularizationError",
    "classify",
    "strip_e0",
    "reg_t",
    "RegularizedValue",
    "z_st",
    "substitute_st",
    "z_num",
    "z_num_with_bound",
    "verify_regularization",
]

class RegularizationError(ValueError):
    """Input outside the class a regularization step can handle."""


class WordClass(enum.Enum):
    H0 = "h0"
    H1_NOT_H0 = "h1-not-h0"
    GENERAL = "general"


def classify(w: Word) -> WordClass:
    """Admissibility class of a word.

    ``H0``: empty, or first letter nonzero and last letter not the unit.
    ``H1_NOT_H0``: first letter nonzero, trailing unit letters present.
    ``GENERAL``: leading zero letters present.
    """
    if not w:
        return WordClass.H0
    if w[0].is_zero:
        return WordClass.GENERAL
    return WordClass.H1_NOT_H0 if w[-1].is_unit else WordClass.H0


def _leading_zero_run(w: Word) -> int:
    i = 0
    while i < len(w) and w[i].is_zero:
        i += 1
    return i


def _trailing_unit_run(w: Word) -> int:
    i = 0
    while i < len(w) and w[-1 - i].is_unit:
        i += 1
    return i


def strip_e0(p: HPoly) -> dict[int, HPoly]:
    """Peel maximal leading zero-letter powers: ``p = sum_s e_0^s (result[s])``."""
    runs = ((_leading_zero_run(w), w, c) for w, c in p.terms.items())
    return combine((s, HPoly.from_word(Word(w[s:]), c)) for s, w, c in runs)


_E1_WORD = Word((UNIT,))


@functools.lru_cache(maxsize=None)
def _e1_star_power(t: int) -> HPoly:
    if t == 0:
        return HPoly.one()
    return harmonic(_e1_star_power(t - 1), HPoly.from_word(_E1_WORD))


@functools.lru_cache(maxsize=None)
def _reg_word(w: Word) -> tuple[tuple[int, HPoly], ...]:
    """Unit-power coefficients of a word with no leading zero letters."""
    if w and w[0].is_zero:
        raise RegularizationError(f"word {w} has leading zero letters")
    m = _trailing_unit_run(w)
    if m == 0:
        return ((0, HPoly.from_word(w)),)
    base = Word(w[:-1])
    # base * e_1 = m*w + rest, where every word of rest is strictly smaller
    # in the (nonzero-count, trailing-run) order.
    product = star_words(base, _E1_WORD)
    rest = product - HPoly.from_word(w, m)
    lifted = [(t + 1, h) for t, h in _reg_word(base)]
    lowered = [(t, h * -c) for word, c in rest.terms.items() for t, h in _reg_word(word)]
    inv_m = Fraction(1, m)
    return tuple(sorted((t, h * inv_m) for t, h in combine(lifted + lowered).items()))


def reg_t(p: HPoly) -> dict[int, HPoly]:
    """Rewrite ``p`` (no leading zero letters) as ``sum_t result[t] * e_1^{*t}``.

    Every coefficient is supported on admissible words; substituting the unit
    letter back for ``T`` reproduces ``p`` exactly.
    """
    return combine((t, h * c) for w, c in p.terms.items() for t, h in _reg_word(w))


def _st_text(s: int, t: int) -> str:
    """``S^2*T`` for the exponents ``(2, 1)``; empty for ``(0, 0)``."""
    parts = []
    if s:
        parts.append("S" if s == 1 else f"S^{s}")
    if t:
        parts.append("T" if t == 1 else f"T^{t}")
    return "*".join(parts)


class RegularizedValue(LinComb):
    """Polynomial in the central symbols S, T with admissible coefficients.

    ``terms`` maps the exponents ``(s, t)`` to the coefficient of ``S^s T^t``.
    """

    __slots__ = ()

    _ONE_KEY = (0, 0)

    @staticmethod
    def _key(key) -> tuple[int, int]:
        s, t = key
        if s < 0 or t < 0:
            raise ValueError("S/T exponents must be non-negative")
        return (s, t)

    @staticmethod
    def _coefficient(h) -> HPoly:
        return h if isinstance(h, HPoly) else HPoly.rational(h)

    def coeff(self, s: int, t: int) -> HPoly:
        return self.terms.get((s, t), HPoly.zero())

    def validate(self) -> None:
        """Assert the admissibility invariant on every coefficient."""
        for (s, t), h in self.terms.items():
            for w in h.terms:
                if classify(w) is not WordClass.H0:
                    raise RegularizationError(
                        f"coefficient of S^{s}T^{t} contains inadmissible word {w}"
                    )

    def __mul__(self, other):
        """Product: exponents add, coefficients multiply harmonically; a rational scales."""
        if not isinstance(other, RegularizedValue):
            return LinComb.__mul__(self, other)
        return self._raw(combine(
            ((s1 + s2, t1 + t2), harmonic(h1, h2))
            for (s1, t1), h1 in self.terms.items()
            for (s2, t2), h2 in other.terms.items()
        ))

    def __str__(self) -> str:
        keys = sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True)
        return format_terms(
            (c, "*".join(filter(None, (format_word(w) if w else "", _st_text(s, t)))))
            for s, t in keys
            for w, c in self.terms[(s, t)].sorted_terms()
        )


def z_st(p: HPoly) -> RegularizedValue:
    """Normal form of ``p`` as a polynomial in S, T with admissible coefficients."""
    runs = ((_leading_zero_run(w), w, c) for w, c in p.terms.items())
    value = RegularizedValue._raw(combine(
        ((s, t), h * c) for s, w, c in runs for t, h in _reg_word(Word(w[s:]))
    ))
    value.validate()
    return value


def substitute_st(rv: RegularizedValue) -> HPoly:
    """Substitute ``S -> e_0`` and ``T -> e_1`` and expand harmonically."""
    out = HPoly.zero()
    for (s, t), h in rv.terms.items():
        expanded = harmonic(h, _e1_star_power(t))
        if s:
            prefix = (ZERO,) * s
            expanded = HPoly({Word(prefix + w): c for w, c in expanded.terms.items()})
        out = out + expanded
    return out


Evaluator = Callable[[Word], tuple[float, float]]


def z_num_with_bound(p: HPoly, evaluator: Evaluator) -> tuple[float, float]:
    """Evaluate at ``S = T = 0``: the admissible constant coefficient, numerically."""
    constant = z_st(p).coeff(0, 0)
    if constant.is_zero:
        return 0.0, 0.0
    values = []
    bounds = []
    for w, c in constant.terms.items():
        v, b = evaluator(w)
        values.append(float(c) * v)
        bounds.append(abs(float(c)) * b)
    return math.fsum(values), math.fsum(bounds)


def z_num(p: HPoly, evaluator: Evaluator) -> float:
    """The regularized numeric evaluation (value only; see ``z_num_with_bound``)."""
    return z_num_with_bound(p, evaluator)[0]


def _random_poly(rng: random.Random, alphabet, max_weight: int, max_terms: int = 2) -> HPoly:
    coeff_pool = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        weight = rng.randint(0, max_weight)
        word = Word(tuple(rng.choice(alphabet) for _ in range(weight)))
        terms.append((word, rng.choice(coeff_pool)))
    return HPoly(terms)


def verify_regularization(
    count: int = 100, max_weight: int = 5, seed: int = 0
) -> Iterator[CheckResult]:
    """Roundtrip, admissibility, injectivity and multiplicativity on random input."""
    rng = random.Random(seed)
    alphabets = [(ZERO, UNIT), (ZERO, UNIT, cyclic(1))]
    for idx in range(count):
        alphabet = alphabets[idx % len(alphabets)]
        p = _random_poly(rng, alphabet, max_weight)
        rv = z_st(p)
        ok = substitute_st(rv) == p and (rv.is_zero == p.is_zero)
        try:
            rv.validate()
        except RegularizationError:
            ok = False
        yield CheckResult(
            item=f"roundtrip #{idx}",
            passed=ok,
            data={} if ok else {"input": str(p), "normal_form": str(rv)},
        )
    for idx in range(count // 2):
        alphabet = alphabets[idx % len(alphabets)]
        u = _random_poly(rng, alphabet, max_weight, max_terms=1)
        v = _random_poly(rng, alphabet, max_weight, max_terms=1)
        ok = z_st(harmonic(u, v)) == z_st(u) * z_st(v)
        yield CheckResult(
            item=f"homomorphism #{idx}",
            passed=ok,
            data={} if ok else {"u": str(u), "v": str(v)},
        )
