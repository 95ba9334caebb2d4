"""Harmonic regularization: rewriting arbitrary elements over admissible words.

A word is *admissible* (:func:`is_admissible`) when it is empty or neither
starts with the zero letter nor ends with the unit letter; admissible words
span a subalgebra closed under the harmonic product.  Every element of the
full algebra can be written uniquely as a polynomial in two central symbols

    S  (standing for e_0)   and   T  (standing for e_1)

with admissible coefficients; :func:`z_st` computes that normal form
constructively:

* leading zero letters peel off by concatenation (``strip_e0``), because
  ``e_0^m * w = e_0^m w`` for the harmonic product;
* trailing unit letters are removed (``reg_t``) in one worklist pass: for
  ``w = w' e_1^m`` the product ``w' e_1^{m-1} * e_1`` equals ``m w`` plus
  words that are strictly smaller in the (nonzero-letter count, trailing-run)
  order, so solving for ``w`` and rewriting the largest words first reaches
  each word once and terminates.

Substituting ``S -> e_0`` and ``T -> e_1`` back (:func:`substitute_st`) and
expanding harmonically reproduces the input exactly; the drivers and the test
suite verify this roundtrip and the multiplicativity of the rewriting.
Evaluating at ``S = T = 0`` with a numeric functional on admissible words
gives the regularized evaluation :func:`z_num_with_bound`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterator

from .halg import (
    HPoly,
    LinComb,
    Rational,
    Word,
    combine,
    format_terms,
    format_word,
    harmonic,
    over,
    to_letters,
)
from .memo import term_bounded_cache
from .monoid import MonoidElement, cyclic
from .reporting import CheckResult

__all__ = [
    "RegularizationError",
    "is_admissible",
    "strip_e0",
    "reg_t",
    "RegularizedValue",
    "z_st",
    "substitute_st",
    "exact_sum",
    "z_num_with_bound",
    "verify_regularization",
]

class RegularizationError(ValueError):
    """Input outside the class a regularization step can handle."""


def is_admissible(w: Word) -> bool:
    """Whether ``w`` is empty, or neither starts with the zero letter nor ends with the unit."""
    return not w or (w[0] != 0 and w[-1] != 1)


def _leading_zero_run(w: Word) -> int:
    i = 0
    while i < len(w) and w[i] == 0:
        i += 1
    return i


def _trailing_unit_run(w: Word) -> int:
    i = 0
    while i < len(w) and w[-1 - i] == 1:
        i += 1
    return i


def strip_e0(p: HPoly) -> dict[int, HPoly]:
    """Peel maximal leading zero-letter powers: ``p = sum_s e_0^s (result[s])``."""
    runs = ((_leading_zero_run(w), w, c) for w, c in p.terms.items())
    return combine((s, HPoly.from_word(w[s:], c)) for s, w, c in runs)


_E1_WORD = (1,)


@term_bounded_cache()
def _e1_star_power(t: int) -> HPoly:
    if t == 0:
        return HPoly.one()
    return harmonic(_e1_star_power(t - 1), HPoly.from_word(_E1_WORD))


def _bucket(w: Word) -> tuple[int, int]:
    """The (nonzero-letter count, trailing unit run) key that orders the rewriting."""
    return len(w) - w.count(0), _trailing_unit_run(w)


@term_bounded_cache(size=lambda rule: len(rule[1]))
def _reg_word(w: Word) -> tuple[int, tuple[tuple[Word, int, int, tuple[int, int]], ...]]:
    """One-step rule of a word with no leading zero letters and ``m >= 1`` trailing units.

    ``(m, ((x, dt, k, bucket), ...))`` stands for ``w = sum k * x * e_1^{*dt} / m``,
    each ``x`` in a bucket (:func:`_bucket`) strictly below that of ``w``.  With
    ``base = a_1...a_n`` the word ``w`` without its last letter, it solves

        a_1...a_n * e_1 = a_1...a_n e_1
                          + sum_{a_i != 0} (a_1...a_i a_i a_{i+1}...a_n - a_1...a_i 0 a_{i+1}...a_n)

    (one unfolding of the harmonic recursion) for ``w = base e_1``, which
    appears ``m`` times: doubling a letter of the trailing unit run of ``base``
    gives ``w`` again.  Every other word has fewer nonzero letters, or as many
    and a shorter trailing run.
    """
    m = _trailing_unit_run(w)
    base = w[:-1]
    n = len(base)
    d = n - base.count(0)  # nonzero letters of base
    doubled: dict[Word, int] = {}
    zeros = []
    for i, a in enumerate(base):
        if a == 0:
            continue
        head, tail = base[: i + 1], base[i + 1 :]
        if i <= n - m:
            x = head + (a,) + tail
            doubled[x] = doubled.get(x, 0) - 1
        # the zero letter cuts the trailing unit run of base short
        zeros.append((head + (0,) + tail, 0, 1, (d, min(m - 1, n - 1 - i))))
    return m, (
        (base, 1, 1, (d, m - 1)),
        *((x, 0, k, (d + 1, m - 1)) for x, k in doubled.items()),
        *zeros,
    )


def reg_t(p: HPoly) -> dict[int, HPoly]:
    """Rewrite ``p`` (no leading zero letters) as ``sum_t result[t] * e_1^{*t}``.

    Every coefficient is supported on admissible words; substituting the unit
    letter back for ``T`` reproduces ``p`` exactly.
    """
    for w in p.terms:
        if w and w[0] == 0:
            raise RegularizationError(f"word {format_word(w)} has leading zero letters")
    return {t: h for (_, t), h in z_st(p).terms.items()}


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
                if not is_admissible(w):
                    raise RegularizationError(
                        f"coefficient of S^{s}T^{t} contains inadmissible word {format_word(w)}"
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
    """Normal form of ``p`` as a polynomial in S, T with admissible coefficients.

    One worklist pass: a word with trailing unit letters waits in its bucket
    (:func:`_bucket`) with its coefficients of every ``S^s T^t`` merged, and the
    largest bucket goes first, so each reachable word is rewritten once by its
    rule (:func:`_reg_word`).  Coefficients are ``int`` over one denominator;
    the whole state is scaled only when a bucket's coefficients are not all
    divisible by its run ``m``, and the pass divides only where an output
    term is not integral.
    """
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    done: dict[tuple[int, int], dict[Word, int]] = {}
    pending: dict[tuple[int, int], dict[Word, dict[tuple[int, int], int]]] = {}

    def put(x: Word, bucket: tuple[int, int], st: tuple[int, int], n: int) -> None:
        if bucket[1]:
            slot = pending.setdefault(bucket, {}).setdefault(x, {})
            slot[st] = slot.get(st, 0) + n
        else:
            slot = done.setdefault(st, {})
            slot[x] = slot.get(x, 0) + n

    for w, c in p.terms.items():
        s = _leading_zero_run(w)
        x = w[s:]
        put(x, _bucket(x), (s, 0), c.numerator * (den // c.denominator))
    while pending:
        key = max(pending)
        m = key[1]
        words = pending.pop(key)
        scale = m // math.gcd(m, *(n for slot in words.values() for n in slot.values()))
        if scale > 1:
            den *= scale
            slots = [*done.values(), *words.values()]
            slots += [slot for later in pending.values() for slot in later.values()]
            for slot in slots:
                for k in slot:
                    slot[k] *= scale
        for w, slot in words.items():
            rule = _reg_word(w)[1]
            for (s, t), n in slot.items():
                if n:
                    n //= m
                    for x, dt, k, bucket in rule:
                        put(x, bucket, (s, t + dt), k * n)
    value = RegularizedValue._raw(
        {st: HPoly._raw(h) for st, slot in done.items() if (h := over(slot, den))}
    )
    value.validate()
    return value


def substitute_st(rv: RegularizedValue) -> HPoly:
    """Substitute ``S -> e_0`` and ``T -> e_1`` and expand harmonically."""
    out = HPoly.zero()
    for (s, t), h in rv.terms.items():
        expanded = harmonic(h, _e1_star_power(t))
        if s:
            prefix = (0,) * s
            expanded = HPoly._raw({prefix + w: c for w, c in expanded.terms.items()})
        out = out + expanded
    return out


# Values a word from its letters (:func:`~hsw.halg.to_letters`), which carry the numbers.
Evaluator = Callable[[tuple[MonoidElement, ...]], tuple[float, float]]


_ULP = 1 << 1074  # every finite float is a whole multiple of 2**-1074


def _exact(x: float) -> int:
    """The float ``x`` times ``2**1074``, an integer."""
    n, d = x.as_integer_ratio()
    return n * (_ULP // d)


def exact_sum(terms: dict[Word, Rational], evaluator: Evaluator) -> tuple[Fraction, Fraction]:
    """``sum c * v`` and ``sum |c| * b`` exactly, over ``terms`` ``{w: c}`` with ``(v, b)`` the value of ``w``.

    Both sums are integers at the one scale ``lcm(denominators) * 2**1074``.
    Rounding to float is monotone: where the true sum is 0, as for a relation,
    rounding each sum once keeps ``|value| <= bound``.
    """
    den = math.lcm(*(c.denominator for c in terms.values()))
    value = bound = 0
    for w, c in terms.items():
        v, b = evaluator(to_letters(w))
        n = c.numerator * (den // c.denominator)
        value += n * _exact(v)
        bound += abs(n) * _exact(b)
    return Fraction(value, den * _ULP), Fraction(bound, den * _ULP)


def z_num_with_bound(p: HPoly, evaluator: Evaluator) -> tuple[float, float]:
    """Evaluate at ``S = T = 0``: the admissible constant coefficient, numerically, with a bound."""
    value, bound = exact_sum(z_st(p).coeff(0, 0).terms, evaluator)
    return float(value), float(bound)


def _random_poly(rng: random.Random, alphabet, max_weight: int, max_terms: int = 2) -> HPoly:
    coeff_pool = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        weight = rng.randint(0, max_weight)
        word = tuple(rng.choice(alphabet) for _ in range(weight))
        terms.append((word, rng.choice(coeff_pool)))
    return HPoly(terms)


def verify_regularization(
    count: int = 100, max_weight: int = 5, seed: int = 0
) -> Iterator[CheckResult]:
    """Roundtrip, admissibility, injectivity and multiplicativity on random input."""
    rng = random.Random(seed)
    alphabets = [(0, 1), (0, 1, cyclic(1).id)]
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
