"""Harmonic regularization: rewriting arbitrary elements over admissible words.

A word is *admissible* (:func:`is_admissible`) when it is empty or neither
starts with the zero letter nor ends with the unit letter; admissible words
span a subalgebra closed under the harmonic product.  Every element of the
full algebra can be written uniquely as a polynomial in two central symbols

    S  (standing for e_0)   and   T  (standing for e_1)

with admissible coefficients; :func:`z_st` computes that normal form
constructively, in one pass:

* a word's leading zero letters (:func:`_leading_zero_run`) become its power
  of ``S``, because ``e_0^m * w = e_0^m w`` for the harmonic product;
* a worklist removes trailing unit letters: for ``w = w' e_1^m`` the product
  ``w' e_1^{m-1} * e_1`` equals ``m w`` plus words that are strictly smaller
  in the (nonzero-letter count, trailing-run) order, so solving for ``w`` and
  rewriting the largest words first reaches each word once and terminates.

:func:`strip_e0` (the ``S`` split) and :func:`reg_t` (the ``T`` form) are
public views of the single steps.

Substituting ``S -> e_0`` and ``T -> e_1`` back (:func:`substitute_st`) and
expanding harmonically reproduces the input exactly; the drivers and the test
suite verify this roundtrip and the multiplicativity of the rewriting.
Evaluating at ``S = T = 0`` with a numeric functional on admissible words
gives the regularized evaluation :func:`z_num_with_bound`.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator

from .halg import (
    HPoly,
    LinComb,
    Rational,
    Word,
    _SignedSum,
    format_word,
    harmonic,
    over,
    power_text,
    sum_by_key,
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
    "exact_floats",
    "exact_rows",
    "exact_sum",
    "z_num_with_bound",
    "verify_regularization",
]

class RegularizationError(ValueError):
    """Input outside the class a regularization step can handle."""


def is_admissible(w: Word) -> bool:
    """Whether ``w`` is empty, or neither starts with the zero letter nor ends with the unit."""
    return not w or (w[0] != "\0" and w[-1] != "\1")


def _leading_zero_run(w: Word) -> int:
    return len(w) - len(w.lstrip("\0"))


def strip_e0(p: HPoly) -> dict[int, HPoly]:
    """Peel maximal leading zero-letter powers: ``p = sum_s e_0^s (result[s])``."""
    runs = ((_leading_zero_run(w), w, c) for w, c in p.terms.items())
    return sum_by_key((s, HPoly.from_word(w[s:], c)) for s, w, c in runs)


@term_bounded_cache()
def _e1_star_power(t: int) -> HPoly:
    if t == 0:
        return HPoly.one()
    return harmonic(_e1_star_power(t - 1), HPoly.from_word("\1"))


def _bucket(w: Word) -> tuple[int, int]:
    """The (nonzero-letter count, trailing unit run) key that orders the rewriting."""
    return len(w) - w.count("\0"), len(w) - len(w.rstrip("\1"))


# Stores nothing: a call counter for the benchmark's cache_info/cache_clear hooks,
# until hsw counts its own work.
@functools.lru_cache(maxsize=0)
def _reg_word(w: Word) -> tuple[Word, tuple[Word, ...], tuple[tuple[Word, ...], ...]]:
    """One-step rule of a word with no leading zero letters and ``m >= 1`` trailing units.

    ``(base, doubled, zeros)`` stands for ``w = (base * e_1 - sum doubled +
    sum zeros) / m``, solved from

        a_1...a_n * e_1 = a_1...a_n e_1
                          + sum_{a_i != 0} (a_1...a_i a_i a_{i+1}...a_n - a_1...a_i 0 a_{i+1}...a_n)

    (one unfolding of the harmonic recursion) with ``base = a_1...a_n``, the
    word ``w`` without its last letter.  ``w = base e_1`` appears ``m`` times,
    as doubling a letter of base's unit run gives ``w``; any other doubled
    word repeats once per letter that makes it.  From ``w``'s bucket
    (:func:`_bucket`) ``(d, m)``, base goes to ``(d-1, m-1)``, doubled words to
    ``(d, m-1)`` and ``zeros[r]``, the zero words with ``r`` trailing units, to ``(d-1, r)``.
    """
    stem = w.rstrip("\1")
    base = w[:-1]
    doubled = []
    zeros = []
    for i, a in enumerate(stem):
        if a != "\0":
            head, tail = base[: i + 1], base[i + 1 :]
            doubled.append(head + a + tail)
            zeros.append(head + "\0" + tail)
    n = len(base)
    tails = [(base[: n - r] + "\0" + base[n - r :],) for r in range(n - len(stem))]
    return base, tuple(doubled), (*tails, tuple(zeros))


def reg_t(p: HPoly) -> dict[int, HPoly]:
    """Rewrite ``p`` (no leading zero letters) as ``sum_t result[t] * e_1^{*t}``.

    Every coefficient is supported on admissible words; substituting the unit
    letter back for ``T`` reproduces ``p`` exactly.
    """
    for w in p.terms:
        if w and w[0] == "\0":
            raise RegularizationError(f"word {format_word(w)} has leading zero letters")
    return {t: h for (_, t), h in z_st(p).terms.items()}


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
        return self._raw(sum_by_key(
            ((s1 + s2, t1 + t2), harmonic(h1, h2))
            for (s1, t1), h1 in self.terms.items()
            for (s2, t2), h2 in other.terms.items()
        ))

    def __str__(self) -> str:
        out = _SignedSum()
        for k in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True):
            out.add_poly(self.terms[k], power_text(zip("ST", k)))
        return str(out)


def z_st(p: HPoly) -> RegularizedValue:
    """Normal form of ``p`` as a polynomial in S, T with admissible coefficients.

    One worklist pass: a word with trailing unit letters waits in its bucket
    (:func:`_bucket`) under its ``S^s T^t``, and the largest bucket goes
    first, so each reachable word is rewritten once by its rule
    (:func:`_reg_word`), into maps looked up once per ``S^s T^t``.  Rules
    are not stored: a pass never asks for one twice, and a rule memo shared
    between passes cost more time and memory than it saved.
    Coefficients are ``int`` over one denominator; the state is scaled only
    when a bucket's coefficients are not all divisible by its run ``m``, and
    the pass divides only where an output term is not integral.
    """
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    done: dict[tuple[int, int], dict[Word, int]] = {}
    pending: dict[tuple[int, int], dict[tuple[int, int], dict[Word, int]]] = {}

    def target(bucket: tuple[int, int], st: tuple[int, int]) -> dict[Word, int]:
        return (pending.setdefault(bucket, {}) if bucket[1] else done).setdefault(st, {})

    for w, c in p.terms.items():
        s = _leading_zero_run(w)
        x = w[s:]
        slot = target(_bucket(x), (s, 0))
        slot[x] = slot.get(x, 0) + c.numerator * (den // c.denominator)
    while pending:
        d, m = key = max(pending)
        groups = pending.pop(key)
        scale = m // math.gcd(m, *(n for words in groups.values() for n in words.values()))
        if scale > 1:
            den *= scale
            for maps in (done, groups, *pending.values()):
                for slot in maps.values():
                    for x in slot:
                        slot[x] *= scale
        for (s, t), words in groups.items():
            to_base = target((d - 1, m - 1), (s, t + 1))
            to_doubled = target((d, m - 1), (s, t))
            to_zeros = [target((d - 1, r), (s, t)) for r in range(m)]
            for w, n in words.items():
                base, doubled, zeros = _reg_word(w)
                if n:
                    n //= m
                    to_base[base] = to_base.get(base, 0) + n
                    for x in doubled:
                        to_doubled[x] = to_doubled.get(x, 0) - n
                    for slot, xs in zip(to_zeros, zeros):
                        for x in xs:
                            slot[x] = slot.get(x, 0) + n
    value = RegularizedValue._raw(
        {st: HPoly._raw(h) for st, slot in done.items() if (h := over(slot, den))}
    )
    value.validate()
    return value


def substitute_st(rv: RegularizedValue) -> HPoly:
    """Substitute ``S -> e_0`` and ``T -> e_1`` and expand harmonically."""
    expanded = (("\0" * s, harmonic(h, _e1_star_power(t))) for (s, t), h in rv.terms.items())
    return HPoly.sum(
        HPoly._raw({prefix + w: c for w, c in p.terms.items()}) if prefix else p
        for prefix, p in expanded
    )


# Values a word from its letters (:func:`~hsw.halg.to_letters`), which carry the numbers.
Evaluator = Callable[[tuple[MonoidElement, ...]], tuple[float, float]]


def exact_floats(xs: Iterable[float]) -> tuple[list[int], int]:
    """Floats as integers over ``2**e``, the largest of their denominators (each a power of two)."""
    ratios = [x.as_integer_ratio() for x in xs]
    e = max([d.bit_length() for _, d in ratios], default=1) - 1
    return [n << e + 1 - d.bit_length() for n, d in ratios], e


def exact_rows(rows: Iterable[tuple[Rational, float, float]]) -> tuple[int, int, int]:
    """``sum c * v`` and ``sum |c| * b`` over rows ``(c, v, b)``, exactly: integers ``(value, bound, scale)``.

    The sums are ``value / scale`` and ``bound / scale``, with ``scale = lcm(denominators of c) * 2**e``
    (:func:`exact_floats`), the smallest exact scale of that form.  Int true division rounds correctly,
    so ``value / scale`` is the exact sum rounded once; rounding is monotone, so where the true sum is 0,
    as for a relation, ``|value / scale| <= bound / scale``.
    """
    rows = list(rows)
    nums, e = exact_floats(x for _, v, b in rows for x in (v, b))
    den = math.lcm(*[c.denominator for c, _, _ in rows])
    ns = [c.numerator * (den // c.denominator) for c, _, _ in rows]
    return sum(map(mul, ns, nums[::2])), sum(map(mul, map(abs, ns), nums[1::2])), den << e


def exact_sum(terms: dict[Word, Rational], evaluator: Evaluator) -> tuple[int, int, int]:
    """:func:`exact_rows` over ``terms`` ``{w: c}``, with ``(v, b)`` the value of ``w``."""
    return exact_rows((c, *evaluator(to_letters(w))) for w, c in terms.items())


def z_num_with_bound(p: HPoly, evaluator: Evaluator) -> tuple[float, float]:
    """Evaluate at ``S = T = 0``: the admissible constant coefficient, numerically, with a bound.

    Both floats are exact sums (:func:`exact_sum`) rounded once.
    """
    value, bound, scale = exact_sum(z_st(p).coeff(0, 0).terms, evaluator)
    return value / scale, bound / scale


def _random_poly(rng: random.Random, alphabet, max_weight: int, max_terms: int = 2) -> HPoly:
    coeff_pool = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2))
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        weight = rng.randint(0, max_weight)
        word = "".join([rng.choice(alphabet) for _ in range(weight)])
        terms.append((word, rng.choice(coeff_pool)))
    return HPoly(terms)


def verify_regularization(
    count: int = 100, max_weight: int = 5, seed: int = 0
) -> Iterator[CheckResult]:
    """Roundtrip, admissibility, injectivity and multiplicativity on random input.

    An inadmissible normal form is not an item: :func:`z_st` raises :class:`RegularizationError`.
    """
    rng = random.Random(seed)
    alphabets = ["\0\1", "\0\1" + cyclic(1).id]
    for idx in range(count):
        alphabet = alphabets[idx % len(alphabets)]
        p = _random_poly(rng, alphabet, max_weight)
        rv = z_st(p)
        ok = substitute_st(rv) == p and (rv.is_zero == p.is_zero)
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
