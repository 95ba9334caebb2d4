"""Numeric evaluation of admissible words: multiple zeta values and iterated integrals.

An admissible word over 0, 1 and real rationals of modulus >= 1 (the first
letter not 0, the last not 1) is the iterated integral

    I(e_{z_1} ... e_{z_k}) = integral over 0 < t_1 < ... < t_k < 1 of
                             prod dt_i / (t_i - z_i).

On the ``{0, 1}`` alphabet these are multiple zeta values,

    I(s[1,k_1] ... s[1,k_r]) = (-1)^r zeta(k_1, ..., k_r).

One kernel evaluates every such word by the Hoelder convolution (Borwein,
Bradley, Broadhurst and Lisonek, "Special values of multiple polylogarithms",
2001): the integral splits at ``y = m0/R`` into products of power series in
the letters, where ``m0`` is the least modulus of a nonzero letter, ``m1``
the least distance of a letter other than 1 from 1, and ``R = m0 + m1``, so
both sides' coefficients fall like ``R^-n``.  A zero letter is zero on the
head side and a unit letter on the tail side; ``{0,1}`` words split at
``y = 1/2`` with ``R = 2``.  The series run in fixed-point integers with
floor rounding, with as many terms as the requested absolute tolerance
needs, and the reported bound is the truncation term plus the counted
rounding units plus the final rounding to float; nothing in it is fitted.
:class:`H0Evaluator` is the one numeric entry point for words, returning
``(value, bound)``: a ``{0,1}`` word goes through :func:`zeta`, at ``2^-60``
of the value's first term and with the sign ``(-1)^depth`` applied once; any
other word runs at the evaluator's tolerance.  :func:`zeta` and
:func:`word_to_mzv` serve the zeta index where a user types or reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, product
from typing import Iterable, Iterator

from .halg import HPoly, Word, format_word, s_chain, s_word, star_terms, to_letters, to_word
from .memo import term_bounded_cache
from .monoid import LETTERS, UNIT, MonoidElement, rational
from .reporting import CheckResult
from . import reg

__all__ = [
    "InadmissibleIndexError",
    "UnsupportedWordError",
    "QuadratureError",
    "word_to_mzv",
    "zeta",
    "H0Evaluator",
    "check_assumptions",
    "verify_harmonic_hom",
]

class InadmissibleIndexError(ValueError):
    """Index or word outside the admissible (convergent) class."""


class UnsupportedWordError(ValueError):
    """A word with a letter that has no numeric value."""


class QuadratureError(RuntimeError):
    """A word cannot be evaluated to the requested tolerance."""


def word_to_mzv(w: Word) -> tuple[int, ...]:
    """The zeta index of a ``{0,1}``-alphabet admissible word: ``I(w) = (-1)^depth zeta(index)``."""
    for a in w:
        if a > 1:
            raise UnsupportedWordError(f"letter {LETTERS[a]} is not in the {{0,1}} alphabet")
    if not reg.is_admissible(w):
        raise InadmissibleIndexError(f"word {format_word(w)} is not admissible")
    ks: list[int] = []
    for a in w:
        if a == 1:
            ks.append(1)
        else:
            ks[-1] += 1
    return tuple(ks)


# ---------------------------------------------------------------------------
# the kernel: one Hoelder split for every admissible word
# ---------------------------------------------------------------------------

# A word whose split series need more terms than this is refused: a letter
# lies too close to 1 for the requested tolerance.
MAX_TERMS = 10_000


def _prefix_sums(letters: list[tuple[int, int]], n_terms: int, bits: int) -> list[int]:
    """``G(b_1..b_j; 1)`` for ``j = 0..len(letters)`` at scale ``2^bits``; letter ``p/q`` as ``(p, q)``.

    ``G(u; x) = sum c_n x^n`` integrates the word ``u`` (``dt/(t - b)`` per
    letter) from 0 to ``x``.  A letter ``b != 0`` maps the coefficients to
    ``c_{n+1} = d_n/(n+1)``, ``d_n = (d_{n-1} - c_n)/b``, and ``b = 0`` to
    ``c_n/n``.  If every nonzero ``|b| >= R > 1`` then ``|c_n| <= R^-n``.
    Floor rounding adds at most 2 units to a coefficient's error per nonzero
    letter (``d_n``'s grows by at most ``E + 1`` per step) and 1 per zero one.
    """
    ns = range(1, n_terms + 1)
    c = [1 << bits] + [0] * n_terms
    out = [c[0]]
    for p, q in letters:
        if p:
            d = 0
            nxt = [0]
            for x, n in zip(c, ns):
                d = (d - x) * q // p
                nxt.append(d // n)
            c = nxt
        else:
            c = [0] + [x // n for x, n in zip(c[1:], ns)]
        out.append(sum(c))
    return out


@term_bounded_cache(size=lambda split: 1, max_terms=1024)
def _split(ids: frozenset[int]) -> tuple[Fraction, dict]:
    """``R = m0 + m1``, and each letter ``a``'s head ``aR/m0`` and tail ``(1 - a)R/m1`` as ``(p, q)``.

    ``m0 = min |a|`` over the nonzero letters and ``m1 = min |1 - a|`` over
    the letters other than 1 (the unit letter counts as the number 1), so a
    zero letter is zero on the head side and a unit letter zero on the tail
    side.  ``{0,1}`` words get ``R = 2``.  Letters are given and keyed by id.
    """
    nums = {}
    for a in ids:
        letter = LETTERS[a]
        if not (a <= 1 or letter.kind == "rational"):
            raise UnsupportedWordError(f"letter {letter} has no numeric value")
        nums[a] = 1 if a == 1 else letter.value
    m0 = min(abs(x) for x in nums.values() if x)
    m1 = min(abs(1 - x) for x in nums.values() if x != 1)
    big_r = Fraction(m0 + m1)
    head, tail = big_r / m0, big_r / m1
    hp, hq, tp, tq = head.numerator, head.denominator, tail.numerator, tail.denominator
    forms = {
        a: ((x.numerator * hp, x.denominator * hq), ((x.denominator - x.numerator) * tp, x.denominator * tq))
        for a, x in nums.items()
    }
    return big_r, forms


def _iterint_estimate(w: Word, tol: float) -> tuple[float, float]:
    """``I(w)`` split at ``y = m0/R`` (see :func:`_split`), with a bound.

    ``I(a_1..a_k) = sum_j G(a_1..a_j; y) (-1)^(k-j) G(1-a_k..1-a_{j+1}; 1-y)``.
    Rescaled to ``x = 1``, every nonzero letter has modulus ``>= R > 1``, so
    ``N`` terms leave at most ``R^-N/(R-1)`` of a factor of modulus at most
    ``max(1, 1/(R-1))``.  The bound is the truncation plus the counted
    rounding units, carried through the products exactly, plus two units in
    the last place of the result; ``N`` and the scale come from ``tol``, so
    that all but those two units add up to at most ``5/16 tol``.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not w:
        return 1.0, 0.0
    if not reg.is_admissible(w):
        raise InadmissibleIndexError(f"word {format_word(w)} is not admissible")
    big_r, forms = _split(frozenset(w))
    k = len(w)
    head = [forms[a][0] for a in w]
    tail = [forms[a][1] for a in reversed(w)]
    # log2 of R - 1, of the bound on a factor and of each factor's error
    # target: then the k + 1 products' errors add up to at most 5/16 tol.
    p, q = big_r.numerator, big_r.denominator
    gap = math.log2(p - q) - math.log2(q)
    size = max(0.0, -gap)
    target = min(size, math.log2(tol) - math.log2(16 * (k + 1)) - size)
    need, log_r = 1 - target - gap, math.log2(p) - math.log2(q)
    if need > MAX_TERMS * log_r:
        raise QuadratureError(f"{format_word(w)} needs more than {MAX_TERMS} series terms to reach {tol}")
    n_terms = max(1, math.ceil(need / log_r))
    bits = (4 * k * n_terms).bit_length() + max(0, math.ceil(-target))
    trunc = -(-(q ** (n_terms + 1) << bits) // (p**n_terms * (p - q)))

    def errors(letters):
        # a factor's error in units, 0 if empty: truncation plus n_terms
        # coefficient errors of 2 units per nonzero letter, 1 per zero one
        units = accumulate((2 if b else 1 for b, _ in letters), initial=0)
        return [u and trunc + n_terms * u for u in units]

    err_head, err_tail = errors(head), errors(tail)
    hs, ts = _prefix_sums(head, n_terms, bits), _prefix_sums(tail, n_terms, bits)
    total = slack = 0
    for j in range(k + 1):
        h, t, eh, et = hs[j], ts[k - j], err_head[j], err_tail[k - j]
        total += -h * t if (k - j) % 2 else h * t
        slack += abs(h) * et + (abs(t) + et) * eh
    value = total / (1 << 2 * bits)
    # one step up covers rounding the quotient and the sum
    return value, math.nextafter(slack / (1 << 2 * bits) + 2 * math.ulp(value), math.inf)


def _index_word(ks: tuple[int, ...]) -> Word:
    """The ``{0,1}`` word of an index: a unit letter, then ``k - 1`` zero letters, per entry."""
    return tuple(chain.from_iterable(s_word(UNIT, k) for k in ks))


def zeta(index: Iterable[int]) -> tuple[float, float]:
    """Multiple zeta value of an admissible index, with a rigorous error bound.

    Returns ``(value, bound)`` where ``|value - zeta(index)| <= bound``.  The
    kernel runs to ``2^-60`` of the first term ``prod_i i^-k_i``, a lower
    bound on the value; the two units in the last place of ``value`` that
    the bound adds also cover a float-rounded reference.
    """
    ks = tuple(index)
    if any(not isinstance(k, int) or k < 1 for k in ks):
        raise InadmissibleIndexError("index entries must be positive integers")
    if not ks:
        return 1.0, 0.0
    if ks[-1] < 2:
        raise InadmissibleIndexError(f"trailing entry must be >= 2, got {ks}")
    floor_bits = sum(k * (i - 1).bit_length() for i, k in enumerate(ks, 1))  # 2^-floor_bits <= prod_i i^-k_i
    value, bound = _iterint_estimate(_index_word(ks), 2.0 ** -(60 + floor_bits))
    return (-value if len(ks) % 2 else value), bound


# ---------------------------------------------------------------------------
# the combined evaluator and the assumption checks
# ---------------------------------------------------------------------------


class H0Evaluator:
    """Evaluate admissible words numerically, with one cache keyed by their letters.

    A call takes the letters of a word (:func:`~hsw.halg.to_letters`) and
    returns ``(value, bound)``.  ``{0,1}``-alphabet words go through
    :func:`zeta`; words with real rational letters through the same kernel
    at the evaluator's absolute tolerance, refusing a word whose bound
    exceeds it.
    """

    def __init__(self, tol: float = 1e-7):
        self.tol = tol
        self._cache: dict[tuple[MonoidElement, ...], tuple[float, float]] = {}

    def __call__(self, letters: tuple[MonoidElement, ...]) -> tuple[float, float]:
        hit = self._cache.get(letters)
        if hit is None:
            w = to_word(letters)
            if all(a <= 1 for a in w):
                ks = word_to_mzv(w)
                v, b = zeta(ks)
                hit = (-v if len(ks) % 2 else v), b
            else:
                hit = self._iterint(w)
            self._cache[letters] = hit
        return hit

    def _iterint(self, w: Word) -> tuple[float, float]:
        value, bound = _iterint_estimate(w, self.tol)
        if bound > self.tol:
            raise QuadratureError(
                f"tolerance {self.tol} is below the double-precision resolution of {format_word(w)}"
            )
        return value, bound


def check_assumptions(n_max: int = 3, k_max: int = 6, tol: float = 1e-8) -> Iterator[CheckResult]:
    """Numeric conditions pinning the regularized evaluation to the sine series.

    (i)   Z applied to ``(2n+1)! s[1,2]^n`` equals ``(-pi^2)^n`` for n <= n_max;
    (ii)  Z(s[1,1]) = 0 exactly (the T-coefficient is discarded by construction);
    (iii) Z(s[1,k]) = -zeta(k) for 2 <= k <= k_max.
    """
    evaluator = H0Evaluator()
    for n in range(n_max + 1):
        w_poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
        value = reg.z_num_with_bound(w_poly, evaluator)[0]
        expected = (-(math.pi**2)) ** n
        err = abs(value - expected)
        yield CheckResult(
            item=f"sine-coefficient n={n}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )
    t_value = reg.z_num_with_bound(HPoly.from_word(s_word(UNIT, 1)), evaluator)[0]
    yield CheckResult(
        item="unit-letter value",
        passed=t_value == 0.0,
        data={"value": t_value, "expected": 0.0, "error": abs(t_value)},
    )
    for k in range(2, k_max + 1):
        value = reg.z_num_with_bound(HPoly.from_word(s_word(UNIT, k)), evaluator)[0]
        expected = -zeta((k,))[0]
        err = abs(value - expected)
        yield CheckResult(
            item=f"depth-one value k={k}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )


def verify_harmonic_hom(
    letters: Iterable = (2, 3, Fraction(5, 2)),
    max_weight: int = 2,
    tol: float = 1e-5,
    quad_tol: float = 1e-7,
) -> Iterator[CheckResult]:
    """Check multiplicativity of the iterated integral on real-letter words.

    For all pairs ``u, v`` of words of weight <= ``max_weight`` over the given
    letters, compares ``I(u) I(v)`` with the evaluation of ``u * v``.  Both
    sides and the bound are exact (:func:`reg.exact_sum`) and rounded once;
    rounding to float is monotone, so ``difference <= bound`` holds by construction.
    """
    ids = [rational(q).id for q in letters]
    words = [p for n in range(1, max_weight + 1) for p in product(ids, repeat=n)]
    evaluator = H0Evaluator(tol=quad_tol)
    for i, u in enumerate(words):
        for v in words[i:]:
            (lhs_u, bu), (lhs_v, bv) = (map(Fraction, evaluator(to_letters(x))) for x in (u, v))
            lhs = lhs_u * lhs_v
            rhs, bound = reg.exact_sum(star_terms(u, v), evaluator)
            bound += abs(lhs_u) * bv + abs(lhs_v) * bu + bu * bv
            diff = float(abs(lhs - rhs))
            yield CheckResult(
                item=f"product {format_word(u)} x {format_word(v)}",
                passed=diff < tol,
                data={"difference": diff, "lhs": float(lhs), "rhs": float(rhs), "bound": float(bound)},
            )
