"""Numeric evaluation of admissible words: multiple zeta values and iterated integrals.

Words over the ``{0, 1}`` alphabet correspond to multiple zeta values,

    I(s[1,k_1] ... s[1,k_r]) = (-1)^r zeta(k_1, ..., k_r),

and are evaluated by the Hoelder convolution at p = 2 (Borwein, Bradley,
Broadhurst and Lisonek, "Special values of multiple polylogarithms", 2001):
the word's iterated integral from 0 to 1 splits at 1/2 into products of
power series in 1/2 whose coefficients lie in [0, 1], so ``N`` terms leave a
tail of at most ``2^-N``.  The series run in fixed-point integers with floor
rounding, and the reported bound is the truncation term plus the counted
rounding units plus the final rounding to float; nothing in it is fitted.

Words whose nonzero letters are real rationals of modulus >= 1 (the unit
letter excluded, interior zero letters allowed) are evaluated as iterated
integrals

    I(e_{z_1} ... e_{z_k}) = integral over 0 < t_1 < ... < t_k < 1 of
                             prod dt_i / (t_i - z_i)

by the same convolution with the split point chosen per word, so that both
sides' coefficients fall like ``R^-n`` for some ``R > 1``.  They run in
fixed-point integers too, with as many terms as the requested tolerance
needs, and the bound, made up the same way, is at most that tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, product
from typing import Iterable, Iterator

from .halg import HPoly, Word, s_chain, s_word, star_terms
from .monoid import UNIT, MonoidElement, rational
from .reporting import CheckResult
from . import reg

__all__ = [
    "MzvIndex",
    "InadmissibleIndexError",
    "UnsupportedWordError",
    "QuadratureError",
    "word_to_mzv",
    "zeta",
    "iterint_num",
    "H0Evaluator",
    "check_assumptions",
    "verify_harmonic_hom",
]

class InadmissibleIndexError(ValueError):
    """Index or word outside the admissible (convergent) class."""


class UnsupportedWordError(ValueError):
    """A word neither oracle can evaluate."""


class QuadratureError(RuntimeError):
    """A real-letter word cannot be evaluated to the requested tolerance."""


@dataclass(frozen=True)
class MzvIndex:
    """An admissible zeta index with the sign of its iterated-integral image."""

    ks: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if any(not isinstance(k, int) or k < 1 for k in self.ks):
            raise InadmissibleIndexError("index entries must be positive integers")
        if self.ks and self.ks[-1] < 2:
            raise InadmissibleIndexError(f"trailing entry must be >= 2, got {self.ks}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def depth(self) -> int:
        return len(self.ks)


def word_to_mzv(w: Word) -> MzvIndex:
    """Decompose a ``{0,1}``-alphabet admissible word into its zeta index."""
    for a in w:
        if not (a.is_zero or a.is_unit):
            raise UnsupportedWordError(f"letter {a} is not in the {{0,1}} alphabet")
    if not w:
        return MzvIndex((), 1)
    if w[0].is_zero or w[-1].is_unit:
        raise InadmissibleIndexError(f"word {w} is not admissible")
    ks: list[int] = []
    for a in w:
        if a.is_unit:
            ks.append(1)
        else:
            ks[-1] += 1
    return MzvIndex(tuple(ks), -1 if len(ks) % 2 else 1)


def _series_at_half(word: tuple[int, ...], n_terms: int) -> list[int]:
    """``Lambda(word[:j]; 1/2)`` for ``j = 0..len(word)``, rounded down at scale ``4^n_terms``.

    ``Lambda(u; x)`` is the iterated integral of the {0,1}-word ``u`` (letter 1
    for ``dt/(1-t)``, 0 for ``dt/t``) from 0 to ``x``, kept as the coefficients
    ``c_n`` of its power series, ``n = 0..n_terms``, at scale ``2^n_terms``.  A
    1 letter maps ``c_n`` to ``(sum_{m<n} c_m)/n``, a 0 letter to ``c_n/n``;
    the word must start with 1.  Every ``c_n`` lies in ``[0, 1]``, so the
    truncated tail at ``x = 1/2`` is at most ``2^-n_terms``, and each letter
    costs at most one unit of ``2^-n_terms`` in floor rounding.
    """
    ns = range(1, n_terms + 1)
    c = [1 << n_terms] + [0] * n_terms
    out = [1 << (2 * n_terms)]
    for a in word:
        if a:
            c = [0] + [s // n for s, n in zip(accumulate(c), ns)]
        else:
            c = [0] + [x // n for x, n in zip(c[1:], ns)]
        at_half = 0
        for x in c:
            at_half = (at_half << 1) + x
        out.append(at_half)
    return out


def _holder(word: tuple[int, ...], n_terms: int) -> tuple[Fraction, Fraction]:
    """Hoelder convolution at p = 2: ``zeta(word)`` from below, and by how much it may fall short.

    ``zeta(a_1..a_L) = sum_j Lambda(a_1..a_j; 1/2) Lambda(dual(a_{j+1}..a_L); 1/2)``,
    where the dual reverses a word and swaps its letters.  Both factors lie
    in ``[0, 1]`` and are computed from below, so each of the ``L + 1``
    products falls short by at most ``2 * 2^-n_terms`` of truncation and
    ``L`` rounding units: ``(L + 1)(L + 2) 2^-n_terms`` in all.
    """
    head = _series_at_half(word, n_terms)
    tail = _series_at_half(tuple(1 - a for a in reversed(word)), n_terms)
    total = sum(p * q for p, q in zip(head, reversed(tail)))
    length = len(word)
    return Fraction(total, 1 << (4 * n_terms)), Fraction((length + 1) * (length + 2), 1 << n_terms)


def zeta(index: MzvIndex | Iterable[int]) -> tuple[float, float]:
    """Multiple zeta value of an admissible index, with a rigorous error bound.

    Returns ``(value, bound)`` where ``|value - zeta(index)| <= bound``.  The
    bound is the shortfall of :func:`_holder` plus two units in the last
    place of ``value``, so that it also covers a float-rounded reference.
    """
    ks = index.ks if isinstance(index, MzvIndex) else tuple(index)
    if any(not isinstance(k, int) or k < 1 for k in ks):
        raise InadmissibleIndexError("index entries must be positive integers")
    if ks and ks[-1] < 2:
        raise InadmissibleIndexError(f"trailing entry must be >= 2, got {ks}")
    if not ks:
        return 1.0, 0.0
    word = tuple(chain.from_iterable((1,) + (0,) * (k - 1) for k in ks))
    length = len(word)
    # zeta(ks) exceeds its first term prod_i i^-k_i >= 2^-floor_bits; carry
    # 60 bits below that, plus room for the (L + 1)(L + 2) units of shortfall.
    floor_bits = sum(k * (i - 1).bit_length() for i, k in enumerate(ks, 1))
    n_terms = 60 + floor_bits + ((length + 1) * (length + 2)).bit_length()
    low, short = _holder(word, n_terms)
    value = float(low)
    return value, float(short) + 2 * math.ulp(value)


# ---------------------------------------------------------------------------
# iterated integrals for real-letter words
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


@functools.lru_cache(maxsize=1024)
def _split(letters: frozenset[MonoidElement]) -> tuple[Fraction, tuple[int, int], tuple[int, int]]:
    """``R = m0 + m1``, ``m0 = min |a| > 0`` and ``m1 = min |1 - a|``, and ``R/m0``, ``R/m1`` as ``(p, q)``."""
    for a in letters:
        if a.is_unit:
            raise UnsupportedWordError("the unit letter puts a pole at the endpoint")
        if not a.is_zero and a.kind != "rational":
            raise UnsupportedWordError(f"letter {a} has no numeric value")
    m0 = min(abs(a.value) for a in letters if not a.is_zero)
    big_r = m0 + min(abs(1 - a.value) for a in letters)
    head, tail = big_r / m0, big_r / (big_r - m0)
    return big_r, (head.numerator, head.denominator), (tail.numerator, tail.denominator)


def _iterint_estimate(w: Word, tol: float) -> tuple[float, float]:
    """``I(w)`` split at ``y = m0/R`` (see :func:`_split`), with a bound ``<= tol``.

    ``I(a_1..a_k) = sum_j G(a_1..a_j; y) (-1)^(k-j) G(1-a_k..1-a_{j+1}; 1-y)``.
    Rescaled to ``x = 1``, every letter has modulus ``>= R > 1``, so ``N``
    terms leave at most ``R^-N/(R-1)`` of a factor of modulus at most
    ``max(1, 1/(R-1))``.  The bound is the truncation plus the counted
    rounding units, carried through the products exactly, plus two units in
    the last place of the result; ``N`` and the scale come from ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not w:
        return 1.0, 0.0
    if w[0].is_zero or w[-1].is_unit:
        raise InadmissibleIndexError(f"word {w} is not admissible")
    big_r, (hp, hq), (tp, tq) = _split(frozenset(w))
    k = len(w)
    head = [(a.value.numerator * hp, a.value.denominator * hq) for a in w]
    tail = [((a.value.denominator - a.value.numerator) * tp, a.value.denominator * tq) for a in reversed(w)]
    # log2 of R - 1, of the bound on a factor and of each factor's error
    # target: then the k + 1 products' errors add up to at most 5/16 tol.
    p, q = big_r.numerator, big_r.denominator
    gap = math.log2(p - q) - math.log2(q)
    size = max(0.0, -gap)
    target = min(size, math.log2(tol) - math.log2(16 * (k + 1)) - size)
    need, log_r = 1 - target - gap, math.log2(p) - math.log2(q)
    if need > MAX_TERMS * log_r:
        raise QuadratureError(f"{w} needs more than {MAX_TERMS} series terms to reach {tol}")
    n_terms = max(1, math.ceil(need / log_r))
    bits = (4 * k * n_terms).bit_length() + max(0, math.ceil(-target))
    trunc = -(-(q ** (n_terms + 1) << bits) // (p**n_terms * (p - q)))
    # a factor's error in units, 0 if empty: truncation plus n_terms coefficient
    # errors of 2 units per nonzero letter, 1 per zero one (the tail has none)
    err_head = [u and trunc + n_terms * u for u in accumulate((1 if a.is_zero else 2 for a in w), initial=0)]
    err_tail = [u and trunc + n_terms * u for u in range(0, 2 * k + 1, 2)]
    hs, ts = _prefix_sums(head, n_terms, bits), _prefix_sums(tail, n_terms, bits)
    total = slack = 0
    for j in range(k + 1):
        h, t, eh, et = hs[j], ts[k - j], err_head[j], err_tail[k - j]
        total += -h * t if (k - j) % 2 else h * t
        slack += abs(h) * et + (abs(t) + et) * eh
    value = total / (1 << 2 * bits)
    # one step up covers rounding the quotient and the sum
    bound = math.nextafter(slack / (1 << 2 * bits) + 2 * math.ulp(value), math.inf)
    if bound > tol:
        raise QuadratureError(f"tolerance {tol} is below the double-precision resolution of {w}")
    return value, bound


def iterint_num(w: Word, tol: float = 1e-7) -> float:
    """Iterated integral of a real-letter admissible word to absolute ``tol``."""
    return _iterint_estimate(w, tol)[0]


# ---------------------------------------------------------------------------
# the combined evaluator and the assumption checks
# ---------------------------------------------------------------------------


class H0Evaluator:
    """Evaluate admissible words numerically, caching per index and per word.

    ``{0,1}``-alphabet words go through :func:`zeta`, words with real rational
    letters through :func:`iterint_num`.  Calls return ``(value, bound)``.
    """

    def __init__(self, tol: float = 1e-7):
        self.tol = tol
        self._zeta_cache: dict[tuple[int, ...], tuple[float, float]] = {}
        self._quad_cache: dict[Word, tuple[float, float]] = {}

    def zeta_value(self, ks: tuple[int, ...]) -> tuple[float, float]:
        hit = self._zeta_cache.get(ks)
        if hit is None:
            hit = zeta(ks)
            self._zeta_cache[ks] = hit
        return hit

    def __call__(self, w: Word) -> tuple[float, float]:
        if not w:
            return 1.0, 0.0
        if all(a.is_zero or a.is_unit for a in w):
            idx = word_to_mzv(w)
            v, b = self.zeta_value(idx.ks)
            return idx.sign * v, b
        hit = self._quad_cache.get(w)
        if hit is None:
            hit = self._iterint(w)
            self._quad_cache[w] = hit
        return hit

    def _iterint(self, w: Word) -> tuple[float, float]:
        return _iterint_estimate(w, self.tol)


def check_assumptions(n_max: int = 3, k_max: int = 6, tol: float = 1e-8) -> Iterator[CheckResult]:
    """Numeric conditions pinning the regularized evaluation to the sine series.

    (i)   Z applied to ``(2n+1)! s[1,2]^n`` equals ``(-pi^2)^n`` for n <= n_max;
    (ii)  Z(s[1,1]) = 0 exactly (the T-coefficient is discarded by construction);
    (iii) Z(s[1,k]) = -zeta(k) for 2 <= k <= k_max.
    """
    evaluator = H0Evaluator()
    for n in range(n_max + 1):
        w_poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
        value = reg.z_num(w_poly, evaluator)
        expected = (-(math.pi**2)) ** n
        err = abs(value - expected)
        yield CheckResult(
            item=f"sine-coefficient n={n}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )
    t_value = reg.z_num(HPoly.from_word(s_word(UNIT, 1)), evaluator)
    yield CheckResult(
        item="unit-letter value",
        passed=t_value == 0.0,
        data={"value": t_value, "expected": 0.0, "error": abs(t_value)},
    )
    for k in range(2, k_max + 1):
        value = reg.z_num(HPoly.from_word(s_word(UNIT, k)), evaluator)
        expected = -zeta((k,))[0]
        err = abs(value - expected)
        yield CheckResult(
            item=f"depth-one value k={k}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )


_ULP = 1 << 1074  # every finite float is a whole multiple of 2**-1074


def _exact(x: float) -> int:
    """The float ``x`` times ``2**1074``, an integer."""
    n, d = x.as_integer_ratio()
    return n * (_ULP // d)


def verify_harmonic_hom(
    letters: Iterable = (2, 3, Fraction(5, 2)),
    max_weight: int = 2,
    tol: float = 1e-5,
    quad_tol: float = 1e-7,
) -> Iterator[CheckResult]:
    """Check multiplicativity of the iterated integral on real-letter words.

    For all pairs ``u, v`` of words of weight <= ``max_weight`` over the given
    letters, compares ``I(u) I(v)`` with the evaluation of ``u * v``.  Both
    sides and the bound are summed exactly in integers and rounded once;
    rounding to float is monotone, so ``difference <= bound`` holds by construction.
    """
    elems = [rational(q) for q in letters]
    words = [Word(p) for n in range(1, max_weight + 1) for p in product(elems, repeat=n)]
    evaluator = H0Evaluator(tol=quad_tol)
    one = _ULP * _ULP
    for i, u in enumerate(words):
        for v in words[i:]:
            (lhs_u, bu), (lhs_v, bv) = (map(_exact, evaluator(x)) for x in (u, v))
            lhs = lhs_u * lhs_v
            bound = abs(lhs_u) * bv + abs(lhs_v) * bu + bu * bv
            rhs = 0
            for w, c in star_terms(u, v).items():
                val, b = map(_exact, evaluator(w))
                rhs += c * val * _ULP
                bound += abs(c) * b * _ULP
            diff = abs(lhs - rhs) / one  # int / int rounds once, like float(Fraction)
            yield CheckResult(
                item=f"product {u} x {v}",
                passed=diff < tol,
                data={"difference": diff, "lhs": lhs / one, "rhs": rhs / one, "bound": bound / one},
            )
