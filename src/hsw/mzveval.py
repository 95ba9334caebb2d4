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
the letters, run in fixed-point integers to each word's tolerance
(:func:`_iterint_estimates`); the bound counts the truncation and every
rounding, with nothing fitted.  Words that share a split, term count and
scale share their series, each bit for bit as alone.
:class:`H0Evaluator` is the one numeric entry point for words, returning
``(value, bound)``: a ``{0,1}`` word goes through :func:`zeta`, at ``2^-60``
of the least first term of its weight and with the sign ``(-1)^depth``
applied once; any other word runs at the evaluator's tolerance.  It caches
each result once, under the word, and only :meth:`H0Evaluator.prefetch`
fills it: real-letter words in one kernel batch, ``{0,1}`` words in one
:func:`zeta_batch` block, where :func:`zeta` of a listed index reads one
kernel pass over every listed index.  A call that misses prefetches its
word; ``relations`` prefetches a weight's words, one plan of two walks.
:func:`zeta` and :func:`word_to_mzv` serve the zeta index where a user
types or reads it.
"""

from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate, chain, product
from typing import Callable, Iterable, Iterator

from .halg import Word, format_word, s_word, star_terms, to_word
from .monoid import LETTERS, UNIT, MonoidElement, rational
from .reporting import CheckResult
from . import reg

__all__ = [
    "InadmissibleIndexError",
    "UnsupportedWordError",
    "QuadratureError",
    "word_to_mzv",
    "zeta",
    "zeta_batch",
    "H0Evaluator",
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
        if a > "\1":
            raise UnsupportedWordError(f"letter {LETTERS[a]} is not in the {{0,1}} alphabet")
    if not reg.is_admissible(w):
        raise InadmissibleIndexError(f"word {format_word(w)} is not admissible")
    # an admissible {0,1} word is a unit letter, then zero letters, per entry
    return tuple(len(run) + 1 for run in w.split("\1")[1:])


# A word whose split series need more terms than this is refused: a letter
# lies too close to 1 for the requested tolerance.
MAX_TERMS = 10_000


def _walk_prefixes(seqs: Iterable[Word], forms: dict, n_terms: int, bits: int) -> dict[Word, list[int]]:
    """``G(b_1..b_j; 1)`` for ``j = 0..len(s)`` per sequence ``s``, at scale ``2^bits``; ``b = p/q = forms[a]``.

    ``G(u; x) = sum c_n x^n`` integrates the word ``u`` (``dt/(t - b)`` per
    letter) from 0 to ``x``.  A letter ``b != 0`` maps the coefficients to
    ``c_{n+1} = d_n/(n+1)``, ``d_n = (d_{n-1} - c_n)/b``, and ``b = 0`` to
    ``c_n/n``.  If every nonzero ``|b| >= R > 1`` then ``|c_n| <= R^-n``.
    Floor rounding adds at most 2 units to a coefficient's error per nonzero
    letter (``d_n``'s grows by at most ``E + 1`` per step) and 1 per zero one.
    The sorted sequences share one stack of coefficient lists, a root-to-leaf
    path of their prefix tree, so each distinct prefix is stepped once.
    """
    ns = range(1, n_terms + 1)
    stack, sums, prev = [[1 << bits] + [0] * n_terms], [1 << bits], ""
    out = {}
    for s in sorted(seqs):
        i = 0
        while i < len(prev) and i < len(s) and prev[i] == s[i]:
            i += 1
        del stack[i + 1 :], sums[i + 1 :]
        for a in s[i:]:
            c = stack[-1]
            p, q = forms[a]
            d, nxt = 0, [0]
            if not p:
                nxt += map(operator.floordiv, c[1:], ns)
            elif q == 1:  # every nonzero letter of a {0,1} word: skip the product
                for x, n in zip(c, ns):
                    d = (d - x) // p
                    nxt.append(d // n)
            else:
                for x, n in zip(c, ns):
                    d = (d - x) * q // p
                    nxt.append(d // n)
            stack.append(nxt)
            sums.append(sum(nxt))
        out[s], prev = sums.copy(), s
    return out


def _split(m0: Fraction, m1: Fraction) -> tuple[int, int, tuple[int, int], tuple[int, int]]:
    """``R = m0 + m1`` as ``p/q``, and the head and tail scales ``R/m0`` and ``R/m1`` as ``(p, q)``."""
    big_r = Fraction(m0 + m1)
    return big_r.numerator, big_r.denominator, (big_r / m0).as_integer_ratio(), (big_r / m1).as_integer_ratio()


def _iterint_estimates(tols: dict[Word, float]) -> dict[Word, tuple[float, float]]:
    """``I(w)`` with a bound for every nonempty word ``w`` of ``tols``, to its tolerance, split at ``y = m0/R``.

    ``m0 = min |a|`` over a word's nonzero letters and ``m1 = min |1 - a|``
    over its letters other than 1 (the unit letter counts as the number 1),
    so a zero letter is zero on the head side and a unit letter zero on the
    tail side; ``{0,1}`` words get ``R = m0 + m1 = 2``.  Then
    ``I(a_1..a_k) = sum_j G(a_1..a_j; y) (-1)^(k-j) G(1-a_k..1-a_{j+1}; 1-y)``.
    Rescaled to ``x = 1``, every nonzero letter has modulus ``>= R > 1``, so
    ``N`` terms leave at most ``R^-N/(R-1)`` of a factor of modulus at most
    ``max(1, 1/(R-1))``.  The bound is the truncation plus the counted
    rounding units, carried through the products exactly, plus two units in
    the last place of the result; ``N`` and the scale come from the word's
    ``tol`` and ``k``, so that all but those two units add up to at most
    ``5/16 tol``.  Words of one ``(m0, m1, N, scale)`` share their series
    (:func:`_walk_prefixes`), whatever their tolerances, and words of one
    zero/unit letter pattern their factors' error units.
    """
    for w, tol in tols.items():
        if not tol > 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        if not reg.is_admissible(w):
            raise InadmissibleIndexError(f"word {format_word(w)} is not admissible")
    nums = {}
    for a in sorted(set().union(*tols)):
        if not (a <= "\1" or LETTERS[a].kind == "rational"):
            raise UnsupportedWordError(f"letter {LETTERS[a]} has no numeric value")
        nums[a] = 1 if a == "\1" else LETTERS[a].value
    by_m0 = sorted({abs(x) for x in nums.values() if x})
    by_m1 = sorted({abs(1 - x) for x in nums.values() if x != 1})
    # ranks as characters: a word's least rank is a C-level min
    rank0 = str.maketrans({a: chr(by_m0.index(abs(x)) if x else len(by_m0)) for a, x in nums.items()})
    rank1 = str.maketrans({a: chr(by_m1.index(abs(1 - x)) if x != 1 else len(by_m1)) for a, x in nums.items()})
    # a word's pattern, "0" for a zero letter, "1" for the unit letter and "2" for any
    # other, fixes the error units of its head and tail factors within a group
    classes = str.maketrans({a: "0" if not x else "1" if x == 1 else "2" for a, x in nums.items()})
    groups: dict[tuple[int, int, int, float], list[Word]] = {}
    for w, tol in tols.items():
        groups.setdefault((ord(min(w.translate(rank0))), ord(min(w.translate(rank1))), len(w), tol), []).append(w)
    # keys that get the same split, term count and scale share their series
    plans: dict[tuple, list[Word]] = {}
    for (r0, r1, k, tol), group in groups.items():
        p, q, *_ = split = _split(by_m0[r0], by_m1[r1])
        # log2 of R - 1, of the bound on a factor and of each factor's error
        # target: then the k + 1 products' errors add up to at most 5/16 tol.
        gap = math.log2(p - q) - math.log2(q)
        size = max(0.0, -gap)
        target = min(size, math.log2(tol) - math.log2(16 * (k + 1)) - size)
        need, log_r = 1 - target - gap, math.log2(p) - math.log2(q)
        if need > MAX_TERMS * log_r:
            raise QuadratureError(f"{format_word(group[0])} needs more than {MAX_TERMS} series terms to reach {tol}")
        n_terms = max(1, math.ceil(need / log_r))
        bits = (4 * k * n_terms).bit_length() + max(0, math.ceil(-target))
        plans.setdefault((split, n_terms, bits), []).extend(group)
    out: dict[Word, tuple[float, float]] = {}
    for ((p, q, (hp, hq), (tp, tq)), n_terms, bits), group in plans.items():
        trunc = -(-(q ** (n_terms + 1) << bits) // (p**n_terms * (p - q)))
        one = 1 << 2 * bits
        head_forms = {a: (x.numerator * hp, x.denominator * hq) for a, x in nums.items()}
        tail_forms = {a: ((x.denominator - x.numerator) * tp, x.denominator * tq) for a, x in nums.items()}
        rev = [w[::-1] for w in group]
        heads = _walk_prefixes(group, head_forms, n_terms, bits)
        tails = _walk_prefixes(rev, tail_forms, n_terms, bits)
        units_of: dict[str, tuple[list[int], list[int], int]] = {}
        for w, r in zip(group, rev):
            hs, ts = heads.pop(w), tails.pop(r)
            pattern = w.translate(classes)
            units = units_of.get(pattern)
            if units is None:
                # a factor's error in units, 0 if empty: truncation plus n_terms coefficient
                # errors of 2 units per letter, 1 per zero letter (head) or unit letter (tail)
                head = [0, *(trunc + n_terms * u for u in accumulate(1 if c == "0" else 2 for c in pattern))]
                tail = [0, *(trunc + n_terms * u for u in accumulate(1 if c == "1" else 2 for c in pattern[::-1]))]
                # sum eh * et is the same for every word of the pattern
                units = units_of[pattern] = head, tail[::-1], sum(map(operator.mul, head, tail[::-1]))
            head, tail, slack = units
            # G(a_1..a_j) times the tail of k - j letters, with the sign (-1)^(k-j)
            total = 0
            odd = len(w) % 2
            for h, t, eh, et in zip(hs, reversed(ts), head, tail):
                total += -h * t if odd else h * t
                slack += abs(h) * et + abs(t) * eh
                odd ^= 1
            value = total / one
            # one step up covers rounding the quotient and the sum
            out[w] = value, math.nextafter(slack / one + 2 * math.ulp(value), math.inf)
    return out


def _index_word(ks: tuple[int, ...]) -> Word:
    """The ``{0,1}`` word of an index: a unit letter, then ``k - 1`` zero letters, per entry."""
    return "".join([s_word(UNIT, k) for k in ks])


def _zeta_plan(index: Iterable[int]) -> tuple[tuple[int, ...], Word, float]:
    """A checked index, its word, and the kernel's tolerance: ``2^-60`` of the least first term of its weight.

    A first term ``prod_i i^-k_i`` is at least ``2^-F``, ``F = sum_i k_i
    bitlen(i - 1)``.  At weight w and depth r, F is largest with the extra
    weight on the last entry, and that F grows with r by ``(w - r)(bitlen(r)
    - bitlen(r - 1)) >= 0``, so it is largest at ``(1, ..., 1, 2)``.  No index
    runs looser than at its own ``2^-(60 + F)``; a weight's indices share one plan.
    """
    ks = tuple(index)
    # a bool is an int to isinstance, but True is no index entry
    if any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in ks):
        raise InadmissibleIndexError("index entries must be positive integers")
    if ks and ks[-1] < 2:
        raise InadmissibleIndexError(f"trailing entry must be >= 2, got {ks}")
    w = sum(ks)
    return ks, _index_word(ks), 2.0 ** -(60 + sum(map(int.bit_length, [*range(w - 1), w - 2])))


# The innermost open zeta_batch: its words' tolerances and its kernel pass, run on first use.
_BATCH: ContextVar[tuple[dict[Word, float], Callable[[], dict]] | None] = ContextVar("zeta_batch", default=None)


@contextmanager
def zeta_batch(indices: Iterable[Iterable[int]]) -> Iterator[None]:
    """Inside the block, :func:`zeta` of a listed index reads one kernel pass over every listed index.

    The pass runs at the first such call, so its time falls in that call;
    values and bounds are bit for bit those of a call outside the block.  An
    unlisted index is evaluated alone, as every index is after the block.  A
    nested block stands in for the outer one until it closes.
    """
    tols = dict(plan[1:] for plan in map(_zeta_plan, indices) if plan[0])
    token = _BATCH.set((tols, functools.cache(lambda: _iterint_estimates(tols))))
    try:
        yield
    finally:
        _BATCH.reset(token)


def zeta(index: Iterable[int]) -> tuple[float, float]:
    """Multiple zeta value of an admissible index, with a rigorous error bound.

    Returns ``(value, bound)`` where ``|value - zeta(index)| <= bound``.  The
    kernel runs to ``2^-60`` of the least first term ``prod_i i^-k_i`` of the
    index's weight, a lower bound on the value; the two units in the last
    place of ``value`` that the bound adds also cover a float-rounded reference.
    """
    ks, word, tol = _zeta_plan(index)
    if not ks:
        return 1.0, 0.0
    batch = _BATCH.get()
    if batch is not None and word in batch[0]:
        value, bound = batch[1]()[word]
    else:
        value, bound = _iterint_estimates({word: tol})[word]
    return (-value if len(ks) % 2 else value), bound


class H0Evaluator:
    """Evaluate admissible words numerically, with one cache keyed by the word.

    A call takes the letters of a word (:func:`~hsw.halg.to_letters`) and
    returns ``(value, bound)``.  ``{0,1}``-alphabet words go through
    :func:`zeta`; words with real rational letters through the same kernel
    at the evaluator's absolute tolerance, refusing a word whose bound
    exceeds it.  :meth:`prefetch`, the one path that fills the cache, takes
    many words at once and returns it.
    """

    def __init__(self, tol: float = 1e-7):
        self.tol = tol
        self._cache: dict[Word, tuple[float, float]] = {}

    def __call__(self, letters: tuple[MonoidElement, ...]) -> tuple[float, float]:
        w = to_word(letters)
        hit = self._cache.get(w)
        return self.prefetch([w])[w] if hit is None else hit

    def prefetch(self, words: Iterable[Word]) -> dict[Word, tuple[float, float]]:
        """The word-keyed cache, filled for every listed word; an error names the first failing one.

        Real-letter words take one kernel batch, ``{0,1}`` words one :func:`zeta_batch`.
        """
        words = list(dict.fromkeys(w for w in words if w not in self._cache))
        real = [w for w in words if w.strip("\0\1")]
        zetas = [w for w in words if not w.strip("\0\1")]
        try:
            if real:
                self._cache.update(self._iterint(real))
            indices = list(map(word_to_mzv, zetas))
            with zeta_batch(indices):
                for w, ks in zip(zetas, indices):
                    v, b = zeta(ks)
                    self._cache[w] = (-v if len(ks) % 2 else v), b
        except (ValueError, QuadratureError):
            if len(words) > 1:
                for w in words:
                    self.prefetch([w])
            raise
        return self._cache

    def _iterint(self, words: list[Word]) -> dict[Word, tuple[float, float]]:
        values = _iterint_estimates(dict.fromkeys(words, self.tol))
        for w in words:
            if values[w][1] > self.tol:
                raise QuadratureError(
                    f"tolerance {self.tol} is below the double-precision resolution of {format_word(w)}"
                )
        return values


def verify_harmonic_hom(
    letters: Iterable = (2, 3, Fraction(5, 2)),
    max_weight: int = 2,
    tol: float = 1e-5,
    quad_tol: float = 1e-7,
) -> Iterator[CheckResult]:
    """Check multiplicativity of the iterated integral on real-letter words.

    For all pairs ``u, v`` of words of weight <= ``max_weight`` over the given
    letters, compares ``I(u) I(v)`` with the evaluation of ``u * v``.  Every
    word is evaluated before the first item, into the map of
    :meth:`H0Evaluator.prefetch` that the items read.  Both sides and the
    bound are exact integers over one scale from the floats' own powers of
    two (:func:`reg.exact_floats`, :func:`reg.exact_rows`), and each is
    rounded once, by int true division; rounding to float is
    monotone, so correct values meet ``difference <= bound``, and an item
    passes only when it holds as well as ``difference < tol``.
    """
    ids = [rational(q).id for q in letters]
    words = ["".join(p) for n in range(1, max_weight + 1) for p in product(ids, repeat=n)]
    named = list(zip(words, map(format_word, words)))
    pairs = [(u, v) for i, u in enumerate(named) for v in named[i:]]
    # in the order the items read them: u, v, then the terms of u * v
    values = H0Evaluator(tol=quad_tol).prefetch(
        chain.from_iterable((u, v, *star_terms(u, v)) for (u, _), (v, _) in pairs)
    )
    for (u, u_text), (v, v_text) in pairs:
        (xu, xbu, xv, xbv), e = reg.exact_floats((*values[u], *values[v]))
        value, bound, scale = reg.exact_rows((c, *values[w]) for w, c in star_terms(u, v).items())
        # I(u) I(v) and its error are over 2**2e, the sum and its bound over scale
        common = scale << 2 * e
        lhs = xu * xv * scale
        diff = abs(lhs - (value << 2 * e)) / common
        bound = ((bound << 2 * e) + (abs(xu) * xbv + abs(xv) * xbu + xbu * xbv) * scale) / common
        yield CheckResult(
            item=f"product {u_text} x {v_text}",
            passed=diff < tol and diff <= bound,
            data={"difference": diff, "lhs": lhs / common, "rhs": value / scale, "bound": bound},
        )
