"""Formal sine and cosine series in the harmonic algebra.

Two constructions of the formal sine are provided and proved equal at any
truncation by :func:`verify_coincidence`:

* ``sine_taylor`` sums the explicit chain words,
      sum_n  s[z^n,k] s[z^{n-1},k] ... s[z,k] x^{(n+1)k-1},
* ``sine_reflection`` is ``x^{k-1} exp_*( sum_{n>=1} s[z^n,nk] x^{nk} / n )``.

Downstream code writes ``sine`` for the ``k = 2`` Taylor form and ``cosine``
for its derivative; the equality of the two forms is verified by the test
suite before anything depends on it, not assumed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .halg import HPoly, format_poly, harmonic, s_chain, s_word
from .monoid import MonoidElement
from .reporting import CheckResult
from .series import DEFAULT_ORDER, Series1

__all__ = [
    "sine_taylor",
    "sine_reflection",
    "sine",
    "cosine",
    "verify_coincidence",
    "verify_reflection_product",
]


def sine_taylor(z: MonoidElement, k: int, order: int) -> Series1:
    """Chain-word form of the formal sine, truncated at ``order``."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    coeffs: dict[int, HPoly] = {}
    n = 0
    while (n + 1) * k - 1 <= order:
        coeffs[(n + 1) * k - 1] = HPoly.from_word(s_chain(z, k, n))
        n += 1
    return Series1(coeffs, order)


def sine_reflection(z: MonoidElement, k: int, order: int) -> Series1:
    """The formal sine ``x^{k-1} exp_*(sum_{n>=1} s[z^n,nk] x^{nk} / n)``, truncated at ``order``."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if order < k - 1:
        return Series1.zero(order)
    core_order = order - (k - 1)
    log_argument = {
        n * k: HPoly.from_word(s_word(z**n, n * k)) * Fraction(1, n)
        for n in range(1, core_order // k + 1)
    }
    return Series1(log_argument, core_order).exp_star().shift_up(k - 1)


def sine(z: MonoidElement, order: int) -> Series1:
    """The formal sine used by the addition/Pythagoras machinery (k = 2)."""
    return sine_taylor(z, 2, order)


def cosine(z: MonoidElement, order: int) -> Series1:
    """Derivative of the formal sine; an even series."""
    return sine_taylor(z, 2, order + 1).derivative()


def verify_coincidence(
    z: MonoidElement,
    k: int = 2,
    max_n: int = 5,
    order: int = DEFAULT_ORDER,
) -> Iterator[CheckResult]:
    """Check both faces of the sine coincidence.

    (a) the two sine constructions agree exactly up to ``order``;
    (b) the coefficient identity
        ``n * chain(n) = sum_{i=1..n} s[z^i,ik] * chain(n-i)``
        holds exactly for ``1 <= n <= max_n``.
    """
    taylor = sine_taylor(z, k, order)
    reflection = sine_reflection(z, k, order)
    same = taylor == reflection
    yield CheckResult(
        item=f"series-equality k={k} order={order}",
        passed=same,
        detail="" if same else f"taylor={taylor} reflection={reflection}",
    )
    for n in range(1, max_n + 1):
        lhs = HPoly.from_word(s_chain(z, k, n)) * n
        rhs = HPoly.sum(
            harmonic(HPoly.from_word(s_word(z**i, i * k)), HPoly.from_word(s_chain(z, k, n - i)))
            for i in range(1, n + 1)
        )
        ok = lhs == rhs
        yield CheckResult(
            item=f"coefficient-identity k={k} n={n}",
            passed=ok,
            detail="" if ok else f"lhs={format_poly(lhs)} rhs={format_poly(rhs)}",
        )


def verify_reflection_product(z: MonoidElement, order: int = 8) -> Iterator[CheckResult]:
    """Check ``S^R_{z^2,2}(x) = x * S^R_{z,1}(x) star S^R_{z,1}(-x)`` exactly."""
    lhs = sine_reflection(z**2, 2, order)
    if order == 0:
        rhs = Series1.zero(0)
    else:
        base = sine_reflection(z, 1, order - 1)
        rhs = base.star(base.negate_argument()).shift_up(1)
    ok = lhs == rhs
    yield CheckResult(
        item=f"reflection-product z={z} order={order}",
        passed=ok,
        detail="" if ok else f"lhs={lhs} rhs={rhs}",
    )
