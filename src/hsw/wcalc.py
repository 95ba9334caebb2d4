"""Commutative calculus of the sine-coefficient generators.

``w_value(z, n)`` is the harmonic-algebra element ``(2n+1)! s[z^n,2]...s[z,2]``
(the x^{2n+1} coefficient of the formal sine, cleared of its factorial).  The
subalgebra these elements generate is modelled abstractly by :class:`WPoly`,
a commutative polynomial ring with one generator ``W_n`` per index ``n >= 1``
and ``W_0 = 1``.  ``eval_w`` is the ring homomorphism sending ``W_n`` to
``w_value(z, n)`` and monomial products to harmonic products.

The defect of the formal addition formula and the coefficients of the formal
Pythagorean combination are computed here purely in ``WPoly`` arithmetic;
membership in the ideal generated by ``g_gen(m, n) = W_{m+n} - W_m W_n`` is
decided by :func:`reduce_ap`, the substitution ``W_n -> W_1^n`` whose kernel
is exactly that ideal.  Deciding membership is supported only for elements
presented as ``WPoly`` (the generated subring); general ideal membership in
the full harmonic algebra is out of scope.

``verify_addition`` / ``verify_pythagoras`` cross-check the abstract
coefficients against harmonic products of the trig module's sine and cosine
coefficients: two independent routes that must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterator

from .halg import (
    HPoly, LinComb, Rational, combine, format_terms, harmonic, integer_sum, power_text, s_chain, sum_by_key,
)
from .memo import term_bounded_cache
from .monoid import MonoidElement
from .reporting import CheckResult
from .series import Series1, Series2
from .trig import cosine, sine

__all__ = [
    "NoWitnessError",
    "WPoly",
    "g_gen",
    "w_value",
    "eval_w",
    "reduce_ap",
    "format_reduced",
    "addition_defect_coeff",
    "pythagoras_coeff",
    "ap_witness_addition",
    "addition_series2",
    "pythagoras_series",
    "verify_addition",
    "verify_pythagoras",
]

class NoWitnessError(ValueError):
    """No single-generator witness exists (even total degree)."""


class WPoly(LinComb):
    """Polynomial in the commuting generators ``W_1, W_2, ...`` over the rationals.

    Terms map sorted index multisets (tuples) to coefficients; the empty
    multiset is the constant term.  The weight of a monomial is twice the sum
    of its indices, matching the word weight of its harmonic-algebra image.
    """

    __slots__ = ()

    _ONE_KEY = ()

    @staticmethod
    def _key(key) -> tuple[int, ...]:
        key = tuple(sorted(key))
        for n in key:
            if not isinstance(n, int) or n < 1:
                raise ValueError("generator indices must be positive integers")
        return key

    @classmethod
    def gen(cls, n: int) -> "WPoly":
        """The generator ``W_n`` (``W_0`` is the constant 1)."""
        if n < 0:
            raise ValueError("generator index must be non-negative")
        if n == 0:
            return cls.one()
        return cls._raw({(n,): 1})

    def __mul__(self, other):
        """Commutative product of monomials (index multisets join); a rational scales."""
        if not isinstance(other, WPoly):
            return LinComb.__mul__(self, other)
        return WPoly(
            (ka + kb, ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        )

    def __str__(self) -> str:
        return format_terms(
            (self.terms[k], power_text((f"W{n}", k.count(n)) for n in sorted(set(k), reverse=True)))
            for k in sorted(self.terms, key=lambda k: (2 * sum(k), k), reverse=True)
        )


def g_gen(m: int, n: int) -> WPoly:
    """The relation generator ``W_{m+n} - W_m W_n`` (zero when m or n is 0)."""
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    return WPoly.gen(m + n) - WPoly.gen(m) * WPoly.gen(n)


@term_bounded_cache()
def w_value(z: MonoidElement, n: int) -> HPoly:
    """The element ``(2n+1)! s[z^n,2] s[z^{n-1},2] ... s[z,2]``."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return HPoly.from_word(s_chain(z, 2, n)) * factorial(2 * n + 1)


@term_bounded_cache()
def _eval_monomial(key: tuple[int, ...], z: MonoidElement) -> HPoly:
    out = HPoly.one()
    for n in key:
        out = harmonic(out, w_value(z, n))
    return out


def eval_w(p: WPoly, z: MonoidElement) -> HPoly:
    """Ring homomorphism into the harmonic algebra: ``W_n -> w_value(z, n)``."""
    return integer_sum((c, _eval_monomial(key, z).terms) for key, c in p.terms.items())


def reduce_ap(p: WPoly) -> dict[int, Rational]:
    """Substitute ``W_n -> W_1^n``; the result is a univariate polynomial in ``W_1``.

    The kernel of this substitution is exactly the ideal generated by all
    ``g_gen(m, n)``, so ``p`` lies in that ideal iff the result is empty, and
    then ``eval_w(p, z)`` lies in the corresponding harmonic-algebra ideal.
    """
    return combine((sum(key), c) for key, c in p.terms.items())


def format_reduced(reduced: dict[int, Rational]) -> str:
    """Text form of a ``reduce_ap`` result, e.g. ``2*W1^2 + 1``."""
    degrees = sorted(reduced, reverse=True)
    return format_terms((reduced[d], power_text([("W1", d)])) for d in degrees)


def _wcoeff(n: int, parity: int) -> WPoly:
    """W-form coefficient at degree ``n`` of the formal sine (``parity`` 1) or cosine (0)."""
    if n % 2 != parity or n < 0:
        return WPoly.zero()
    return WPoly.gen(n // 2) / factorial(n)


def addition_defect_coeff(i: int, j: int) -> WPoly:
    """Coefficient of ``x^i y^j`` in ``S(x+y) - S(x)*C(y) - C(x)*S(y)``.

    Computed entirely in WPoly arithmetic from the three series' coefficients;
    identically zero when ``i + j`` is even.
    """
    if i < 0 or j < 0:
        raise ValueError("degrees must be non-negative")
    shifted = _wcoeff(i + j, 1) * comb(i + j, i)
    return shifted - _wcoeff(i, 1) * _wcoeff(j, 0) - _wcoeff(i, 0) * _wcoeff(j, 1)


def pythagoras_coeff(n: int) -> WPoly:
    """Coefficient of ``x^{2n}`` in ``-W_1 * S(x)^2 + C(x)^2`` (odd degrees vanish)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    cos_sq = WPoly.sum(
        WPoly.gen(i) * WPoly.gen(n - i) / (factorial(2 * i) * factorial(2 * n - 2 * i))
        for i in range(n + 1)
    )
    sin_sq = WPoly.sum(
        WPoly.gen(i) * WPoly.gen(n - i - 1) / (factorial(2 * i + 1) * factorial(2 * n - 2 * i - 1))
        for i in range(n)
    )
    return cos_sq - WPoly.gen(1) * sin_sq


def ap_witness_addition(i: int, j: int) -> tuple[Fraction, int, int]:
    """The unique ``(scalar, m, n)`` with ``addition_defect_coeff(i, j) = scalar * g_gen(m, n)``.

    Recovers the relation generators from the defect coefficients (the
    converse direction of the membership equivalence); raises
    :class:`NoWitnessError` when ``i + j`` is even and checks the claimed
    factorization exactly before returning.
    """
    if (i + j) % 2 == 0:
        raise NoWitnessError(f"no generator witness at even total degree ({i},{j})")
    return _witness(i, j, addition_defect_coeff(i, j))


def _witness(i: int, j: int, defect: WPoly) -> tuple[Fraction, int, int]:
    """:func:`ap_witness_addition` at odd ``i + j``, checked against the coefficient ``defect``."""
    m = (i - 1) // 2 if i % 2 == 1 else i // 2
    n = (i + j - 1) // 2 - m
    scalar = Fraction(1, factorial(i) * factorial(j))
    if defect != g_gen(m, n) * scalar:
        raise AssertionError(f"witness factorization failed at ({i},{j})")
    return scalar, m, n


def addition_series2(z: MonoidElement, order: int) -> Series2:
    """The addition-formula defect on truncated series, from the coefficients ``s_n``, ``c_n`` of sine and cosine.

    Its ``x^i y^j`` coefficient is ``C(i+j, i) s_{i+j} - s_i * c_j - c_i * s_j``, summed from the nonzero terms.
    """
    s, c = sine(z, order).coeffs, cosine(z, order).coeffs
    terms = [((i, n - i), p * comb(n, i)) for n, p in s.items() for i in range(n + 1)]
    for f, g in ((s, c), (c, s)):
        terms += [((i, j), -harmonic(p, q)) for i, p in f.items() for j, q in g.items() if i + j <= order]
    return Series2(sum_by_key(terms), order)


def pythagoras_series(z: MonoidElement, order: int) -> Series1:
    """``-w_value(z,1) * S(x)^2 + C(x)^2`` computed directly on truncated series."""
    s = sine(z, order)
    c = cosine(z, order)
    return c.star(c) - s.star(s).mul_poly(w_value(z, 1))


def verify_addition(z: MonoidElement, max_degree: int = 9) -> Iterator[CheckResult]:
    """Forward membership, witness recovery and the two-route bridge check."""
    direct = addition_series2(z, max_degree)
    for total in range(max_degree + 1):
        for i in range(total + 1):
            j = total - i
            wp = addition_defect_coeff(i, j)
            reduced = reduce_ap(wp)
            record = {
                "degrees": [i, j],
                "wpoly": str(wp),
                "reduced": format_reduced(reduced),
            }
            ok = not reduced
            if total % 2 == 1:
                try:
                    scalar, m, n = _witness(i, j, wp)
                    record["witness"] = {"scalar": str(scalar), "m": m, "n": n}
                except AssertionError as exc:
                    record["witness"] = {"error": str(exc)}
                    ok = False
            ok = ok and direct.coeff(i, j) == eval_w(wp, z)
            yield CheckResult(item=f"addition-coefficient x^{i}y^{j}", passed=ok, data=record)


def verify_pythagoras(z: MonoidElement, max_n: int = 5) -> Iterator[CheckResult]:
    """Membership delta check plus the two-route bridge and odd-degree parity."""
    direct = pythagoras_series(z, 2 * max_n)
    for n in range(max_n + 1):
        wp = pythagoras_coeff(n)
        reduced = reduce_ap(wp)
        expected = {0: 1} if n == 0 else {}
        ok = reduced == expected
        ok = ok and direct.coeff(2 * n) == eval_w(wp, z)
        if 2 * n + 1 <= direct.order:
            ok = ok and direct.coeff(2 * n + 1).is_zero
        yield CheckResult(
            item=f"pythagoras-coefficient x^{2 * n}",
            passed=ok,
            data={
                "degrees": [2 * n],
                "wpoly": str(wp),
                "reduced": format_reduced(reduced),
            },
        )
