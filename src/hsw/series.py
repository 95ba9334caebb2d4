"""Truncated formal power series with harmonic-polynomial coefficients.

A series carries an explicit truncation order (inclusive) and stores only the
coefficients it actually knows; asking for a coefficient beyond the order is
an error rather than a silent zero.  Binary operations reconcile operands to
the smaller order.  Multiplication is the Cauchy product with the harmonic
product on coefficients, so all arithmetic stays exact.

``exp_star`` is computed degree by degree through the differential
recurrence g' = f' * g: one :meth:`~hsw.halg.LinComb.sum` of harmonic
products per degree instead of nested powers.
"""

from __future__ import annotations

from fractions import Fraction

from .halg import HPoly, harmonic, sum_by_key

__all__ = ["DEFAULT_ORDER", "OrderError", "Series1", "Series2"]

DEFAULT_ORDER = 12


class OrderError(ValueError):
    """Access past the truncation order of a series."""


class _Series:
    """Order bookkeeping shared by both series types.

    A subclass fixes the exponent key (an int, or an ``(i, j)`` pair) through
    ``_in_range``, ``_degree`` (total degree), ``_add_keys`` and
    ``_prefix`` (the monomial text in front of a coefficient).
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict | None, order: int):
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = coeffs or {}
        if not all(self._in_range(key, order) for key in coeffs):
            raise OrderError("coefficient degree outside truncation range")
        self.coeffs = {key: p for key, p in coeffs.items() if p}
        self.order = order

    def _new(self, coeffs: dict, order: int):
        return type(self)(coeffs, order)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _match(self, other) -> int:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        return min(self.order, other.order)

    def _upto(self, order: int) -> list:
        return [(k, p) for k, p in self.coeffs.items() if self._degree(k) <= order]

    def add(self, other):
        order = self._match(other)
        return self._new(sum_by_key(self._upto(order) + other._upto(order)), order)

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, c: Fraction | int):
        return self._new({k: p * c for k, p in self.coeffs.items()}, self.order)

    def star(self, other):
        """Cauchy product with harmonic multiplication of coefficients."""
        order = self._match(other)
        others = other._upto(order)
        products = (
            (key, harmonic(p, q))
            for i, p in self._upto(order)
            for j, q in others
            if self._degree(key := self._add_keys(i, j)) <= order
        )
        return self._new(sum_by_key(products), order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self) -> str:
        return " + ".join(f"{self._prefix(k)}({p})" for k, p in sorted(self.coeffs.items())) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, {self})"


class Series1(_Series):
    """Univariate truncated series in ``x``; ``coeffs[n]`` is the coefficient of ``x**n``."""

    __slots__ = ()

    # An attribute of each class, so that profilers (perfbench's tracer) can
    # wrap the two products separately.
    star = _Series.star

    @staticmethod
    def _in_range(n: int, order: int) -> bool:
        return 0 <= n <= order

    @staticmethod
    def _degree(n: int) -> int:
        return n

    @staticmethod
    def _add_keys(i: int, j: int) -> int:
        return i + j

    def _prefix(self, n: int) -> str:
        return f"x^{n}*" if n else ""

    @classmethod
    def zero(cls, order: int) -> "Series1":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "Series1":
        return cls({0: HPoly.one()}, order)

    def coeff(self, n: int) -> HPoly:
        if not self._in_range(n, self.order):
            raise OrderError(f"degree {n} beyond truncation order {self.order}")
        return self.coeffs.get(n, HPoly.zero())

    def mul_poly(self, h: HPoly) -> "Series1":
        """Multiply every coefficient harmonically by a fixed polynomial."""
        return Series1({n: harmonic(h, p) for n, p in self.coeffs.items()}, self.order)

    def exp_star(self) -> "Series1":
        """Exponential with respect to the harmonic product (zero constant term)."""
        if 0 in self.coeffs:
            raise ValueError("exp_star needs a zero constant term")
        f = self.coeffs
        out: dict[int, HPoly] = {0: HPoly.one()}
        for n in range(1, self.order + 1):
            terms = (harmonic(f[k] * k, out[n - k]) for k in range(1, n + 1) if k in f)
            out[n] = HPoly.sum(terms) / n
        return Series1(out, self.order)

    def derivative(self) -> "Series1":
        """Formal derivative; the output order drops by one."""
        if self.order == 0:
            return Series1.zero(0)
        out = {n - 1: p * n for n, p in self.coeffs.items() if n >= 1}
        return Series1(out, self.order - 1)

    def shift_up(self, k: int) -> "Series1":
        """Multiply by ``x**k``; knowledge extends to order + k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series1({n + k: p for n, p in self.coeffs.items()}, self.order + k)

    def negate_argument(self) -> "Series1":
        """Substitute ``-x`` for ``x`` (flip odd-degree coefficients)."""
        return Series1({n: (p if n % 2 == 0 else -p) for n, p in self.coeffs.items()}, self.order)


class Series2(_Series):
    """Bivariate truncated series in ``x`` and ``y``; keys are ``(i, j)`` with ``i + j <= order``."""

    __slots__ = ()

    star = _Series.star

    @staticmethod
    def _in_range(key: tuple[int, int], order: int) -> bool:
        i, j = key
        return i >= 0 and j >= 0 and i + j <= order

    @staticmethod
    def _degree(key: tuple[int, int]) -> int:
        return key[0] + key[1]

    @staticmethod
    def _add_keys(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    def _prefix(self, key: tuple[int, int]) -> str:
        return "".join(f"{v}^{e}*" for v, e in zip("xy", key) if e)

    def coeff(self, i: int, j: int) -> HPoly:
        if not self._in_range((i, j), self.order):
            raise OrderError(f"degree ({i},{j}) beyond truncation order {self.order}")
        return self.coeffs.get((i, j), HPoly.zero())
