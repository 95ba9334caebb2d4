"""Truncated formal power series with harmonic-polynomial coefficients.

A series carries an explicit truncation order (inclusive) and stores only the
coefficients it actually knows; asking for a coefficient beyond the order is
an error rather than a silent zero.  Binary operations reconcile operands to
the smaller order.  Multiplication is the Cauchy product with the harmonic
product on coefficients, so all arithmetic stays exact.

``exp_star`` is computed degree by degree through the differential
recurrence g' = f' * g, which needs one harmonic product per degree instead
of nested powers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .halg import HPoly, combine, harmonic

__all__ = ["DEFAULT_ORDER", "OrderError", "Series1", "Series2"]

DEFAULT_ORDER = 12


class OrderError(ValueError):
    """Access past the truncation order of a series."""


def _clean(coeffs: dict) -> dict:
    return {key: poly for key, poly in coeffs.items() if not poly.is_zero}


class _Series:
    """Order bookkeeping shared by both series types.

    A subclass fixes the exponent key (an int, or an ``(i, j)`` pair) through
    ``_in_range``, ``_degree`` (total degree), ``_add_keys`` and
    ``_prefix`` (the monomial text in front of a coefficient); ``var`` holds
    its variable name, or the pair of names.
    """

    __slots__ = ("coeffs", "order", "var")

    def __init__(self, coeffs: dict | None, order: int, var):
        if order < 0:
            raise ValueError("order must be non-negative")
        coeffs = coeffs or {}
        if not all(self._in_range(key, order) for key in coeffs):
            raise OrderError("coefficient degree outside truncation range")
        self.coeffs = _clean(coeffs)
        self.order = order
        self.var = var

    def _new(self, coeffs: dict, order: int):
        return type(self)(coeffs, order, self.var)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _match(self, other) -> int:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
        return min(self.order, other.order)

    def _upto(self, order: int) -> list:
        return [(k, p) for k, p in self.coeffs.items() if self._degree(k) <= order]

    def add(self, other):
        order = self._match(other)
        return self._new(combine(self._upto(order) + other._upto(order)), order)

    __add__ = add

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, c: Fraction | int):
        return self._new({k: p * c for k, p in self.coeffs.items()}, self.order)

    def star(self, other):
        """Cauchy product with harmonic multiplication of coefficients."""
        order = self._match(other)
        others = other._upto(order)
        products = []
        for i, p in self._upto(order):
            for j, q in others:
                key = self._add_keys(i, j)
                if self._degree(key) <= order:
                    products.append((key, harmonic(p, q)))
        return self._new(combine(products), order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.var == other.var and self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{self._prefix(k)}({p})" for k, p in sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, {self})"


class Series1(_Series):
    """Univariate truncated series; ``coeffs[n]`` is the coefficient of ``var**n``."""

    __slots__ = ()

    def __init__(self, coeffs: dict[int, HPoly] | None, order: int, var: str = "x"):
        super().__init__(coeffs, order, var)

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
        return f"{self.var}^{n}*" if n else ""

    @classmethod
    def zero(cls, order: int, var: str = "x") -> "Series1":
        return cls({}, order, var)

    @classmethod
    def one(cls, order: int, var: str = "x") -> "Series1":
        return cls({0: HPoly.one()}, order, var)

    def coeff(self, n: int) -> HPoly:
        if not self._in_range(n, self.order):
            raise OrderError(f"degree {n} beyond truncation order {self.order}")
        return self.coeffs.get(n, HPoly.zero())

    def mul_poly(self, h: HPoly) -> "Series1":
        """Multiply every coefficient harmonically by a fixed polynomial."""
        return Series1({n: harmonic(h, p) for n, p in self.coeffs.items()}, self.order, self.var)

    def exp_star(self) -> "Series1":
        """Exponential with respect to the harmonic product (zero constant term)."""
        if 0 in self.coeffs:
            raise ValueError("exp_star needs a zero constant term")
        out: dict[int, HPoly] = {0: HPoly.one()}
        for n in range(1, self.order + 1):
            acc = HPoly.zero()
            for k in range(1, n + 1):
                fk = self.coeffs.get(k)
                if fk is None:
                    continue
                acc = acc + harmonic(fk * k, out.get(n - k, HPoly.zero()))
            out[n] = acc / n
        return Series1(out, self.order, self.var)

    def derivative(self) -> "Series1":
        """Formal derivative; the output order drops by one."""
        if self.order == 0:
            return Series1.zero(0, self.var)
        out = {n - 1: p * n for n, p in self.coeffs.items() if n >= 1}
        return Series1(out, self.order - 1, self.var)

    def shift_up(self, k: int) -> "Series1":
        """Multiply by ``var**k``; knowledge extends to order + k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        return Series1({n + k: p for n, p in self.coeffs.items()}, self.order + k, self.var)

    def negate_argument(self) -> "Series1":
        """Substitute ``-var`` for ``var`` (flip odd-degree coefficients)."""
        return Series1(
            {n: (p if n % 2 == 0 else -p) for n, p in self.coeffs.items()},
            self.order,
            self.var,
        )

    def shift_sum(self) -> "Series2":
        """Substitute ``x + y`` for the variable: binomially spread coefficients."""
        out: dict[tuple[int, int], HPoly] = {}
        for n, p in self.coeffs.items():
            for i in range(n + 1):
                out[(i, n - i)] = p * comb(n, i)
        return Series2(out, self.order)

class Series2(_Series):
    """Bivariate truncated series; keys are ``(i, j)`` with ``i + j <= order``."""

    __slots__ = ()

    def __init__(
        self,
        coeffs: dict[tuple[int, int], HPoly] | None,
        order: int,
        vars: tuple[str, str] = ("x", "y"),
    ):
        super().__init__(coeffs, order, vars)

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
        return "".join(f"{v}^{e}*" for v, e in zip(self.var, key) if e)

    @classmethod
    def from_x(cls, f: Series1) -> "Series2":
        """Inject a univariate series as a series in the first variable."""
        return cls({(n, 0): p for n, p in f.coeffs.items()}, f.order)

    @classmethod
    def from_y(cls, f: Series1) -> "Series2":
        return cls({(0, n): p for n, p in f.coeffs.items()}, f.order)

    def coeff(self, i: int, j: int) -> HPoly:
        if not self._in_range((i, j), self.order):
            raise OrderError(f"degree ({i},{j}) beyond truncation order {self.order}")
        return self.coeffs.get((i, j), HPoly.zero())
