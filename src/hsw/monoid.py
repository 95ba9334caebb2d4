"""Monoid-with-zero alphabets and their canonical elements.

Every alphabet contains an absorbing element ``0`` and an identity ``1``.
Beyond those two shared elements, three concrete monoids are supported:

* the trivial monoid ``{0, 1}``,
* the free cyclic monoid ``{0, 1, z, z^2, ...}`` with an adjoined zero,
* the exact rationals of modulus at least one, together with ``0``.

Elements are immutable, interned and totally ordered.  Interning also gives
each element a small int ``id``, its index in the append-only letter table
:data:`LETTERS` (``0`` is :data:`ZERO`, ``1`` is :data:`UNIT`, the rest
follow the order of first use), and :func:`mul` multiplies letters by id
through a memoized product table.  Words of the harmonic algebra are exact
tuples of ids: the garbage collector untracks a tuple of ints at its first
collection, while a tuple of element objects stays tracked for life.  Ids
say nothing about the order of elements; ``key`` does.  The rational
instance is restricted to exact rationals (rather than arbitrary
complex numbers of modulus >= 1) so that element equality, and hence word
normalization, stays decidable.

Element literals: ``0``, ``1``, ``z``, ``z^3``, ``5/2``, ``-3``.
"""

from __future__ import annotations

import re
import threading
from fractions import Fraction

__all__ = [
    "MonoidElement",
    "MonoidMismatchError",
    "LETTERS",
    "ZERO",
    "UNIT",
    "cyclic",
    "rational",
    "mul",
    "parse_element",
]


class MonoidMismatchError(ValueError):
    """Raised when elements of different concrete monoids are combined."""


_KIND_ZERO = "zero"
_KIND_UNIT = "unit"
_KIND_CYCLIC = "cyclic"
_KIND_RATIONAL = "rational"

_RANK = {_KIND_ZERO: 0, _KIND_UNIT: 1, _KIND_CYCLIC: 2, _KIND_RATIONAL: 3}

LETTERS: list["MonoidElement"] = []  # id -> element, append-only
_letters_lock = threading.Lock()


class MonoidElement:
    """A canonical element of a monoid with zero.

    Instances are immutable and must be obtained through :data:`ZERO`,
    :data:`UNIT`, :func:`cyclic` or :func:`rational`, which intern them: there
    is exactly one instance per element, so equality and hashing are the
    default ones, by identity.  ``key`` (the element's place in the total
    order), ``text`` (its canonical literal, which :func:`parse_element`
    reads back) and ``id`` (its index in :data:`LETTERS`) are fixed at
    construction.
    """

    __slots__ = ("kind", "value", "key", "text", "id")

    def __init__(self, kind: str, value, text: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        # Sorting and printing words look at every letter: both are stored.
        object.__setattr__(self, "key", (_RANK[kind], value))
        object.__setattr__(self, "text", text)
        with _letters_lock:
            object.__setattr__(self, "id", len(LETTERS))
            LETTERS.append(self)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MonoidElement is immutable")

    @property
    def is_zero(self) -> bool:
        return self.kind == _KIND_ZERO

    @property
    def is_unit(self) -> bool:
        return self.kind == _KIND_UNIT

    def __mul__(self, other: "MonoidElement") -> "MonoidElement":
        if not isinstance(other, MonoidElement):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        if self.is_unit:
            return other
        if other.is_unit:
            return self
        if self.kind != other.kind:
            raise MonoidMismatchError(
                f"cannot multiply {self} ({self.kind}) with {other} ({other.kind})"
            )
        if self.kind == _KIND_CYCLIC:
            return cyclic(self.value + other.value)
        return rational(self.value * other.value)

    def __pow__(self, n: int) -> "MonoidElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return UNIT
        if self.is_zero or self.is_unit:
            return self
        if self.kind == _KIND_CYCLIC:
            return cyclic(self.value * n)
        return rational(self.value**n)

    def __lt__(self, other: "MonoidElement") -> bool:
        return self.key < other.key

    def __le__(self, other: "MonoidElement") -> bool:
        return self.key <= other.key

    def __str__(self) -> str:
        return self.text

    __repr__ = __str__


ZERO = MonoidElement(_KIND_ZERO, 0, "0")
UNIT = MonoidElement(_KIND_UNIT, 0, "1")

_cyclic_cache: dict[int, MonoidElement] = {}
_rational_cache: dict[Fraction, MonoidElement] = {}
_products: dict[tuple[int, int], int] = {}


def mul(a: int, b: int) -> int:
    """The id of the product of the letters with ids ``a`` and ``b``, memoized."""
    ab = _products.get((a, b))
    if ab is None:
        ab = _products[a, b] = (LETTERS[a] * LETTERS[b]).id
    return ab


def cyclic(exponent: int) -> MonoidElement:
    """The element ``z^exponent`` of the free cyclic monoid (``z^0`` is ``1``)."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("cyclic exponent must be a non-negative integer")
    if exponent == 0:
        return UNIT
    elem = _cyclic_cache.get(exponent)
    if elem is None:
        text = "z" if exponent == 1 else f"z^{exponent}"
        elem = _cyclic_cache.setdefault(exponent, MonoidElement(_KIND_CYCLIC, exponent, text))
    return elem


def rational(value) -> MonoidElement:
    """An exact rational element of modulus >= 1 (``1`` canonicalizes to the unit)."""
    q = Fraction(value)
    if q == 0:
        raise ValueError("0 is represented by the dedicated zero element")
    if q == 1:
        return UNIT
    if abs(q) < 1:
        raise ValueError(f"rational element must have modulus >= 1, got {q}")
    elem = _rational_cache.get(q)
    if elem is None:
        elem = _rational_cache.setdefault(q, MonoidElement(_KIND_RATIONAL, q, str(q)))
    return elem


_CYCLIC_RE = re.compile(r"^z(?:\^(\d+))?$")
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_element(text: str) -> MonoidElement:
    """Parse an element literal (``0``, ``1``, ``z``, ``z^4``, ``-5/2``)."""
    text = text.strip()
    if text == "0":
        return ZERO
    if text == "1":
        return UNIT
    m = _CYCLIC_RE.match(text)
    if m:
        return cyclic(int(m.group(1)) if m.group(1) else 1)
    if _RATIONAL_RE.match(text):
        return rational(Fraction(text))
    raise ValueError(f"not an element literal: {text!r}")
