"""Words over a monoid-with-zero alphabet and the harmonic algebra built on them.

A word is a finite sequence of monoid elements, written ``e[a1]e[a2]...``;
its weight is its letter count.  In code a word is an exact tuple of its
letters' ids (:data:`hsw.monoid.LETTERS`; ``0`` is the zero letter and ``1``
the unit), which the garbage collector untracks, so the hundreds of thousands
of memoized product terms cost it nothing.  Printing reads per-id text
tables; ordering ranks letters by ``MonoidElement.key``, never by id, so no
output depends on the order in which letters were interned.

Polynomials are exact-rational linear combinations of words.  Two products
live side by side:

* plain concatenation, which is weight-additive and non-commutative, and
* the harmonic product ``*``, the commutative quasi-shuffle determined by
  ``1 * w = w * 1 = w`` and

      e_a w * e_b w' = e_{ab}( w * e_b w'  +  e_a w * w'  -  e_0 (w * w') )

Unlike the plain stuffle, the merge branch keeps the merged letter *and*
inserts the zero letter behind it, so every term of ``u * v`` has weight
``weight(u) + weight(v)``.

Depth-one blocks ``s[z,k] = e_z e_0^{k-1}`` give the familiar index
notation; in terms of them the recursion reads

    s_{a,k} w * s_{b,l} w' =
        s_{ab,k}(w * s_{b,l}w') + s_{ab,l}(s_{a,k}w * w') - s_{ab,k+l}(w * w').

:class:`LinComb` is the sparse linear combination shared by ``HPoly``, the
W-polynomials of :mod:`hsw.wcalc` and the S/T normal forms of :mod:`hsw.reg`;
:func:`format_terms` is their one signed-sum printer.

Coefficients are arbitrary-precision rationals; nothing here rounds.  A
coefficient is an ``int`` exactly when it is integral and a ``Fraction``
otherwise (:func:`to_rational`).  A word product only adds and subtracts
words, so :func:`star_terms` keeps its coefficients in ``int``, and
:func:`harmonic` sums in ``int`` over one denominator and divides only where
a term is not integral.
Polynomials are immutable by convention, so they can be shared across threads.
Word-pair products are memoized within a budget of stored terms
(:mod:`hsw.memo`); concurrent recomputation only stores an equal value twice.

Text grammar (shared with the command line)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | word | '(' poly ')'
    word   := ('e[' elem ']' | 's[' elem ',' nat ']')+

``*`` denotes the harmonic product; applied to a rational factor it is plain
scaling, so coefficient syntax like ``120*s[z^2,2]s[z,2]`` reads as usual.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any, Hashable, Iterable

from .monoid import LETTERS, MonoidElement, MonoidMismatchError, mul, parse_element
from .memo import clear_all, term_bounded_cache

__all__ = [
    "HPoly",
    "LinComb",
    "ParseError",
    "combine",
    "concat",
    "harmonic",
    "integer_sum",
    "over",
    "to_rational",
    "star_terms",
    "star_words",
    "s_word",
    "s_chain",
    "to_word",
    "to_letters",
    "parse_poly",
    "format_poly",
    "format_terms",
    "format_word",
    "clear_caches",
]

Rational = Fraction | int

_F1 = Fraction(1)


class ParseError(ValueError):
    """Grammar violation, carrying the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


Word = tuple[int, ...]  # letter ids; an alias for annotations


def to_word(letters: Iterable[MonoidElement]) -> Word:
    """The word spelled by monoid elements: the tuple of their ids."""
    return tuple([a.id for a in letters])


def to_letters(w: Word) -> tuple[MonoidElement, ...]:
    """The monoid elements a word spells."""
    return tuple(map(LETTERS.__getitem__, w))


def _check_single_instance(w: Iterable[int]) -> None:
    if len({LETTERS[a].kind for a in set(w) if a > 1}) > 1:
        raise MonoidMismatchError("letters from different monoid instances in one polynomial")


def to_rational(c) -> Rational:
    """The exact rational ``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def combine(pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Sum ``(key, coefficient)`` pairs into a map that never stores a zero coefficient.

    An integral ``Fraction`` is stored as its ``int`` (:func:`to_rational`).
    """
    out: dict = {}
    for key, c in pairs:
        prev = out.get(key)
        if prev is not None:
            c = prev + c
        if c:
            out[key] = c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
        elif prev is not None:
            del out[key]
    return out


class LinComb:
    """Sparse linear combination: ``terms`` maps monomial keys to nonzero coefficients.

    Coefficients are rationals, or polynomials for
    :class:`~hsw.reg.RegularizedValue`; both kinds are false exactly when zero.
    A rational coefficient is an ``int`` exactly when it is integral
    (:func:`to_rational`): sums and scalings keep that form.
    A subclass fixes its monomials through ``_key`` (normalize and check one
    key) and ``_ONE_KEY`` (the constant monomial), its coefficients through
    ``_coefficient``, and adds its products and its text form.  Instances are
    treated as immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    _ONE_KEY: Hashable
    _coefficient = staticmethod(to_rational)

    @staticmethod
    def _key(key):
        return key

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = combine((self._key(k), self._coefficient(c)) for k, c in items)

    @classmethod
    def _raw(cls, terms: dict):
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.rational(1)

    @classmethod
    def rational(cls, c):
        """The constant ``c``, a multiple of the constant monomial."""
        c = cls._coefficient(c)
        return cls._raw({cls._ONE_KEY: c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        """The number of terms."""
        return len(self.terms)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        # combine() inlined: polynomial addition sits on every hot path.
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            if prev is not None:
                c = prev + c
                if not c:
                    del out[k]
                    continue
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator
            out[k] = c
        return self._raw(out)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        """Scaling by a rational; subclasses with a product extend this."""
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        c = to_rational(scalar)
        if not c:
            return self.zero()
        coefficient = self._coefficient
        return self._raw({k: coefficient(v * c) for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (_F1 / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.rational(other)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable container; not hashable

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class HPoly(LinComb):
    """Exact-rational linear combination of words."""

    __slots__ = ()

    _ONE_KEY = ()
    _key = tuple

    @classmethod
    def from_word(cls, w: Word, coeff: Rational = 1) -> "HPoly":
        w = tuple(w)
        _check_single_instance(w)
        c = to_rational(coeff)
        return cls._raw({w: c} if c else {})

    def coeff(self, w: Word) -> Rational:
        return self.terms.get(self._key(w), 0)

    def sorted_terms(self) -> list[tuple[Word, Rational]]:
        """Terms by descending weight, then descending letters in ``MonoidElement.key`` order."""
        # One character per letter, its rank among this polynomial's letters.
        ids = sorted(set().union(*self.terms), key=lambda a: LETTERS[a].key)
        rank = dict(zip(ids, map(chr, range(len(ids))))).__getitem__
        return sorted(
            self.terms.items(), key=lambda t: (len(t[0]), "".join(map(rank, t[0]))), reverse=True
        )

    def __str__(self) -> str:
        return format_poly(self)


def concat(p: HPoly, q: HPoly) -> HPoly:
    """Bilinear extension of word concatenation."""
    _check_single_instance(a for w in (*p.terms, *q.terms) for a in w)
    return HPoly._raw(combine(
        (wu + wv, cu * cv) for wu, cu in p.terms.items() for wv, cv in q.terms.items()
    ))


@term_bounded_cache()
def _star_words_cached(u: Word, v: Word) -> dict[Word, int]:
    ab = mul(u[0], v[0])
    tail_u = u[1:]
    tail_v = v[1:]
    out: dict[Word, int] = {}
    for part in (star_terms(tail_u, v), star_terms(u, tail_v)):
        for w, c in part.items():
            key = (ab,) + w
            out[key] = out.get(key, 0) + c
    for w, c in star_terms(tail_u, tail_v).items():
        key = (ab, 0) + w
        out[key] = out.get(key, 0) - c
    return {w: c for w, c in out.items() if c}


def star_terms(u: Word, v: Word) -> dict[Word, int]:
    """Integer coefficients of the harmonic product of two words.

    The map may be a memoized one shared with other callers: read, never modify it.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    # The product is commutative; order the pair so the cache sees each once.
    if (len(u), u) <= (len(v), v):
        return _star_words_cached(u, v)
    return _star_words_cached(v, u)


def star_words(u: Word, v: Word) -> HPoly:
    """Harmonic product of two words."""
    _check_single_instance((*u, *v))
    return integer_sum([(1, star_terms(u, v))])


def harmonic(p: HPoly, q: HPoly) -> HPoly:
    """Harmonic product, extended bilinearly from words."""
    return integer_sum(
        (cu * cv, star_terms(wu, wv)) for wu, cu in p.terms.items() for wv, cv in q.terms.items()
    )


def integer_sum(parts: Iterable[tuple[Rational, dict[Word, int]]]) -> HPoly:
    """``sum c * h`` over pairs of a rational ``c`` and integer coefficients ``h``.

    The sum runs in integers over the common denominator of the ``c``; an
    output coefficient is an ``int`` when it is integral (:func:`to_rational`).
    """
    parts = list(parts)
    den = math.lcm(*(c.denominator for c, _ in parts))
    out: dict[Word, int] = {}
    for c, h in parts:
        scale = c.numerator * (den // c.denominator)
        for w, n in h.items():
            out[w] = out.get(w, 0) + scale * n
    return HPoly._raw(over(out, den))


def over(nums: dict[Word, int], den: int) -> dict[Word, Rational]:
    """The nonzero ``n / den`` of ``nums``, each an ``int`` when integral (:func:`to_rational`)."""
    if den == 1:
        return {w: n for w, n in nums.items() if n}
    return {w: n // den if n % den == 0 else Fraction(n, den) for w, n in nums.items() if n}


def s_word(z: MonoidElement, k: int) -> Word:
    """The depth-one block ``s[z,k] = e_z e_0^{k-1}`` of weight ``k``."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("block length k must be a positive integer")
    return (z.id,) + (0,) * (k - 1)


def s_chain(z: MonoidElement, k: int, n: int) -> Word:
    """The weight ``n*k`` word ``s[z^n,k] s[z^{n-1},k] ... s[z,k]`` (empty for n=0)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("chain depth must be a non-negative integer")
    return sum((s_word(z**i, k) for i in range(n, 0, -1)), ())


def clear_caches() -> None:
    """Drop every memoized result, in every :mod:`hsw.memo` cache (frees memory after large runs)."""
    clear_all()


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


class _Texts(dict):
    """``key -> make(key)``, each made on its first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


# Per letter id ``e[<text>]`` and ``s[<text>``; per block length ``,k]``.
_E_TEXT = _Texts(lambda a: f"e[{LETTERS[a].text}]")
_S_TEXT = _Texts(lambda a: f"s[{LETTERS[a].text}")
_RUN_TEXT = _Texts(lambda k: f",{k}]")


def format_word(w: Word) -> str:
    """Canonical text of a word: s-blocks when possible, e-letters otherwise."""
    if not w:
        return "1"
    if w[0] == 0:
        return "".join(map(_E_TEXT.__getitem__, w))
    parts = []
    run = 0
    for a in w:
        if a:
            if run:
                parts.append(_RUN_TEXT[run])
            parts.append(_S_TEXT[a])
            run = 1
        else:
            run += 1
    parts.append(_RUN_TEXT[run])
    return "".join(parts)


def format_terms(terms: Iterable[tuple[Rational, str]]) -> str:
    """Signed-sum text ``a - 2*b + 1/3`` of ``(coefficient, monomial text)`` pairs, in order.

    An empty monomial text stands for the constant monomial; no pairs give ``0``.
    """
    chunks: list[str] = []
    for c, mono in terms:
        # numerator and denominator once: Fraction's abs, compare and str cost more
        num, den = c.numerator, c.denominator
        mag = f"{abs(num)}/{den}" if den != 1 else str(abs(num))
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if num > 0 else f" - {body}")
    return "".join(chunks) or "0"


def format_poly(p: HPoly) -> str:
    """Canonical text; terms in descending word order, parseable back."""
    return format_terms((c, format_word(w) if w else "") for w, c in p.sorted_terms())


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<atom>[es]\[[^\]]*\])"
    r"|(?P<op>[-+*()]))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ParseError("unexpected character", text, pos)
                break
            for kind in ("num", "atom", "op"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.i += 1
        return tok

    def parse(self) -> HPoly:
        value = self.parse_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", self.text, tok[2])
        return value

    def parse_expr(self) -> HPoly:
        value = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in "+-":
                return value
            self.next()
            rhs = self.parse_term()
            try:
                _check_single_instance(set().union(*value.terms, *rhs.terms))
            except MonoidMismatchError as exc:
                raise ParseError(str(exc), self.text, tok[2]) from exc
            value = value + rhs if tok[1] == "+" else value - rhs

    def parse_term(self) -> HPoly:
        sign = 1
        while self.peek() is not None and self.peek()[1] == "-":
            self.next()
            sign = -sign
        value = self.parse_factor()
        while self.peek() is not None and self.peek()[1] == "*":
            pos = self.next()[2]
            while self.peek() is not None and self.peek()[1] == "-":
                self.next()
                sign = -sign
            factor = self.parse_factor()
            try:
                value = harmonic(value, factor)
            except MonoidMismatchError as exc:
                raise ParseError(str(exc), self.text, pos) from exc
        return value if sign > 0 else -value

    def parse_factor(self) -> HPoly:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a factor", self.text, len(self.text))
        kind, val, pos = tok
        if kind == "num":
            self.next()
            try:
                return HPoly.rational(Fraction(val))
            except ZeroDivisionError as exc:
                raise ParseError("division by zero", self.text, pos) from exc
        if kind == "atom":
            return self.parse_word()
        if val == "(":
            self.next()
            inner = self.parse_expr()
            closing = self.peek()
            if closing is None or closing[1] != ")":
                raise ParseError("expected ')'", self.text, pos)
            self.next()
            return inner
        raise ParseError(f"unexpected token {val!r}", self.text, pos)

    def parse_word(self) -> HPoly:
        w: list[int] = []
        while self.peek() is not None and self.peek()[0] == "atom":
            kind, val, pos = self.next()
            inner = val[2:-1]
            try:
                if val[0] == "e":
                    w.append(parse_element(inner).id)
                else:
                    left, _, right = inner.partition(",")
                    if not right.strip().isdigit():
                        raise ValueError("s-block needs a positive length")
                    w.extend(s_word(parse_element(left), int(right)))
            except ValueError as exc:
                raise ParseError(str(exc), self.text, pos) from exc
            except ZeroDivisionError as exc:
                raise ParseError("division by zero", self.text, pos) from exc
            except OverflowError as exc:
                raise ParseError("s-block length too large", self.text, pos) from exc
        try:
            return HPoly.from_word(w)
        except MonoidMismatchError as exc:
            raise ParseError(str(exc), self.text, self.tokens[self.i - 1][2]) from exc


def parse_poly(text: str) -> HPoly:
    """Parse the polynomial grammar; ``*`` multiplies harmonically."""
    return _Parser(text).parse()
