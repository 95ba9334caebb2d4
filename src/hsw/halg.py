"""Words over a monoid-with-zero alphabet and the harmonic algebra built on them.

A word is a finite sequence of monoid elements, written ``e[a1]e[a2]...``;
its weight is its letter count.  Polynomials are exact-rational linear
combinations of words.  Two products live side by side:

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

All coefficients are arbitrary-precision rationals; nothing in this module
rounds.  Polynomial values are immutable by convention (operations build new
dictionaries), so they can be shared freely across threads.  The word-pair
product cache is a process-wide LRU; concurrent recomputation is benign
because every writer stores the identical value.

Text grammar (shared with the command line)::

    poly   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | word | '(' poly ')'
    word   := ('e[' elem ']' | 's[' elem ',' nat ']')+

``*`` denotes the harmonic product; applied to a rational factor it is plain
scaling, so coefficient syntax like ``120*s[z^2,2]s[z,2]`` reads as usual.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Any, Hashable, Iterable, Iterator

from .monoid import (
    ZERO,
    MonoidElement,
    MonoidMismatchError,
    format_element,
    parse_element,
)

__all__ = [
    "Word",
    "EMPTY_WORD",
    "HPoly",
    "LinComb",
    "ParseError",
    "combine",
    "concat",
    "harmonic",
    "star_words",
    "s_word",
    "s_chain",
    "word_sort_key",
    "parse_poly",
    "format_poly",
    "format_terms",
    "format_word",
    "clear_caches",
]

Rational = Fraction | int

_F0 = Fraction(0)
_F1 = Fraction(1)


class ParseError(ValueError):
    """Grammar violation, carrying the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.text = text
        self.pos = pos


class Word(tuple):
    """An immutable word; behaves like a tuple of monoid elements."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[MonoidElement] = ()):
        return super().__new__(cls, letters)

    @property
    def weight(self) -> int:
        return len(self)

    @property
    def nonzero_count(self) -> int:
        """Number of letters different from the zero element (0 for the empty word)."""
        return sum(1 for a in self if not a.is_zero)

    def __add__(self, other) -> "Word":
        return Word(tuple.__add__(self, tuple(other)))

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


EMPTY_WORD = Word()


def word_sort_key(w: Word) -> tuple:
    """Total order on words: weight first, then letterwise."""
    return (len(w), tuple(a.sort_key() for a in w))


def _check_single_instance(letters: Iterable[MonoidElement]) -> None:
    seen: str | None = None
    for a in letters:
        if a.is_zero or a.is_unit:
            continue
        if seen is None:
            seen = a.kind
        elif a.kind != seen:
            raise MonoidMismatchError(
                "letters from different monoid instances in one polynomial"
            )


def combine(pairs: Iterable[tuple[Hashable, Any]]) -> dict:
    """Sum ``(key, coefficient)`` pairs into a map that never stores a zero coefficient."""
    out: dict = {}
    for key, c in pairs:
        prev = out.get(key)
        if prev is not None:
            c = prev + c
        if c:
            out[key] = c
        elif prev is not None:
            del out[key]
    return out


class LinComb:
    """Sparse linear combination: ``terms`` maps monomial keys to nonzero coefficients.

    Coefficients are rationals, or polynomials for
    :class:`~hsw.reg.RegularizedValue`; both kinds are false exactly when zero.
    A subclass fixes its monomials through ``_key`` (normalize and check one
    key) and ``_ONE_KEY`` (the constant monomial), its coefficients through
    ``_coefficient``, and adds its products and its text form.  Instances are
    treated as immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("terms",)

    _ONE_KEY: Hashable
    _coefficient = Fraction

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
        c = Fraction(scalar)
        if not c:
            return self.zero()
        return self._raw({k: v * c for k, v in self.terms.items()})

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

    _ONE_KEY = EMPTY_WORD

    @staticmethod
    def _key(w) -> Word:
        return w if isinstance(w, Word) else Word(w)

    @classmethod
    def from_word(cls, w: Word, coeff: Rational = 1) -> "HPoly":
        if not isinstance(w, Word):
            w = Word(w)
        _check_single_instance(w)
        c = Fraction(coeff)
        return cls._raw({w: c} if c else {})

    def coeff(self, w: Word) -> Fraction:
        return self.terms.get(self._key(w), _F0)

    def words(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.terms.items())

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: word_sort_key(t[0]), reverse=True)

    def max_weight(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def concat(self, other: "HPoly") -> "HPoly":
        return concat(self, other)

    def star(self, other: "HPoly") -> "HPoly":
        return harmonic(self, other)

    def __str__(self) -> str:
        return format_poly(self)


def concat(p: HPoly, q: HPoly) -> HPoly:
    """Bilinear extension of word concatenation."""
    _check_single_instance(a for w in (*p.terms, *q.terms) for a in w)
    out: dict[Word, Fraction] = {}
    for wu, cu in p.terms.items():
        for wv, cv in q.terms.items():
            w = wu + wv
            acc = out.get(w, _F0) + cu * cv
            if acc:
                out[w] = acc
            elif w in out:
                del out[w]
    return HPoly._raw(out)


@functools.lru_cache(maxsize=100_000)
def _star_words_cached(u: Word, v: Word) -> HPoly:
    a = u[0]
    b = v[0]
    ab = a * b
    tail_u = Word(u[1:])
    tail_v = Word(v[1:])
    head = star_words(tail_u, v) + star_words(u, tail_v)
    cross = star_words(tail_u, tail_v)
    out: dict[Word, Fraction] = {}
    for w, c in head.terms.items():
        key = Word((ab,) + w)
        out[key] = out.get(key, _F0) + c
    for w, c in cross.terms.items():
        key = Word((ab, ZERO) + w)
        acc = out.get(key, _F0) - c
        if acc:
            out[key] = acc
        elif key in out:
            del out[key]
    return HPoly._raw({w: c for w, c in out.items() if c})


def star_words(u: Word, v: Word) -> HPoly:
    """Harmonic product of two words."""
    if not u:
        return HPoly.from_word(v)
    if not v:
        return HPoly.from_word(u)
    # The product is commutative; order the pair so the cache sees each once.
    if (len(u), u) <= (len(v), v):
        return _star_words_cached(u, v)
    return _star_words_cached(v, u)


def harmonic(p: HPoly, q: HPoly) -> HPoly:
    """Harmonic product, extended bilinearly from words."""
    out: dict[Word, Fraction] = {}
    for wu, cu in p.terms.items():
        for wv, cv in q.terms.items():
            c = cu * cv
            for w, cw in star_words(wu, wv).terms.items():
                acc = out.get(w, _F0) + c * cw
                if acc:
                    out[w] = acc
                elif w in out:
                    del out[w]
    return HPoly._raw(out)


def s_word(z: MonoidElement, k: int) -> Word:
    """The depth-one block ``s[z,k] = e_z e_0^{k-1}`` of weight ``k``."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("block length k must be a positive integer")
    return Word((z,) + (ZERO,) * (k - 1))


def s_chain(z: MonoidElement, k: int, n: int) -> Word:
    """The weight ``n*k`` word ``s[z^n,k] s[z^{n-1},k] ... s[z,k]`` (empty for n=0)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("chain depth must be a non-negative integer")
    letters: list[MonoidElement] = []
    for i in range(n, 0, -1):
        letters.extend(s_word(z**i, k))
    return Word(letters)


def clear_caches() -> None:
    """Drop the memoized word-pair products (frees memory after large runs)."""
    _star_words_cached.cache_clear()


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def format_word(w: Word) -> str:
    """Canonical text of a word: s-blocks when possible, e-letters otherwise."""
    if not w:
        return "1"
    if w[0].is_zero:
        return "".join(f"e[{format_element(a)}]" for a in w)
    parts = []
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j].is_zero:
            j += 1
        parts.append(f"s[{format_element(w[i])},{j - i}]")
        i = j
    return "".join(parts)


def format_terms(terms: Iterable[tuple[Rational, str]]) -> str:
    """Signed-sum text ``a - 2*b + 1/3`` of ``(coefficient, monomial text)`` pairs, in order.

    An empty monomial text stands for the constant monomial; no pairs give ``0``.
    """
    chunks: list[str] = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
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
            value = value + rhs if tok[1] == "+" else value - rhs

    def parse_term(self) -> HPoly:
        sign = 1
        while self.peek() is not None and self.peek()[1] == "-":
            self.next()
            sign = -sign
        value = self.parse_factor()
        while self.peek() is not None and self.peek()[1] == "*":
            self.next()
            while self.peek() is not None and self.peek()[1] == "-":
                self.next()
                sign = -sign
            value = harmonic(value, self.parse_factor())
        return value if sign > 0 else -value

    def parse_factor(self) -> HPoly:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a factor", self.text, len(self.text))
        kind, val, pos = tok
        if kind == "num":
            self.next()
            return HPoly.rational(Fraction(val))
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
        letters: list[MonoidElement] = []
        while self.peek() is not None and self.peek()[0] == "atom":
            kind, val, pos = self.next()
            inner = val[2:-1]
            try:
                if val[0] == "e":
                    letters.append(parse_element(inner))
                else:
                    left, _, right = inner.partition(",")
                    if not right.strip().isdigit():
                        raise ValueError("s-block needs a positive length")
                    letters.extend(s_word(parse_element(left), int(right)))
            except ValueError as exc:
                raise ParseError(str(exc), self.text, pos) from exc
        try:
            return HPoly.from_word(Word(letters))
        except MonoidMismatchError as exc:
            raise ParseError(str(exc), self.text, self.tokens[self.i - 1][2]) from exc


def parse_poly(text: str) -> HPoly:
    """Parse the polynomial grammar; ``*`` multiplies harmonically."""
    return _Parser(text).parse()
