"""Words over a monoid-with-zero alphabet and the harmonic algebra built on them.

A word is a finite sequence of monoid elements, written ``e[a1]e[a2]...``;
its weight is its letter count.  In code a word is a ``str`` with one
character per letter, the letter's id (:data:`hsw.monoid.LETTERS`;
``"\\0"`` is the zero letter and ``"\\1"`` the unit).  A ``str`` caches its
hash, concatenates by copying and is never tracked by the garbage collector,
so the hundreds of thousands of product terms cost dict operations
and collections little.  Nothing assumes one byte per letter.  Printing
reads per-letter text tables, builds no string per term, and makes each
distinct half word and signed coefficient once per call (:class:`_SignedSum`);
ordering ranks letters by ``MonoidElement.key``, never by id, and compares raw
words when the letter table's ids already follow keys, so no output depends on
intern order.

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

It follows from the letter recursion, whose cross terms cancel, and holds for
any letters ``a`` and ``b``, so a leading zero run ``e_0^k = s_{0,k}`` is one
block too.

:class:`LinComb` is the sparse linear combination shared by ``HPoly``, the
W-polynomials of :mod:`hsw.wcalc` and the S/T normal forms of :mod:`hsw.reg`;
:meth:`LinComb.sum` is their one n-ary sum, which copies no partial sum, and
:func:`format_terms` their one signed-sum printer.

Coefficients are arbitrary-precision rationals; nothing here rounds.  A
coefficient is an ``int`` exactly when it is integral and a ``Fraction``
otherwise (:func:`to_rational`).  A word product only adds and subtracts
words, so :func:`star_terms` keeps its coefficients in ``int``, and
:func:`harmonic` sums in ``int`` over one denominator and divides only where
a term is not integral.
Polynomials are immutable by convention, so they can be shared across threads.
Word-pair products are memoized within a budget of stored terms
(:mod:`hsw.memo`); concurrent recomputation only stores an equal value twice.
A product missing from the memo is built in one row of products of its words'
block suffixes, local to the call and rewritten in place from the last block
up; each cell is one merge of three neighbours by the block recursion above,
so a zero letter adds no cell of its own.  Nothing recurses, whatever the word
lengths, and only the product asked for is stored: the suffixes' products die
with the call.  The fill never reads the memo, so it alone fixes the order
of a product's words, whatever the memo holds.

Text grammar (shared with the command line)::

    poly   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | rational | word | '(' poly ')'
    word   := ('e[' elem ']' | 's[' elem ',' nat ']')+

``*`` denotes the harmonic product; applied to a rational factor it is plain
scaling, so coefficient syntax like ``120*s[z^2,2]s[z,2]`` reads as usual.
Juxtaposition only spells one word from ``e[...]``/``s[...]`` atoms; it does
not concatenate polynomials (``e[1](e[0])`` is an error).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import chain, groupby, repeat
from operator import itemgetter
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
    "power_text",
    "to_rational",
    "star_terms",
    "star_words",
    "s_word",
    "s_chain",
    "sum_by_key",
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


Word = str  # one letter id per character; an alias for annotations


def to_word(letters: Iterable[MonoidElement]) -> Word:
    """The word spelled by monoid elements: the string of their ids."""
    return "".join([a.id for a in letters])


def to_letters(w: Word) -> tuple[MonoidElement, ...]:
    """The monoid elements a word spells."""
    return tuple(map(LETTERS.__getitem__, w))


def _instances(w: Iterable[str]) -> set[str]:
    """The monoid instances of the letters ``w``; 0 and 1, which all instances share, add none."""
    return {LETTERS[a].kind for a in set(w) if a > "\1"}


def _check_single_instance(w: Iterable[str], *instances: Iterable[str]) -> None:
    """Raise unless the letters ``w`` and the named ``instances`` are of one monoid instance."""
    if len(_instances(w).union(*instances)) > 1:
        raise MonoidMismatchError("letters from different monoid instances in one polynomial")


def to_rational(c) -> Rational:
    """The exact rational ``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def combine(pairs: Iterable[tuple[Hashable, Any]], out: dict | None = None) -> dict:
    """Sum ``(key, coefficient)`` pairs into a map that never stores a zero coefficient.

    The sum starts from ``out``, which it updates in place, or from an empty map.
    An integral ``Fraction`` is stored as its ``int`` (:func:`to_rational`).
    """
    if out is None:
        out = {}
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

    @classmethod
    def sum(cls, parts: Iterable[LinComb]):
        """The sum of ``parts``: one :func:`combine` pass into a copy of the first's terms."""
        parts = iter(parts)
        out = dict(next(parts, cls.zero()).terms)
        for p in parts:
            combine(p.terms.items(), out)
        return cls._raw(out)

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
        return self.sum((self, other))

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

    _ONE_KEY = ""

    @classmethod
    def from_word(cls, w: Word, coeff: Rational = 1) -> "HPoly":
        _check_single_instance(w)
        c = to_rational(coeff)
        return cls._raw({w: c} if c else {})

    def coeff(self, w: Word) -> Rational:
        return self.terms.get(w, 0)

    def sorted_words(self) -> list[Word]:
        """Words by descending weight, then descending letters in ``MonoidElement.key`` order.

        Two stable passes, letters first and weight second.  When the ids of the
        interned letters rise with their keys (:func:`_rise_with_keys`), which is
        the usual case, the letter pass compares the words themselves; otherwise
        each word translates once to the ranks of this polynomial's letters.
        """
        if _rise_with_keys(tuple(LETTERS.values())):  # a snapshot: other threads may intern
            words = sorted(self.terms, reverse=True)
        else:
            by_key = sorted(set("".join(self.terms)), key=lambda a: LETTERS[a].key)
            rank = str.maketrans(dict(zip(by_key, map(chr, range(len(by_key))))))
            words = sorted(self.terms, key=lambda w: w.translate(rank), reverse=True)
        words.sort(key=len, reverse=True)
        return words

    def __str__(self) -> str:
        return format_poly(self)


def _rise_with_keys(letters: tuple[MonoidElement, ...]) -> bool:
    """Whether letters listed by id rise in ``key`` order, so that raw words compare as keys do."""
    return all(a.key < b.key for a, b in zip(letters, letters[1:]))


def concat(p: HPoly, q: HPoly) -> HPoly:
    """Bilinear extension of word concatenation."""
    _check_single_instance(set().union(*p.terms, *q.terms))
    return HPoly._raw(combine(
        (wu + wv, cu * cv) for wu, cu in p.terms.items() for wv, cv in q.terms.items()
    ))


# A block: one letter and the zero letters after it; a leading zero run is one block.
_BLOCK = re.compile(".\0*", re.DOTALL)


def _merge(p1: Word, p2: Word, p3: Word, first: dict, second: dict, both: dict) -> dict[Word, int]:
    """``p1 first + p2 second - p3 both``, the step of the block recursion."""
    # Each part's words are distinct; the first's go in, the others merge into them,
    # dropping sums that cancel.  Plain loops and ``in`` tests cost less per word
    # than dict(zip(map(p1.__add__, ...))) and out.get.
    out = {}
    for w, c in first.items():
        out[p1 + w] = c
    for w, c in second.items():
        w = p2 + w
        if w in out:
            c += out[w]
            if c:
                out[w] = c
            else:
                del out[w]
        else:
            out[w] = c
    for w, c in both.items():
        w = p3 + w
        if w in out:
            c = out[w] - c
            if c:
                out[w] = c
            else:
                del out[w]
        else:
            out[w] = -c
    return out


@term_bounded_cache()
def _star_words_cached(u: Word, v: Word) -> dict[Word, int]:
    # row[j] is the product of v from its block j on and the suffix of u reached so
    # far, rewritten in place from the last block of u up; diag keeps the cell a
    # write overwrote and right the cell just written.  The cell of s_{a,k}w and
    # s_{b,l}w' is ab 0^{k-1} below + ab 0^{l-1} right - ab 0^{k+l-1} diag.
    # Only (u, v) itself is stored.
    us = _BLOCK.findall(u) if "\0" in u else u  # a zero-free word's blocks are its letters
    vs = _BLOCK.findall(v) if "\0" in v else v
    n = len(vs)
    row = [{v: 1}]
    heads = []  # per block of v: its letter, its zeros, and its zeros with one more
    q = 0
    for b in vs:
        zl = b[1:]
        heads.append((b[0], zl, "\0" + zl))
        q += len(b)
        row.append({v[q:]: 1})
    i = len(u)
    for blk in reversed(us):
        i -= len(blk)
        a, zk = blk[0], blk[1:]
        diag = row[n]
        right = row[n] = {u[i:]: 1}
        for j in range(n - 1, -1, -1):
            b, zl, zl0 = heads[j]
            ab = mul(a, b)
            p1 = ab + zk
            below = row[j]  # w * s_{b,l}w'
            right = row[j] = _merge(p1, ab + zl, p1 + zl0, below, right, diag)
            diag = below
    return row[0]


def _ordered(u: Word, v: Word) -> tuple[Word, Word]:
    # The product is commutative; order the pair so the cache sees each once.
    return (u, v) if (len(u), u) <= (len(v), v) else (v, u)


def star_terms(u: Word, v: Word) -> dict[Word, int]:
    """Integer coefficients of the harmonic product of two words.

    The map may be a memoized one shared with other callers: read, never modify it.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    return _star_words_cached(*_ordered(u, v))


def star_words(u: Word, v: Word) -> HPoly:
    """Harmonic product of two words."""
    _check_single_instance(u + v)
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
    if len(parts) == 1 and parts[0][0] == 1:  # one word-pair product: copy the memoized map
        return HPoly._raw(dict(parts[0][1]))
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


def sum_by_key(pairs: Iterable[tuple[Hashable, HPoly]]) -> dict:
    """``{key: HPoly.sum(polynomials paired with key)}``, zero sums left out."""
    groups = {}
    for key, p in pairs:
        groups.setdefault(key, []).append(p)
    return {key: h for key, ps in groups.items() if (h := HPoly.sum(ps))}


def s_word(z: MonoidElement, k: int) -> Word:
    """The depth-one block ``s[z,k] = e_z e_0^{k-1}`` of weight ``k``."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("block length k must be a positive integer")
    return z.id + "\0" * (k - 1)


def s_chain(z: MonoidElement, k: int, n: int) -> Word:
    """The weight ``n*k`` word ``s[z^n,k] s[z^{n-1},k] ... s[z,k]`` (empty for n=0)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("chain depth must be a non-negative integer")
    return "".join([s_word(z**i, k) for i in range(n, 0, -1)])


def clear_caches() -> None:
    """Drop every memoized result, in every :mod:`hsw.memo` cache (frees memory after large runs)."""
    clear_all()


class _Texts(dict):
    """``key -> make(key)``, each made on its first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


# Per letter ``e[<text>]`` and ``s[<text>``; per block length ``,k]``.
_E_TEXT = _Texts(lambda a: f"e[{LETTERS[a].text}]")
_S_TEXT = _Texts(lambda a: f"s[{LETTERS[a].text}")
_RUN_TEXT = _Texts(lambda k: f",{k}]")
_SLICE = 4096  # words per printing pass, to bound its lists


def format_word(w: Word) -> str:
    """Canonical text of a word: s-blocks when possible, e-letters otherwise."""
    if not w:
        return "1"
    if w[0] == "\0":
        return "".join(map(_E_TEXT.__getitem__, w))
    parts = []
    run = 0
    for a in w:
        if a != "\0":
            if run:
                parts.append(_RUN_TEXT[run])
            parts.append(_S_TEXT[a])
            run = 1
        else:
            run += 1
    parts.append(_RUN_TEXT[run])
    return "".join(parts)


def _prefix(c: Rational, first: bool = False) -> str:
    """The text before a monomial with coefficient ``c``: ``" - 3*"``, ``" + "`` or
    ``" + 1/2*"`` in a later term, ``"-3*"``, ``""`` or ``"1/2*"`` in the first."""
    # numerator and denominator once: Fraction's abs, compare and str cost more
    num, den = c.numerator, c.denominator
    sign = ("" if num > 0 else "-") if first else (" + " if num > 0 else " - ")
    if den != 1:
        return f"{sign}{abs(num)}/{den}*"
    return sign if num == 1 or num == -1 else f"{sign}{abs(num)}*"


class _SignedSum:
    """The text ``a - 2*b + 1/3`` of a sum, built in order.

    Each distinct later-term :func:`_prefix`, and each distinct half of a word, is made once
    per sum.  A word is cut before its first nonzero letter at or after the middle, which no
    s-block spans, or at the middle if it starts with zero and so prints in e-letters.
    """

    def __init__(self):
        self.chunks: list[str] = []
        self.prefixes = _Texts(_prefix)
        self.s_halves = _Texts(format_word)
        self.e_halves = _Texts(lambda h: "".join(map(_E_TEXT.__getitem__, h)))
        self.s_halves[""] = self.e_halves[""] = ""

    def halves(self, ws: list[Word], n: int) -> tuple[Iterable[str], Iterable[str]]:
        """Left and right half texts of the words ``ws`` of weight ``n``, zero-leading ones last."""
        cut = bisect_left(ws, True, key="\1".__gt__)  # "\1" > w from the first zero-leading word on
        mid = (n + 1) // 2
        right = itemgetter(slice(mid, None))
        s_rights = list(map(str.lstrip, map(right, ws[:cut]), repeat("\0")))
        e_words = ws[cut:]
        s, e = self.s_halves.__getitem__, self.e_halves.__getitem__
        s_lefts = map(str.removesuffix, ws, s_rights)  # stops with s_rights, after ``cut`` words
        return (chain(map(s, s_lefts), map(e, map(itemgetter(slice(mid)), e_words))),
                chain(map(s, s_rights), map(e, map(right, e_words))))

    def add(self, c: Rational, mono: str) -> None:
        """One term; an empty ``mono`` is the constant monomial, printed as the magnitude."""
        if self.chunks and mono:
            self.chunks.append(self.prefixes[c] + mono)
        else:
            text = _prefix(c, not self.chunks) + (mono or "1")
            self.chunks.append(text if mono else text.removesuffix("*1"))

    def add_poly(self, p: HPoly, st: str = "") -> None:
        """The terms of ``p`` in :meth:`HPoly.sorted_words` order, each monomial times ``st``.

        After the first term, words of one weight go in a slice at a time, in C-level passes.
        """
        terms, chunks = p.terms, self.chunks
        tail = "*" + st if st else ""
        words = p.sorted_words()
        if "" in terms:  # the constant term sorts last
            words.pop()
        if words and not chunks:
            self.add(terms[words[0]], format_word(words[0]) + tail)
            del words[0]
        for i in range(0, len(words), _SLICE):
            for n, run in groupby(words[i:i + _SLICE], len):
                ws = list(run)
                parts = [map(self.prefixes.__getitem__, map(terms.__getitem__, ws)), *self.halves(ws, n)]
                if tail:
                    parts.append(repeat(tail))
                chunks.extend(chain.from_iterable(zip(*parts)))
        if "" in terms:
            self.add(terms[""], st)

    def __str__(self) -> str:
        return "".join(self.chunks) or "0"


def format_terms(terms: Iterable[tuple[Rational, str]]) -> str:
    """Signed-sum text ``a - 2*b + 1/3`` of ``(coefficient, monomial text)`` pairs, in order.

    An empty monomial text stands for the constant monomial; no pairs give ``0``.
    """
    out = _SignedSum()
    for c, mono in terms:
        out.add(c, mono)
    return str(out)


def power_text(pairs: Iterable[tuple[str, int]]) -> str:
    """``S^2*T`` for ``[("S", 2), ("T", 1)]``; zero powers left out, ``""`` for none."""
    return "*".join(base if e == 1 else f"{base}^{e}" for base, e in pairs if e)


def format_poly(p: HPoly) -> str:
    """Canonical text; terms in descending word order, parseable back."""
    out = _SignedSum()
    out.add_poly(p)
    return str(out)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)"
    r"|(?P<atom>[es]\[[^\]]*\])"
    r"|(?P<op>[-+*()])"
    r"|(?P<end>\Z))"
)


def _atom(text: str) -> Word:
    """The letters of an atom ``e[elem]`` or ``s[elem,k]``."""
    inner = text[2:-1]
    if text[0] == "e":
        return parse_element(inner).id
    left, _, right = inner.partition(",")
    if not right.strip().isdigit():
        raise ValueError("s-block needs a positive length")
    try:
        return s_word(parse_element(left), int(right))
    except OverflowError:
        raise ValueError("s-block length too large") from None


class _Parser:
    """Recursive descent over ``(kind, text, position)`` tokens, the last of kind ``end``."""

    def __init__(self, text: str):
        self.text, self.tokens, self.i = text, [], 0
        pos = 0
        while not self.tokens or self.tokens[-1][0] != "end":
            if (m := _TOKEN_RE.match(text, pos)) is None:
                raise ParseError("unexpected character", text, pos)
            self.tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
            pos = m.end()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def at(self, pos: int, read, *args):
        """``read(*args)``, with what it raises turned into a parse error at ``pos``."""
        try:
            return read(*args)
        except (ValueError, ZeroDivisionError) as exc:
            message = str(exc) if isinstance(exc, ValueError) else "division by zero"
            raise ParseError(message, self.text, pos) from exc

    def parse(self) -> HPoly:
        value = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.text, pos)
        return value

    def parse_expr(self) -> HPoly:
        value = self.parse_term()
        if self.peek()[1] not in ("+", "-"):
            return value  # a lone term: no copy
        terms = dict(value.terms)
        # Per monoid instance, the words of the running sum with letters from it, counted
        # at the first + or -: a term is checked against the sum by reading the term alone.
        held = None
        while (tok := self.peek())[1] in ("+", "-"):
            self.i += 1
            rhs = self.parse_term()
            if held is None:
                held = Counter(k for w in terms for k in _instances(w))
            self.at(tok[2], _check_single_instance, set().union(*rhs.terms), +held)
            for w, c in rhs.terms.items():
                had = w in terms
                combine([(w, c if tok[1] == "+" else -c)], terms)
                if had != (w in terms):
                    (held.subtract if had else held.update)(_instances(w))
        return HPoly._raw(terms)

    def parse_term(self) -> HPoly:
        value = self.parse_factor()
        while (tok := self.peek())[1] == "*":
            self.i += 1
            value = self.at(tok[2], harmonic, value, self.parse_factor())
        return value

    def parse_factor(self) -> HPoly:
        negate = False
        while (tok := self.peek())[1] == "-":  # a loop, so any number of signs parse
            self.i += 1
            negate = not negate
        kind, val, pos = tok
        self.i += 1
        if kind == "atom":  # juxtaposed atoms spell one word
            letters = [self.at(pos, _atom, val)]
            while (tok := self.peek())[0] == "atom":
                self.i += 1
                pos = tok[2]
                letters.append(self.at(pos, _atom, tok[1]))
            value = self.at(pos, HPoly.from_word, "".join(letters))
        elif kind == "num":
            value = HPoly.rational(self.at(pos, Fraction, val))
        elif val == "(":
            value = self.parse_expr()
            if self.peek()[1] != ")":
                raise ParseError("expected ')'", self.text, pos)
            self.i += 1
        else:
            message = "expected a factor" if kind == "end" else f"unexpected token {val!r}"
            raise ParseError(message, self.text, pos)
        return -value if negate else value


def parse_poly(text: str) -> HPoly:
    """Parse the polynomial grammar; ``*`` multiplies harmonically."""
    return _Parser(text).parse()
