import gc
import itertools
import operator
import random
import sys
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsw import halg
from hsw.halg import (
    HPoly,
    ParseError,
    Word,
    _rise_with_keys,
    _SignedSum,
    concat,
    format_poly,
    format_terms,
    format_word,
    harmonic,
    parse_poly,
    power_text,
    s_chain,
    s_word,
    star_terms,
    star_words,
    to_letters,
    to_word,
)
from hsw.monoid import LETTERS, UNIT, ZERO, MonoidMismatchError, cyclic, rational
from hsw.reg import RegularizedValue, substitute_st, z_st
from hsw.wcalc import WPoly, eval_w, pythagoras_coeff

from _support import (
    ALPHABET_01,
    ALPHABET_01Z,
    ALPHABET_01ZZ2,
    ALPHABET_QQ,
    random_poly,
    random_word,
    reference_quasi_shuffle,
    reference_star_words,
)

Z = cyclic(1)


def word(*letters) -> Word:
    return to_word(letters)


def poly(*pairs) -> HPoly:
    return HPoly(list(pairs))


e0 = HPoly.from_word(word(ZERO))
e1 = HPoly.from_word(word(UNIT))
ez = HPoly.from_word(word(Z))


class TestWord:
    def test_weight_and_nonzero_count(self):
        w = s_chain(Z, 2, 3)
        assert w == word(cyclic(3), ZERO, cyclic(2), ZERO, Z, ZERO)
        assert len(w) == 6
        assert len(w) - w.count(ZERO.id) == 3
        assert s_chain(Z, 2, 0) == ""

    def test_s_word(self):
        assert s_word(Z, 1) == word(Z)
        assert s_word(UNIT, 2) == word(UNIT, ZERO)
        assert s_word(cyclic(2), 4) == word(cyclic(2), ZERO, ZERO, ZERO)
        with pytest.raises(ValueError):
            s_word(Z, 0)

    def test_mixed_instances_rejected(self):
        with pytest.raises(MonoidMismatchError):
            HPoly.from_word(word(Z, rational(2)))


class TestConcat:
    def test_words(self):
        assert concat(ez, e0) == HPoly.from_word(word(Z, ZERO))

    def test_unit(self):
        w = HPoly.from_word(s_chain(Z, 2, 2))
        assert concat(HPoly.one(), w) == w
        assert concat(w, HPoly.one()) == w

    def test_bilinearity(self):
        p = e1 * 2 - e0
        assert concat(p, e1) == poly((word(UNIT, UNIT), 2), (word(ZERO, UNIT), -1))


class TestHarmonic:
    def test_unit_law(self):
        w = HPoly.from_word(s_chain(Z, 2, 3))
        assert harmonic(HPoly.one(), w) == w
        assert harmonic(w, HPoly.one()) == w

    def test_zero_prefix_concatenates(self):
        # e_0^m * w = e_0^m w for any w
        for m in (1, 2, 3):
            prefix = HPoly.from_word(word(*([ZERO] * m)))
            for w in (word(UNIT), s_word(Z, 2), s_chain(Z, 2, 2)):
                assert harmonic(prefix, HPoly.from_word(w)) == concat(
                    prefix, HPoly.from_word(w)
                )

    def test_depth_one_unfolding(self):
        # one unfolding of the defining recursion with both words e_1
        assert harmonic(e1, e1) == poly((word(UNIT, UNIT), 2), (word(UNIT, ZERO), -1))

    def test_s_block_unfolding(self):
        s = HPoly.from_word(s_word(Z, 2))
        z2 = cyclic(2)
        expected = poly((s_word(z2, 2) + s_word(Z, 2), 2), (s_word(z2, 4), -1))
        assert harmonic(s, s) == expected

    def test_weight_homogeneity(self):
        rng = random.Random(7)
        for _ in range(30):
            u = random_word(rng, rng.randint(0, 5), ALPHABET_01Z)
            v = random_word(rng, rng.randint(0, 5), ALPHABET_01Z)
            product = harmonic(HPoly.from_word(u), HPoly.from_word(v))
            assert all(len(w) == len(u) + len(v) for w in product.terms)

    def test_s_form_rule(self):
        # s_{a,k}w * s_{b,l}w' =
        #   s_{ab,k}(w * s_{b,l}w') + s_{ab,l}(s_{a,k}w * w') - s_{ab,k+l}(w * w')
        rng = random.Random(11)
        for _ in range(25):
            a, b = rng.choice([UNIT, Z, cyclic(2)]), rng.choice([UNIT, Z])
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            w = HPoly.from_word(random_word(rng, rng.randint(0, 3), ALPHABET_01Z))
            wp = HPoly.from_word(random_word(rng, rng.randint(0, 3), ALPHABET_01Z))
            sa = HPoly.from_word(s_word(a, k))
            sb = HPoly.from_word(s_word(b, l))
            lhs = harmonic(concat(sa, w), concat(sb, wp))
            ab = a * b
            rhs = (
                concat(HPoly.from_word(s_word(ab, k)), harmonic(w, concat(sb, wp)))
                + concat(HPoly.from_word(s_word(ab, l)), harmonic(concat(sa, w), wp))
                - concat(HPoly.from_word(s_word(ab, k + l)), harmonic(w, wp))
            )
            assert lhs == rhs


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(1, 2))
    terms = []
    for _ in range(n_terms):
        weight = draw(st.integers(0, 3))
        letters = draw(
            st.lists(st.sampled_from(ALPHABET_01Z), min_size=weight, max_size=weight)
        )
        coeff = draw(st.sampled_from([-2, -1, 1, 2, Fraction(1, 2)]))
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_commutativity(p, q):
    assert harmonic(p, q) == harmonic(q, p)


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_associativity(p, q, r):
    assert harmonic(harmonic(p, q), r) == harmonic(p, harmonic(q, r))


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_distributivity(p, q, r):
    assert harmonic(p, q + r) == harmonic(p, q) + harmonic(p, r)


def words(alphabet, max_weight=5):
    return st.lists(st.sampled_from(alphabet), max_size=max_weight).map(to_word)


@st.composite
def element_word_pairs(draw, max_weight=7):
    """Two words spelled in monoid elements, of total weight at most ``max_weight``.

    The rational alphabet holds -1, whose square is the unit letter.
    """
    alphabet = st.sampled_from(draw(st.sampled_from([ALPHABET_01, ALPHABET_01ZZ2, ALPHABET_QQ])))
    u = draw(st.lists(alphabet, max_size=max_weight))
    v = draw(st.lists(alphabet, max_size=max_weight - len(u)))
    return tuple(u), tuple(v)


class TestIntegerKernel:
    """The int word-pair kernel against the Fraction recursion it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(words(ALPHABET_01ZZ2), words(ALPHABET_01ZZ2))
    def test_matches_reference_cyclic(self, u, v):
        product = star_words(u, v)
        assert product == reference_star_words(u, v)
        assert all(type(c) is int for c in product.terms.values())

    @settings(max_examples=80, deadline=None)
    @given(words(ALPHABET_QQ), words(ALPHABET_QQ))
    def test_matches_reference_rational(self, u, v):
        # the rationals include -1, whose square is the unit letter
        assert star_words(u, v) == reference_star_words(u, v)

    @settings(max_examples=40, deadline=None)
    @given(words(ALPHABET_01ZZ2), words(ALPHABET_01ZZ2))
    def test_cached_products_are_int(self, u, v):
        # every suffix pair's product, asked for in turn, is a map of int coefficients
        star_terms(u, v)
        for i in range(len(u) + 1):
            for j in range(len(v) + 1):
                terms = star_terms(u[i:], v[j:])
                assert terms and all(type(c) is int for c in terms.values())

    @settings(max_examples=120, deadline=None)
    @given(element_word_pairs())
    def test_matches_element_reference(self, pair):
        # the id kernel against the recursion over tuples of MonoidElements
        u, v = pair
        got = {to_letters(w): c for w, c in star_terms(to_word(u), to_word(v)).items()}
        assert got == reference_quasi_shuffle(u, v)

    def test_product_keys_are_untracked(self):
        # words are exact strings, which the garbage collector never tracks
        u = to_word((Z, ZERO, UNIT, cyclic(2), Z))
        v = to_word((UNIT, Z, ZERO, Z))
        terms = star_terms(u, v)
        assert terms and all(type(w) is str for w in terms)
        assert not any(gc.is_tracked(w) for w in terms)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys())
    def test_harmonic_is_bilinear_reference(self, p, q):
        expected = HPoly.zero()
        for wu, cu in p.terms.items():
            for wv, cv in q.terms.items():
                expected = expected + reference_star_words(wu, wv) * (cu * cv)
        assert harmonic(p, q) == expected


# Three hundred letters interned first, so that the alphabet's ids lie past
# 255: a word over it needs more than one byte per character.
WIDE = [rational(Fraction(10**6 + n, 17)) for n in range(300)]
ALPHABET_WIDE = (ZERO, UNIT, rational(-1), *WIDE[-3:])


@st.composite
def wide_polys(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from(ALPHABET_WIDE), max_size=4))
        coeff = draw(st.sampled_from([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]))
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


class TestWideLetterIds:
    """Words whose letter ids lie past 255; -1 squares to the unit letter."""

    def test_ids_past_one_byte(self):
        assert all(ord(a.id) > 255 for a in WIDE[-3:])

    @settings(max_examples=60, deadline=None)
    @given(words(ALPHABET_WIDE), words(ALPHABET_WIDE))
    def test_matches_reference(self, u, v):
        assert star_words(u, v) == reference_star_words(u, v)

    @settings(max_examples=40, deadline=None)
    @given(wide_polys(), wide_polys())
    def test_text_roundtrip(self, p, q):
        for value in (p, harmonic(p, q)):
            text = format_poly(value)
            assert parse_poly(text) == value
            assert format_poly(parse_poly(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(wide_polys())
    def test_regularization_roundtrip(self, p):
        rv = z_st(p)
        rv.validate()
        assert substitute_st(rv) == p


@st.composite
def rational_polys(draw, max_weight=3):
    """Up to three terms over the rational alphabet, with rational coefficients."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from(ALPHABET_QQ), max_size=max_weight))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


def assert_int_iff_integral(p: HPoly) -> None:
    for c in p.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)


class TestCoefficientForm:
    """A coefficient is an ``int`` exactly when it is integral, and a ``Fraction`` otherwise."""

    @settings(max_examples=60, deadline=None)
    @given(rational_polys(), rational_polys())
    def test_products_and_sums(self, p, q):
        for value in (p, q, harmonic(p, q), p + q, p - q, concat(p, q)):
            assert_int_iff_integral(value)
        halved = p * Fraction(1, 2)
        assert_int_iff_integral(halved)
        assert_int_iff_integral(halved * 2)
        assert halved * 2 == p
        # thirds that add up to whole coefficients again
        thirds = p * Fraction(1, 3) + p * Fraction(2, 3)
        assert_int_iff_integral(thirds)
        assert thirds == p

    @settings(max_examples=40, deadline=None)
    @given(rational_polys())
    def test_z_st_output(self, p):
        for h in z_st(p).terms.values():
            assert_int_iff_integral(h)

    @settings(max_examples=40, deadline=None)
    @given(rational_polys())
    def test_parse_poly(self, p):
        parsed = parse_poly(format_poly(p))
        assert_int_iff_integral(parsed)
        assert parsed == p

    def test_constructors(self):
        w = word(Z, ZERO)
        assert type(HPoly.from_word(w, Fraction(4, 2)).coeff(w)) is int
        assert type(HPoly({w: Fraction(1, 2)}).coeff(w)) is Fraction
        assert type(HPoly.rational(Fraction(3)).coeff("")) is int
        assert HPoly.zero().coeff(w) == 0 and type(HPoly.zero().coeff(w)) is int
        for n in range(6):
            assert_int_iff_integral(pythagoras_coeff(n))
            assert_int_iff_integral(eval_w(pythagoras_coeff(n), Z))


class TestGrammar:
    def test_examples(self):
        p = parse_poly("120*s[z^2,2]s[z,2] - 36*s[z,2]")
        assert p.coeff(s_word(cyclic(2), 2) + s_word(Z, 2)) == 120
        assert p.coeff(s_word(Z, 2)) == -36

    def test_star_is_harmonic(self):
        assert parse_poly("s[1,2]*s[1,2]") == harmonic(
            HPoly.from_word(s_word(UNIT, 2)), HPoly.from_word(s_word(UNIT, 2))
        )
        assert format_poly(parse_poly("s[1,2]*s[1,2]")) == "2*s[1,2]s[1,2] - s[1,4]"

    def test_scalar_star_is_scaling(self):
        assert parse_poly("3*e[1]") == e1 * 3
        assert parse_poly("1/2*e[1] - e[0]") == e1 * Fraction(1, 2) - e0

    def test_sum_leaves_memoized_product(self):
        u, v = word(Z, ZERO, UNIT), word(UNIT, Z, Z)
        product = f"{format_word(u)}*{format_word(v)}"
        memo = star_terms(u, v)
        before = dict(memo)
        shared = max(memo)  # a word of the product, so the sum changes its coefficient
        for _ in range(2):
            p = parse_poly(f"{product} - {format_word(shared)} + e[1]")
            assert star_terms(u, v) is memo and memo == before
        assert p == star_words(u, v) - HPoly.from_word(shared) + e1
        assert parse_poly(product).terms is not memo  # a lone product is a copy, not the memo

    def test_e_form_for_leading_zeros(self):
        p = HPoly.from_word(word(ZERO, UNIT))
        assert format_poly(p) == "e[0]e[1]"
        assert parse_poly("e[0]e[1]") == p

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse_poly("s[1,2")
        with pytest.raises(ParseError):
            parse_poly("2 +")
        with pytest.raises(ParseError):
            parse_poly("s[1,0]")
        with pytest.raises(ParseError):
            parse_poly("e[w]")

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_poly(rng, 4, ALPHABET_01Z, max_terms=3)
            text = format_poly(p)
            assert parse_poly(text) == p
            assert format_poly(parse_poly(text)) == text

    def test_zero(self):
        assert format_poly(HPoly.zero()) == "0"
        assert parse_poly("0") == HPoly.zero()
        assert parse_poly("e[1] - e[1]") == HPoly.zero()

    # The reader's contract: each input's printed value, or its exact ParseError text.
    CONTRACT = {
        "0": "0",
        "e[1] - e[1]": "0",
        "3*e[1]": "3*s[1,1]",
        "1/2*e[1] - e[0]": "1/2*s[1,1] - e[0]",
        "e[0]e[1]": "e[0]e[1]",
        "120*s[z^2,2]s[z,2] - 36*s[z,2]": "120*s[z^2,2]s[z,2] - 36*s[z,2]",
        "s[1,2]*s[1,2]": "2*s[1,2]s[1,2] - s[1,4]",
        "2*-3*e[1]": "-6*s[1,1]",
        "-(e[1]-e[0])*-e[z]": "s[z,1]s[z,1] + s[z,1]s[1,1] - s[z,2] - e[0]e[z]",
        "--e[1]": "s[1,1]",
        "1 - -1": "2",
        "- - -2/4": "-1/2",
        "6/4": "3/2",
        "(1)": "1",
        "((e[z]))*(e[z^2])": "s[z^3,1]s[z^2,1] + s[z^3,1]s[z,1] - s[z^3,2]",
        "  e[ z ] +e[z^2]  ": "s[z^2,1] + s[z,1]",
        "e[z] - e[z] + e[2]": "s[2,1]",
        "e[2]*e[3]": "s[6,1]s[3,1] + s[6,1]s[2,1] - s[6,2]",
        "e[5/2]-e[-3]": "s[5/2,1] - s[-3,1]",
        "e[0]*e[0]": "e[0]e[0]",
        "e[1] @": "unexpected character at position 4 in 'e[1] @'",
        "s[1,2": "unexpected character at position 0 in 's[1,2'",
        "e[z]^2": "unexpected character at position 4 in 'e[z]^2'",
        "1.5": "unexpected character at position 1 in '1.5'",
        "s[1]": "s-block needs a positive length at position 0 in 's[1]'",
        "s[1,0]": "block length k must be a positive integer at position 0 in 's[1,0]'",
        "s[z,99999999999999999999]":
            "s-block length too large at position 0 in 's[z,99999999999999999999]'",
        "e[]": "not an element literal: '' at position 0 in 'e[]'",
        "e[w]": "not an element literal: 'w' at position 0 in 'e[w]'",
        "1/0": "division by zero at position 0 in '1/0'",
        "e[1/0]": "division by zero at position 0 in 'e[1/0]'",
        "1 2": "unexpected token '2' at position 2 in '1 2'",
        "(1": "expected ')' at position 0 in '(1'",
        "(1))": "unexpected token ')' at position 3 in '(1))'",
        "()": "unexpected token ')' at position 1 in '()'",
        "+1": "unexpected token '+' at position 0 in '+1'",
        "1 * * 2": "unexpected token '*' at position 4 in '1 * * 2'",
        "e[1](e[0])": "unexpected token '(' at position 4 in 'e[1](e[0])'",
        "-": "expected a factor at position 1 in '-'",
        "1*": "expected a factor at position 2 in '1*'",
        "e[z]-": "expected a factor at position 5 in 'e[z]-'",
        "2 +": "expected a factor at position 3 in '2 +'",
        "": "expected a factor at position 0 in ''",
        "   ": "expected a factor at position 3 in '   '",
        "e[z]+e[3]":
            "letters from different monoid instances in one polynomial at position 4 in 'e[z]+e[3]'",
        "e[z] + e[2] - e[2]": "letters from different monoid instances in one polynomial"
            " at position 5 in 'e[z] + e[2] - e[2]'",
        "e[2]*e[3]e[z]": "letters from different monoid instances in one polynomial"
            " at position 9 in 'e[2]*e[3]e[z]'",
        "e[z^2]*e[1]e[3]":
            "cannot multiply z^2 (cyclic) with 3 (rational) at position 6 in 'e[z^2]*e[1]e[3]'",
    }

    @pytest.mark.parametrize("text", CONTRACT)
    def test_contract(self, text):
        try:
            got = format_poly(parse_poly(text))
        except ParseError as exc:
            got = str(exc)
        assert got == self.CONTRACT[text]

    def test_sum_reads_in_linear_time(self):
        # 4,000 distinct weight-6 words against their first 500: a reader linear in the
        # number of terms takes about 8 times as long, a quadratic one up to 64 times
        words = [
            "".join(f"e[{a}]" for a in letters)
            for letters in itertools.islice(itertools.product(["0", "1", "z", "z^2"], repeat=6), 4000)
        ]

        def best(text):
            times = []
            gc.disable()  # a collection inside one timed read would skew the ratio
            try:
                for _ in range(3):
                    start = time.perf_counter()
                    parse_poly(text)
                    times.append(time.perf_counter() - start)
            finally:
                gc.enable()
            return min(times)

        assert best(" + ".join(words)) < 24 * best(" + ".join(words[:500]))

    def test_number_past_the_digit_limit(self):
        # int() refuses a number longer than the interpreter's digit limit; the reader
        # reports that where the number starts instead of letting the ValueError escape
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter reads integers of any length")
        with pytest.raises(ParseError, match=r"at position 4 in '1 \+ 111"):
            parse_poly("1 + " + "1" * (limit + 1))

    def test_many_signs(self):
        # signs are read in a loop, so they are not bounded by the recursion limit
        assert format_poly(parse_poly("-" * 1000 + "e[z]")) == "s[z,1]"
        assert format_poly(parse_poly("-" * 1001 + "e[z]")) == "-s[z,1]"


def expected_texts(ws: list[Word]) -> list[str]:
    return [format_word(w) if w else "" for w in ws]


def word_texts(ws: list[Word]) -> list[str]:
    """The texts of ``ws`` from one printer, which shares their halves."""
    printer = _SignedSum()
    return ["".join(itertools.chain(*printer.halves([w], len(w)))) for w in ws]


# The cyclic letters and two rationals in one alphabet: printing does not
# check that a word's letters share one monoid.
ALPHABET_PRINT = (ZERO, UNIT, Z, cyclic(2), rational(-3), rational(Fraction(5, 2)))


class TestFormatWords:
    """The half-splitting printer against the one-word printer."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(words(ALPHABET_PRINT, max_weight=20), max_size=12))
    def test_matches_format_word(self, ws):
        assert word_texts(ws) == expected_texts(ws)

    def test_cases(self):
        wide = WIDE[-1]
        ws = [
            "",
            word(Z),  # a single letter: no cut, so no empty half printed as "1"
            word(UNIT),
            word(ZERO, Z, ZERO, UNIT),  # a leading zero letter keeps the e-form
            word(ZERO),
            word(Z, ZERO, ZERO, ZERO, UNIT, ZERO),  # the middle falls inside a zero run
            word(Z, ZERO, ZERO, ZERO, UNIT),  # a shared left half
            word(cyclic(2), UNIT, ZERO, ZERO, ZERO),  # only zero letters after the middle
            word(wide, ZERO, WIDE[-2], ZERO, wide),  # letter ids past 255
            word(wide, ZERO, WIDE[-2], ZERO, wide),
        ]
        texts = word_texts(ws)
        assert texts == expected_texts(ws)
        assert texts[:4] == ["", "s[z,1]", "s[1,1]", "e[0]e[z]e[0]e[1]"]
        assert texts[5] == "s[z,4]s[1,2]"
        assert texts[7] == "s[z^2,1]s[1,4]"


def reference_sorted_terms(p: HPoly) -> list:
    """One key per term: the weight, then the word translated to its letters' ranks."""
    ids = sorted(set().union(*p.terms), key=lambda a: LETTERS[a].key)
    rank = str.maketrans(dict(zip(ids, map(chr, range(len(ids))))))
    return sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0].translate(rank)), reverse=True)


# Rationals no other test uses, interned here: the first pair in key order,
# the second against it, so that a later id belongs to a smaller letter.
IN_ORDER = (rational(Fraction(10**9 + 1, 7)), rational(Fraction(10**9 + 2, 7)))
AGAINST_ORDER = (rational(Fraction(10**9 + 4, 7)), rational(Fraction(10**9 + 3, 7)))[::-1]


class TestSortedTerms:
    @pytest.mark.parametrize("letters", [IN_ORDER, AGAINST_ORDER], ids=["key-order", "reversed"])
    def test_mixed_weights(self, letters):
        a, b = letters
        assert a.key < b.key
        assert (a.id < b.id) == (letters is IN_ORDER)
        p = parse_poly(
            f"e[1] + s[{a},2]e[1] - 3*e[{b}]e[{b}]e[0] + 1/2*e[{a}]e[{b}]e[1] - e[{b}]e[{a}]e[1]"
            f" + 2*s[{b},2] - e[{a}]e[1] + e[0]e[{a}] + 5"
        )
        got = [(w, p.terms[w]) for w in p.sorted_words()]
        assert got == reference_sorted_terms(p)
        assert [len(w) for w, _ in got] == [3, 3, 3, 3, 2, 2, 2, 1, 0]
        assert format_poly(p) == (
            f"-3*s[{b},1]s[{b},2] - s[{b},1]s[{a},1]s[1,1] + 1/2*s[{a},1]s[{b},1]s[1,1]"
            f" + s[{a},2]s[1,1] + 2*s[{b},2] - s[{a},1]s[1,1] + e[0]e[{a}] + s[1,1] + 5"
        )


class TestLetterOrder:
    """The choice between comparing raw words and translating them to ranks."""

    def test_ids_following_keys_compare_raw_words(self):
        assert _rise_with_keys((ZERO, UNIT, *IN_ORDER))
        assert _rise_with_keys((ZERO, UNIT, Z, cyclic(2), rational(-3), rational(2)))

    def test_ids_against_keys_translate_to_ranks(self):
        a, b = AGAINST_ORDER  # a.key < b.key, a.id > b.id
        assert not _rise_with_keys((ZERO, UNIT, b, a))
        assert not _rise_with_keys((ZERO, UNIT, rational(2), Z))
        # interned at import, AGAINST_ORDER leaves this session's table out of key order
        assert not _rise_with_keys(tuple(LETTERS.values()))

    @pytest.mark.parametrize("letters", [IN_ORDER, AGAINST_ORDER], ids=["raw-words", "ranks"])
    def test_sorted_words_either_way(self, letters, monkeypatch):
        a, b = letters
        p = parse_poly(
            f"e[{a}]e[{b}] - 2*e[{b}]e[{a}] + e[{a}]e[0]e[{b}] + 3*e[{b}] + e[{a}]e[1] - 1"
        )
        table = {x.id: x for x in sorted((ZERO, UNIT, a, b), key=lambda x: x.id)}
        monkeypatch.setattr(halg, "LETTERS", table)
        assert _rise_with_keys(tuple(table.values())) == (letters is IN_ORDER)
        assert [(w, p.terms[w]) for w in p.sorted_words()] == reference_sorted_terms(p)


def reference_signed_sum(pairs) -> str:
    """The plain per-term printer: sign, magnitude, ``*``, monomial text."""
    out = []
    for c, mono in pairs:
        mag = str(abs(Fraction(c)))
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append((" + " if c > 0 else " - ") + body)
    return "".join(out) or "0"


def reference_text(p: HPoly, st_text: str = "") -> list[tuple]:
    """``(coefficient, monomial text)`` of each term of ``p`` times the S/T monomial ``st_text``."""
    return [
        (c, "*".join(filter(None, (format_word(w) if w else "", st_text))))
        for w, c in reference_sorted_terms(p)
    ]


COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
    st.integers(-(10**20), 10**20),
    st.fractions(max_denominator=40),
)


@st.composite
def printable_polys(draw):
    """Up to six terms: constants, e-form words and ±1, int and Fraction coefficients."""
    terms = draw(st.lists(st.tuples(words(ALPHABET_PRINT, max_weight=6), COEFFICIENTS), max_size=6))
    return HPoly(terms)


class TestSignedSum:
    """The one-walk printer against the plain per-term printer."""

    @settings(max_examples=150, deadline=None)
    @given(printable_polys())
    @example(HPoly.zero())
    def test_format_poly(self, p):
        assert format_poly(p) == reference_signed_sum(reference_text(p))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(COEFFICIENTS.filter(bool), st.sampled_from(["", "W2*W1^2", "z(3,1)"])), max_size=6
    ))
    def test_format_terms(self, pairs):
        assert format_terms(pairs) == reference_signed_sum(pairs)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), printable_polys(), max_size=4
    ))
    def test_regularized_value(self, parts):
        rv = RegularizedValue(parts)
        keys = sorted(rv.terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True)
        expected = [term for k in keys for term in reference_text(rv.terms[k], power_text(zip("ST", k)))]
        assert str(rv) == reference_signed_sum(expected)

    def test_power_text(self):
        assert power_text([("S", 2), ("T", 1)]) == "S^2*T"
        assert power_text([("S", 0), ("T", 3)]) == "T^3"
        assert power_text([("W3", 1), ("W1", 2)]) == "W3*W1^2"
        assert power_text([("S", 0), ("T", 0)]) == power_text([]) == ""

    def test_cases(self):
        p = parse_poly("-2*s[z,1]s[1,2] + 1/2*s[z,2] - 3*s[1,1]s[z,1] - e[0]e[z] + e[z^2] - 7/3")
        assert format_poly(p) == reference_signed_sum(reference_text(p)) == (
            "-2*s[z,1]s[1,2] + 1/2*s[z,2] - 3*s[1,1]s[z,1] - e[0]e[z] + s[z^2,1] - 7/3"
        )
        assert format_poly(HPoly.rational(-1)) == "-1"
        assert format_poly(HPoly.rational(Fraction(1, 2)) - ez) == "-s[z,1] + 1/2"
        rv = RegularizedValue({(1, 0): -p, (0, 2): HPoly.one(), (0, 0): HPoly.rational(3)})
        assert str(rv) == (
            "T^2 + 2*s[z,1]s[1,2]*S - 1/2*s[z,2]*S + 3*s[1,1]s[z,1]*S + e[0]e[z]*S - s[z^2,1]*S"
            " + 7/3*S + 3"
        )
        w1 = WPoly.gen(1)
        w = WPoly.gen(3) * Fraction(-1, 2) + w1 * w1 * 2 - WPoly.gen(2) + WPoly.rational(5)
        assert str(w) == "-1/2*W3 - W2 + 2*W1^2 + 5"


# Zero, the unit, and letters whose ids rise with their keys; -1 squares to the unit,
# so products over {0, 1, -1} intern no new letter.
RUN_ALPHABET = (ZERO, UNIT, rational(-1), *IN_ORDER)
# 6,722 terms, all of weight 13 and 2,162 of them zero-leading: one run past a slice.
LONG_RUN = (
    "(e[0]e[1]e[-1]e[1]e[-1]e[1] + 1/2*e[-1]e[-1]e[1]e[1]e[-1]e[1])*e[-1]e[1]e[1]e[-1]e[-1]e[1]e[-1]"
)


def letter_table(raw: bool) -> dict:
    """The letters of ``RUN_ALPHABET`` by id, which allows raw-word sorts, or in reverse."""
    ids = sorted(x.id for x in RUN_ALPHABET)
    table = {a: LETTERS[a] for a in (ids if raw else ids[::-1])}
    assert _rise_with_keys(tuple(table.values())) == raw
    return table


def assert_prints_term_by_term(rv: RegularizedValue, raw: bool) -> None:
    """``format_poly`` of each coefficient and ``str(rv)`` against the plain per-term printer."""
    keys = sorted(rv.terms, key=lambda k: (k[0] + k[1], k[0], k[1]), reverse=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halg, "LETTERS", letter_table(raw))
        for h in rv.terms.values():
            assert format_poly(h) == reference_signed_sum(reference_text(h))
        assert str(rv) == reference_signed_sum(
            [term for k in keys for term in reference_text(rv.terms[k], power_text(zip("ST", k)))]
        )


@st.composite
def run_polys(draw):
    """Up to 40 terms in at most three weights, so that zero-leading and s-block words share runs."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    word_of_weight = st.sampled_from(weights).flatmap(
        lambda n: st.lists(st.sampled_from(RUN_ALPHABET), min_size=n, max_size=n).map(to_word)
    )
    return HPoly(draw(st.lists(st.tuples(word_of_weight, COEFFICIENTS), max_size=40)))


class TestRunPrinter:
    """The printer, a run of one weight at a time, against each term printed alone."""

    @pytest.mark.parametrize("raw", [True, False], ids=["raw-words", "ranks"])
    @settings(max_examples=100, deadline=None)
    @given(parts=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), run_polys(), max_size=3))
    def test_against_terms(self, raw, parts):
        assert_prints_term_by_term(RegularizedValue(parts), raw)

    @pytest.mark.parametrize("raw", [True, False], ids=["raw-words", "ranks"])
    def test_long_run(self, raw):
        p = parse_poly(LONG_RUN)
        assert len(p) == 6722 > halg._SLICE and {len(w) for w in p.terms} == {13}
        assert 0 < sum(w[0] == "\0" for w in p.terms) < len(p)
        five = HPoly.rational(5)
        parts = {(2, 1): p, (0, 1): -p, (1, 0): p * Fraction(-2, 3) + five, (0, 0): five - p}
        assert_prints_term_by_term(RegularizedValue(parts), raw)


def plain_star(u: Word, v: Word) -> dict[Word, int]:
    """The defining recursion with no memo: all three parts summed, then the zeros dropped."""
    if not u or not v:
        return {u + v: 1}
    ab = (LETTERS[u[0]] * LETTERS[v[0]]).id
    out: dict[Word, int] = {}
    for head, sign, part in (
        (ab, 1, plain_star(u[1:], v)),
        (ab, 1, plain_star(u, v[1:])),
        (ab + ZERO.id, -1, plain_star(u[1:], v[1:])),
    ):
        for w, c in part.items():
            out[head + w] = out.get(head + w, 0) + sign * c
    return {w: c for w, c in out.items() if c}


# Mostly zero and unit letters, whose merges cancel often.
ALPHABET_CANCEL = (ZERO, UNIT, ZERO, UNIT, Z)


class TestProductMaps:
    """Word-pair products: built in one call-local row, whose merges delete a word when its
    sum cancels; only the products callers ask for are memoized."""

    def test_merge_cancels(self):
        # e_0 * e_1 = e_0 e_1 + e_0 e_0 - e_0 e_0: the last two cancel
        assert star_terms(ZERO.id, UNIT.id) == {ZERO.id + UNIT.id: 1}

    @settings(max_examples=150, deadline=None)
    @given(words(ALPHABET_CANCEL), words(ALPHABET_CANCEL))
    def test_no_zero_stored(self, u, v):
        product = star_words(u, v)
        assert product.terms is not star_terms(u, v)  # a copy: the memoized map stays unshared
        for i in range(len(u) + 1):
            for j in range(len(v) + 1):
                terms = star_terms(u[i:], v[j:])
                assert all(terms.values())
                assert terms == plain_star(u[i:], v[j:])

    @settings(max_examples=100, deadline=None)
    @given(words(ALPHABET_CANCEL, 6), words(ALPHABET_CANCEL, 6))
    def test_cold_product_is_the_one_entry(self, u, v):
        cache = halg._star_words_cached
        cache.cache_clear()
        terms = star_terms(u, v)
        assert terms == plain_star(u, v)
        info = cache.cache_info()
        assert (info.currsize, info.terms) == ((1, len(terms)) if u and v else (0, 0))

    @settings(max_examples=100, deadline=None)
    @given(words(ALPHABET_01ZZ2, 6), words(ALPHABET_01ZZ2, 6), st.data())
    def test_warm_memo_builds_the_same_map(self, u, v, data):
        # sub-pairs asked for earlier, either way round, leave the product's build unchanged
        cache = halg._star_words_cached
        cache.cache_clear()
        cold = list(star_terms(u, v).items())
        cache.cache_clear()
        for i, j, swap in data.draw(
            st.lists(st.tuples(st.integers(0, len(u)), st.integers(0, len(v)), st.booleans()))
        ):
            star_terms(v[j:], u[i:]) if swap else star_terms(u[i:], v[j:])
        assert list(star_terms(u, v).items()) == cold


@st.composite
def hpoly_parts(draw):
    """Up to five polynomials over one alphabet, {0, 1, z} or rational letters, int and Fraction coefficients."""
    alphabet = draw(st.sampled_from([ALPHABET_01Z, ALPHABET_QQ]))
    part = st.lists(st.tuples(words(alphabet, max_weight=3), COEFFICIENTS), max_size=4).map(HPoly)
    return draw(st.lists(part, max_size=5))


W_KEYS = st.lists(st.integers(1, 3), max_size=3).map(tuple)
wpoly_parts = st.lists(st.dictionaries(W_KEYS, COEFFICIENTS, max_size=4).map(WPoly), max_size=5)


class TestLinCombSum:
    """``LinComb.sum``, the one n-ary sum, against the left fold of ``+``."""

    def check(self, cls, parts):
        before = [dict(p.terms) for p in parts]
        total = cls.sum(parts)
        fold = reduce(operator.add, parts, cls.zero())
        plain: dict = {}  # a reference that shares no code with LinComb
        for p in parts:
            for k, c in p.terms.items():
                plain[k] = plain.get(k, 0) + c
        assert total.terms == {k: c for k, c in plain.items() if c}
        assert type(total) is cls
        assert total == fold
        assert list(total.terms.items()) == list(fold.terms.items())  # same insertion order
        assert all(total.terms.values())
        assert_int_iff_integral(total)
        assert [p.terms for p in parts] == before
        assert all(total.terms is not p.terms for p in parts)

    @settings(max_examples=100, deadline=None)
    @given(hpoly_parts())
    def test_hpoly(self, parts):
        self.check(HPoly, parts)

    @settings(max_examples=100, deadline=None)
    @given(wpoly_parts)
    def test_wpoly(self, parts):
        self.check(WPoly, parts)

    @settings(max_examples=60, deadline=None)
    @given(hpoly_parts(), hpoly_parts())
    def test_cancellation_leaves_no_zero(self, parts, others):
        others = [q for q in others if not q.terms.keys() & set().union(*(p.terms for p in parts))]
        total = HPoly.sum([*parts, *others, *(-p for p in parts)])
        assert total == HPoly.sum(others)
        assert all(total.terms.values())
        assert HPoly.sum([*parts, *(-p for p in reversed(parts))]).terms == {}

    @settings(max_examples=60, deadline=None)
    @given(hpoly_parts())
    def test_integral_fraction_is_int(self, parts):
        thirds = [p * Fraction(k, 3) for p in parts for k in (1, 2)]
        total = HPoly.sum(thirds)
        assert_int_iff_integral(total)
        assert total == HPoly.sum(parts)

    def test_no_parts(self):
        for cls in (HPoly, WPoly, RegularizedValue):
            assert cls.sum([]) == cls.zero() and cls.sum(iter(())).terms == {}

    def test_cases(self):
        a, b = HPoly.from_word(word(Z), Fraction(1, 2)), HPoly.from_word(word(Z, ZERO), -1)
        total = HPoly.sum([a, b, a, -b])
        assert total.terms == {word(Z): 1} and type(total.coeff(word(Z))) is int
        w1, w2 = WPoly.gen(1), WPoly.gen(2)
        assert WPoly.sum([w2, w1 * w1, -w2]).terms == {(1, 1): 1}


class TestRegularizedProduct:
    def test_pairs_on_one_key_cancel(self):
        # (1,0)*(0,1) and (0,1)*(1,0) both land on S*T, with opposite signs
        h, g = ez, HPoly.from_word(word(Z, UNIT, Z))
        a = RegularizedValue({(1, 0): h, (0, 1): h})
        b = RegularizedValue({(0, 1): g, (1, 0): -g})
        product = a * b
        assert (1, 1) not in product.terms
        assert product.terms == {(2, 0): -harmonic(h, g), (0, 2): harmonic(h, g)}
        fold = reduce(operator.add, (
            RegularizedValue({(s1 + s2, t1 + t2): harmonic(h1, h2)})
            for (s1, t1), h1 in a.terms.items()
            for (s2, t2), h2 in b.terms.items()
        ))
        assert product == fold
