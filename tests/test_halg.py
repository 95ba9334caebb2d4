import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsw.halg import (
    HPoly,
    ParseError,
    Word,
    concat,
    format_poly,
    harmonic,
    parse_poly,
    s_chain,
    s_word,
    star_terms,
    star_words,
    to_letters,
    to_word,
)
from hsw.monoid import UNIT, ZERO, MonoidMismatchError, cyclic, rational
from hsw.reg import z_st
from hsw.wcalc import eval_w, pythagoras_coeff

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
        assert s_chain(Z, 2, 0) == ()

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
        # the recursion memoizes exactly the products of the suffix pairs
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
        # exact tuples of ints leave the garbage collector's lists at its next pass
        u = to_word((Z, ZERO, UNIT, cyclic(2), Z))
        v = to_word((UNIT, Z, ZERO, Z))
        terms = star_terms(u, v)
        gc.collect()
        assert terms and all(type(w) is tuple for w in terms)
        assert not any(gc.is_tracked(w) for w in terms)

    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys())
    def test_harmonic_is_bilinear_reference(self, p, q):
        expected = HPoly.zero()
        for wu, cu in p.terms.items():
            for wv, cv in q.terms.items():
                expected = expected + reference_star_words(wu, wv) * (cu * cv)
        assert harmonic(p, q) == expected


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
        assert type(HPoly.rational(Fraction(3)).coeff(())) is int
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
