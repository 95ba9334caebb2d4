import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsw.halg import EMPTY_WORD, HPoly, Word, concat, harmonic, s_word
from hsw.monoid import UNIT, ZERO, cyclic
from hsw.reg import (
    RegularizationError,
    RegularizedValue,
    WordClass,
    classify,
    reg_t,
    strip_e0,
    substitute_st,
    verify_regularization,
    z_st,
)

from _support import ALPHABET_01, ALPHABET_01Z, random_poly, random_word

Z = cyclic(1)


def w(*letters) -> Word:
    return Word(letters)


e1 = HPoly.from_word(w(UNIT))


class TestClassify:
    def test_examples(self):
        assert classify(s_word(UNIT, 2)) is WordClass.H0
        assert classify(w(UNIT)) is WordClass.H1_NOT_H0
        assert classify(w(ZERO, UNIT)) is WordClass.GENERAL
        assert classify(EMPTY_WORD) is WordClass.H0
        assert classify(w(Z, UNIT, UNIT)) is WordClass.H1_NOT_H0
        assert classify(w(Z, ZERO)) is WordClass.H0

    def test_h0_closed_under_harmonic(self):
        rng = random.Random(37)
        h0_words = []
        while len(h0_words) < 20:
            cand = random_word(rng, rng.randint(1, 4), ALPHABET_01Z)
            if classify(cand) is WordClass.H0:
                h0_words.append(cand)
        for i in range(0, 20, 2):
            u, v = h0_words[i], h0_words[i + 1]
            product = harmonic(HPoly.from_word(u), HPoly.from_word(v))
            assert all(classify(word) is WordClass.H0 for word in product.terms)


class TestStripE0:
    def test_examples(self):
        assert strip_e0(HPoly.from_word(w(ZERO, UNIT, ZERO))) == {
            1: HPoly.from_word(w(UNIT, ZERO))
        }
        assert strip_e0(e1) == {0: e1}
        assert strip_e0(HPoly.from_word(w(ZERO, ZERO))) == {2: HPoly.one()}

    def test_substitution_inverts(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_poly(rng, 5, ALPHABET_01Z, max_terms=3)
            rebuilt = HPoly.zero()
            for s, h in strip_e0(p).items():
                rebuilt = rebuilt + concat(HPoly.from_word(w(*[ZERO] * s)), h)
            assert rebuilt == p


class TestRegT:
    def test_single_unit(self):
        assert reg_t(e1) == {1: HPoly.one()}

    def test_double_unit(self):
        # solve e_1 e_1 from e_1 * e_1 = 2 e_1e_1 - e_1e_0
        expected = {
            2: HPoly.rational(Fraction(1, 2)),
            0: HPoly.from_word(s_word(UNIT, 2)) * Fraction(1, 2),
        }
        assert reg_t(HPoly.from_word(w(UNIT, UNIT))) == expected

    def test_already_admissible(self):
        s12 = HPoly.from_word(s_word(UNIT, 2))
        assert reg_t(s12) == {0: s12}

    def test_general_rejected(self):
        with pytest.raises(RegularizationError):
            reg_t(HPoly.from_word(w(ZERO, UNIT)))

    def test_filtration_bound(self):
        # coefficients never use more nonzero letters than the input word
        rng = random.Random(43)
        for _ in range(30):
            word = random_word(rng, rng.randint(1, 5), ALPHABET_01Z)
            if classify(word) is WordClass.GENERAL:
                continue
            d = word.nonzero_count
            for t, h in reg_t(HPoly.from_word(word)).items():
                assert all(v.nonzero_count <= d for v in h.terms)


class TestZst:
    def test_examples(self):
        assert z_st(HPoly.from_word(w(ZERO,))) == RegularizedValue({(1, 0): HPoly.one()})
        s12 = HPoly.from_word(s_word(UNIT, 2))
        assert z_st(s12) == RegularizedValue({(0, 0): s12})
        assert z_st(HPoly.from_word(w(UNIT, UNIT))) == RegularizedValue(
            {(0, 2): HPoly.rational(Fraction(1, 2)), (0, 0): s12 * Fraction(1, 2)}
        )

    def test_str(self):
        assert str(z_st(HPoly.from_word(w(UNIT, UNIT)))) == "1/2*T^2 + 1/2*s[1,2]"

    def test_roundtrip_random(self):
        rng = random.Random(47)
        for alphabet in (ALPHABET_01, ALPHABET_01Z):
            for _ in range(40):
                p = random_poly(rng, 6, alphabet, max_terms=3)
                rv = z_st(p)
                rv.validate()
                assert substitute_st(rv) == p

    def test_homomorphism(self):
        rng = random.Random(53)
        for _ in range(25):
            u = random_poly(rng, 4, ALPHABET_01Z)
            v = random_poly(rng, 4, ALPHABET_01Z)
            assert z_st(harmonic(u, v)) == z_st(u) * z_st(v)

    def test_injectivity_witness(self):
        rng = random.Random(59)
        assert z_st(HPoly.zero()).is_zero
        for _ in range(30):
            p = random_poly(rng, 5, ALPHABET_01Z, max_terms=2)
            assert z_st(p).is_zero == p.is_zero

    def test_validation_catches_bad_values(self):
        bad = RegularizedValue({(0, 0): HPoly.from_word(w(ZERO, UNIT))})
        with pytest.raises(RegularizationError):
            bad.validate()


@st.composite
def polys(draw, alphabet=ALPHABET_01Z, max_weight=6):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.sampled_from(alphabet), max_size=max_weight))
        coeff = draw(st.sampled_from([-3, -1, 1, 2, Fraction(1, 2), Fraction(-5, 6)]))
        terms.append((Word(letters), coeff))
    return HPoly(terms)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_roundtrip_with_integer_tables(p):
    # z_st runs on the integer unit-power tables; substituting back is exact
    rv = z_st(p)
    rv.validate()
    assert substitute_st(rv) == p


class TestDriver:
    def test_verify_regularization(self):
        items = list(verify_regularization(count=40, max_weight=4, seed=1))
        assert items and all(item.passed for item in items)
