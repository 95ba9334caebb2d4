import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsw import halg, reg
from hsw.halg import HPoly, Word, concat, harmonic, parse_poly, s_word, star_terms, to_letters, to_word
from hsw.monoid import UNIT, ZERO, cyclic, rational
from hsw.reg import (
    RegularizationError,
    RegularizedValue,
    is_admissible,
    reg_t,
    strip_e0,
    substitute_st,
    verify_regularization,
    z_st,
)

from _support import (
    ALPHABET_01,
    ALPHABET_01Z,
    ALPHABET_01ZZ2,
    ALPHABET_QQ,
    random_poly,
    random_word,
    reference_z_st,
)

Z = cyclic(1)


def w(*letters) -> Word:
    return to_word(letters)


e1 = HPoly.from_word(w(UNIT))


class TestClassify:
    def test_examples(self):
        assert is_admissible(s_word(UNIT, 2))
        assert not is_admissible(w(UNIT))
        assert not is_admissible(w(ZERO, UNIT))
        assert not is_admissible(w(ZERO, Z))
        assert is_admissible(())
        assert not is_admissible(w(Z, UNIT, UNIT))
        assert is_admissible(w(Z, ZERO))

    def test_h0_closed_under_harmonic(self):
        rng = random.Random(37)
        h0_words = []
        while len(h0_words) < 20:
            cand = random_word(rng, rng.randint(1, 4), ALPHABET_01Z)
            if is_admissible(cand):
                h0_words.append(cand)
        for i in range(0, 20, 2):
            u, v = h0_words[i], h0_words[i + 1]
            product = harmonic(HPoly.from_word(u), HPoly.from_word(v))
            assert all(is_admissible(word) for word in product.terms)


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
            if word[0] == ZERO.id:
                continue
            d = len(word) - word.count(ZERO.id)
            for t, h in reg_t(HPoly.from_word(word)).items():
                assert all(len(v) - v.count(ZERO.id) <= d for v in h.terms)


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
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_roundtrip_with_integer_tables(p):
    # z_st runs in integers over one denominator; substituting back is exact
    rv = z_st(p)
    rv.validate()
    assert substitute_st(rv) == p


@st.composite
def fraction_polys(draw):
    # one alphabet per polynomial; coefficients with denominators, so that
    # z_st has to scale its integer state when it divides by a run
    alphabet = draw(st.sampled_from((ALPHABET_01, ALPHABET_01Z, ALPHABET_01ZZ2, ALPHABET_QQ)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        letters = draw(st.lists(st.sampled_from(alphabet), max_size=7))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


@settings(max_examples=150, deadline=None)
@given(fraction_polys())
def test_worklist_matches_per_word_recursion(p):
    rv = z_st(p)
    expected = reference_z_st(p)
    assert rv == expected
    assert str(rv) == str(expected)


@st.composite
def tail_words(draw):
    """A word with a nonzero first letter and at least one trailing unit letter."""
    alphabet = draw(st.sampled_from((ALPHABET_01, ALPHABET_01ZZ2, ALPHABET_QQ)))
    first = draw(st.sampled_from(alphabet[1:]))
    middle = draw(st.lists(st.sampled_from(alphabet), max_size=5))
    return to_word([first, *middle] + [UNIT] * draw(st.integers(1, 3)))


@settings(max_examples=200, deadline=None)
@given(tail_words())
def test_rule_is_the_product_with_the_unit_letter(w):
    # w = (base*e_1 - sum doubled + sum zeros) / m, so base*e_1 = m*w + sum doubled - sum zeros
    base, doubled, zeros = reg._reg_word(w)
    assert base == w[:-1]
    d, m = reg._bucket(w)
    product = {w: m}
    for x in doubled:
        product[x] = product.get(x, 0) + 1
    for x in (x for xs in zeros for x in xs):
        product[x] = product.get(x, 0) - 1
    assert {x: k for x, k in product.items() if k} == star_terms(base, UNIT.id)
    # the buckets z_st files the rule's words under, each strictly below w's
    assert len(zeros) == m
    filed = [((d - 1, m - 1), (base,)), ((d, m - 1), doubled)]
    filed += [((d - 1, r), xs) for r, xs in enumerate(zeros)]
    for bucket, xs in filed:
        for x in xs:
            assert reg._bucket(x) == bucket < (d, m)


def test_one_rewrite_per_reachable_word():
    # the per-word recursion hit its own cache 14,569 times and missed it
    # 4,096 times here, and made 3,070 new word-pair products
    p = parse_poly("*".join(["e[1]e[1]e[1]e[1]e[1]e[1]"] * 2))
    halg.clear_caches()
    reg._reg_word.cache_clear()
    star_misses = halg._star_words_cached.cache_info().misses
    first = z_st(p)
    info = reg._reg_word.cache_info()
    assert (info.hits, info.misses) == (0, 2048)
    # the rule stores nothing: a second pass rewrites every reachable word again
    assert z_st(p) == first
    info = reg._reg_word.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4096, 0)
    assert halg._star_words_cached.cache_info().misses == star_misses


@st.composite
def unit_tail_polys(draw):
    """Words ``e_0^s core e_1^k`` with ``s`` in 0..2 and ``k`` in 1..4, over a few shared cores.

    A core is empty or starts with a nonzero letter and ends with one that is
    not the unit, so that the runs are exactly ``s`` and ``k``; a shared core
    puts several powers of S in one bucket.
    """
    alphabet = draw(st.sampled_from((ALPHABET_01, ALPHABET_01Z, ALPHABET_QQ)))
    nonzero = st.sampled_from(alphabet[1:])
    not_unit = st.sampled_from([a for a in alphabet if a != UNIT])
    middle = st.lists(st.sampled_from(alphabet), max_size=3)
    core = st.just(()) | st.tuples(nonzero, middle, not_unit).map(lambda c: (c[0], *c[1], c[2]))
    cores = draw(st.lists(core, min_size=1, max_size=2))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        letters = [ZERO] * draw(st.integers(0, 2)) + [*draw(st.sampled_from(cores))]
        letters += [UNIT] * draw(st.integers(1, 4))
        coeff = draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        terms.append((to_word(letters), coeff))
    return HPoly(terms)


@settings(max_examples=150, deadline=None)
@given(unit_tail_polys())
@example(HPoly.from_word(w(UNIT, UNIT, UNIT, UNIT)))
@example(  # S^0, S^1 and S^2 in one bucket
    HPoly([(w(UNIT, UNIT), Fraction(1, 3)), (w(ZERO, UNIT, UNIT), -1), (w(ZERO, ZERO, UNIT, UNIT), 2)])
)
@example(HPoly([(w(Z, ZERO, UNIT, UNIT, UNIT), Fraction(5, 6)), (w(ZERO, Z, ZERO, UNIT, UNIT), 1)]))
@example(HPoly.from_word(w(rational(2), UNIT, rational(-1), UNIT, UNIT, UNIT), Fraction(3, 7)))
@example(HPoly([(w(UNIT, ZERO, UNIT, UNIT), 1), (w(ZERO, UNIT, ZERO, UNIT, UNIT), Fraction(1, 2))]))
@example(HPoly([(w(ZERO, ZERO, Z, UNIT, UNIT, UNIT, UNIT), Fraction(-7, 12)), (w(Z, UNIT), 3)]))
def test_unit_tails_match_the_per_word_recursion(p):
    rv = z_st(p)
    expected = reference_z_st(p)
    assert rv == expected
    assert str(rv) == str(expected)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COEFFS = st.integers(-50, 50) | st.fractions(max_denominator=60)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COEFFS, _FLOATS, _FLOATS.map(abs)), max_size=6))
def test_exact_sum_is_the_fraction_sum(rows):
    # subnormal, huge and mixed-denominator terms: one scale must hold them all
    terms = {to_word((cyclic(i + 2),)): c for i, (c, _, _) in enumerate(rows)}
    table = {to_letters(w): (v, b) for w, (_, v, b) in zip(terms, rows)}
    value = sum((Fraction(c) * Fraction(v) for c, v, _ in rows), Fraction(0))
    bound = sum((abs(Fraction(c)) * Fraction(b) for c, _, b in rows), Fraction(0))
    total, total_bound, scale = reg.exact_sum(terms, table.__getitem__)
    assert isinstance(scale, int) and scale > 0
    assert (Fraction(total, scale), Fraction(total_bound, scale)) == (value, bound)
    # one rounding, by int true division: the double of the Fraction sum, or the same overflow
    assert _rounded(lambda: total / scale) == _rounded(lambda: float(value))
    assert _rounded(lambda: total_bound / scale) == _rounded(lambda: float(bound))


def _rounded(divide) -> str:
    try:
        return divide().hex()
    except OverflowError:
        return "overflow"


@settings(max_examples=500, deadline=None)
@given(_FLOATS | _FLOATS.map(lambda x: x * 2.0**-1060))  # the second draws subnormals often
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(sys.float_info.min)
@example(sys.float_info.min - 5e-324)  # the largest subnormal
@example(sys.float_info.max)
@example(-sys.float_info.max)
@example(1.0)
def test_a_float_is_exact_over_its_own_power_of_two(x):
    (n,), e = reg.exact_floats([x])
    assert Fraction(n, 2**e) == Fraction(x)
    assert 2**e == Fraction(x).denominator


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COEFFS, _FLOATS | _FLOATS.map(lambda x: x * 2.0**-1060), _FLOATS.map(abs)), max_size=6))
def test_exact_sum_scale_is_the_smallest_exact_one(rows):
    # the coefficients' common denominator times the largest float denominator, a power of two
    terms = {to_word((cyclic(i + 2),)): c for i, (c, _, _) in enumerate(rows)}
    table = {to_letters(w): (v, b) for w, (_, v, b) in zip(terms, rows)}
    _, _, scale = reg.exact_sum(terms, table.__getitem__)
    den = math.lcm(*(Fraction(c).denominator for c, _, _ in rows))
    top = max((Fraction(x).denominator for _, v, b in rows for x in (v, b)), default=1)
    assert scale == den * top
    # every term is whole at that scale; over half the power of two, some float is not
    assert all((Fraction(c) * Fraction(x) * scale).denominator == 1 for c, v, b in rows for x in (v, b))
    assert top == 1 or any((Fraction(x) * top / 2).denominator > 1 for _, v, b in rows for x in (v, b))


class TestDriver:
    def test_verify_regularization(self):
        items = list(verify_regularization(count=40, max_weight=4, seed=1))
        assert items and all(item.passed for item in items)

    def test_inadmissible_rule_fails_the_driver(self, monkeypatch):
        # a rule that leaves a leading-zero word: z_st's admissibility check raises
        def bad_rule(w: Word):
            return "\0" + w[:-1], (), ((),)

        monkeypatch.setattr(reg, "_reg_word", bad_rule)
        with pytest.raises(RegularizationError, match="inadmissible word"):
            list(verify_regularization(count=40, max_weight=4, seed=1))
