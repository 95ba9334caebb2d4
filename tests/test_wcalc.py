import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsw.halg import HPoly, harmonic, s_chain, s_word
from hsw.monoid import UNIT, cyclic, rational
from hsw import wcalc
from hsw.series import Series1, Series2
from hsw.wcalc import (
    NoWitnessError,
    WPoly,
    _eval_monomial,
    addition_defect_coeff,
    addition_series2,
    ap_witness_addition,
    eval_w,
    g_gen,
    pythagoras_coeff,
    pythagoras_series,
    reduce_ap,
    verify_addition,
    verify_pythagoras,
    w_value,
)

Z = cyclic(1)


class TestWPoly:
    def test_ring_basics(self):
        w1, w2 = WPoly.gen(1), WPoly.gen(2)
        assert w1 * WPoly.one() == w1
        assert (w1 + w2) - w2 == w1
        assert w1 * w2 == w2 * w1
        assert (w1 * w1).terms == {(1, 1): Fraction(1)}

    def test_str(self):
        assert str(g_gen(1, 1)) == "W2 - W1^2"
        assert str(WPoly.zero()) == "0"


class TestGenerators:
    def test_degenerate(self):
        for n in range(5):
            assert g_gen(0, n).is_zero
            assert g_gen(n, 0).is_zero

    def test_g11(self):
        assert g_gen(1, 1) == WPoly.gen(2) - WPoly.gen(1) * WPoly.gen(1)

    def test_symmetry(self):
        for m in range(4):
            for n in range(4):
                if m + n <= 6:
                    assert g_gen(m, n) == g_gen(n, m)


class TestEvalW:
    def test_single_generators(self):
        assert eval_w(WPoly.gen(1), Z) == HPoly.from_word(s_word(Z, 2)) * 6
        assert eval_w(WPoly.gen(2), Z) == HPoly.from_word(s_chain(Z, 2, 2)) * 120

    def test_square(self):
        z2 = cyclic(2)
        expected = (
            HPoly.from_word(s_word(z2, 2) + s_word(Z, 2)) * 2
            - HPoly.from_word(s_word(z2, 4))
        ) * 36
        assert eval_w(WPoly.gen(1) * WPoly.gen(1), Z) == expected

    def test_g11_image(self):
        z2 = cyclic(2)
        expected = HPoly.from_word(s_word(z2, 2) + s_word(Z, 2)) * 48 + HPoly.from_word(
            s_word(z2, 4)
        ) * 36
        assert eval_w(g_gen(1, 1), Z) == expected

    def test_ring_homomorphism(self):
        rng = random.Random(23)
        gens = [WPoly.gen(n) for n in range(3)]
        for _ in range(10):
            p = sum(
                (rng.choice(gens) * Fraction(rng.randint(-3, 3)) for _ in range(2)),
                WPoly.zero(),
            )
            q = rng.choice(gens) + WPoly.rational(rng.randint(-2, 2))
            assert eval_w(p * q, Z) == harmonic(eval_w(p, Z), eval_w(q, Z))

    def test_weight_grading_bridge(self):
        # monomial of weight 2k maps to words of weight 2k
        p = WPoly.gen(1) * WPoly.gen(2)
        image = eval_w(p, Z)
        assert {len(w) for w in image.terms} == {6}


W_POLYS = st.lists(
    st.tuples(
        st.lists(st.integers(1, 3), max_size=2),
        st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)),
    ),
    max_size=5,
).map(WPoly)


class TestEvalWInIntegers:
    """``eval_w`` sums the monomials' integer images over one denominator."""

    @settings(max_examples=60, deadline=None)
    @given(W_POLYS, st.sampled_from([Z, rational(Fraction(5, 2))]))
    @example(WPoly.zero(), Z)
    @example(WPoly.gen(1) * WPoly.gen(1) - WPoly.gen(2) * Fraction(3, 5), Z)  # s[z^2,2]s[z,2] cancels
    def test_matches_scaled_sum(self, p, z):
        got = eval_w(p, z)
        assert got == HPoly.sum(_eval_monomial(key, z) * c for key, c in p.terms.items())
        assert all(type(c) is int for key in p.terms for c in _eval_monomial(key, z).terms.values())
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.terms.values())

    def test_cancellation(self):
        image = eval_w(WPoly.gen(1) * WPoly.gen(1) - WPoly.gen(2) * Fraction(3, 5), Z)
        assert image == HPoly.from_word(s_word(cyclic(2), 4)) * -36


class TestReduceAp:
    def test_generators_vanish(self):
        for m in range(7):
            for n in range(7):
                if m + n <= 6:
                    assert reduce_ap(g_gen(m, n)) == {}

    def test_non_member(self):
        p = WPoly.gen(2) + WPoly.gen(1) * WPoly.gen(1)
        assert reduce_ap(p) == {2: Fraction(2)}

    def test_constant(self):
        assert reduce_ap(pythagoras_coeff(0)) == {0: Fraction(1)}

    def test_multiplicative(self):
        rng = random.Random(29)

        def reduce_mul(a, b):
            out = {}
            for da, ca in a.items():
                for db, cb in b.items():
                    d = da + db
                    out[d] = out.get(d, Fraction(0)) + ca * cb
            return {d: c for d, c in out.items() if c}

        for _ in range(10):
            p = WPoly.gen(rng.randint(0, 3)) - WPoly.rational(rng.randint(-2, 2))
            q = WPoly.gen(rng.randint(0, 2)) * WPoly.gen(rng.randint(0, 2))
            assert reduce_ap(p * q) == reduce_mul(reduce_ap(p), reduce_ap(q))

    def test_ideal_multiples_vanish(self):
        rng = random.Random(31)
        for _ in range(10):
            g = g_gen(rng.randint(1, 2), rng.randint(1, 2))
            q = WPoly.gen(rng.randint(0, 2)) + WPoly.rational(rng.randint(-2, 3))
            assert reduce_ap(g * q) == {}


class TestAdditionDefect:
    def test_even_total_degree_vanishes(self):
        for i in range(6):
            for j in range(6):
                if (i + j) % 2 == 0:
                    assert addition_defect_coeff(i, j).is_zero

    def test_3_2(self):
        assert addition_defect_coeff(3, 2) == g_gen(1, 1) * Fraction(1, 12)

    def test_1_2(self):
        assert addition_defect_coeff(1, 2).is_zero

    def test_witnesses(self):
        assert ap_witness_addition(3, 2) == (Fraction(1, 12), 1, 1)
        assert ap_witness_addition(2, 3) == (Fraction(1, 12), 1, 1)
        assert ap_witness_addition(1, 0) == (Fraction(1), 0, 0)

    def test_witness_scalars_both_parities(self):
        for m in range(3):
            for n in range(3 - m):
                i, j = 2 * m + 1, 2 * n
                scalar, mm, nn = ap_witness_addition(i, j)
                assert (mm, nn) == (m, n)
                assert scalar == Fraction(1, factorial(i) * factorial(j))
                i, j = 2 * m, 2 * n + 1
                scalar, mm, nn = ap_witness_addition(i, j)
                assert (mm, nn) == (m, n)
                assert scalar == Fraction(1, factorial(i) * factorial(j))

    def test_no_witness_even(self):
        with pytest.raises(NoWitnessError):
            ap_witness_addition(2, 2)


class TestPythagoras:
    def test_n0(self):
        assert pythagoras_coeff(0) == WPoly.one()

    def test_n1_cancels_exactly(self):
        assert pythagoras_coeff(1).is_zero

    def test_n2(self):
        assert pythagoras_coeff(2) == (WPoly.gen(2) - WPoly.gen(1) * WPoly.gen(1)) / 12

    def test_membership(self):
        for n in range(1, 6):
            assert reduce_ap(pythagoras_coeff(n)) == {}


class TestBridges:
    def test_addition_bridge(self):
        direct = addition_series2(Z, 9)
        for i in range(10):
            for j in range(10 - i):
                assert direct.coeff(i, j) == eval_w(addition_defect_coeff(i, j), Z)

    def test_pythagoras_bridge(self):
        direct = pythagoras_series(Z, 8)
        for n in range(5):
            assert direct.coeff(2 * n) == eval_w(pythagoras_coeff(n), Z)

    def test_pythagoras_even_in_x(self):
        direct = pythagoras_series(Z, 9)
        assert all(d % 2 == 0 for d in direct.coeffs)

    def test_drivers(self):
        assert all(r.passed for r in verify_addition(Z, 6))
        assert all(r.passed for r in verify_pythagoras(Z, 3))
        assert all(r.passed for r in verify_pythagoras(UNIT, 3))

    # A direct-route coefficient off by one word fails its own item and no other.
    OFF = HPoly.from_word(s_word(Z, 1))

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 2), (3, 2), (4, 4), (0, 7)])
    def test_addition_bridge_fails_one_item(self, monkeypatch, i, j):
        def mutated(z, order):
            direct = addition_series2(z, order)
            return Series2({**direct.coeffs, (i, j): direct.coeff(i, j) + self.OFF}, order)

        monkeypatch.setattr(wcalc, "addition_series2", mutated)
        failed = [r.item for r in verify_addition(Z, 8) if not r.passed]
        assert failed == [f"addition-coefficient x^{i}y^{j}"]

    # an odd degree 2n + 1 fails item n through its parity check
    @pytest.mark.parametrize("degree, item", [(0, 0), (4, 2), (10, 5), (3, 1)])
    def test_pythagoras_bridge_fails_one_item(self, monkeypatch, degree, item):
        def mutated(z, order):
            direct = pythagoras_series(z, order)
            return Series1({**direct.coeffs, degree: direct.coeff(degree) + self.OFF}, order)

        monkeypatch.setattr(wcalc, "pythagoras_series", mutated)
        failed = [r.item for r in verify_pythagoras(Z, 5) if not r.passed]
        assert failed == [f"pythagoras-coefficient x^{2 * item}"]
