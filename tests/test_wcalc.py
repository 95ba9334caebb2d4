import random
from fractions import Fraction
from math import comb, factorial

import pytest

from hsw.halg import HPoly, harmonic, s_chain, s_word
from hsw.monoid import UNIT, cyclic
from hsw.wcalc import (
    NoWitnessError,
    WPoly,
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
