import math
import random
from fractions import Fraction

import pytest

from hsw.halg import HPoly, harmonic, s_word, to_word
from hsw.monoid import UNIT, ZERO, cyclic
from hsw.series import OrderError, Series1, Series2

from _support import ALPHABET_01Z, random_poly

Z = cyclic(1)
e1 = HPoly.from_word(to_word((UNIT,)))


def star_power(p: HPoly, n: int) -> HPoly:
    out = HPoly.one()
    for _ in range(n):
        out = harmonic(out, p)
    return out


def exp_star_oracle(f: Series1) -> Series1:
    """Independent exponential: sum f^{*n} / n! by explicit repeated products."""
    order = f.order
    out = {0: HPoly.one()}
    power = Series1.one(order)
    for n in range(1, order + 1):
        power = power.star(f)
        inv_fact = Fraction(1, math.factorial(n))
        for d, p in power.coeffs.items():
            out[d] = out.get(d, HPoly.zero()) + p * inv_fact
    return Series1(out, order)


class TestBasics:
    def test_mul_examples(self):
        f = Series1({1: e1}, 4)
        sq = f.star(f)
        assert sq.coeff(2) == harmonic(e1, e1)
        assert sq.coeff(1).is_zero
        one = Series1.one(4)
        assert one.star(f) == f

    def test_add_cancel(self):
        f = Series1({2: e1, 3: e1 * 2}, 5)
        assert (f + f.scale(-1)).is_zero

    def test_order_reconciliation(self):
        f = Series1({1: e1}, 6)
        g = Series1({1: e1}, 4)
        assert f.star(g).order == 4

    def test_truncation_guard(self):
        f = Series1({1: e1}, 4)
        with pytest.raises(OrderError):
            f.coeff(5)
        with pytest.raises(OrderError):
            Series1({5: e1}, 4)


class TestExpLog:
    def test_exp_zero(self):
        assert Series1.zero(5).exp_star() == Series1.one(5)

    def test_exp_matches_series_oracle(self):
        s = HPoly.from_word(s_word(cyclic(2), 2))
        f = Series1({2: s}, 8)
        assert f.exp_star() == exp_star_oracle(f)
        g = f.exp_star()
        assert g.coeff(4) == harmonic(s, s) * Fraction(1, 2)

    def test_exp_random_oracle(self):
        # products of many random words grow combinatorially, so the scale
        # here is deliberately small; correctness, not stress
        rng = random.Random(9)
        for _ in range(8):
            coeffs = {
                d: random_poly(rng, 2, ALPHABET_01Z, max_terms=1)
                for d in range(1, 5)
                if rng.random() < 0.6
            }
            f = Series1(coeffs, 5)
            assert f.exp_star() == exp_star_oracle(f)

    def test_exp_additivity(self):
        rng = random.Random(17)
        for _ in range(6):
            f = Series1({d: random_poly(rng, 2, ALPHABET_01Z, max_terms=1) for d in (1, 2)}, 5)
            g = Series1({d: random_poly(rng, 2, ALPHABET_01Z, max_terms=1) for d in (1, 3)}, 5)
            assert (f + g).exp_star() == f.exp_star().star(g.exp_star())

    def test_preconditions(self):
        with pytest.raises(ValueError):
            Series1.one(4).exp_star()


class TestDerivativeAndShift:
    def test_derivative(self):
        w = HPoly.from_word(s_word(Z, 2))
        f = Series1({3: w}, 5)
        d = f.derivative()
        assert d.order == 4
        assert d.coeff(2) == w * 3
        assert Series1({0: w}, 3).derivative().is_zero

    def test_negate_argument(self):
        f = Series1({0: HPoly.one(), 1: e1, 2: e1 * 2, 3: e1 * 5}, 3)
        g = f.negate_argument()
        assert g.coeff(0) == HPoly.one()
        assert g.coeff(1) == e1 * -1
        assert g.coeff(2) == e1 * 2
        assert g.coeff(3) == e1 * -5


class TestAlgebraLawsOnSeries:
    def test_star_commutative_and_associative(self):
        rng = random.Random(31)
        for _ in range(6):
            f, g, h = (
                Series1(
                    {d: random_poly(rng, 2, ALPHABET_01Z, max_terms=1) for d in (0, 1, 2)},
                    4,
                )
                for _ in range(3)
            )
            assert f.star(g) == g.star(f)
            assert f.star(g).star(h) == f.star(g.star(h))


class TestSeries2:
    def test_injections_and_product(self):
        # a series in x alone times one in y alone: each pair of coefficients lands at its own key
        w2 = HPoly.from_word(s_word(Z, 2))
        fx = Series2({(0, 0): HPoly.one(), (1, 0): e1}, 4)
        fy = Series2({(0, 1): e1, (0, 2): w2}, 4)
        prod = fx.star(fy)
        assert prod.coeffs == {(0, 1): e1, (0, 2): w2, (1, 1): harmonic(e1, e1), (1, 2): harmonic(e1, w2)}
        assert prod.order == 4
        # truncation: (1, 0) times (2, 2) would be degree 5
        assert fx.star(Series2({(2, 2): e1}, 4)).coeffs == {(2, 2): e1}

    def test_truncation(self):
        f = Series2({(1, 1): e1}, 4)
        with pytest.raises(OrderError):
            f.coeff(4, 1)
        with pytest.raises(OrderError):
            Series2({(3, 3): e1}, 4)
