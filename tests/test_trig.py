from fractions import Fraction

import pytest

from hsw.halg import HPoly, harmonic, s_chain, s_word
from hsw.monoid import UNIT, cyclic
from hsw.series import Series1
from hsw.trig import (
    cosine,
    sine,
    sine_reflection,
    sine_taylor,
    verify_coincidence,
    verify_reflection_product,
)

Z = cyclic(1)


class TestSineTaylor:
    def test_leading_term(self):
        for k in (1, 2, 3):
            f = sine_taylor(Z, k, 8)
            assert f.coeff(k - 1) == HPoly.one()

    def test_k2_chain_coefficients(self):
        f = sine_taylor(Z, 2, 11)
        for n in range(6):
            assert f.coeff(2 * n + 1) == HPoly.from_word(s_chain(Z, 2, n))

    def test_parity_k2(self):
        f = sine_taylor(Z, 2, 12)
        assert all(d % 2 == 1 for d in f.coeffs)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            sine_taylor(Z, 0, 4)


class TestSineReflection:
    def test_two_step_expansion_k1(self):
        # exp of s[z,1]x + s[z^2,2]x^2/2 + ..., expanded by hand to x^2
        f = sine_reflection(Z, 1, 2)
        s1 = HPoly.from_word(s_word(Z, 1))
        s22 = HPoly.from_word(s_word(cyclic(2), 2))
        assert f.coeff(0) == HPoly.one()
        assert f.coeff(1) == s1
        assert f.coeff(2) == s22 * Fraction(1, 2) + harmonic(s1, s1) * Fraction(1, 2)

    def test_x3_coefficient_k2(self):
        f = sine_reflection(Z, 2, 4)
        assert f.coeff(1) == HPoly.one()
        assert f.coeff(3) == HPoly.from_word(s_word(Z, 2))

    def test_log_recovers_argument(self):
        # core = exp_*(arg) exactly when core(0) = 1 and core' = arg' * core
        for k in (1, 2, 3):
            order = 9 - (k - 1)
            arg = Series1(
                {
                    n * k: HPoly.from_word(s_word(cyclic(n), n * k)) * Fraction(1, n)
                    for n in range(1, order // k + 1)
                },
                order,
            )
            reflection = sine_reflection(Z, k, 9)
            core = Series1({d - (k - 1): p for d, p in reflection.coeffs.items()}, order)
            assert core.coeff(0) == HPoly.one()
            assert core.derivative() == arg.derivative().star(core)


class TestCosine:
    def test_even_coefficients(self):
        c = cosine(Z, 8)
        assert c.coeff(0) == HPoly.one()
        assert c.coeff(2) == HPoly.from_word(s_word(Z, 2)) * 3
        assert all(d % 2 == 0 for d in c.coeffs)

    def test_is_derivative_of_sine(self):
        s = sine(Z, 9)
        c = cosine(Z, 8)
        assert s.derivative() == c


class TestCoincidence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_series_and_coefficients(self, k):
        items = list(verify_coincidence(Z, k=k, max_n=5, order=10))
        assert all(item.passed for item in items)

    def test_unit_element(self):
        items = list(verify_coincidence(UNIT, k=2, max_n=4, order=8))
        assert all(item.passed for item in items)

    def test_n2_identity_explicitly(self):
        # 2 s[z^2,k]s[z,k] = s[z,k]*s[z,k] + s[z^2,2k]
        for k in (1, 2, 3):
            s = HPoly.from_word(s_word(Z, k))
            lhs = HPoly.from_word(s_chain(Z, k, 2)) * 2
            rhs = harmonic(s, s) + HPoly.from_word(s_word(cyclic(2), 2 * k))
            assert lhs == rhs

    def test_logarithmic_derivative_form(self):
        # sum nk chain_n x^{nk-1} = (k sum s[z^n,nk] x^{nk-1}) * (sum chain_n x^{nk})
        k, order = 2, 8
        chains = Series1(
            {n * k: HPoly.from_word(s_chain(Z, k, n)) for n in range(order // k + 1)},
            order,
        )
        numer = Series1(
            {
                n * k - 1: HPoly.from_word(s_chain(Z, k, n)) * (n * k)
                for n in range(1, order // k + 1)
            },
            order - 1,
        )
        rhs = Series1(
            {
                n * k - 1: HPoly.from_word(s_word(cyclic(n), n * k)) * k
                for n in range(1, order // k + 1)
            },
            order - 1,
        )
        assert numer == rhs.star(chains)

    def test_product_reformulation(self):
        # sum n chain_n x^{nk} = (sum s[z^n,nk] x^{nk}) * (sum chain_n x^{nk})
        k, order = 2, 10
        chains = {n * k: HPoly.from_word(s_chain(Z, k, n)) for n in range(order // k + 1)}
        lhs = Series1({d: p * (d // k) for d, p in chains.items()}, order)
        blocks = Series1(
            {
                n * k: HPoly.from_word(s_word(cyclic(n), n * k))
                for n in range(1, order // k + 1)
            },
            order,
        )
        assert lhs == blocks.star(Series1(chains, order))


class TestReflectionProduct:
    @pytest.mark.parametrize("z", [Z, UNIT])
    def test_identity(self, z):
        items = list(verify_reflection_product(z, order=6))
        assert all(item.passed for item in items)
