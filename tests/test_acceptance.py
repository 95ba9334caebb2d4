"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is fixed here; nothing is calibrated at
run time.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from hsw.halg import HPoly, Word, harmonic, s_chain, s_word
from hsw.monoid import UNIT, ZERO, cyclic, rational
from hsw.mzveval import H0Evaluator, verify_harmonic_hom, word_to_mzv
from hsw.reg import substitute_st, z_st, z_num
from hsw.trig import sine_reflection, sine_taylor, verify_reflection_product
from hsw.wcalc import (
    addition_defect_coeff,
    ap_witness_addition,
    eval_w,
    g_gen,
    pythagoras_coeff,
    pythagoras_series,
    reduce_ap,
)

from _support import ALPHABET_01, ALPHABET_01ZZ2, random_poly, random_word

Z = cyclic(1)


class _Budget:
    def __init__(self, number: int, name: str, seconds: float):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} ({self.name}): {status} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s ({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_algebra_laws():
    with _Budget(1, "algebra laws", 30):
        rng = random.Random(202401)
        alphabets = (ALPHABET_01, ALPHABET_01ZZ2)
        for case in range(100):  # pairs
            alphabet = alphabets[case % 2]
            p = random_poly(rng, 6, alphabet, max_terms=2)
            q = random_poly(rng, 6, alphabet, max_terms=2)
            pq = harmonic(p, q)
            assert pq == harmonic(q, p)
            assert harmonic(HPoly.one(), p) == p
            u = random_word(rng, rng.randint(0, 6), alphabet)
            v = random_word(rng, rng.randint(0, 6), alphabet)
            product = harmonic(HPoly.from_word(u), HPoly.from_word(v))
            assert all(word.weight == u.weight + v.weight for word in product.terms)
        for case in range(100):  # triples, each factor weight <= 6, total <= 10
            alphabet = alphabets[case % 2]
            while True:
                weights = [rng.randint(0, 6) for _ in range(3)]
                if sum(weights) <= 10:
                    break
            p, q, r = (
                HPoly.from_word(random_word(rng, weight, alphabet)) * rng.choice([1, 2, -1])
                for weight in weights
            )
            assert harmonic(harmonic(p, q), r) == harmonic(p, harmonic(q, r))


def test_criterion_2_sine_coincidence():
    with _Budget(2, "sine coincidence", 60):
        for k in (1, 2, 3):
            assert sine_taylor(Z, k, 12) == sine_reflection(Z, k, 12)
            for n in range(1, 6):
                lhs = HPoly.from_word(s_chain(Z, k, n)) * n
                rhs = HPoly.zero()
                for i in range(1, n + 1):
                    rhs = rhs + harmonic(
                        HPoly.from_word(s_word(Z**i, i * k)),
                        HPoly.from_word(s_chain(Z, k, n - i)),
                    )
                assert lhs == rhs


def test_criterion_3_addition_formula():
    with _Budget(3, "addition formula", 30):
        for total in range(10):
            for i in range(total + 1):
                assert reduce_ap(addition_defect_coeff(i, total - i)) == {}
        for m in range(5):
            for n in range(5 - m):
                for i, j in ((2 * m + 1, 2 * n), (2 * m, 2 * n + 1)):
                    scalar, mm, nn = ap_witness_addition(i, j)
                    assert (mm, nn) == (m, n)
                    assert scalar == Fraction(
                        1, math.factorial(i) * math.factorial(j)
                    )
                    assert addition_defect_coeff(i, j) == g_gen(m, n) * scalar


def test_criterion_4_pythagorean_identity():
    with _Budget(4, "pythagorean identity", 60):
        direct = pythagoras_series(Z, 10)
        for n in range(6):
            expected = {0: Fraction(1)} if n == 0 else {}
            assert reduce_ap(pythagoras_coeff(n)) == expected
            assert direct.coeff(2 * n) == eval_w(pythagoras_coeff(n), Z)


def test_criterion_5_regularization():
    with _Budget(5, "regularization", 60):
        rng = random.Random(202405)
        alphabets = (ALPHABET_01, (ZERO, UNIT, Z))
        for case in range(100):
            alphabet = alphabets[case % 2]
            p = random_poly(rng, 5, alphabet, max_terms=3)
            rv = z_st(p)
            rv.validate()
            assert substitute_st(rv) == p
        for case in range(50):
            alphabet = alphabets[case % 2]
            u = random_poly(rng, 5, alphabet, max_terms=1)
            v = random_poly(rng, 5, alphabet, max_terms=1)
            assert z_st(harmonic(u, v)) == z_st(u) * z_st(v)


def test_criterion_6_assumption_numerics():
    with _Budget(6, "assumption numerics", 10):
        evaluator = H0Evaluator()
        # sine-coefficient values: Z((2n+1)! s[1,2]^n) = (-pi^2)^n
        for n in range(4):
            poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
            assert abs(z_num(poly, evaluator) - (-(math.pi**2)) ** n) < 1e-8
        # unit-letter value vanishes exactly
        assert z_num(HPoly.from_word(Word((UNIT,))), evaluator) == 0.0
        # depth-one values against an independent reference
        for k in range(2, 7):
            value = z_num(HPoly.from_word(s_word(UNIT, k)), evaluator)
            assert abs(value + float(mpmath.zeta(k))) < 1e-9


def test_criterion_7_classical_recovery():
    with _Budget(7, "classical recovery", 60):
        evaluator = H0Evaluator()
        # Taylor coefficients of sin(pi x)/pi
        for n in range(5):
            value = z_num(HPoly.from_word(s_chain(UNIT, 2, n)), evaluator)
            expected = (-1) ** n * math.pi ** (2 * n) / math.factorial(2 * n + 1)
            assert abs(value - expected) < 1e-8
        # addition-formula residuals up to weight 8
        for total in (3, 5, 7, 9):
            for i in range(total + 1):
                wp = addition_defect_coeff(i, total - i)
                if wp.is_zero:
                    continue
                value = z_num(eval_w(wp, UNIT), evaluator)
                assert abs(value) < 1e-8
        # Pythagorean residuals up to weight 8
        for n in range(5):
            value = z_num(eval_w(pythagoras_coeff(n), UNIT), evaluator)
            assert abs(value - (1.0 if n == 0 else 0.0)) < 1e-8
        # the named weight-4 relation, normalized to integers
        z22 = evaluator.zeta_value((2, 2))[0]
        z4 = evaluator.zeta_value((4,))[0]
        assert abs(4 * z22 - 3 * z4) < 1e-9


def test_criterion_8_integral_homomorphism():
    with _Budget(8, "integral homomorphism", 120):
        items = list(
            verify_harmonic_hom(
                letters=(2, 3, Fraction(5, 2)), max_weight=2, tol=1e-5
            )
        )
        assert items and all(item.passed for item in items)


def test_criterion_9_reflection_product():
    with _Budget(9, "reflection product", 30):
        lhs = sine_reflection(Z**2, 2, 8)
        base = sine_reflection(Z, 1, 7)
        rhs = base.star(base.negate_argument()).shift_up(1)
        assert lhs == rhs
        assert all(item.passed for item in verify_reflection_product(UNIT, order=8))
