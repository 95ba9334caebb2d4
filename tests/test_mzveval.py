import math
from fractions import Fraction

import mpmath
import pytest

from hsw.halg import HPoly, Word, harmonic, s_chain, s_word
from hsw.monoid import UNIT, ZERO, cyclic, rational
from hsw.mzveval import (
    H0Evaluator,
    InadmissibleIndexError,
    MzvIndex,
    UnsupportedWordError,
    check_assumptions,
    iterint_num,
    verify_harmonic_hom,
    word_to_mzv,
    zeta,
)
from hsw.reg import z_num, z_num_with_bound


def w(*letters) -> Word:
    return Word(letters)


def zeta_brute(ks, cutoff):
    """Direct nested summation, depth <= 3; the slow reference the DP must match."""
    r = len(ks)
    total = 0.0
    if r == 1:
        for n in range(1, cutoff + 1):
            total += n ** -ks[0]
    elif r == 2:
        for n2 in range(2, cutoff + 1):
            inner = sum(n1 ** -ks[0] for n1 in range(1, n2))
            total += inner * n2 ** -ks[1]
    elif r == 3:
        for n3 in range(3, cutoff + 1):
            acc = 0.0
            for n2 in range(2, n3):
                inner = sum(n1 ** -ks[0] for n1 in range(1, n2))
                acc += inner * n2 ** -ks[1]
            total += acc * n3 ** -ks[2]
    return total


class TestWordToMzv:
    def test_depth_one(self):
        idx = word_to_mzv(s_word(UNIT, 2))
        assert idx == MzvIndex((2,), -1)

    def test_depth_two(self):
        idx = word_to_mzv(w(UNIT, ZERO, UNIT, ZERO))
        assert idx == MzvIndex((2, 2), 1)

    def test_inner_ones(self):
        idx = word_to_mzv(w(UNIT, UNIT, ZERO))
        assert idx == MzvIndex((1, 2), 1)

    def test_empty(self):
        assert word_to_mzv(Word()) == MzvIndex((), 1)

    def test_errors(self):
        with pytest.raises(InadmissibleIndexError):
            word_to_mzv(w(UNIT))  # trailing unit letter
        with pytest.raises(InadmissibleIndexError):
            word_to_mzv(w(ZERO, UNIT))  # leading zero letter
        with pytest.raises(UnsupportedWordError):
            word_to_mzv(w(rational(2), ZERO))


class TestZeta:
    def test_empty_index(self):
        assert zeta(()) == (1.0, 0.0)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleIndexError):
            zeta((2, 1))
        with pytest.raises(InadmissibleIndexError):
            zeta((0, 2))

    def test_matches_brute_force_partial_sums(self):
        # identical truncated sums, modulo float association
        for ks in [(2,), (3,), (2, 2), (1, 2), (2, 3), (2, 2, 2), (1, 1, 3)]:
            dp = zeta(ks, n_terms=200, em_correct=False)[0]
            brute = zeta_brute(ks, 200)
            assert abs(dp - brute) < 1e-12

    def test_depth_one_against_reference(self):
        for k in range(2, 7):
            v, b = zeta((k,))
            ref = float(mpmath.zeta(k))
            assert abs(v - ref) < 1e-12
            assert abs(v - ref) <= b

    def test_closed_forms(self):
        cases = {
            (2,): math.pi**2 / 6,
            (4,): math.pi**4 / 90,
            (2, 2): math.pi**4 / 120,
            (2, 2, 2): math.pi**6 / 5040,
            (2, 2, 2, 2): math.pi**8 / 362880,
        }
        for ks, ref in cases.items():
            v, b = zeta(ks)
            assert abs(v - ref) < 1e-10
            assert abs(v - ref) <= b

    def test_inner_ones_accuracy(self):
        # zeta(1,2) = zeta(3), a classical evaluation
        v, b = zeta((1, 2))
        ref = float(mpmath.zeta(3))
        assert abs(v - ref) < 1e-9
        assert abs(v - ref) <= b

    def test_named_relation(self):
        assert abs(4 * zeta((2, 2))[0] - 3 * zeta((4,))[0]) < 1e-9

    def test_monotone_convergence(self):
        for ks in [(2,), (2, 2), (1, 2)]:
            v1, b1 = zeta(ks, n_terms=1000, em_correct=False)
            v2, _ = zeta(ks, n_terms=2000, em_correct=False)
            assert abs(v2 - v1) <= b1

    def test_bound_shrinks_with_cutoff(self):
        _, b1 = zeta((2, 2), n_terms=1000)
        _, b2 = zeta((2, 2), n_terms=10000)
        assert b2 < b1


class TestIterint:
    def test_empty_word(self):
        assert iterint_num(Word()) == 1.0

    def test_log_two(self):
        v = iterint_num(w(rational(2)))
        assert abs(v + math.log(2)) < 1e-10

    def test_dilogarithm(self):
        v = iterint_num(w(rational(2), ZERO))
        assert abs(v + float(mpmath.polylog(2, 0.5))) < 1e-8

    def test_weight_two_against_mpmath(self):
        def outer(t2):
            return mpmath.quad(lambda t1: 1 / (t1 - 2), [0, t2]) / (t2 - 3)

        ref = float(mpmath.quad(outer, [0, 1]))
        v = iterint_num(w(rational(2), rational(3)))
        assert abs(v - ref) < 1e-8

    def test_multiplicativity_depth_one(self):
        u = w(rational(2))
        lhs = iterint_num(u) ** 2
        product = harmonic(HPoly.from_word(u), HPoly.from_word(u))
        rhs = sum(float(c) * iterint_num(word) for word, c in product.terms.items())
        assert abs(lhs - rhs) < 2e-7

    def test_decay_for_distant_poles(self):
        for q in (10, 100):
            v = iterint_num(w(rational(q)))
            assert abs(q * v + 1) < 1.2 / q

    def test_rejections(self):
        with pytest.raises(UnsupportedWordError):
            iterint_num(w(rational(2), UNIT, ZERO))
        with pytest.raises(InadmissibleIndexError):
            iterint_num(w(ZERO, rational(2)))
        with pytest.raises(UnsupportedWordError):
            iterint_num(w(cyclic(1)))


class TestEvaluator:
    def test_dispatch(self):
        ev = H0Evaluator()
        v, b = ev(s_word(UNIT, 2))
        assert abs(v + math.pi**2 / 6) < 1e-12
        v, _ = ev(w(rational(2)))
        assert abs(v + math.log(2)) < 1e-9
        assert ev(Word()) == (1.0, 0.0)

    def test_z_num_values(self):
        ev = H0Evaluator()
        assert z_num(HPoly.from_word(w(UNIT)), ev) == 0.0
        v = z_num(HPoly.from_word(s_word(UNIT, 2)), ev)
        assert abs(v + math.pi**2 / 6) < 1e-12
        v, b = z_num_with_bound(HPoly.from_word(w(UNIT, UNIT)), ev)
        assert abs(v + math.pi**2 / 12) < 1e-12
        assert b < 1e-9

    def test_stuffle_consistency_random_pairs(self):
        # numeric homomorphism on zeta words, within the reported bounds
        ev = H0Evaluator()
        words = [
            s_word(UNIT, 2),
            s_word(UNIT, 3),
            w(UNIT, UNIT, ZERO),
            s_word(UNIT, 2) + s_word(UNIT, 2),
        ]
        for u in words:
            for v in words:
                if u.weight + v.weight > 6:
                    continue
                vu, bu = ev(u)
                vv, bv = ev(v)
                rhs = 0.0
                rhs_bound = 0.0
                for word, c in harmonic(
                    HPoly.from_word(u), HPoly.from_word(v)
                ).terms.items():
                    val, b = ev(word)
                    rhs += float(c) * val
                    rhs_bound += abs(float(c)) * b
                combined = rhs_bound + abs(vu) * bv + abs(vv) * bu + bu * bv + 1e-13
                assert abs(vu * vv - rhs) <= combined


class TestAssumptionChecks:
    def test_all_pass(self):
        items = list(check_assumptions(n_max=3, k_max=6, tol=1e-8))
        assert all(item.passed for item in items)

    def test_w_values_alternate_sign(self):
        ev = H0Evaluator()
        for n in range(4):
            poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
            v = z_num(poly, ev)
            assert abs(v - (-(math.pi**2)) ** n) < 1e-8


class TestHarmonicHomDriver:
    def test_small_run(self):
        items = list(
            verify_harmonic_hom(letters=(2, 3), max_weight=1, tol=1e-6)
        )
        assert items and all(item.passed for item in items)
