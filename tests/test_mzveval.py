import functools
import inspect
import math
import time
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsw.halg import HPoly, Word, format_word, harmonic, s_chain, s_word, star_terms, to_letters, to_word
from hsw.monoid import UNIT, ZERO, cyclic, rational
from hsw.mzveval import (
    H0Evaluator,
    InadmissibleIndexError,
    QuadratureError,
    UnsupportedWordError,
    verify_harmonic_hom,
    _index_word,
    _iterint_estimates,
    _split,
    _walk_prefixes,
    _zeta_plan,
    word_to_mzv,
    zeta,
    zeta_batch,
)
from hsw import mzveval
from hsw.cli import relation_records
from hsw.reg import RegularizationError, RegularizedValue, is_admissible, reg_t, z_num_with_bound
from hsw.wcalc import addition_defect_coeff, eval_w, pythagoras_coeff


def w(*letters) -> Word:
    return to_word(letters)


def series_brute(ks, cutoff):
    """Direct nested sum ``sum 2^-n_d / prod n_i^m_i`` over ``n_1 < ... < n_d <= cutoff``, depth <= 3.

    The slow reference for the prefix series: the iterated integral at 1/2 of
    the word of ``ks``, truncated after the ``x^cutoff`` term.
    """
    r = len(ks)
    total = 0.0
    if r == 1:
        for n in range(1, cutoff + 1):
            total += 0.5**n / n ** ks[0]
    elif r == 2:
        for n2 in range(2, cutoff + 1):
            inner = sum(n1 ** -ks[0] for n1 in range(1, n2))
            total += inner * 0.5**n2 / n2 ** ks[1]
    elif r == 3:
        for n3 in range(3, cutoff + 1):
            acc = 0.0
            for n2 in range(2, n3):
                inner = sum(n1 ** -ks[0] for n1 in range(1, n2))
                acc += inner * n2 ** -ks[1]
            total += acc * 0.5**n3 / n3 ** ks[2]
    return total


def compositions(weight, depth):
    """Admissible indices of the given weight and depth (trailing entry >= 2)."""
    if depth == 1:
        return [(weight,)] if weight >= 2 else []
    return [
        (k,) + rest
        for k in range(1, weight)
        for rest in compositions(weight - k, depth - 1)
    ]


def assert_index(word, ks, sign):
    # I(w) = (-1)^depth zeta(index)
    assert word_to_mzv(word) == ks
    assert H0Evaluator()(to_letters(word))[0] == sign * zeta(ks)[0]


class TestWordToMzv:
    def test_depth_one(self):
        assert_index(s_word(UNIT, 2), (2,), -1)

    def test_depth_two(self):
        assert_index(w(UNIT, ZERO, UNIT, ZERO), (2, 2), 1)

    def test_inner_ones(self):
        assert_index(w(UNIT, UNIT, ZERO), (1, 2), 1)

    def test_empty(self):
        assert_index("", (), 1)

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

    @pytest.mark.parametrize("index", [(True, 2), (3, True), (False, 2), (2.0,), (Fraction(2),)])
    def test_entries_must_be_ints(self, index):
        # True == 1 and isinstance(True, int), but zeta((True, 2)) is no zeta(1, 2)
        with pytest.raises(InadmissibleIndexError, match="positive integers"):
            zeta(index)

    def test_matches_brute_force_partial_sums(self):
        # the fixed-point prefix series equals the nested sum up to its rounding units:
        # at R = 2 a unit letter is the letter 2 at x = 1, so the series is at 1/2
        n_terms, bits = 40, 40
        head_scale = _split(1, 1)[2]
        forms = {UNIT.id: head_scale, ZERO.id: (0, 1)}
        for ks in [(2,), (3,), (1,), (2, 2), (1, 2), (2, 1), (2, 3), (2, 2, 2), (1, 1, 3), (1, 2, 1)]:
            word = _index_word(ks)
            head = _walk_prefixes([word], forms, n_terms, bits)[word]
            assert len(head) == len(word) + 1 and head[0] == 1 << bits
            series = (-1) ** len(ks) * head[-1] / (1 << bits)
            units = sum(1 if a == ZERO.id else 2 for a in word)
            brute = series_brute(ks, n_terms)
            assert abs(brute - series) <= n_terms * units * 2.0**-bits + 1e-15

    def test_depth_one_against_reference(self):
        for k in range(2, 7):
            v, b = zeta((k,))
            ref = float(mpmath.zeta(k))
            assert abs(v - ref) < 1e-12
            assert abs(v - ref) <= b

    def test_closed_forms(self):
        # each reference rounded once from 30 digits: a float expression such as
        # math.pi**8 / 362880 is itself 3 ulp off, more than the bound allows
        with mpmath.workdps(30):
            cases = {
                (2,): float(mpmath.pi**2 / 6),
                (4,): float(mpmath.pi**4 / 90),
                (2, 2): float(mpmath.pi**4 / 120),
                (2, 2, 2): float(mpmath.pi**6 / 5040),
                (2, 2, 2, 2): float(mpmath.pi**8 / 362880),
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
        # a coarse and a fine truncation differ by at most their stated shortfalls
        for ks in [(2,), (2, 2), (1, 2), (1, 1, 3)]:
            word = _index_word(ks)
            v1, b1 = _iterint_estimates({word: 2.0**-30})[word]
            v2, b2 = _iterint_estimates({word: 2.0**-60})[word]
            assert abs(v2 - v1) <= b1 + b2
            assert b2 < b1 <= 2.0**-30

    def test_bound_shrinks_with_cutoff(self):
        word = _index_word((2, 2))
        bounds = []
        with mpmath.workdps(40):
            exact = mpmath.pi**4 / 120
            for tol in (2.0**-20, 2.0**-40, 2.0**-50):
                v, b = _iterint_estimates({word: tol})[word]
                assert abs(exact - mpmath.mpf(v)) <= b
                bounds.append(b)
        assert bounds[0] > bounds[1] > bounds[2]

    def test_relations_within_bound(self):
        # weight 2..16: |residual| <= bound holds by construction
        evaluator = H0Evaluator()
        for weight in range(2, 17, 2):
            records = list(relation_records(weight, evaluator))
            assert records or weight == 2
            for rec in records:
                assert abs(rec["residual"]) <= rec["bound"] <= 1e-12

    def test_relation_polynomials_vanish_within_bound(self):
        # every nonzero addition and Pythagoras coefficient of weight 2..16 evaluates to 0
        evaluator = H0Evaluator()
        weights = range(2, 17, 2)
        polys = [addition_defect_coeff(i, weight + 1 - i) for weight in weights for i in range(weight + 2)]
        polys += [pythagoras_coeff(weight // 2) for weight in weights]
        polys = [wp for wp in polys if not wp.is_zero]
        assert len(polys) == 63
        for wp in polys:
            value, bound = z_num_with_bound(eval_w(wp, UNIT), evaluator)
            assert abs(value) <= bound <= 1e-12


def _zeta_pi_power(n):
    return mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)


class TestClosedForms:
    """zeta against mpmath at 30 digits: the error lies within a bound of at most 1e-15."""

    @pytest.fixture(autouse=True)
    def thirty_digits(self):
        with mpmath.workdps(30):
            yield

    @staticmethod
    def check(indices, ref):
        values = [zeta(ks) for ks in indices]
        bound = sum(b for _, b in values)
        assert abs(sum(mpmath.mpf(v) for v, _ in values) - ref) <= bound <= 1e-15

    @pytest.mark.parametrize("k", range(2, 17))
    def test_single(self, k):
        self.check([(k,)], mpmath.zeta(k))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_twos(self, n):
        self.check([(2,) * n], _zeta_pi_power(n))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_ones_then_two(self, n):
        self.check([(1,) * n + (2,)], mpmath.zeta(n + 2))

    def test_one_three(self):
        self.check([(1, 3)], mpmath.pi**4 / 360)
        self.check([(1, 3, 1, 3)], 2 * mpmath.pi**8 / mpmath.factorial(10))

    @pytest.mark.parametrize("weight", range(2, 9))
    def test_sum_theorem(self, weight):
        for depth in range(1, weight):
            self.check(compositions(weight, depth), mpmath.zeta(weight))


class TestIterint:
    def test_empty_word(self):
        assert H0Evaluator()(())[0] == 1.0

    def test_log_two(self):
        # the error asked for is below 1e-10, so the tolerance is too: the default 1e-7 allows more
        v, bound = H0Evaluator(tol=1e-11)(to_letters(w(rational(2))))
        assert abs(v + math.log(2)) < 1e-10
        assert abs(v + math.log(2)) <= bound

    def test_dilogarithm(self):
        v = H0Evaluator()(to_letters(w(rational(2), ZERO)))[0]
        assert abs(v + float(mpmath.polylog(2, 0.5))) < 1e-8

    def test_weight_two_against_mpmath(self):
        def outer(t2):
            return mpmath.quad(lambda t1: 1 / (t1 - 2), [0, t2]) / (t2 - 3)

        ref = float(mpmath.quad(outer, [0, 1]))
        v = H0Evaluator()(to_letters(w(rational(2), rational(3))))[0]
        assert abs(v - ref) < 1e-8

    def test_multiplicativity_depth_one(self):
        u = w(rational(2))
        ev = H0Evaluator()
        lhs = ev(to_letters(u))[0] ** 2
        product = harmonic(HPoly.from_word(u), HPoly.from_word(u))
        rhs = sum(float(c) * ev(to_letters(word))[0] for word, c in product.terms.items())
        assert abs(lhs - rhs) < 2e-7

    def test_decay_for_distant_poles(self):
        for q in (10, 100):
            v = H0Evaluator()(to_letters(w(rational(q))))[0]
            assert abs(q * v + 1) < 1.2 / q

    def test_rejections(self):
        with pytest.raises(InadmissibleIndexError):
            H0Evaluator()(to_letters(w(ZERO, rational(2))))
        with pytest.raises(UnsupportedWordError):
            H0Evaluator()(to_letters(w(cyclic(1))))


def real_word(*letters) -> tuple:
    """The letters of a real-letter word, as the evaluator takes them."""
    return tuple(ZERO if a == 0 else rational(a) for a in letters)


def mpf_of(q) -> mpmath.mpf:
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


@functools.lru_cache(maxsize=None)
def nested_quad(letters):
    """``I(a_1..a_k)`` by nested ``mpmath.quad``, the innermost letter in closed form."""
    values = [mpf_of(a) for a in letters]

    def g(j, t):  # G(a_1..a_j; t)
        if j == 1:
            return mpmath.log(1 - t / values[0])
        return mpmath.quad(lambda s: g(j - 1, s) / (s - values[j - 1]), [0, t])

    return g(len(values), mpmath.mpf(1))


CLOSED_FORM_LETTERS = [2, -2, Fraction(5, 2), -1, Fraction(5, 4)]


class TestIterintClosedForms:
    """Real-letter words against mpmath at 30 digits: the error lies within a bound of at most tol."""

    @pytest.fixture(autouse=True)
    def thirty_digits(self):
        with mpmath.workdps(30):
            yield

    @staticmethod
    def check(word, ref, tol):
        v, b = H0Evaluator(tol=tol)(word)
        assert abs(mpmath.mpf(v) - ref) <= b <= tol

    @pytest.mark.parametrize("tol", [1e-7, 1e-13])
    @pytest.mark.parametrize("z", CLOSED_FORM_LETTERS + [Fraction(101, 100)])
    def test_log(self, z, tol):
        self.check(real_word(z), mpmath.log(1 - 1 / mpf_of(z)), tol)

    @pytest.mark.parametrize("tol", [1e-7, 1e-13])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("z", CLOSED_FORM_LETTERS)
    def test_polylog(self, z, k, tol):
        self.check(real_word(z, *[0] * (k - 1)), -mpmath.polylog(k, 1 / mpf_of(z)), tol)

    @pytest.mark.parametrize(
        "letters",
        [(Fraction(5, 2), 0, Fraction(7, 3)), (-2, 3, 2), (2, -1, 0), (Fraction(3, 2), -1, Fraction(5, 4))],
    )
    def test_depth_three(self, letters):
        self.check(real_word(*letters), nested_quad(letters), 1e-13)

    @pytest.mark.parametrize("tol", [1e-7, 1e-13])
    @pytest.mark.parametrize("letters", [(1, 2), (2, 1, 0), (1, -1), (1, -1, 0)])
    def test_unit_letter(self, letters, tol):
        self.check(real_word(*letters), nested_quad(letters), tol)

    def test_bound_shrinks_with_tol(self):
        word = real_word(Fraction(5, 2), 0, Fraction(7, 3))
        tols = [1e-5, 1e-9, 1e-13]
        bounds = [H0Evaluator(tol=tol)(word)[1] for tol in tols]
        assert bounds[0] > bounds[1] > bounds[2]
        assert all(b <= tol for b, tol in zip(bounds, tols))

    def test_letter_near_one_refused_fast(self):
        start = time.perf_counter()
        with pytest.raises(QuadratureError):
            H0Evaluator()(real_word(Fraction(1000001, 1000000)))
        assert time.perf_counter() - start < 0.5

    def test_tolerance_below_double_precision(self):
        with pytest.raises(QuadratureError):
            H0Evaluator(tol=1e-20)(real_word(2))

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan])
    def test_tolerance_not_positive(self, tol):
        with pytest.raises(ValueError):
            H0Evaluator(tol=tol)(real_word(2))


def cut_reference(letters) -> mpmath.mpf:
    """``I(a) = log(1 - 1/a)`` and ``I(a, 0) = -Li_2(1/a)``; any other word by nested quadrature."""
    if len(letters) == 1:
        return mpmath.log(1 - 1 / mpf_of(letters[0]))
    if letters[1:] == (0,):
        return -mpmath.polylog(2, 1 / mpf_of(letters[0]))
    return nested_quad(letters)


# (letters, tol, cut): y = 1 needs m0 > 1 and y = 0 needs m1 > 1, so (-1, 0) can only be
# split; (-2, 3) has m0 = m1 = 2, a tie of 2N = N steps.  At tol 0.1 one term of I(26)
# is enough and the truncation is most of its error; at the tighter tolerances the
# rounding units alone still cover every case's true error.
CUT_CASES = [
    ((2,), 1e-7, "head"),
    ((2,), 1e-13, "head"),
    ((2, 0), 1e-7, "head"),
    ((5, 0), 1e-13, "head"),
    ((26,), 0.1, "head"),
    ((-2,), 1e-7, "tail"),
    ((-2,), 1e-13, "tail"),
    ((-3,), 1e-9, "tail"),
    ((-1, 0), 1e-7, "split"),
    ((-1, 0), 1e-13, "split"),
    ((-2, 3), 1e-7, "split"),
    ((-2, 3), 1e-13, "split"),
]


class TestCuts:
    """Each word takes the cut of fewest series steps: one walk for the head or tail alone, two for the split."""

    @pytest.fixture(autouse=True)
    def thirty_digits(self):
        with mpmath.workdps(30):
            yield

    @pytest.mark.parametrize("letters, tol, cut", CUT_CASES)
    def test_cut_within_bound(self, monkeypatch, letters, tol, cut):
        forms = []
        walk = mzveval._walk_prefixes
        monkeypatch.setattr(mzveval, "_walk_prefixes", lambda seqs, f, *rest: forms.append(f) or walk(seqs, f, *rest))
        word = w(*real_word(*letters))
        value, bound = _iterint_estimates({word: tol})[word]
        assert abs(mpmath.mpf(value) - cut_reference(letters)) <= bound <= tol
        assert len(forms) == (2 if cut == "split" else 1)
        # unscaled, a letter a is a in the head walk and 1 - a in the tail walk
        a = Fraction(letters[0])
        if cut != "split":
            assert forms[0][word[0]] == {"head": a, "tail": 1 - a}[cut].as_integer_ratio()

    def test_one_sided_bound_needs_its_truncation(self):
        # the kernel with the truncation left out of a one-sided bound misses some reference
        source = inspect.getsource(mzveval._iterint_estimates)
        assert source.count("units = trunc + n_terms") == 1
        namespace = dict(vars(mzveval))
        exec(source.replace("units = trunc + n_terms", "units = n_terms"), namespace)
        mutant = namespace["_iterint_estimates"]
        missed = []
        for letters, tol, cut in CUT_CASES:
            word = w(*real_word(*letters))
            value, bound = mutant({word: tol})[word]
            if abs(mpmath.mpf(value) - cut_reference(letters)) > bound:
                missed.append(cut)
        assert missed and "split" not in missed


BATCH_LETTERS = [ZERO.id, UNIT.id] + [rational(q).id for q in (2, 3, Fraction(5, 2), -2, Fraction(7, 3), -1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(BATCH_LETTERS), min_size=1, max_size=6).map("".join).filter(is_admissible),
             min_size=1, max_size=12),
    st.sampled_from([1e-5, 1e-9, 1e-13, 2.0**-70]),
)
def test_batch_equals_its_parts(words, tol):
    # a word's value and bound do not depend on the rest of its batch, bit for bit
    batch = _iterint_estimates(dict.fromkeys(words, tol))
    assert batch.keys() == set(words)
    for word in words:
        value, bound = _iterint_estimates({word: tol})[word]
        assert (batch[word][0].hex(), batch[word][1].hex()) == (value.hex(), bound.hex())


class TestEvaluator:
    def test_dispatch(self):
        ev = H0Evaluator()
        v, b = ev(to_letters(s_word(UNIT, 2)))
        assert abs(v + math.pi**2 / 6) < 1e-12
        v, _ = ev(to_letters(w(rational(2))))
        assert abs(v + math.log(2)) < 1e-9
        assert ev(()) == (1.0, 0.0)

    def test_z_num_values(self):
        ev = H0Evaluator()
        assert z_num_with_bound(HPoly.from_word(w(UNIT)), ev) == (0.0, 0.0)
        v = z_num_with_bound(HPoly.from_word(s_word(UNIT, 2)), ev)[0]
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
                if len(u) + len(v) > 6:
                    continue
                vu, bu = ev(to_letters(u))
                vv, bv = ev(to_letters(v))
                rhs = 0.0
                rhs_bound = 0.0
                for word, c in harmonic(
                    HPoly.from_word(u), HPoly.from_word(v)
                ).terms.items():
                    val, b = ev(to_letters(word))
                    rhs += float(c) * val
                    rhs_bound += abs(float(c)) * b
                combined = rhs_bound + abs(vu) * bv + abs(vv) * bu + bu * bv + 1e-13
                assert abs(vu * vv - rhs) <= combined


class TestPrefetch:
    @pytest.fixture
    def batches(self, monkeypatch):
        """The word lists that reach the kernel, one per ``_iterint`` call."""
        seen = []
        kernel = H0Evaluator._iterint

        def counted(self, words):
            seen.append(list(words))
            return kernel(self, words)

        monkeypatch.setattr(H0Evaluator, "_iterint", counted)
        return seen

    def test_one_kernel_call_then_cache_hits(self, batches):
        words = [w(rational(2)), w(rational(3), ZERO), w(rational(2)), w(UNIT, rational(-1))]
        ev = H0Evaluator(tol=1e-9)
        ev.prefetch(words)
        assert batches == [list(dict.fromkeys(words))]
        for word in words:
            assert ev(to_letters(word)) == _iterint_estimates({word: 1e-9})[word]
        assert len(batches) == 1

    def test_zeta_words_left_to_zeta(self, batches):
        zeta_word = s_word(UNIT, 2)
        ev = H0Evaluator()
        ev.prefetch([zeta_word, w(rational(2))])
        assert batches == [[w(rational(2))]]
        assert ev(to_letters(zeta_word)) == (-zeta((2,))[0], zeta((2,))[1])
        assert len(batches) == 1

    def test_map_holds_what_a_call_returns(self, batches):
        # letters 2 and -1 put zero and unit letters into the product words
        ids = [rational(2).id, rational(-1).id]
        words = ["".join(p) for n in (1, 2) for p in product(ids, repeat=n)]
        listed = [x for u in words for v in words for x in (u, v, *star_terms(u, v))]
        values = H0Evaluator(tol=1e-9).prefetch(listed)
        assert len(batches) == 1
        assert any(not x.strip("\0\1") for x in listed)
        for x in listed:
            assert bits(values[x]) == bits(H0Evaluator(tol=1e-9)(to_letters(x)))

    @pytest.mark.parametrize(
        "letters, message",
        [
            # the kernel meets the near-one refusal first, while planning its series
            ([2, Fraction(1000001, 1000000)], r"^tolerance 1e-30 is below the double-precision resolution of s\[2,1\]$"),
            ([Fraction(1000001, 1000000), 2], r"^s\[1000001/1000000,1\] needs more than"),
        ],
        ids=["bound-first", "refusal-first"],
    )
    def test_failing_batch_names_first_word_in_order(self, letters, message):
        ev = H0Evaluator(tol=1e-30)
        with pytest.raises(QuadratureError, match=message):
            ev.prefetch([w(rational(q)) for q in letters])

    @pytest.mark.parametrize(
        "zeta_first, error, message",
        [
            (True, InadmissibleIndexError, r"^word s\[1,1\]s\[1,1\] is not admissible$"),
            (False, QuadratureError, r"^tolerance 1e-30 is below the double-precision resolution of s\[2,1\]$"),
        ],
        ids=["zeta-first", "real-first"],
    )
    def test_failing_mixed_batch_names_first_word_in_order(self, zeta_first, error, message):
        # the real-letter batch fails first in either order; the word-by-word retry
        # then meets the inadmissible {0,1} word s[1,1]s[1,1] first or second
        words = [w(UNIT, UNIT), w(rational(2))]
        with pytest.raises(error, match=message):
            H0Evaluator(tol=1e-30).prefetch(words if zeta_first else words[::-1])


ZETA_INDICES = [ks for weight in range(2, 13) for depth in range(1, weight) for ks in compositions(weight, depth)]


@functools.lru_cache(maxsize=None)
def zeta_alone(ks):
    return zeta(ks)


def bits(pair):
    return tuple(x.hex() for x in pair)


class TestZetaBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(ZETA_INDICES), min_size=1, max_size=16),
        st.lists(st.sampled_from(ZETA_INDICES), max_size=6),
    )
    def test_values_as_outside(self, listed, unlisted):
        # listed, repeated and unlisted indices read the same values and bounds, bit for bit
        with zeta_batch(listed):
            got = [zeta(ks) for ks in [*listed, *listed[:3], *unlisted, ()]]
        want = [zeta_alone(ks) for ks in [*listed, *listed[:3], *unlisted]] + [(1.0, 0.0)]
        assert list(map(bits, got)) == list(map(bits, want))

    def test_one_kernel_pass_on_first_use(self, monkeypatch):
        calls = []
        kernel = mzveval._iterint_estimates
        monkeypatch.setattr(mzveval, "_iterint_estimates", lambda tols: calls.append(tols) or kernel(tols))
        listed = [(2,), (1, 3), (2, 2), (4,)]
        with zeta_batch(listed):
            assert calls == []
            zeta((2, 2))
            zeta((4,))
            zeta((2,))
        assert calls == [{_zeta_plan(ks)[1]: _zeta_plan(ks)[2] for ks in listed}]

    def test_scoped_and_nested(self, monkeypatch):
        calls = []
        kernel = mzveval._iterint_estimates
        monkeypatch.setattr(mzveval, "_iterint_estimates", lambda tols: calls.append(set(tols)) or kernel(tols))
        outer, inner = [(2,), (3,)], [(4,), (5,)]
        words = [{_zeta_plan(ks)[1] for ks in group} for group in (outer, inner)]
        with zeta_batch(outer):
            zeta((2,))
            with zeta_batch(inner):
                zeta((4,))
                zeta((3,))  # the outer batch is out of reach: evaluated alone
            zeta((3,))  # the outer batch again, already run
        zeta((2,))  # no batch after the block
        assert calls == [words[0], words[1], {_zeta_plan((3,))[1]}, {_zeta_plan((2,))[1]}]
        assert mzveval._BATCH.get() is None

    def test_closed_after_an_error(self):
        with pytest.raises(RuntimeError):
            with zeta_batch([(2,)]):
                raise RuntimeError
        assert mzveval._BATCH.get() is None

    def test_inadmissible_index_refused(self):
        with pytest.raises(InadmissibleIndexError):
            with zeta_batch([(2,), (2, 1)]):
                pass
        assert mzveval._BATCH.get() is None

    def test_relation_records_one_kernel_call(self, monkeypatch):
        # one pass per weight; zeta is still called once per index, as the benchmark traces it
        calls, indices = [], []
        kernel, exact = mzveval._iterint_estimates, mzveval.zeta
        monkeypatch.setattr(mzveval, "_iterint_estimates", lambda tols: calls.append(tols) or kernel(tols))
        monkeypatch.setattr(mzveval, "zeta", lambda ks: indices.append(tuple(ks)) or exact(ks))
        records = list(relation_records(12, H0Evaluator()))
        assert len(calls) == 1
        assert sorted(indices) == sorted({tuple(t["index"]) for rec in records for t in rec["terms"]})

    def test_relation_records_two_walks(self, monkeypatch):
        # every zeta word of a weight falls in one plan: one head walk and one tail walk
        walks = []
        walk = mzveval._walk_prefixes
        monkeypatch.setattr(mzveval, "_walk_prefixes", lambda *args: walks.append(args[2:]) or walk(*args))
        for weight in range(4, 31, 2):
            walks.clear()
            assert list(relation_records(weight, H0Evaluator()))
            assert len(walks) == 2 and walks[0] == walks[1], weight


def test_zeta_tolerance_per_weight():
    # one tolerance per weight: no index's own 2^-60 of 2^-sum_i k_i bitlen(i - 1) is
    # tighter, and (1, ..., 1, 2)'s is the same
    def own(ks):
        return 2.0 ** -(60 + sum(k * (i - 1).bit_length() for i, k in enumerate(ks, 1)))

    for weight in range(2, 15):
        indices = [ks for depth in range(1, weight) for ks in compositions(weight, depth)]
        assert len(indices) == 2 ** (weight - 2)
        (tol,) = {_zeta_plan(ks)[2] for ks in indices}
        assert all(tol <= own(ks) for ks in indices)
        assert tol == own((1,) * (weight - 2) + (2,))


def test_mixed_tolerances_equal_their_parts():
    # zeta words at their own tolerances and real-letter words at 1e-9, in one map
    tols = dict(_zeta_plan(ks)[1:] for ks in [(2,), (3,), (1, 2), (2, 2), (1, 1, 4), (3, 2, 2)])
    tols.update(dict.fromkeys([w(rational(2)), w(rational(3), ZERO), w(UNIT, rational(-1)), w(UNIT, ZERO)], 1e-9))
    batch = _iterint_estimates(tols)
    assert batch.keys() == tols.keys()
    for word, tol in tols.items():
        assert bits(batch[word]) == bits(_iterint_estimates({word: tol})[word])


def test_error_messages_show_word_text():
    # a word in a message reads as e[..]/s[..] text, never as a tuple of letter ids
    with pytest.raises(InadmissibleIndexError, match=r"^word e\[0\]e\[1\] is not admissible$"):
        word_to_mzv(w(ZERO, UNIT))
    with pytest.raises(InadmissibleIndexError, match=r"^word e\[0\]e\[2\] is not admissible$"):
        H0Evaluator()(real_word(0, 2))
    with pytest.raises(UnsupportedWordError, match=r"^letter 2 is not in the \{0,1\} alphabet$"):
        word_to_mzv(w(rational(2)))
    with pytest.raises(QuadratureError, match=r"resolution of s\[2,1\]s\[-2,2\]$"):
        H0Evaluator(tol=1e-20)(real_word(2, -2, 0))
    with pytest.raises(QuadratureError, match=r"^s\[1000001/1000000,1\] needs more than"):
        H0Evaluator()(real_word(Fraction(1000001, 1000000)))
    with pytest.raises(RegularizationError, match=r"^word e\[0\]e\[1\] has leading zero letters$"):
        reg_t(HPoly.from_word(w(ZERO, UNIT)))
    bad = RegularizedValue({(0, 1): HPoly.from_word(w(UNIT, ZERO, UNIT))})
    with pytest.raises(RegularizationError, match=r"contains inadmissible word s\[1,2\]s\[1,1\]$"):
        bad.validate()


class TestAssumptionChecks:
    def test_w_values_alternate_sign(self):
        ev = H0Evaluator()
        for n in range(4):
            poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
            v = z_num_with_bound(poly, ev)[0]
            assert abs(v - (-(math.pi**2)) ** n) < 1e-8


class TestHarmonicHomDriver:
    def test_small_run(self):
        items = list(
            verify_harmonic_hom(letters=(2, 3), max_weight=1, tol=1e-6)
        )
        assert items and all(item.passed for item in items)

    def test_difference_within_bound(self):
        # both sides are summed exactly and rounded once
        items = list(verify_harmonic_hom())
        assert len(items) == 78
        assert all(item.passed and item.data["difference"] <= item.data["bound"] for item in items)

    def test_weight_three(self):
        items = list(verify_harmonic_hom(letters=(2, -2), max_weight=3))
        assert len(items) == 14 * 15 // 2
        assert all(item.passed and item.data["difference"] <= item.data["bound"] for item in items)

    def test_unit_letter_in_products(self):
        # (-1)(-1) = 1 puts a unit letter into the product words
        items = list(verify_harmonic_hom(letters=(2, -1, -2), max_weight=3))
        assert len(items) == 39 * 40 // 2
        assert all(item.passed and item.data["difference"] <= item.data["bound"] for item in items)


def fraction_item(u: Word, v: Word, evaluator: H0Evaluator) -> dict[str, float]:
    """An item's four floats by the ``Fraction`` formula: each side and the bound exact, then rounded."""
    (lhs_u, bu), (lhs_v, bv) = (map(Fraction, evaluator(to_letters(x))) for x in (u, v))
    rhs = bound = Fraction(0)
    for word, c in star_terms(u, v).items():
        value, b = map(Fraction, evaluator(to_letters(word)))
        rhs += c * value
        bound += abs(c) * b
    bound += abs(lhs_u) * bv + abs(lhs_v) * bu + bu * bv
    lhs = lhs_u * lhs_v
    return {"difference": float(abs(lhs - rhs)), "lhs": float(lhs), "rhs": float(rhs), "bound": float(bound)}


HOM_LETTERS = (2, -2, 3, Fraction(5, 2), Fraction(7, 3), -1, Fraction(-3, 2))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(HOM_LETTERS), min_size=1, max_size=3, unique=True),
    st.integers(1, 2),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
)
@example([2, -1, Fraction(7, 3)], 3, [0, 1, 77, 389, 779])  # zero and unit letters, up to 6 letters
def test_items_match_the_fraction_formula(letters, max_weight, picks):
    # the integer sums round to the same doubles as exact Fraction arithmetic
    items = list(verify_harmonic_hom(letters, max_weight))
    ids = [rational(q).id for q in letters]
    words = ["".join(p) for n in range(1, max_weight + 1) for p in product(ids, repeat=n)]
    pairs = [(u, v) for i, u in enumerate(words) for v in words[i:]]
    assert len(items) == len(pairs)
    evaluator = H0Evaluator(tol=1e-7)
    for i in sorted({pick % len(pairs) for pick in picks}):
        u, v = pairs[i]
        assert items[i].item == f"product {format_word(u)} x {format_word(v)}"
        want = fraction_item(u, v, evaluator)
        assert {key: items[i].data[key].hex() for key in want} == {key: x.hex() for key, x in want.items()}
