"""Numeric evaluation of admissible words: nested zeta sums and iterated integrals.

Words over the ``{0, 1}`` alphabet correspond to multiple zeta values,

    I(s[1,k_1] ... s[1,k_r]) = (-1)^r zeta(k_1, ..., k_r),

and are evaluated by a cumulative-sum dynamic program in O(r N) operations
with a first-order Euler--Maclaurin tail correction; a rigorous tail bound of
shape O(N^{1-k_r} (log N)^{r-1}) is reported alongside every value.

Words whose nonzero letters are real rationals of modulus >= 1 (the unit
letter excluded, interior zero letters allowed) are evaluated as iterated
integrals

    I(e_{z_1} ... e_{z_k}) = integral over 0 < t_1 < ... < t_k < 1 of
                             prod dt_i / (t_i - z_i)

by tabulating the inner integrals on a refinement mesh (geometrically graded
toward 0, where interior zero letters produce integrable logarithms) and
integrating panels with Gauss rules; the mesh is refined until two successive
values agree within the requested tolerance.

Two separate oracles are deliberately kept: the nested sums are rigorous and
fast for zeta words, and the quadrature covers real letters where no series
shortcut applies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .halg import HPoly, Word, harmonic, s_chain, s_word
from .monoid import UNIT, MonoidElement, rational
from .reporting import CheckResult
from . import reg

__all__ = [
    "DEFAULT_CUTOFF",
    "MIN_CUTOFF",
    "MzvIndex",
    "InadmissibleIndexError",
    "UnsupportedWordError",
    "QuadratureError",
    "word_to_mzv",
    "zeta",
    "iterint_num",
    "H0Evaluator",
    "check_assumptions",
    "verify_harmonic_hom",
]

DEFAULT_CUTOFF = 1_000_000
MIN_CUTOFF = 16

_EPS = 2.220446049250313e-16


class InadmissibleIndexError(ValueError):
    """Index or word outside the admissible (convergent) class."""


class UnsupportedWordError(ValueError):
    """A word neither oracle can evaluate."""


class QuadratureError(RuntimeError):
    """The refinement loop did not reach the requested tolerance."""


@dataclass(frozen=True)
class MzvIndex:
    """An admissible zeta index with the sign of its iterated-integral image."""

    ks: tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        if any(not isinstance(k, int) or k < 1 for k in self.ks):
            raise InadmissibleIndexError("index entries must be positive integers")
        if self.ks and self.ks[-1] < 2:
            raise InadmissibleIndexError(f"trailing entry must be >= 2, got {self.ks}")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def weight(self) -> int:
        return sum(self.ks)

    @property
    def depth(self) -> int:
        return len(self.ks)


def word_to_mzv(w: Word) -> MzvIndex:
    """Decompose a ``{0,1}``-alphabet admissible word into its zeta index."""
    for a in w:
        if not (a.is_zero or a.is_unit):
            raise UnsupportedWordError(f"letter {a} is not in the {{0,1}} alphabet")
    if not w:
        return MzvIndex((), 1)
    if w[0].is_zero or w[-1].is_unit:
        raise InadmissibleIndexError(f"word {w} is not admissible")
    ks: list[int] = []
    for a in w:
        if a.is_unit:
            ks.append(1)
        else:
            ks[-1] += 1
    return MzvIndex(tuple(ks), -1 if len(ks) % 2 else 1)


def _log_tail_integral(k: int, j: int, n: float) -> float:
    """Closed form of ``integral_N^inf x^{-k} (1 + log x)^j dx`` for k >= 2."""
    a = k - 1
    u0 = 1.0 + math.log(n)
    s = sum((a * u0) ** i / math.factorial(i) for i in range(j + 1))
    return math.factorial(j) * n ** (-a) / a ** (j + 1) * s


def zeta(
    index: MzvIndex | Iterable[int],
    n_terms: int = DEFAULT_CUTOFF,
    em_correct: bool = True,
) -> tuple[float, float]:
    """Truncated nested sum for an admissible index, with a rigorous tail bound.

    Returns ``(value, bound)`` where ``|value - zeta(index)| <= bound``.  With
    ``em_correct`` the outer tail is estimated by Euler--Maclaurin terms plus a
    logarithmic-growth correction of the inner partial sums; without it, the
    raw partial sum is returned and the bound covers the whole tail.
    """
    ks = index.ks if isinstance(index, MzvIndex) else tuple(index)
    if any(not isinstance(k, int) or k < 1 for k in ks):
        raise InadmissibleIndexError("index entries must be positive integers")
    if ks and ks[-1] < 2:
        raise InadmissibleIndexError(f"trailing entry must be >= 2, got {ks}")
    r = len(ks)
    if r == 0:
        return 1.0, 0.0
    n_terms = int(n_terms)
    if n_terms < MIN_CUTOFF:
        raise ValueError(f"cutoff must be at least {MIN_CUTOFF}")

    n = np.arange(1, n_terms + 1, dtype=np.float64)
    half = n_terms // 2
    shifted_prev: np.ndarray | None = None
    p_full = 1.0  # running value of the deepest inner partial sum at the cutoff
    p_half = 1.0  # same at half the cutoff, for growth estimation
    value = 0.0
    for depth, k in enumerate(ks):
        t = n ** float(-k)
        if shifted_prev is not None:
            t = t * shifted_prev
        if depth < r - 1:
            cum = np.cumsum(t)
            shifted_prev = np.concatenate(([0.0], cum[:-1]))
            p_full = float(cum[-1])
            p_half = float(cum[half - 1])
        else:
            value = float(np.sum(t))

    k_r = ks[-1]
    nf = float(n_terms)
    log1 = 1.0 + math.log(nf)
    slack = (r + 1) * _EPS * log1**r
    em_resid = k_r * (k_r + 1) * (k_r + 2) / 720.0 * nf ** (-k_r - 3)

    if not em_correct:
        return value, _log_tail_integral(k_r, r - 1, nf) + slack

    tail3 = (
        nf ** (1 - k_r) / (k_r - 1)
        - nf ** (-k_r) / 2.0
        + k_r * nf ** (-k_r - 1) / 12.0
    )
    value = value + p_full * tail3

    if r == 1:
        return value, em_resid + slack

    if all(k >= 2 for k in ks[:-1]):
        # Inner sums converge; their remainder past n decays like n^{1-k_inner}.
        # Fit that decay from the half-cutoff snapshot and correct the outer tail.
        p = ks[r - 2] - 1
        a_hat = max(0.0, p_full - p_half) * nf**p / (2.0**p - 1.0)
        growth = a_hat * nf ** (1 - k_r - p) * p / ((k_r - 1) * (k_r + p - 1))
        value += growth
        b_inner = 1.0
        for k in ks[: r - 2]:
            b_inner *= 1.0 + 1.0 / (k - 1)
        delta = b_inner * nf ** (1 - ks[r - 2]) / (ks[r - 2] - 1)
        bound = delta * nf ** (1 - k_r) / (k_r - 1) + growth + p_full * em_resid + slack
        return value, bound

    # Ones inside the index: inner sums grow like powers of log; fit the
    # leading logarithmic slope from the half-cutoff snapshot.
    t1_int = nf ** (1 - k_r) / (k_r - 1) ** 2
    g_hat = max(0.0, (p_full - p_half) / math.log(nf / half))
    value += g_hat * t1_int
    grown = _log_tail_integral(k_r, r - 1, nf)
    flat = log1 ** (r - 1) * (nf + 1.0) ** (1 - k_r) / (k_r - 1)
    d_bound = max(0.0, grown - flat) / (r - 1)
    bound = d_bound + g_hat * t1_int + p_full * em_resid + slack
    return value, bound


# ---------------------------------------------------------------------------
# iterated integrals for real-letter words
# ---------------------------------------------------------------------------

_T_MIN = 1e-18
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


_STENCIL = 6


@dataclass(frozen=True)
class _Mesh:
    points: np.ndarray  # panel endpoints, increasing, in (0, 1]
    gauss: np.ndarray  # (panels, 5) abscissae
    weights: np.ndarray  # (panels, 5)
    stencil: np.ndarray  # (panels,) first index of the interpolation stencil
    lagrange: np.ndarray  # (panels, 5, _STENCIL) interpolation weights


@functools.lru_cache(maxsize=16)
def _build_mesh(level: int) -> _Mesh:
    geo = np.geomspace(_T_MIN, 0.25, 128 * 2**level + 1)
    lin = np.linspace(0.25, 1.0, 128 * 2**level + 1)
    x = np.unique(np.concatenate((geo, lin)))
    lo, hi = x[:-1], x[1:]
    halfwidth = (hi - lo) / 2.0
    mid = (hi + lo) / 2.0
    gauss = mid[:, None] + halfwidth[:, None] * _GAUSS_X[None, :]
    weights = halfwidth[:, None] * _GAUSS_W[None, :]
    m = len(lo)
    stencil = np.clip(np.arange(m) - (_STENCIL // 2 - 1), 0, len(x) - _STENCIL)
    xs = x[stencil[:, None] + np.arange(_STENCIL)[None, :]]  # (m, _STENCIL)
    lagrange = np.empty((m, 5, _STENCIL))
    for s in range(_STENCIL):
        num = np.ones_like(gauss)
        den = np.ones(m)
        for t in range(_STENCIL):
            if t == s:
                continue
            num *= gauss - xs[:, t][:, None]
            den *= xs[:, s] - xs[:, t]
        lagrange[:, :, s] = num / den[:, None]
    return _Mesh(x, gauss, weights, stencil, lagrange)


def _integrate_on_mesh(letters: tuple[float, ...], mesh: _Mesh) -> float:
    x = mesh.points
    idx = mesh.stencil[:, None] + np.arange(_STENCIL)[None, :]
    values = np.ones_like(x)
    for z in reversed(letters):
        at_gauss = np.einsum("mgs,ms->mg", mesh.lagrange, values[idx])
        integrand = at_gauss / (mesh.gauss - z)
        panel = np.sum(mesh.weights * integrand, axis=1)
        values = np.concatenate((np.cumsum(panel[::-1])[::-1], [0.0]))
    return float(values[0])


def _validate_real_word(w: Word) -> tuple[float, ...]:
    if not w:
        return ()
    if w[0].is_zero:
        raise InadmissibleIndexError(f"word {w} has a leading zero letter")
    if w[-1].is_unit:
        raise InadmissibleIndexError(f"word {w} has a trailing unit letter")
    letters = []
    for a in w:
        if a.is_unit:
            raise UnsupportedWordError("the unit letter puts a pole at the endpoint")
        if a.is_zero:
            letters.append(0.0)
        elif a.kind == "rational":
            letters.append(float(a.value))
        else:
            raise UnsupportedWordError(f"letter {a} has no numeric value")
    return tuple(letters)


def _iterint_estimate(w: Word, tol: float) -> tuple[float, float]:
    letters = _validate_real_word(w)
    if not letters:
        return 1.0, 0.0
    sliver = _T_MIN * (1.0 + abs(math.log(_T_MIN))) ** len(letters)
    prev = None
    for level in range(6):
        value = _integrate_on_mesh(letters, _build_mesh(level))
        if prev is not None and abs(value - prev) < tol / 2.0:
            return value, abs(value - prev) + sliver
        prev = value
    raise QuadratureError(f"no convergence to {tol} for {w}")


def iterint_num(w: Word, tol: float = 1e-7) -> float:
    """Iterated integral of a real-letter admissible word to absolute ``tol``."""
    return _iterint_estimate(w, tol)[0]


# ---------------------------------------------------------------------------
# the combined evaluator and the assumption checks
# ---------------------------------------------------------------------------


class H0Evaluator:
    """Evaluate admissible words numerically, caching per index and per word.

    ``{0,1}``-alphabet words go through the nested zeta sums; words with real
    rational letters go through quadrature.  Calls return ``(value, bound)``.
    """

    def __init__(self, n_terms: int = DEFAULT_CUTOFF, tol: float = 1e-7):
        self.n_terms = n_terms
        self.tol = tol
        self._zeta_cache: dict[tuple[int, ...], tuple[float, float]] = {}
        self._quad_cache: dict[Word, tuple[float, float]] = {}

    def zeta_value(self, ks: tuple[int, ...]) -> tuple[float, float]:
        hit = self._zeta_cache.get(ks)
        if hit is None:
            hit = zeta(ks, self.n_terms)
            self._zeta_cache[ks] = hit
        return hit

    def __call__(self, w: Word) -> tuple[float, float]:
        if not w:
            return 1.0, 0.0
        if all(a.is_zero or a.is_unit for a in w):
            idx = word_to_mzv(w)
            v, b = self.zeta_value(idx.ks)
            return idx.sign * v, b
        hit = self._quad_cache.get(w)
        if hit is None:
            hit = self._iterint(w)
            self._quad_cache[w] = hit
        return hit

    def _iterint(self, w: Word) -> tuple[float, float]:
        return _iterint_estimate(w, self.tol)


_EVEN_ZETA = {
    2: Fraction(1, 6),
    4: Fraction(1, 90),
    6: Fraction(1, 945),
    8: Fraction(1, 9450),
}


def _zeta_reference(k: int, n_terms: int) -> float:
    """Reference zeta value: pi-power closed form for even k, refined sum otherwise."""
    if k in _EVEN_ZETA:
        return float(_EVEN_ZETA[k]) * math.pi**k
    return zeta((k,), min(4 * n_terms, 8_000_000))[0]


def check_assumptions(
    n_max: int = 3, k_max: int = 6, tol: float = 1e-8, n_terms: int = DEFAULT_CUTOFF
) -> Iterator[CheckResult]:
    """Numeric conditions pinning the regularized evaluation to the sine series.

    (i)   Z applied to ``(2n+1)! s[1,2]^n`` equals ``(-pi^2)^n`` for n <= n_max;
    (ii)  Z(s[1,1]) = 0 exactly (the T-coefficient is discarded by construction);
    (iii) Z(s[1,k]) = -zeta(k) for 2 <= k <= k_max.
    """
    evaluator = H0Evaluator(n_terms=n_terms)
    for n in range(n_max + 1):
        w_poly = HPoly.from_word(s_chain(UNIT, 2, n)) * math.factorial(2 * n + 1)
        value = reg.z_num(w_poly, evaluator)
        expected = (-(math.pi**2)) ** n
        err = abs(value - expected)
        yield CheckResult(
            item=f"sine-coefficient n={n}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )
    t_value = reg.z_num(HPoly.from_word(s_word(UNIT, 1)), evaluator)
    yield CheckResult(
        item="unit-letter value",
        passed=t_value == 0.0,
        data={"value": t_value, "expected": 0.0, "error": abs(t_value)},
    )
    for k in range(2, k_max + 1):
        value = reg.z_num(HPoly.from_word(s_word(UNIT, k)), evaluator)
        expected = -_zeta_reference(k, n_terms)
        err = abs(value - expected)
        yield CheckResult(
            item=f"depth-one value k={k}",
            passed=err < tol,
            data={"value": value, "expected": expected, "error": err},
        )


def verify_harmonic_hom(
    letters: Iterable = (2, 3, Fraction(5, 2)),
    max_weight: int = 2,
    tol: float = 1e-5,
    quad_tol: float = 1e-7,
) -> Iterator[CheckResult]:
    """Check multiplicativity of the iterated integral on real-letter words.

    For all pairs ``u, v`` of words of weight <= ``max_weight`` over the given
    letters, compares ``I(u) I(v)`` with the evaluation of ``u * v``.
    """
    elems = [rational(q) for q in letters]
    words: list[Word] = []
    for a in elems:
        words.append(Word((a,)))
    if max_weight >= 2:
        for a in elems:
            for b in elems:
                words.append(Word((a, b)))
    evaluator = H0Evaluator(tol=quad_tol)
    for i, u in enumerate(words):
        for v in words[i:]:
            lhs_u, bu = evaluator(u)
            lhs_v, bv = evaluator(v)
            lhs = lhs_u * lhs_v
            rhs = 0.0
            rhs_bound = 0.0
            for w, c in harmonic(HPoly.from_word(u), HPoly.from_word(v)).terms.items():
                val, b = evaluator(w)
                rhs += float(c) * val
                rhs_bound += abs(float(c)) * b
            diff = abs(lhs - rhs)
            yield CheckResult(
                item=f"product {u} x {v}",
                passed=diff < tol,
                data={
                    "difference": diff,
                    "lhs": lhs,
                    "rhs": rhs,
                    "bound": rhs_bound + abs(lhs_u) * bv + abs(lhs_v) * bu + bu * bv,
                },
            )
