"""hsw: exact harmonic-algebra trigonometry and multiple zeta value evaluation.

The package implements words over a monoid-with-zero alphabet, the
weight-preserving harmonic (quasi-shuffle) product with exact rational
coefficients, truncated formal power series over that algebra, the formal
sine/cosine constructions with their addition-formula and Pythagorean
identities as ideal-membership statements, harmonic regularization, and a
numeric evaluation realizing the classical identities through multiple zeta
values and iterated integrals.
"""

from .monoid import (
    LETTERS,
    MonoidElement,
    MonoidMismatchError,
    UNIT,
    ZERO,
    cyclic,
    parse_element,
    rational,
)
from .halg import (
    HPoly,
    ParseError,
    clear_caches,
    concat,
    format_poly,
    format_word,
    harmonic,
    parse_poly,
    s_chain,
    s_word,
    star_words,
    to_letters,
    to_word,
)
from .series import DEFAULT_ORDER, OrderError, Series1, Series2
from .trig import (
    cosine,
    sine,
    sine_reflection,
    sine_taylor,
    verify_coincidence,
    verify_reflection_product,
)
from .wcalc import (
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
from .reg import (
    RegularizationError,
    RegularizedValue,
    is_admissible,
    reg_t,
    strip_e0,
    substitute_st,
    verify_regularization,
    z_num_with_bound,
    z_st,
)
from .mzveval import (
    H0Evaluator,
    InadmissibleIndexError,
    QuadratureError,
    UnsupportedWordError,
    verify_harmonic_hom,
    word_to_mzv,
    zeta,
    zeta_batch,
)
from .reporting import CheckResult

__version__ = "0.1.0"
