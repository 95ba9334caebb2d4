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
    MonoidElement,
    MonoidMismatchError,
    UNIT,
    ZERO,
    cyclic,
    format_element,
    parse_element,
    rational,
)
from .halg import (
    EMPTY_WORD,
    HPoly,
    ParseError,
    Word,
    clear_caches,
    concat,
    format_poly,
    format_word,
    harmonic,
    parse_poly,
    s_chain,
    s_word,
    star_words,
    word_sort_key,
)
from .series import DEFAULT_ORDER, OrderError, Series1, Series2
from .trig import (
    cosine,
    reflection_log_argument,
    sine,
    sine_reflection,
    sine_taylor,
    verify_coincidence,
    verify_reflection_product,
)
from .wcalc import (
    NoWitnessError,
    WIndexError,
    WPoly,
    addition_defect_coeff,
    addition_series2,
    ap_witness_addition,
    eval_w,
    g_gen,
    pythagoras_coeff,
    pythagoras_series,
    reduce_ap,
    set_max_index,
    verify_addition,
    verify_pythagoras,
    w_value,
)
from .reg import (
    RegularizationError,
    RegularizedValue,
    WordClass,
    classify,
    reg_t,
    strip_e0,
    substitute_st,
    verify_regularization,
    z_num,
    z_num_with_bound,
    z_st,
)
from .mzveval import (
    DEFAULT_CUTOFF,
    H0Evaluator,
    InadmissibleIndexError,
    MzvIndex,
    QuadratureError,
    UnsupportedWordError,
    check_assumptions,
    iterint_num,
    verify_harmonic_hom,
    word_to_mzv,
    zeta,
)
from .reporting import CheckResult

__version__ = "0.1.0"
