import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsw.monoid import (
    LETTERS,
    UNIT,
    ZERO,
    MonoidMismatchError,
    cyclic,
    mul,
    parse_element,
    rational,
)

elements = st.one_of(
    st.just(ZERO),
    st.just(UNIT),
    st.integers(1, 9).map(cyclic),
)

rational_elements = st.one_of(
    st.just(ZERO),
    st.just(UNIT),
    st.fractions(min_value=1, max_value=100, max_denominator=12).map(rational),
    st.fractions(min_value=-100, max_value=-1, max_denominator=12).map(rational),
)


def test_zero_absorbs():
    assert ZERO * cyclic(3) is ZERO
    assert cyclic(3) * ZERO is ZERO
    assert ZERO * ZERO is ZERO


def test_exponent_law():
    assert cyclic(2) * cyclic(3) == cyclic(5)


def test_rational_product():
    assert rational(2) * rational(Fraction(5, 2)) == rational(5)
    assert rational(-1) * rational(-1) is UNIT


def test_pow():
    assert cyclic(1) ** 4 == cyclic(4)
    assert ZERO**0 is UNIT
    assert ZERO**3 is ZERO
    assert rational(2) ** 3 == rational(8)
    assert UNIT**7 is UNIT


def test_canonicalization():
    assert cyclic(0) is UNIT
    assert rational(1) is UNIT
    assert rational(Fraction(4, 4)) is UNIT


def test_rejections():
    with pytest.raises(ValueError):
        rational(0)
    with pytest.raises(ValueError):
        rational(Fraction(1, 2))
    with pytest.raises(ValueError):
        cyclic(-1)
    with pytest.raises(ValueError):
        cyclic(1) ** -1


def test_instance_mismatch():
    with pytest.raises(MonoidMismatchError):
        cyclic(1) * rational(2)


@given(elements, elements, elements)
def test_associativity_cyclic(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(rational_elements, rational_elements, rational_elements)
def test_associativity_rational(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(st.one_of(elements, rational_elements))
def test_unit_and_zero_laws(a):
    assert UNIT * a == a
    assert a * UNIT == a
    assert ZERO * a is ZERO
    assert a * ZERO is ZERO


@given(st.one_of(elements, rational_elements))
def test_parse_print_roundtrip(a):
    assert parse_element(a.text) == a


def test_parse_literals():
    assert parse_element("0") is ZERO
    assert parse_element("1") is UNIT
    assert parse_element("z") == cyclic(1)
    assert parse_element("z^4") == cyclic(4)
    assert parse_element("5/2") == rational(Fraction(5, 2))
    assert parse_element("-3") == rational(-3)
    with pytest.raises(ValueError):
        parse_element("w")
    with pytest.raises(ValueError):
        parse_element("1/2")


def test_ids_index_the_letter_table():
    assert (ZERO.id, UNIT.id) == (0, 1)
    for a in (cyclic(3), rational(Fraction(-7, 2))):
        assert LETTERS[a.id] is a
    assert mul(cyclic(2).id, cyclic(3).id) == cyclic(5).id
    assert mul(rational(-2).id, rational(-3).id) == rational(6).id
    assert mul(ZERO.id, cyclic(4).id) == ZERO.id and mul(UNIT.id, cyclic(4).id) == cyclic(4).id
    with pytest.raises(MonoidMismatchError):
        mul(cyclic(1).id, rational(2).id)


def test_concurrent_interning_gives_each_letter_its_own_id():
    # more threads than cores intern fresh letters, some shared and some their own,
    # while switching often: no two letters may get one id
    shared = [Fraction(10**9 + n, 7) for n in range(300)]
    results = [[] for _ in range(8)]

    def intern(i, out):
        own = (Fraction(10**9 + n, 11 + 2 * i) for n in range(1500))
        out.extend(rational(q) for pair in zip(shared * 5, own) for q in pair)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(i, out)) for i, out in enumerate(results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    letters = {a for out in results for a in out}
    assert len(letters) == 300 + 8 * 1500
    assert all(LETTERS[a.id] is a for a in letters)
