"""Laurent ring: frozen canonical forms plus randomized ring laws."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from moycalc.qlaurent import (
    LaurentPoly,
    LinComb,
    ONE,
    Q,
    ZERO,
    parse_laurent,
    quantum_int,
)

polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-9, max_value=9),
        max_size=6,
    ),
)


# ----------------------------------------------------------------------
# frozen canonical text forms


def test_canonical_text_examples():
    assert str(LaurentPoly({2: 1, 0: 2, -2: -1})) == "q^2 + 2 - q^-2"
    assert str(LaurentPoly({1: 2, -1: 2})) == "2q + 2q^-1"
    assert str(quantum_int(2)) == "q + q^-1"
    assert str(quantum_int(3)) == "q^2 + 1 + q^-2"
    assert str(quantum_int(1)) == "1"
    assert str(quantum_int(0)) == "0"
    assert str(ZERO) == "0"
    assert str(LaurentPoly({2: -1, 0: 1})) == "-q^2 + 1"
    assert str(LaurentPoly({0: -3})) == "-3"
    assert str(LaurentPoly({-4: 5})) == "5q^-4"


def test_parse_examples():
    assert parse_laurent("q^2 + 2 - q^-2") == LaurentPoly({2: 1, 0: 2, -2: -1})
    assert parse_laurent("2q + 2q^-1") == 2 * quantum_int(2)
    assert parse_laurent("0") == ZERO
    assert parse_laurent("-q^2 + 1") == LaurentPoly({2: -1, 0: 1})
    assert parse_laurent("  q + q^-1 ") == quantum_int(2)


@pytest.mark.parametrize("bad", ["", "q^", "1 +", "+ q", "2 ** q", "qq", "- q"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_laurent(bad)


def test_quantum_int_rejects_negative():
    with pytest.raises(ValueError):
        quantum_int(-1)


# ----------------------------------------------------------------------
# ring laws (randomized)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()


@given(polys)
def test_text_round_trip(a):
    assert parse_laurent(str(a)) == a


# ----------------------------------------------------------------------
# quantum integer identities


@given(st.integers(min_value=0, max_value=20))
def test_quantum_int_telescopes(m):
    assert quantum_int(m) * (Q - Q.bar()) == LaurentPoly.q_power(m) - LaurentPoly.q_power(-m)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_quantum_int_product_decomposition(a, b):
    expected = ZERO
    for j in range(min(a, b)):
        expected = expected + quantum_int(a + b - 1 - 2 * j)
    assert quantum_int(a) * quantum_int(b) == expected


@given(st.integers(min_value=0, max_value=20))
def test_quantum_int_bar_invariant(m):
    assert quantum_int(m).bar() == quantum_int(m)


def test_scalar_and_power_operations():
    assert 3 * quantum_int(2) == quantum_int(2) * 3
    assert (Q + ONE) ** 2 == Q * Q + 2 * Q + ONE
    assert Q**0 == ONE
    assert quantum_int(2) ** 2 == quantum_int(3) + quantum_int(1)
    assert 1 + Q == Q + 1
    assert 1 - Q == -(Q - 1)


# ----------------------------------------------------------------------
# sparse linear combinations


def test_lincomb_drops_zeros_and_merges_repeated_keys():
    v = LinComb({"a": ONE, "b": ZERO, "c": Q})
    assert dict(v) == {"a": ONE, "c": Q}
    v.add_term("a", -ONE)
    v.add_term("d", ZERO)
    assert dict(v) == {"c": Q}
    assert LinComb([("x", Q), ("x", ONE), ("y", Q), ("y", -Q)]) == {"x": Q + ONE}


def test_lincomb_arithmetic_keeps_the_subclass():
    class Sum(LinComb):
        __slots__ = ()

    v = Sum({"a": Q})
    for result in (v + v, v - v, -v, v * Q, 2 * v, v.bar(), v.copy()):
        assert type(result) is Sum
    assert (v - v).is_zero() and (v * 0).is_zero()
    assert (v + v) == {"a": 2 * Q}
    assert v.bar().coeff("a") == LaurentPoly.q_power(-1)
    assert v.coeff("missing") == ZERO
