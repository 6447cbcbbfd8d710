"""Laurent ring: frozen canonical forms plus randomized ring laws."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from moycalc.boxcomb import Filling, WeightedDiagramSum
from moycalc.foamalg import FlagRingElement, FrobElement
from moycalc.qlaurent import (
    LaurentPoly,
    LinComb,
    ONE,
    Q,
    ZERO,
    _normal,
    _pack,
    _unpack,
    parse_laurent,
    quantum_int,
)
from moycalc.symhecke import FlagList, Permutation

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


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: LaurentPoly.q_power(0.5), "q_power needs an int exponent, got 0.5"),
        (lambda: LaurentPoly.q_power(True), "q_power needs an int exponent, got True"),
        (lambda: quantum_int(2.5), "quantum_int expects an int m >= 0, got 2.5"),
        (lambda: quantum_int(True), "quantum_int expects an int m >= 0, got True"),
    ],
    ids=["q-power-float", "q-power-bool", "quantum-int-float", "quantum-int-bool"],
)
def test_monomials_and_quantum_ints_take_exact_ints(call, reason):
    with pytest.raises(ValueError, match=reason) as info:
        call()
    assert type(info.value) is ValueError


def test_negative_powers_are_rejected_and_repr_reads_the_text():
    with pytest.raises(ValueError, match="power must be a nonnegative int, got -1") as info:
        Q ** -1
    assert type(info.value) is ValueError
    assert repr(Q) == "LaurentPoly('q')"


@pytest.mark.parametrize("power", [True, False])
def test_powers_take_exact_ints(power):
    with pytest.raises(ValueError, match=f"power must be a nonnegative int, got {power!r}"):
        Q ** power


@given(st.integers(-50, 50), st.integers(-10**20, 10**20))
def test_one_term_sums_take_the_short_normal_form(e, c):
    assert _normal({e: 0}) == ()
    assert _normal({e: c}) == (((e, c),) if c else ())
    assert _normal({e: c, e + 1: 0}) == _normal({e: c})


# ----------------------------------------------------------------------
# the one signed-sum text against the three renderers it replaced


def old_laurent_text(poly: LaurentPoly) -> str:
    """``LaurentPoly.__str__`` as it was before the shared rule."""
    if not poly.terms:
        return "0"
    pieces: list[str] = []
    for i, (exp, coeff) in enumerate(poly.terms):
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            qpart = "q" if exp == 1 else f"q^{exp}"
            body = qpart if mag == 1 else f"{mag}{qpart}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)


def old_ring_text(element: FrobElement | FlagRingElement) -> str:
    """The foam ring elements' ``text`` as it was before the shared rule."""
    pieces = []
    for coeff, name in zip(element.coeffs, element._names):
        if not coeff:
            continue
        if coeff == 1 and name != "1":
            pieces.append(name)
        elif coeff == -1 and name != "1":
            pieces.append(f"-{name}")
        elif name == "1":
            pieces.append(str(coeff))
        else:
            pieces.append(f"{coeff}{name}")
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def old_flag_list_text(flags: FlagList) -> str:
    """``FlagList.text`` as it was before the shared q-power name."""

    def term(e: int, w: Permutation) -> str:
        word = w.word_text()
        if e == 0:
            return word
        if e == 1:
            return f"q {word}"
        return f"q^{e} {word}"

    return ", ".join(term(e, w) for e, w in flags.terms) if flags.terms else "(empty)"


text_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
flag_lists = st.builds(
    FlagList,
    st.lists(
        st.tuples(
            st.integers(min_value=-4, max_value=4),
            st.permutations(range(1, 5)).map(Permutation.from_one_line),
        ),
        max_size=4,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(
    polys,
    st.tuples(*[text_fractions] * 3).map(FrobElement),
    st.tuples(*[text_fractions] * 6).map(FlagRingElement),
    flag_lists,
)
def test_shared_text_rules_print_as_the_old_renderers(poly, frob, flag, flags):
    assert str(poly) == old_laurent_text(poly)
    assert str(frob) == old_ring_text(frob)
    assert str(flag) == old_ring_text(flag)
    assert flags.text() == old_flag_list_text(flags)


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


def _is_normal(p: LaurentPoly) -> bool:
    exps = [e for e, _ in p.terms]
    return all(a > b for a, b in zip(exps, exps[1:])) and all(c for _, c in p.terms)


monomials = st.builds(
    lambda e, c: LaurentPoly({e: c}),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9).filter(bool),
)


@given(polys, polys, monomials, st.integers(min_value=-3, max_value=3))
def test_arithmetic_results_are_in_normal_form(a, b, m, k):
    """Every result equals the public constructor's normalisation of
    the raw (exponent, coefficient) pairs it stands for, and is itself
    normal: exponents strictly descending, no zero coefficient."""
    neg_b = [(e, -c) for e, c in b.terms]
    cases = [
        (a + b, a.terms + b.terms),
        (a - b, a.terms + tuple(neg_b)),
        (-a, [(e, -c) for e, c in a.terms]),
        (a + k, a.terms + ((0, k),)),
        (k - a, [(0, k)] + [(e, -c) for e, c in a.terms]),
        (a * k, [(e, c * k) for e, c in a.terms]),
        (k * a, [(e, c * k) for e, c in a.terms]),
        (a * m, [(e + em, c * cm) for e, c in a.terms for em, cm in m.terms]),
        (m * a, [(e + em, c * cm) for e, c in a.terms for em, cm in m.terms]),
        (a * b, [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]),
        (a.bar(), [(-e, c) for e, c in a.terms]),
    ]
    for result, pairs in cases:
        assert _is_normal(result), result.terms
        expected = LaurentPoly(list(pairs))
        assert result == expected and hash(result) == hash(expected)


def test_constructor_accepts_any_mapping_or_pairs():
    from types import MappingProxyType

    expected = LaurentPoly({2: 1, 0: 2})
    assert LaurentPoly(MappingProxyType({0: 2, 2: 1})) == expected
    assert LaurentPoly([(0, 1), (2, 1), (0, 1), (1, 0)]) == expected
    assert LaurentPoly(((0, 2), (2, 1))).terms == ((2, 1), (0, 2))
    assert Q * 0 == ZERO and (ZERO * Q).terms == () and (Q * ZERO).terms == ()


@pytest.mark.parametrize(
    "terms",
    [
        {0: 1.5},
        {0: 2.0},
        {0.5: 2},
        {0: True},
        {True: 1},
        {"1": 1},
        [(1, Fraction(1, 2))],
        # the raw pairs are checked: this True would be gone once summed
        [(0, True), (0, -1)],
    ],
)
def test_constructor_rejects_terms_that_are_not_ints(terms):
    with pytest.raises(ValueError, match="needs an int exponent and coefficient"):
        LaurentPoly(terms)


def test_sums_products_and_differences_do_not_recheck_their_terms(monkeypatch):
    """``+``, ``*`` and ``-`` of two polynomials sum their operands'
    checked terms through ``_summed``; only the public constructor (and
    so an ``int`` operand) checks raw pairs."""
    a, b = quantum_int(3), Q - 2

    def fail(self):
        raise AssertionError("arithmetic re-checked its terms")

    monkeypatch.setattr(LaurentPoly, "__post_init__", fail)
    assert str(a + b) == "q^2 + q - 1 + q^-2"
    assert str(a * b) == "q^3 - 2q^2 + q - 2 + q^-1 - 2q^-2"
    assert str(a - b) == "q^2 - q + 3 + q^-2"


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


FILLINGS = (Filling(((1,), (2,))), Filling(((1, 2),)), Filling(((2,), (1,))))


@given(st.lists(st.tuples(st.sampled_from(FILLINGS), polys, polys), max_size=8))
def test_of_products_is_the_sum_of_the_products(triples):
    expected = LinComb()
    for key, a, b in triples:
        expected.add_term(key, a * b)
    cancelled = triples + [(key, -a, b) for key, a, b in triples]
    for cls in (LinComb, WeightedDiagramSum):
        result = cls.of_products(triples)
        assert type(result) is cls and result == expected
        assert all(_is_normal(coeff) and coeff for coeff in result.values())
        # keys keep the order of their first product
        first = dict.fromkeys(key for key, _, _ in triples)
        assert list(result) == [key for key in first if key in expected]
        zero = cls.of_products(cancelled)
        assert type(zero) is cls and zero.is_zero()


@st.composite
def packable(draw):
    """(poly, width, offset) that ``_pack`` accepts: every |c| below
    2^(width-1), the two extremes drawn often, and every e + offset >= 0,
    with exponents spread so that runs of zero digits are common."""
    width = draw(st.integers(min_value=2, max_value=40))
    offset = draw(st.integers(min_value=0, max_value=64))
    top = (1 << (width - 1)) - 1
    coeffs = st.one_of(st.sampled_from([top, -top, -1]), st.integers(-top, top))
    exps = st.integers(min_value=-offset, max_value=40)
    return LaurentPoly(draw(st.dictionaries(exps, coeffs, max_size=6))), width, offset


@given(packable())
@example((ZERO, 8, 0))  # the packed value 0
@example((ZERO, 3, 64))
# a negative lowest digit borrows from the next one, which sits after a
# run of six zero digits
@example((LaurentPoly({-3: -1, 4: 1}), 4, 3))
@example((LaurentPoly({-64: -7, -60: 7, 0: -7, 40: 7}), 4, 64))
@example((LaurentPoly({-64: -1, 40: -1}), 2, 64))
def test_pack_then_unpack_is_the_identity(case):
    poly, width, offset = case
    packed = _pack(poly, width, offset)
    assert (packed == 0) == poly.is_zero()
    result = _unpack(packed, width, offset)
    assert result == poly and _is_normal(result)
