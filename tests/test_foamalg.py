"""Foam shadow: Frobenius structure, flag ring, theta values, surgery, degrees."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from moycalc import foamalg
from moycalc.foamalg import (
    BASIC_FOAM_NAMES,
    FlagRingElement,
    FoamMap,
    FrobElement,
    basic_map,
    flag_monomial,
    foam_degree,
    frob_comul,
    frob_mul,
    frob_trace,
    surgery_check,
    surgery_search,
    theta_eval,
    verify_foam,
)
from moycalc.reporting import all_passed, render_reports

ONE = FrobElement.one()
X = FrobElement.x()
X2 = FrobElement.x(2)
BASIS = (ONE, X, X2)

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
frob_elements = st.builds(
    FrobElement, st.tuples(small_fractions, small_fractions, small_fractions)
)
flag_elements = st.builds(
    FlagRingElement,
    st.tuples(*([small_fractions] * 6)),
)


# ----------------------------------------------------------------------
# an independent oracle for the flag-ring trace
#
# The trace of a monomial is the constant term of the alternation
# sum(sgn(w) * w(P)) divided (exactly) by the Vandermonde product,
# negated.  This works on honest three-variable polynomials and never
# touches the quotient-ring reduction used by the module.

Poly = dict[tuple[int, int, int], Fraction]


def _poly_add(p: Poly, q: Poly, factor: int = 1) -> Poly:
    out = dict(p)
    for key, coeff in q.items():
        value = out.get(key, Fraction(0)) + factor * coeff
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for a, left in p.items():
        for b, right in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            value = out.get(key, Fraction(0)) + left * right
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def _divide_linear(p: Poly, i: int, j: int) -> Poly:
    """Exact division by X_i - X_j (raises if not divisible)."""
    remainder = dict(p)
    quotient: Poly = {}
    while remainder:
        key = max(remainder, key=lambda e: (e[i], e))
        if key[i] == 0:
            raise ArithmeticError("division is not exact")
        coeff = remainder[key]
        dropped = list(key)
        dropped[i] -= 1
        term = tuple(dropped)
        quotient[term] = quotient.get(term, Fraction(0)) + coeff
        swapped = list(term)
        swapped[j] += 1
        remainder = _poly_add(
            remainder, {key: coeff, tuple(swapped): -coeff}, factor=-1
        )
    return quotient


def oracle_trace(d1: int, d2: int, d3: int) -> Fraction:
    alternation: Poly = {}
    for w in permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if w[a] > w[b]:
                    sign = -sign
        exponents = [0, 0, 0]
        for position, degree in zip(w, (d1, d2, d3)):
            exponents[position] = degree
        alternation = _poly_add(
            alternation, {tuple(exponents): Fraction(sign)}
        )
    if not alternation:
        return Fraction(0)
    quotient = _divide_linear(alternation, 0, 1)
    quotient = _divide_linear(quotient, 0, 2)
    quotient = _divide_linear(quotient, 1, 2)
    return -quotient.get((0, 0, 0), Fraction(0))


def test_oracle_matches_frozen_normalisation() -> None:
    assert oracle_trace(1, 2, 0) == 1
    assert oracle_trace(2, 1, 0) == -1
    assert oracle_trace(0, 0, 0) == 0


# ----------------------------------------------------------------------
# the three-dimensional Frobenius algebra


def test_frob_element_arithmetic() -> None:
    a = ONE + 2 * X - X2
    assert a.coeffs == (Fraction(1), Fraction(2), Fraction(-1))
    assert a - a == FrobElement.zero()
    assert (-a).coeffs == (Fraction(-1), Fraction(-2), Fraction(1))
    assert Fraction(1, 2) * (X + X) == X


def test_frob_element_validation() -> None:
    with pytest.raises(ValueError, match="coefficients of 1, x, x\\^2"):
        FrobElement((Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="power must be >= 0"):
        FrobElement.x(-1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FrobElement.x(1.5), "power must be an int, got 1.5"),
        (lambda: FrobElement.x(True), "power must be an int, got True"),
        (lambda: flag_monomial(True, 0, 0), "dot count must be an int, got True"),
        (lambda: basic_map("tube-merge", True), "dot count must be an int, got True"),
        (lambda: foam_degree("tube-merge", -1), "dot count must be >= 0, got -1"),
    ],
    ids=["float-power", "bool-power", "bool-monomial", "bool-dots", "negative-dots"],
)
def test_powers_and_dot_counts_must_be_exact_ints(call, message):
    # x(1.5) was 0, x(True) was x, and flag_monomial took True as one dot
    with pytest.raises(ValueError, match=message):
        call()


def test_high_powers_truncate() -> None:
    assert FrobElement.x(3).is_zero()
    assert frob_mul(X2, X).is_zero()
    assert frob_mul(X, X) == X2


def test_frob_element_text() -> None:
    assert (ONE + 2 * X - X2).text() == "1 + 2x - x^2"
    assert FrobElement.zero().text() == "0"
    assert (-X).text() == "-x"
    assert str(Fraction(1, 2) * X2) == "1/2x^2"


def test_trace_display() -> None:
    assert [frob_trace(a) for a in BASIS] == [0, 0, -1]


def test_trace_pairing_is_nondegenerate() -> None:
    gram = [[frob_trace(frob_mul(a, b)) for b in BASIS] for a in BASIS]
    det = (
        gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] * gram[2][1])
        - gram[0][1] * (gram[1][0] * gram[2][2] - gram[1][2] * gram[2][0])
        + gram[0][2] * (gram[1][0] * gram[2][1] - gram[1][1] * gram[2][0])
    )
    assert det != 0


def test_comultiplication_display() -> None:
    assert frob_comul(ONE) == {
        (0, 2): Fraction(-1),
        (1, 1): Fraction(-1),
        (2, 0): Fraction(-1),
    }
    assert frob_comul(X) == {(1, 2): Fraction(-1), (2, 1): Fraction(-1)}
    assert frob_comul(X2) == {(2, 2): Fraction(-1)}


@given(frob_elements)
def test_counit_law(a: FrobElement) -> None:
    left = FrobElement.zero()
    right = FrobElement.zero()
    for (i, j), coeff in frob_comul(a).items():
        left = left + coeff * frob_trace(FrobElement.x(i)) * FrobElement.x(j)
        right = right + coeff * frob_trace(FrobElement.x(j)) * FrobElement.x(i)
    assert left == a
    assert right == a


@given(frob_elements, frob_elements, frob_elements)
def test_frob_ring_axioms(
    a: FrobElement, b: FrobElement, c: FrobElement
) -> None:
    assert frob_mul(a, b) == frob_mul(b, a)
    assert frob_mul(frob_mul(a, b), c) == frob_mul(a, frob_mul(b, c))
    assert frob_mul(a, b + c) == frob_mul(a, b) + frob_mul(a, c)
    assert frob_mul(ONE, a) == a


@given(frob_elements, frob_elements)
def test_trace_is_invariant(a: FrobElement, b: FrobElement) -> None:
    assert frob_trace(frob_mul(a, b)) == frob_trace(frob_mul(b, a))


def test_frobenius_compatibility_on_basis() -> None:
    # comult of a product equals pushing the product through either leg
    for a, b in product(BASIS, repeat=2):
        direct = frob_comul(frob_mul(a, b))
        through: dict[tuple[int, int], Fraction] = {}
        for (i, j), coeff in frob_comul(a).items():
            image = frob_mul(FrobElement.x(j), b)
            for out, value in enumerate(image.coeffs):
                if value:
                    key = (i, out)
                    through[key] = through.get(key, Fraction(0)) + coeff * value
        assert direct == {k: v for k, v in through.items() if v}


# ----------------------------------------------------------------------
# the flag ring


def test_elementary_symmetric_classes_vanish() -> None:
    x1 = FlagRingElement.generator(1)
    x2 = FlagRingElement.generator(2)
    x3 = FlagRingElement.generator(3)
    assert (x1 + x2 + x3).is_zero()
    assert (x1 * x2 + x1 * x3 + x2 * x3).is_zero()
    assert (x1 * x2 * x3).is_zero()


def test_flag_ring_reductions() -> None:
    x1 = FlagRingElement.generator(1)
    x2 = FlagRingElement.generator(2)
    assert x2 * x2 == -(x1 * x1) - x1 * x2
    assert x1 * x1 * x2 == -(x1 * x2 * x2)
    assert (x1 * x1 * x1).is_zero()
    assert (x2 * x2 * x2).is_zero()
    assert (x1 * x1 * x2 * x2).is_zero()


def test_flag_trace_reads_the_top_monomial() -> None:
    x1 = FlagRingElement.generator(1)
    x2 = FlagRingElement.generator(2)
    assert (x1 * x2 * x2).trace() == 1
    assert (x1 * x1 * x2).trace() == -1
    assert FlagRingElement.one().trace() == 0
    assert x1.trace() == 0


def test_flag_ring_validation() -> None:
    with pytest.raises(ValueError, match="need 6 coordinates"):
        FlagRingElement((Fraction(1),))
    with pytest.raises(ValueError, match="generator index"):
        FlagRingElement.generator(4)
    with pytest.raises(ValueError, match="nonnegative ints"):
        flag_monomial(1, -1, 0)


def test_flag_text() -> None:
    x1 = FlagRingElement.generator(1)
    x2 = FlagRingElement.generator(2)
    assert (FlagRingElement.one() + x1 * x2 * x2).text() == "1 + X1X2^2"
    assert FlagRingElement.zero().text() == "0"
    assert (-x1).text() == "-X1"


@given(flag_elements, flag_elements, flag_elements)
def test_flag_ring_axioms(
    a: FlagRingElement, b: FlagRingElement, c: FlagRingElement
) -> None:
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert FlagRingElement.one() * a == a


# ----------------------------------------------------------------------
# theta surfaces


def test_theta_on_distinct_dot_counts() -> None:
    assert theta_eval(0, 1, 2) == 1
    assert theta_eval(1, 2, 0) == 1
    assert theta_eval(2, 0, 1) == 1
    assert theta_eval(0, 2, 1) == -1
    assert theta_eval(1, 0, 2) == -1
    assert theta_eval(2, 1, 0) == -1


def test_theta_vanishes_on_repeats_and_bad_degrees() -> None:
    assert theta_eval(0, 0, 0) == 0
    assert theta_eval(1, 1, 1) == 0
    for triple in product(range(4), repeat=3):
        if len(set(triple)) < 3:
            assert theta_eval(*triple) == 0
        if sum(triple) != 3:
            assert theta_eval(*triple) == 0


def test_theta_matches_the_alternation_oracle() -> None:
    for triple in product(range(4), repeat=3):
        assert theta_eval(*triple) == oracle_trace(*triple)


def test_flag_trace_matches_the_oracle_on_products() -> None:
    # products of generator powers, multiplied in the quotient ring,
    # agree with the division oracle on the raw monomial
    for d1, d2, d3 in product(range(3), repeat=3):
        element = (
            flag_monomial(d1, 0, 0)
            * flag_monomial(0, d2, 0)
            * flag_monomial(0, 0, d3)
        )
        assert element.trace() == oracle_trace(d1, d2, d3)


# ----------------------------------------------------------------------
# surgery


def _public_neck(a: FrobElement) -> FrobElement:
    return frob_trace(a) * ONE


def test_surgery_check_holds() -> None:
    assert surgery_check()


def test_surgery_identity_rebuilt_from_public_pieces() -> None:
    for a in BASIS:
        total = (
            X * X * _public_neck(a)
            + X * _public_neck(X * a)
            + _public_neck(X * X * a)
        )
        assert total == -a


def test_surgery_fails_with_flipped_sign() -> None:
    mismatches = [
        a
        for a in BASIS
        if X * X * _public_neck(a)
        + X * _public_neck(X * a)
        + _public_neck(X * X * a)
        != a
    ]
    assert mismatches


def test_surgery_fails_with_a_dropped_term() -> None:
    terms = (
        lambda a: X * X * _public_neck(a),
        lambda a: X * _public_neck(X * a),
        lambda a: _public_neck(X * X * a),
    )
    for dropped in range(3):
        kept = [term for index, term in enumerate(terms) if index != dropped]
        mismatches = [
            a for a in BASIS if kept[0](a) + kept[1](a) != -a
        ]
        assert mismatches, f"dropping term {dropped} should break the identity"


def test_surgery_search_accepts_only_the_frozen_realization() -> None:
    assert surgery_search() == ["trace-then-unit"]


def test_tube_split_then_merge_is_not_the_neck() -> None:
    # composing the two tube foams multiplies by -3x^2, which is why
    # the surgery realization has to be searched for rather than read
    # off the obvious composite
    split = basic_map("tube-split")
    merge = basic_map("tube-merge")
    for power in range(3):
        image = merge.apply(split.apply({(power,): Fraction(1)}))
        expected = -3 * frob_mul(X2, FrobElement.x(power))
        assert image == (
            {} if expected.is_zero() else {(2,): expected.coeffs[2]}
        )


# ----------------------------------------------------------------------
# basic foam pieces and the degree rule


def test_catalogue_names_and_degrees() -> None:
    assert BASIC_FOAM_NAMES == (
        "circle-birth",
        "circle-death",
        "seam-birth",
        "seam-death",
        "seam-merge",
        "seam-split",
        "tube-merge",
        "tube-split",
    )
    expected = {
        "seam-birth": -1,
        "seam-death": -1,
        "seam-merge": 1,
        "seam-split": 1,
        "circle-birth": -2,
        "circle-death": -2,
        "tube-merge": 2,
        "tube-split": 2,
    }
    for name, degree in expected.items():
        assert foam_degree(name) == degree


def test_dots_add_two_per_dot() -> None:
    assert foam_degree("circle-birth", 1) == 0
    assert foam_degree("seam-merge", 2) == 5
    assert foam_degree("tube-split", 3) == 8


def test_seam_maps_are_the_two_sheet_structure() -> None:
    assert basic_map("seam-birth").entries == {(): {(0,): Fraction(1)}}
    assert basic_map("seam-death").entries == {(1,): {(): Fraction(1)}}
    assert basic_map("seam-split").entries == {
        (0,): {(1, 0): Fraction(1), (0, 1): Fraction(1)},
        (1,): {(1, 1): Fraction(1)},
    }
    merge = basic_map("seam-merge")
    assert merge.entries[(0, 1)] == {(1,): Fraction(1)}
    assert (1, 1) not in merge.entries


@pytest.mark.parametrize("name", BASIC_FOAM_NAMES)
def test_mutating_a_handed_out_map_leaves_the_catalogue_alone(name) -> None:
    expected = {key: dict(row) for key, row in basic_map(name).entries.items()}
    degree = foam_degree(name)
    handed = basic_map(name)
    for row in handed.entries.values():
        row.clear()
    handed.entries[(9,)] = {(9,): Fraction(5)}
    assert basic_map(name).entries == expected
    assert foam_degree(name) == degree


# unit, trace, product and comultiplication of each sheet algebra C[x]/(x^k)
SHEETS = {
    2: ("seam-birth", "seam-death", "seam-merge", "seam-split"),
    3: ("circle-birth", "circle-death", "tube-merge", "tube-split"),
}


def _on_legs(foam: FoamMap, vector: dict, start: int) -> dict:
    """Apply ``foam`` to the tensor factors of ``vector`` from ``start``
    on, as many as its source has, through ``FoamMap.apply``."""
    width = len(foam.source)
    out: dict = {}
    for key, coeff in vector.items():
        images = foam.apply({key[start : start + width]: coeff})
        for image, value in images.items():
            moved = key[:start] + image + key[start + width :]
            out[moved] = out.get(moved, 0) + value
    return {key: value for key, value in out.items() if value}


@pytest.mark.parametrize("k", sorted(SHEETS))
def test_sheet_maps_satisfy_the_frobenius_laws(k) -> None:
    unit, trace, mul, comul = (basic_map(name) for name in SHEETS[k])
    for p in range(k):
        basis = {(p,): 1}
        # unit and counit laws
        assert _on_legs(mul, _on_legs(unit, basis, 0), 0) == basis
        assert _on_legs(mul, _on_legs(unit, basis, 1), 0) == basis
        assert _on_legs(trace, comul.apply(basis), 0) == basis
        assert _on_legs(trace, comul.apply(basis), 1) == basis
        # coassociativity
        assert _on_legs(comul, comul.apply(basis), 0) == _on_legs(
            comul, comul.apply(basis), 1
        )
    for i, j in product(range(k), repeat=2):
        pair = {(i, j): 1}
        # commutativity and the Frobenius compatibility square
        assert mul.apply(pair) == mul.apply({(j, i): 1})
        direct = comul.apply(mul.apply(pair))
        assert direct == _on_legs(mul, _on_legs(comul, pair, 1), 0)
        assert direct == _on_legs(mul, _on_legs(comul, pair, 0), 1)
    for triple in product(range(k), repeat=3):
        basis = {triple: 1}
        assert _on_legs(mul, _on_legs(mul, basis, 0), 0) == _on_legs(
            mul, _on_legs(mul, basis, 1), 0
        )


def _dotted_reference(name: str, dots: int) -> dict:
    """Dots by enumeration: on a map with a source, every source key
    whose first exponent, raised by ``dots``, stays below its order takes
    the undotted row of the raised key; on a birth, every image's first
    exponent is raised, and the images that reach the order drop."""
    base = basic_map(name)
    if base.source:
        entries = {}
        for key in product(*(range(order) for order in base.source)):
            lifted = (key[0] + dots,) + key[1:]
            if lifted[0] < base.source[0] and lifted in base.entries:
                entries[key] = dict(base.entries[lifted])
        return entries
    entries = {}
    for key, row in base.entries.items():
        moved = {
            (out[0] + dots,) + out[1:]: coeff
            for out, coeff in row.items()
            if out[0] + dots < base.target[0]
        }
        if moved:
            entries[key] = moved
    return entries


@pytest.mark.parametrize("name", BASIC_FOAM_NAMES)
def test_dotted_maps_match_the_enumerated_reference(name) -> None:
    for dots in range(5):
        dotted = basic_map(name, dots)
        assert dotted.entries == _dotted_reference(name, dots), (name, dots)
        assert (dotted.source, dotted.target) == (
            basic_map(name).source,
            basic_map(name).target,
        )


def test_circle_maps_are_the_three_sheet_unit_and_trace() -> None:
    assert basic_map("circle-birth").entries == {(): {(0,): Fraction(1)}}
    assert basic_map("circle-death").entries == {(2,): {(): Fraction(-1)}}


def test_tube_maps_match_the_algebra_structure() -> None:
    # the reference product, written out apart from the catalogue that
    # FrobElement multiplies through: x^i x^j = x^(i+j) below x^3, else 0
    merge = basic_map("tube-merge")
    for i, j in product(range(3), repeat=2):
        expected = {(i + j,): Fraction(1)} if i + j < 3 else {}
        assert merge.apply({(i, j): Fraction(1)}) == expected
        power = FrobElement.x(i + j) if i + j < 3 else FrobElement.zero()
        assert frob_mul(FrobElement.x(i), FrobElement.x(j)) == power
    split = basic_map("tube-split")
    for power in range(3):
        assert split.apply({(power,): Fraction(1)}) == frob_comul(
            FrobElement.x(power)
        )


def test_degree_rule_matches_the_maps() -> None:
    for name in BASIC_FOAM_NAMES:
        for dots in range(3):
            mapped = basic_map(name, dots)
            if mapped.is_zero():
                continue
            assert mapped.degree() == foam_degree(name, dots), (name, dots)


def test_dotted_maps() -> None:
    dotted = basic_map("circle-death", 1)
    assert dotted.entries == {(1,): {(): Fraction(-1)}}
    assert basic_map("seam-death", 2).is_zero()
    birth = basic_map("circle-birth", 2)
    assert birth.entries == {(): {(2,): Fraction(1)}}
    assert birth.degree() == 2


def test_foam_map_degree_errors() -> None:
    with pytest.raises(ValueError, match="zero map has no degree"):
        basic_map("seam-death", 2).degree()
    lopsided = FoamMap(
        (3,),
        (3,),
        {(0,): {(0,): Fraction(1), (1,): Fraction(1)}},
    )
    with pytest.raises(ValueError, match="not homogeneous"):
        lopsided.degree()


def test_foam_map_validation() -> None:
    with pytest.raises(ValueError, match="truncation order must be 2 or 3"):
        FoamMap((4,), (), {})
    with pytest.raises(ValueError, match="unknown basic foam"):
        basic_map("saddle")
    with pytest.raises(ValueError, match="unknown basic foam"):
        foam_degree("saddle")
    with pytest.raises(ValueError, match="dot count"):
        basic_map("seam-birth", -1)
    with pytest.raises(ValueError, match="dot count"):
        foam_degree("seam-birth", -2)


@pytest.mark.parametrize("bad", [0.1, "1", True, None, 1j])
def test_coefficients_must_be_exact(bad) -> None:
    with pytest.raises(ValueError, match="ints or Fractions"):
        FrobElement((bad, 0, 0))
    with pytest.raises(ValueError, match="ints or Fractions"):
        FlagRingElement((0, 0, 0, 0, 0, bad))
    with pytest.raises(ValueError, match="ints or Fractions"):
        FoamMap((2,), (2,), {(0,): {(1,): bad}})
    assert FrobElement((1, Fraction(1, 2), -3)).coeffs == (1, Fraction(1, 2), -3)
    assert FoamMap((2,), (2,), {(0,): {(1,): 2}}).entries == {(0,): {(1,): 2}}


@pytest.mark.parametrize(
    "entries",
    [
        {(7,): {(9,): 1}},
        {(0, 1): {(0,): 1}},
        {(3,): {(0,): 1}},
        {(0,): {(3,): 1}},
        {(0,): {(0, 0): 1}},
        {(-1,): {(0,): 1}},
        {(True,): {(0,): 1}},
        {(0,): {(1.0,): 1}},
    ],
)
def test_foam_map_keys_must_fit_the_factors(entries) -> None:
    # one int exponent per factor, each below that factor's order
    with pytest.raises(ValueError, match="basis key"):
        FoamMap((3,), (3,), entries)


@pytest.mark.parametrize("dots", [1.5, 1.0, True, "1", None])
def test_dot_counts_must_be_ints(dots) -> None:
    with pytest.raises(ValueError, match="dot count"):
        basic_map("circle-birth", dots)
    with pytest.raises(ValueError, match="dot count"):
        foam_degree("circle-birth", dots)


def test_foam_map_apply_is_linear() -> None:
    split = basic_map("seam-split")
    combined = split.apply({(0,): Fraction(2), (1,): Fraction(-1)})
    assert combined == {
        (1, 0): Fraction(2),
        (0, 1): Fraction(2),
        (1, 1): Fraction(-1),
    }


@pytest.mark.parametrize("key", [(7,), (0, 0), (), (-1,), (True,), (1.0,), "0"])
def test_foam_map_apply_checks_its_keys(key) -> None:
    # a key that does not fit the source is an error, not a zero row
    with pytest.raises(ValueError, match="basis key"):
        basic_map("tube-split").apply({key: 1})


@pytest.mark.parametrize("name", ["tube-split", "circle-death"])
@pytest.mark.parametrize("bad", [1.5, True, "1", None])
def test_foam_map_apply_checks_its_coefficients(name, bad) -> None:
    # checked even where the map's row is zero (circle-death on x^0)
    with pytest.raises(ValueError, match="ints or Fractions"):
        basic_map(name).apply({(0,): bad})


# ----------------------------------------------------------------------
# the verification suite


def test_verify_foam_reports() -> None:
    reports = verify_foam()
    assert [r.check for r in reports] == [
        "foam-frobenius",
        "foam-structure-constants",
        "foam-theta",
        "foam-surgery",
        "foam-degrees",
    ]
    assert all_passed(reports)
    rendered = render_reports(reports, "text")
    assert rendered.count("PASS") == 5
    assert "FAIL" not in rendered


def test_verify_foam_names_the_failing_theta_triple(monkeypatch) -> None:
    def mutant(d1, d2, d3):
        flipped = (d1, d2, d3) == (1, 0, 2)
        return -theta_eval(d1, d2, d3) if flipped else theta_eval(d1, d2, d3)

    monkeypatch.setattr(foamalg, "theta_eval", mutant)
    failed = [(r.check, r.witness) for r in verify_foam() if not r.passed]
    assert failed == [("foam-theta", "failed at (1,0,2) != -1")]


def test_verify_foam_names_the_failing_structure_power(monkeypatch) -> None:
    def mutant(a):
        return {} if a == X else frob_comul(a)

    monkeypatch.setattr(foamalg, "frob_comul", mutant)
    reports = {r.check: r for r in verify_foam()}
    assert reports["foam-structure-constants"].line().endswith(" [failed at x]")


@pytest.mark.parametrize(
    "name, failing",
    [
        ("tube-merge", ["foam-frobenius"]),
        ("circle-birth", ["foam-frobenius", "foam-surgery"]),
    ],
)
def test_verify_foam_checks_the_catalogue_product_and_unit(monkeypatch, name, failing) -> None:
    catalogue = dict(foamalg._catalogue())
    foam, degree = catalogue[name]
    negated = {key: {out: -c for out, c in row.items()} for key, row in foam.entries.items()}
    catalogue[name] = (FoamMap(foam.source, foam.target, negated), degree)
    monkeypatch.setattr(foamalg, "_catalogue", lambda: catalogue)
    assert [r.check for r in verify_foam() if not r.passed] == failing
