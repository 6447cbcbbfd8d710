"""Tests for the symmetric-group / Hecke / flag-translation layer."""

from __future__ import annotations

import hashlib
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moycalc import boxcomb
from moycalc.qlaurent import ONE, LaurentPoly, LinComb, _pack, _unpack
from moycalc.symhecke import (
    FlagList,
    HeckeElement,
    O_set,
    Permutation,
    TranslationPath,
    annihilates,
    hecke_mul,
    kl_element,
    list_A,
    list_B,
    min_coset_reps,
    nonzero_part_count,
    rs_tableaux,
    sign_action,
    translation_flag,
    _group,
    _left_step,
    _lincomb,
    _low,
    _norm,
    _packing,
    _raw,
    _rep_masks,
    _right_minimal_reps,
)
from moycalc.weblin import QMatrix


def qp(e: int) -> LaurentPoly:
    return LaurentPoly.q_power(e)


def perm(text: str) -> Permutation:
    return Permutation.from_one_line(text)


def all_perms(n: int):
    return [Permutation(images) for images in permutations(range(1, n + 1))]


def positive_compositions(n: int):
    """All ordered tuples of positive integers summing to n."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in positive_compositions(n - first):
            out.append((first,) + rest)
    return out


@pytest.mark.parametrize("n", range(7))
def test_the_composition_enumerator_matches_the_reference(n):
    reference = positive_compositions(n)
    assert boxcomb._compositions(n, range(1, n + 1)) == reference
    assert boxcomb.positive_compositions(n) == reference
    for allowed in ((1,), (1, 2), (2, 3), (1, 2, 3), (1, 3, 4), (2, 5)):
        assert boxcomb._compositions(n, allowed) == [
            c for c in reference if set(c) <= set(allowed)
        ]


@pytest.mark.parametrize("allowed", [(0, 1, 2), (-1, 1), (1, 0)])
def test_the_composition_enumerator_rejects_parts_below_one(allowed):
    with pytest.raises(ValueError, match="must be at least 1"):
        boxcomb._compositions(3, allowed)


def young_subgroup(nu: tuple[int, ...]):
    """All elements of the block-diagonal subgroup S_nu inside S_n."""
    n = sum(nu)
    blocks = []
    start = 1
    for p in nu:
        blocks.append(list(range(start, start + p)))
        start += p
    members = [Permutation.identity(n)]
    for block in blocks:
        extended = []
        for images in permutations(block):
            for base in members:
                new = list(base.images)
                for pos, val in zip(block, images):
                    new[pos - 1] = val
                extended.append(Permutation(tuple(new)))
        members = extended
    return members


PERMS = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))

WORDS = st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=9))
)


# ----------------------------------------------------------------------
# permutations


def test_product_composes_right_to_left():
    s1, s2 = Permutation.s(1, 3), Permutation.s(2, 3)
    assert (s1 * s2).images == (2, 3, 1)
    assert (s2 * s1).images == (3, 1, 2)


def test_side_products_match_convention():
    for p in all_perms(4):
        for i in range(1, 4):
            assert p.times_s(i) == p * Permutation.s(i, 4)
            assert p.s_times(i) == Permutation.s(i, 4) * p


@given(PERMS)
def test_inverse_and_length(p):
    assert p * p.inverse() == Permutation.identity(p.n)
    assert p.inverse().length() == p.length()


def test_longest_element_length():
    assert Permutation.longest(5).length() == 10


def test_reduced_words_roundtrip():
    for p in all_perms(4):
        word = p.reduced_word()
        assert len(word) == p.length()
        assert Permutation.from_word(word, 4) == p


@given(WORDS)
def test_from_word_length_parity(nw):
    n, word = nw
    p = Permutation.from_word(word, n)
    assert (len(word) - p.length()) % 2 == 0


def test_word_text_examples():
    assert perm("321").word_text() == "121"
    assert perm("312").word_text() == "21"
    assert perm("231").word_text() == "12"
    assert Permutation.identity(3).word_text() == "e"
    assert perm("321").one_line_text() == "321"


def test_invalid_permutations_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation.from_one_line("e")


@pytest.mark.parametrize(
    "images", [(True, 2.0), (True, 2), (1.0, 2), (2, 1.0), ("1",), (1, None)]
)
def test_permutation_entries_must_be_ints(images):
    with pytest.raises(ValueError):
        Permutation(images)


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: perm("12") * perm("123"), "size mismatch in permutation product"),
        (lambda: O_set((1, 1), (3,)), r"compositions \(1, 1\) and \(3,\) have different sums"),
        (lambda: FlagList(()).times_quantum(-1), "quantum multiple needs m >= 0, got -1"),
    ],
    ids=["product-sizes", "O-set-sums", "negative-quantum"],
)
def test_hecke_layer_errors(call, reason):
    with pytest.raises(ValueError, match=reason) as info:
        call()
    assert type(info.value) is ValueError


def test_hecke_difference_and_texts():
    h = HeckeElement.standard(perm("21"))
    assert str(h - HeckeElement.unit(2)) == "H[21]*(1) + H[12]*(-1)"
    assert str(h - h) == "0"
    assert str(h) == "H[21]*(1)"
    assert FlagList(()).text() == "(empty)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FlagList(()).times_quantum(1.5), "quantum multiple m must be an int, got 1.5"),
        (lambda: Permutation.s(1.5, 3), "generator index must be an int, got 1.5"),
        (lambda: Permutation.s(True, 3), "generator index must be an int, got True"),
        (lambda: Permutation.from_word([2, 1.0], 3), "generator index must be an int, got 1.0"),
    ],
    ids=["float-quantum", "float-generator", "bool-generator", "float-word"],
)
def test_counts_and_generator_indices_must_be_exact_ints(call, message):
    # 1.5 raised TypeError, and True passed as the generator 1
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Permutation.identity(True), "permutation size n must be an int, got True"),
        (lambda: Permutation.identity(-1), "permutation size n must be >= 0, got -1"),
        (lambda: Permutation.identity(2.5), "permutation size n must be an int, got 2.5"),
        (lambda: Permutation.s(1, 2.5), "permutation size n must be an int, got 2.5"),
        (lambda: list_A(2, 1, 3.0), "permutation size n must be an int, got 3.0"),
    ],
    ids=["bool-size", "negative-size", "float-size", "float-generator-size", "float-list-size"],
)
def test_permutation_sizes_must_be_exact_ints(call, message):
    # True was the size 1, -1 the empty permutation, and a float raised TypeError
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError
    assert Permutation.identity(0).images == ()


@pytest.mark.parametrize("i", [0, 4, -1])
def test_side_products_reject_generators_out_of_range(i):
    p = perm("2413")
    with pytest.raises(ValueError):
        p.times_s(i)
    with pytest.raises(ValueError):
        p.s_times(i)


@settings(max_examples=200, deadline=None)
@given(PERMS, st.data())
def test_group_operations_match_validated_construction(p, data):
    """Results built through the trusted path equal, and hash like, the
    same images passed through the validating constructor."""
    other = data.draw(
        st.permutations(list(range(1, p.n + 1))).map(
            lambda images: Permutation(tuple(images))
        )
    )
    i = data.draw(st.integers(1, p.n - 1))
    for result in (p.inverse(), p * other, p.times_s(i), p.s_times(i)):
        validated = Permutation(result.images)
        assert type(result.images) is tuple
        assert result == validated
        assert hash(result) == hash(validated)


# ----------------------------------------------------------------------
# coset representatives


def test_min_coset_reps_examples():
    right = min_coset_reps((2, 1), "right")
    assert {w.one_line_text() for w in right} == {"123", "132", "231"}
    left = min_coset_reps((2, 1), "left")
    assert {w.one_line_text() for w in left} == {"123", "132", "312"}
    assert min_coset_reps((3,), "right") == {Permutation.identity(3)}
    assert len(min_coset_reps((1, 1, 1), "left")) == 6


@pytest.mark.parametrize("mu", [(2, 2), (1, 3), (2, 0, 1), (1, 1, 2)])
def test_min_coset_reps_count(mu):
    n = sum(mu)
    order = 1
    for p in mu:
        for j in range(1, p + 1):
            order *= j
    count = 1
    for j in range(1, n + 1):
        count *= j
    assert len(min_coset_reps(mu, "right")) == count // order
    assert len(min_coset_reps(mu, "left")) == count // order


def _filtered_right_minimal_reps(nu):
    """The representatives as ``_right_minimal_reps`` listed them before it
    generated shuffles: every permutation of S_n, in lexicographic order,
    whose entries increase along each nu-block of positions."""
    pairs, start = [], 1
    for p in nu:
        pairs += range(start, start + p - 1)
        start += p
    return tuple(
        images
        for images in permutations(range(1, sum(nu) + 1))
        if all(images[i - 1] < images[i] for i in pairs)
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_right_minimal_reps_are_the_filtered_permutations_in_order(n):
    for nu in positive_compositions(n) + compositions_with_zero_parts(n):
        got = tuple(w.images for w in _right_minimal_reps(nu))
        assert got == _filtered_right_minimal_reps(nu), nu


def _brute_force_masks(nu):
    """Each representative's failing-pair mask from its definition: bit
    i is set when the position of the value i does not lie in a strictly
    earlier nu-block than the position of i + 1."""
    block_of = [b for b, p in enumerate(nu) for _ in range(p)]
    masks = {}
    for images in _filtered_right_minimal_reps(nu):
        position = {v: pos for pos, v in enumerate(images)}
        masks[images] = sum(
            1 << i
            for i in range(1, len(images))
            if block_of[position[i]] >= block_of[position[i + 1]]
        )
    return masks


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_rep_masks_match_the_brute_force_masks_in_order(n):
    for nu in positive_compositions(n) + compositions_with_zero_parts(n):
        got = _rep_masks(nu)
        want = _brute_force_masks(nu)
        assert list(got.items()) == list(want.items()), nu


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_min_coset_reps_are_the_shortest_elements_of_their_cosets(n):
    perms = all_perms(n)
    for mu in positive_compositions(n) + compositions_with_zero_parts(n):
        subgroup = young_subgroup(mu)
        left = {
            w for w in perms
            if all(w.length() <= (y * w).length() for y in subgroup)
        }
        right = {
            w for w in perms
            if all(w.length() <= (w * y).length() for y in subgroup)
        }
        assert min_coset_reps(mu, "left") == left, mu
        assert min_coset_reps(mu, "right") == right, mu


def test_min_coset_reps_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        min_coset_reps((2, 1), "middle")


def test_coset_factorization_is_unique_and_length_additive():
    mu = (2, 2)
    reps = min_coset_reps(mu, "right")
    seen = set()
    for z in reps:
        for y in young_subgroup(mu):
            w = z * y
            assert w not in seen
            seen.add(w)
            assert w.length() == z.length() + y.length()
    assert len(seen) == 24


def test_O_set_small_example():
    assert O_set((2,), (1, 1)) == {Permutation.identity(2)}


def test_O_set_ignores_zero_parts():
    assert O_set((2, 0, 1), (1, 1, 1)) == O_set((2, 1), (1, 1, 1))
    assert O_set((2, 1), (1, 0, 1, 1)) == O_set((2, 1), (1, 1, 1))


def compositions_with_zero_parts(n):
    """A zero part put at every place of each composition of n."""
    return sorted(
        {
            c[:i] + (0,) + c[i:]
            for c in positive_compositions(n)
            for i in range(len(c) + 1)
        }
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_O_set_against_brute_force(n):
    comps = positive_compositions(n) + compositions_with_zero_parts(n)
    for mu in comps:
        left_min = min_coset_reps(mu, "left")
        for nu in comps:
            subgroup = young_subgroup(nu)
            brute = {
                z
                for z in min_coset_reps(nu, "right")
                if all(z * y in left_min for y in subgroup)
            }
            assert O_set(mu, nu) == brute, (mu, nu)


# ----------------------------------------------------------------------
# Hecke algebra


def test_quadratic_relation_is_forced_by_the_kl_normalization():
    # Suppose H_s^2 = a*H_e + b*H_s.  Requiring (H_s + q)^2 to equal
    # (q + q^-1)(H_s + q) forces a + q^2 = q^2 + 1 and b + 2q = q + q^-1.
    a = (qp(2) + ONE) - qp(2)
    b = (qp(1) + qp(-1)) - 2 * qp(1)
    assert a == ONE
    assert b == qp(-1) - qp(1)
    s = Permutation.s(1, 2)
    h = HeckeElement.standard(s)
    product = hecke_mul(h, h)
    expected = HeckeElement(2, {Permutation.identity(2): a, s: b})
    assert product == expected


def test_kl_generator_is_idempotent_up_to_quantum_two():
    for n in (2, 3, 4):
        for i in range(1, n):
            c = kl_element(Permutation.s(i, n))
            assert hecke_mul(c, c) == c * (qp(1) + qp(-1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_braid_and_commuting_relations(n):
    gens = [HeckeElement.standard(Permutation.s(i, n)) for i in range(1, n)]
    for i in range(n - 2):
        lhs = hecke_mul(hecke_mul(gens[i], gens[i + 1]), gens[i])
        rhs = hecke_mul(hecke_mul(gens[i + 1], gens[i]), gens[i + 1])
        assert lhs == rhs
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            assert hecke_mul(gens[i], gens[j]) == hecke_mul(gens[j], gens[i])


def test_products_with_additive_lengths_are_standard():
    for x in all_perms(4):
        for y in all_perms(4):
            if (x * y).length() == x.length() + y.length():
                product = hecke_mul(
                    HeckeElement.standard(x), HeckeElement.standard(y)
                )
                assert product == HeckeElement.standard(x * y)


def test_unit_is_neutral():
    h = kl_element(perm("321"))
    assert hecke_mul(HeckeElement.unit(3), h) == h
    assert hecke_mul(h, HeckeElement.unit(3)) == h


def test_bar_on_generator():
    s = Permutation.s(1, 2)
    h = HeckeElement.standard(s)
    expected = HeckeElement(2, {s: ONE, Permutation.identity(2): qp(1) - qp(-1)})
    assert h.bar() == expected


def test_bar_is_an_involution_and_multiplicative():
    for x in all_perms(3):
        hx = HeckeElement.standard(x) * (qp(2) + 3)
        assert hx.bar().bar() == hx
        for y in all_perms(3):
            hy = HeckeElement.standard(y)
            assert hecke_mul(hx, hy).bar() == hecke_mul(hx.bar(), hy.bar())


def test_hecke_text_format():
    assert HeckeElement.unit(3).text() == "H[123]*(1)"
    assert HeckeElement(2, {}).text() == "0"
    h = HeckeElement.standard(Permutation.s(1, 3)) * (qp(1) + qp(-1))
    assert h.text() == "H[213]*(q + q^-1)"


def test_hecke_element_rejects_keys_of_another_size():
    with pytest.raises(ValueError, match="size n=3"):
        HeckeElement(3, {Permutation((2, 1, 3, 4)): ONE})
    with pytest.raises(ValueError, match="size n=3"):
        HeckeElement(3, {(2, 1, 3): ONE})
    assert HeckeElement(3, {Permutation((2, 1, 3)): ONE}).n == 3


def test_hecke_sums_reject_a_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch in Hecke sum"):
        HeckeElement.unit(3) + HeckeElement.unit(4)
    with pytest.raises(ValueError, match="size mismatch in Hecke difference"):
        HeckeElement.unit(3) - HeckeElement.unit(4)
    with pytest.raises(ValueError, match="size mismatch in Hecke product"):
        hecke_mul(HeckeElement.unit(3), HeckeElement.unit(4))


def test_hecke_difference_with_a_non_element_is_a_type_error():
    with pytest.raises(TypeError):
        HeckeElement.unit(3) - 1
    with pytest.raises(TypeError):
        HeckeElement.unit(3) + 1


# ----------------------------------------------------------------------
# Kazhdan-Lusztig basis


def test_kl_frozen_examples():
    assert kl_element(Permutation.identity(3)) == HeckeElement.unit(3)
    s = Permutation.s(1, 2)
    assert kl_element(s) == HeckeElement(
        2, {s: ONE, Permutation.identity(2): qp(1)}
    )
    assert kl_element(perm("321")).text() == (
        "H[321]*(1) + H[231]*(q) + H[312]*(q)"
        " + H[132]*(q^2) + H[213]*(q^2) + H[123]*(q^3)"
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kl_defining_properties(n):
    for w in all_perms(n):
        b = kl_element(w)
        assert b.bar() == b
        assert b.coeff(w) == ONE
        for y, c in b.terms.items():
            if y != w:
                assert min(e for e, _ in c.terms) >= 1


def test_kl_element_of_the_longest_element_of_s6_is_bar_invariant():
    b = kl_element(Permutation.longest(6))
    assert len(b.terms) == 720
    assert b.bar() == b


@pytest.mark.parametrize("n", [3, 4])
def test_kl_longest_element_closed_form(n):
    w0 = Permutation.longest(n)
    b = kl_element(w0)
    assert set(b.terms) == set(all_perms(n))
    for y, c in b.terms.items():
        assert c == qp(w0.length() - y.length())


# ----------------------------------------------------------------------
# Robinson-Schensted and the annihilator criterion


def test_rs_identity_gives_single_rows():
    p, q = rs_tableaux(Permutation.identity(4))
    assert p == ((1, 2, 3, 4),)
    assert q == ((1, 2, 3, 4),)


def test_rs_frozen_example():
    p, q = rs_tableaux(Permutation((3, 2, 4, 1)))
    assert p == ((1, 4), (2,), (3,))
    assert q == ((1, 3), (2,), (4,))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rs_is_a_shape_matched_bijection(n):
    seen = set()
    for w in all_perms(n):
        p, q = rs_tableaux(w)
        assert tuple(len(row) for row in p) == tuple(len(row) for row in q)
        assert sorted(v for row in p for v in row) == list(range(1, n + 1))
        seen.add((p, q))
    count = 1
    for j in range(1, n + 1):
        count *= j
    assert len(seen) == count


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rs_full_reversal_is_a_single_column(k):
    p, _ = rs_tableaux(Permutation.longest(k + 1))
    assert p == tuple((j,) for j in range(1, k + 2))


@pytest.mark.parametrize("k", [2, 3])
def test_rs_double_descent_permutation_has_k_plus_one_rows(k):
    images = tuple(range(k + 1, 1, -1)) + tuple(range(2 * k, k + 1, -1)) + (1,)
    p, _ = rs_tableaux(Permutation(images))
    assert len(p) == k + 1


def test_annihilates_examples():
    assert annihilates(perm("321"), (2, 1)) is True
    assert annihilates(perm("321"), (1, 1, 1)) is False
    assert annihilates(Permutation.identity(3), (3,)) is False
    for w in all_perms(3):
        assert annihilates(w, (2, 0, 1)) == annihilates(w, (2, 1))
    assert nonzero_part_count((2, 0, 1)) == 2


@pytest.mark.parametrize("mu", [(1, 1), (2, 2), (5,), (2, 0, 2)])
def test_annihilates_rejects_a_composition_of_another_size(mu):
    w = Permutation.identity(3)
    with pytest.raises(ValueError, match="does not match n=3") as got:
        annihilates(w, mu)
    with pytest.raises(ValueError) as want:
        sign_action(HeckeElement.standard(w), mu)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# the induced sign module


def test_sign_action_of_unit_is_identity():
    m = sign_action(HeckeElement.unit(3), (2, 1))
    assert m == QMatrix.identity(tuple(sorted(
        min_coset_reps((2, 1), "left"), key=lambda w: w.images
    )))


def test_sign_action_whole_group_eigenvalue():
    m = sign_action(HeckeElement.standard(Permutation.s(1, 2)), (2,))
    assert m.scalar() == LaurentPoly({1: -1})
    c = sign_action(kl_element(Permutation.s(1, 2)), (2,))
    assert c.is_zero()


def test_sign_action_on_finest_composition_is_right_regular():
    n = 3
    for i in range(1, n):
        hs = HeckeElement.standard(Permutation.s(i, n))
        m = sign_action(hs, (1, 1, 1))
        for w in all_perms(n):
            image = hecke_mul(HeckeElement.standard(w), hs)
            for u in all_perms(n):
                assert m.entry(u, w) == image.coeff(u)


@pytest.mark.parametrize("mu", [(2, 1), (2, 2), (1, 1, 2)])
def test_sign_action_satisfies_hecke_relations(mu):
    n = sum(mu)
    mats = [
        sign_action(HeckeElement.standard(Permutation.s(i, n)), mu)
        for i in range(1, n)
    ]
    basis = tuple(sorted(min_coset_reps(mu, "left"), key=lambda w: w.images))
    ident = QMatrix.identity(basis)
    for m in mats:
        assert m @ m == ident + m * (qp(-1) - qp(1))
    for a, b in zip(mats, mats[1:]):
        assert a @ b @ a == b @ a @ b


def test_sign_action_reverses_products():
    mu = (2, 1)
    a = kl_element(perm("231"))
    b = kl_element(perm("213"))
    assert sign_action(hecke_mul(a, b), mu) == (
        sign_action(b, mu) @ sign_action(a, mu)
    )


def _any_reduced_word(x: Permutation) -> tuple[int, ...]:
    """A reduced word found by bubble sorting, independent of the greedy
    left-descent word the module uses."""
    images = list(x.images)
    word: list[int] = []
    while True:
        j = next((j for j in range(1, len(images)) if images[j - 1] > images[j]), None)
        if j is None:
            return tuple(reversed(word))
        images[j - 1], images[j] = images[j], images[j - 1]
        word.append(j)


def reference_sign_action(h: HeckeElement, mu: tuple[int, ...]):
    """Entries (row images, column images) -> poly of h on the sign module
    of mu, by folding the reduced word of every term of h through the
    wall/up/down rule on the basis: H_{s_i} sends w to w·s_i when that
    is again minimal (plus (q^-1 - q)·w when it is shorter), and to
    -q·w when w·s_i is not minimal."""
    n = sum(mu)
    block_of = [b for b, part in enumerate(mu) for _ in range(part)]

    def minimal(images):
        return all(
            images[p] < images[r]
            for p in range(n)
            for r in range(p + 1, n)
            if block_of[images[p] - 1] == block_of[images[r] - 1]
        )

    def step(vec, i):
        out = {}

        def add(key, c):
            out[key] = out.get(key, LaurentPoly()) + c

        for w, c in vec.items():
            ws = list(w)
            ws[i - 1], ws[i] = ws[i], ws[i - 1]
            ws = tuple(ws)
            if not minimal(ws):
                add(w, -c * qp(1))
            elif w[i - 1] < w[i]:
                add(ws, c)
            else:
                add(ws, c)
                add(w, c * (qp(-1) - qp(1)))
        return out

    basis = sorted(p for p in permutations(range(1, n + 1)) if minimal(p))
    entries = {}
    for w in basis:
        for x, c in h.terms.items():
            vec = {w: c}
            for i in _any_reduced_word(x):
                vec = step(vec, i)
            for u, cu in vec.items():
                entries[(u, w)] = entries.get((u, w), LaurentPoly()) + cu
    return basis, {key: c for key, c in entries.items() if c}


def matrix_entries(m: QMatrix):
    return {
        (u.images, w.images): c
        for w, column in zip(m.cols, m.columns)
        for u, c in column.items()
    }


# wide coefficients and exponents make the packed kernel pick wide digits
# and large offsets
POLYS = st.dictionaries(
    st.integers(-30, 30),
    st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
    max_size=3,
).map(LaurentPoly)


@st.composite
def compositions(draw, n: int) -> tuple[int, ...]:
    """A composition of n into 1..n+1 parts, zero parts allowed."""
    parts = draw(st.integers(1, n + 1))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=parts - 1, max_size=parts - 1)))
    bounds = [0] + cuts + [n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def hecke_elements(n: int):
    """Random elements of the Hecke algebra of S_n with 0..8 terms."""
    return st.dictionaries(
        st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(tuple(im))),
        POLYS,
        max_size=8,
    ).map(lambda terms: HeckeElement(n, terms))


def element_and_composition(ns):
    return ns.flatmap(lambda n: st.tuples(hecke_elements(n), compositions(n)))


def _assert_matches_reference(h: HeckeElement, mu: tuple[int, ...]) -> None:
    basis, expected = reference_sign_action(h, mu)
    m = sign_action(h, mu)
    assert [w.images for w in m.cols] == basis
    assert [w.images for w in m.rows] == basis
    assert matrix_entries(m) == expected


@settings(max_examples=150, deadline=None)
@given(element_and_composition(st.integers(1, 4)))
def test_sign_action_matches_the_right_fold_reference(case):
    _assert_matches_reference(*case)


@settings(max_examples=6, deadline=None)
@given(element_and_composition(st.just(5)))
def test_sign_action_matches_the_right_fold_reference_n5(case):
    _assert_matches_reference(*case)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(hecke_elements(n), hecke_elements(n), compositions(n))
    )
)
def test_sign_action_of_a_product_is_the_reversed_product(case):
    a, b, mu = case
    assert sign_action(a * b, mu) == sign_action(b, mu) @ sign_action(a, mu)


# ----------------------------------------------------------------------
# the indexed group and its raw-sum left step


@pytest.mark.parametrize("n", range(1, 7))
def test_the_indexed_group_agrees_with_permutation(n):
    group = _group(n)
    assert len(group.perms) == len(all_perms(n))
    assert group.perms[0] == Permutation.identity(n)
    assert [group.index[w.images] for w in group.perms] == list(range(len(group.perms)))
    assert sorted(group.left) == list(range(1, n))
    for i, moves in group.left.items():
        assert len(moves) == len(group.perms)
        for y, (sy, down) in enumerate(moves):
            w = group.perms[y]
            assert moves[sy][0] == y
            assert group.perms[sy] == w.s_times(i)
            assert down == (not w.left_ascent(i))
            assert group.perms[sy].length() == w.length() + (-1 if down else 1)


def reference_gen_times_vec(i: int, vec: LinComb, inverse: bool = False) -> LinComb:
    """Left multiplication by H_{s_i}, or by H_{s_i}^{-1}, term by term
    in LaurentPoly arithmetic: H_{s_i}·H_y = H_{s_i·y}, plus
    (q^-1 - q)·H_y when s_i·y < y; the inverse adds (q - q^-1)·H_y when
    s_i·y > y instead."""
    correction = LaurentPoly({-1: 1, 1: -1})
    if inverse:
        correction = -correction
    out = LinComb()
    for y, c in vec.items():
        out.add_term(y.s_times(i), c)
        if y.left_ascent(i) == inverse:
            out.add_term(y, c * correction)
    return out


def reference_hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Σ_x c_x·H_x·b, each H_x·b folded separately along x's word."""
    out = LinComb()
    for x, c in a.terms.items():
        vec = b.terms
        for i in reversed(x.reduced_word()):
            vec = reference_gen_times_vec(i, vec)
        for w, cw in vec.items():
            out.add_term(w, c * cw)
    return HeckeElement(a.n, out)


def reference_bar(h: HeckeElement) -> HeckeElement:
    """Σ_x bar(c_x)·(H_{x^-1})^-1, each term folded from the identity."""
    out = LinComb()
    for x, c in h.terms.items():
        vec = LinComb({Permutation.identity(h.n): c.bar()})
        for i in reversed(x.reduced_word()):
            vec = reference_gen_times_vec(i, vec, inverse=True)
        for w, cw in vec.items():
            out.add_term(w, cw)
    return HeckeElement(h.n, out)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(hecke_elements(n), st.integers(1, n - 1), st.booleans())
    )
)
def test_left_step_matches_the_lincomb_reference(case):
    h, i, inverse = case
    group = _group(h.n)
    polys = h.terms.values()
    width, offset = _packing(_norm(polys), _low(polys), 1)
    raw = _raw(h.terms, group, width, offset)
    before = dict(raw)
    stepped = _left_step(group.left[i], raw, width, inverse)
    assert raw == before
    assert _lincomb(stepped, group, width, offset) == reference_gen_times_vec(
        i, h.terms, inverse
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(hecke_elements(n), hecke_elements(n))))
def test_hecke_mul_matches_the_lincomb_reference(case):
    a, b = case
    assert hecke_mul(a, b) == reference_hecke_mul(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(hecke_elements))
def test_bar_matches_the_lincomb_reference(h):
    assert h.bar() == reference_bar(h)


def test_shared_sums_leave_inputs_and_cached_elements_unchanged():
    """Left steps pass sums from their input to their output uncopied,
    so no call may change its input or a cached element."""
    h = kl_element(perm("3412")) + qp(2) * HeckeElement.standard(perm("2143"))
    terms = dict(h.terms)
    for mu in [(1, 1, 1, 1), (2, 1, 1), (2, 2)]:
        assert sign_action(h, mu) == sign_action(h, mu)
    assert dict(h.terms) == terms
    s4 = all_perms(4)
    texts = {w: kl_element(w).text() for w in s4}
    for w in s4:
        h = kl_element(w)
        for mu in positive_compositions(4):
            sign_action(h, mu)
        h.bar()
        for v in s4:
            hecke_mul(h, kl_element(v))
    assert {w: kl_element(w).text() for w in s4} == texts


EDGE_CASES = {
    "zero": (HeckeElement(3, {}), (2, 1)),
    "n0": (HeckeElement.unit(0), ()),
    "n1": (HeckeElement(1, {perm("1"): LaurentPoly({-2: 3, 1: -1})}), (1,)),
    "2^90": (
        HeckeElement(
            3,
            {
                perm("321"): LaurentPoly({5: 2**90, 0: -1}),
                perm("213"): LaurentPoly({-4: -(2**90)}),
            },
        ),
        (1, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_elements_match_the_references(name):
    h, mu = EDGE_CASES[name]
    _assert_matches_reference(h, mu)
    assert h.bar() == reference_bar(h)
    assert h.bar().bar() == h
    for other in (h, HeckeElement.unit(h.n), HeckeElement(h.n, {})):
        assert hecke_mul(h, other) == reference_hecke_mul(h, other)
        assert hecke_mul(other, h) == reference_hecke_mul(other, h)


def test_an_undersized_width_is_refused_not_decoded():
    """A raw sum is only packed when its digits can hold every
    coefficient and its offset every exponent: packed anyway, 8 in
    4-bit balanced digits would read back as q - 8."""
    group = _group(2)
    terms = LinComb({Permutation.identity(2): LaurentPoly({0: 8, 1: -3})})
    polys = terms.values()
    width, offset = _packing(_norm(polys), _low(polys), 0)
    assert (width, offset) == (5, 0)
    assert _lincomb(_raw(terms, group, width, offset), group, width, offset) == terms
    with pytest.raises(ValueError, match="does not fit 4-bit digits"):
        _raw(terms, group, 4, offset)
    with pytest.raises(ValueError, match="at offset -1"):
        _raw(terms, group, width, -1)
    assert _unpack(8, 4, 0) == LaurentPoly({1: 1, 0: -8})


@st.composite
def raw_sums(draw):
    """(raw sum, group, width, offset): a few packed values, zero among them,
    spread over the keys of S_n so that values repeat; coefficients are
    drawn at the balanced extremes and -1 often, so negative digits borrow."""
    group = _group(draw(st.integers(1, 4)))
    width = draw(st.integers(2, 12))
    offset = draw(st.integers(0, 4))
    top = (1 << (width - 1)) - 1
    coeffs = st.one_of(st.sampled_from([top, -top, -1]), st.integers(-top, top))
    polys = st.dictionaries(st.integers(-offset, 6), coeffs, max_size=4).map(LaurentPoly)
    values = [0] + [_pack(p, width, offset) for p in draw(st.lists(polys, min_size=1, max_size=3))]
    keys = st.integers(0, len(group.perms) - 1)
    return draw(st.dictionaries(keys, st.sampled_from(values))), group, width, offset


@settings(max_examples=200, deadline=None)
@given(raw_sums())
@example(({0: -1, 1: 0, 2: -1, 3: 5, 4: 5, 5: -1}, _group(3), 3, 0))
def test_lincomb_decodes_each_entry_as_unpack_does(case):
    vec, group, width, offset = case
    got = _lincomb(vec, group, width, offset)
    want = [(group.perms[y], _unpack(acc, width, offset)) for y, acc in vec.items() if acc]
    assert type(got) is LinComb and list(got.items()) == want


# sha256 of the texts below, one line each: every printed Hecke output
# stays byte-identical whatever the kernel's internal form
KL_S6_TEXTS_SHA256 = "eb375d039ca98d682666b317e1f39e6435fb84b15c9e9c6abc1da814af775064"
SIGN_ACTION_S5_SHA256 = {
    (2, 2, 1): "d989486ab938b802a8bcb890061f070346da747f0e7604433b75d08aaa68780c",
    (1, 2, 1, 1): "5ca277205579d762e1a91a27ca183d832460ee23ec096e162fa4f518d8d784fe",
}


def _text_digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def test_kl_elements_of_s6_keep_their_texts():
    texts = (
        kl_element(Permutation(images)).text() for images in permutations(range(1, 7))
    )
    assert _text_digest(texts) == KL_S6_TEXTS_SHA256


@pytest.mark.parametrize("mu", sorted(SIGN_ACTION_S5_SHA256))
def test_sign_actions_on_s5_keep_their_texts(mu):
    texts = (
        str(sign_action(kl_element(Permutation(images)), mu))
        for images in permutations(range(1, 6))
    )
    assert _text_digest(texts) == SIGN_ACTION_S5_SHA256[mu]


def test_sign_action_columns_pass_the_row_check_it_skips():
    # sign_action adopts its columns without QMatrix's row check; the public
    # constructor still runs it, on the same columns and on a stray row key
    m = sign_action(kl_element(perm("53412")), (2, 2, 1))
    assert QMatrix(m.rows, m.cols, m.columns) == m
    longest = perm("54321")
    assert longest not in m.rows
    columns = [m.columns[0] + LinComb({longest: ONE}), *m.columns[1:]]
    with pytest.raises(ValueError, match="row key .* is not in the row index"):
        QMatrix(m.rows, m.cols, columns)


def test_annihilator_spot_checks():
    assert sign_action(kl_element(perm("321")), (2, 1)).is_zero()
    assert not sign_action(kl_element(perm("231")), (2, 1)).is_zero()
    assert sign_action(kl_element(perm("4321")), (2, 2)).is_zero()
    assert sign_action(kl_element(perm("4213")), (2, 2)).is_zero()
    assert not sign_action(kl_element(perm("3412")), (2, 2)).is_zero()
    assert sign_action(kl_element(perm("4321")), (2, 1, 1)).is_zero()


# ----------------------------------------------------------------------
# flag lists


def test_flag_list_frozen_texts():
    assert list_A(2, 1, 5).text() == "21, q 1, q^2 e"
    assert list_B(3, 4, 5).text() == "34, q 4, q^2 e"
    assert list_A(3, 2, 4).text() == "32, q 2, q^2 e"
    assert list_B(1, 3, 4).text() == "123, q 23, q^2 3, q^3 e"


def test_flag_list_concat_frozen_strings():
    product = list_A(2, 1, 5).concat(list_B(3, 4, 5))
    assert product.text() == (
        "2134, q 214, q^2 21, q 134, q^2 14, q^3 1, q^2 34, q^3 4, q^4 e"
    )
    assert product.canonical_text() == (
        "2134, q 134, q 214, q^2 14, q^2 21, q^2 34, q^3 1, q^3 4, q^4 e"
    )


def test_flag_list_equality_is_multiset_equality():
    e = Permutation.identity(2)
    s = Permutation.s(1, 2)
    a = FlagList(((0, e), (1, s), (0, e)))
    b = FlagList(((1, s), (0, e), (0, e)))
    c = FlagList(((1, s), (0, e)))
    assert a == b
    assert a != c
    assert a + c == FlagList(((0, e), (0, e), (0, e), (1, s), (1, s)))


def test_flag_list_quantum_multiple():
    e = Permutation.identity(3)
    tripled = FlagList.single(e).times_quantum(3)
    assert tripled.canonical_text() == "q^-2 e, e, q^2 e"
    assert len(FlagList.single(e).times_quantum(0)) == 0
    doubled = FlagList.single(e, 1).times_quantum(2)
    assert doubled == FlagList(((2, e), (0, e)))


# ----------------------------------------------------------------------
# translation combinatorics


def flag_columns(start: FlagList, path, mu=None):
    return [
        translation_flag(start, path[: i + 1], mu=mu)
        for i in range(len(path))
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_digon_multiplies_every_class_by_the_quantum_part_size(n):
    for nu in positive_compositions(n):
        for pos, part in enumerate(nu):
            if part < 2:
                continue
            for split in ((1, part - 1), (part - 1, 1)):
                fine = nu[:pos] + split + nu[pos + 1 :]
                for x in min_coset_reps(nu, "right"):
                    got = translation_flag(
                        FlagList.single(x), [nu, fine, nu]
                    )
                    assert got == FlagList.single(x).times_quantum(part)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_digon_table_regression(l):
    e = Permutation.identity(l)
    cols = flag_columns(FlagList.single(e), [(l,), (1, l - 1), (l,)])
    assert cols[0].canonical_text() == "e"
    assert cols[1].canonical_text() == list_A(l - 1, 1, l).canonical_text()
    assert cols[2] == FlagList.single(e).times_quantum(l)


@pytest.mark.parametrize("k", [2, 3])
def test_boundary_square_table_regression(k):
    n = k + 1
    e = Permutation.identity(n)
    path = [(1, k), (1, 1, k - 1), (2, k - 1), (1, 1, k - 1), (1, k)]
    cols = flag_columns(FlagList.single(e), path)
    a_top = list_A(k, 2, n)
    split_pair = FlagList(((0, Permutation.s(1, n)), (1, e)))
    expected = [
        FlagList.single(e),
        a_top,
        a_top,
        a_top.concat(split_pair),
        list_A(k, 1, n) + FlagList.single(e).times_quantum(k - 1),
    ]
    for got, want in zip(cols, expected):
        assert got == want
        assert got.canonical_text() == want.canonical_text()


@pytest.mark.parametrize("k", [2, 3])
def test_kink_table_regression(k):
    n = k + 1
    e = Permutation.identity(n)
    path = [(k, 1), (1, k - 1, 1), (1, k), (1, k - 1, 1)]
    cols = flag_columns(FlagList.single(e), path)
    a_list = list_A(k - 1, 1, n)
    expected = [
        FlagList.single(e),
        a_list,
        a_list,
        a_list.concat(list_B(2, k, n)),
    ]
    for got, want in zip(cols, expected):
        assert got == want
        assert got.canonical_text() == want.canonical_text()


@pytest.mark.parametrize(
    "terms",
    [((0.5, Permutation.identity(2)),), ((True, Permutation.identity(2)),), ((0, "12"),)],
)
def test_flag_list_terms_are_int_exponents_and_permutations(terms):
    with pytest.raises(ValueError, match="is not \\(int exponent, Permutation\\)"):
        FlagList(terms)


def test_translation_drops_classes_outside_the_restricted_set():
    e2 = Permutation.identity(2)
    assert translation_flag(
        FlagList.single(e2), [(1, 1), (2,)], mu=(1, 1)
    ) == FlagList.single(e2)
    assert len(
        translation_flag(FlagList.single(e2), [(1, 1), (2,)], mu=(2,))
    ) == 0
    kept = translation_flag(
        FlagList.single(perm("132")), [(1, 1, 1), (2, 1)], mu=(2, 1)
    )
    assert kept == FlagList.single(perm("132"))
    dropped = translation_flag(
        FlagList.single(perm("213")), [(1, 1, 1), (2, 1)], mu=(2, 1)
    )
    assert len(dropped) == 0
    assert O_set((2, 1), (2, 1)) == {perm("132")}


def test_translation_rejects_bad_paths_and_classes():
    e = Permutation.identity(3)
    with pytest.raises(ValueError, match="ill-matched compositions"):
        translation_flag(FlagList.single(e), [(2, 1), (1, 2)])
    with pytest.raises(ValueError, match="not minimal"):
        translation_flag(FlagList.single(perm("213")), [(2, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        translation_flag(FlagList.single(e), [(2, 1), (2, 2)])
    with pytest.raises(ValueError):
        translation_flag(FlagList.single(e), [])


def test_a_path_without_steps_checks_its_classes():
    with pytest.raises(ValueError, match="not a permutation of size n=3"):
        translation_flag(FlagList.single(Permutation.identity(2)), [(3,)])
    with pytest.raises(ValueError, match="not a permutation of size n=3"):
        translation_flag(FlagList.single(Permutation.identity(2)), [(3,)], mu=(2, 1))
    with pytest.raises(ValueError, match=r"not minimal over \(2, 1\)"):
        translation_flag(FlagList.single(perm("213")), [(2, 1)])
    kept = FlagList.single(perm("132"), 2)
    assert translation_flag(kept, [(2, 1)]) == kept


def test_translation_rejects_classes_of_another_size():
    e2 = Permutation.identity(2)
    with pytest.raises(ValueError, match="not a permutation of size n=3"):
        translation_flag(FlagList.single(e2), [(1, 1, 1), (2, 1)])
    with pytest.raises(ValueError, match="not a permutation of size n=3"):
        translation_flag(FlagList.single(e2), [(2, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="not a permutation of size n=3"):
        TranslationPath([(3,), (1, 2)]).push([(0, Permutation.identity(4))])


def test_push_rejects_a_class_that_is_not_a_permutation():
    with pytest.raises(ValueError, match="class '123' is not a Permutation"):
        TranslationPath([(2, 1), (1, 1, 1)]).push([(0, "123")])


@pytest.mark.parametrize("mu", [(1, 1), (5,), (2, 2), (1, 0, 1)])
def test_translation_rejects_a_restriction_of_another_size(mu):
    e = Permutation.identity(3)
    with pytest.raises(ValueError, match="does not match n=3"):
        translation_flag(FlagList.single(e), [(1, 1, 1), (2, 1)], mu=mu)
    with pytest.raises(ValueError, match="does not match n=3"):
        TranslationPath([(2, 1), (1, 1, 1)]).push([(0, e)], mu)
