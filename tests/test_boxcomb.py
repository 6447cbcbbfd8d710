"""Tests for compositions, fillings, the basis bijections, and the
weighted refine/merge moves."""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from moycalc.boxcomb import (
    Filling,
    WeightedDiagramSum,
    act_left,
    act_right,
    all_compositions,
    column_strict_fillings,
    curlyvee,
    curlywedge,
    inversions,
    phi,
    phi_inverse,
    positive_compositions,
    psi,
    psi_inverse,
    relabel_by_content,
    standard_filling,
)
from moycalc.qlaurent import LaurentPoly, quantum_int
from moycalc.symhecke import O_set, Permutation
from moycalc.weblin import TensorBasis, split_matrix


def qp(e: int) -> LaurentPoly:
    return LaurentPoly.q_power(e)


def filling(*columns) -> Filling:
    return Filling(tuple(tuple(col) for col in columns))


def all_perms(n: int):
    return [Permutation(images) for images in permutations(range(1, n + 1))]


# ----------------------------------------------------------------------
# compositions


def test_composition_enumeration_counts():
    assert len(all_compositions(4, 3)) == comb(6, 2)
    assert len(positive_compositions(5)) == 16
    assert all_compositions(0, 0) == [()]
    assert all_compositions(2, 0) == []
    assert (2, 0, 1) in all_compositions(3, 3)


def _recursive_all_compositions(n: int, parts: int) -> list[tuple[int, ...]]:
    """Compositions listed by first part, recursively: the reference
    that the stars-and-bars ``all_compositions`` is checked against."""
    if parts == 0:
        return [()] if n == 0 else []
    return [
        (first,) + rest
        for first in range(n + 1)
        for rest in _recursive_all_compositions(n - first, parts - 1)
    ]


@pytest.mark.parametrize("parts", range(6))
def test_all_compositions_match_the_recursion_in_order(parts):
    for n in range(9):
        assert all_compositions(n, parts) == _recursive_all_compositions(n, parts), n


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: all_compositions(3, -1), "number of parts must be >= 0, got -1"),
        (lambda: all_compositions(3, 2.5), "number of parts must be an int, got 2.5"),
        (lambda: all_compositions(2.5, 2), "composition sum n must be an int, got 2.5"),
        (lambda: all_compositions(-1, 2), "composition sum n must be >= 0, got -1"),
        (lambda: positive_compositions(True), "composition sum n must be an int, got True"),
        (lambda: positive_compositions(2.5), "composition sum n must be an int, got 2.5"),
    ],
    ids=["negative-parts", "float-parts", "float-sum", "negative-sum", "bool-sum", "float-positive"],
)
def test_composition_counts_must_be_exact_ints(call, message):
    # these recursed until RecursionError, listed [(1,)] for True, or raised TypeError
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError


# ----------------------------------------------------------------------
# fillings and the two actions


def test_standard_filling_examples():
    assert standard_filling((2, 2, 2)).columns == ((1, 2), (3, 4), (5, 6))
    assert standard_filling((1,)).columns == ((1,),)
    assert standard_filling((3, 0, 1)).columns == ((1, 2, 3), (), (4,))
    assert standard_filling((3, 0, 1)).text() == "[1,2,3],[],[4]"


def test_action_examples():
    t = standard_filling((2, 2, 2))
    w_right = Permutation.from_word((4, 3, 2), 6)
    assert act_right(t, w_right).columns == ((1, 3), (4, 5), (2, 6))
    w_left = Permutation.from_word((2, 3, 4), 6)
    assert act_left(w_left, t).columns == ((1, 5), (2, 3), (4, 6))
    e = Permutation.identity(6)
    assert act_left(e, t) == t
    assert act_right(t, e) == t


def test_actions_commute():
    t = standard_filling((2, 1, 1))
    for w in all_perms(4):
        for u in all_perms(4):
            assert act_left(w, act_right(t, u)) == act_right(act_left(w, t), u)


@pytest.mark.parametrize("mu", [(3,), (2, 1), (1, 1, 2), (2, 2, 1), (3, 0, 1)])
def test_left_and_right_actions_agree_on_the_standard_filling(mu):
    t = standard_filling(mu)
    for w in all_perms(sum(mu)):
        assert act_left(w, t) == act_right(t, w)


def test_actions_reject_repeated_content():
    f = filling((1, 2), (1,))
    with pytest.raises(ValueError):
        act_left(Permutation.identity(3), f)
    with pytest.raises(ValueError):
        act_right(f, Permutation.identity(3))


@pytest.mark.parametrize(
    "call, reason",
    [
        (
            lambda: act_left(Permutation.identity(3), filling((1,), (2,))),
            "permutation size does not match filling size",
        ),
        (
            lambda: act_right(filling((1,), (2,)), Permutation.identity(3)),
            "permutation size does not match filling size",
        ),
        (lambda: curlyvee(filling((1, 1)), 1, (1, 1)), "filling is not column-strict"),
        (lambda: curlywedge(filling((2, 2), (1,)), 1), "filling is not column-strict"),
    ],
    ids=["act-left-size", "act-right-size", "curlyvee-strict", "curlywedge-strict"],
)
def test_bijection_layer_errors(call, reason):
    with pytest.raises(ValueError, match=reason) as info:
        call()
    assert type(info.value) is ValueError


def test_the_empty_diagram_sum_prints_zero():
    assert str(WeightedDiagramSum()) == "0"


def test_filling_helpers():
    f = filling((1, 3), (2,))
    assert f.shape == (2, 1)
    assert f.flat() == (1, 3, 2)
    assert f.content() == (1, 1, 1)
    assert f.is_column_strict()
    assert not filling((2, 2), ()).is_column_strict()
    assert f.with_flat((1, 2, 1)).columns == ((1, 2), (1,))
    with pytest.raises(ValueError):
        filling((0, 1))


@pytest.mark.parametrize("values", [[], [1], [1, 2, 3]])
def test_with_flat_rejects_a_length_mismatch(values):
    with pytest.raises(ValueError, match="entries for a filling of size 2"):
        filling((1, 2)).with_flat(values)


def test_composition_checks_reject_negative_parts():
    with pytest.raises(ValueError, match=r"negative part in composition \(2, -1\)"):
        standard_filling((2, -1))
    with pytest.raises(ValueError, match=r"negative part in composition \(2, -1\)"):
        psi(Permutation.identity(1), (2, -1), (1,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: column_strict_fillings((1.5, 1.5), (1, 1)),
        lambda: O_set((2.9, 0), (2,)),
        lambda: psi_inverse(Filling(((1,), (2,))), (1.2, 1.7), (1, 1)),
        lambda: psi_inverse(Filling(((1,), (2,))), (1, 1), (True, True)),
        lambda: relabel_by_content(standard_filling((2,)), (3, -1)),
        lambda: relabel_by_content(standard_filling((2,)), (2.0,)),
    ],
)
def test_composition_parts_must_be_plain_ints(call):
    # parts were read with int(p), so 1.5 or True passed as 1
    with pytest.raises(ValueError, match="composition"):
        call()


# ----------------------------------------------------------------------
# column-strict enumeration


def test_unique_column_strict_filling_example():
    found = column_strict_fillings((3, 2, 1), (2, 3, 1))
    assert found == {filling((1, 2, 3), (1, 2), (2,))}


def test_three_column_strict_fillings_example():
    found = column_strict_fillings((2, 2, 2), (2, 3, 1))
    assert found == {
        filling((1, 2), (1, 2), (2, 3)),
        filling((1, 2), (2, 3), (1, 2)),
        filling((2, 3), (1, 2), (1, 2)),
    }


def test_dimension_nine_worked_case():
    total = sum(
        len(column_strict_fillings(mu, (2, 3, 1)))
        for mu in all_compositions(6, 3)
    )
    assert total == 9
    assert total == comb(3, 2) * comb(3, 3) * comb(3, 1)


def test_zero_columns_stay_empty_at_any_length():
    # one recursion level per nonzero column, so a long tail of zero
    # columns cannot exhaust the recursion limit
    assert column_strict_fillings((1,) + (0,) * 5000, (1,)) == {
        Filling(((1,),) + ((),) * 5000)
    }
    assert column_strict_fillings((0,) * 5000, (0,)) == {Filling(((),) * 5000)}


def test_column_strict_size_mismatch():
    with pytest.raises(ValueError):
        column_strict_fillings((2, 1), (2, 2))


def test_column_strict_fillings_rejects_negative_parts():
    with pytest.raises(ValueError, match="negative part in composition"):
        column_strict_fillings((2, -1), (1, 0))
    with pytest.raises(ValueError, match="negative part in composition"):
        column_strict_fillings((1, 0), (2, -1))


@pytest.mark.parametrize(
    "mu,nu", [((2, 1, 0), (1, 1, 1)), ((1, 0, 2), (2, 1)), ((3, 3), (2, 2, 2))]
)
def test_trusted_fillings_equal_validated_ones(mu, nu):
    fillings = column_strict_fillings(mu, nu)
    assert fillings
    for f in fillings:
        checked = Filling(list(map(list, f.columns)))
        assert f == checked and hash(f) == hash(checked)
        assert type(f.columns) is tuple
        assert all(type(col) is tuple for col in f.columns)
    trusted = Filling._trusted(((1, 2), ()))
    assert trusted == filling((1, 2), ())
    assert hash(trusted) == hash(filling((1, 2), ()))


def reference_column_strict_fillings(mu, nu):
    """Every column choice tried, nothing pruned: the enumerator as it
    was before it cut dead branches."""
    values = len(nu)
    out = set()

    def extend(col, remaining, acc):
        if col == len(mu):
            if all(r == 0 for r in remaining):
                out.add(Filling(tuple(acc)))
            return
        for chosen in combinations(range(1, values + 1), mu[col]):
            if all(remaining[v - 1] > 0 for v in chosen):
                for v in chosen:
                    remaining[v - 1] -= 1
                extend(col + 1, remaining, acc + [chosen])
                for v in chosen:
                    remaining[v - 1] += 1

    extend(0, list(nu), [])
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_column_strict_fillings_match_the_unpruned_reference(n):
    comps = set(positive_compositions(n)) | set(with_zero_parts(n)) | set(all_compositions(n, 3))
    for mu in comps:
        for nu in comps:
            assert column_strict_fillings(mu, nu) == reference_column_strict_fillings(mu, nu)


# ----------------------------------------------------------------------
# the tensor-basis bijection


def test_phi_examples():
    f = filling((1, 2, 3), (1, 2), (2,))
    assert phi(f, 3) == ((1, 2), (1, 2, 3), (1,))
    assert phi(filling((1, 2), (), ()), 3) == ((1,), (1,))
    with pytest.raises(ValueError):
        phi(filling((1,), (1,), (1,), (1,)), 3)
    with pytest.raises(ValueError):
        phi(filling((2, 1)), 2)


def test_phi_inverse_examples():
    assert phi_inverse(((1, 2), (1, 2, 3), (1,)), 3) == filling(
        (1, 2, 3), (1, 2), (2,)
    )
    with pytest.raises(ValueError):
        phi_inverse(((2, 1),), 2)
    with pytest.raises(ValueError):
        phi_inverse(((1, 4),), 3)
    with pytest.raises(ValueError):
        phi_inverse(((1,), (2, 2)), 3)


def test_phi_inverse_rejects_entries_that_are_not_ints():
    for key in (((True,), (1,)), ("1",), ((1.0,),), ((1, 2.0),)):
        with pytest.raises(ValueError, match="not a strictly increasing basis key"):
            phi_inverse(key, 2)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_is_a_bijection_onto_the_tensor_basis(n, k):
    for nu in positive_compositions(n):
        images = set()
        total = 0
        for mu in all_compositions(n, k):
            for f in column_strict_fillings(mu, nu):
                key = phi(f, k)
                assert key not in images
                images.add(key)
                assert phi_inverse(key, k) == f
                total += 1
        expected = 1
        for p in nu:
            expected *= comb(k, p)
        assert total == expected
        if expected:
            basis = TensorBasis(k, nu)
            assert images == set(basis.elements)


# ----------------------------------------------------------------------
# the coset bijection


def test_relabel_examples():
    t = standard_filling((2, 2, 2))
    assert relabel_by_content(t, (2, 2, 2)) == filling((1, 1), (2, 2), (3, 3))
    assert relabel_by_content(t, (6,)) == filling((1, 1), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        relabel_by_content(t, (2, 2))


def test_psi_examples():
    assert psi(Permutation.identity(2), (2,), (1, 1)) == filling((1, 2))
    e4 = Permutation.identity(4)
    assert psi(e4, (1, 1, 1, 1), (4,)) == filling((1,), (1,), (1,), (1,))
    assert psi(e4, (2, 2), (1, 1, 1, 1)) == filling((1, 2), (3, 4))
    # the raw relabel of the standard filling of (2,2,2) by its own
    # content is not column-strict, so the identity coset is rejected
    with pytest.raises(ValueError):
        psi(Permutation.identity(6), (2, 2, 2), (2, 2, 2))
    with pytest.raises(ValueError):
        psi(Permutation.s(1, 2), (2,), (1, 1))
    with pytest.raises(ValueError):
        psi(Permutation.identity(3), (2, 1), (2, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psi_is_a_bijection_from_qualifying_cosets(n):
    for mu in positive_compositions(n):
        for nu in positive_compositions(n):
            cosets = O_set(mu, nu)
            fillings = column_strict_fillings(mu, nu)
            assert len(cosets) == len(fillings)
            assert {psi(w, mu, nu) for w in cosets} == fillings


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psi_inverse_roundtrips_on_minimal_representatives(n):
    for mu in positive_compositions(n):
        for nu in positive_compositions(n):
            for z in O_set(mu, nu):
                assert psi_inverse(psi(z, mu, nu), mu, nu) == z
            for f in column_strict_fillings(mu, nu):
                assert psi(psi_inverse(f, mu, nu), mu, nu) == f


def test_psi_inverse_handles_zero_parts():
    f = Filling(((1,), (), (1, 2)))
    mu, nu = (1, 0, 2), (2, 1)
    z = psi_inverse(f, mu, nu)
    assert psi(z, mu, nu) == f


def test_psi_inverse_validates_its_input():
    f = Filling(((1,), (2,)))
    with pytest.raises(ValueError):
        psi_inverse(f, (2,), (1, 1))
    with pytest.raises(ValueError):
        psi_inverse(f, (1, 1), (2,))
    with pytest.raises(ValueError):
        psi_inverse(Filling(((2, 1),)), (2,), (1, 1))


def test_psi_constant_on_cosets():
    mu, nu = (2, 1), (2, 1)
    for z in O_set(mu, nu):
        base = psi(z, mu, nu)
        for y in all_perms(3):
            if all(
                y.images[i] in range(1, 3) for i in range(2)
            ):  # y in S_(2,1)
                assert psi(z * y, mu, nu) == base


# psi and psi_inverse against the chains they replaced: the box-action of
# w on the standard filling relabelled by content, and the inverse of the
# permutation of preimages


def reference_psi(w, mu, nu):
    relabeled = relabel_by_content(act_left(w, standard_filling(mu)), nu)
    if not relabeled.is_column_strict():
        raise ValueError("not a qualifying coset")
    return relabeled


def reference_psi_inverse(f, nu):
    next_value = []
    start = 1
    for p in nu:
        next_value.append(start)
        start += p
    preimages = []
    for v in f.flat():
        preimages.append(next_value[v - 1])
        next_value[v - 1] += 1
    return Permutation(tuple(preimages)).inverse()


def coset_minimum(w, nu):
    """The shortest element of w·S_nu: w's entries sorted on each block."""
    images, start = [], 0
    for p in nu:
        images.extend(sorted(w.images[start : start + p]))
        start += p
    return Permutation(tuple(images))


def with_zero_parts(n):
    """A zero part put at every place of each composition of n with at
    most two parts."""
    out = set()
    for c in positive_compositions(n):
        if len(c) <= 2:
            out.update(c[:i] + (0,) + c[i:] for i in range(len(c) + 1))
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_psi_and_psi_inverse_match_the_reference_chains(n):
    comps = positive_compositions(n) + with_zero_parts(n)
    group = all_perms(n)
    for mu in comps:
        for nu in comps:
            classes = O_set(mu, nu)
            for w in group:
                qualifies = coset_minimum(w, nu) in classes
                try:
                    expected = reference_psi(w, mu, nu)
                except ValueError:
                    assert not qualifies, (w, mu, nu)
                    with pytest.raises(ValueError):
                        psi(w, mu, nu)
                    continue
                assert qualifies, (w, mu, nu)
                f = psi(w, mu, nu)
                assert f == expected
                z = psi_inverse(f, mu, nu)
                assert z == reference_psi_inverse(f, nu)
                assert z == coset_minimum(w, nu)
                assert psi(z, mu, nu) == f


def test_psi_rejects_negative_parts():
    e3 = Permutation.identity(3)
    with pytest.raises(ValueError):
        psi(e3, (4, -1), (1, 1, 1))
    # the reference chain relabels this to content (3,), not (4, -1)
    with pytest.raises(ValueError):
        psi(e3, (1, 1, 1), (4, -1))


def test_filling_rejects_entries_that_are_not_ints():
    for columns in (((1.5,), (2,)), ((True,), (2,)), ((1, 2.0),), (("1",),)):
        with pytest.raises(ValueError):
            Filling(columns)


# ----------------------------------------------------------------------
# inversions and the refine/merge moves


def standardize(values):
    order = sorted(range(len(values)), key=lambda b: (values[b], b))
    word = [0] * len(values)
    for rank, b in enumerate(order, start=1):
        word[b] = rank
    return word


@pytest.mark.parametrize(
    "cols",
    [
        ((1, 2), (1, 2), (2, 3)),
        ((2, 3), (1, 2), (1, 2)),
        ((1, 3), (2,), (1, 2)),
        ((1,), (1,), (2,)),
    ],
)
def test_inversions_match_the_standardized_word(cols):
    f = filling(*cols)
    word = standardize(f.flat())
    brute = sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )
    assert inversions(f) == brute


def test_curlyvee_three_box_example():
    start = filling((1,), (1,), (1,))
    got = curlyvee(start, 1, (2, 1))
    assert got == WeightedDiagramSum(
        {
            filling((2,), (1,), (1,)): qp(0),
            filling((1,), (2,), (1,)): qp(1),
            filling((1,), (1,), (2,)): qp(2),
        }
    )


def test_curlywedge_three_box_example():
    got = curlywedge(filling((2,), (1,), (1,)), 1)
    assert got == WeightedDiagramSum({filling((1,), (1,), (1,)): qp(-2)})


def test_curlywedge_drops_column_collisions():
    assert curlywedge(filling((1, 2), (1,)), 1).is_zero()


def test_merge_after_refine_is_the_quantum_integer():
    for cols in [
        ((1,), (1,), (1,)),
        ((1, 2), (2,), (1,)),
        ((1, 2, 3), (1, 3)),
        ((1, 2), (1, 2)),
    ]:
        f = filling(*cols)
        nu = f.content()
        for pos in range(1, len(nu) + 1):
            part = nu[pos - 1]
            if part < 2:
                continue
            for sizes in ((1, part - 1), (part - 1, 1)):
                refined = curlyvee(f, pos, sizes)
                total = WeightedDiagramSum.zero()
                for g, c in refined.terms.items():
                    total = total + curlywedge(g, pos) * c
                assert total == WeightedDiagramSum.single(f, quantum_int(part))


def test_curlyvee_validates_the_split():
    f = filling((1,), (1,), (1,))
    with pytest.raises(ValueError):
        curlyvee(f, 1, (1, 1))
    with pytest.raises(ValueError):
        curlyvee(f, 2, (1, 1))
    with pytest.raises(ValueError):
        curlywedge(f, 1)


def sum_matches_matrix_column(weighted, matrix, source_key, k):
    """Compare a WeightedDiagramSum against one column of a QMatrix."""
    column = dict(matrix.column(source_key))
    keys = {phi(g, k): c for g, c in weighted.terms.items()}
    return keys == {key: c for key, c in column.items() if c}


@pytest.mark.parametrize(
    "nu,pos,sizes,k",
    [
        ((3,), 1, (2, 1), 3),
        ((3,), 1, (1, 2), 3),
        ((1, 2), 2, (1, 1), 2),
        ((2, 1), 1, (1, 1), 2),
        ((2, 2), 2, (1, 1), 3),
        ((1, 3), 2, (1, 2), 3),
    ],
)
def test_refine_commutes_with_the_split_intertwiner(nu, pos, sizes, k):
    n = sum(nu)
    for mu in all_compositions(n, k):
        for f in column_strict_fillings(mu, nu):
            matrix = split_matrix(k, nu, pos, *sizes)
            got = curlyvee(f, pos, sizes)
            assert sum_matches_matrix_column(got, matrix, phi(f, k), k)


# ----------------------------------------------------------------------
# the public wrappers against the Filling-level bodies that the box-word
# kernels replaced


def reference_content(f):
    values = f.flat()
    counts = [0] * max(values, default=0)
    for v in values:
        counts[v - 1] += 1
    return tuple(counts)


def reference_is_column_strict(f):
    return all(a < b for col in f.columns for a, b in zip(col, col[1:]))


def reference_phi(f, k):
    if len(f.columns) > k:
        raise ValueError("too many columns")
    if not reference_is_column_strict(f):
        raise ValueError("filling is not column-strict")
    nu = reference_content(f)
    key = []
    for value in range(1, len(nu) + 1):
        cols = tuple(j for j, col in enumerate(f.columns, start=1) if value in col)
        if len(cols) != nu[value - 1]:
            raise ValueError("value repeats within a column")
        key.append(cols)
    return tuple(key)


def reference_phi_inverse(key, k):
    if any(
        len(set(subset)) != len(subset)
        or list(subset) != sorted(subset)
        or any(not 1 <= j <= k for j in subset)
        for subset in key
    ):
        raise ValueError("not a strictly increasing basis key")
    return Filling(
        tuple(
            tuple(value for value, subset in enumerate(key, start=1) if j in subset)
            for j in range(1, k + 1)
        )
    )


def reference_psi_direct(w, mu, nu):
    """psi written straight into columns, each checked as it is cut."""
    if sum(mu) != sum(nu) or sum(mu) != w.n:
        raise ValueError("composition sizes do not match the permutation")
    if any(p < 0 for p in mu + nu):
        raise ValueError("negative part")
    block = [index for index, p in enumerate(nu, start=1) for _ in range(p)]
    entries = [0] * w.n
    for position, box in enumerate(w.images):
        entries[box - 1] = block[position]
    columns = []
    start = 0
    for p in mu:
        column = entries[start : start + p]
        start += p
        if any(upper >= lower for upper, lower in zip(column, column[1:])):
            raise ValueError("not a qualifying coset")
        columns.append(tuple(column))
    return Filling(tuple(columns))


def reference_psi_inverse_direct(f, mu, nu):
    if f.shape != mu or not reference_is_column_strict(f):
        raise ValueError("wrong shape or not column-strict")
    content = reference_content(f)
    if content + (0,) * (len(nu) - len(content)) != nu:
        raise ValueError("wrong content")
    next_value = []
    start = 0
    for p in nu:
        next_value.append(start)
        start += p
    images = [0] * start
    for box, v in enumerate(f.flat(), start=1):
        images[next_value[v - 1]] = box
        next_value[v - 1] += 1
    return Permutation(tuple(images))


def reference_curlyvee(f, pos, sizes):
    """Every relabelling choice weighted by the inversion count of the
    whole box word, before and after."""
    i, j = sizes
    flat = f.flat()
    band = [b for b, v in enumerate(flat) if v == pos]
    base = [v + 1 if v > pos else v for v in flat]
    out = WeightedDiagramSum()
    for chosen in combinations(band, j):
        values = list(base)
        for b in chosen:
            values[b] = pos + 1
        result = f.with_flat(values)
        out.add_term(result, qp(i * j - (inversions(result) - inversions(f))))
    return out


def reference_curlywedge(f, pos):
    result = f.with_flat([v - 1 if v > pos else v for v in f.flat()])
    if not reference_is_column_strict(result):
        return WeightedDiagramSum.zero()
    return WeightedDiagramSum.single(result, qp(inversions(result) - inversions(f)))


def outcome(call, *args):
    """The call's value, or the fact that it raised ValueError."""
    try:
        return call(*args)
    except ValueError:
        return ValueError


@st.composite
def fillings_with_content(draw):
    """A column-strict filling of at most 6 boxes over 1..4 columns, and
    a content for it: skipped values and empty columns give zero parts,
    and the content may end in a zero."""
    top = draw(st.integers(1, 6))
    columns = []
    size = 0
    for _ in range(draw(st.integers(1, 4))):
        col = draw(
            st.lists(st.integers(1, top), unique=True, max_size=min(top, 6 - size))
        )
        columns.append(tuple(sorted(col)))
        size += len(col)
    f = Filling(tuple(columns))
    return f, reference_content(f) + (0,) * draw(st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(case=fillings_with_content(), data=st.data())
def test_public_wrappers_match_the_filling_bodies(case, data):
    f, nu = case
    mu = f.shape
    n = f.size
    z = psi_inverse(f, mu, nu)
    assert z == reference_psi_inverse_direct(f, mu, nu)
    g = psi(z, mu, nu)
    assert g == reference_psi_direct(z, mu, nu) == f and hash(g) == hash(f)
    w = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    assert outcome(psi, w, mu, nu) == outcome(reference_psi_direct, w, mu, nu)
    for k in (len(mu) - 1, len(mu), len(mu) + 1):
        key = outcome(phi, f, k)
        assert key == outcome(reference_phi, f, k)
        if key is not ValueError:
            back = phi_inverse(key, k)
            assert back == reference_phi_inverse(key, k)
            assert back.columns[: len(mu)] == f.columns
    content = reference_content(f)
    for pos in range(1, len(content) + 1):
        part = content[pos - 1]
        for i in range(part + 1):
            got = curlyvee(f, pos, (i, part - i))
            assert got == reference_curlyvee(f, pos, (i, part - i))
            assert all(type(h.columns) is tuple for h in got)
    for pos in range(1, len(content)):
        assert curlywedge(f, pos) == reference_curlywedge(f, pos)
