"""Intertwiner matrices: formula oracles, digon values, Hecke/crossing laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from moycalc.qlaurent import LaurentPoly, ONE, Q, ZERO, quantum_int
from moycalc.weblin import (
    QMatrix,
    TensorBasis,
    cap_matrix,
    cross_matrix_at,
    crossing_matrix,
    crossing_search,
    cup_matrix,
    hecke_E,
    intertwiner_matrix,
    merge_matrix,
    reversal_matrix,
    split_matrix,
)


def qp(m: int) -> LaurentPoly:
    return LaurentPoly.q_power(m)


# ----------------------------------------------------------------------
# bases


def test_basis_enumeration_is_lexicographic():
    basis = TensorBasis(2, (1, 1))
    assert basis.elements == (
        ((1,), (1,)),
        ((1,), (2,)),
        ((2,), (1,)),
        ((2,), (2,)),
    )


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), max_size=4),
)
def test_basis_cardinality(k, labels):
    basis = TensorBasis(k, tuple(labels))
    assert len(basis) == basis.expected_dimension()
    assert len(set(basis.elements)) == len(basis)


def test_specific_dimension():
    assert len(TensorBasis(3, (2, 3, 1))) == 9


# ----------------------------------------------------------------------
# the six displayed formulas as oracles


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_full_wedge_right(k):
    # ⋀^k V -> ⋀^{k-1}V ⊗ V: w ↦ Σ_j q^{j-1} w(j) ⊗ v_j
    m = intertwiner_matrix("split(k-1,1)", k, (k,), 1)
    full = tuple(range(1, k + 1))
    col = dict(m.column((full,)))
    assert len(col) == k
    for j in range(1, k + 1):
        w_j = tuple(x for x in full if x != j)
        assert col[(w_j, (j,))] == qp(j - 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_full_wedge_left(k):
    # ⋀^k V -> V ⊗ ⋀^{k-1}V: w ↦ Σ_j q^{k-j} v_j ⊗ w(j)
    m = intertwiner_matrix("split(1,k-1)", k, (k,), 1)
    full = tuple(range(1, k + 1))
    col = dict(m.column((full,)))
    for j in range(1, k + 1):
        w_j = tuple(x for x in full if x != j)
        assert col[((j,), w_j)] == qp(k - j)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_merge_into_full_wedge_right(k):
    # ⋀^{k-1}V ⊗ V -> ⋀^k V: w(j) ⊗ v_s ↦ δ_{js} q^{j-k} w
    m = intertwiner_matrix("merge(k-1,1)", k, (k - 1, 1), 1)
    full = tuple(range(1, k + 1))
    for j in range(1, k + 1):
        w_j = tuple(x for x in full if x != j)
        for s in range(1, k + 1):
            expected = qp(j - k) if s == j else ZERO
            assert m.entry((full,), (w_j, (s,))) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_merge_into_full_wedge_left(k):
    # V ⊗ ⋀^{k-1}V -> ⋀^k V: v_s ⊗ w(j) ↦ δ_{js} q^{1-j} w
    m = intertwiner_matrix("merge(1,k-1)", k, (1, k - 1), 1)
    full = tuple(range(1, k + 1))
    for j in range(1, k + 1):
        w_j = tuple(x for x in full if x != j)
        for s in range(1, k + 1):
            expected = qp(1 - j) if s == j else ZERO
            assert m.entry((full,), ((s,), w_j)) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_merge_two_vectors(k):
    # V ⊗ V -> ⋀²V: v_i⊗v_j ↦ v_{ij} (i<j), q^{-1} v_{ji} (i>j), 0 (i=j)
    m = intertwiner_matrix("merge(1,1)", k, (1, 1), 1)
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            col = dict(m.column(((i,), (j,))))
            if i == j:
                assert col == {}
            elif i < j:
                assert col == {((i, j),): ONE}
            else:
                assert col == {((j, i),): qp(-1)}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_two_wedge(k):
    # ⋀²V -> V ⊗ V: v_i∧v_j ↦ v_j⊗v_i + q v_i⊗v_j (i<j)
    m = intertwiner_matrix("split(1,1)", k, (2,), 1)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            col = dict(m.column(((i, j),)))
            assert col == {((j,), (i,)): ONE, ((i,), (j,)): Q}


def test_intertwiner_acts_as_identity_elsewhere():
    k = 3
    m = intertwiner_matrix("merge(1,1)", k, (2, 1, 1), 2)
    col = dict(m.column(((1, 3), (2,), (1,))))
    assert col == {((1, 3), (1, 2)): qp(-1)}


def test_intertwiner_label_mismatch_errors():
    with pytest.raises(ValueError):
        intertwiner_matrix("merge(1,2)", 4, (1, 2), 1)  # pair not special
    with pytest.raises(ValueError):
        intertwiner_matrix("merge(1,1)", 3, (1, 2), 1)  # boundary mismatch
    with pytest.raises(ValueError):
        intertwiner_matrix("split(1,1)", 3, (3,), 1)  # wrong source label
    with pytest.raises(ValueError):
        intertwiner_matrix("frob(1,1)", 3, (2,), 1)  # unknown generator
    with pytest.raises(ValueError):
        merge_matrix(3, (1, 1), 5)  # position out of range


# ----------------------------------------------------------------------
# digons (split then merge) are quantum-integer multiples of the identity


@pytest.mark.parametrize("k", [2, 3, 4])
def test_digon_values(k):
    # through (1, k-1) and (k-1, 1): [k]·id on ⋀^k V
    for a, b in [(1, k - 1), (k - 1, 1)]:
        down = split_matrix(k, (k,), 1, a, b)
        up = merge_matrix(k, (a, b), 1)
        ident = QMatrix.identity(TensorBasis(k, (k,)))
        assert up @ down == ident * quantum_int(k)
    # through (1, 1): [2]·id on ⋀²V
    down = split_matrix(k, (2,), 1, 1, 1)
    up = merge_matrix(k, (1, 1), 1)
    ident = QMatrix.identity(TensorBasis(k, (2,)))
    assert up @ down == ident * quantum_int(2)


# ----------------------------------------------------------------------
# the E operator


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_E_quadratic(n, k):
    for s in range(1, n):
        E = hecke_E(s, n, k)
        assert E @ E == E * quantum_int(2)


def test_E_kills_equal_indices():
    E = hecke_E(1, 2, 3)
    assert E.column(((1,), (1,))) == []
    E = hecke_E(2, 3, 2)
    assert E.column(((2,), (1,), (1,))) == []


@pytest.mark.parametrize("k", [2, 3])
def test_E_braid_identity(k):
    E1 = hecke_E(1, 3, k)
    E2 = hecke_E(2, 3, k)
    assert E1 @ E2 @ E1 - E1 == E2 @ E1 @ E2 - E2


@pytest.mark.parametrize("k", [2, 3])
def test_E_distant_commute(k):
    E1 = hecke_E(1, 4, k)
    E3 = hecke_E(3, 4, k)
    assert E1 @ E3 == E3 @ E1


def test_E_explicit_k2():
    E = hecke_E(1, 2, 2)
    assert dict(E.column(((1,), (2,)))) == {
        ((2,), (1,)): ONE,
        ((1,), (2,)): Q,
    }
    assert dict(E.column(((2,), (1,)))) == {
        ((2,), (1,)): qp(-1),
        ((1,), (2,)): ONE,
    }


# ----------------------------------------------------------------------
# cups, caps, closed scalars


@pytest.mark.parametrize("k", [2, 3, 4])
def test_circle_scalar(k):
    for a, b in [(1, k - 1), (k - 1, 1)]:
        birth = cup_matrix(k, (), 1, a, b)
        death = cap_matrix(k, (a, b), 1)
        assert (death @ birth).scalar() == quantum_int(k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_theta_scalar(k):
    birth = cup_matrix(k, (), 1, 1, k - 1)
    up = merge_matrix(k, (1, k - 1), 1)
    down = split_matrix(k, (k,), 1, 1, k - 1)
    death = cap_matrix(k, (1, k - 1), 1)
    theta = death @ down @ up @ birth
    assert theta.scalar() == quantum_int(k) ** 2


def test_cup_label_validation():
    with pytest.raises(ValueError):
        cup_matrix(4, (), 1, 2, 2)
    with pytest.raises(ValueError):
        cup_matrix(3, (), 1, 1, 1)
    with pytest.raises(ValueError):
        cap_matrix(3, (1, 1), 1)


def test_snake_identities():
    # bend a strand twice and get the identity back, both on V and ⋀^{k-1}V
    for k in (2, 3):
        for lab, pair in [
            ((1,), (k - 1, 1)),
            ((k - 1,), (1, k - 1)),
        ]:
            a, b = pair
            zig = cup_matrix(k, lab, 2, a, b)
            grown = lab + (a, b)
            zag = cap_matrix(k, grown, 1)
            assert zag @ zig == QMatrix.identity(TensorBasis(k, lab))


# ----------------------------------------------------------------------
# crossings


@pytest.mark.parametrize("k", [2, 3, 4])
def test_crossing_inverse_pair(k):
    plus = crossing_matrix("+", k)
    minus = crossing_matrix("-", k)
    ident = QMatrix.identity(plus.rows)
    assert plus @ minus == ident
    assert minus @ plus == ident


@pytest.mark.parametrize("k", [2, 3, 4])
def test_crossing_skein_identity(k):
    plus = crossing_matrix("+", k)
    minus = crossing_matrix("-", k)
    ident = QMatrix.identity(plus.rows)
    lhs = plus * qp(k) - minus * qp(-k)
    assert lhs == ident * (Q - qp(-1))


@pytest.mark.parametrize("k", [2, 3])
def test_crossing_braid(k):
    x1p = cross_matrix_at("+", k, (1, 1, 1), 1)
    x2p = cross_matrix_at("+", k, (1, 1, 1), 2)
    assert x1p @ x2p @ x1p == x2p @ x1p @ x2p


@pytest.mark.parametrize("k", [2, 3])
def test_crossing_search_regression(k):
    # the frozen normalization is the unique survivor of the protocol
    assert crossing_search(k) == [(-1, -k, 1)]


def test_crossing_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_matrix_at("+", 3, (1, 2), 1)
    with pytest.raises(ValueError):
        crossing_matrix("x", 3)


# ----------------------------------------------------------------------
# matrix algebra sanity


def test_reversal_is_involutive():
    for k, labels in [(2, (1, 1)), (3, (1, 2, 3)), (3, (2, 1))]:
        r = reversal_matrix(k, labels)
        r_back = reversal_matrix(k, tuple(reversed(labels)))
        assert r_back @ r == QMatrix.identity(TensorBasis(k, labels))


small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-5, max_value=5),
        max_size=3,
    ),
)


def _qmatrix(rows, cols):
    """Matrices from sparse {row: poly} columns, zero entries included."""
    column = st.dictionaries(
        st.integers(min_value=0, max_value=rows - 1), small_polys, max_size=rows
    )
    return st.lists(column, min_size=cols, max_size=cols).map(
        lambda columns: QMatrix(tuple(range(rows)), tuple(range(cols)), columns)
    )


@settings(max_examples=25)
@given(_qmatrix(2, 3), _qmatrix(3, 2), _qmatrix(2, 2))
def test_matmul_associative_and_distributive(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    d = a @ b
    assert (d + c) @ d == d @ d + c @ d


def test_tensor_of_identities():
    i1 = QMatrix.identity(TensorBasis(2, (1,)))
    i2 = QMatrix.identity(TensorBasis(2, (1,)))
    t = i1.tensor(i2)
    assert t == QMatrix.identity(TensorBasis(2, (1, 1)))


def test_matrix_bar_is_multiplicative():
    E = hecke_E(1, 2, 3)
    X = crossing_matrix("+", 3)
    assert (E @ X).bar() == E.bar() @ X.bar()
