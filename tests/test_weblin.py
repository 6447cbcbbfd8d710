"""Intertwiner matrices: formula oracles, digon values, Hecke/crossing laws."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from moycalc.qlaurent import LaurentPoly, LinComb, ONE, Q, ZERO, quantum_int
from moycalc.weblin import (
    INPUT_SPANS,
    QMatrix,
    TensorBasis,
    apply_window,
    cap_matrix,
    cross_matrix_at,
    crossing_matrix,
    cup_matrix,
    generator_step,
    hecke_E,
    intertwiner_matrix,
    local_map,
    merge_matrix,
    reversal_matrix,
    special_pairs,
    split_matrix,
)
from moycalc.weblin import _block_local, _lift, _lift_columns
from moycalc.webgraph import Layer, Web, evaluate, layer_matrix


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


def test_intertwiner_labels_follow_the_web_grammar():
    merge = intertwiner_matrix("merge(1,2)", 3, (1, 2), 1)
    assert intertwiner_matrix("merge( 01 , k-1 )", 3, (1, 2), 1) == merge
    with pytest.raises(ValueError, match="label must be at least 1, got 0"):
        intertwiner_matrix("merge(0,1)", 3, (0, 1), 1)
    with pytest.raises(ValueError, match="unrecognized label '-1'"):
        intertwiner_matrix("split(-1,2)", 3, (1,), 1)
    with pytest.raises(ValueError, match=r"unrecognized label 'j' \(use integers"):
        intertwiner_matrix("merge(j,1)", 3, (1, 1), 1)


@pytest.mark.parametrize("kind, labels", [("split", (2,)), ("cup", ())])
def test_split_and_cup_need_their_label_pair(kind, labels):
    # a missing label used to end in a TypeError from `None + int`
    for pair in ((None, None), (1, None), (None, 1)):
        with pytest.raises(ValueError, match=f"{kind} needs its label pair"):
            generator_step(kind, 3, labels, 1, *pair)
    with pytest.raises(ValueError, match="split needs its label pair"):
        split_matrix(3, (2,), 1, 1, None)
    with pytest.raises(ValueError, match="cup needs its label pair"):
        cup_matrix(3, (), 1, None, 2)


_ONE_STRAND = TensorBasis(2, (1,))


@pytest.mark.parametrize(
    "call, reason",
    [
        (lambda: TensorBasis(0, ()), "rank k must be >= 1, got 0"),
        (lambda: TensorBasis(2.5, (1,)), "rank k must be an int, got 2.5"),
        (lambda: TensorBasis(True, (1,)), "rank k must be an int, got True"),
        (lambda: TensorBasis(3, (-1,)), r"negative label in \(-1,\)"),
        (lambda: QMatrix(_ONE_STRAND, _ONE_STRAND, [{}]), "need one column per column key"),
        (
            lambda: QMatrix.identity(_ONE_STRAND).scalar(),
            r"matrix of shape \(2, 2\) is not a scalar",
        ),
        (
            lambda: QMatrix.identity(_ONE_STRAND) @ QMatrix.identity(TensorBasis(2, (1, 1))),
            "composition index mismatch",
        ),
        (lambda: generator_step("frob", 3, (1, 1), 1), "unknown generator kind 'frob'"),
        (lambda: local_map("frob", 3, 1, 1), "unknown generator kind 'frob'"),
        (lambda: intertwiner_matrix("merge1,1", 3, (1, 1), 1), "malformed generator 'merge1,1'"),
        (lambda: hecke_E(0, 3, 2), "position s=0 out of range for n=3"),
    ],
    ids=[
        "rank-0", "rank-float", "rank-bool", "negative-label", "short-columns",
        "scalar", "matmul", "step-kind", "local-kind", "malformed", "hecke-position",
    ],
)
def test_wedge_layer_errors(call, reason):
    with pytest.raises(ValueError, match=reason) as info:
        call()
    assert type(info.value) is ValueError


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


def _kink_closures(cand_plus: QMatrix, cand_minus: QMatrix, k: int) -> list[QMatrix]:
    """Close each candidate crossing off with a cup/cap on either side."""
    closures = []
    for block in (cand_plus, cand_minus):
        local = _block_local(block)
        # right kink: bend in a (1, k-1) pair above-right, cross, close
        m1 = cup_matrix(k, (1,), 2, 1, k - 1)
        m2 = _lift(k, (1, 1, k - 1), (1, 1, k - 1), 1, 2, local)
        m3 = cap_matrix(k, (1, 1, k - 1), 2)
        closures.append(m3 @ m2 @ m1)
        # left kink: bend in a (k-1, 1) pair below-left, cross, close
        m1 = cup_matrix(k, (1,), 1, k - 1, 1)
        m2 = _lift(k, (k - 1, 1, 1), (k - 1, 1, 1), 2, 2, local)
        m3 = cap_matrix(k, (k - 1, 1, 1), 1)
        closures.append(m3 @ m2 @ m1)
    return closures


def crossing_search(k: int) -> list[tuple[int, int, int]]:
    """Exhaustively determine the crossing normalization for rank k.

    Searches sign ε ∈ {+1, -1} and exponents a, b ∈ [-2k, 2k] for the
    tuples (ε, a, b) such that X⁺ = ε q^a (E - q^b id) and its partner
    X⁻ = ε q^{-a} (E - q^{-b} id) jointly satisfy: the two-sided inverse
    law (Reidemeister 2), the braid relation (Reidemeister 3), all four
    kink closures equal to the identity (Reidemeister 1), and the skein
    identity q^k X⁺ - q^{-k} X⁻ = ±(q - q^{-1})·id.  Returns the list of
    surviving tuples (expected: exactly one).
    """
    E = hecke_E(1, 2, k)
    ident = QMatrix.identity(E.rows)
    skein_target = QMatrix.identity(E.rows) * (
        LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    )
    found: list[tuple[int, int, int]] = []
    for eps in (1, -1):
        for a in range(-2 * k, 2 * k + 1):
            for b in range(-2 * k, 2 * k + 1):
                plus = (E - LaurentPoly.q_power(b) * ident) * (
                    LaurentPoly.q_power(a) * eps
                )
                minus = (E - LaurentPoly.q_power(-b) * ident) * (
                    LaurentPoly.q_power(-a) * eps
                )
                skein = (
                    plus * LaurentPoly.q_power(k)
                    - minus * LaurentPoly.q_power(-k)
                )
                if skein != skein_target and skein != -skein_target:
                    continue
                if plus @ minus != ident or minus @ plus != ident:
                    continue
                if any(
                    closure != QMatrix.identity(closure.rows)
                    for closure in _kink_closures(plus, minus, k)
                ):
                    continue
                if not _braid_holds(plus, k) or not _braid_holds(minus, k):
                    continue
                found.append((eps, a, b))
    return found


def _braid_holds(block: QMatrix, k: int) -> bool:
    local = _block_local(block)
    labels = (1, 1, 1)
    x1 = _lift(k, labels, labels, 1, 2, local)
    x2 = _lift(k, labels, labels, 2, 2, local)
    return x1 @ x2 @ x1 == x2 @ x1 @ x2


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


def test_sum_pairs_columns_by_key_not_by_position():
    # the same map, its columns listed in two orders
    a = QMatrix((1, 2), ("a", "b"), [{1: ONE}, {2: Q}])
    b = QMatrix((1, 2), ("b", "a"), [{2: Q}, {1: ONE}])
    assert (a + a).entry(1, "a") == 2 * ONE
    for other in (b, QMatrix((2, 1), ("a", "b"), [{1: ONE}, {2: Q}])):
        with pytest.raises(ValueError, match="sum index mismatch"):
            a + other
        with pytest.raises(ValueError, match="sum index mismatch"):
            a - other


@pytest.mark.parametrize("column", [LinComb, dict])
@pytest.mark.parametrize("rows", [("a", "b"), TensorBasis(2, (1,))])
def test_a_stray_row_key_is_named_first_in_column_order(column, rows):
    # the first column is clean; the second holds a row key and then three
    # stray ones, not in sorted order, so more keys than there are rows
    fine = rows[0]
    strays = {("y",): Q, ("x",): ONE, ("z",): Q}
    columns = [column({fine: ONE}), column({fine: ONE, **strays})]
    with pytest.raises(ValueError, match=r"row key \('y',\) is not in the row index"):
        QMatrix(rows, ("c", "d"), columns)
    assert QMatrix(rows, ("c", "d"), [columns[0], column({rows[1]: Q})]).entry(rows[1], "d") == Q


def _dense_product(a: QMatrix, b: QMatrix) -> list[list[LaurentPoly]]:
    inner = range(len(a.cols))
    return [
        [sum((row[j] * b.entries[j][col] for j in inner), ZERO) for col in range(len(b.cols))]
        for row in a.entries
    ]


def _tuple_keyed(m: QMatrix) -> QMatrix:
    """The same matrix with each key k written (k,), so that keys concatenate."""
    return QMatrix(
        tuple((r,) for r in m.rows),
        tuple((c,) for c in m.cols),
        [{(r,): p for r, p in column.items()} for column in m.columns],
    )


@settings(max_examples=40)
@given(_qmatrix(2, 3), _qmatrix(3, 2), _qmatrix(2, 2))
def test_matmul_and_tensor_match_dense_products(a, b, c):
    assert [list(row) for row in (a @ b).entries] == _dense_product(a, b)
    left, right = _tuple_keyed(a), _tuple_keyed(c)
    t = left.tensor(right)
    assert t.shape == (4, 6)
    for (i1, row1), (i2, row2) in product(enumerate(a.entries), enumerate(c.entries)):
        for (j1, x), (j2, y) in product(enumerate(row1), enumerate(row2)):
            assert t.entry((i1, i2), (j1, j2)) == x * y
    assert all(all(column.values()) for column in (a @ b).columns + t.columns)


@st.composite
def layer_products(draw):
    """(k, a, b, scalar): two random products of layer matrices on one
    boundary of k-strands, each factor E_i - q^e·id, and a scalar."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 3 if k < 4 else 2))
    identity = QMatrix.identity(TensorBasis(k, (1,) * n))

    def word():
        factors = st.tuples(st.integers(1, n - 1), st.integers(-2, 2))
        out = identity
        for i, e in draw(st.lists(factors, min_size=1, max_size=3)):
            out = out @ (hecke_E(i, n, k) - qp(e) * identity)
        return out

    scalar = draw(st.one_of(st.integers(-3, 3), small_polys))
    return k, word(), word(), scalar


def _entrywise(op, *matrices: QMatrix) -> tuple:
    return tuple(
        tuple(op(*cells) for cells in zip(*rows))
        for rows in zip(*(m.entries for m in matrices))
    )


@settings(max_examples=40, deadline=None)
@given(layer_products())
def test_matrix_algebra_results_pass_the_row_check(case):
    """Each result is adopted unchecked; rebuilt through the checked
    constructor, which raises on a stray row key, it is the same matrix,
    with no zero entry stored, and it has the entrywise values."""
    k, a, b, scalar = case
    down = merge_matrix(k, a.rows.labels, 1)
    results = {
        "+": (a + b, _entrywise(lambda x, y: x + y, a, b)),
        "-": (a - b, _entrywise(lambda x, y: x - y, a, b)),
        "neg": (-a, _entrywise(lambda x: -x, a)),
        "*": (a * scalar, _entrywise(lambda x: x * scalar, a)),
        "rmul": (scalar * a, _entrywise(lambda x: scalar * x, a)),
        "bar": (a.bar(), _entrywise(LaurentPoly.bar, a)),
        "@": (down @ a, tuple(map(tuple, _dense_product(down, a)))),
        "tensor": (a.tensor(down), None),
    }
    for name, (result, want) in results.items():
        rebuilt = QMatrix(result.rows, result.cols, result.columns)
        assert result == rebuilt, name
        assert all(type(c) is LinComb and all(c.values()) for c in result.columns), name
        if want is not None:
            assert result.entries == want, name
    # Z[q, q^-1] has no zero divisors: each pair of nonzero entries is one
    t = results["tensor"][0]
    assert t.shape == (a.shape[0] * down.shape[0], a.shape[1] * down.shape[1])
    assert sum(map(len, t.columns)) == sum(map(len, a.columns)) * sum(map(len, down.columns))
    for c1, left in zip(a.cols, a.columns):
        for c2, right in zip(down.cols, down.columns):
            for (r1, x), (r2, y) in product(left.items(), right.items()):
                assert t.entry(r1 + r2, c1 + c2) == x * y
    with pytest.raises(ValueError, match="sum index mismatch"):
        a + down
    with pytest.raises(ValueError, match="sum index mismatch"):
        a - down
    with pytest.raises(ValueError, match="composition index mismatch"):
        a @ down


# ----------------------------------------------------------------------
# apply_window against the nested accumulation loop it replaced


def _reference_apply_window(local, pos, span, state):
    """The nested loop ``apply_window`` ran before ``LinComb.of_products``:
    per column, raw exponent sums per output key, made polynomials at
    the end in first-seen key order."""
    lo, hi = pos - 1, pos - 1 + span
    out = []
    for column in state:
        acc = {}
        for key, poly in column.items():
            head, tail = key[:lo], key[hi:]
            for out_win, coeff in local.get(key[lo:hi], ()):
                terms = acc.setdefault(head + out_win + tail, {})
                for e1, c1 in poly.terms:
                    for e2, c2 in coeff.terms:
                        terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        out.append(LinComb((key, LaurentPoly(terms)) for key, terms in acc.items()))
    return out


def _windows(kind: str, k: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(boundary window, a, b) for every placement of a generator kind."""
    if kind == "merge":
        return [((a, b), a, b) for a, b in sorted(special_pairs(k))]
    if kind == "split":
        return [((a + b,), a, b) for a, b in sorted(special_pairs(k))]
    ends = [(1, k - 1), (k - 1, 1)]
    if kind == "cup":
        return [((), a, b) for a, b in ends]
    if kind == "cap":
        return [((a, b), a, b) for a, b in ends]
    return [((1, 1), 1, 1)]


@st.composite
def boundary_cases(draw):
    """A generator kind placed on a random boundary, k = 2..4."""
    k = draw(st.integers(min_value=2, max_value=4))
    kind = draw(st.sampled_from(sorted(INPUT_SPANS)))
    window, a, b = draw(st.sampled_from(_windows(kind, k)))
    side = st.lists(st.integers(min_value=1, max_value=k), max_size=2)
    left, right = draw(side), draw(side)
    labels = tuple(left) + window + tuple(right)
    pos = len(left) + 1
    generator_step(kind, k, labels, pos, a, b)
    return k, kind, labels, pos, a, b


@st.composite
def window_cases(draw):
    k, kind, labels, pos, a, b = draw(boundary_cases())
    basis = TensorBasis(k, labels).elements
    column = st.dictionaries(st.sampled_from(basis), small_polys, max_size=6)
    state = draw(st.lists(column, min_size=1, max_size=3))
    return local_map(kind, k, a, b), pos, INPUT_SPANS[kind], state


@settings(max_examples=60, deadline=None)
@given(window_cases())
def test_apply_window_matches_the_reference_loop(case):
    local, pos, span, state = case
    got = apply_window(local, pos, span, state)
    want = _reference_apply_window(local, pos, span, state)
    assert got == want
    # same keys in the same order: printed outputs read dict order
    assert [list(column) for column in got] == [list(column) for column in want]
    assert all(type(column) is LinComb and all(column.values()) for column in got)


@settings(max_examples=60, deadline=None)
@given(boundary_cases())
def test_first_layer_read_matches_the_window_sums(case):
    k, kind, labels, pos, a, b = case
    local, span = local_map(kind, k, a, b), INPUT_SPANS[kind]
    keys = TensorBasis(k, labels).elements
    got = _lift_columns(local, pos, span, keys)
    identity = [{key: ONE} for key in keys]
    for want in (
        apply_window(local, pos, span, identity),
        _reference_apply_window(local, pos, span, identity),
    ):
        assert got == want
        # same keys in the same order: printed outputs read dict order
        assert [list(column) for column in got] == [list(column) for column in want]
    assert all(type(column) is LinComb and all(column.values()) for column in got)
    # a one-layer web's evaluation is the layer's matrix
    layer = Layer(kind, pos, a, b) if kind in ("merge", "split", "cup") else Layer(kind, pos)
    one_layer = evaluate(Web(k, labels, (layer,)))
    assert one_layer == layer_matrix(layer, k, labels)
    summed = QMatrix(one_layer.rows, keys, apply_window(local, pos, span, identity))
    assert one_layer == summed


def test_apply_window_drops_cancelled_entries():
    # at k=2 both orders of {1, 2} merge to v_{12}, with q^0 and q^-1
    local = local_map("merge", 2, 1, 1)
    state = [{((1,), (2,)): Q, ((2,), (1,)): -Q * Q, ((1,), (1,)): ONE}]
    assert apply_window(local, 1, 2, state) == [LinComb()]
