"""Acceptance gate: thirteen exact end-to-end checks with pinned budgets.

Each test prints one summary line on success, re-derives its claim from
the public API (no reliance on the modules' own verify helpers except
where the suite itself is the object under test), and enforces the
runtime budget where one is pinned.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import comb
from time import perf_counter

from moycalc.boxcomb import (
    all_compositions,
    column_strict_fillings,
    phi,
    positive_compositions,
    psi,
)
from moycalc.foamalg import (
    BASIC_FOAM_NAMES,
    FrobElement,
    basic_map,
    foam_degree,
    frob_comul,
    frob_trace,
    surgery_check,
    surgery_search,
    theta_eval,
    verify_foam,
)
from moycalc.qlaurent import ZERO, quantum_int
from moycalc.reporting import all_passed
from moycalc.symhecke import (
    FlagList,
    O_set,
    Permutation,
    annihilates,
    kl_element,
    list_A,
    list_B,
    sign_action,
    translation_flag,
)
from moycalc.tangleinv import (
    CORPUS,
    compare_theorem13,
    corpus_word,
    crossing_sites,
    link_poly,
    reidemeister_suite,
    skein_check,
    skein_oracle,
    skein_triple,
    special_generator_webs,
)
from moycalc.webgraph import (
    digon_web,
    double_wall_web,
    evaluate,
    relation_iii_web,
    relation_iv_web,
    square_web_matrix,
)
from moycalc.weblin import QMatrix, TensorBasis, hecke_E


def identity_on(k: int, labels: tuple[int, ...]) -> QMatrix:
    return QMatrix.identity(TensorBasis(k, labels))


def stamp(number: int, message: str, elapsed: float, bound: float | None) -> None:
    timing = f" ({elapsed:.2f}s < {bound:g}s)" if bound is not None else ""
    print(f"PASS criterion {number:02d}: {message}{timing}")


def test_criterion_01_digon_relations() -> None:
    start = perf_counter()
    for k in (2, 3, 4):
        wide = quantum_int(k) * identity_on(k, (k,))
        for a, b in {(1, k - 1), (k - 1, 1)}:
            assert evaluate(digon_web(k, a, b)) == wide
        assert evaluate(digon_web(k, 1, 1)) == quantum_int(2) * identity_on(
            k, (2,)
        )
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    stamp(
        1,
        "digon webs collapse to [l]*id on the wide strand for k=2,3,4",
        elapsed,
        1.0,
    )


def test_criterion_02_square_relation() -> None:
    start = perf_counter()
    for k in (2, 3):
        lhs = evaluate(relation_iii_web(k))
        rhs = square_web_matrix(k) + quantum_int(k - 1) * identity_on(
            k, (1, k)
        )
        assert lhs == rhs
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    stamp(
        2,
        "the four-layer web equals the square web plus [k-1]*id for k=2,3",
        elapsed,
        1.0,
    )


def test_criterion_03_wide_square_relation() -> None:
    start = perf_counter()
    k = 3
    lhs = evaluate(relation_iv_web(k))
    rhs = identity_on(k, (k, 1, k - 1)) + quantum_int(k - 2) * evaluate(
        double_wall_web(k)
    )
    assert lhs == rhs
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    stamp(
        3,
        "the eight-layer web equals id plus [k-2]*(double wall) at k=3",
        elapsed,
        1.0,
    )


def test_criterion_04_braid_identity() -> None:
    start = perf_counter()
    for k in (2, 3, 4):
        e1 = hecke_E(1, 3, k)
        e2 = hecke_E(2, 3, k)
        assert e1 @ e2 @ e1 - e1 == e2 @ e1 @ e2 - e2
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    stamp(
        4,
        "E1 E2 E1 - E1 = E2 E1 E2 - E2 on three strands for k=2,3,4",
        elapsed,
        1.0,
    )


def test_criterion_05_unknot_value() -> None:
    for k in (2, 3, 4):
        assert link_poly(corpus_word("unknot"), k) == quantum_int(k)
    stamp(5, "the unknot evaluates to the quantum number [k] for k=2,3,4", 0, None)


def test_criterion_06_reidemeister_suite() -> None:
    start = perf_counter()
    for k in (2, 3, 4):
        reports = reidemeister_suite(k)
        assert [r.check for r in reports] == [
            f"reidemeister-1-k{k}",
            f"reidemeister-2-k{k}",
            f"reidemeister-3-k{k}",
            f"zigzag-k{k}",
        ]
        assert all_passed(reports)
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    stamp(
        6,
        "kinks, crossing pairs, braid slides and zig-zags are exact "
        "local identities for k=2,3,4",
        elapsed,
        10.0,
    )


def test_criterion_07_skein_relation() -> None:
    start = perf_counter()
    # the classical triple: resolving one trefoil crossing gives the
    # unknot and the positive Hopf link
    plus, minus, zero = skein_triple(corpus_word("trefoil-plus"), 2)
    assert zero == corpus_word("hopf-plus")
    for k in (2, 3):
        assert skein_check(plus, minus, zero, k)
        assert link_poly(minus, k) == quantum_int(k)
    # five seeded randomized triples
    rng = random.Random(0)
    hosts = [
        "trefoil-plus",
        "twist-4",
        "twist-5",
        "hopf-antiparallel",
        "twist-4-antiparallel",
    ]
    for name in hosts:
        word = corpus_word(name)
        site = rng.choice(crossing_sites(word))
        p, m, z = skein_triple(word, site)
        for k in (2, 3):
            assert skein_check(p, m, z, k), (name, site, k)
    # rank-2 values against the independent recursion oracle
    for name in sorted(CORPUS):
        word = corpus_word(name)
        assert len(crossing_sites(word)) <= 6
        assert skein_oracle(word) == link_poly(word, 2), name
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    stamp(
        7,
        "the crossing-resolution identity holds on the trefoil triple "
        "and 5 random triples (k=2,3), and the rank-2 oracle matches "
        "all 18 corpus links",
        elapsed,
        60.0,
    )


def test_criterion_08_bijection_counts() -> None:
    start = perf_counter()
    pairs = 0
    for n in range(1, 7):
        for mu in positive_compositions(n):
            for nu in positive_compositions(n):
                pairs += 1
                assert len(O_set(mu, nu)) == len(
                    column_strict_fillings(mu, nu)
                )
        for k in (1, 2, 3):
            for nu in positive_compositions(n):
                total = sum(
                    len(column_strict_fillings(mu, nu))
                    for mu in all_compositions(n, k)
                )
                expected = 1
                for part in nu:
                    expected *= comb(k, part)
                assert total == expected, (n, k, nu)
    worked_case = sum(
        len(column_strict_fillings(mu, (2, 3, 1)))
        for mu in all_compositions(6, 3)
    )
    assert worked_case == 9
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    stamp(
        8,
        f"coset and filling counts agree on {pairs} pairs (n<=6) and "
        "fillings count the wedge dimension, including the value 9 "
        "for content (2,3,1) at k=3",
        elapsed,
        10.0,
    )


def test_criterion_09_three_route_transport() -> None:
    start = perf_counter()
    webs = 0
    for k in (2, 3, 4):
        for n in range(1, 5):
            for web in special_generator_webs(n, k):
                webs += 1
                assert compare_theorem13(web)
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    stamp(
        9,
        f"diagrammatic, translation, and matrix transports agree on "
        f"every basis class of all {webs} one-generator webs (n<=4, "
        f"k<=4)",
        elapsed,
        60.0,
    )


def test_criterion_10_annihilator() -> None:
    start = perf_counter()
    checked = 0
    for n in range(2, 6):
        group = [
            Permutation(images)
            for images in permutations(range(1, n + 1))
        ]
        for mu in positive_compositions(n):
            for w in group:
                if not annihilates(w, mu):
                    continue
                checked += 1
                matrix = sign_action(kl_element(w), mu)
                assert all(
                    entry == ZERO for row in matrix.entries for entry in row
                ), (n, mu, w)
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    stamp(
        10,
        f"deep insertion tableaux force the KL element to kill the "
        f"induced sign module: {checked} (element, composition) pairs "
        f"act as zero (n<=5)",
        elapsed,
        60.0,
    )


def test_criterion_11_intertwiner() -> None:
    start = perf_counter()
    for k in (2, 3):
        for n in range(2, 5):
            nu = (1,) * n
            key_of = {}
            for mu in all_compositions(n, k):
                for z in O_set(mu, nu):
                    key_of[(mu, z)] = phi(psi(z, mu, nu), k)
            keys = list(key_of.values())
            assert len(set(keys)) == len(keys)
            assert set(keys) == set(TensorBasis(k, nu).elements)
            for i in range(1, n):
                big = hecke_E(i, n, k)
                row_index = {r: j for j, r in enumerate(big.rows)}
                col_index = {c: j for j, c in enumerate(big.cols)}
                for mu in all_compositions(n, k):
                    zs = sorted(O_set(mu, nu), key=lambda w: w.images)
                    if not zs:
                        continue
                    small = sign_action(
                        kl_element(Permutation.s(i, n)), mu
                    )
                    s_row = {r: j for j, r in enumerate(small.rows)}
                    s_col = {c: j for j, c in enumerate(small.cols)}
                    block_rows = {
                        row_index[key_of[(mu, z)]] for z in zs
                    }
                    for z in zs:
                        column = col_index[key_of[(mu, z)]]
                        for z2 in zs:
                            got = big.entries[
                                row_index[key_of[(mu, z2)]]
                            ][column]
                            want = small.entries[s_row[z2]][s_col[z]]
                            assert got == want, (k, n, i, mu, z, z2)
                        for r in range(len(big.rows)):
                            if r not in block_rows:
                                assert big.entries[r][column] == ZERO
    elapsed = perf_counter() - start
    stamp(
        11,
        "the filling bijection carries the sign-module action of "
        "H_s + q exactly onto the E-operator blocks of the tensor "
        "space (n<=4, k<=3)",
        elapsed,
        None,
    )


def test_criterion_12_proof_table_regression() -> None:
    def columns(start: FlagList, path) -> list[str]:
        return [
            translation_flag(start, path[: i + 1]).canonical_text()
            for i in range(len(path))
        ]

    # digon table: e | descending list | [l] e
    for l, frozen in (
        (2, ["e", "1, q e", "q^-1 e, q e"]),
        (3, ["e", "21, q 1, q^2 e", "q^-2 e, e, q^2 e"]),
    ):
        e = Permutation.identity(l)
        got = columns(FlagList.single(e), [(l,), (1, l - 1), (l,)])
        assert got == frozen
        assert got[1] == list_A(l - 1, 1, l).canonical_text()
        assert got[2] == FlagList.single(e).times_quantum(l).canonical_text()

    # boundary square table, five columns
    for k, frozen in (
        (
            2,
            [
                "e",
                "2, q e",
                "2, q e",
                "21, q 1, q 2, q^2 e",
                "21, e, q 1, q^2 e",
            ],
        ),
        (
            3,
            [
                "e",
                "32, q 2, q^2 e",
                "32, q 2, q^2 e",
                "321, q 21, q 32, q^2 1, q^2 2, q^3 e",
                "q^-1 e, 321, q 21, q e, q^2 1, q^3 e",
            ],
        ),
    ):
        e = Permutation.identity(k + 1)
        path = [(1, k), (1, 1, k - 1), (2, k - 1), (1, 1, k - 1), (1, k)]
        assert columns(FlagList.single(e), path) == frozen

    # kink table, four columns
    for k, frozen in (
        (2, ["e", "1, q e", "1, q e", "12, q 1, q 2, q^2 e"]),
        (
            3,
            [
                "e",
                "21, q 1, q^2 e",
                "21, q 1, q^2 e",
                "1213, q 123, q 213, q^2 13, q^2 21, q^2 23, "
                "q^3 1, q^3 3, q^4 e",
            ],
        ),
    ):
        e = Permutation.identity(k + 1)
        path = [(k, 1), (1, k - 1, 1), (1, k), (1, k - 1, 1)]
        assert columns(FlagList.single(e), path) == frozen

    # the concatenation example of two flag lists
    assert list_A(2, 1, 5).concat(list_B(3, 4, 5)).text() == (
        "2134, q 214, q^2 21, q 134, q^2 14, q^3 1, q^2 34, q^3 4, q^4 e"
    )
    stamp(
        12,
        "translation tables and the flag-list example reproduce their "
        "frozen canonical strings verbatim",
        0,
        None,
    )


def test_criterion_13_foam_suite() -> None:
    start = perf_counter()
    reports = verify_foam()
    assert all_passed(reports)

    one = FrobElement.one()
    x = FrobElement.x()
    assert frob_comul(one) == {(0, 2): -1, (1, 1): -1, (2, 0): -1}
    assert frob_comul(x) == {(1, 2): -1, (2, 1): -1}
    assert [frob_trace(FrobElement.x(p)) for p in range(3)] == [0, 0, -1]

    assert theta_eval(0, 1, 2) == 1
    for d in range(4):
        assert theta_eval(d, d, 0) == 0
        assert theta_eval(d, 1, d) == 0

    assert surgery_check()
    assert surgery_search() == ["trace-then-unit"]

    def neck(a: FrobElement) -> FrobElement:
        return frob_trace(a) * one

    terms = (
        lambda a: x * x * neck(a),
        lambda a: x * neck(x * a),
        lambda a: neck(x * x * a),
    )
    basis = (one, x, FrobElement.x(2))
    for a in basis:
        assert terms[0](a) + terms[1](a) + terms[2](a) == -a
    assert any(
        terms[0](a) + terms[1](a) + terms[2](a) != a for a in basis
    )
    for dropped in range(3):
        kept = [t for i, t in enumerate(terms) if i != dropped]
        assert any(
            kept[0](a) + kept[1](a) != -a for a in basis
        ), dropped

    for name in BASIC_FOAM_NAMES:
        for dots in range(3):
            mapped = basic_map(name, dots)
            if not mapped.is_zero():
                assert mapped.degree() == foam_degree(name, dots)
    elapsed = perf_counter() - start
    assert elapsed < 1.0
    stamp(
        13,
        "Frobenius axioms, structure constants, theta values, the "
        "surgery identity with its mutations, and the degree rule all "
        "hold at rank 3",
        elapsed,
        1.0,
    )
