"""Tangle words: parsing, the link polynomial, skein checks, transport."""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from moycalc import symhecke, tangleinv
from moycalc.boxcomb import (
    WeightedDiagramSum,
    all_compositions,
    curlyvee,
    curlywedge,
    phi,
    phi_inverse,
    positive_compositions,
    psi,
    psi_inverse,
)
from moycalc.qlaurent import LaurentPoly, LinComb, ONE, ZERO, parse_laurent, quantum_int
from moycalc.reporting import all_passed
from moycalc.symhecke import (
    FlagList,
    O_lists,
    O_set,
    Permutation,
    TranslationPath,
    _in_block_pairs,
    _is_strict,
    _single_split,
    translation_flag,
)
from moycalc.tangleinv import (
    CORPUS,
    GrothVector,
    TangleLayer,
    TangleParseError,
    TangleWord,
    compare_theorem13,
    corpus_word,
    crossing_sites,
    grothendieck_map,
    link_poly,
    move_pairs,
    parse_tangle,
    reidemeister_suite,
    skein_check,
    skein_oracle,
    skein_triple,
    special_generator_webs,
    tangle_matrix,
    to_web,
)
from moycalc.weblin import QMatrix, TensorBasis, generator_step, special_pairs
from moycalc.webgraph import Layer, Web, evaluate


def qp(m: int) -> LaurentPoly:
    return LaurentPoly.q_power(m)


_POLY_CACHE: dict[tuple[str, int], LaurentPoly] = {}


def cached_poly(word: TangleWord, k: int) -> LaurentPoly:
    key = (word.text(), k)
    if key not in _POLY_CACHE:
        _POLY_CACHE[key] = link_poly(word, k)
    return _POLY_CACHE[key]


# ----------------------------------------------------------------------
# layers and words


def test_layer_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown tangle layer kind"):
        TangleLayer("loop", 1)


def test_layer_rejects_bad_position():
    with pytest.raises(ValueError, match="position"):
        TangleLayer("cap", 0)


def test_layer_orientation_arity():
    with pytest.raises(ValueError, match="cup requires an orientation pair"):
        TangleLayer("cup", 1)
    with pytest.raises(ValueError, match=r"one '-' and one '\+' end"):
        TangleLayer("cup", 1, ("-", "-"))
    with pytest.raises(ValueError, match="takes no orientation pair"):
        TangleLayer("cap", 1, ("-", "+"))
    with pytest.raises(ValueError, match="takes no orientation pair"):
        TangleLayer("X+", 1, ("-", "+"))


def test_word_boundaries_walk():
    word = corpus_word("hopf-antiparallel")
    assert word.boundaries == (
        (),
        ("-", "+"),
        ("-", "+", "-", "+"),
        ("-", "-", "+", "+"),
        ("-", "+", "-", "+"),
        ("-", "+"),
        (),
    )
    assert word.is_closed


def test_crossing_swaps_orientations():
    word = TangleWord(("-", "+"), (TangleLayer("X+", 1),))
    assert word.top == ("+", "-")


@pytest.mark.parametrize("pos", [True, 1.0, 0])
def test_tangle_layer_takes_only_plain_positive_int_positions(pos):
    with pytest.raises(ValueError, match="layer position must be a positive integer"):
        TangleLayer("cup", pos, ("-", "+"))


def test_word_rejects_bad_bottom_sign():
    with pytest.raises(ValueError, match="orientation must be"):
        TangleWord(("-", "o"))


def test_word_rejects_low_rank():
    with pytest.raises(ValueError, match="rank k must be >= 2"):
        TangleWord((), (), 1)


def test_a_rank_that_is_not_an_int_is_rejected():
    with pytest.raises(ValueError, match="tangle rank k must be an int, got 2.5"):
        TangleWord((), (), 2.5)
    with pytest.raises(ValueError, match="tangle rank k must be an int, got 2.5"):
        link_poly(corpus_word("unknot"), 2.5)
    with pytest.raises(ValueError, match="web rank k must be an int, got True"):
        special_generator_webs(2, True)


def test_word_rejects_cap_on_equal_signs():
    with pytest.raises(ValueError, match="layer 1: cap at position 1"):
        TangleWord(("-", "-"), (TangleLayer("cap", 1),))


def test_word_rejects_out_of_range_layers():
    with pytest.raises(ValueError, match="layer 1: cap position 2"):
        TangleWord(("-", "+"), (TangleLayer("cap", 2),))
    with pytest.raises(ValueError, match="layer 1: cup position 3"):
        TangleWord(("-",), (TangleLayer("cup", 3, ("-", "+")),))


# ----------------------------------------------------------------------
# parsing


def test_parse_unknot_word():
    word = parse_tangle("cup(-+@1); cap(@1)")
    assert word == TangleWord(
        (), (TangleLayer("cup", 1, ("-", "+")), TangleLayer("cap", 1))
    )
    assert word.is_closed


def test_parse_trefoil_plat_word():
    word = corpus_word("trefoil-plus")
    assert word.is_closed
    assert crossing_sites(word) == [2, 3, 4]
    assert word.layers[0] == TangleLayer("cup", 1, ("+", "-"))


def test_parse_header_sets_rank_and_bottom():
    word = parse_tangle("tangle k=3 bottom=-+\nX-(@1)")
    assert word.k == 3
    assert word.bottom == ("-", "+")
    assert word.layers == (TangleLayer("X-", 1),)


def test_parse_headerless_takes_bottom_argument():
    word = parse_tangle("X+(@1); X-(@1)", bottom=("-", "-"))
    assert word.k is None
    assert word.bottom == ("-", "-")


def test_parse_rejects_bottom_next_to_header():
    with pytest.raises(ValueError, match="do not also pass bottom"):
        parse_tangle("tangle k=2 bottom=-+\ncap(@1)", bottom=("-", "+"))


def test_parse_accepts_spaced_arguments_and_comments():
    text = "# a closed loop\ncup( - , + @ 1 ) # grows\ncap( @1 )"
    assert parse_tangle(text) == parse_tangle("cup(-+@1); cap(@1)")


def test_parse_positions_errors():
    with pytest.raises(TangleParseError) as info:
        parse_tangle("cup(-+@1); cup(--@2)")
    assert info.value.line == 1
    assert info.value.column == 12
    assert "one '-' and one '+' end" in info.value.reason

    with pytest.raises(TangleParseError) as info:
        parse_tangle("cup(-+@1)\nbogus(@1)")
    assert (info.value.line, info.value.column) == (2, 1)
    assert "cannot parse layer" in info.value.reason


def test_parse_positions_ill_typed_layers():
    with pytest.raises(TangleParseError) as info:
        parse_tangle("cup(-+@1)\ncap(@2)")
    assert (info.value.line, info.value.column) == (2, 1)
    assert info.value.reason == "cap position 2 out of range for boundary '-+'"
    assert str(info.value) == (
        "line 2, column 1: cap position 2 out of range for boundary '-+'"
    )

    with pytest.raises(TangleParseError) as info:
        parse_tangle("tangle k=2 bottom=--\nX+(@1);  cap(@1)")
    assert (info.value.line, info.value.column) == (2, 10)
    assert info.value.reason == "cap at position 1 needs opposite orientations, found --"


def test_parse_rejects_bad_headers():
    with pytest.raises(TangleParseError, match="bad rank"):
        parse_tangle("tangle k=x bottom=-+")
    with pytest.raises(TangleParseError, match="k out of range"):
        parse_tangle("tangle k=1 bottom=-+")
    with pytest.raises(TangleParseError, match="bad orientation character"):
        parse_tangle("tangle k=2 bottom=-*")


def test_parse_rejects_bad_layer_arguments():
    with pytest.raises(TangleParseError, match="orientation pair"):
        parse_tangle("cup(@1)", bottom=())
    with pytest.raises(TangleParseError, match="optional @position"):
        parse_tangle("X+(-+@1)", bottom=("-", "-"))


def test_text_round_trips_every_corpus_word():
    for name in sorted(CORPUS):
        word = corpus_word(name)
        assert parse_tangle(word.text()) == word


def test_text_round_trips_header_words():
    word = TangleWord(("-", "+"), (TangleLayer("X-", 1),), 3)
    assert word.text() == "tangle k=3 bottom=-+\nX-(@1)"
    assert parse_tangle(word.text()) == word


def test_corpus_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown corpus entry"):
        corpus_word("borromean")


# ----------------------------------------------------------------------
# compilation to webs


def test_compile_labels_follow_orientations():
    web = to_web(parse_tangle("cup(-+@1); cap(@1)"), 3)
    assert web.k == 3
    assert web.layers == (Layer("cup", 1, 1, 2), Layer("cap", 1))
    assert to_web(parse_tangle("cup(+-@1); cap(@1)"), 3).layers[0] == Layer(
        "cup", 1, 2, 1
    )


def test_compile_plain_crossing_on_downward_pair():
    word = TangleWord(("-", "-"), (TangleLayer("X+", 1),))
    assert to_web(word, 3).layers == (Layer("cross+", 1),)


def test_compile_rotates_side_crossings():
    word = TangleWord(("-", "+"), (TangleLayer("X+", 1),))
    assert to_web(word, 3).layers == (
        Layer("cup", 1, 2, 1),
        Layer("cross+", 2),
        Layer("cap", 3),
    )
    word = TangleWord(("+", "-"), (TangleLayer("X+", 1),))
    assert to_web(word, 3).layers == (
        Layer("cup", 3, 1, 2),
        Layer("cross+", 2),
        Layer("cap", 1),
    )
    word = TangleWord(("+", "+"), (TangleLayer("X-", 1),))
    assert to_web(word, 3).layers == (
        Layer("cup", 3, 1, 2),
        Layer("cup", 4, 1, 2),
        Layer("cross-", 3),
        Layer("cap", 2),
        Layer("cap", 1),
    )


def test_header_rank_feeds_evaluation():
    word = parse_tangle("tangle k=3 bottom=\ncup(-+@1); cap(@1)")
    assert link_poly(word) == quantum_int(3)
    assert link_poly(word, 2) == quantum_int(2)
    assert to_web(word, 4).k == 4


def test_rank_is_required_somewhere():
    with pytest.raises(ValueError, match="no rank given"):
        link_poly(parse_tangle("cup(-+@1); cap(@1)"))


def test_link_poly_rejects_open_words():
    with pytest.raises(ValueError, match="closed tangle word required"):
        link_poly(TangleWord(("-",), ()), 2)


def test_link_poly_rejects_a_rank_below_two():
    with pytest.raises(ValueError, match="tangle rank k must be >= 2, got 1") as info:
        link_poly(corpus_word("unknot"), 1)
    assert type(info.value) is ValueError


# ----------------------------------------------------------------------
# link polynomial values


@pytest.mark.parametrize("k", [2, 3, 4])
def test_unknot_is_quantum_k(k):
    assert link_poly(corpus_word("unknot"), k) == quantum_int(k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "name",
    [
        "unknot-coiled",
        "unknot-kink-plus",
        "unknot-kink-minus",
        "unknot-one-crossing",
    ],
)
def test_unknot_presentations_keep_coefficient_one(name, k):
    assert link_poly(corpus_word(name), k) == quantum_int(k)


@pytest.mark.parametrize("k", [2, 3])
def test_unlink_values_multiply(k):
    circle = quantum_int(k)
    assert link_poly(corpus_word("unlink-2"), k) == circle**2
    assert link_poly(corpus_word("unlink-2-slid"), k) == circle**2
    assert link_poly(corpus_word("unlink-3-nested"), k) == circle**3


def test_hopf_link_frozen_values():
    hopf = corpus_word("hopf-plus")
    assert link_poly(hopf, 2) == parse_laurent("1 + q^-2 + q^-4 + q^-6")
    assert link_poly(hopf, 3) == parse_laurent(
        "1 + q^-2 + 2q^-4 + 2q^-6 + 2q^-8 + q^-10"
    )


def test_trefoil_frozen_values():
    trefoil = corpus_word("trefoil-plus")
    assert str(link_poly(trefoil, 2)) == "q^-1 + q^-3 + q^-5 - q^-9"
    assert str(link_poly(trefoil, 3)) == (
        "q^-2 + q^-4 + 2q^-6 + q^-8 - q^-12 - q^-14"
    )


@pytest.mark.parametrize("k", [2, 3])
def test_mirror_words_conjugate_the_value(k):
    for name in ("hopf", "trefoil"):
        plus = link_poly(corpus_word(f"{name}-plus"), k)
        minus = link_poly(corpus_word(f"{name}-minus"), k)
        assert minus == plus.bar()


@pytest.mark.parametrize("k", [2, 3])
def test_reoriented_and_replatted_hopf_words_agree(k):
    value = link_poly(corpus_word("hopf-plus"), k)
    assert link_poly(corpus_word("hopf-antiparallel"), k) == value
    assert link_poly(corpus_word("plat-braid-121"), k) == value


# ----------------------------------------------------------------------
# per-site crossing identities at rank 2


def test_crossing_matrices_split_into_weighted_pictures():
    keep = QMatrix.identity(TensorBasis(2, (1, 1)))
    turn = evaluate(Web(2, (1, 1), (Layer("cap", 1), Layer("cup", 1, 1, 1))))
    weights = {"X+": (qp(-1), -qp(-2)), "X-": (qp(1), -qp(2))}
    for cross, (straight, turned) in weights.items():
        for first in ("-", "+"):
            for second in ("-", "+"):
                word = TangleWord(
                    (first, second), (TangleLayer(cross, 1),)
                )
                got = tangle_matrix(word, 2)
                if first == second:
                    expected = straight * keep + turned * turn
                else:
                    expected = straight * turn + turned * keep
                assert got == expected, (cross, first, second)


# ----------------------------------------------------------------------
# the independent rank-2 oracle


def test_oracle_frozen_values():
    assert skein_oracle(corpus_word("unknot")) == quantum_int(2)
    assert skein_oracle(corpus_word("unlink-2")) == quantum_int(2) ** 2
    assert skein_oracle(corpus_word("trefoil-plus")) == parse_laurent(
        "q^-1 + q^-3 + q^-5 - q^-9"
    )


def test_oracle_matches_the_compiled_pipeline_on_the_corpus():
    for name in sorted(CORPUS):
        word = corpus_word(name)
        assert skein_oracle(word) == cached_poly(word, 2), name


def test_oracle_only_speaks_rank_2():
    with pytest.raises(ValueError, match="covers only k=2"):
        skein_oracle(corpus_word("unknot"), 3)


def test_oracle_rejects_open_words():
    with pytest.raises(ValueError, match="closed tangle word required"):
        skein_oracle(TangleWord(("-",), ()))


def _union_find_loop_count(picture) -> int:
    """Circles by union-find with path compression over the picture's
    arcs: the reference that the arc-relabelling ``_loop_count`` is
    checked against."""
    parent: list[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    strands: list[int] = []
    loops = 0
    for op, pos in picture:
        if op == "cup":
            left = len(parent)
            parent.extend((left, left))
            strands[pos - 1 : pos - 1] = [left, left + 1]
        else:
            one, two = find(strands[pos - 1]), find(strands[pos])
            if one == two:
                loops += 1
            else:
                parent[two] = one
            del strands[pos - 1 : pos + 1]
    return loops


@st.composite
def crossingless_pictures(draw):
    """A closed cup/cap picture with at most six cups: random cups and
    caps from the empty boundary, then caps until nothing is left.  A
    picture is unoriented, so a cap may close any adjacent pair."""
    picture, width, cups = [], 0, 0
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        moves = [("cap", pos) for pos in range(1, width)]
        if cups < 6:
            moves += [("cup", pos) for pos in range(1, width + 2)]
        if not moves:
            break
        op, pos = draw(st.sampled_from(moves))
        picture.append((op, pos))
        cups += op == "cup"
        width += 2 if op == "cup" else -2
    while width:
        picture.append(("cap", draw(st.integers(min_value=1, max_value=width - 1))))
        width -= 2
    return picture


@settings(max_examples=300, deadline=None)
@given(picture=crossingless_pictures())
def test_loop_count_matches_union_find_on_random_pictures(picture):
    assert tangleinv._loop_count(picture) == _union_find_loop_count(picture), picture


@pytest.mark.parametrize(
    "picture, circles",
    [
        ([], 0),
        ([("cup", 1), ("cap", 1)], 1),
        ([("cup", 1), ("cup", 2), ("cap", 2), ("cap", 1)], 2),
        ([("cup", 1), ("cup", 3), ("cap", 1), ("cap", 1)], 2),
        ([("cup", 1), ("cup", 3), ("cap", 2), ("cap", 1)], 1),
        ([("cup", 1), ("cup", 3), ("cup", 5), ("cap", 2), ("cap", 2), ("cap", 1)], 1),
    ],
    ids=["empty", "one", "nested", "side-by-side", "zig-zag", "double-zig-zag"],
)
def test_loop_count_named_pictures(picture, circles):
    assert tangleinv._loop_count(picture) == circles
    assert _union_find_loop_count(picture) == circles


@st.composite
def closed_words(draw):
    """A closed word on at most four strands with at most six crossings:
    random cups, crossings and caps from the empty boundary, then caps
    until nothing is left.  A top reached from
    nothing holds as many + as - strands, so it has an opposite adjacent
    pair to cap."""
    word, crossings = TangleWord((), ()), 0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        top = word.top
        opposite = [pos for pos in range(1, len(top)) if top[pos - 1] != top[pos]]
        moves = [TangleLayer("cap", pos) for pos in opposite]
        if crossings < 6:
            moves += [TangleLayer(kind, pos) for kind in ("X+", "X-") for pos in range(1, len(top))]
        if len(top) + 2 <= 4:
            moves += [TangleLayer("cup", pos, signs) for signs in (("-", "+"), ("+", "-"))
                      for pos in range(1, len(top) + 2)]
        layer = draw(st.sampled_from(moves))
        crossings += layer.kind in ("X+", "X-")
        word = TangleWord((), word.layers + (layer,))
    while word.top:
        top = word.top
        pos = next(p for p in range(1, len(top)) if top[p - 1] != top[p])
        word = TangleWord((), word.layers + (TangleLayer("cap", pos),))
    return word


@settings(max_examples=150, deadline=None)
@given(word=closed_words())
def test_oracle_matches_the_compiled_pipeline_on_random_closed_words(word):
    assert skein_oracle(word) == link_poly(word, 2), word.text()


# ----------------------------------------------------------------------
# skein triples


def test_trefoil_triple_is_trefoil_unknot_hopf():
    trefoil = corpus_word("trefoil-plus")
    plus, minus, zero = skein_triple(trefoil, 2)
    assert plus == trefoil
    assert minus.layers[2] == TangleLayer("X-", 2)
    assert zero == corpus_word("hopf-plus")
    for k in (2, 3):
        assert cached_poly(minus, k) == quantum_int(k)
        assert skein_check(plus, minus, zero, k)


def test_kink_triple_smooths_to_the_two_component_unlink():
    plus, minus, zero = skein_triple(corpus_word("unknot-kink-plus"), 2)
    assert minus == corpus_word("unknot-kink-minus")
    assert crossing_sites(zero) == []
    for k in (2, 3):
        assert cached_poly(zero, k) == quantum_int(k) ** 2
        assert skein_check(plus, minus, zero, k)


def test_antiparallel_smoothing_turns_the_strands_back():
    host = corpus_word("hopf-antiparallel")
    plus, minus, zero = skein_triple(host, 2)
    assert zero.layers[2] == TangleLayer("cap", 2)
    assert zero.layers[3] == TangleLayer("cup", 2, ("-", "+"))
    for k in (2, 3):
        assert skein_check(plus, minus, zero, k)


def test_skein_relation_on_randomized_triples():
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
        index = rng.choice(crossing_sites(word))
        plus, minus, zero = skein_triple(word, index)
        for k in (2, 3):
            assert skein_check(plus, minus, zero, k), (name, index, k)


def test_skein_triple_rejects_non_crossing_sites():
    with pytest.raises(ValueError, match="not a crossing"):
        skein_triple(corpus_word("unknot"), 0)


def test_skein_check_validates_the_triple():
    plus, minus, zero = skein_triple(corpus_word("trefoil-plus"), 2)
    other = corpus_word("hopf-plus")
    with pytest.raises(ValueError, match="word lengths differ"):
        skein_check(plus, other, zero, 2)
    with pytest.raises(ValueError, match="bottom boundaries differ"):
        skein_check(
            TangleWord(("-", "-"), (TangleLayer("X+", 1),)),
            TangleWord(("+", "+"), (TangleLayer("X-", 1),)),
            zero,
            2,
        )
    with pytest.raises(ValueError, match="need exactly one"):
        skein_check(plus, plus, zero, 2)
    with pytest.raises(ValueError, match="must hold X"):
        skein_check(minus, plus, zero, 2)
    with pytest.raises(ValueError, match="oriented smoothing"):
        skein_check(plus, minus, plus, 2)


# ----------------------------------------------------------------------
# local moves


@pytest.mark.parametrize("k", [2, 3])
def test_reidemeister_suite_passes(k):
    reports = reidemeister_suite(k)
    assert len(reports) == 4
    assert [r.check for r in reports] == [
        f"reidemeister-1-k{k}",
        f"reidemeister-2-k{k}",
        f"reidemeister-3-k{k}",
        f"zigzag-k{k}",
    ]
    assert all_passed(reports)
    assert all(r.line().startswith("PASS") for r in reports)


def test_reidemeister_suite_names_every_failing_variant(monkeypatch):
    # A fake crossing normalisation that negates every word holding X+:
    # each R1 kink through X+ and every R2 pair must be named.
    real = tangleinv.tangle_matrix

    def negated(t, k=None):
        matrix = real(t, k)
        return -matrix if any(l.kind == "X+" for l in t.layers) else matrix

    monkeypatch.setattr(tangleinv, "tangle_matrix", negated)
    r1, r2, r3, zigzag = reidemeister_suite(2)
    assert not r1.passed
    assert r1.witness == "failed at -/right/X+, -/left/X+, +/right/X+, +/left/X+"
    assert not r2.passed
    assert r2.witness == "failed at " + ", ".join(
        f"{pair}/{first} first"
        for pair in ("--", "-+", "+-", "++")
        for first in ("X+", "X-")
    )
    assert r3.passed and zigzag.passed


# The last host, twist-4-antiparallel: its cups and crossings, then
# the same word up to its final cap.
TWIST_BODY = "cup(-+@1); cup(-+@3); X+(@2); X+(@2); X+(@2); X+(@2)"
TWIST = TWIST_BODY + "; cap(@1)"
MOVE_PAIR_ENDS = {
    # move: (count, first pair, last pair) of move_pairs(move, 10**6)
    "r1": (
        416,
        ("cup(-+@1); cap(@1)", "cup(-+@1); cup(-+@2); X+(@1); cap(@2); cap(@1)"),
        (TWIST + "; cap(@1)", TWIST + "; cup(-+@2); X-(@3); cap(@2); cap(@1)"),
    ),
    "r2": (
        144,
        ("cup(-+@1); cap(@1)", "cup(-+@1); X+(@1); X-(@1); cap(@1)"),
        (TWIST + "; cap(@1)", TWIST + "; X-(@1); X+(@1); cap(@1)"),
    ),
    "r3": (
        24,
        (
            "cup(-+@1); cup(-+@2); cup(-+@3); X+(@1); X+(@2); X+(@1); "
            "cap(@3); cap(@2); cap(@1)",
            "cup(-+@1); cup(-+@2); cup(-+@3); X+(@2); X+(@1); X+(@2); "
            "cap(@3); cap(@2); cap(@1)",
        ),
        (
            TWIST_BODY + "; X+(@2); X-(@3); X+(@2); cap(@1); cap(@1)",
            TWIST_BODY + "; X+(@3); X-(@2); X+(@3); cap(@1); cap(@1)",
        ),
    ),
    "zigzag": (
        208,
        ("cup(-+@1); cap(@1)", "cup(-+@1); cup(+-@2); cap(@1); cap(@1)"),
        (TWIST + "; cap(@1)", TWIST + "; cup(+-@2); cap(@3); cap(@1)"),
    ),
}


@pytest.mark.parametrize("move", sorted(MOVE_PAIR_ENDS))
def test_move_pairs_are_pinned(move):
    count, first, last = MOVE_PAIR_ENDS[move]
    pairs = move_pairs(move, limit=10**6)
    assert len(pairs) == count
    for pair, expected in ((pairs[0], first), (pairs[-1], last)):
        assert tuple(t.text().replace("\n", "; ") for t in pair) == expected


def test_move_pairs_rejects_unknown_move():
    with pytest.raises(ValueError, match="unknown move"):
        move_pairs("r4")


def test_move_pairs_respects_the_limit():
    assert len(move_pairs("r1", limit=3)) == 3


@pytest.mark.parametrize("move", ["r1", "r2", "r3", "zigzag"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_link_poly_is_invariant_under_move(move, k):
    pairs = move_pairs(move)
    assert len(pairs) >= 10
    for left, right in pairs:
        assert cached_poly(left, k) == cached_poly(right, k), (
            move,
            k,
            left.text(),
            right.text(),
        )


# ----------------------------------------------------------------------
# class vectors


def e(n: int) -> Permutation:
    return Permutation.identity(n)


def s(n: int, i: int) -> Permutation:
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def test_vector_drops_zero_coordinates():
    vec = GrothVector(2, (1, 1), {((1, 1), e(2)): ZERO})
    assert vec.is_zero()
    assert vec == GrothVector.zero(2, (1, 1))


def test_vector_validates_keys():
    with pytest.raises(ValueError, match="not a composition with 2 parts"):
        GrothVector(2, (1, 1), {((1, 1, 0), e(2)): ONE})
    with pytest.raises(ValueError, match="not a composition"):
        GrothVector(2, (1, 1), {((3, -1), e(2)): ONE})
    with pytest.raises(ValueError, match="does not match"):
        GrothVector(2, (1, 1), {((2, 1), e(2)): ONE})
    with pytest.raises(ValueError, match="does not match"):
        GrothVector(2, (1, 1), {((1, 1), e(3)): ONE})


def test_vector_checks_its_classes_where_they_enter():
    with pytest.raises(ValueError, match=r"class 213 is not minimal over \(2, 1\)"):
        GrothVector.basis(3, (2, 1), (1, 1, 1), Permutation((2, 1, 3)))
    with pytest.raises(ValueError, match="not a Permutation"):
        GrothVector.basis(2, (1, 1), (1, 1), "12")
    assert not GrothVector.basis(3, (2, 1), (1, 1, 1), Permutation((1, 3, 2))).is_zero()


@pytest.mark.parametrize("mu", [(1.0, 1), (True, 1), (1, 1.0)])
def test_vector_weights_have_int_parts(mu):
    with pytest.raises(ValueError, match="not a composition with 2 parts"):
        GrothVector.basis(2, (1, 1), mu, e(2))


def test_vector_addition_and_scaling():
    basis = GrothVector.basis(2, (1, 1), (1, 1), e(2))
    double = basis + basis
    assert double.coords[((1, 1), e(2))] == ONE + ONE
    assert 2 * basis == double
    assert basis * qp(1) + basis * qp(-1) == quantum_int(2) * basis
    assert basis + (-1) * basis == GrothVector.zero(2, (1, 1))


def test_vector_addition_needs_matching_content():
    left = GrothVector.basis(2, (1, 1), (1, 1), e(2))
    right = GrothVector.basis(2, (2,), (1, 1), e(2))
    with pytest.raises(ValueError, match="different contents"):
        left + right


def test_vector_equality_reads_every_field_and_stays_unhashable():
    basis = GrothVector.basis(2, (1, 1), (1, 1), e(2))
    assert basis == GrothVector.basis(2, (1, 1), (1, 1), e(2))
    assert basis != GrothVector.basis(3, (1, 1), (2, 0, 0), e(2))
    assert basis != GrothVector.zero(2, (1, 1))
    assert basis != basis.coords
    with pytest.raises(TypeError):
        hash(basis)


def test_vector_rejects_strange_scalars():
    basis = GrothVector.basis(2, (1, 1), (1, 1), e(2))
    with pytest.raises(TypeError):
        basis * 1.5


def test_vector_text_is_sorted_and_canonical():
    vec = GrothVector(
        2,
        (1, 1),
        {((2, 0), e(2)): qp(1), ((1, 1), s(2, 1)): ONE},
    )
    assert vec.text() == "(1,1 | 21): 1; (2,0 | 12): q"
    assert str(GrothVector.zero(2, (1, 1))) == "0"


# ----------------------------------------------------------------------
# transport routes


ROUTES = ("curly", "translation", "matrix")


def test_identity_web_transports_identically():
    f = Web(3, (1, 2), ())
    maps = [grothendieck_map(f, route=route) for route in ROUTES]
    for mu in all_compositions(3, 3):
        for z in O_set(mu, (1, 2)):
            vec = GrothVector.basis(3, (1, 2), mu, z)
            for apply in maps:
                assert apply(vec) == vec


def test_merge_transport_frozen_coordinates():
    f = Web(3, (1, 1), (Layer("merge", 1, 1, 1),))
    apply = grothendieck_map(f, route="curly")
    killed = GrothVector.basis(3, (1, 1), (2, 0, 0), e(2))
    assert apply(killed).is_zero()
    straight = GrothVector.basis(3, (1, 1), (1, 1, 0), e(2))
    bent = GrothVector.basis(3, (1, 1), (1, 1, 0), s(2, 1))
    target = GrothVector.basis(3, (2,), (1, 1, 0), e(2))
    assert apply(straight) == target
    assert apply(bent) == qp(-1) * target


def test_split_transport_frozen_coordinates():
    f = Web(2, (2,), (Layer("split", 1, 1, 1),))
    apply = grothendieck_map(f, route="curly")
    image = apply(GrothVector.basis(2, (2,), (1, 1), e(2)))
    assert image.text() == "(1,1 | 12): q; (1,1 | 21): 1"

    g = Web(3, (3,), (Layer("split", 1, 1, 2),))
    apply_g = grothendieck_map(g, route="curly")
    image_g = apply_g(GrothVector.basis(3, (3,), (1, 1, 1), e(3)))
    assert image_g.text() == (
        "(1,1,1 | 123): q^2; (1,1,1 | 213): q; (1,1,1 | 312): 1"
    )


def test_routes_agree_on_the_named_generator_webs():
    merge = Web(3, (1, 1), (Layer("merge", 1, 1, 1),))
    split = Web(3, (3,), (Layer("split", 1, 1, 2),))
    assert compare_theorem13(merge)
    assert compare_theorem13(split)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_routes_agree_on_all_small_special_generators(n, k):
    for web in special_generator_webs(n, k):
        assert compare_theorem13(web), (web.bottom, web.layers)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_special_generator_webs_reject_a_rank_below_two(k):
    with pytest.raises(ValueError, match=f"web rank k must be >= 2, got {k}"):
        special_generator_webs(2, k)


@pytest.mark.parametrize(
    "n, message",
    [
        (2.5, "boundary size n must be an int, got 2.5"),
        (True, "boundary size n must be an int, got True"),
        (-1, "boundary size n must be >= 0, got -1"),
    ],
    ids=["float", "bool", "negative"],
)
def test_special_generator_webs_need_an_exact_int_size(n, message):
    # 2.5 and -1 listed no webs, and True listed the webs on (1,)
    with pytest.raises(ValueError, match=message):
        special_generator_webs(n, 3)


def test_special_generator_web_inventory():
    webs = special_generator_webs(2, 2)
    assert [(w.bottom, w.layers[0].kind) for w in webs] == [
        ((1, 1), "merge"),
        ((2,), "split"),
    ]
    counts = {
        (n, k): len(special_generator_webs(n, k))
        for k in (2, 3)
        for n in (1, 2, 3, 4)
    }
    assert counts == {
        (1, 2): 0,
        (2, 2): 2,
        (3, 2): 4,
        (4, 2): 10,
        (1, 3): 0,
        (2, 3): 2,
        (3, 3): 8,
        (4, 3): 18,
    }


def test_transport_validates_its_arguments():
    f = Web(3, (1, 1), (Layer("merge", 1, 1, 1),))
    with pytest.raises(ValueError, match="unknown route"):
        grothendieck_map(f, route="spectral")
    bent = Web(3, (), (Layer("cup", 1, 1, 2),))
    with pytest.raises(ValueError, match="merge/split webs only"):
        grothendieck_map(bent)
    apply = grothendieck_map(f)
    with pytest.raises(ValueError, match="does not match"):
        apply(GrothVector.basis(3, (2,), (1, 1, 0), e(2)))


MERGE_WEB = Web(3, (1, 1), (Layer("merge", 1, 1, 1),))
MERGE_KEYS = [
    (mu, z)
    for mu in all_compositions(2, 3)
    for z in sorted(O_set(mu, (1, 1)), key=lambda w: w.images)
]
small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-4, max_value=4),
        max_size=3,
    ),
)


@given(
    key_a=st.sampled_from(MERGE_KEYS),
    key_b=st.sampled_from(MERGE_KEYS),
    coeff=small_polys,
    route=st.sampled_from(ROUTES),
)
def test_transport_is_linear(key_a, key_b, coeff, route):
    apply = grothendieck_map(MERGE_WEB, route=route)
    vec_a = GrothVector.basis(3, (1, 1), *key_a)
    vec_b = GrothVector.basis(3, (1, 1), *key_b)
    assert apply(vec_a + vec_b) == apply(vec_a) + apply(vec_b)
    assert apply(vec_a * coeff) == apply(vec_a) * coeff


@pytest.mark.parametrize("route", ["curly", "matrix"])
def test_transport_rejects_a_class_that_does_not_qualify(route):
    apply = grothendieck_map(MERGE_WEB, route=route)
    vec = GrothVector.basis(3, (1, 1), (2, 0, 0), Permutation((2, 1)))
    with pytest.raises(ValueError, match="21 does not represent a qualifying coset"):
        apply(vec)


# ----------------------------------------------------------------------
# the class lists against a brute-force reference over S_n


def _value_blocks(parts):
    """The consecutive value (or position) blocks of a composition."""
    blocks, start = [], 1
    for p in parts:
        blocks.append(range(start, start + p))
        start += p
    return blocks


@lru_cache(maxsize=None)
def _left_minimal(n, mu):
    """The one-line images w of S_n that are minimal in S_mu·w: inside
    each mu-block, the value i comes before the value i+1."""
    out = set()
    for images in permutations(range(1, n + 1)):
        where = {v: p for p, v in enumerate(images)}
        if all(where[i] < where[i + 1] for b in _value_blocks(mu) for i in b[:-1]):
            out.add(images)
    return frozenset(out)


@lru_cache(maxsize=None)
def _cosets(nu):
    """The right cosets w·S_nu of S_n, as lists of one-line images."""
    n = sum(nu)
    cosets = defaultdict(list)
    for images in permutations(range(1, n + 1)):
        key = tuple(frozenset(images[p - 1] for p in b) for b in _value_blocks(nu))
        cosets[key].append(images)
    return list(cosets.values())


@lru_cache(maxsize=None)
def _reference_O(mu, nu):
    """The images of the minimal representatives of the cosets z·S_nu
    whose every element is left-mu-minimal, by brute force over S_n.
    The lexicographically least element sorts each position block, so it
    is the coset's minimal representative."""
    minimal = _left_minimal(sum(nu), mu)
    return frozenset(
        min(coset) for coset in _cosets(nu) if all(w in minimal for w in coset)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_every_weights_class_lists_match_O_set_and_the_brute_force(n):
    for nu in positive_compositions(n):
        for k in range(1, 5):
            mus = all_compositions(n, k)
            lists = O_lists(mus, nu)
            assert [mu for mu, _ in lists] == mus
            for mu, classes in lists:
                images = [z.images for z in classes]
                assert images == sorted(images), (mu, nu)
                assert set(classes) == O_set(mu, nu), (mu, nu)
                assert set(images) == _reference_O(mu, nu), (mu, nu)


# ----------------------------------------------------------------------
# the transport plan against the per-class chain it replaced


def _reference_out_of_wall_reps(offset, a, b, n):
    """The classes a split of the block at ``offset`` into (a, b) fans
    out over, in lexicographic order: which a of the block's values sit
    in its first a places, the other b following in increasing order."""
    block = range(offset + 1, offset + a + b + 1)
    head, tail = range(1, offset + 1), range(offset + a + b + 1, n + 1)
    return [
        Permutation((*head, *chosen, *(v for v in block if v not in chosen), *tail))
        for chosen in combinations(block, a)
    ]


def _reference_translation_flag(terms, path, mu):
    """The translation rule as one loop that re-derives every wall step
    for every call, dropping onto-wall classes by the brute-force
    ``_reference_O``."""
    walls = [tuple(c) for c in path]
    n = sum(walls[0])
    for src, dst in zip(walls, walls[1:]):
        src_pairs = _in_block_pairs(src)
        for _, w in terms:
            assert _is_strict(w.images, src_pairs)
        split = _single_split(src, dst)
        if split is not None:
            offset, a, b = split
            c = a + b
            big = c * (c - 1) // 2
            small = a * (a - 1) // 2 + b * (b - 1) // 2
            reps = _reference_out_of_wall_reps(offset, a, b, n)
            terms = [
                (e + big - small - z.length(), w * z) for e, w in terms for z in reps
            ]
            continue
        offset, a, b = _single_split(dst, src)
        c = a + b
        qualifying = _reference_O(tuple(mu), dst)
        new_terms = []
        for e, w in terms:
            segment = list(w.images[offset : offset + c])
            l_y = sum(
                1
                for i in range(c)
                for j in range(i + 1, c)
                if segment[i] > segment[j]
            )
            images = list(w.images)
            images[offset : offset + c] = sorted(segment)
            z = Permutation(tuple(images))
            if z.images in qualifying:
                new_terms.append((e - l_y, z))
        terms = new_terms
    return terms


@pytest.mark.parametrize("n", range(2, 7))
def test_out_of_wall_fan_keeps_the_lexicographic_order(n):
    # FlagList equality forgets order; text() shows the stored one
    start = FlagList.single(Permutation.identity(n))
    for src in positive_compositions(n):
        for pos, c in enumerate(src):
            # a single split takes a 1-part off either end of a block
            for a in sorted({1, c - 1} - {0, c}):
                b, offset = c - a, sum(src[:pos])
                dst = src[:pos] + (a, b) + src[pos + 1 :]
                shift = c * (c - 1) // 2 - a * (a - 1) // 2 - b * (b - 1) // 2
                fan = FlagList(
                    tuple(
                        (shift - z.length(), z)
                        for z in _reference_out_of_wall_reps(offset, a, b, n)
                    )
                )
                got = translation_flag(start, [src, dst])
                assert got.text() == fan.text(), (src, dst)


def _reference_curly(f, mu, z):
    current = WeightedDiagramSum.single(psi(z, mu, f.bottom))
    for layer in f.layers:
        moved = WeightedDiagramSum()
        for g, coeff in current.items():
            if layer.kind == "merge":
                step = curlywedge(g, layer.pos)
            else:
                step = curlyvee(g, layer.pos, (layer.a, layer.b))
            for h, c in step.items():
                moved.add_term(h, c * coeff)
        current = moved
    return LinComb(
        ((mu, psi_inverse(g, mu, f.top)), coeff) for g, coeff in current.items()
    )


def _reference_translation(f, mu, z):
    terms = _reference_translation_flag([(0, z)], f.boundaries, mu)
    return LinComb(((mu, w), qp(e)) for e, w in terms)


def _reference_matrix(f, matrix, mu, z):
    source = phi(psi(z, mu, f.bottom), f.k)
    out = LinComb()
    for row_key, coeff in matrix.column(source):
        g = phi_inverse(row_key, f.k)
        out.add_term((g.shape, psi_inverse(g, g.shape, f.top)), coeff)
    return out


def _tally(web, images):
    """The class combinations of one weight's list of classes, as the
    plan's routes return them: keyed by each class's index and each
    image class's top filling."""
    return {
        (i, mu, psi(z, mu, web.top).flat(), e): c
        for i, image in enumerate(images)
        for (mu, z), poly in image.items()
        for e, c in poly.terms
    }


def _check_plan_against_the_chain(plan, web, matrix, mu, classes):
    fillings = [psi(z, mu, web.bottom) for z in classes]
    positions = [matrix.cols.index(phi(g, web.k)) for g in fillings]
    weight = (mu, classes, [g.flat() for g in fillings], positions)
    where = (web.text(), mu, [z.one_line_text() for z in classes])
    assert plan.curly(*weight) == _tally(
        web, [_reference_curly(web, mu, z) for z in classes]
    ), where
    translations = [_reference_translation(web, mu, z) for z in classes]
    assert plan.translation(*weight) == _tally(web, translations), where
    # the tally keeps only each image's top word: check the classes the
    # wall steps push to, representatives included; the steps act on images
    push = plan._walls._pusher(mu)
    assert [
        LinComb(((mu, Permutation(w)), qp(e)) for e, w in push([(0, z.images)]))
        for z in classes
    ] == translations, where
    assert plan.matrix(*weight) == _tally(
        web, [_reference_matrix(web, matrix, mu, z) for z in classes]
    ), where


def _weight_classes(web):
    """(mu, classes) for every weight of the web's bottom, the classes
    of each weight in ``images`` order."""
    for mu in all_compositions(sum(web.bottom), web.k):
        yield mu, sorted(O_set(mu, web.bottom), key=lambda z: z.images)


# splits (2,1) to (1,1,1), then merges back onto (1,2): a two-step path
SPLIT_MERGE_WEB = Web(3, (2, 1), (Layer("split", 1, 1, 1), Layer("merge", 2, 1, 1)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_plan_routes_match_the_per_class_chain(k):
    webs = [web for n in range(1, 5) for web in special_generator_webs(n, k)]
    if k == 3:
        webs.append(SPLIT_MERGE_WEB)
    classes = 0
    for web in webs:
        plan = tangleinv._TransportPlan(web)
        matrix = evaluate(web)
        for mu, weight_classes in _weight_classes(web):
            _check_plan_against_the_chain(plan, web, matrix, mu, weight_classes)
            classes += len(weight_classes)
    assert classes >= len(webs)


def _transport_moves(k, labels):
    """Every merge or split layer of special type that fits on ``labels``,
    with the boundary above it."""
    moves = []
    for pos in range(1, len(labels) + 1):
        for kind in ("merge", "split"):
            for a, b in sorted(special_pairs(k)):
                try:
                    above = generator_step(kind, k, labels, pos, a, b)
                except ValueError:
                    continue
                moves.append((Layer(kind, pos, a, b), above))
    return moves


@st.composite
def composite_webs(draw):
    """A merge/split web of 2 to 4 layers on at most five boxes, k = 2..4."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=5))
    labels = {1, 2, k - 1, k}
    bottom = draw(
        st.sampled_from([nu for nu in positive_compositions(n) if set(nu) <= labels])
    )
    layers, top = [], bottom
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        moves = _transport_moves(k, top)
        if not moves:
            break
        layer, top = draw(st.sampled_from(moves))
        layers.append(layer)
    assume(len(layers) >= 2)
    return Web(k, bottom, tuple(layers))


@settings(max_examples=40, deadline=None)
@given(web=composite_webs())
def test_random_composite_webs_agree_class_by_class(web):
    assert compare_theorem13(web)
    plan = tangleinv._TransportPlan(web)
    matrix = evaluate(web)
    for mu, classes in _weight_classes(web):
        _check_plan_against_the_chain(plan, web, matrix, mu, classes)


def test_two_layer_web_routes_agree():
    assert compare_theorem13(SPLIT_MERGE_WEB)
    image = grothendieck_map(SPLIT_MERGE_WEB, route="translation")(
        GrothVector.basis(3, (2, 1), (1, 1, 1), e(3))
    )
    assert not image.is_zero()


@pytest.mark.parametrize("route", ROUTES)
def test_compare_catches_one_perturbed_class(route, monkeypatch):
    web = Web(3, (1, 2), (Layer("merge", 1, 1, 2),))
    assert compare_theorem13(web)
    kernel = getattr(tangleinv._TransportPlan, route)
    perturbed = []

    def one_class_off(plan, *args):
        image = kernel(plan, *args)
        if image and not perturbed:
            perturbed.append(args)
            first = min(i for i, *_ in image)
            return {
                (i, mu, images, e + (i == first)): c
                for (i, mu, images, e), c in image.items()
            }
        return image

    monkeypatch.setattr(tangleinv._TransportPlan, route, one_class_off)
    assert not compare_theorem13(web)
    assert len(perturbed) == 1


@pytest.mark.parametrize("route", ROUTES)
def test_compare_checks_the_image_keys(route, monkeypatch):
    web = Web(3, (1, 2), (Layer("merge", 1, 1, 2),))
    kernel = getattr(tangleinv._TransportPlan, route)

    def padded(plan, *args):
        image = kernel(plan, *args)
        return {(i, mu + (0,), images, e): c for (i, mu, images, e), c in image.items()}

    monkeypatch.setattr(tangleinv._TransportPlan, route, padded)
    with pytest.raises(ValueError, match="not a composition with 3 parts"):
        compare_theorem13(web)


@pytest.mark.parametrize("route", ROUTES)
def test_compare_checks_every_route_before_a_disagreement(route, monkeypatch):
    # one class's image on one route has a malformed key, so the routes
    # disagree there: the key's error wins over reporting False
    web = Web(3, (1, 2), (Layer("merge", 1, 1, 2),))
    kernel = getattr(tangleinv._TransportPlan, route)

    def one_class_padded(plan, *args):
        image = kernel(plan, *args)
        first = min((i for i, *_ in image), default=None)
        return {
            (i, mu + (0,) * (i == first), images, e): c
            for (i, mu, images, e), c in image.items()
        }

    monkeypatch.setattr(tangleinv._TransportPlan, route, one_class_padded)
    with pytest.raises(ValueError, match="not a composition with 3 parts"):
        compare_theorem13(web)


def _cosets_webs():
    """The 160 one-generator webs with n <= 5 and k = 2..4."""
    return [
        web for k in (2, 3, 4) for n in range(1, 6) for web in special_generator_webs(n, k)
    ]


def test_agreeing_tallies_hold_only_checked_top_table_words():
    # compare_theorem13 checks no key when the routes agree: every word of
    # the translation tally is a top-table word, and the checks pass
    webs = _cosets_webs()
    assert len(webs) == 160
    for web in webs:
        plan = tangleinv._TransportPlan(web)
        top = tangleinv._class_table(web.k, web.top)
        table_words = {(mu, word) for mu, _, words, _ in top.weights() for word in words}
        for weight in tangleinv._class_table(web.k, web.bottom).weights():
            tallies = [getattr(plan, route)(*weight) for route in ROUTES]
            assert {(mu, word) for _, mu, word, _ in tallies[1]} <= table_words
            for tally in tallies:
                plan.check(tally)


def test_one_shifted_matrix_exponent_is_reported_after_every_check(monkeypatch):
    web = Web(4, (1, 1, 1, 1), (Layer("merge", 2, 1, 1),))
    checks = _counting(monkeypatch, tangleinv._TransportPlan, "check")
    assert compare_theorem13(web)
    assert checks == []
    kernel = tangleinv._TransportPlan.matrix

    def one_exponent_off(plan, *args):
        image = kernel(plan, *args)
        if image:
            (i, mu, word, e), c = image.popitem()
            key = (i, mu, word, e + 1)
            image[key] = image.get(key, 0) + c
        return image

    monkeypatch.setattr(tangleinv._TransportPlan, "matrix", one_exponent_off)
    assert not compare_theorem13(web)
    assert len(checks) == 3


# k=2 on three strands: every weight has a column of two or more boxes,
# so a top word in decreasing order is column-strict over none of them
THREE_STRAND_MERGE = Web(2, (1, 1, 1), (Layer("merge", 1, 1, 1),))


def _malformed_image_raises(web, route):
    with pytest.raises(ValueError) as from_compare:
        compare_theorem13(web)
    # the identity class over (1, 2) has a nonzero image on every route
    vec = GrothVector.basis(2, web.bottom, (1, 2), Permutation((1, 2, 3)))
    with pytest.raises(ValueError) as from_map:
        grothendieck_map(web, route=route)(vec)
    return str(from_compare.value), str(from_map.value)


def test_a_box_move_that_is_not_column_strict_raises(monkeypatch):
    assert compare_theorem13(THREE_STRAND_MERGE)
    box_moves = tangleinv._box_moves

    def decreasing(word, mu, layer):
        return [(tuple(sorted(new, reverse=True)), e) for new, e in box_moves(word, mu, layer)]

    monkeypatch.setattr(tangleinv, "_box_moves", decreasing)
    errors = _malformed_image_raises(THREE_STRAND_MERGE, "curly")
    assert errors == ("filling is not column-strict",) * 2


def test_a_translation_image_outside_the_restricted_set_raises(monkeypatch):
    web = THREE_STRAND_MERGE
    longest = Permutation((3, 2, 1))
    assert all(longest not in O_set(mu, web.top) for mu in all_compositions(3, 2))
    pusher = symhecke.TranslationPath._pusher

    def off_the_set(path, mu=None):
        push = pusher(path, mu)
        return lambda terms: [(e, longest.images) for e, _ in push(terms)]

    monkeypatch.setattr(symhecke.TranslationPath, "_pusher", off_the_set)
    for error in _malformed_image_raises(web, "translation"):
        assert "321 does not represent a qualifying coset" in error


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record each call's arguments; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("route", ROUTES)
def test_a_map_runs_its_route_once_per_weight(route, monkeypatch):
    web = THREE_STRAND_MERGE
    table = tangleinv._class_table(web.k, web.bottom)
    assert len(table.classes) > len(table.mus)
    calls = _counting(monkeypatch, tangleinv._TransportPlan, route)
    apply = grothendieck_map(web, route=route)
    for mu, classes, _, _ in table.weights():
        for z in classes:
            apply(GrothVector.basis(web.k, web.bottom, mu, z))
    assert len(calls) == len(table.mus)


def test_classes_are_checked_where_they_enter_the_walls(monkeypatch):
    calls = _counting(monkeypatch, symhecke, "_check_classes")
    for web in _cosets_webs():
        assert compare_theorem13(web)
    assert calls == []
    path = TranslationPath(SPLIT_MERGE_WEB.boundaries)
    assert len(path.steps) == 2
    path.push([(0, e(3))], (1, 1, 1))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# the per-boundary class tables


def _cosets_boundaries():
    """The (k, boundary) pairs of the one-generator webs with n <= 5, k = 2..4."""
    return sorted({(web.k, web.bottom) for web in _cosets_webs()})


@pytest.mark.parametrize("k, nu", _cosets_boundaries())
def test_class_table_matches_the_public_bijections(k, nu):
    basis = TensorBasis(k, nu)
    want = []
    for mu in all_compositions(sum(nu), k):
        classes = sorted(O_set(mu, nu), key=lambda z: z.images)
        if classes:
            fillings = [psi(z, mu, nu) for z in classes]
            want.append((
                mu,
                classes,
                [g.flat() for g in fillings],
                [basis.index(phi(g, k)) for g in fillings],
            ))
    got = [
        (mu, list(classes), sources, list(positions))
        for mu, classes, sources, positions in tangleinv._class_table(k, nu).weights()
    ]
    assert got == want


@pytest.mark.parametrize("k, nu", _cosets_boundaries())
def test_class_table_owner_inverts_positions(k, nu):
    table = tangleinv._class_table(k, nu)
    assert len(table.owner) == len(TensorBasis(k, nu)) == len(table.positions)
    assert [table.owner[p] for p in table.positions] == list(range(len(table.classes)))
    assert sorted(table.positions) == list(range(len(table.owner)))


def test_table_indices_widen_at_two_to_the_sixteen_columns():
    # 4^8 columns: the last class ends at 2^16, one past 16 bits
    wide = tangleinv._class_table.__wrapped__(4, (1,) * 8)
    assert wide.ends[-1] == len(wide.owner) == 1 << 16
    assert {a.typecode for a in (wide.ends, wide.positions, wide.owner)} == {"I"}
    assert [wide.owner[p] for p in wide.positions] == list(range(1 << 16))
    narrow = tangleinv._class_table(4, (2,) + (1,) * 6)
    assert {a.typecode for a in (narrow.ends, narrow.positions, narrow.owner)} == {"H"}


def test_a_table_checks_phi_inverse_when_it_is_built(monkeypatch):
    k, nu = 3, (1, 2)
    assert tangleinv._class_table.__wrapped__(k, nu) == tangleinv._class_table(k, nu)
    phi_inverse_word = tangleinv._phi_inverse_word

    def reversed_word(key, k):
        word, shape = phi_inverse_word(key, k)
        return word[::-1], shape

    monkeypatch.setattr(tangleinv, "_phi_inverse_word", reversed_word)
    with pytest.raises(ValueError, match="phi_inverse does not invert phi"):
        tangleinv._class_table.__wrapped__(k, nu)


def test_a_matrix_row_off_its_weight_is_read_as_its_own_class():
    web = THREE_STRAND_MERGE
    plan = tangleinv._TransportPlan(web)
    matrix = evaluate(web)
    mu, _, _, positions = weight = tangleinv._class_table(web.k, web.bottom).weight(0)
    off = next(key for key in matrix.rows if tangleinv._phi_inverse_word(key, web.k)[1] != mu)
    columns = list(matrix.columns)
    columns[positions[0]] = LinComb({off: LaurentPoly.q_power(1)})
    plan._matrix = QMatrix(matrix.rows, matrix.cols, columns)
    word, shape = tangleinv._phi_inverse_word(off, web.k)
    image = plan.matrix(*weight)
    assert image[0, shape, word, 1] == 1
    assert image != plan.curly(*weight)


def test_a_warm_compare_crosses_no_bijection(monkeypatch):
    webs = [web for n in range(1, 6) for web in special_generator_webs(n, 4)]
    for web in webs:
        assert compare_theorem13(web)
    calls = [
        _counting(monkeypatch, tangleinv, name)
        for name in ("_phi_inverse_word", "_psi_words", "_psi_inverse_word")
    ]
    for web in webs:
        assert compare_theorem13(web)
    assert calls == [[], [], []]


@pytest.mark.parametrize("route", ROUTES)
def test_a_class_outside_the_table_still_raises_on_every_route(route):
    web = THREE_STRAND_MERGE
    assert compare_theorem13(web)
    assert tangleinv._class_table.cache_info().currsize >= 1
    # 132 puts 2 above 3 in the column of (1, 2), so its coset does not qualify
    z = Permutation((1, 3, 2))
    assert z not in O_set((1, 2), web.bottom)
    vec = GrothVector.basis(2, web.bottom, (1, 2), z)
    with pytest.raises(ValueError, match="132 does not represent a qualifying coset"):
        grothendieck_map(web, route=route)(vec)


def test_the_class_tables_stay_at_their_bound():
    boundaries = [
        (k, nu)
        for k in (2, 3, 4)
        for n in range(1, 7)
        for nu in positive_compositions(n)
        if max(nu) <= k
    ]
    assert len(boundaries) > tangleinv._TABLE_BOUND
    for k, nu in boundaries:
        tangleinv._class_table(k, nu)
    assert tangleinv._class_table.cache_info().currsize == tangleinv._TABLE_BOUND
