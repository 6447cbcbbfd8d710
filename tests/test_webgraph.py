"""Web language: parsing, evaluation, functoriality, mirror law, relations."""

from __future__ import annotations

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from moycalc import webgraph
from moycalc.qlaurent import LaurentPoly, quantum_int
from moycalc.reporting import Report, all_passed, render_reports
from moycalc.weblin import (
    QMatrix,
    TensorBasis,
    cap_matrix,
    cross_matrix_at,
    cup_matrix,
    hecke_E,
    intertwiner_matrix,
    split_matrix,
)
from moycalc.webgraph import (
    Layer,
    Web,
    WebParseError,
    circle_web,
    digon_web,
    double_wall_web,
    e_web,
    evaluate,
    evaluate_closed,
    layer_matrix,
    mirror_conjugate,
    mirror_exponent,
    mirror_web,
    parse_web,
    relation_iii_web,
    relation_iv_web,
    square_web_matrix,
    stack_webs,
    tensor_webs,
    theta_web,
    verify_moy,
)


def qp(m: int) -> LaurentPoly:
    return LaurentPoly.q_power(m)


def identity_on(k: int, labels: tuple[int, ...]) -> QMatrix:
    return QMatrix.identity(TensorBasis(k, labels))


# ----------------------------------------------------------------------
# layers and web construction


def test_layer_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown layer kind"):
        Layer("twist", 1)


def test_layer_rejects_bad_position():
    with pytest.raises(ValueError, match="position"):
        Layer("merge", 0, 1, 1)


@pytest.mark.parametrize(
    "args, reason",
    [
        (("cup", True, 1, 2), "layer position must be a positive integer"),
        (("cup", 1.0, 1, 2), "layer position must be a positive integer"),
        (("cup", 1, True, 2), "labels must be positive"),
        (("cup", 1, 1.0, 2.0), "labels must be positive"),
    ],
)
def test_layer_takes_only_plain_positive_ints(args, reason):
    # a bool position rendered as cup(1,2@True), which parse_web rejects,
    # and float labels failed later inside local_map
    with pytest.raises(ValueError, match=reason):
        Layer(*args)


def test_layer_label_arity():
    with pytest.raises(ValueError, match="label pair"):
        Layer("merge", 1)
    with pytest.raises(ValueError, match="takes no labels"):
        Layer("cap", 1, 1, 2)
    with pytest.raises(ValueError, match="takes no labels"):
        Layer("cross+", 1, 1, 1)


def test_web_boundaries_walk():
    web = relation_iii_web(3)
    assert web.boundaries == (
        (1, 3),
        (1, 1, 2),
        (2, 2),
        (1, 1, 2),
        (1, 3),
    )
    assert web.top == (1, 3)


def test_web_rejects_bad_bottom_label():
    with pytest.raises(ValueError, match="bottom label"):
        Web(4, (5,), ())


def test_web_rejects_label_outside_special_set():
    # at k=5 the allowed labels are {1, 2, 4, 5}
    with pytest.raises(ValueError, match="bottom label 3"):
        Web(5, (3,), ())


@pytest.mark.parametrize("label", [True, 1.0])
def test_web_bottom_labels_are_exact_ints(label):
    # True == 1 and 1.0 == 1 pass the label-set test, so the type is checked first
    with pytest.raises(ValueError, match=f"bottom label must be an int, got {label!r}"):
        Web(3, (label, 2))


def test_web_rejects_small_rank():
    with pytest.raises(ValueError, match="rank k"):
        Web(1, (1,), ())


@pytest.mark.parametrize("k", [3.0, True, "3"])
def test_web_rejects_a_rank_that_is_not_an_int(k):
    with pytest.raises(ValueError, match=f"web rank k must be an int, got {k!r}"):
        Web(k, (1, 2))


STOCK_WEBS = {
    "digon": lambda k: digon_web(k, 1, 1),
    "circle": circle_web,
    "theta": theta_web,
    "e": lambda k: e_web(k, 3, 1),
    "relation-iii": relation_iii_web,
    "relation-iv": relation_iv_web,
    "double-wall": double_wall_web,
}


@pytest.mark.parametrize("k", [2.0, True, "3"])
@pytest.mark.parametrize("build", STOCK_WEBS.values(), ids=STOCK_WEBS)
def test_stock_webs_check_their_rank_first(build, k):
    with pytest.raises(ValueError, match=f"web rank k must be an int, got {k!r}"):
        build(k)


@pytest.mark.parametrize("build", STOCK_WEBS.values(), ids=STOCK_WEBS)
def test_stock_webs_reject_a_small_rank_as_web_does(build):
    with pytest.raises(ValueError, match="web rank k must be >= 2, got 1"):
        build(1)


def test_web_layer_errors_name_the_layer():
    with pytest.raises(ValueError, match="layer 1: merge"):
        Web(3, (1, 1, 2), (Layer("merge", 2, 1, 1),))
    with pytest.raises(ValueError, match="layer 2: .*out of range"):
        Web(3, (2,), (Layer("split", 1, 1, 1), Layer("cap", 2)))


def test_web_rejects_inadmissible_pair():
    with pytest.raises(ValueError, match="not admissible"):
        Web(4, (2, 2), (Layer("merge", 1, 2, 2),))


# ----------------------------------------------------------------------
# parsing


def test_parse_circle_fragment():
    web = parse_web("cup(1,k-1); cap(1,k-1)", k=3)
    assert web.bottom == ()
    assert web.top == ()
    assert web.layers == (Layer("cup", 1, 1, 2), Layer("cap", 1))
    assert evaluate_closed(web) == quantum_int(3)


def test_parse_digon_fragment_on_given_bottom():
    web = parse_web("split(1,1@1); merge(1,1@1)", k=3, bottom=(2,))
    assert web == digon_web(3, 1, 1)
    assert evaluate(web) == quantum_int(2) * identity_on(3, (2,))


def test_parse_rejects_one_label_split():
    with pytest.raises(WebParseError, match="two comma-separated labels"):
        parse_web("split(2@1)", k=3, bottom=(2,))


def test_parse_rejects_one_label_merge_with_position():
    with pytest.raises(WebParseError) as info:
        parse_web("merge(2@9)", k=3, bottom=(2,))
    assert info.value.line == 1
    assert info.value.column == 1
    assert "line 1, column 1" in str(info.value)


def test_parse_full_file_roundtrip():
    source = """\
# a digon taped onto a pair of strands
web k=3 bottom=1,k

split(1,k-1@2)
merge(1,1@1); split(1,1@1)   # the middle wall
merge(1,k-1@2)
"""
    web = parse_web(source)
    assert web == relation_iii_web(3)
    assert parse_web(web.text()) == web


def test_parse_header_resolves_symbols():
    web = parse_web("web k=4 bottom=1,k-1,k")
    assert web.k == 4
    assert web.bottom == (1, 3, 4)


def test_parse_argument_overrides_header_rank():
    web = parse_web("web k=3 bottom=k", k=4)
    assert web.k == 4
    assert web.bottom == (4,)


def test_parse_rejects_bottom_argument_with_header():
    with pytest.raises(ValueError, match="do not also pass"):
        parse_web("web k=3 bottom=2", bottom=(2,))


def test_parse_missing_header_needs_rank():
    with pytest.raises(WebParseError, match="missing web header"):
        parse_web("cup(1,k-1)")


def test_parse_empty_source():
    with pytest.raises(WebParseError, match="empty web source"):
        parse_web("  \n# nothing but a comment\n")


def test_parse_rank_out_of_range():
    with pytest.raises(WebParseError, match="k out of range"):
        parse_web("web k=1 bottom=1")


def test_parse_malformed_header():
    with pytest.raises(WebParseError, match="malformed web header"):
        parse_web("web bottom=1 k=3")


def test_parse_error_carries_position():
    source = "web k=3 bottom=2\nsplit(1,1@1)\nmerge(1,1@5)\n"
    with pytest.raises(WebParseError) as info:
        parse_web(source)
    assert info.value.line == 3
    assert info.value.column == 1


def test_parse_error_column_after_semicolon():
    with pytest.raises(WebParseError) as info:
        parse_web("split(1,1@1); merge(1,1@5)", k=3, bottom=(2,))
    assert info.value.line == 1
    assert info.value.column == 15


def test_parse_bad_position_text():
    with pytest.raises(WebParseError, match="position must be a positive"):
        parse_web("cap(@0)", k=3, bottom=(1, 2))
    with pytest.raises(WebParseError, match="position must be a positive"):
        parse_web("cap(@x)", k=3, bottom=(1, 2))


def test_parse_unknown_label():
    with pytest.raises(WebParseError, match="unrecognized label"):
        parse_web("merge(1,j@1)", k=3, bottom=(1, 2))


def test_parse_unknown_generator():
    with pytest.raises(WebParseError, match="unrecognized layer"):
        parse_web("twist(@1)", k=3, bottom=(1, 1))


def test_parse_cap_declared_labels_checked():
    assert parse_web("cap(1,k-1@1)", k=3, bottom=(1, 2)).top == ()
    with pytest.raises(WebParseError, match="cap labels"):
        parse_web("cap(k-1,1@1)", k=3, bottom=(1, 2))


def test_parse_position_defaults_to_one():
    web = parse_web("split(1,k-1)", k=3, bottom=(3,))
    assert web.layers == (Layer("split", 1, 1, 2),)


def test_parse_semicolons_and_newlines_agree():
    a = parse_web("split(1,1@1); merge(1,1@1)", k=2, bottom=(2,))
    b = parse_web("split(1,1@1)\nmerge(1,1@1)", k=2, bottom=(2,))
    assert a == b


def test_parse_types_each_layer_once(monkeypatch):
    calls = []
    step = webgraph.generator_step

    def counting(*args, **kwargs):
        calls.append(args[0])
        return step(*args, **kwargs)

    monkeypatch.setattr(webgraph, "generator_step", counting)
    web = relation_iii_web(3)
    calls.clear()
    assert parse_web(web.text()) == web
    assert calls == [layer.kind for layer in web.layers]


@pytest.mark.parametrize(
    "source, kwargs, where, reason",
    [
        ("web k=5 bottom=1,3\nsplit(1,k-1@2)", {}, (1, 1), "bottom label 3"),
        ("merge(1,1@1)", {"k": 5, "bottom": (3, 1)}, (1, 1), "bottom label 3"),
        ("merge(k-1,1)", {"k": 1, "bottom": ()}, (1, 1), "k out of range"),
        (
            "web k=3 bottom=2\n  split(1,1@1); merge(1,1@1); cap(@1)",
            {},
            (2, 31),
            "cap position 1 out of range",
        ),
        (
            "web k=3 bottom=1,2\ncup(1,k-1@3)\n cap(k-1,1@1)",
            {},
            (3, 2),
            "cap labels",
        ),
        (
            "cup(1,k-1@1); cap(1,2@1); merge(1,1@1)",
            {"k": 3},
            (1, 27),
            "merge position 1 out of range",
        ),
        ("cap(1@1)", {"k": 3, "bottom": (1, 2)}, (1, 1), "cap expects no labels or a label pair"),
        ("cross+(1,1@1)", {"k": 3, "bottom": (1, 1)}, (1, 1), r"cross\+ takes no labels"),
    ],
)
def test_parse_errors_keep_line_and_column(source, kwargs, where, reason):
    with pytest.raises(WebParseError, match=reason) as info:
        parse_web(source, **kwargs)
    assert (info.value.line, info.value.column) == where


# ----------------------------------------------------------------------
# evaluation


def test_identity_web_evaluates_to_identity():
    for k, labels in ((2, (1, 1)), (3, (1, 2)), (4, (3, 4, 1))):
        assert evaluate(Web(k, labels, ())) == identity_on(k, labels)


def test_wide_open_web_is_evaluated_and_printed_sparsely():
    # 6 strands at k=4 give 4096 basis keys: a dense 4096 x 4096 grid of
    # polynomials would take hundreds of MiB, the sparse columns a few
    tracemalloc.start()
    try:
        matrix = evaluate(Web(4, (1,) * 6, ()))
        text = str(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix == identity_on(4, (1,) * 6)
    assert text.startswith("QMatrix 4096x4096\n")
    assert text.count("\n") == 4096
    assert peak < 32 * 2**20


@pytest.mark.parametrize("k", [2, 3, 4])
def test_digon_webs_give_quantum_factors(k):
    ident = identity_on(k, (k,))
    assert evaluate(digon_web(k, 1, k - 1)) == quantum_int(k) * ident
    assert evaluate(digon_web(k, k - 1, 1)) == quantum_int(k) * ident
    assert evaluate(digon_web(k, 1, 1)) == quantum_int(2) * identity_on(k, (2,))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_circle_scalar(k):
    assert evaluate_closed(circle_web(k)) == quantum_int(k)
    assert evaluate_closed(circle_web(k, a=k - 1)) == quantum_int(k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_two_disjoint_circles(k):
    both = tensor_webs(circle_web(k), circle_web(k))
    assert evaluate_closed(both) == quantum_int(k) * quantum_int(k)


def test_two_circles_written_out():
    source = "cup(1,k-1@1); cup(1,k-1@3); cap(@3); cap(@1)"
    web = parse_web(source, k=3)
    assert evaluate_closed(web) == quantum_int(3) * quantum_int(3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_theta_golden_value(k):
    assert evaluate_closed(theta_web(k)) == quantum_int(k) * quantum_int(k)


def test_theta_golden_text():
    assert str(evaluate_closed(theta_web(3))) == "q^4 + 2q^2 + 3 + 2q^-2 + q^-4"


def test_evaluate_closed_requires_empty_boundary():
    with pytest.raises(ValueError, match="closed web required"):
        evaluate_closed(digon_web(3, 1, 2))


# ----------------------------------------------------------------------
# functoriality on randomized well-typed webs

_MOVE_POOL = [
    ("merge", (1, 1)),
    ("merge", (1, None)),  # (1, k-1)
    ("merge", (None, 1)),
    ("split", (1, 1)),
    ("split", (1, None)),
    ("split", (None, 1)),
    ("cup", (1, None)),
    ("cup", (None, 1)),
    ("cap", None),
    ("cross+", None),
    ("cross-", None),
]


def _legal_layers(web: Web) -> list[Layer]:
    """All single layers that extend ``web`` to a well-typed web."""
    k, labels = web.k, web.top
    found = []
    for kind, pair in _MOVE_POOL:
        if pair is None:
            args = (None, None)
        else:
            args = tuple(k - 1 if v is None else v for v in pair)
        max_pos = len(labels) + (2 if kind == "cup" else 0)
        for pos in range(1, max_pos + 1):
            try:
                candidate = Layer(kind, pos, *args) if pair else Layer(kind, pos)
                Web(k, web.bottom, web.layers + (candidate,))
            except ValueError:
                continue
            found.append(candidate)
    return found


@st.composite
def small_webs(
    draw,
    k: int | None = None,
    bottom: tuple[int, ...] | None = None,
    max_width: int = 5,
    max_layers: int = 4,
):
    rank = k if k is not None else draw(st.sampled_from([2, 3]))
    if bottom is None:
        bottom = tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted({1, rank - 1, rank})),
                    min_size=0,
                    max_size=min(2, max_width),
                )
            )
        )
    web = Web(rank, bottom, ())
    for _ in range(draw(st.integers(min_value=0, max_value=max_layers))):
        moves = _legal_layers(web)
        if len(web.top) + 2 > max_width:
            moves = [m for m in moves if m.kind != "cup"]
        if not moves:
            break
        layer = draw(st.sampled_from(moves))
        web = Web(rank, web.bottom, web.layers + (layer,))
    return web


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_stacking_matches_matrix_product(data):
    lower = data.draw(small_webs())
    upper = data.draw(small_webs(k=lower.k, bottom=lower.top))
    stacked = stack_webs(lower, upper)
    assert stacked.bottom == lower.bottom
    assert stacked.top == upper.top
    assert evaluate(stacked) == evaluate(upper) @ evaluate(lower)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tensor_matches_kronecker_product(data):
    # narrow webs: the dense Kronecker grid is quadratic in each factor
    k = data.draw(st.sampled_from([2, 3]))
    left = data.draw(small_webs(k=k, max_width=2, max_layers=3))
    right = data.draw(small_webs(k=k, max_width=2, max_layers=3))
    side_by_side = tensor_webs(left, right)
    assert side_by_side.bottom == left.bottom + right.bottom
    assert side_by_side.top == left.top + right.top
    assert evaluate(side_by_side) == evaluate(left).tensor(evaluate(right))


def dense_layer_product(web: Web) -> QMatrix:
    """The reference evaluation: the product of whole-boundary layer
    matrices."""
    matrix = identity_on(web.k, web.bottom)
    for layer, labels in zip(web.layers, web.boundaries):
        matrix = layer_matrix(layer, web.k, labels) @ matrix
    return matrix


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_evaluation_matches_dense_layer_product(data):
    k = data.draw(st.sampled_from([2, 3, 4]))
    web = data.draw(small_webs(k=k, max_width=4, max_layers=6))
    assert evaluate(web) == dense_layer_product(web)


def _constructor_matrix(layer: Layer, k: int, labels: tuple[int, ...]) -> QMatrix:
    """The weblin constructor that takes exactly the layer's data."""
    if layer.kind == "merge":
        return intertwiner_matrix(f"merge({layer.a},{layer.b})", k, labels, layer.pos)
    if layer.kind == "split":
        return split_matrix(k, labels, layer.pos, layer.a, layer.b)
    if layer.kind == "cup":
        return cup_matrix(k, labels, layer.pos, layer.a, layer.b)
    if layer.kind == "cap":
        return cap_matrix(k, labels, layer.pos)
    return cross_matrix_at(layer.kind[-1], k, labels, layer.pos)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_web_typing_agrees_with_the_constructors(k):
    # every generator at every position of every boundary of width <= 3
    # over {1, 2, k-1, k}: a one-layer web fits exactly when the matrix
    # constructor accepts the same data, and then the two agree
    allowed = sorted({1, 2, k - 1, k})
    checked = accepted = 0
    for width in range(4):
        for labels in product(allowed, repeat=width):
            for pos in range(1, width + 3):
                layers = [Layer(kind, pos) for kind in ("cap", "cross+", "cross-")]
                layers += [
                    Layer(kind, pos, a, b)
                    for kind in ("merge", "split", "cup")
                    for a in range(1, k + 1)
                    for b in range(1, k + 1)
                ]
                for layer in layers:
                    checked += 1
                    try:
                        web = Web(k, labels, (layer,))
                    except ValueError:
                        with pytest.raises(ValueError):
                            _constructor_matrix(layer, k, labels)
                        continue
                    accepted += 1
                    matrix = _constructor_matrix(layer, k, labels)
                    assert evaluate(web) == matrix == layer_matrix(layer, k, labels)
    assert accepted and accepted < checked


def test_stack_rejects_mismatched_boundaries():
    with pytest.raises(ValueError, match="cannot stack"):
        stack_webs(digon_web(3, 1, 2), Web(3, (1, 2), ()))


@pytest.mark.parametrize("join", [stack_webs, tensor_webs])
def test_stack_and_tensor_reject_mismatched_ranks(join):
    with pytest.raises(ValueError, match="rank mismatch: 2 vs 3") as info:
        join(Web(2, (1,)), Web(3, (1,)))
    assert type(info.value) is ValueError


# ----------------------------------------------------------------------
# the mirror law


def test_mirror_of_relation_iii_web():
    assert mirror_web(relation_iii_web(3)) == Web(
        3,
        (3, 1),
        (
            Layer("split", 1, 2, 1),
            Layer("merge", 2, 1, 1),
            Layer("split", 2, 1, 1),
            Layer("merge", 1, 2, 1),
        ),
    )


def test_mirror_is_an_involution():
    for web in (
        relation_iii_web(3),
        relation_iv_web(3),
        circle_web(3),
        theta_web(2),
        parse_web("cross+(@1); cross-(@1)", k=3, bottom=(1, 1)),
    ):
        assert mirror_web(mirror_web(web)) == web


def test_mirror_swaps_crossing_signs():
    web = parse_web("cross+(@1)", k=2, bottom=(1, 1))
    assert mirror_web(web).layers == (Layer("cross-", 1),)


def test_mirror_exponent_examples():
    assert mirror_exponent(relation_iii_web(3)) == 0
    assert mirror_exponent(digon_web(4, 1, 3)) == 0
    cup_only = Web(3, (), (Layer("cup", 1, 1, 2),))
    assert mirror_exponent(cup_only) == 2
    cap_only = Web(3, (1, 2), (Layer("cap", 1),))
    assert mirror_exponent(cap_only) == -2


@pytest.mark.parametrize("k", [2, 3])
def test_mirror_law_on_relation_iii_pair(k):
    web = relation_iii_web(k)
    assert evaluate(mirror_web(web)) == mirror_conjugate(web)


def test_mirror_law_on_a_cup():
    web = Web(3, (), (Layer("cup", 1, 1, 2),))
    assert evaluate(mirror_web(web)) == mirror_conjugate(web)


def test_mirror_law_on_a_crossing():
    web = parse_web("cross+(@1)", k=3, bottom=(1, 1))
    assert evaluate(mirror_web(web)) == mirror_conjugate(web)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mirror_law_randomized(data):
    web = data.draw(small_webs())
    assert evaluate(mirror_web(web)) == mirror_conjugate(web)


# ----------------------------------------------------------------------
# the five relations


def test_square_web_matrix_is_zero():
    for k in (2, 3, 4):
        square = square_web_matrix(k)
        assert square.is_zero()
        assert square.shape == (k, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_square_web_matrix_is_the_zero_matrix_on_its_boundary(k):
    basis = TensorBasis(k, (1, k))
    assert square_web_matrix(k) == QMatrix(basis, basis, [{}] * len(basis))


@pytest.mark.parametrize("k", [2, 3])
def test_relation_iii_exact(k):
    lhs = evaluate(relation_iii_web(k))
    rhs = square_web_matrix(k) + quantum_int(k - 1) * identity_on(k, (1, k))
    assert lhs == rhs


@pytest.mark.parametrize("k", [2, 3])
def test_relation_iv_exact(k):
    lhs = evaluate(relation_iv_web(k))
    wall = evaluate(double_wall_web(k))
    rhs = identity_on(k, (k, 1, k - 1)) + quantum_int(k - 2) * wall
    assert lhs == rhs


def test_relation_iv_degenerates_at_rank_two():
    assert evaluate(relation_iv_web(2)) == identity_on(2, (2, 1, 1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_e_webs_match_hecke_operators(k):
    for s in (1, 2):
        assert evaluate(e_web(k, 3, s)) == hecke_E(s, 3, k)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_moy_all_pass(k):
    reports = verify_moy(k)
    assert [r.check for r in reports] == [
        f"moy-I-k{k}",
        f"moy-II-k{k}",
        f"moy-III-k{k}",
        f"moy-IV-k{k}",
        f"moy-V-k{k}",
    ]
    assert all_passed(reports)


def test_verify_moy_rank_four():
    reports = {r.check: r for r in verify_moy(4)}
    assert reports["moy-I-k4"].passed
    assert reports["moy-II-k4"].passed
    assert reports["moy-V-k4"].passed
    # the remaining two hold at rank four as well
    assert all(r.passed for r in reports.values())


def test_verify_moy_rejects_small_rank():
    with pytest.raises(ValueError, match="rank k"):
        verify_moy(1)


def test_report_rendering():
    reports = verify_moy(2)
    text = render_reports(reports)
    assert "PASS moy-I-k2" in text
    records = render_reports(reports, fmt="records")
    assert "check=moy-I-k2 passed=true" in records
    failing = Report(check="x", anchor="a claim", passed=False, witness="w")
    assert failing.line() == "FAIL x: a claim [w]"
    with pytest.raises(ValueError, match="unknown format"):
        render_reports(reports, fmt="json")


def test_report_of_failures_names_every_failed_case_in_order():
    held = Report.of_failures("c", "a claim", [], "3 cases")
    assert held == Report(check="c", anchor="a claim", passed=True, witness="3 cases")
    failed = Report.of_failures("c", "a claim", ["x|1", "y|2"], "3 cases")
    assert failed.line() == "FAIL c: a claim [failed at x|1, y|2]"


def test_verify_moy_fails_only_the_relation_a_mutant_breaks(monkeypatch):
    # a square web that does not vanish breaks relation III alone
    monkeypatch.setattr(
        webgraph, "square_web_matrix", lambda k: QMatrix.identity(TensorBasis(k, (1, k)))
    )
    reports = verify_moy(3)
    assert [r.check for r in reports if not r.passed] == ["moy-III-k3"]
