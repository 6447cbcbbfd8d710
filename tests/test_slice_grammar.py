"""The slice grammar shared by web and tangle sources: one error type,
the same faults reported alike, round trips of random words, the row
keys of random webs' matrices, and the CLI contract on byte-mutated
files."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from moycalc.cli import main
from moycalc.tangleinv import (
    TangleLayer,
    TangleParseError,
    TangleWord,
    parse_tangle,
    special_generator_webs,
)
from moycalc.webgraph import Layer, Web, WebParseError, evaluate, parse_web
from moycalc.weblin import QMatrix, TensorBasis, generator_step

MAX_WIDTH = 4
MAX_LAYERS = 6


def test_the_two_grammars_share_one_error_type():
    assert WebParseError is TangleParseError
    assert issubclass(WebParseError, ValueError)


# (web source, tangle source, keyword arguments, (line, column), reason);
# a reason with a {} slot names the grammar's keyword, every other one is
# grammar-neutral and must read the same in both
SHARED_FAULTS = [
    ("web k=3", "tangle k=3", {}, (1, 1), "malformed {} header"),
    ("web k=x bottom=", "tangle k=x bottom=", {}, (1, 1), "bad rank 'x' in header"),
    ("web k=-1 bottom=", "tangle k=-1 bottom=", {}, (1, 1), "bad rank '-1'"),
    ("web k=1 bottom=", "tangle k=1 bottom=", {}, (1, 1), "need k >= 2, got 1"),
    (
        "# header\n  web k=3 bottom=",
        "# header\n  tangle k=3 bottom=",
        {"bottom": ()},
        (2, 3),
        "the header already declares bottom=; do not also pass bottom",
    ),
    (
        "web k=3 bottom=1,2\n   cap(@0)",
        "tangle k=3 bottom=-+\n   cap(@0)",
        {},
        (2, 4),
        "position must be a positive integer, got '0'",
    ),
    (
        "web k=3 bottom=1,2\ncap(@1); cap(@x)",
        "tangle k=3 bottom=-+\ncap(@1); cap(@x)",
        {},
        (2, 10),
        "position must be a positive integer, got 'x'",
    ),
    (
        "web k=3 bottom=1,2\ncap(@)",
        "tangle k=3 bottom=-+\ncap(@)",
        {},
        (2, 1),
        "position must be a positive integer, got ''",
    ),
]


@pytest.mark.parametrize(
    "web_source, tangle_source, kwargs, where, reason",
    SHARED_FAULTS,
    ids=["malformed", "non-decimal", "signed", "rank-1", "bottom-twice", "@0", "@x", "@"],
)
def test_shared_faults_are_reported_alike(web_source, tangle_source, kwargs, where, reason):
    reasons = []
    for parse, source, keyword in (
        (parse_web, web_source, "web"),
        (parse_tangle, tangle_source, "tangle"),
    ):
        with pytest.raises(WebParseError) as info:
            parse(source, **kwargs)
        assert type(info.value) is WebParseError
        assert (info.value.line, info.value.column) == where
        assert reason.format(keyword) in info.value.reason
        reasons.append(info.value.reason)
    if "{}" not in reason:
        assert reasons[0] == reasons[1]


# ----------------------------------------------------------------------
# random words: at most MAX_WIDTH strands and MAX_LAYERS layers


def _web_moves(k: int, labels: tuple[int, ...]) -> list[Layer]:
    """Every layer that fits on ``labels`` and keeps the web narrow."""
    pairs = sorted({(1, 1), (1, k - 1), (k - 1, 1)})
    candidates = [Layer(kind, pos) for kind in ("cap", "cross+", "cross-")
                  for pos in range(1, len(labels))]
    candidates += [Layer(kind, pos, a, b) for kind in ("merge", "split", "cup")
                   for a, b in pairs for pos in range(1, len(labels) + 2)]
    moves = []
    for layer in candidates:
        try:
            above = generator_step(layer.kind, k, labels, layer.pos, layer.a, layer.b)
        except ValueError:
            continue
        if len(above) <= MAX_WIDTH:
            moves.append(layer)
    return moves


@st.composite
def webs(draw) -> Web:
    k = draw(st.integers(min_value=2, max_value=4))
    labels = sorted({1, 2, k - 1, k})
    bottom = tuple(draw(st.lists(st.sampled_from(labels), max_size=MAX_WIDTH)))
    layers: list[Layer] = []
    top = bottom
    for _ in range(draw(st.integers(min_value=0, max_value=MAX_LAYERS))):
        moves = _web_moves(k, top)
        if not moves:
            break
        layer = draw(st.sampled_from(moves))
        top = generator_step(layer.kind, k, top, layer.pos, layer.a, layer.b)
        layers.append(layer)
    return Web(k, bottom, tuple(layers))


def _tangle_moves(top: tuple[str, ...]) -> list[TangleLayer]:
    """Every layer that fits on ``top`` and keeps the word narrow."""
    width = len(top)
    moves = [TangleLayer(kind, pos) for kind in ("X+", "X-") for pos in range(1, width)]
    moves += [TangleLayer("cap", pos) for pos in range(1, width) if top[pos - 1] != top[pos]]
    if width + 2 <= MAX_WIDTH:
        moves += [TangleLayer("cup", pos, signs) for signs in (("-", "+"), ("+", "-"))
                  for pos in range(1, width + 2)]
    return moves


@st.composite
def tangles(draw, closed: bool = False) -> TangleWord:
    """Random words; a closed one starts empty and caps its top at the end
    (a top reached from nothing always has an opposite adjacent pair)."""
    bottom = () if closed else tuple(draw(st.lists(st.sampled_from("-+"), max_size=MAX_WIDTH)))
    word = TangleWord(bottom, (), draw(st.integers(min_value=2, max_value=4)))
    budget = MAX_LAYERS - MAX_WIDTH // 2 if closed else MAX_LAYERS
    for _ in range(draw(st.integers(min_value=0, max_value=budget))):
        moves = _tangle_moves(word.top)
        if not moves:
            break
        word = TangleWord(word.bottom, word.layers + (draw(st.sampled_from(moves)),), word.k)
    while closed and word.top:
        pos = next(i for i in range(1, len(word.top)) if word.top[i - 1] != word.top[i])
        word = TangleWord(word.bottom, word.layers + (TangleLayer("cap", pos),), word.k)
    return word


@settings(max_examples=150, deadline=None)
@given(webs())
def test_random_webs_round_trip(web):
    assert parse_web(web.text()) == web


@settings(max_examples=150, deadline=None)
@given(tangles())
def test_random_tangles_round_trip(word):
    assert parse_tangle(word.text()) == word


# ----------------------------------------------------------------------
# evaluate adopts its columns without the public row check


def _assert_evaluate_keys_rows(web: Web) -> None:
    """Every column key of ``evaluate(web)`` is a top-basis key, and the
    public constructor rebuilds the same matrix from its columns."""
    matrix = evaluate(web)
    top = TensorBasis(web.k, web.top)
    rows = set(top)
    assert all(column.keys() <= rows for column in matrix.columns)
    assert matrix == QMatrix(top, matrix.cols, [dict(column) for column in matrix.columns])


@settings(max_examples=100, deadline=None)
@given(webs())
def test_random_webs_evaluate_to_top_basis_rows(web):
    _assert_evaluate_keys_rows(web)


def test_one_generator_webs_evaluate_to_top_basis_rows():
    generators = [
        web for k in (2, 3, 4) for n in range(1, 6) for web in special_generator_webs(n, k)
    ]
    assert len(generators) == 160
    for web in generators:
        _assert_evaluate_keys_rows(web)


# ----------------------------------------------------------------------
# the CLI contract on byte-mutated sources

# digits twice over: a changed position or label is the mutation most
# likely to leave a text that parses but no longer fits its boundary
_BYTES = b"0123456789" * 2 + b"k-+,;@()#= \nwebtangleXcupcapmergesplitcross\xff"


@st.composite
def mutated(draw, source: str) -> bytes:
    data = bytearray(source.encode("utf-8"))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        byte = draw(st.sampled_from(_BYTES))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


def _run_cli(command: str, data: bytes, k: int | None) -> tuple[int, str, str]:
    with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as handle:
        handle.write(data)
    argv = [command, "--file", handle.name] + ([] if k is None else ["--k", str(k)])
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.unlink(handle.name)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code: int, out: str, err: str) -> None:
    assert code in (0, 2)
    assert "Traceback" not in out + err
    if code == 0:
        assert out and not err
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_eval_web_keeps_its_contract_on_mutated_files(data):
    source = data.draw(webs()).text()
    k = data.draw(st.sampled_from([None, 2, 3, 4]))
    _assert_contract(*_run_cli("eval-web", data.draw(mutated(source)), k))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_link_poly_keeps_its_contract_on_mutated_files(data):
    source = data.draw(tangles(closed=data.draw(st.booleans()))).text()
    k = data.draw(st.sampled_from([None, 2, 3, 4]))
    _assert_contract(*_run_cli("link-poly", data.draw(mutated(source)), k))
