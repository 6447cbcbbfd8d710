"""Web diagrams as slice sequences.

A web is a rectangular diagram read bottom to top: an ordered bottom
boundary of labelled strands (labels in {1, 2, k-1, k}, each strand a
fundamental exterior power of the rank-k vector representation), and an
ordered list of layers.  Each layer applies one generator at an explicit
strand position and leaves the other strands alone; the boundary is
re-typed after every layer, so ill-matched generators are rejected with
the offending layer.  Isotopy of diagrams is deliberately NOT quotiented:
two webs count as equal exactly when they are the same slice sequence,
and semantic comparisons go through ``evaluate``.

Grammar (frozen; line-oriented, semicolons also separate layers)::

    web k=<int> bottom=<comma-separated labels>
    merge(<a>,<b>@<pos>)
    split(<a>,<b>@<pos>)
    cup(<a>,<b>@<pos>)
    cap(@<pos>)
    cross+(@<pos>)
    cross-(@<pos>)

Labels are positive integers or the symbols ``k`` and ``k-1``; ``@<pos>``
defaults to position 1; ``cap`` also accepts an optional label pair which
is validated against the running boundary; ``#`` starts a comment.  The
header line may be omitted when ``k`` (and, for nonempty boundaries,
``bottom``) are passed to :func:`parse_web` directly.  Merge and split
always spell out both small labels — one-label forms such as
``merge(2@1)`` are syntax errors.   Merges and splits are restricted to
the label pairs (1,1), (1,k-1) and (k-1,1); cups and caps create or
close a pair (1,k-1) or (k-1,1) whose shared k-edge stays implicit.

The header (its rank in decimal digits), ``@<pos>``, comments and
separators are the slice grammar that ``tangleinv.parse_tangle`` reads
through the same helpers; both raise :class:`WebParseError`.

``evaluate`` pushes a sparse state through each layer's local window
map, bottom to top, and is functorial for stacking and side-by-side
placement; ``evaluate_closed`` extracts the scalar of a web with empty
boundaries (a circle gives the quantum integer [k]).  ``verify_moy`` re-checks the five defining local
relations of the calculus at a given rank and returns one report per
relation.  ``mirror_web`` reflects a web in a vertical axis; the
evaluation of the mirror is the bar-conjugate of the original under the
reversal-of-factors maps, up to an explicit power of q returned by
``mirror_exponent`` — this is checked, not assumed, by the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .qlaurent import LaurentPoly, _check_int, quantum_int
from .reporting import Report
from .weblin import (
    INPUT_SPANS,
    QMatrix,
    TensorBasis,
    _generator_matrix,
    _lift,
    _lift_columns,
    _resolve_label,
    apply_window,
    generator_step,
    local_map,
    reversal_matrix,
)

__all__ = [
    "WebParseError",
    "Layer",
    "Web",
    "parse_web",
    "slice_chunks",
    "layer_matrix",
    "evaluate",
    "evaluate_closed",
    "stack_webs",
    "tensor_webs",
    "mirror_web",
    "mirror_exponent",
    "mirror_conjugate",
    "digon_web",
    "circle_web",
    "theta_web",
    "e_web",
    "square_web_matrix",
    "relation_iii_web",
    "relation_iv_web",
    "double_wall_web",
    "verify_moy",
]


class WebParseError(ValueError):
    """A web or tangle source error, located by (1-based) line and column.

    Both slice grammars raise it; ``tangleinv.TangleParseError`` is this
    class under its tangle name.
    """

    def __init__(self, reason: str, line: int, column: int) -> None:
        self.reason = reason
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {reason}")


class _LayerError(ValueError):
    """An ill-typed layer of a web or tangle word, by its 1-based index."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"layer {index}: {reason}")
        self.index = index
        self.reason = reason


class _SliceWord:
    """What webs and tangle words share: the walk that types their layers
    bottom to top, recording ``boundaries`` (``boundaries[i]`` is the
    boundary below layer ``i``; the last entry is the top)."""

    def _walk(self, step: Callable) -> None:
        """Type each layer with ``step(boundary below, layer)``; a
        ValueError it raises becomes a ``_LayerError`` naming the layer."""
        bounds = [self.bottom]
        for i, layer in enumerate(self.layers, start=1):
            try:
                bounds.append(step(bounds[-1], layer))
            except ValueError as exc:
                raise _LayerError(i, str(exc)) from None
        object.__setattr__(self, "boundaries", tuple(bounds))

    @property
    def top(self) -> tuple:
        return self.boundaries[-1]

    def _text(self, keyword: str, bottom: str) -> str:
        """Render back to the slice grammar: the header (when the rank is
        set), then one layer per line."""
        header = [] if self.k is None else [f"{keyword} k={self.k} bottom={bottom}"]
        return "\n".join([*header, *(layer.text() for layer in self.layers)])


def _positive_int(value: object) -> bool:
    """The check of web and tangle layers: a plain ``int`` of at least 1."""
    return type(value) is int and value >= 1


def _check_position(pos: object) -> None:
    if not _positive_int(pos):
        raise ValueError(
            f"layer position must be a positive integer, got {pos!r}"
        )


# ----------------------------------------------------------------------
# layers and webs

_LAYER_KINDS = ("merge", "split", "cup", "cap", "cross+", "cross-")
_LABELLED_KINDS = ("merge", "split", "cup")
_MIRROR_KINDS = {"cross+": "cross-", "cross-": "cross+"}


@dataclass(frozen=True)
class Layer:
    """One slice of a web: a generator at a 1-based strand position.

    ``merge``, ``split`` and ``cup`` carry their pair of small labels
    (a, b); ``cap`` and the crossings carry none (a cap closes whatever
    admissible pair it finds, a crossing needs labels (1,1)).
    """

    kind: str
    pos: int
    a: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        _check_position(self.pos)
        if self.kind in _LABELLED_KINDS:
            if self.a is None or self.b is None:
                raise ValueError(f"{self.kind} requires a label pair")
            if not (_positive_int(self.a) and _positive_int(self.b)):
                raise ValueError(
                    f"{self.kind} labels must be positive, "
                    f"got ({self.a},{self.b})"
                )
        elif self.a is not None or self.b is not None:
            raise ValueError(f"{self.kind} takes no labels")

    def text(self) -> str:
        if self.kind in _LABELLED_KINDS:
            return f"{self.kind}({self.a},{self.b}@{self.pos})"
        return f"{self.kind}(@{self.pos})"


@dataclass(frozen=True)
class Web(_SliceWord):
    """A type-checked web: rank, bottom boundary, and layers bottom-up.

    Construction walks the layers and records every intermediate
    boundary in ``boundaries``.  A generator that does not fit its
    boundary raises ValueError naming the 1-based layer.
    """

    k: int
    bottom: tuple[int, ...]
    layers: tuple[Layer, ...] = ()
    boundaries: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "bottom", tuple(self.bottom))
        object.__setattr__(self, "layers", tuple(self.layers))
        _check_int(self.k, "web rank k", 2)
        allowed = {1, 2, self.k - 1, self.k}
        for label in self.bottom:
            if label not in allowed:
                raise ValueError(
                    f"bottom label {label} not in {{1,2,k-1,k}} for k={self.k}"
                )
        self._walk(
            lambda labels, layer: generator_step(
                layer.kind, self.k, labels, layer.pos, layer.a, layer.b
            )
        )

    def text(self) -> str:
        """Render back to the grammar; ``parse_web`` round-trips it."""
        return self._text("web", ",".join(str(a) for a in self.bottom))


# ----------------------------------------------------------------------
# parsing

_HEADER_SYNTAX = "web k=<int> bottom=<labels>"
_LAYER_RE = re.compile(
    r"^(merge|split|cup|cap|cross\+|cross-)\s*\(\s*([^()]*?)\s*\)$"
)


def _read_header(
    chunks: list[tuple[str, int, int]], syntax: str, bottom: object
) -> tuple[int | None, str | None, int, int]:
    """The optional header on the first chunk, of the form ``syntax``
    (``<keyword> k=<int> bottom=<list>``): its decimal rank, its bottom
    text and its (line, column).  Without a header, rank and text are None
    and the position is the first chunk's ((1, 1) for no chunk).  A header
    and a ``bottom`` argument exclude each other."""
    keyword = syntax.split()[0]
    text, line, col = chunks[0] if chunks else ("", 1, 1)
    if not text.startswith(keyword):
        return None, None, line, col
    match = re.fullmatch(
        rf"{keyword}\s+k\s*=\s*(\S+)\s+bottom\s*=\s*(.*)", text
    )
    if not match:
        raise WebParseError(
            f"malformed {keyword} header; expected {syntax!r}", line, col
        )
    rank, bottom_text = match.groups()
    if not rank.isdecimal():
        raise WebParseError(f"bad rank {rank!r} in header", line, col)
    if bottom is not None:
        raise WebParseError(
            "the header already declares bottom=; do not also pass bottom",
            line,
            col,
        )
    return int(rank), bottom_text, line, col


def _at_position(args: str, line: int, col: int) -> tuple[str, int]:
    """Layer arguments ``<rest>@<pos>``: the stripped rest and the
    position, 1 when no ``@`` is written."""
    rest, at_sign, pos = args.partition("@")
    pos = pos.strip()
    if at_sign and (not pos.isdecimal() or int(pos) < 1):
        raise WebParseError(
            f"position must be a positive integer, got {pos!r}", line, col
        )
    return rest.strip(), int(pos) if at_sign else 1


def _located(
    build: Callable[[], object], body: list[tuple[str, int, int]], line: int, col: int
):
    """``build()`` on the layers read from the chunks ``body``, with a
    ``_LayerError`` raised as a parse error at its layer's chunk and any
    other ValueError at (line, col)."""
    try:
        return build()
    except _LayerError as err:
        raise WebParseError(err.reason, *body[err.index - 1][1:]) from None
    except ValueError as err:
        raise WebParseError(str(err), line, col) from None


def _labels(text: str, k: int, line: int, col: int) -> tuple[int, ...]:
    """A comma-separated label list; blank text is the empty list."""
    text = text.strip()
    if not text:
        return ()
    tokens = text.split(",")
    if any(not t.strip() for t in tokens):
        raise WebParseError(f"empty label in {text!r}", line, col)
    try:
        return tuple(_resolve_label(t, k) for t in tokens)
    except ValueError as exc:
        raise WebParseError(str(exc), line, col) from None


def _parse_layer(
    chunk: str, k: int, line: int, col: int
) -> tuple[Layer, tuple[int, ...]]:
    """Parse one layer; also return the labels it spells out."""
    match = _LAYER_RE.match(chunk)
    if not match:
        raise WebParseError(
            f"unrecognized layer {chunk!r}; expected merge(a,b@p), "
            f"split(a,b@p), cup(a,b@p), cap(@p), cross+(@p) or cross-(@p)",
            line,
            col,
        )
    kind = match.group(1)
    labels_text, pos = _at_position(match.group(2), line, col)
    values = _labels(labels_text, k, line, col)
    if kind in _LABELLED_KINDS:
        if len(values) != 2:
            raise WebParseError(
                f"{kind} expects two comma-separated labels, "
                f"got {len(values)} in {chunk!r}",
                line,
                col,
            )
        return Layer(kind, pos, values[0], values[1]), values
    if kind == "cap":
        if values and len(values) != 2:
            raise WebParseError(
                f"cap expects no labels or a label pair, got {chunk!r}",
                line,
                col,
            )
        return Layer("cap", pos), values
    if values:
        raise WebParseError(f"{kind} takes no labels, got {chunk!r}", line, col)
    return Layer(kind, pos), values


def slice_chunks(text: str) -> Iterator[tuple[str, int, int]]:
    """The slice grammar shared by the web and tangle formats: the
    non-empty ';'-separated pieces of each line, '#' comments removed,
    with their 1-based (line, column)."""
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        offset = 0
        for piece in line.split(";"):
            stripped = piece.strip()
            if stripped:
                col = offset + len(piece) - len(piece.lstrip()) + 1
                yield stripped, line_no, col
            offset += len(piece) + 1


def parse_web(
    text: str,
    k: int | None = None,
    bottom: Sequence[int] | None = None,
) -> Web:
    """Parse web source into a type-checked :class:`Web`.

    The header names the rank and the bottom boundary; an explicit ``k``
    argument overrides the header's rank (the header is the file
    default).  Headerless fragments are accepted when ``k`` is passed,
    with ``bottom`` defaulting to the empty boundary.  All errors —
    syntax, unknown labels, and layers that do not fit the running
    boundary — are raised as :class:`WebParseError` with the offending
    line and column.
    """
    chunks = list(slice_chunks(text))
    if not chunks:
        raise WebParseError("empty web source", 1, 1)
    header_k, bottom_text, line0, col0 = _read_header(chunks, _HEADER_SYNTAX, bottom)
    if header_k is None and k is None:
        raise WebParseError(
            "missing web header (or pass k= explicitly)", line0, col0
        )
    eff_k = header_k if k is None else k
    # labels spelled "k-1" resolve against the rank, so it is checked first
    if eff_k < 2:
        raise WebParseError(
            f"k out of range: need k >= 2, got {eff_k}", line0, col0
        )
    if bottom_text is not None:
        bottom = _labels(bottom_text, eff_k, line0, col0)

    body = chunks[0 if header_k is None else 1 :]
    parsed = [_parse_layer(chunk, eff_k, line, col) for chunk, line, col in body]
    layers = [layer for layer, _ in parsed]
    web = _located(lambda: Web(eff_k, bottom or (), layers), body, line0, col0)
    # a cap layer keeps no labels, so the ones its text spells out are
    # checked against the boundary below it once the web is built
    for i, (layer, values) in enumerate(parsed):
        if layer.kind == "cap" and values:
            try:
                generator_step("cap", eff_k, web.boundaries[i], layer.pos, *values)
            except ValueError as exc:
                raise WebParseError(str(exc), *body[i][1:]) from None
    return web


# ----------------------------------------------------------------------
# evaluation

def layer_matrix(layer: Layer, k: int, labels: Sequence[int]) -> QMatrix:
    """The matrix of one layer on the given boundary below it."""
    return _generator_matrix(layer.kind, k, labels, layer.pos, layer.a, layer.b)


def evaluate(web: Web) -> QMatrix:
    """The matrix of the web, bottom basis to top basis.

    The identity columns of the bottom basis are pushed as a sparse
    state through each layer's local window map; a closed web pushes a
    single column.  The first layer's images are read off its map, and
    every later layer's are summed by ``apply_window``.  The pushed
    columns are the matrix's columns; their keys are top-basis keys by
    construction, so the matrix is adopted without the row check.
    """
    rank = web.k
    bottom = TensorBasis(rank, web.bottom)
    if not web.layers:
        return QMatrix.identity(bottom)
    # the bottom's keys stand for their identity columns until the first layer
    state, push = bottom, _lift_columns
    for layer, labels in zip(web.layers, web.boundaries):
        if layer.kind in _LABELLED_KINDS:
            pair = (layer.a, layer.b)
        else:
            pair = labels[layer.pos - 1 : layer.pos + 1]
        local = local_map(layer.kind, rank, *pair)
        state = push(local, layer.pos, INPUT_SPANS[layer.kind], state)
        push = apply_window
    return QMatrix._trusted(TensorBasis(rank, web.top), bottom, state)


def evaluate_closed(web: Web) -> LaurentPoly:
    """The scalar of a web with empty bottom and top boundaries."""
    if web.bottom or web.top:
        raise ValueError(
            f"closed web required; boundary is {web.bottom} -> {web.top}"
        )
    return evaluate(web).scalar()


def stack_webs(lower: Web, upper: Web) -> Web:
    """The composite placing ``upper`` on top of ``lower``."""
    if lower.k != upper.k:
        raise ValueError(f"rank mismatch: {lower.k} vs {upper.k}")
    if lower.top != upper.bottom:
        raise ValueError(
            f"cannot stack: top {lower.top} does not match bottom "
            f"{upper.bottom}"
        )
    return Web(lower.k, lower.bottom, lower.layers + upper.layers)


def tensor_webs(left: Web, right: Web) -> Web:
    """The side-by-side placement of two webs on one boundary.

    The right web's layers run first (their positions shifted past the
    untouched left boundary), then the left web's; the evaluation is the
    tensor product of the two evaluations.
    """
    if left.k != right.k:
        raise ValueError(f"rank mismatch: {left.k} vs {right.k}")
    shift = len(left.bottom)
    shifted = tuple(
        Layer(layer.kind, layer.pos + shift, layer.a, layer.b)
        for layer in right.layers
    )
    return Web(left.k, left.bottom + right.bottom, shifted + left.layers)


# ----------------------------------------------------------------------
# mirror symmetry

def mirror_web(web: Web) -> Web:
    """The left-right reflection: positions flipped, label pairs swapped
    (an unlabelled layer's pair is (None, None)), crossing signs exchanged."""
    layers = tuple(
        Layer(
            _MIRROR_KINDS.get(layer.kind, layer.kind),
            len(labels) - layer.pos - INPUT_SPANS[layer.kind] + 2,
            layer.b,
            layer.a,
        )
        for layer, labels in zip(web.layers, web.boundaries)
    )
    return Web(web.k, tuple(reversed(web.bottom)), layers)


def mirror_exponent(web: Web) -> int:
    """The exponent c in evaluate(mirror) = q^c * conjugated evaluation.

    Each split or cup with labels (a, b) contributes +ab, each merge or
    cap -ab; crossings contribute nothing.
    """
    c = 0
    for layer, labels in zip(web.layers, web.boundaries):
        if layer.kind in ("split", "cup"):
            c += layer.a * layer.b
        elif layer.kind == "merge":
            c -= layer.a * layer.b
        elif layer.kind == "cap":
            c -= labels[layer.pos - 1] * labels[layer.pos]
    return c


def mirror_conjugate(web: Web) -> QMatrix:
    """The predicted evaluation of ``mirror_web(web)``: the bar-involuted
    evaluation of ``web``, conjugated by the reversal-of-factors maps and
    scaled by q^(mirror_exponent)."""
    matrix = evaluate(web)
    r_top = reversal_matrix(web.k, web.top)
    r_bottom = reversal_matrix(web.k, tuple(reversed(web.bottom)))
    scale = LaurentPoly.q_power(mirror_exponent(web))
    return scale * (r_top @ matrix.bar() @ r_bottom)


# ----------------------------------------------------------------------
# stock webs and the relation checker

def digon_web(k: int, a: int, b: int) -> Web:
    """Split an (a+b)-strand into (a, b) and merge it back."""
    return Web(k, (a + b,), (Layer("split", 1, a, b), Layer("merge", 1, a, b)))


def circle_web(k: int, a: int = 1) -> Web:
    """A closed circle: cup then cap, labels (a, k-a)."""
    return Web(k, (), (Layer("cup", 1, a, k - a), Layer("cap", 1)))


def theta_web(k: int) -> Web:
    """A circle carrying one digon: cup, merge, split, cap."""
    return Web(
        k,
        (),
        (
            Layer("cup", 1, 1, k - 1),
            Layer("merge", 1, 1, k - 1),
            Layer("split", 1, 1, k - 1),
            Layer("cap", 1),
        ),
    )


def e_web(k: int, n: int, s: int) -> Web:
    """The merge-then-split web E_s on n parallel 1-strands."""
    return Web(
        k,
        (1,) * n,
        (Layer("merge", s, 1, 1), Layer("split", s, 1, 1)),
    )


def square_web_matrix(k: int) -> QMatrix:
    """The square web on boundary (1, k): merge to a single (k+1)-edge and
    split back.

    The middle edge names the (k+1)-st exterior power of a k-dimensional
    space, which is zero-dimensional, so this matrix is identically zero
    — computed from the general merge/split engine rather than asserted.
    """
    up = _lift(k, (1, k), (k + 1,), 1, 2, local_map("merge", k, 1, k))
    down = _lift(k, (k + 1,), (1, k), 1, 1, local_map("split", k, 1, k))
    return down @ up


def relation_iii_web(k: int) -> Web:
    """The four-layer web on boundary (1, k) whose evaluation is the
    square web plus [k-1] times the identity."""
    return Web(
        k,
        (1, k),
        (
            Layer("split", 2, 1, k - 1),
            Layer("merge", 1, 1, 1),
            Layer("split", 1, 1, 1),
            Layer("merge", 2, 1, k - 1),
        ),
    )


def relation_iv_web(k: int) -> Web:
    """The eight-layer web on boundary (k, 1, k-1) whose evaluation is the
    identity plus [k-2] times the double wall web."""
    return Web(
        k,
        (k, 1, k - 1),
        (
            Layer("split", 1, k - 1, 1),
            Layer("merge", 2, 1, 1),
            Layer("split", 2, 1, 1),
            Layer("merge", 3, 1, k - 1),
            Layer("split", 3, 1, k - 1),
            Layer("merge", 2, 1, 1),
            Layer("split", 2, 1, 1),
            Layer("merge", 1, k - 1, 1),
        ),
    )


def double_wall_web(k: int) -> Web:
    """The web on (k, 1, k-1) passing through (k, k): merge the right
    pair and split it back."""
    return Web(
        k,
        (k, 1, k - 1),
        (Layer("merge", 2, 1, k - 1), Layer("split", 2, 1, k - 1)),
    )


def verify_moy(k: int) -> list[Report]:
    """Re-check the five defining local relations at rank k.

    Each relation is built as webs, both sides are evaluated to matrices,
    and the report records exact equality together with the quantum
    multiplicities involved ([k], [2], [k-1], [k-2]).
    """
    _check_int(k, "rank k", 2)

    def identity(boundary: tuple[int, ...]) -> QMatrix:
        return QMatrix.identity(TensorBasis(k, boundary))

    e1 = evaluate(e_web(k, 3, 1))
    e2 = evaluate(e_web(k, 3, 2))
    # (relation, anchor, whether both sides agree, witness)
    relations = (
        (
            "I",
            f"digon webs with label pairs (1,{k - 1}) and ({k - 1},1) "
            f"on one {k}-strand both equal [{k}]*id at k={k}",
            all(
                evaluate(digon_web(k, a, b)) == quantum_int(k) * identity((k,))
                for a, b in ((1, k - 1), (k - 1, 1))
            ),
            f"[{k}] = {quantum_int(k)}",
        ),
        (
            "II",
            f"the digon web split(1,1);merge(1,1) on one 2-strand "
            f"equals [2]*id at k={k}",
            evaluate(digon_web(k, 1, 1)) == quantum_int(2) * identity((2,)),
            f"[2] = {quantum_int(2)}",
        ),
        (
            "III",
            f"the four-layer web on boundary (1,{k}) equals the square "
            f"web plus [{k - 1}]*id at k={k}",
            evaluate(relation_iii_web(k))
            == square_web_matrix(k) + quantum_int(k - 1) * identity((1, k)),
            f"[{k - 1}] = {quantum_int(k - 1)}; square web vanishes "
            f"(its middle edge spans a 0-dimensional space)",
        ),
        (
            "IV",
            f"the eight-layer web on boundary ({k},1,{k - 1}) equals "
            f"id plus [{k - 2}]*(double wall web) at k={k}",
            evaluate(relation_iv_web(k))
            == identity((k, 1, k - 1))
            + quantum_int(k - 2) * evaluate(double_wall_web(k)),
            f"[{k - 2}] = {quantum_int(k - 2)}",
        ),
        (
            "V",
            f"the two braid differences of the E-webs on three "
            f"1-strands agree at k={k}",
            e1 @ e2 @ e1 - e1 == e2 @ e1 @ e2 - e2,
            "E_s = split(1,1) after merge(1,1)",
        ),
    )
    return [
        Report(f"moy-{name}-k{k}", anchor, passed, witness)
        for name, anchor, passed, witness in relations
    ]
