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
from typing import Iterator, Sequence

from .qlaurent import ONE, LaurentPoly, quantum_int
from .reporting import Report
from .weblin import (
    QMatrix,
    TensorBasis,
    apply_window,
    cap_matrix,
    cross_matrix_at,
    cup_matrix,
    local_map,
    merge_matrix,
    reversal_matrix,
    special_pairs,
    split_matrix,
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
    """A web source error, located by (1-based) line and column."""

    def __init__(self, reason: str, line: int, column: int) -> None:
        self.reason = reason
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {reason}")


# ----------------------------------------------------------------------
# layers and webs

_LAYER_KINDS = ("merge", "split", "cup", "cap", "cross+", "cross-")
_LABELLED_KINDS = ("merge", "split", "cup")
# number of strands each generator consumes from the boundary below it
_INPUT_SPANS = {
    "merge": 2,
    "split": 1,
    "cup": 0,
    "cap": 2,
    "cross+": 2,
    "cross-": 2,
}
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
        if not isinstance(self.pos, int) or self.pos < 1:
            raise ValueError(
                f"layer position must be a positive integer, got {self.pos!r}"
            )
        if self.kind in _LABELLED_KINDS:
            if self.a is None or self.b is None:
                raise ValueError(f"{self.kind} requires a label pair")
            if self.a < 1 or self.b < 1:
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


def _step(k: int, labels: tuple[int, ...], layer: Layer) -> tuple[int, ...]:
    """The boundary above ``layer`` given the boundary ``labels`` below it."""
    pos, a, b = layer.pos, layer.a, layer.b
    kind = layer.kind
    if kind == "merge":
        if pos > len(labels) - 1:
            raise ValueError(
                f"merge position {pos} out of range for boundary {labels}"
            )
        if (labels[pos - 1], labels[pos]) != (a, b):
            raise ValueError(
                f"merge({a},{b}) does not match boundary {labels} "
                f"at position {pos}"
            )
        if (a, b) not in special_pairs(k):
            raise ValueError(
                f"merge label pair ({a},{b}) not admissible for k={k}"
            )
        return labels[: pos - 1] + (a + b,) + labels[pos + 1 :]
    if kind == "split":
        if pos > len(labels):
            raise ValueError(
                f"split position {pos} out of range for boundary {labels}"
            )
        if labels[pos - 1] != a + b:
            raise ValueError(
                f"cannot split label {labels[pos - 1]} at position {pos} "
                f"into ({a},{b})"
            )
        if (a, b) not in special_pairs(k):
            raise ValueError(
                f"split label pair ({a},{b}) not admissible for k={k}"
            )
        return labels[: pos - 1] + (a, b) + labels[pos:]
    if kind == "cup":
        if pos > len(labels) + 1:
            raise ValueError(
                f"cup position {pos} out of range for boundary {labels}"
            )
        if a + b != k or {a, b} != {1, k - 1}:
            raise ValueError(
                f"cup label pair ({a},{b}) not admissible for k={k}"
            )
        return labels[: pos - 1] + (a, b) + labels[pos - 1 :]
    if kind == "cap":
        if pos > len(labels) - 1:
            raise ValueError(
                f"cap position {pos} out of range for boundary {labels}"
            )
        pair = (labels[pos - 1], labels[pos])
        if sum(pair) != k or set(pair) != {1, k - 1}:
            raise ValueError(
                f"cap at position {pos} needs labels (1,{k - 1}) or "
                f"({k - 1},1), found {pair}"
            )
        return labels[: pos - 1] + labels[pos + 1 :]
    # crossings
    if pos > len(labels) - 1:
        raise ValueError(
            f"crossing position {pos} out of range for boundary {labels}"
        )
    if (labels[pos - 1], labels[pos]) != (1, 1):
        raise ValueError(
            f"crossing at position {pos} needs labels (1,1), "
            f"found ({labels[pos - 1]},{labels[pos]})"
        )
    return labels


@dataclass(frozen=True)
class Web:
    """A type-checked web: rank, bottom boundary, and layers bottom-up.

    Construction walks the layers and records every intermediate
    boundary in ``boundaries`` (``boundaries[i]`` is the boundary below
    layer ``i``; the last entry is the top).  A generator that does not
    fit its boundary raises ValueError naming the 1-based layer.
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
        if self.k < 2:
            raise ValueError(f"web rank k must be >= 2, got {self.k}")
        allowed = {1, 2, self.k - 1, self.k}
        for label in self.bottom:
            if label not in allowed:
                raise ValueError(
                    f"bottom label {label} not in {{1,2,k-1,k}} for k={self.k}"
                )
        bounds = [self.bottom]
        for i, layer in enumerate(self.layers, start=1):
            try:
                bounds.append(_step(self.k, bounds[-1], layer))
            except ValueError as exc:
                raise ValueError(f"layer {i}: {exc}") from None
        object.__setattr__(self, "boundaries", tuple(bounds))

    @property
    def top(self) -> tuple[int, ...]:
        return self.boundaries[-1]

    def text(self) -> str:
        """Render back to the grammar; ``parse_web`` round-trips it."""
        header = f"web k={self.k} bottom=" + ",".join(
            str(a) for a in self.bottom
        )
        return "\n".join([header, *(layer.text() for layer in self.layers)])


# ----------------------------------------------------------------------
# parsing

_HEADER_RE = re.compile(r"^web\s+k\s*=\s*(\S+)\s+bottom\s*=\s*(.*)$")
_LAYER_RE = re.compile(
    r"^(merge|split|cup|cap|cross\+|cross-)\s*\(\s*([^()]*?)\s*\)$"
)


def _resolve_label(token: str, k: int, line: int, col: int) -> int:
    text = token.strip()
    if text == "k":
        return k
    if text == "k-1":
        return k - 1
    if re.fullmatch(r"\d+", text):
        value = int(text)
        if value < 1:
            raise WebParseError(f"label must be at least 1, got {text}", line, col)
        return value
    raise WebParseError(
        f"unrecognized label {text!r} (use integers or the symbols k, k-1)",
        line,
        col,
    )


def _parse_bottom(
    text: str, k: int, line: int, col: int
) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    tokens = text.split(",")
    if any(not t.strip() for t in tokens):
        raise WebParseError(f"empty label in bottom list {text!r}", line, col)
    return tuple(_resolve_label(t, k, line, col) for t in tokens)


def _parse_layer(
    chunk: str, k: int, line: int, col: int
) -> tuple[Layer, tuple[int, int] | None]:
    """Parse one layer; also return the optional declared cap labels."""
    match = _LAYER_RE.match(chunk)
    if not match:
        raise WebParseError(
            f"unrecognized layer {chunk!r}; expected merge(a,b@p), "
            f"split(a,b@p), cup(a,b@p), cap(@p), cross+(@p) or cross-(@p)",
            line,
            col,
        )
    kind, arg_text = match.group(1), match.group(2)
    labels_text, at_sign, pos_text = arg_text.partition("@")
    if at_sign:
        pos_text = pos_text.strip()
        if not re.fullmatch(r"\d+", pos_text) or int(pos_text) < 1:
            raise WebParseError(
                f"position must be a positive integer, got {pos_text!r}",
                line,
                col,
            )
        pos = int(pos_text)
    else:
        pos = 1
    labels_text = labels_text.strip()
    if labels_text:
        tokens = labels_text.split(",")
        if any(not t.strip() for t in tokens):
            raise WebParseError(f"empty label in {chunk!r}", line, col)
        values = tuple(_resolve_label(t, k, line, col) for t in tokens)
    else:
        values = ()
    if kind in _LABELLED_KINDS:
        if len(values) != 2:
            raise WebParseError(
                f"{kind} expects two comma-separated labels, "
                f"got {len(values)} in {chunk!r}",
                line,
                col,
            )
        return Layer(kind, pos, values[0], values[1]), None
    if kind == "cap":
        if values and len(values) != 2:
            raise WebParseError(
                f"cap expects no labels or a label pair, got {chunk!r}",
                line,
                col,
            )
        return Layer("cap", pos), (values if values else None)
    if values:
        raise WebParseError(f"{kind} takes no labels, got {chunk!r}", line, col)
    return Layer(kind, pos), None


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

    text0, line0, col0 = chunks[0]
    if text0.startswith("web"):
        match = _HEADER_RE.match(text0)
        if not match:
            raise WebParseError(
                "malformed web header; expected 'web k=<int> bottom=<labels>'",
                line0,
                col0,
            )
        try:
            header_k = int(match.group(1))
        except ValueError:
            raise WebParseError(
                f"k must be an integer, got {match.group(1)!r}", line0, col0
            ) from None
        eff_k = header_k if k is None else k
        if bottom is not None:
            raise ValueError(
                "the web header already declares bottom=; "
                "do not also pass a bottom argument"
            )
        if eff_k < 2:
            raise WebParseError(
                f"k out of range: need k >= 2, got {eff_k}", line0, col0
            )
        bot = _parse_bottom(match.group(2), eff_k, line0, col0)
        start = 1
    else:
        if k is None:
            raise WebParseError(
                "missing web header (or pass k= explicitly)", line0, col0
            )
        eff_k = k
        if eff_k < 2:
            raise WebParseError(
                f"k out of range: need k >= 2, got {eff_k}", line0, col0
            )
        bot = tuple(bottom) if bottom is not None else ()
        start = 0

    allowed = {1, 2, eff_k - 1, eff_k}
    for label in bot:
        if label not in allowed:
            raise WebParseError(
                f"bottom label {label} not in {{1,2,k-1,k}} for k={eff_k}",
                line0,
                col0,
            )

    labels = bot
    layers: list[Layer] = []
    for chunk, line_no, col in chunks[start:]:
        layer, declared = _parse_layer(chunk, eff_k, line_no, col)
        if declared is not None:
            if layer.pos > len(labels) - 1:
                raise WebParseError(
                    f"cap position {layer.pos} out of range for boundary "
                    f"{labels}",
                    line_no,
                    col,
                )
            found = (labels[layer.pos - 1], labels[layer.pos])
            if found != declared:
                raise WebParseError(
                    f"cap labels {declared} do not match boundary {labels} "
                    f"at position {layer.pos}",
                    line_no,
                    col,
                )
        try:
            labels = _step(eff_k, labels, layer)
        except ValueError as exc:
            raise WebParseError(str(exc), line_no, col) from None
        layers.append(layer)
    return Web(eff_k, bot, tuple(layers))


# ----------------------------------------------------------------------
# evaluation

def layer_matrix(layer: Layer, k: int, labels: Sequence[int]) -> QMatrix:
    """The matrix of one layer on the given boundary below it."""
    labels = tuple(labels)
    if layer.kind == "merge":
        return merge_matrix(k, labels, layer.pos)
    if layer.kind == "split":
        return split_matrix(k, labels, layer.pos, layer.a, layer.b)
    if layer.kind == "cup":
        return cup_matrix(k, labels, layer.pos, layer.a, layer.b)
    if layer.kind == "cap":
        return cap_matrix(k, labels, layer.pos)
    return cross_matrix_at(layer.kind[-1], k, labels, layer.pos)


def evaluate(web: Web, k: int | None = None) -> QMatrix:
    """The matrix of the web, bottom basis to top basis.

    The identity columns of the bottom basis are pushed as a sparse
    state through each layer's local window map; a closed web pushes a
    single column.  The pushed columns are the matrix's columns.
    """
    if k is not None and k != web.k:
        raise ValueError(f"web was typed at k={web.k}, asked to evaluate at k={k}")
    rank = web.k
    bottom = TensorBasis(rank, web.bottom)
    state = [{key: ONE} for key in bottom]
    for layer, labels in zip(web.layers, web.boundaries):
        if layer.kind in _LABELLED_KINDS:
            pair = (layer.a, layer.b)
        else:
            pair = labels[layer.pos - 1 : layer.pos + 1]
        local = local_map(layer.kind, rank, *pair)
        state = apply_window(local, layer.pos, _INPUT_SPANS[layer.kind], state)
    return QMatrix(TensorBasis(rank, web.top), bottom, state)


def evaluate_closed(web: Web, k: int | None = None) -> LaurentPoly:
    """The scalar of a web with empty bottom and top boundaries."""
    if web.bottom or web.top:
        raise ValueError(
            f"closed web required; boundary is {web.bottom} -> {web.top}"
        )
    return evaluate(web, k).scalar()


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
    """The left-right reflection: positions flipped, label pairs swapped,
    crossing signs exchanged."""
    layers = []
    for layer, labels in zip(web.layers, web.boundaries):
        span = _INPUT_SPANS[layer.kind]
        pos = len(labels) - layer.pos - span + 2
        kind = _MIRROR_KINDS.get(layer.kind, layer.kind)
        if layer.kind in _LABELLED_KINDS:
            layers.append(Layer(kind, pos, layer.b, layer.a))
        else:
            layers.append(Layer(kind, pos))
    return Web(web.k, tuple(reversed(web.bottom)), tuple(layers))


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
    up = merge_matrix(k, (1, k), 1, strict=False)
    down = split_matrix(k, (k + 1,), 1, 1, k, strict=False)
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
    if k < 2:
        raise ValueError(f"rank k must be >= 2, got {k}")
    reports = []

    factor_k = quantum_int(k)
    ident_k = QMatrix.identity(TensorBasis(k, (k,)))
    ok = all(
        evaluate(digon_web(k, a, b)) == factor_k * ident_k
        for a, b in ((1, k - 1), (k - 1, 1))
    )
    reports.append(
        Report(
            check=f"moy-I-k{k}",
            anchor=(
                f"digon webs with label pairs (1,{k - 1}) and ({k - 1},1) "
                f"on one {k}-strand both equal [{k}]*id at k={k}"
            ),
            passed=ok,
            witness=f"[{k}] = {factor_k}",
        )
    )

    factor_2 = quantum_int(2)
    ident_2 = QMatrix.identity(TensorBasis(k, (2,)))
    ok = evaluate(digon_web(k, 1, 1)) == factor_2 * ident_2
    reports.append(
        Report(
            check=f"moy-II-k{k}",
            anchor=(
                f"the digon web split(1,1);merge(1,1) on one 2-strand "
                f"equals [2]*id at k={k}"
            ),
            passed=ok,
            witness=f"[2] = {factor_2}",
        )
    )

    lhs = evaluate(relation_iii_web(k))
    square = square_web_matrix(k)
    ident_iii = QMatrix.identity(TensorBasis(k, (1, k)))
    ok = lhs == square + quantum_int(k - 1) * ident_iii
    reports.append(
        Report(
            check=f"moy-III-k{k}",
            anchor=(
                f"the four-layer web on boundary (1,{k}) equals the square "
                f"web plus [{k - 1}]*id at k={k}"
            ),
            passed=ok,
            witness=(
                f"[{k - 1}] = {quantum_int(k - 1)}; square web vanishes "
                f"(its middle edge spans a 0-dimensional space)"
            ),
        )
    )

    lhs = evaluate(relation_iv_web(k))
    wall = evaluate(double_wall_web(k))
    ident_iv = QMatrix.identity(TensorBasis(k, (k, 1, k - 1)))
    ok = lhs == ident_iv + quantum_int(k - 2) * wall
    reports.append(
        Report(
            check=f"moy-IV-k{k}",
            anchor=(
                f"the eight-layer web on boundary ({k},1,{k - 1}) equals "
                f"id plus [{k - 2}]*(double wall web) at k={k}"
            ),
            passed=ok,
            witness=f"[{k - 2}] = {quantum_int(k - 2)}",
        )
    )

    e1 = evaluate(e_web(k, 3, 1))
    e2 = evaluate(e_web(k, 3, 2))
    ok = e1 @ e2 @ e1 - e1 == e2 @ e1 @ e2 - e2
    reports.append(
        Report(
            check=f"moy-V-k{k}",
            anchor=(
                f"the two braid differences of the E-webs on three "
                f"1-strands agree at k={k}"
            ),
            passed=ok,
            witness="E_s = split(1,1) after merge(1,1)",
        )
    )
    return reports
