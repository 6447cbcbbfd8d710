"""Oriented tangle words, the link polynomial, and its cross-checks.

A tangle word lists elementary oriented pieces bottom to top: cups,
caps, and the two crossings, each at a 1-based strand position.
Boundaries are sequences of strand orientations, written "-" for a
strand carrying the basic label 1 and "+" for one carrying the
complementary label k-1.  Type checking is orientation-level only, so
one word evaluates at every rank k >= 2.

Compiling a word produces a web: cups and caps keep their positions
and take the labels their orientations force, a crossing of two "-"
strands becomes the crossing generator directly, and every other
crossing is rotated into that one by composing with cups and caps
around the affected strands.  The value of a closed word is the
evaluation of its compiled web, normalised so the unknot gives the
quantum integer [k].

Verification lives next to the pipeline: ``skein_check`` tests the
defining relation q^k P(L+) - q^-k P(L-) = (q - q^-1) P(L0) on a
validated triple, ``skein_oracle`` recomputes rank-2 values by
expanding every crossing into two weighted crossingless pictures
(never touching the crossing matrices), ``reidemeister_suite`` asserts
the kink, sliding, braid, and zig-zag moves as exact matrix
identities, and ``move_pairs`` manufactures closed diagram pairs
related by a single move for regression runs over the ``CORPUS``.

``grothendieck_map`` transports a merge/split web to a linear map on
formal Laurent combinations of restricted coset classes, computed by a
choice of three routes: box-diagram moves on fillings, translation of
flag classes, or the web's own matrix carried through the filling
encodings.  ``compare_theorem13`` checks that the three routes agree
on every basis vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .boxcomb import (
    WeightedDiagramSum,
    all_compositions,
    curlyvee,
    curlywedge,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
)
from .qlaurent import ONE, ZERO, LaurentPoly, LinComb, quantum_int
from .reporting import Report
from .symhecke import FlagList, O_set, Permutation, translation_flag
from .weblin import QMatrix, TensorBasis, special_pairs
from .webgraph import Layer, Web, evaluate, evaluate_closed, slice_chunks

__all__ = [
    "TangleParseError",
    "TangleLayer",
    "TangleWord",
    "parse_tangle",
    "to_web",
    "tangle_matrix",
    "link_poly",
    "crossing_sites",
    "skein_triple",
    "skein_check",
    "skein_oracle",
    "reidemeister_suite",
    "move_pairs",
    "CORPUS",
    "corpus_word",
    "GrothVector",
    "special_generator_webs",
    "grothendieck_map",
    "compare_theorem13",
]


_SIGNS = ("-", "+")
_TANGLE_KINDS = ("cup", "cap", "X+", "X-")
_CROSSING_KINDS = ("X+", "X-")


def _opp(sign: str) -> str:
    return "+" if sign == "-" else "-"


def _signs_text(signs: Sequence[str]) -> str:
    return "".join(signs)


class TangleParseError(ValueError):
    """A tangle text rejected at a specific line and column."""

    def __init__(self, reason: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.reason = reason
        self.line = line
        self.column = column


@dataclass(frozen=True)
class TangleLayer:
    """One slice of a tangle: a generator at a 1-based strand position.

    ``cup`` carries the orientation pair it creates (one "-" and one
    "+", in order); ``cap`` and the crossings carry none (a cap closes
    whatever opposite pair it finds, a crossing acts on any pair and
    swaps its orientations).
    """

    kind: str
    pos: int
    signs: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TANGLE_KINDS:
            raise ValueError(f"unknown tangle layer kind {self.kind!r}")
        if not isinstance(self.pos, int) or self.pos < 1:
            raise ValueError(
                f"layer position must be a positive integer, got {self.pos!r}"
            )
        if self.kind == "cup":
            if self.signs is None:
                raise ValueError("cup requires an orientation pair")
            pair = tuple(self.signs)
            object.__setattr__(self, "signs", pair)
            if pair not in (("-", "+"), ("+", "-")):
                raise ValueError(
                    "cup needs one '-' and one '+' end, "
                    f"got {_signs_text(pair)!r}"
                )
        elif self.signs is not None:
            raise ValueError(f"{self.kind} takes no orientation pair")

    def text(self) -> str:
        if self.kind == "cup":
            return f"cup({_signs_text(self.signs)}@{self.pos})"
        return f"{self.kind}(@{self.pos})"


def _sign_step(signs: tuple[str, ...], layer: TangleLayer) -> tuple[str, ...]:
    """The boundary above ``layer`` given the boundary ``signs`` below."""
    pos = layer.pos
    if layer.kind == "cup":
        if pos > len(signs) + 1:
            raise ValueError(
                f"cup position {pos} out of range for boundary "
                f"{_signs_text(signs)!r}"
            )
        return signs[: pos - 1] + layer.signs + signs[pos - 1 :]
    if pos > len(signs) - 1:
        raise ValueError(
            f"{layer.kind} position {pos} out of range for boundary "
            f"{_signs_text(signs)!r}"
        )
    first, second = signs[pos - 1], signs[pos]
    if layer.kind == "cap":
        if first == second:
            raise ValueError(
                f"cap at position {pos} needs opposite orientations, "
                f"found {first}{second!s}"
            )
        return signs[: pos - 1] + signs[pos + 1 :]
    return signs[: pos - 1] + (second, first) + signs[pos + 1 :]


@dataclass(frozen=True)
class TangleWord:
    """A type-checked tangle word: boundary orientations and layers.

    Construction walks the layers and records every intermediate
    orientation boundary in ``boundaries`` (``boundaries[i]`` is the
    boundary below layer ``i``; the last entry is the top).  ``k`` is
    an optional preferred rank carried over from a parsed header; the
    word itself is rank-independent.
    """

    bottom: tuple[str, ...]
    layers: tuple[TangleLayer, ...] = ()
    k: int | None = None
    boundaries: tuple[tuple[str, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "bottom", tuple(self.bottom))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.k is not None and self.k < 2:
            raise ValueError(f"tangle rank k must be >= 2, got {self.k}")
        for sign in self.bottom:
            if sign not in _SIGNS:
                raise ValueError(
                    f"orientation must be '-' or '+', got {sign!r}"
                )
        bounds = [self.bottom]
        for i, layer in enumerate(self.layers, start=1):
            try:
                bounds.append(_sign_step(bounds[-1], layer))
            except ValueError as exc:
                raise ValueError(f"layer {i}: {exc}") from None
        object.__setattr__(self, "boundaries", tuple(bounds))

    @property
    def top(self) -> tuple[str, ...]:
        return self.boundaries[-1]

    @property
    def is_closed(self) -> bool:
        return not self.bottom and not self.top

    def text(self) -> str:
        """Render back to the grammar; ``parse_tangle`` round-trips it
        (the header line is emitted only when ``k`` is set)."""
        lines = []
        if self.k is not None:
            lines.append(
                f"tangle k={self.k} bottom={_signs_text(self.bottom)}"
            )
        lines.extend(layer.text() for layer in self.layers)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# parsing

_HEADER_RE = re.compile(r"^tangle\s+k\s*=\s*(\S+)\s+bottom\s*=\s*(.*)$")
_LAYER_RE = re.compile(r"^(cup|cap|X\+|X-)\s*\(\s*([^()]*?)\s*\)$")
_CUP_ARGS_RE = re.compile(r"^([+-])\s*,?\s*([+-])(?:\s*@\s*(\d+))?$")
_POS_ARGS_RE = re.compile(r"^(?:@\s*(\d+))?$")


def _parse_bottom(text: str, line: int, col: int) -> tuple[str, ...]:
    signs = []
    for ch in text:
        if ch in _SIGNS:
            signs.append(ch)
        elif ch not in " ,\t":
            raise TangleParseError(
                f"bad orientation character {ch!r} in bottom", line, col
            )
    return tuple(signs)


def _parse_layer(piece: str, line: int, col: int) -> TangleLayer:
    match = _LAYER_RE.match(piece)
    if match is None:
        raise TangleParseError(f"cannot parse layer {piece!r}", line, col)
    kind, args = match.group(1), match.group(2)
    if kind == "cup":
        inner = _CUP_ARGS_RE.match(args)
        if inner is None:
            raise TangleParseError(
                f"cup arguments {args!r} are not "
                "an orientation pair with optional @position",
                line,
                col,
            )
        signs = (inner.group(1), inner.group(2))
        pos = int(inner.group(3)) if inner.group(3) else 1
        try:
            return TangleLayer("cup", pos, signs)
        except ValueError as exc:
            raise TangleParseError(str(exc), line, col) from None
    inner = _POS_ARGS_RE.match(args)
    if inner is None:
        raise TangleParseError(
            f"{kind} arguments {args!r} are not an optional @position",
            line,
            col,
        )
    pos = int(inner.group(1)) if inner.group(1) else 1
    try:
        return TangleLayer(kind, pos)
    except ValueError as exc:
        raise TangleParseError(str(exc), line, col) from None


def parse_tangle(
    text: str, bottom: Sequence[str] | None = None
) -> TangleWord:
    """Parse the tangle grammar into a type-checked word.

    The first piece may be a header ``tangle k=<int> bottom=<signs>``;
    without one the word is a fragment whose bottom defaults to the
    ``bottom`` argument (or the empty boundary of a closed word) and
    whose preferred rank is left unset.
    """
    header_k: int | None = None
    header_bottom: tuple[str, ...] | None = None
    layers: list[TangleLayer] = []
    saw_header = False
    for index, (piece, line, col) in enumerate(slice_chunks(text)):
        if index == 0:
            match = _HEADER_RE.match(piece)
            if match is not None:
                saw_header = True
                k_text = match.group(1)
                if not re.fullmatch(r"\d+", k_text):
                    raise TangleParseError(
                        f"bad rank {k_text!r} in header", line, col
                    )
                header_k = int(k_text)
                if header_k < 2:
                    raise TangleParseError(
                        f"k out of range: need k >= 2, got {header_k}",
                        line,
                        col,
                    )
                header_bottom = _parse_bottom(match.group(2), line, col)
                continue
        layers.append(_parse_layer(piece, line, col))
    if saw_header and bottom is not None:
        raise ValueError(
            f"the tangle header already declares "
            f"bottom={_signs_text(header_bottom)!r}; do not also pass bottom"
        )
    if header_bottom is None:
        header_bottom = tuple(bottom) if bottom is not None else ()
    return TangleWord(header_bottom, tuple(layers), header_k)


# ----------------------------------------------------------------------
# compilation to webs

def _resolve_rank(t: TangleWord, k: int | None) -> int:
    rank = k if k is not None else t.k
    if rank is None:
        raise ValueError(
            "no rank given: pass k= or parse a tangle header that sets it"
        )
    if rank < 2:
        raise ValueError(f"tangle rank k must be >= 2, got {rank}")
    return rank


def _strand_labels(signs: Sequence[str], k: int) -> tuple[int, ...]:
    return tuple(1 if sign == "-" else k - 1 for sign in signs)


def _compiled(
    layer: TangleLayer, signs: tuple[str, ...], k: int
) -> list[Layer]:
    """The web layers implementing one tangle layer on ``signs``."""
    p = layer.pos
    if layer.kind == "cup":
        a, b = _strand_labels(layer.signs, k)
        return [Layer("cup", p, a, b)]
    if layer.kind == "cap":
        return [Layer("cap", p)]
    cross = "cross+" if layer.kind == "X+" else "cross-"
    pair = signs[p - 1 : p + 1]
    if pair == ("-", "-"):
        return [Layer(cross, p)]
    if pair == ("-", "+"):
        return [
            Layer("cup", p, k - 1, 1),
            Layer(cross, p + 1),
            Layer("cap", p + 2),
        ]
    if pair == ("+", "-"):
        return [
            Layer("cup", p + 2, 1, k - 1),
            Layer(cross, p + 1),
            Layer("cap", p),
        ]
    return [
        Layer("cup", p + 2, 1, k - 1),
        Layer("cup", p + 3, 1, k - 1),
        Layer(cross, p + 2),
        Layer("cap", p + 1),
        Layer("cap", p),
    ]


def to_web(t: TangleWord, k: int | None = None) -> Web:
    """Compile a tangle word to a web at rank ``k``."""
    rank = _resolve_rank(t, k)
    web_layers: list[Layer] = []
    for layer, signs in zip(t.layers, t.boundaries):
        web_layers.extend(_compiled(layer, signs, rank))
    return Web(rank, _strand_labels(t.bottom, rank), tuple(web_layers))


def tangle_matrix(t: TangleWord, k: int | None = None) -> QMatrix:
    """The matrix of a tangle word between its boundary bases."""
    return evaluate(to_web(t, k))


def link_poly(t: TangleWord, k: int | None = None) -> LaurentPoly:
    """The value of a closed tangle word at rank ``k``.

    The unknot evaluates to the quantum integer [k]; a word with free
    boundary strands is rejected.
    """
    rank = _resolve_rank(t, k)
    if not t.is_closed:
        raise ValueError(
            "closed tangle word required; boundary is "
            f"{_signs_text(t.bottom)!r} -> {_signs_text(t.top)!r}"
        )
    return evaluate_closed(to_web(t, rank))


# ----------------------------------------------------------------------
# skein triples

def crossing_sites(t: TangleWord) -> list[int]:
    """Indices of the crossing layers of a word."""
    return [
        i for i, layer in enumerate(t.layers)
        if layer.kind in _CROSSING_KINDS
    ]


def _with_layers(
    t: TangleWord, layers: Sequence[TangleLayer]
) -> TangleWord:
    return TangleWord(t.bottom, tuple(layers), t.k)


def _smoothing_layers(
    t: TangleWord, index: int
) -> tuple[TangleLayer, ...]:
    """The oriented smoothing of the crossing at layer ``index``: drop
    it when its strands are parallel, turn them back when they are
    antiparallel."""
    layer = t.layers[index]
    p = layer.pos
    below = t.boundaries[index]
    first, second = below[p - 1], below[p]
    if first == second:
        return ()
    return (
        TangleLayer("cap", p),
        TangleLayer("cup", p, (second, first)),
    )


def skein_triple(
    t: TangleWord, index: int
) -> tuple[TangleWord, TangleWord, TangleWord]:
    """The words (L+, L-, L0) that differ only at crossing ``index``."""
    if index not in crossing_sites(t):
        raise ValueError(f"layer {index} of the word is not a crossing")
    pos = t.layers[index].pos
    before, after = t.layers[:index], t.layers[index + 1 :]
    plus = _with_layers(t, before + (TangleLayer("X+", pos),) + after)
    minus = _with_layers(t, before + (TangleLayer("X-", pos),) + after)
    zero = _with_layers(t, before + _smoothing_layers(plus, index) + after)
    return plus, minus, zero


def skein_check(
    plus: TangleWord,
    minus: TangleWord,
    zero: TangleWord,
    k: int | None = None,
) -> bool:
    """Whether q^k P(L+) - q^-k P(L-) = (q - q^-1) P(L0) holds exactly.

    The triple is validated first: the first two words must differ in
    exactly one layer, an X+ against an X- at one position, and the
    third must be the oriented smoothing there.
    """
    rank = _resolve_rank(plus, k)
    if plus.bottom != minus.bottom or plus.bottom != zero.bottom:
        raise ValueError("skein triple mismatch: bottom boundaries differ")
    if len(plus.layers) != len(minus.layers):
        raise ValueError("skein triple mismatch: word lengths differ")
    diffs = [
        i
        for i, (a, b) in enumerate(zip(plus.layers, minus.layers))
        if a != b
    ]
    if len(diffs) != 1:
        raise ValueError(
            "skein triple mismatch: the first two words differ in "
            f"{len(diffs)} layers, need exactly one"
        )
    site = diffs[0]
    at_plus, at_minus = plus.layers[site], minus.layers[site]
    if (at_plus.kind, at_minus.kind) != ("X+", "X-") or (
        at_plus.pos != at_minus.pos
    ):
        raise ValueError(
            "skein triple mismatch: the differing site must hold X+ "
            "against X- at one position"
        )
    expected_zero = plus.layers[:site] + _smoothing_layers(
        plus, site
    ) + plus.layers[site + 1 :]
    if zero.layers != expected_zero:
        raise ValueError(
            "skein triple mismatch: the third word is not the oriented "
            "smoothing at the differing site"
        )
    lhs = LaurentPoly.q_power(rank) * link_poly(plus, rank) - (
        LaurentPoly.q_power(-rank) * link_poly(minus, rank)
    )
    rhs = (LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)) * link_poly(
        zero, rank
    )
    return lhs == rhs


# ----------------------------------------------------------------------
# the independent rank-2 oracle

@dataclass(frozen=True)
class _Site:
    """One crossing in the expansion: two weighted crossingless
    pictures, each a run of ("cup"|"cap", position) shadow moves."""

    branches: tuple[tuple[LaurentPoly, tuple[tuple[str, int], ...]], ...]


def skein_oracle(t: TangleWord, k: int = 2) -> LaurentPoly:
    """Brute-force value of a closed word by crossing resolution.

    Defined for rank 2 only.  Every crossing contributes two
    crossingless pictures whose weights come from the crossing's sign
    and whether its strands are parallel; resolving all crossings
    leaves plain cup/cap diagrams, whose circles are counted directly
    and each contribute a factor [2].  Neither the crossing matrices
    nor the web evaluation pipeline is touched, so agreement with
    ``link_poly`` cross-validates both.
    """
    if k != 2:
        raise ValueError(
            f"the skein-resolution oracle covers only k=2, got k={k}"
        )
    if not t.is_closed:
        raise ValueError(
            "closed tangle word required; boundary is "
            f"{_signs_text(t.bottom)!r} -> {_signs_text(t.top)!r}"
        )
    slots: list[object] = []
    for layer, signs in zip(t.layers, t.boundaries):
        if layer.kind == "cup":
            slots.append((("cup", layer.pos),))
        elif layer.kind == "cap":
            slots.append((("cap", layer.pos),))
        else:
            p = layer.pos
            if layer.kind == "X+":
                straight = LaurentPoly.q_power(-1)
                turned = -LaurentPoly.q_power(-2)
            else:
                straight = LaurentPoly.q_power(1)
                turned = -LaurentPoly.q_power(2)
            keep: tuple[tuple[str, int], ...] = ()
            turn = (("cap", p), ("cup", p))
            if signs[p - 1] == signs[p]:
                branches = ((straight, keep), (turned, turn))
            else:
                branches = ((straight, turn), (turned, keep))
            slots.append(_Site(branches))
    return _resolve_sites(slots)


def _resolve_sites(slots: list[object]) -> LaurentPoly:
    for i, slot in enumerate(slots):
        if isinstance(slot, _Site):
            total = ZERO
            for weight, picture in slot.branches:
                rest = slots[:i] + [picture] + slots[i + 1 :]
                total = total + weight * _resolve_sites(rest)
            return total
    picture = [
        piece
        for moves in slots
        for piece in moves  # type: ignore[union-attr]
    ]
    return quantum_int(2) ** _loop_count(picture)


def _loop_count(picture: Sequence[tuple[str, int]]) -> int:
    """Circles in a closed crossingless cup/cap word, by union-find."""
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


# ----------------------------------------------------------------------
# local moves

def _kink_layers(
    sign: str, p: int, side: str, cross: str
) -> tuple[TangleLayer, ...]:
    """A kink on the strand of ``sign`` at position ``p``."""
    if side == "right":
        return (
            TangleLayer("cup", p + 1, (sign, _opp(sign))),
            TangleLayer(cross, p),
            TangleLayer("cap", p + 1),
        )
    return (
        TangleLayer("cup", p, (_opp(sign), sign)),
        TangleLayer(cross, p + 1),
        TangleLayer("cap", p),
    )


def _zigzag_layers(sign: str, p: int, side: str) -> tuple[TangleLayer, ...]:
    """A cup-cap zig-zag on the strand of ``sign`` at position ``p``."""
    if side == "right":
        return (
            TangleLayer("cup", p + 1, (_opp(sign), sign)),
            TangleLayer("cap", p),
        )
    return (
        TangleLayer("cup", p, (sign, _opp(sign))),
        TangleLayer("cap", p + 1),
    )


def _r3_layers(
    window: tuple[str, str, str], p: int, picture: str
) -> tuple[tuple[TangleLayer, ...], tuple[TangleLayer, ...]]:
    """Both sides of the braid move on three strands at position ``p``.

    All three crossings show the same over/under picture; the sign of
    each layer follows from its strands' orientations at that moment
    (same picture on an antiparallel pair means the opposite crossing
    sign), so the two words are related by an oriented slide move.
    """

    def build(offsets: tuple[int, int, int]) -> tuple[TangleLayer, ...]:
        layers = []
        current = list(window)
        for off in offsets:
            parallel = current[off] == current[off + 1]
            kind = "X+" if parallel == (picture == "+") else "X-"
            layers.append(TangleLayer(kind, p + off))
            current[off], current[off + 1] = current[off + 1], current[off]
        return tuple(layers)

    return build((0, 1, 0)), build((1, 0, 1))


def reidemeister_suite(k: int) -> list[Report]:
    """Exact matrix checks of the local moves at rank ``k``.

    Each report covers one move: every kink equals the plain strand,
    a crossing followed by its reverse equals the identity, the two
    braidings of three strands agree, and both zig-zags equal the
    plain strand.
    """
    reports = []

    kink_failures = []
    for sign in _SIGNS:
        identity = QMatrix.identity(TensorBasis(k, _strand_labels(sign, k)))
        for side in ("right", "left"):
            for cross in _CROSSING_KINDS:
                word = TangleWord(
                    (sign,), _kink_layers(sign, 1, side, cross)
                )
                if tangle_matrix(word, k) != identity:
                    kink_failures.append(f"{sign}/{side}/{cross}")
    reports.append(
        Report(
            check=f"reidemeister-1-k{k}",
            anchor=(
                "a kinked strand equals the plain strand: both kink "
                "sides, both crossing signs, both orientations"
            ),
            passed=not kink_failures,
            witness=(
                "8 kink diagrams equal the identity matrix"
                if not kink_failures
                else "failed at " + ", ".join(kink_failures)
            ),
        )
    )

    slide_failures = []
    for first in _SIGNS:
        for second in _SIGNS:
            pair = (first, second)
            identity = QMatrix.identity(
                TensorBasis(k, _strand_labels(pair, k))
            )
            for order in (("X+", "X-"), ("X-", "X+")):
                word = TangleWord(
                    pair,
                    (TangleLayer(order[0], 1), TangleLayer(order[1], 1)),
                )
                if tangle_matrix(word, k) != identity:
                    slide_failures.append(f"{first}{second}/{order[0]} first")
    reports.append(
        Report(
            check=f"reidemeister-2-k{k}",
            anchor=(
                "a crossing followed by its reverse equals the identity "
                "on all four orientation pairs, both orders"
            ),
            passed=not slide_failures,
            witness=(
                "8 crossing pairs cancel to the identity matrix"
                if not slide_failures
                else "failed at " + ", ".join(slide_failures)
            ),
        )
    )

    braid_failures = []
    for picture in ("+", "-"):
        window = ("-", "-", "-")
        left, right = _r3_layers(window, 1, picture)
        one = TangleWord(window, left)
        two = TangleWord(window, right)
        if tangle_matrix(one, k) != tangle_matrix(two, k):
            braid_failures.append(f"picture {picture}")
    reports.append(
        Report(
            check=f"reidemeister-3-k{k}",
            anchor=(
                "the two ways of braiding three upward strands give "
                "the same matrix, for either crossing sign"
            ),
            passed=not braid_failures,
            witness=(
                "both braid words agree"
                if not braid_failures
                else "failed at " + ", ".join(braid_failures)
            ),
        )
    )

    zigzag_failures = []
    for sign in _SIGNS:
        identity = QMatrix.identity(TensorBasis(k, _strand_labels(sign, k)))
        for side in ("right", "left"):
            word = TangleWord((sign,), _zigzag_layers(sign, 1, side))
            if tangle_matrix(word, k) != identity:
                zigzag_failures.append(f"{sign}/{side}")
    reports.append(
        Report(
            check=f"zigzag-k{k}",
            anchor=(
                "a cup-cap zig-zag straightens to the plain strand, "
                "both sides and both orientations"
            ),
            passed=not zigzag_failures,
            witness=(
                "4 zig-zags equal the identity matrix"
                if not zigzag_failures
                else "failed at " + ", ".join(zigzag_failures)
            ),
        )
    )

    return reports


# ----------------------------------------------------------------------
# the closed-word corpus and move insertions

CORPUS: dict[str, str] = {
    "unknot": "cup(-+@1); cap(@1)",
    "unknot-coiled": "cup(-+@1); cup(+-@2); cap(@3); cap(@1)",
    "unknot-kink-plus": (
        "cup(-+@1); cup(-+@2); X+(@1); cap(@2); cap(@1)"
    ),
    "unknot-kink-minus": (
        "cup(-+@1); cup(-+@2); X-(@1); cap(@2); cap(@1)"
    ),
    "unknot-one-crossing": (
        "cup(+-@1); cup(-+@3); X+(@2); cap(@1); cap(@1)"
    ),
    "unlink-2": "cup(+-@1); cup(-+@3); cap(@1); cap(@1)",
    "unlink-2-slid": (
        "cup(+-@1); cup(-+@3); X+(@2); X-(@2); cap(@1); cap(@1)"
    ),
    "hopf-plus": (
        "cup(+-@1); cup(-+@3); X+(@2); X+(@2); cap(@1); cap(@1)"
    ),
    "hopf-minus": (
        "cup(+-@1); cup(-+@3); X-(@2); X-(@2); cap(@1); cap(@1)"
    ),
    "hopf-antiparallel": (
        "cup(-+@1); cup(-+@3); X+(@2); X+(@2); cap(@1); cap(@1)"
    ),
    "trefoil-plus": (
        "cup(+-@1); cup(-+@3); X+(@2); X+(@2); X+(@2); cap(@1); cap(@1)"
    ),
    "trefoil-minus": (
        "cup(+-@1); cup(-+@3); X-(@2); X-(@2); X-(@2); cap(@1); cap(@1)"
    ),
    "twist-4": (
        "cup(+-@1); cup(-+@3); X+(@2); X+(@2); X+(@2); X+(@2); "
        "cap(@1); cap(@1)"
    ),
    "twist-5": (
        "cup(+-@1); cup(-+@3); X+(@2); X+(@2); X+(@2); X+(@2); X+(@2); "
        "cap(@1); cap(@1)"
    ),
    "twist-6": (
        "cup(+-@1); cup(-+@3); X+(@2); X+(@2); X+(@2); X+(@2); X+(@2); "
        "X+(@2); cap(@1); cap(@1)"
    ),
    "twist-4-antiparallel": (
        "cup(-+@1); cup(-+@3); X+(@2); X+(@2); X+(@2); X+(@2); "
        "cap(@1); cap(@1)"
    ),
    "unlink-3-nested": (
        "cup(-+@1); cup(-+@2); cup(-+@3); cap(@3); cap(@2); cap(@1)"
    ),
    "plat-braid-121": (
        "cup(-+@1); cup(-+@2); cup(-+@3); X+(@1); X+(@2); X+(@1); "
        "cap(@3); cap(@2); cap(@1)"
    ),
}


def corpus_word(name: str) -> TangleWord:
    """A named closed word from the regression corpus."""
    try:
        text = CORPUS[name]
    except KeyError:
        known = ", ".join(sorted(CORPUS))
        raise ValueError(f"unknown corpus entry {name!r}; have {known}")
    return parse_tangle(text)


_MOVES = ("r1", "r2", "r3", "zigzag")
_MOVE_HOSTS = (
    "unknot",
    "unlink-2",
    "unlink-3-nested",
    "hopf-plus",
    "hopf-antiparallel",
    "trefoil-plus",
    "twist-4-antiparallel",
)


def _insert(
    t: TangleWord, index: int, layers: Sequence[TangleLayer]
) -> TangleWord:
    return _with_layers(
        t, t.layers[:index] + tuple(layers) + t.layers[index:]
    )


def move_pairs(
    move: str, limit: int = 12
) -> list[tuple[TangleWord, TangleWord]]:
    """Closed word pairs differing by one local move, for regression.

    Pairs are produced deterministically by inserting the move into
    corpus hosts at successive heights and positions, until ``limit``
    pairs exist.
    """
    if move not in _MOVES:
        raise ValueError(f"unknown move {move!r}; have {', '.join(_MOVES)}")
    pairs: list[tuple[TangleWord, TangleWord]] = []
    for name in _MOVE_HOSTS:
        host = corpus_word(name)
        for index, signs in enumerate(host.boundaries):
            width = len(signs)
            candidates: list[tuple[TangleWord, TangleWord]] = []
            if move == "r1":
                for p in range(1, width + 1):
                    for side in ("right", "left"):
                        for cross in _CROSSING_KINDS:
                            inserted = _insert(
                                host,
                                index,
                                _kink_layers(signs[p - 1], p, side, cross),
                            )
                            candidates.append((host, inserted))
            elif move == "r2":
                for p in range(1, width):
                    for order in (("X+", "X-"), ("X-", "X+")):
                        inserted = _insert(
                            host,
                            index,
                            (
                                TangleLayer(order[0], p),
                                TangleLayer(order[1], p),
                            ),
                        )
                        candidates.append((host, inserted))
            elif move == "r3":
                for p in range(1, width - 1):
                    if signs[p - 1] != signs[p + 1]:
                        continue
                    window = (signs[p - 1], signs[p], signs[p + 1])
                    for picture in ("+", "-"):
                        left, right = _r3_layers(window, p, picture)
                        candidates.append(
                            (
                                _insert(host, index, left),
                                _insert(host, index, right),
                            )
                        )
            else:
                for p in range(1, width + 1):
                    for side in ("right", "left"):
                        inserted = _insert(
                            host,
                            index,
                            _zigzag_layers(signs[p - 1], p, side),
                        )
                        candidates.append((host, inserted))
            pairs.extend(candidates)
            if len(pairs) >= limit:
                return pairs[:limit]
    return pairs


# ----------------------------------------------------------------------
# formal sums of restricted coset classes

@dataclass(frozen=True, eq=False)
class GrothVector:
    """A finitely supported Laurent combination of basis classes.

    Coordinates are keyed by (weight composition with exactly ``k``
    parts, minimal coset representative); all keys share the content
    composition ``nu``.  Zero coordinates are dropped on construction.
    """

    k: int
    nu: tuple[int, ...]
    coords: LinComb  # (weight, representative) -> LaurentPoly

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", tuple(self.nu))
        n = sum(self.nu)
        cleaned = LinComb()
        for (mu, z), poly in self.coords.items():
            mu = tuple(mu)
            if len(mu) != self.k or any(p < 0 for p in mu):
                raise ValueError(
                    f"weight {mu} is not a composition with {self.k} parts"
                )
            if sum(mu) != n or z.n != n:
                raise ValueError(
                    f"key ({mu}, {z.one_line_text()}) does not match "
                    f"content {self.nu}"
                )
            cleaned.add_term((mu, z), poly)
        object.__setattr__(self, "coords", cleaned)

    @classmethod
    def basis(
        cls,
        k: int,
        nu: Sequence[int],
        mu: Sequence[int],
        z: Permutation,
    ) -> "GrothVector":
        return cls(k, tuple(nu), {(tuple(mu), z): ONE})

    @classmethod
    def zero(cls, k: int, nu: Sequence[int]) -> "GrothVector":
        return cls(k, tuple(nu), {})

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothVector):
            return NotImplemented
        return (
            self.k == other.k
            and self.nu == other.nu
            and self.coords == other.coords
        )

    def __add__(self, other: "GrothVector") -> "GrothVector":
        if not isinstance(other, GrothVector):
            return NotImplemented
        if (self.k, self.nu) != (other.k, other.nu):
            raise ValueError("cannot add vectors over different contents")
        return GrothVector(self.k, self.nu, self.coords + other.coords)

    def __mul__(self, scalar: object) -> "GrothVector":
        if not isinstance(scalar, (int, LaurentPoly)):
            return NotImplemented
        return GrothVector(self.k, self.nu, self.coords * scalar)

    __rmul__ = __mul__

    def items(self) -> list[tuple[tuple[tuple[int, ...], Permutation], LaurentPoly]]:
        """Coordinates in a canonical order."""
        return sorted(
            self.coords.items(), key=lambda kv: (kv[0][0], kv[0][1].images)
        )

    def text(self) -> str:
        if not self.coords:
            return "0"
        return "; ".join(
            f"({','.join(str(p) for p in mu)} | {z.one_line_text()}): "
            f"{poly}"
            for (mu, z), poly in self.items()
        )

    def __str__(self) -> str:
        return self.text()


# ----------------------------------------------------------------------
# the three transport routes

_ROUTES = ("curly", "translation", "matrix")


def _check_transportable(f: Web) -> None:
    for i, layer in enumerate(f.layers, start=1):
        if layer.kind not in ("merge", "split"):
            raise ValueError(
                "class transport is defined for merge/split webs only; "
                f"layer {i} is {layer.kind}"
            )


def _curly_apply(f: Web, mu: tuple[int, ...], z: Permutation) -> LinComb:
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


def _translation_apply(f: Web, mu: tuple[int, ...], z: Permutation) -> LinComb:
    flags = translation_flag(FlagList.single(z), f.boundaries, mu=mu)
    return LinComb(((mu, w), LaurentPoly.q_power(e)) for e, w in flags.terms)


def _matrix_apply(
    f: Web, matrix: QMatrix, k: int, mu: tuple[int, ...], z: Permutation
) -> LinComb:
    source = phi(psi(z, mu, f.bottom), k)
    out = LinComb()
    for row_key, coeff in matrix.column(source):
        g = phi_inverse(row_key, k)
        out.add_term((g.shape, psi_inverse(g, g.shape, f.top)), coeff)
    return out


def grothendieck_map(
    f: Web,
    nu: Sequence[int],
    nu_prime: Sequence[int],
    k: int,
    route: str = "curly",
) -> Callable[[GrothVector], GrothVector]:
    """The linear map a merge/split web induces on class combinations.

    ``nu`` and ``nu_prime`` must be the web's bottom and top
    boundaries.  ``route`` selects the computation: "curly" folds the
    box-diagram moves, "translation" folds the flag-class translation
    steps, "matrix" reads columns of the web's own matrix through the
    filling encodings.  All three return the same map when the theory
    holds; ``compare_theorem13`` asserts exactly that.
    """
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}; have {', '.join(_ROUTES)}")
    if k != f.k:
        raise ValueError(f"web was typed at k={f.k}, asked for k={k}")
    if tuple(nu) != f.bottom or tuple(nu_prime) != f.top:
        raise ValueError(
            f"boundary mismatch: web maps {f.bottom} -> {f.top}, "
            f"asked for {tuple(nu)} -> {tuple(nu_prime)}"
        )
    _check_transportable(f)
    matrix = evaluate(f) if route == "matrix" else None

    def apply(vec: GrothVector) -> GrothVector:
        if (vec.k, vec.nu) != (k, f.bottom):
            raise ValueError(
                f"vector over k={vec.k}, nu={vec.nu} does not match "
                f"the web's source k={k}, nu={f.bottom}"
            )
        total = LinComb()
        for (mu, z), coeff in vec.coords.items():
            if route == "curly":
                image = _curly_apply(f, mu, z)
            elif route == "translation":
                image = _translation_apply(f, mu, z)
            else:
                image = _matrix_apply(f, matrix, k, mu, z)
            for key, poly in image.items():
                total.add_term(key, poly * coeff)
        return GrothVector(k, f.top, total)

    return apply


def special_generator_webs(n: int, k: int) -> list[Web]:
    """Every one-layer merge or split web of special type on a
    boundary composition of ``n`` with parts that are valid labels."""
    labels = sorted({1, 2, k - 1, k})
    pairs = sorted(special_pairs(k))
    webs = []
    for nu in _label_compositions(n, labels):
        for pos in range(1, len(nu) + 1):
            for a, b in pairs:
                if pos < len(nu) and (nu[pos - 1], nu[pos]) == (a, b):
                    if a + b in labels:
                        webs.append(
                            Web(k, nu, (Layer("merge", pos, a, b),))
                        )
                if nu[pos - 1] == a + b:
                    webs.append(Web(k, nu, (Layer("split", pos, a, b),)))
    return webs


def _label_compositions(
    n: int, labels: Sequence[int]
) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for first in labels:
        if first <= n:
            out.extend(
                (first,) + rest
                for rest in _label_compositions(n - first, labels)
            )
    return out


def compare_theorem13(f: Web, k: int | None = None) -> bool:
    """Whether the three transport routes agree on every basis class.

    Runs over all weight compositions with exactly ``k`` parts and all
    their minimal coset representatives for the web's bottom content.
    """
    rank = f.k if k is None else k
    if rank != f.k:
        raise ValueError(f"web was typed at k={f.k}, asked for k={rank}")
    maps = [
        grothendieck_map(f, f.bottom, f.top, rank, route=route)
        for route in _ROUTES
    ]
    n = sum(f.bottom)
    for mu in all_compositions(n, rank):
        for z in sorted(O_set(mu, f.bottom), key=lambda w: w.images):
            vector = GrothVector.basis(rank, f.bottom, mu, z)
            first, second, third = (apply(vector) for apply in maps)
            if not (first == second and second == third):
                return False
    return True
