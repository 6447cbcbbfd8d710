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
validated triple, ``skein_oracle`` recomputes rank-2 values as one
sum over the product of every crossing's two weighted crossingless
pictures (never touching the crossing matrices), ``reidemeister_suite``
asserts the kink, sliding, braid, and zig-zag moves as exact matrix
identities, and ``move_pairs`` manufactures closed diagram pairs
related by a single move for regression runs over the ``CORPUS``.

``grothendieck_map`` transports a merge/split web to a linear map on
formal Laurent combinations of restricted coset classes, computed by a
choice of three routes: box-diagram moves on fillings, translation of
flag classes, or the web's own matrix carried through the filling
encodings.  ``compare_theorem13`` checks that the three routes agree
on every basis vector; both run the route kernels a weight at a time
over the bottom's class table.  A class is checked once, in ``GrothVector``.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from typing import Callable, Iterator, NamedTuple, Sequence

from .boxcomb import (
    _check_basis_key,
    _check_fillings,
    _compositions,
    _merge_word,
    _phi_inverse_word,
    _phi_word,
    _psi_inverse_word,
    _psi_words,
    _split_word,
    _unqualified,
    all_compositions,
)
from .qlaurent import ONE, ZERO, LaurentPoly, LinComb, _check_int, _tally, quantum_int
from .reporting import Report
from .symhecke import O_lists, Permutation, TranslationPath, _check_classes, _value_blocks
from .weblin import QMatrix, TensorBasis, special_pairs
from .webgraph import (
    Layer,
    Web,
    WebParseError,
    _SliceWord,
    _at_position,
    _check_position,
    _located,
    _read_header,
    evaluate,
    evaluate_closed,
    slice_chunks,
)

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


# the slice grammars' one error type, under its tangle name
TangleParseError = WebParseError


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
        _check_position(self.pos)
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
class TangleWord(_SliceWord):
    """A type-checked tangle word: boundary orientations and layers.

    Construction walks the layers and records every intermediate
    orientation boundary in ``boundaries``.  ``k`` is an optional
    preferred rank carried over from a parsed header; the word itself is
    rank-independent.
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
        if self.k is not None:
            _check_int(self.k, "tangle rank k", 2)
        for sign in self.bottom:
            if sign not in _SIGNS:
                raise ValueError(
                    f"orientation must be '-' or '+', got {sign!r}"
                )
        self._walk(_sign_step)

    @property
    def is_closed(self) -> bool:
        return not self.bottom and not self.top

    def text(self) -> str:
        """Render back to the grammar; ``parse_tangle`` round-trips it
        (the header line is emitted only when ``k`` is set)."""
        return self._text("tangle", _signs_text(self.bottom))


# ----------------------------------------------------------------------
# parsing

_HEADER_SYNTAX = "tangle k=<int> bottom=<signs>"
_LAYER_RE = re.compile(r"^(cup|cap|X\+|X-)\s*\(\s*([^()]*?)\s*\)$")
_CUP_SIGNS_RE = re.compile(r"^([+-])\s*,?\s*([+-])$")


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
    kind, args = match.groups()
    rest, pos = _at_position(args, line, col)
    if kind == "cup":
        signs = _CUP_SIGNS_RE.match(rest)
        if signs is None:
            raise TangleParseError(
                f"cup arguments {args!r} are not "
                "an orientation pair with optional @position",
                line,
                col,
            )
        try:
            return TangleLayer("cup", pos, signs.groups())
        except ValueError as exc:
            raise TangleParseError(str(exc), line, col) from None
    if rest:
        raise TangleParseError(
            f"{kind} arguments {args!r} are not an optional @position",
            line,
            col,
        )
    return TangleLayer(kind, pos)


def parse_tangle(
    text: str, bottom: Sequence[str] | None = None
) -> TangleWord:
    """Parse the tangle grammar into a type-checked word.

    The first piece may be a header ``tangle k=<int> bottom=<signs>``;
    without one the word is a fragment whose bottom defaults to the
    ``bottom`` argument (or the empty boundary of a closed word) and
    whose preferred rank is left unset.  A layer that does not fit the
    boundary below it raises ``TangleParseError`` at its line and column,
    like every other fault in the text.
    """
    chunks = list(slice_chunks(text))
    header_k, bottom_text, line0, col0 = _read_header(chunks, _HEADER_SYNTAX, bottom)
    if header_k is not None:
        if header_k < 2:
            raise TangleParseError(
                f"k out of range: need k >= 2, got {header_k}", line0, col0
            )
        bottom = _parse_bottom(bottom_text, line0, col0)
    body = chunks[0 if header_k is None else 1 :]
    layers = [_parse_layer(*chunk) for chunk in body]
    return _located(
        lambda: TangleWord(bottom or (), layers, header_k), body, line0, col0
    )


# ----------------------------------------------------------------------
# compilation to webs

def _resolve_rank(t: TangleWord, k: int | None) -> int:
    rank = k if k is not None else t.k
    if rank is None:
        raise ValueError(
            "no rank given: pass k= or parse a tangle header that sets it"
        )
    _check_int(rank, "tangle rank k", 2)
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
    _require_closed(t)
    return evaluate_closed(to_web(t, rank))


def _require_closed(t: TangleWord) -> None:
    if not t.is_closed:
        raise ValueError(
            "closed tangle word required; boundary is "
            f"{_signs_text(t.bottom)!r} -> {_signs_text(t.top)!r}"
        )


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


def skein_triple(
    t: TangleWord, index: int
) -> tuple[TangleWord, TangleWord, TangleWord]:
    """The words (L+, L-, L0) that differ only at crossing ``index``.

    L0 is the oriented smoothing: the crossing is dropped when its
    strands are parallel and turned back when they are antiparallel."""
    if index not in crossing_sites(t):
        raise ValueError(f"layer {index} of the word is not a crossing")
    pos = t.layers[index].pos
    first, second = t.boundaries[index][pos - 1 : pos + 1]
    smoothing = () if first == second else (
        TangleLayer("cap", pos),
        TangleLayer("cup", pos, (second, first)),
    )
    before, after = t.layers[:index], t.layers[index + 1 :]
    plus = _with_layers(t, before + (TangleLayer("X+", pos),) + after)
    minus = _with_layers(t, before + (TangleLayer("X-", pos),) + after)
    zero = _with_layers(t, before + smoothing + after)
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
    pos = plus.layers[site].pos
    if (plus.layers[site], minus.layers[site]) != (
        TangleLayer("X+", pos),
        TangleLayer("X-", pos),
    ):
        raise ValueError(
            "skein triple mismatch: the differing site must hold X+ "
            "against X- at one position"
        )
    if zero.layers != skein_triple(plus, site)[2].layers:
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

def skein_oracle(t: TangleWord, k: int = 2) -> LaurentPoly:
    """Brute-force value of a closed word by crossing resolution.

    Defined for rank 2 only.  Every crossing contributes two
    crossingless pictures whose weights come from the crossing's sign
    and whether its strands are parallel; the value sums, over every
    choice of one picture per crossing, the product of the chosen
    weights times [2] per circle of the resulting cup/cap diagram.
    Neither the crossing matrices nor the web evaluation pipeline is
    touched, so agreement with ``link_poly`` cross-validates both.
    """
    if k != 2:
        raise ValueError(
            f"the skein-resolution oracle covers only k=2, got k={k}"
        )
    _require_closed(t)
    # each layer's weighted pictures (sign, q-exponent, ("cup"|"cap",
    # position) moves): one for a cup or cap, q^e and -q^2e for a crossing
    choices = []
    for layer, signs in zip(t.layers, t.boundaries):
        p = layer.pos
        if layer.kind in ("cup", "cap"):
            choices.append(((1, 0, ((layer.kind, p),)),))
            continue
        e = -1 if layer.kind == "X+" else 1
        keep, turn = (), (("cap", p), ("cup", p))
        # the q^e picture keeps parallel strands and turns antiparallel ones
        if signs[p - 1] != signs[p]:
            keep, turn = turn, keep
        choices.append(((1, e, keep), (-1, 2 * e, turn)))
    total = ZERO
    for picks in product(*choices):
        sign = prod(s for s, _, _ in picks)
        weight = LaurentPoly.q_power(sum(e for _, e, _ in picks))
        picture = [move for _, _, moves in picks for move in moves]
        total = total + sign * weight * quantum_int(2) ** _loop_count(picture)
    return total


def _loop_count(picture: Sequence[tuple[str, int]]) -> int:
    """Circles in a closed crossingless cup/cap word.  Both ends of an
    open arc carry its id: a cap on one arc's two ends closes a circle,
    and a cap on two arcs gives the second one's far end the first's id."""
    ends: list[int] = []
    loops = 0
    for arc, (op, pos) in enumerate(picture):
        if op == "cup":
            ends[pos - 1 : pos - 1] = [arc, arc]
            continue
        one, two = ends[pos - 1], ends[pos]
        del ends[pos - 1 : pos + 1]
        if one == two:
            loops += 1
        else:
            ends[ends.index(two)] = one
    return loops


# ----------------------------------------------------------------------
# local moves

_MOVES = ("r1", "r2", "r3", "zigzag")


def _move_sides(
    move: str, signs: tuple[str, ...], p: int
) -> Iterator[tuple[str, tuple[TangleLayer, ...], tuple[TangleLayer, ...]]]:
    """Every variant of ``move`` at position ``p`` of the boundary ``signs``.

    Yields ``(label, one, other)``, two layer runs that a single local
    move relates.  For r1, r2 and zigzag ``one`` is empty (the plain
    strands); for r3 the two sides are the braid words 121 and 212.
    """
    sign = signs[p - 1]
    if move in ("r1", "zigzag"):
        # A cup opens right or left of the strand; the kink's crossing
        # or the zig-zag's cap then acts at ``turn``.
        for side, cup, turn, ends in (
            ("right", p + 1, p, (sign, _opp(sign))),
            ("left", p, p + 1, (_opp(sign), sign)),
        ):
            if move == "zigzag":
                yield f"{sign}/{side}", (), (
                    TangleLayer("cup", cup, ends[::-1]),
                    TangleLayer("cap", turn),
                )
            else:
                for cross in _CROSSING_KINDS:
                    yield f"{sign}/{side}/{cross}", (), (
                        TangleLayer("cup", cup, ends),
                        TangleLayer(cross, turn),
                        TangleLayer("cap", cup),
                    )
    elif move == "r2" and p < len(signs):
        for first, second in (("X+", "X-"), ("X-", "X+")):
            yield f"{sign}{signs[p]}/{first} first", (), (
                TangleLayer(first, p),
                TangleLayer(second, p),
            )
    elif move == "r3" and p + 1 < len(signs) and sign == signs[p + 1]:
        # Each picture shows all three crossings over/under alike; a
        # layer's sign follows from its strands' orientations at that
        # height (the same picture on an antiparallel pair is the
        # opposite crossing sign), so the sides differ by a slide move.
        for picture in ("+", "-"):
            sides = []
            for offsets in ((0, 1, 0), (1, 0, 1)):
                current = list(signs[p - 1 : p + 2])
                layers = []
                for off in offsets:
                    parallel = current[off] == current[off + 1]
                    kind = "X+" if parallel == (picture == "+") else "X-"
                    layers.append(TangleLayer(kind, p + off))
                    current[off : off + 2] = current[off + 1], current[off]
                sides.append(tuple(layers))
            yield f"picture {picture}", sides[0], sides[1]


# (move, check prefix, boundaries, anchor, witness when every variant holds)
_SUITE = (
    (
        "r1",
        "reidemeister-1",
        ("-", "+"),
        "a kinked strand equals the plain strand: both kink sides, both "
        "crossing signs, both orientations",
        "8 kink diagrams equal the identity matrix",
    ),
    (
        "r2",
        "reidemeister-2",
        ("--", "-+", "+-", "++"),
        "a crossing followed by its reverse equals the identity on all "
        "four orientation pairs, both orders",
        "8 crossing pairs cancel to the identity matrix",
    ),
    (
        "r3",
        "reidemeister-3",
        ("---",),
        "the two ways of braiding three upward strands give the same "
        "matrix, for either crossing sign",
        "both braid words agree",
    ),
    (
        "zigzag",
        "zigzag",
        ("-", "+"),
        "a cup-cap zig-zag straightens to the plain strand, both sides "
        "and both orientations",
        "4 zig-zags equal the identity matrix",
    ),
)


def reidemeister_suite(k: int) -> list[Report]:
    """Exact matrix checks of the local moves at rank ``k``.

    Each report covers one move: every kink equals the plain strand,
    a crossing followed by its reverse equals the identity, the two
    braidings of three strands agree, and both zig-zags equal the
    plain strand.
    """
    return [
        Report.of_failures(
            f"{prefix}-k{k}",
            anchor,
            [
                label
                for signs in map(tuple, boundaries)
                for label, one, other in _move_sides(move, signs, 1)
                if tangle_matrix(TangleWord(signs, one), k)
                != tangle_matrix(TangleWord(signs, other), k)
            ],
            held,
        )
        for move, prefix, boundaries, anchor, held in _SUITE
    ]


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
            for p in range(1, len(signs) + 1):
                for _, one, other in _move_sides(move, signs, p):
                    pairs.append(
                        (_insert(host, index, one), _insert(host, index, other))
                    )
            if len(pairs) >= limit:
                return pairs[:limit]
    return pairs


# ----------------------------------------------------------------------
# formal sums of restricted coset classes

def _check_class_key(
    k: int, nu: tuple[int, ...], mu: tuple[int, ...], size: int
) -> None:
    """Raise unless (mu, a class on ``size`` letters) keys a class over ``nu``."""
    n = sum(nu)
    if len(mu) != k or any(type(p) is not int or p < 0 for p in mu):
        raise ValueError(f"weight {mu} is not a composition with {k} parts")
    if sum(mu) != n or size != n:
        raise ValueError(f"key ({mu}, {size} letters) does not match content {nu}")


@dataclass(frozen=True)
class GrothVector:
    """A finitely supported Laurent combination of basis classes.

    Coordinates are keyed by (weight composition with exactly ``k``
    ``int`` parts, minimal coset representative); all keys share the
    content composition ``nu`` and are checked here, where classes
    enter the transport.  Zero coordinates are dropped.  A ``LinComb``
    whose weights are already tuples is adopted after its keys are checked.
    """

    k: int
    nu: tuple[int, ...]
    coords: LinComb  # (weight, representative) -> LaurentPoly

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", tuple(self.nu))
        coords = self.coords
        adopt = isinstance(coords, LinComb)
        for mu, z in coords:
            adopt = adopt and type(mu) is tuple
            if not isinstance(z, Permutation):
                raise ValueError(f"class {z!r} is not a Permutation")
            _check_class_key(self.k, self.nu, tuple(mu), z.n)
        _check_classes([(0, z) for _, z in coords], self.nu)
        if not adopt:
            coords = LinComb(
                ((tuple(mu), z), poly) for (mu, z), poly in coords.items()
            )
        object.__setattr__(self, "coords", coords)

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


# (class index, weight, top box word, exponent) -> nonzero integer: one weight's
# list of image fillings, each Laurent coefficient spread over its monomials
Tally = dict[tuple[int, tuple[int, ...], tuple[int, ...], int], int]


def _box_moves(word: tuple[int, ...], mu: tuple[int, ...], layer: Layer) -> list:
    """A merge or split layer's box move on a word over mu."""
    if layer.kind == "merge":
        return _merge_word(word, mu, layer.pos)
    return _split_word(word, layer.pos, layer.a, layer.b)


# the (k, boundary) class tables kept at once: the one-generator webs
# with n <= 5 and k = 2..4 sit on 72 boundaries
_TABLE_BOUND = 96


class _ClassTable(NamedTuple):
    """Every weight's classes over one (k, boundary), packed: the weights
    with classes in ``all_compositions`` order, and for each class, in
    ``O_lists`` order, its representative, its ``psi`` source word (n
    bytes of ``words``) and its column in ``TensorBasis(k, nu)`` order.
    ``ends[j]`` is one past the last class of weight j; ``owner`` maps
    each column back to its class."""

    n: int
    mus: tuple[tuple[int, ...], ...]
    ends: array
    classes: tuple[Permutation, ...]
    words: bytes
    positions: array
    owner: array

    def weight(self, j: int) -> tuple[tuple[int, ...], tuple, list, array]:
        """Weight j's (mu, classes, source words, column positions)."""
        n, start, end = self.n, self.ends[j - 1] if j else 0, self.ends[j]
        sources = [tuple(self.words[i : i + n]) for i in range(start * n, end * n, n)]
        return self.mus[j], self.classes[start:end], sources, self.positions[start:end]

    def weights(self) -> Iterator[tuple[tuple[int, ...], tuple, list, array]]:
        return map(self.weight, range(len(self.mus)))


@lru_cache(maxsize=_TABLE_BOUND)
def _weights(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The weights of n with k parts, one tuple each, shared by the tables."""
    return tuple(all_compositions(n, k))


@lru_cache(maxsize=_TABLE_BOUND)
def _class_table(k: int, nu: tuple[int, ...]) -> _ClassTable:
    """The class table of (k, nu), built on first use.  ``psi`` and
    ``phi_inverse`` check each class here, once per boundary."""
    n, basis, block = sum(nu), TensorBasis(k, nu), _value_blocks(nu)
    # 16-bit class and column indices while they fit: below 4^8 columns
    code = "H" if len(basis) < 1 << 16 else "I"
    mus, ends, classes = [], array(code), []
    words, positions, owner = bytearray(), array(code), array(code, [0]) * len(basis)
    for mu, weight in O_lists(_weights(n, k), nu):
        if not weight:
            continue
        mus.append(mu)
        classes += weight
        ends.append(len(classes))
        columns = _value_blocks(mu)
        for source in _psi_words(weight, mu, nu, block):
            key = _phi_word(source, columns)
            _check_basis_key(key, k)
            if _phi_inverse_word(key, k) != (source, mu):
                raise ValueError(f"phi_inverse does not invert phi on {key}")
            words += bytes(source)
            positions.append(position := basis.index(key))
            owner[position] = len(positions) - 1
    return _ClassTable(n, tuple(mus), ends, tuple(classes), bytes(words), positions, owner)


class _TransportPlan:
    """The per-web work of the three transport routes, done once.

    A plan carries each basis class (mu, z) as a box word over mu, read
    from the class tables: ``psi``'s source word from the bottom's, its
    images' words from the top's.  Each route takes one table weight
    (mu, classes, source words, positions), reads only the fields it
    needs, and returns a ``Tally`` keyed by the classes' index and top
    box words, so images compare with one dict ``==``: the curly kernel
    folds the layers' box moves over the source words; the translation
    kernel pushes each z along the web's walls, each wall step analysed
    once, and looks the images up among the top's classes; the matrix
    kernel reads the columns at the classes' positions in the web's
    matrix, evaluated once, and each row's class through the top's
    ``owner``.  ``check`` checks each weight's keys once and each
    distinct top word once.
    """

    def __init__(self, f: Web) -> None:
        for i, layer in enumerate(f.layers, start=1):
            if layer.kind not in ("merge", "split"):
                raise ValueError(
                    "class transport is defined for merge/split webs only; "
                    f"layer {i} is {layer.kind}"
                )
        self.web = f

    @cached_property
    def _matrix(self) -> QMatrix:
        """The web's matrix, evaluated once."""
        return evaluate(self.web)

    @cached_property
    def _walls(self) -> TranslationPath:
        return TranslationPath(self.web.boundaries)

    @cached_property
    def _top(self) -> tuple[array, list, list, dict]:
        """The top's class table, unpacked once: ``owner``, each class's weight
        and word, and per weight (index of its first class, classes' images)."""
        table, mus, words, spans = _class_table(self.web.k, self.web.top), [], [], {}
        for mu, classes, sources, _ in table.weights():
            spans[mu] = len(words), [z.images for z in classes]
            mus += [mu] * len(classes)
            words += sources
        return table.owner, mus, words, spans

    def curly(self, mu: tuple[int, ...], classes, sources, positions) -> Tally:
        """Fold the box moves of each layer over the source words."""
        words = {(i, mu, source, 0): 1 for i, source in enumerate(sources)}
        for layer in self.web.layers:
            words = _tally(
                ((i, mu, new, e + shift), c)
                for (i, _, word, e), c in words.items()
                for new, shift in _box_moves(word, mu, layer)
            )
        return words

    def translation(self, mu: tuple[int, ...], classes, sources, positions) -> Tally:
        """Push each flag class z along the web's walls, and find the images
        among the top's classes."""
        push, (_, _, words, spans) = self._walls._pusher(mu), self._top
        start, images = spans.get(mu, (0, []))
        image: Tally = {}
        for i, z in enumerate(classes):
            for e, w in push([(0, z.images)]):
                at = bisect_left(images, w)
                if images[at : at + 1] != [w]:
                    raise _unqualified(Permutation(w), mu, self.web.top)
                key = (i, mu, words[start + at], e)
                image[key] = image.get(key, 0) + 1
        return image

    def matrix(self, mu: tuple[int, ...], classes, sources, positions) -> Tally:
        """Read the web's matrix columns at the classes' positions as top words."""
        (owner, mus, words, _), index = self._top, self._matrix.rows.index
        # distinct rows are distinct fillings, and a column holds no zero
        return {
            (i, mus[c], words[c], e): n
            for i, position in enumerate(positions)
            for row_key, poly in self._matrix.columns[position].items()
            for c in (owner[index(row_key)],)
            for e, n in poly.terms
        }

    def check(self, image: Tally) -> None:
        """Run ``GrothVector``'s key check once per weight (and word
        length) of ``image``, and ``psi_inverse``'s filling check once
        per distinct word of a weight."""
        k, top = self.web.k, self.web.top
        weights: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        for _, mu, word, _ in image:
            weights.setdefault(mu, set()).add(word)
        for mu, words in weights.items():
            for size in set(map(len, words)):
                _check_class_key(k, top, mu, size)
            _check_fillings(words, mu, top)


def grothendieck_map(
    f: Web, route: str = "curly"
) -> Callable[[GrothVector], GrothVector]:
    """The linear map a merge/split web induces on class combinations:
    from the classes of its bottom boundary to those of its top, at the
    web's rank.

    ``route`` selects the computation: "curly" folds the box-diagram
    moves, "translation" folds the flag-class translation steps,
    "matrix" reads columns of the web's own matrix through the filling
    encodings.  All three return the same map when the theory holds;
    ``compare_theorem13`` asserts exactly that.

    The map runs its route once per weight of the bottom's class table,
    checking the tally once; a class outside the table raises ``psi``'s error.
    """
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}; have {', '.join(_ROUTES)}")
    plan = _TransportPlan(f)
    k, table = f.k, _class_table(f.k, f.bottom)
    # mu -> class -> its image's (key, q^e, count) terms
    images: dict[tuple[int, ...], dict[Permutation, list]] = {}

    def class_terms(mu: tuple[int, ...], z: Permutation) -> list:
        if mu not in images and mu in table.mus:
            _, classes, *_ = weight = table.weight(table.mus.index(mu))
            tally = getattr(plan, route)(*weight)
            plan.check(tally)
            tops = {w: _psi_inverse_word(w, f.top) for _, _, w, _ in tally}
            terms: dict[Permutation, list] = {y: [] for y in classes}
            for (i, top_mu, word, e), c in tally.items():
                terms[classes[i]].append(((top_mu, tops[word]), LaurentPoly.q_power(e), c))
            images[mu] = terms
        if z not in images.get(mu, ()):
            raise _unqualified(z, mu, f.bottom)
        return images[mu][z]

    def apply(vec: GrothVector) -> GrothVector:
        if (vec.k, vec.nu) != (k, f.bottom):
            raise ValueError(
                f"vector over k={vec.k}, nu={vec.nu} does not match "
                f"the web's source k={k}, nu={f.bottom}"
            )
        total = LinComb.of_products(
            (key, power, coeff * c)
            for (mu, z), coeff in vec.coords.items()
            for key, power, c in class_terms(mu, z)
        )
        return GrothVector(k, f.top, total)

    return apply


def special_generator_webs(n: int, k: int) -> list[Web]:
    """Every one-layer merge or split web of special type on a
    boundary composition of ``n`` with parts that are valid labels."""
    _check_int(k, "web rank k", 2)
    _check_int(n, "boundary size n", 0)
    labels = sorted({1, 2, k - 1, k})
    pairs = sorted(special_pairs(k))
    webs = []
    for nu in _compositions(n, labels):
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


def compare_theorem13(f: Web) -> bool:
    """Whether the three transport routes agree on every basis class.

    Runs over all weight compositions with exactly ``k`` parts (the
    web's rank) and all their minimal coset representatives for the
    web's bottom content, read from the bottom's class table.  Each
    weight's classes run together through the web's transport plan and
    the three tallies are compared as plain dicts.  The image keys are
    checked only before a disagreement is reported, in all three
    tallies: the translation route finds every image among the top
    table's classes, whose words the table checked when it was built,
    so tallies that agree hold only checked words.
    """
    plan = _TransportPlan(f)
    for weight in _class_table(f.k, f.bottom).weights():
        images = [getattr(plan, route)(*weight) for route in _ROUTES]
        if not images[0] == images[1] == images[2]:
            for image in images:
                plan.check(image)
            return False
    return True
