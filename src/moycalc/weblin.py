"""Tensor products of exterior powers of V = C(q)^k and their intertwiners.

A boundary is a list of labels (a_1, ..., a_l); it denotes the space
⋀^{a_1}V ⊗ ... ⊗ ⋀^{a_l}V with its standard basis: one strictly
increasing index tuple per factor.  Wedge factors are written with
strictly increasing indices throughout (one of the two usual sign-free
conventions; the source material is inconsistent on this point and the
increasing form matches every explicit formula used here).

The module provides the six special merge/split intertwiners as exact
matrices over Z[q, q^-1], the cup/cap maps obtained by bending a
k-labelled edge, the induced Temperley-Lieb/Hecke operator E_s on
V^{⊗n}, and the crossing matrices in their frozen normalization.

Every generator is stored once as a local window map (``local_map``) on
the one or two factors it touches; ``apply_window`` applies such a map
to a sparse state of {basis key: poly} columns.  Web evaluation pushes
states through these maps, and the whole-boundary matrices above are
built by pushing the identity basis through the same function.
``generator_step`` is the one rule for which generator fits which
boundary; the matrix constructors here and webs and their parser in
``webgraph`` all call it.

All merge/split coefficients come from one uniform rule.  With
inv(S, T) = #{(s, t) ∈ S×T : s > t}:

- merge_{a,b}: v_S ⊗ v_T ↦ q^{-inv(S,T)} v_{S∪T}  (0 if S, T intersect)
- split_{a,b}: v_U ↦ Σ_{S⊔T=U, |S|=a} q^{inv(T,S)} v_S ⊗ v_T

Specializing (a, b) to (k-1, 1), (1, k-1), (1, 1) recovers the six
displayed special formulas; e.g. for k = 2:

>>> m = intertwiner_matrix("split(1,1)", k=2, labels=(2,), pos=1)
>>> [(key, str(p)) for key, p in m.column(((1, 2),)) ]
[(((1,), (2,)), 'q'), (((2,), (1,)), '1')]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .qlaurent import ONE, LaurentPoly, LinComb, _check_int

__all__ = [
    "TensorBasis",
    "QMatrix",
    "INPUT_SPANS",
    "generator_step",
    "intertwiner_matrix",
    "local_map",
    "apply_window",
    "merge_matrix",
    "split_matrix",
    "cup_matrix",
    "cap_matrix",
    "cross_matrix_at",
    "hecke_E",
    "crossing_matrix",
    "reversal_matrix",
    "special_pairs",
]

Subset = tuple[int, ...]
Key = tuple[Subset, ...]
Scalar = Union[int, LaurentPoly]


# ----------------------------------------------------------------------
# bases


@dataclass(frozen=True)
class TensorBasis:
    """Standard basis of ⋀^{a_1}V ⊗ ... ⊗ ⋀^{a_l}V, enumerated lexicographically.

    Elements are tuples of strictly increasing index tuples, one per
    factor, with values in 1..k.  The enumeration order is the
    lexicographic product order and is stable across runs.
    """

    k: int
    labels: tuple[int, ...]
    # computed: all basis keys, lex order; and a key -> position lookup
    elements: tuple[Key, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_int(self.k, "rank k", 1)
        if any(a < 0 for a in self.labels):
            raise ValueError(f"negative label in {self.labels}")
        factors = [
            tuple(combinations(range(1, self.k + 1), a)) for a in self.labels
        ]
        elements = tuple(product(*factors))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(
            self, "_position", {key: i for i, key in enumerate(elements)}
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Key]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> Key:
        return self.elements[i]

    def index(self, key: Key) -> int:
        return self._position[key]

    def expected_dimension(self) -> int:
        total = 1
        for a in self.labels:
            total *= comb(self.k, a)
        return total


# ----------------------------------------------------------------------
# matrices


def _positions(index: Sequence) -> Mapping:
    """Key -> position lookup of an index sequence."""
    if isinstance(index, TensorBasis):
        return index._position
    return {key: i for i, key in enumerate(index)}


@dataclass(frozen=True, eq=False)
class QMatrix:
    """A matrix over Z[q, q^-1] with explicit row/column index keys.

    ``rows`` and ``cols`` are index sequences (a TensorBasis, or any
    tuple of hashable keys); ``columns`` holds one sparse
    {row_key: poly} ``LinComb`` per column key, in column order.
    Mappings that are not yet a ``LinComb`` are copied into one, and
    every row key is checked against ``rows``.  The algebra (``+``,
    ``-``, scalar ``*``, ``@``, ``bar``, ``tensor``) builds its keys from
    its checked operands' rows, so it adopts its results via ``_trusted``.
    """

    rows: Sequence
    cols: Sequence
    columns: tuple[LinComb, ...]

    def __post_init__(self) -> None:
        columns = tuple(LinComb.adopt(column) for column in self.columns)
        object.__setattr__(self, "columns", columns)
        if len(columns) != len(self.cols):
            raise ValueError("need one column per column key")
        known = self._row_position.keys()
        for column in columns:
            if not column.keys() <= known:
                stray = next(key for key in column if key not in known)
                raise ValueError(f"row key {stray!r} is not in the row index")

    @cached_property
    def _row_position(self) -> Mapping:
        return _positions(self.rows)

    @cached_property
    def _col_position(self) -> Mapping:
        return _positions(self.cols)

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, index: Sequence) -> "QMatrix":
        return cls(index, index, tuple(LinComb({key: ONE}) for key in index))

    @classmethod
    def _trusted(cls, rows: Sequence, cols: Sequence, columns: Iterable[LinComb]) -> "QMatrix":
        """A matrix from ``LinComb`` columns, one per column key, that the
        caller built keyed by ``rows``: adopted without the row check."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "cols", cols)
        object.__setattr__(matrix, "columns", tuple(columns))
        return matrix

    # -- shape and access ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    @cached_property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """A read-only dense view, row-major, for inspection."""
        return tuple(
            tuple(column.coeff(row_key) for column in self.columns)
            for row_key in self.rows
        )

    def entry(self, row_key, col_key) -> LaurentPoly:
        return self.columns[self._col_position[col_key]].coeff(row_key)

    def column(self, col_key) -> list[tuple[object, LaurentPoly]]:
        """The nonzero entries of one column as (row_key, poly) pairs,
        in row order."""
        position = self._row_position
        return sorted(
            self.columns[self._col_position[col_key]].items(),
            key=lambda item: position[item[0]],
        )

    def scalar(self) -> LaurentPoly:
        """The unique entry of a 1x1 matrix."""
        if self.shape != (1, 1):
            raise ValueError(f"matrix of shape {self.shape} is not a scalar")
        return self.columns[0].coeff(self.rows[0])

    def is_zero(self) -> bool:
        return not any(self.columns)

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            tuple(self.rows) == tuple(other.rows)
            and tuple(self.cols) == tuple(other.cols)
            and self.columns == other.columns
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._columnwise(other, LinComb.__add__)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self._columnwise(other, LinComb.__sub__)

    def _columnwise(self, other: "QMatrix", op: Callable) -> "QMatrix":
        """``op`` on each pair of columns of two matrices on one index."""
        if (tuple(self.rows), tuple(self.cols)) != (tuple(other.rows), tuple(other.cols)):
            raise ValueError("sum index mismatch")
        return QMatrix._trusted(self.rows, self.cols, tuple(map(op, self.columns, other.columns)))

    def __neg__(self) -> "QMatrix":
        return QMatrix._trusted(self.rows, self.cols, tuple(-a for a in self.columns))

    def __mul__(self, scalar: Scalar) -> "QMatrix":
        if not isinstance(scalar, (int, LaurentPoly)):
            return NotImplemented
        return QMatrix._trusted(self.rows, self.cols, tuple(a * scalar for a in self.columns))

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        """Composition self ∘ other (apply ``other`` first)."""
        if not isinstance(other, QMatrix):
            return NotImplemented
        if tuple(self.cols) != tuple(other.rows):
            raise ValueError("composition index mismatch")
        position, columns = self._col_position, self.columns
        images = tuple(
            LinComb.of_products(
                (row_key, a, b)
                for mid, b in column.items()
                for row_key, a in columns[position[mid]].items()
            )
            for column in other.columns
        )
        return QMatrix._trusted(self.rows, other.cols, images)

    def tensor(self, other: "QMatrix") -> "QMatrix":
        """Monoidal (side-by-side) product; keys concatenate."""
        rows = tuple(r1 + r2 for r1 in self.rows for r2 in other.rows)
        cols = tuple(c1 + c2 for c1 in self.cols for c2 in other.cols)
        columns = tuple(
            LinComb.of_products(
                (r1 + r2, a, b)
                for r1, a in left.items()
                for r2, b in right.items()
            )
            for left in self.columns
            for right in other.columns
        )
        return QMatrix._trusted(rows, cols, columns)

    def bar(self) -> "QMatrix":
        """Entrywise bar involution q -> q^-1."""
        return QMatrix._trusted(self.rows, self.cols, tuple(a.bar() for a in self.columns))

    def __str__(self) -> str:
        cells: dict[object, list[str]] = {}
        for col_key, column in zip(self.cols, self.columns):
            for row_key, p in column.items():
                cells.setdefault(row_key, []).append(f"{col_key}: {p}")
        lines = [f"QMatrix {len(self.rows)}x{len(self.cols)}"]
        for row_key in self.rows:
            row = cells.get(row_key)
            lines.append(f"  {row_key} <- {', '.join(row) if row else '0'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the uniform merge/split rule


def _inversions(left: Iterable[int], right: Iterable[int]) -> int:
    return sum(1 for s in left for t in right if s > t)


def special_pairs(k: int) -> set[tuple[int, int]]:
    """The admissible merge/split label pairs: (1,1), (1,k-1), (k-1,1)."""
    return {(1, 1), (1, k - 1), (k - 1, 1)}


# number of strands each generator consumes from the boundary below it
INPUT_SPANS = {"merge": 2, "split": 1, "cup": 0, "cap": 2, "cross+": 2, "cross-": 2}


def generator_step(
    kind: str,
    k: int,
    labels: tuple[int, ...],
    pos: int,
    a: int | None = None,
    b: int | None = None,
) -> tuple[int, ...]:
    """The boundary above one generator at ``pos`` on the boundary
    ``labels`` below it; ValueError when the generator does not fit.

    This is the one typing rule for generators.  Split and cup take
    their label pair (a, b); merge and cap read theirs off the boundary,
    and a pair passed to them must match it.  Merges and splits take
    the special pairs only.
    """
    span = INPUT_SPANS.get(kind)
    if span is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind in ("split", "cup") and (a is None or b is None):
        raise ValueError(f"{kind} needs its label pair (a, b), got ({a}, {b})")
    if not 1 <= pos <= len(labels) + 1 - span:
        name = "crossing" if kind.startswith("cross") else kind
        raise ValueError(f"{name} position {pos} out of range for boundary {labels}")
    window = labels[pos - 1 : pos - 1 + span]
    if kind == "merge":
        if a is not None and window != (a, b):
            raise ValueError(
                f"merge({a},{b}) does not match boundary {labels} "
                f"at position {pos}"
            )
        a, b = window
        out = (a + b,)
    elif kind == "split":
        if window != (a + b,):
            raise ValueError(
                f"cannot split label {window[0]} at position {pos} "
                f"into ({a},{b})"
            )
        out = (a, b)
    elif kind == "cup":
        if a + b != k or {a, b} != {1, k - 1}:
            raise ValueError(f"cup label pair ({a},{b}) not admissible for k={k}")
        out = (a, b)
    elif kind == "cap":
        if a is not None and window != (a, b):
            raise ValueError(
                f"cap labels {(a, b)} do not match boundary {labels} "
                f"at position {pos}"
            )
        if sum(window) != k or set(window) != {1, k - 1}:
            raise ValueError(
                f"cap at position {pos} needs labels (1,{k - 1}) or "
                f"({k - 1},1), found {window}"
            )
        out = ()
    else:
        if window != (1, 1):
            raise ValueError(
                f"crossing at position {pos} needs labels (1,1), "
                f"found ({window[0]},{window[1]})"
            )
        out = window
    if kind in ("merge", "split") and (a, b) not in special_pairs(k):
        raise ValueError(f"{kind} label pair ({a},{b}) not admissible for k={k}")
    return labels[: pos - 1] + out + labels[pos - 1 + span :]


LocalMap = Mapping[Key, tuple[tuple[Key, LaurentPoly], ...]]
State = list[Mapping[Key, LaurentPoly]]


def apply_window(local: LocalMap, pos: int, span: int, state: State) -> State:
    """Apply a local window map to every column of a sparse state.

    Each column is a {basis key: poly} mapping; the map acts on the
    factors [pos, pos+span) of each key and as the identity on the rest
    (span 0 inserts its window before factor ``pos``).  Each image
    column is one ``LinComb.of_products`` over the column's entries and
    their window images, so it holds no zero entry.
    """
    lo, hi = pos - 1, pos - 1 + span
    return [
        LinComb.of_products(_window_images(local, lo, hi, column)) for column in state
    ]


def _window_images(
    local: LocalMap, lo: int, hi: int, column: Mapping[Key, LaurentPoly]
) -> Iterator[tuple[Key, LaurentPoly, LaurentPoly]]:
    """(image key, entry, window coefficient) for each entry of ``column``
    and each image of its window [lo, hi)."""
    get = local.get
    for key, poly in column.items():
        head, tail = key[:lo], key[hi:]
        for out_win, coeff in get(key[lo:hi], ()):
            yield head + out_win + tail, poly, coeff


def _lift_columns(
    local: LocalMap, pos: int, span: int, keys: Iterable[Key]
) -> list[LinComb]:
    """``apply_window`` on the identity columns of ``keys``, read off the
    map: an identity column holds the single entry ONE, and one input
    window's images have distinct output windows and nonzero
    coefficients, so no products are summed."""
    lo, hi = pos - 1, pos - 1 + span
    get = local.get
    return [
        LinComb._new(
            (key[:lo] + out_win + key[hi:], coeff)
            for out_win, coeff in get(key[lo:hi], ())
        )
        for key in keys
    ]


def _lift(
    k: int,
    labels: tuple[int, ...],
    top: tuple[int, ...],
    pos: int,
    span: int,
    local: LocalMap,
) -> QMatrix:
    """Lift a local map on factors [pos, pos+span) of ``labels`` to the
    whole boundary, with ``top`` the boundary above it."""
    cols = TensorBasis(k, labels)
    return QMatrix(TensorBasis(k, top), cols, _lift_columns(local, pos, span, cols))


def _generator_matrix(
    kind: str,
    k: int,
    labels: Sequence[int],
    pos: int,
    a: int | None = None,
    b: int | None = None,
) -> QMatrix:
    """The whole-boundary matrix of one generator, typed by
    ``generator_step``."""
    labels = tuple(labels)
    top = generator_step(kind, k, labels, pos, a, b)
    if a is None:
        a, b = labels[pos - 1 : pos + 1]
    return _lift(k, labels, top, pos, INPUT_SPANS[kind], local_map(kind, k, a, b))


@lru_cache(maxsize=None)
def local_map(kind: str, k: int, a: int, b: int) -> LocalMap:
    """The local window map of one generator, cached per (kind, k, a, b).

    ``kind`` is one of merge, split, cup, cap, cross+ and cross-; (a, b)
    is the pair of small labels on the generator's two-strand side
    (for crossings, (1, 1)).  The map sends a window key to its
    (output window, coefficient) images.  It is shared by every caller,
    so it is returned read-only.  Label checks are ``generator_step``'s.
    """
    local: dict[Key, tuple[tuple[Key, LaurentPoly], ...]] = {}
    full = tuple(range(1, k + 1))
    if kind == "merge":
        for S in combinations(full, a):
            for T in combinations(full, b):
                if not set(S) & set(T):
                    U = tuple(sorted(S + T))
                    local[(S, T)] = (
                        ((U,), LaurentPoly.q_power(-_inversions(S, T))),
                    )
    elif kind == "split":
        for U in combinations(full, a + b):
            images = []
            for S in combinations(U, a):
                T = tuple(x for x in U if x not in S)
                images.append(((S, T), LaurentPoly.q_power(_inversions(T, S))))
            local[(U,)] = tuple(images)
    elif kind == "cup":
        # the split of the one-dimensional full power, born from nothing
        local[()] = local_map("split", k, a, b)[(full,)]
    elif kind == "cap":
        # the merge onto the one-dimensional full power, closed off
        local = {key: (((), c),) for key, ((_, c),) in local_map("merge", k, a, b).items()}
    elif kind.startswith("cross"):
        local = _block_local(crossing_matrix(kind[len("cross"):], k))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return MappingProxyType(local)


def merge_matrix(k: int, labels: Sequence[int], pos: int) -> QMatrix:
    """Merge the factors at (pos, pos+1): v_S ⊗ v_T ↦ q^{-inv(S,T)} v_{S∪T}."""
    return _generator_matrix("merge", k, labels, pos)


def split_matrix(k: int, labels: Sequence[int], pos: int, a: int, b: int) -> QMatrix:
    """Split the factor at pos into (a, b): v_U ↦ Σ q^{inv(T,S)} v_S ⊗ v_T."""
    return _generator_matrix("split", k, labels, pos, a, b)


def cup_matrix(k: int, labels: Sequence[int], pos: int, a: int, b: int) -> QMatrix:
    """Insert factors (a, b) with a+b = k at pos, by bending a k-edge.

    The inserted pair is born from the (one-dimensional) full exterior
    power, so the map sends a basis vector to the split of v_{1..k}
    placed at the insertion point.
    """
    return _generator_matrix("cup", k, labels, pos, a, b)


def cap_matrix(k: int, labels: Sequence[int], pos: int) -> QMatrix:
    """Close the factors at (pos, pos+1) off into an implicit k-edge."""
    return _generator_matrix("cap", k, labels, pos)


def _resolve_label(token: str, k: int) -> int:
    """A label written as a positive integer or as ``k`` or ``k-1``."""
    text = token.strip()
    if text == "k":
        return k
    if text == "k-1":
        return k - 1
    if text.isdecimal():
        if int(text) < 1:
            raise ValueError(f"label must be at least 1, got {text}")
        return int(text)
    raise ValueError(
        f"unrecognized label {text!r} (use integers or the symbols k, k-1)"
    )


def intertwiner_matrix(
    gen: str, k: int, labels: Sequence[int], pos: int
) -> QMatrix:
    """Matrix of one of the six special generators on the given boundary.

    ``gen`` is written like ``"merge(1,k-1)"`` or ``"split(1,1)"``; both
    labels may use the symbols ``k`` and ``k-1``.  The generator acts on
    the factor(s) at ``pos`` and as the identity elsewhere.  Raises
    ValueError if the label pair is not one of (1,1), (1,k-1), (k-1,1)
    or does not match the boundary.
    """
    text = gen.replace(" ", "")
    if not text.endswith(")") or "(" not in text:
        raise ValueError(f"malformed generator {gen!r}")
    name, _, arg_text = text[:-1].partition("(")
    args = arg_text.split(",") if arg_text else []
    if name not in ("merge", "split") or len(args) != 2:
        raise ValueError(
            f"unknown generator {gen!r}; expected merge(a,b) or split(a,b)"
        )
    a, b = (_resolve_label(t, k) for t in args)
    return _generator_matrix(name, k, labels, pos, a, b)


# ----------------------------------------------------------------------
# the Hecke operator and crossings


def hecke_E(s: int, n: int, k: int) -> QMatrix:
    """The operator E_s = split ∘ merge at factors (s, s+1) of V^{⊗n}."""
    if not (1 <= s <= n - 1):
        raise ValueError(f"position s={s} out of range for n={n}")
    labels = (1,) * n
    merged = labels[: s - 1] + (2,) + labels[s + 1 :]
    down = merge_matrix(k, labels, s)
    up = split_matrix(k, merged, s, 1, 1)
    return up @ down


def crossing_matrix(sign: str, k: int) -> QMatrix:
    """The crossing on V ⊗ V: sign "+" or "-", mutually inverse."""
    E = hecke_E(1, 2, k)
    if sign not in ("+", "-"):
        raise ValueError(f"crossing sign must be '+' or '-', got {sign!r}")
    # Frozen crossing normalization, fixed once by the exhaustive search in
    # tests/test_weblin.py (test_crossing_search_regression):
    # X⁺ = -q^{-k}(E - q·id), X⁻ = -q^{k}(E - q^{-1}·id).
    e = 1 if sign == "+" else -1
    ident = QMatrix.identity(E.rows)
    return (E - LaurentPoly.q_power(e) * ident) * -LaurentPoly.q_power(-e * k)


def _block_local(block: QMatrix) -> dict[Key, tuple[tuple[Key, LaurentPoly], ...]]:
    """Read a small matrix back off as a local map for _lift."""
    return {col_key: tuple(block.column(col_key)) for col_key in block.cols}


def cross_matrix_at(sign: str, k: int, labels: Sequence[int], pos: int) -> QMatrix:
    """The crossing embedded at factors (pos, pos+1) of a larger boundary."""
    return _generator_matrix("cross" + sign, k, labels, pos)


def reversal_matrix(k: int, labels: Sequence[int]) -> QMatrix:
    """The reversal-of-factors map basis(labels) -> basis(reversed labels)."""
    labels = tuple(labels)
    cols = TensorBasis(k, labels)
    rows = TensorBasis(k, tuple(reversed(labels)))
    return QMatrix(rows, cols, [{tuple(reversed(key)): ONE} for key in cols])
