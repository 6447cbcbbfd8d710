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
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .qlaurent import ONE, LaurentPoly, LinComb

__all__ = [
    "TensorBasis",
    "QMatrix",
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
    "crossing_search",
    "reversal_matrix",
    "special_pairs",
    "CROSSING_SIGN",
    "CROSSING_SHIFT_IS_MINUS_K",
    "CROSSING_EIGEN_EXPONENT",
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
        if self.k < 1:
            raise ValueError(f"rank k must be >= 1, got {self.k}")
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

    def dimension_check(self) -> bool:
        return len(self.elements) == self.expected_dimension()

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
    Mappings that are not yet a ``LinComb`` are copied into one.
    """

    rows: Sequence
    cols: Sequence
    columns: tuple[LinComb, ...]

    def __post_init__(self) -> None:
        columns = tuple(LinComb.adopt(column) for column in self.columns)
        object.__setattr__(self, "columns", columns)
        if len(columns) != len(self.cols):
            raise ValueError("need one column per column key")
        known = self._row_position
        for column in columns:
            for row_key in column:
                if row_key not in known:
                    raise ValueError(f"row key {row_key!r} is not in the row index")

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
    def zero(cls, rows: Sequence, cols: Sequence) -> "QMatrix":
        return cls(rows, cols, tuple(LinComb() for _ in cols))

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
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return QMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.columns, other.columns)),
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols, tuple(-a for a in self.columns))

    def __mul__(self, scalar: Scalar) -> "QMatrix":
        if not isinstance(scalar, (int, LaurentPoly)):
            return NotImplemented
        return QMatrix(
            self.rows, self.cols, tuple(a * scalar for a in self.columns)
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        """Composition self ∘ other (apply ``other`` first)."""
        if not isinstance(other, QMatrix):
            return NotImplemented
        if tuple(self.cols) != tuple(other.rows):
            raise ValueError("composition index mismatch")
        position = self._col_position
        out = []
        for column in other.columns:
            image = LinComb()
            for mid, b in column.items():
                for row_key, a in self.columns[position[mid]].items():
                    image.add_term(row_key, a * b)
            out.append(image)
        return QMatrix(self.rows, other.cols, tuple(out))

    def tensor(self, other: "QMatrix") -> "QMatrix":
        """Monoidal (side-by-side) product; keys concatenate."""
        rows = tuple(r1 + r2 for r1 in self.rows for r2 in other.rows)
        cols = tuple(c1 + c2 for c1 in self.cols for c2 in other.cols)
        columns = tuple(
            LinComb(
                (r1 + r2, a * b)
                for r1, a in left.items()
                for r2, b in right.items()
            )
            for left in self.columns
            for right in other.columns
        )
        return QMatrix(rows, cols, columns)

    def bar(self) -> "QMatrix":
        """Entrywise bar involution q -> q^-1."""
        return QMatrix(self.rows, self.cols, tuple(a.bar() for a in self.columns))

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


def _check_pair(kind: str, a: int, b: int, k: int, strict: bool) -> None:
    if strict and (a, b) not in special_pairs(k):
        raise ValueError(
            f"{kind} label pair ({a},{b}) not admissible for k={k}; "
            f"allowed pairs are (1,1), (1,k-1), (k-1,1)"
        )


LocalMap = Mapping[Key, tuple[tuple[Key, LaurentPoly], ...]]
State = list[Mapping[Key, LaurentPoly]]


def apply_window(local: LocalMap, pos: int, span: int, state: State) -> State:
    """Apply a local window map to every column of a sparse state.

    Each column is a {basis key: poly} mapping; the map acts on the
    factors [pos, pos+span) of each key and as the identity on the rest
    (span 0 inserts its window before factor ``pos``).  The image
    columns are ``LinComb``s, without zero entries.
    """
    lo, hi = pos - 1, pos - 1 + span
    get = local.get
    out: State = []
    for column in state:
        acc: dict[Key, dict[int, int]] = {}
        for key, poly in column.items():
            head, tail = key[:lo], key[hi:]
            for out_win, coeff in get(key[lo:hi], ()):
                out_key = head + out_win + tail
                terms = acc.get(out_key)
                if terms is None:
                    terms = acc[out_key] = {}
                for e1, c1 in poly.terms:
                    for e2, c2 in coeff.terms:
                        e = e1 + e2
                        terms[e] = terms.get(e, 0) + c1 * c2
        image = LinComb()
        for out_key, terms in acc.items():
            poly = LaurentPoly(terms)
            if poly:
                image[out_key] = poly
        out.append(image)
    return out


def _apply_local(
    k: int,
    labels: Sequence[int],
    pos: int,
    span: int,
    out_window: tuple[int, ...],
    local: LocalMap,
) -> QMatrix:
    """Lift a local map on factors [pos, pos+span) to the ambient space."""
    labels = tuple(labels)
    if not (1 <= pos and pos + span - 1 <= len(labels)) and span > 0:
        raise ValueError(
            f"position {pos} (span {span}) out of range for boundary {labels}"
        )
    if span == 0 and not (1 <= pos <= len(labels) + 1):
        raise ValueError(
            f"insertion position {pos} out of range for boundary {labels}"
        )
    new_labels = labels[: pos - 1] + out_window + labels[pos - 1 + span :]
    cols = TensorBasis(k, labels)
    state = apply_window(local, pos, span, [{key: ONE} for key in cols])
    return QMatrix(TensorBasis(k, new_labels), cols, state)


@lru_cache(maxsize=None)
def local_map(kind: str, k: int, a: int, b: int) -> LocalMap:
    """The local window map of one generator, cached per (kind, k, a, b).

    ``kind`` is one of merge, split, cup, cap, cross+ and cross-; (a, b)
    is the pair of small labels on the generator's two-strand side
    (for crossings, (1, 1)).  The map sends a window key to its
    (output window, coefficient) images.  It is shared by every caller,
    so it is returned read-only.  Label checks are the caller's.
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
        for S in combinations(full, a):
            T = tuple(x for x in full if x not in S)
            local[(S, T)] = (((), LaurentPoly.q_power(-_inversions(S, T))),)
    elif kind.startswith("cross"):
        local = _block_local(crossing_matrix(kind[len("cross"):], k))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return MappingProxyType(local)


def merge_matrix(
    k: int, labels: Sequence[int], pos: int, *, strict: bool = True
) -> QMatrix:
    """Merge the factors at (pos, pos+1): v_S ⊗ v_T ↦ q^{-inv(S,T)} v_{S∪T}."""
    labels = tuple(labels)
    if not (1 <= pos <= len(labels) - 1):
        raise ValueError(f"merge position {pos} out of range for {labels}")
    a, b = labels[pos - 1], labels[pos]
    _check_pair("merge", a, b, k, strict)
    return _apply_local(k, labels, pos, 2, (a + b,), local_map("merge", k, a, b))


def split_matrix(
    k: int,
    labels: Sequence[int],
    pos: int,
    a: int,
    b: int,
    *,
    strict: bool = True,
) -> QMatrix:
    """Split the factor at pos into (a, b): v_U ↦ Σ q^{inv(T,S)} v_S ⊗ v_T."""
    labels = tuple(labels)
    if not (1 <= pos <= len(labels)):
        raise ValueError(f"split position {pos} out of range for {labels}")
    if labels[pos - 1] != a + b:
        raise ValueError(
            f"cannot split label {labels[pos - 1]} at position {pos} "
            f"into ({a},{b})"
        )
    _check_pair("split", a, b, k, strict)
    return _apply_local(k, labels, pos, 1, (a, b), local_map("split", k, a, b))


def cup_matrix(k: int, labels: Sequence[int], pos: int, a: int, b: int) -> QMatrix:
    """Insert factors (a, b) with a+b = k at pos, by bending a k-edge.

    The inserted pair is born from the (one-dimensional) full exterior
    power, so the map sends a basis vector to the split of v_{1..k}
    placed at the insertion point.
    """
    if a + b != k:
        raise ValueError(f"cup labels ({a},{b}) must sum to k={k}")
    if {a, b} != {1, k - 1}:
        raise ValueError(
            f"cup label pair ({a},{b}) not admissible; use (1,k-1) or (k-1,1)"
        )
    return _apply_local(k, labels, pos, 0, (a, b), local_map("cup", k, a, b))


def cap_matrix(k: int, labels: Sequence[int], pos: int) -> QMatrix:
    """Close the factors at (pos, pos+1) off into an implicit k-edge."""
    labels = tuple(labels)
    if not (1 <= pos <= len(labels) - 1):
        raise ValueError(f"cap position {pos} out of range for {labels}")
    a, b = labels[pos - 1], labels[pos]
    if a + b != k or {a, b} != {1, k - 1}:
        raise ValueError(
            f"cap at position {pos} needs labels (1,k-1) or (k-1,1), "
            f"found ({a},{b}) with k={k}"
        )
    return _apply_local(k, labels, pos, 2, (), local_map("cap", k, a, b))


def _resolve_label(token: str, k: int) -> int:
    token = token.strip()
    if token == "k":
        return k
    if token == "k-1":
        return k - 1
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"unrecognized label {token!r}") from None


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
    labels = tuple(labels)
    if name == "merge":
        if pos > len(labels) - 1 or (labels[pos - 1], labels[pos]) != (a, b):
            raise ValueError(
                f"merge({a},{b}) does not match boundary {labels} at {pos}"
            )
        return merge_matrix(k, labels, pos)
    return split_matrix(k, labels, pos, a, b)


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


# Frozen crossing normalization, fixed once by crossing_search (see the
# regression test): X⁺ = -q^{-k}(E - q·id), X⁻ = -q^{k}(E - q^{-1}·id).
CROSSING_SIGN = -1
CROSSING_SHIFT_IS_MINUS_K = True  # exponent a in ±q^a(E - q^b id) is -k
CROSSING_EIGEN_EXPONENT = 1  # exponent b for the positive crossing


def crossing_matrix(sign: str, k: int) -> QMatrix:
    """The crossing on V ⊗ V: sign "+" or "-", mutually inverse."""
    E = hecke_E(1, 2, k)
    ident = QMatrix.identity(E.rows)
    if sign == "+":
        a, b = -k, CROSSING_EIGEN_EXPONENT
    elif sign == "-":
        a, b = k, -CROSSING_EIGEN_EXPONENT
    else:
        raise ValueError(f"crossing sign must be '+' or '-', got {sign!r}")
    shift = LaurentPoly.q_power(a) * CROSSING_SIGN
    return (E - LaurentPoly.q_power(b) * ident) * shift


def _block_local(block: QMatrix) -> dict[Key, tuple[tuple[Key, LaurentPoly], ...]]:
    """Read a small matrix back off as a local map for _apply_local."""
    return {col_key: tuple(block.column(col_key)) for col_key in block.cols}


def cross_matrix_at(sign: str, k: int, labels: Sequence[int], pos: int) -> QMatrix:
    """The crossing embedded at factors (pos, pos+1) of a larger boundary."""
    labels = tuple(labels)
    if not (1 <= pos <= len(labels) - 1):
        raise ValueError(f"crossing position {pos} out of range for {labels}")
    if (labels[pos - 1], labels[pos]) != (1, 1):
        raise ValueError(
            f"crossing needs two 1-labelled strands at {pos}, "
            f"found {labels[pos - 1:pos + 1]}"
        )
    return _apply_local(k, labels, pos, 2, (1, 1), local_map("cross" + sign, k, 1, 1))


def _kink_closures(cand_plus: QMatrix, cand_minus: QMatrix, k: int) -> list[QMatrix]:
    """Close each candidate crossing off with a cup/cap on either side."""
    closures = []
    for block in (cand_plus, cand_minus):
        local = _block_local(block)
        # right kink: bend in a (1, k-1) pair above-right, cross, close
        m1 = cup_matrix(k, (1,), 2, 1, k - 1)
        m2 = _apply_local(k, (1, 1, k - 1), 1, 2, (1, 1), local)
        m3 = cap_matrix(k, (1, 1, k - 1), 2)
        closures.append(m3 @ m2 @ m1)
        # left kink: bend in a (k-1, 1) pair below-left, cross, close
        m1 = cup_matrix(k, (1,), 1, k - 1, 1)
        m2 = _apply_local(k, (k - 1, 1, 1), 2, 2, (1, 1), local)
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
    x1 = _apply_local(k, labels, 1, 2, (1, 1), local)
    x2 = _apply_local(k, labels, 2, 2, (1, 1), local)
    return x1 @ x2 @ x1 == x2 @ x1 @ x2


def reversal_matrix(k: int, labels: Sequence[int]) -> QMatrix:
    """The reversal-of-factors map basis(labels) -> basis(reversed labels)."""
    labels = tuple(labels)
    cols = TensorBasis(k, labels)
    rows = TensorBasis(k, tuple(reversed(labels)))
    return QMatrix(rows, cols, [{tuple(reversed(key)): ONE} for key in cols])
