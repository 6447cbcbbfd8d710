"""Compositions, box diagrams, fillings, and their bijections.

A *box diagram* for a composition mu has mu_i boxes in its i-th column;
zero columns are retained (positions matter).  A *filling* assigns a
positive integer to every box; its *content* nu records how often each
value occurs.  Column-strict means strictly increasing down each column.

Boxes are numbered column-major (down the first column, then the
second, ...).  The symmetric group acts on fillings with content
(1,...,1) from the left by permuting boxes and from the right by
permuting entries.

``phi`` identifies the column-strict fillings of content nu (over all
shapes with at most k parts, zero-padded to exactly k) with the
standard basis of the tensor product of exterior powers cut out by nu;
wedge factors are written with strictly increasing indices, matching
the tensor bases used by the matrix layer.  ``psi`` identifies the
restricted coset classes with the same fillings.

``curlyvee`` and ``curlywedge`` are the weighted refine/merge moves on
content: splitting one content part into two adjacent parts fans a
filling out over all relabelling choices, merging two adjacent parts
relabels and drops the non-column-strict results; the q-exponents are
fixed by inversion counts of the box word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .qlaurent import ONE, LaurentPoly, LinComb
from .symhecke import Permutation

__all__ = [
    "Composition",
    "Filling",
    "WeightedDiagramSum",
    "all_compositions",
    "positive_compositions",
    "standard_filling",
    "act_left",
    "act_right",
    "column_strict_fillings",
    "phi",
    "phi_inverse",
    "relabel_by_content",
    "psi",
    "psi_inverse",
    "inversions",
    "curlyvee",
    "curlywedge",
]


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of nonnegative parts; behaves as a sequence."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 0 for p in self.parts):
            raise ValueError(f"negative part in composition {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def actual_length(self) -> int:
        """Number of nonzero parts."""
        return sum(1 for p in self.parts if p)

    def reduced(self) -> "Composition":
        """The composition with zero parts removed."""
        return Composition(tuple(p for p in self.parts if p))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def all_compositions(n: int, parts: int) -> list[tuple[int, ...]]:
    """All compositions of n into exactly ``parts`` parts, zeros allowed."""
    if parts == 0:
        return [()] if n == 0 else []
    return [
        (first,) + rest
        for first in range(n + 1)
        for rest in all_compositions(n - first, parts - 1)
    ]


def positive_compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n into positive parts."""
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(1, n + 1)
        for rest in positive_compositions(n - first)
    ]


# ----------------------------------------------------------------------
# fillings


@dataclass(frozen=True)
class Filling:
    """Columns of entries, top to bottom; empty columns are kept."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "columns", tuple(tuple(col) for col in self.columns)
        )
        if any(v < 1 for col in self.columns for v in col):
            raise ValueError("entries must be positive integers")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(col) for col in self.columns)

    @property
    def size(self) -> int:
        return sum(len(col) for col in self.columns)

    def flat(self) -> tuple[int, ...]:
        """Entries in box order (column-major)."""
        return tuple(v for col in self.columns for v in col)

    def content(self) -> tuple[int, ...]:
        """How often each value 1..max occurs."""
        values = self.flat()
        top = max(values, default=0)
        counts = [0] * top
        for v in values:
            counts[v - 1] += 1
        return tuple(counts)

    def is_column_strict(self) -> bool:
        return all(
            a < b for col in self.columns for a, b in zip(col, col[1:])
        )

    def with_flat(self, values: Sequence[int]) -> "Filling":
        """Same shape, entries replaced in box order."""
        out = []
        index = 0
        for col in self.columns:
            out.append(tuple(values[index : index + len(col)]))
            index += len(col)
        return Filling(tuple(out))

    def text(self) -> str:
        return ",".join(
            "[" + ",".join(str(v) for v in col) + "]" for col in self.columns
        )

    def __str__(self) -> str:
        return self.text()


def standard_filling(mu: Sequence[int]) -> Filling:
    """Numbers 1..n placed column by column, top to bottom."""
    columns = []
    next_value = 1
    for p in mu:
        if p < 0:
            raise ValueError(f"negative part in composition {tuple(mu)}")
        columns.append(tuple(range(next_value, next_value + p)))
        next_value += p
    return Filling(tuple(columns))


def _require_standard_content(f: Filling) -> int:
    n = f.size
    if sorted(f.flat()) != list(range(1, n + 1)):
        raise ValueError("action needs a filling with each of 1..n once")
    return n


def act_left(w: Permutation, f: Filling) -> Filling:
    """Permute boxes: the box previously numbered w^{-1}(i) moves to i."""
    n = _require_standard_content(f)
    if w.n != n:
        raise ValueError("permutation size does not match filling size")
    old = f.flat()
    inv = w.inverse()
    return f.with_flat([old[inv(i) - 1] for i in range(1, n + 1)])


def act_right(f: Filling, w: Permutation) -> Filling:
    """Permute entries: each entry v is replaced by w^{-1}(v)."""
    n = _require_standard_content(f)
    if w.n != n:
        raise ValueError("permutation size does not match filling size")
    inv = w.inverse()
    return f.with_flat([inv(v) for v in f.flat()])


def column_strict_fillings(
    mu: Sequence[int], nu: Sequence[int]
) -> set[Filling]:
    """All column-strict fillings of shape mu with content nu."""
    mu_t = tuple(int(p) for p in mu)
    nu_t = tuple(int(p) for p in nu)
    if sum(mu_t) != sum(nu_t):
        raise ValueError(
            f"shape {mu_t} and content {nu_t} have different sizes"
        )
    values = len(nu_t)
    out: set[Filling] = set()

    def extend(col: int, remaining: list[int], acc: list[tuple[int, ...]]):
        if col == len(mu_t):
            if all(r == 0 for r in remaining):
                out.add(Filling(tuple(acc)))
            return
        height = mu_t[col]
        for chosen in combinations(range(1, values + 1), height):
            if all(remaining[v - 1] > 0 for v in chosen):
                for v in chosen:
                    remaining[v - 1] -= 1
                extend(col + 1, remaining, acc + [chosen])
                for v in chosen:
                    remaining[v - 1] += 1

    extend(0, list(nu_t), [])
    return out


# ----------------------------------------------------------------------
# the tensor-basis bijection


def phi(f: Filling, k: int) -> tuple[tuple[int, ...], ...]:
    """The standard basis element of the nu-fold wedge product encoded
    by a column-strict filling: factor i is the strictly increasing
    tuple of columns containing the entry i."""
    if len(f.columns) > k:
        raise ValueError(
            f"shape has {len(f.columns)} columns but only k={k} are allowed"
        )
    if not f.is_column_strict():
        raise ValueError("filling is not column-strict")
    nu = f.content()
    key = []
    for value in range(1, len(nu) + 1):
        cols = tuple(
            j for j, col in enumerate(f.columns, start=1) if value in col
        )
        if len(cols) != nu[value - 1]:
            raise ValueError("value repeats within a column")
        key.append(cols)
    return tuple(key)


def phi_inverse(key: Sequence[Sequence[int]], k: int) -> Filling:
    """The column-strict filling encoding a standard basis element."""
    if any(
        len(set(subset)) != len(subset)
        or list(subset) != sorted(subset)
        or any(not 1 <= j <= k for j in subset)
        for subset in key
    ):
        raise ValueError(f"{key} is not a strictly increasing basis key")
    columns = []
    for j in range(1, k + 1):
        column = tuple(
            value
            for value, subset in enumerate(key, start=1)
            if j in subset
        )
        columns.append(column)
    return Filling(tuple(columns))


def relabel_by_content(f: Filling, nu: Sequence[int]) -> Filling:
    """Replace the first nu_1 values by 1, the next nu_2 values by 2, ...

    Defined on any filling whose entries are 1..n each once; the result
    has content nu but need not be column-strict."""
    n = _require_standard_content(f)
    nu_t = tuple(int(p) for p in nu)
    if sum(nu_t) != n:
        raise ValueError(f"content {nu_t} does not sum to {n}")
    block = []
    for index, p in enumerate(nu_t, start=1):
        block.extend([index] * p)
    return f.with_flat([block[v - 1] for v in f.flat()])


def psi(
    w: Permutation, mu: Sequence[int], nu: Sequence[int]
) -> Filling:
    """The column-strict filling attached to a restricted coset class.

    Computes the box-action of w on the standard filling of mu, then
    relabels values through the content blocks of nu.  Raises when the
    result is not column-strict, which happens exactly when the coset
    of w does not qualify."""
    mu_t = tuple(int(p) for p in mu)
    nu_t = tuple(int(p) for p in nu)
    if sum(mu_t) != sum(nu_t) or sum(mu_t) != w.n:
        raise ValueError("composition sizes do not match the permutation")
    relabeled = relabel_by_content(act_left(w, standard_filling(mu_t)), nu_t)
    if not relabeled.is_column_strict():
        raise ValueError(
            f"{w.one_line_text()} does not represent a qualifying coset "
            f"for shape {mu_t} and content {nu_t}"
        )
    return relabeled


def psi_inverse(
    f: Filling, mu: Sequence[int], nu: Sequence[int]
) -> Permutation:
    """The shortest permutation that ``psi`` sends to a given filling.

    All permutations mapping to ``f`` form one coset of the content
    stabiliser; filling each content block into its marked boxes in
    increasing box order selects the minimal representative, so the
    roundtrip through ``psi`` is the identity on those.
    """
    mu_t = tuple(int(p) for p in mu)
    nu_t = tuple(int(p) for p in nu)
    if f.shape != mu_t:
        raise ValueError(f"filling has shape {f.shape}, not {mu_t}")
    if not f.is_column_strict():
        raise ValueError("filling is not column-strict")
    content = f.content()
    if len(content) > len(nu_t) or content + (0,) * (
        len(nu_t) - len(content)
    ) != nu_t:
        raise ValueError(f"filling has content {content}, not {nu_t}")
    next_value = []
    start = 1
    for p in nu_t:
        next_value.append(start)
        start += p
    preimages = []
    for v in f.flat():
        preimages.append(next_value[v - 1])
        next_value[v - 1] += 1
    return Permutation(tuple(preimages)).inverse()


# ----------------------------------------------------------------------
# weighted sums and the refine/merge moves


def inversions(f: Filling) -> int:
    """Box pairs (p, q) with p before q in box order and a larger entry."""
    flat = f.flat()
    return sum(
        1
        for a in range(len(flat))
        for b in range(a + 1, len(flat))
        if flat[a] > flat[b]
    )


class WeightedDiagramSum(LinComb):
    """A Z[q,q^-1]-combination of column-strict fillings."""

    __slots__ = ()

    @classmethod
    def single(cls, f: Filling, coeff: LaurentPoly = ONE) -> "WeightedDiagramSum":
        return cls({f: coeff})

    @classmethod
    def zero(cls) -> "WeightedDiagramSum":
        return cls()

    @property
    def terms(self) -> "WeightedDiagramSum":
        """The filling -> coefficient map: the sum itself."""
        return self

    def __str__(self) -> str:
        if not self:
            return "0"
        ordered = sorted(self.items(), key=lambda t: t[0].columns)
        return " + ".join(f"({c})*{f.text()}" for f, c in ordered)


def curlyvee(
    f: Filling, pos: int, sizes: tuple[int, int]
) -> WeightedDiagramSum:
    """Refine content at ``pos``: split the value band pos of size i+j
    into values pos (i boxes) and pos+1 (j boxes), over all choices.

    Entries above pos shift up by one.  The choice relabelling the
    boxes at positions I carries q^(i*j - d) where d is the inversion
    increase of the box word.
    """
    i, j = sizes
    nu = f.content()
    if not 1 <= pos <= len(nu):
        raise ValueError(f"no content part at position {pos}")
    if i < 0 or j < 0 or nu[pos - 1] != i + j:
        raise ValueError(
            f"content part {nu[pos - 1]} at position {pos} does not split "
            f"into {sizes}"
        )
    if not f.is_column_strict():
        raise ValueError("filling is not column-strict")
    flat = f.flat()
    band = [b for b, v in enumerate(flat) if v == pos]
    base = [v + 1 if v > pos else v for v in flat]
    inv_before = inversions(f)
    out = WeightedDiagramSum()
    for chosen in combinations(band, j):
        values = list(base)
        for b in chosen:
            values[b] = pos + 1
        result = f.with_flat(values)
        exponent = i * j - (inversions(result) - inv_before)
        out.add_term(result, LaurentPoly.q_power(exponent))
    return out


def curlywedge(f: Filling, pos: int) -> WeightedDiagramSum:
    """Merge content parts pos and pos+1 into one value band.

    Entries above pos+1 shift down by one.  The result is dropped when
    two merged entries collide in a column; otherwise it carries
    q^(-d) where d is the inversion decrease of the box word.
    """
    nu = f.content()
    if not 1 <= pos <= len(nu) - 1:
        raise ValueError(f"no adjacent content parts at position {pos}")
    if not f.is_column_strict():
        raise ValueError("filling is not column-strict")
    flat = f.flat()
    values = [v - 1 if v > pos else v for v in flat]
    result = f.with_flat(values)
    if not result.is_column_strict():
        return WeightedDiagramSum.zero()
    exponent = inversions(result) - inversions(f)
    return WeightedDiagramSum.single(result, LaurentPoly.q_power(exponent))
