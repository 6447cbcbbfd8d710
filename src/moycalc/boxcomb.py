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

Each operation has one private kernel on *box words*: the tuple of a
filling's entries in box order, over a shape given beside it.  A
public function checks its input, runs the kernel and wraps the
result as a ``Filling``; the class-transport plan in ``tangleinv``
runs the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Iterable, Sequence

from .qlaurent import ONE, LaurentPoly, LinComb
from .symhecke import (
    Permutation,
    _blocks,
    _in_block_pairs,
    _inversion_count,
    _is_strict,
    _value_blocks,
    parts_of,
)

__all__ = [
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


def all_compositions(n: int, parts: int) -> list[tuple[int, ...]]:
    """All compositions of n into exactly ``parts`` parts, zeros allowed."""
    if parts == 0:
        return [()] if n == 0 else []
    return [
        (first,) + rest
        for first in range(n + 1)
        for rest in all_compositions(n - first, parts - 1)
    ]


def _compositions(n: int, allowed: Sequence[int]) -> list[tuple[int, ...]]:
    """All compositions of n with every part in ``allowed``, listed by
    first part in the order of ``allowed``; each allowed part is >= 1."""
    if any(p < 1 for p in allowed):
        raise ValueError(f"allowed parts {tuple(allowed)} must be at least 1")

    def extend(m: int) -> list[tuple[int, ...]]:
        if m == 0:
            return [()]
        return [
            (first,) + rest
            for first in allowed
            if first <= m
            for rest in extend(m - first)
        ]

    return extend(n)


def positive_compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n into positive parts."""
    return _compositions(n, range(1, n + 1))


# ----------------------------------------------------------------------
# box words


def _cut(word: Sequence[int], shape: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The columns of ``shape`` holding ``word`` in box order."""
    columns = []
    start = 0
    for p in shape:
        columns.append(tuple(word[start : start + p]))
        start += p
    return tuple(columns)


def _content(word: Sequence[int]) -> tuple[int, ...]:
    counts = [0] * max(word, default=0)
    for v in word:
        counts[v - 1] += 1
    return tuple(counts)


# ----------------------------------------------------------------------
# fillings


@dataclass(frozen=True)
class Filling:
    """Columns of entries, top to bottom; empty columns are kept.

    The constructor validates its input; fillings built from entries
    that are already checked go through ``_trusted``.
    """

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "columns", tuple(tuple(col) for col in self.columns)
        )
        if any(type(v) is not int or v < 1 for col in self.columns for v in col):
            raise ValueError("entries must be positive integers")

    @classmethod
    def _trusted(cls, columns: tuple[tuple[int, ...], ...]) -> "Filling":
        """A filling from tuple columns of positive ints, unchecked."""
        filling = object.__new__(cls)
        object.__setattr__(filling, "columns", columns)
        return filling

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
        return _content(self.flat())

    def is_column_strict(self) -> bool:
        return _is_strict(self.flat(), _in_block_pairs(self.shape))

    def with_flat(self, values: Sequence[int]) -> "Filling":
        """Same shape, entries replaced in box order."""
        if len(values) != self.size:
            raise ValueError(f"{len(values)} entries for a filling of size {self.size}")
        return Filling(_cut(values, self.shape))

    def text(self) -> str:
        return ",".join(
            "[" + ",".join(str(v) for v in col) + "]" for col in self.columns
        )

    def __str__(self) -> str:
        return self.text()


def _filling(word: Sequence[int], shape: Sequence[int]) -> Filling:
    """The filling of ``shape`` with a box word of positive ints, unchecked."""
    return Filling._trusted(_cut(word, shape))


def standard_filling(mu: Sequence[int]) -> Filling:
    """Numbers 1..n placed column by column, top to bottom."""
    return Filling(tuple(tuple(block) for block in _blocks(mu)))


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
    mu_t, nu_t = parts_of(mu), parts_of(nu)
    if sum(mu_t) != sum(nu_t):
        raise ValueError(
            f"shape {mu_t} and content {nu_t} have different sizes"
        )
    out: set[Filling] = set()
    # recurse over the nonzero columns only; the zero ones stay empty
    columns: list[tuple[int, ...]] = [()] * len(mu_t)
    nonzero = [col for col, size in enumerate(mu_t) if size]

    def extend(index: int, remaining: list[int]):
        if index == len(nonzero):
            if all(r == 0 for r in remaining):
                out.add(Filling._trusted(tuple(columns)))
            return
        # a column holds a value at most once, so no value may have more
        # copies left than there are columns left
        if max(remaining, default=0) > len(nonzero) - index:
            return
        col = nonzero[index]
        left = [v for v, r in enumerate(remaining, start=1) if r > 0]
        for chosen in combinations(left, mu_t[col]):
            for v in chosen:
                remaining[v - 1] -= 1
            columns[col] = chosen
            extend(index + 1, remaining)
            for v in chosen:
                remaining[v - 1] += 1

    extend(0, list(nu_t))
    return out


# ----------------------------------------------------------------------
# the tensor-basis bijection


def _phi_word(word: Sequence[int], columns: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """phi on a column-strict box word, given each box's column
    (``_value_blocks`` of the shape): factor i lists the columns holding
    i, in increasing order because boxes run column by column."""
    key: list[list[int]] = [[] for _ in range(max(word, default=0))]
    for v, j in zip(word, columns):
        key[v - 1].append(j)
    return tuple(tuple(cols) for cols in key)


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
    key = _phi_word(f.flat(), _value_blocks(f.shape))
    if any(len(cols) != count for cols, count in zip(key, f.content())):
        raise ValueError("value repeats within a column")
    return key


def _check_basis_key(key: Sequence[Sequence[int]], k: int) -> None:
    """Raise unless every factor of ``key`` is a strictly increasing
    tuple of ints in 1..k."""
    for subset in key:
        last = 0
        for j in subset:
            if type(j) is not int or not last < j <= k:
                raise ValueError(f"{key} is not a strictly increasing basis key")
            last = j


def _phi_inverse_word(
    key: Sequence[Sequence[int]], k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The box word and shape of the filling that encodes a checked key:
    column j holds the values whose factor contains j."""
    columns: list[list[int]] = [[] for _ in range(k)]
    for value, subset in enumerate(key, start=1):
        for j in subset:
            columns[j - 1].append(value)
    return tuple(chain.from_iterable(columns)), tuple(map(len, columns))


def phi_inverse(key: Sequence[Sequence[int]], k: int) -> Filling:
    """The column-strict filling encoding a standard basis element."""
    _check_basis_key(key, k)
    word, shape = _phi_inverse_word(key, k)
    return _filling(word, shape)


def relabel_by_content(f: Filling, nu: Sequence[int]) -> Filling:
    """Replace the first nu_1 values by 1, the next nu_2 values by 2, ...

    Defined on any filling whose entries are 1..n each once; the result
    has content nu but need not be column-strict."""
    n = _require_standard_content(f)
    nu_t = parts_of(nu)
    if sum(nu_t) != n:
        raise ValueError(f"content {nu_t} does not sum to {n}")
    block = _value_blocks(nu_t)
    return f.with_flat([block[v - 1] for v in f.flat()])


def _psi_words(
    ws: Iterable[Permutation], mu: tuple[int, ...], nu: tuple[int, ...], block: list[int]
) -> list[tuple[int, ...]]:
    """psi's box words over mu, one per class of ``ws``: box w(p) gets
    block[p - 1], the nu-block of p (``_value_blocks(nu)``).  Raises at
    the first word that is not column-strict (its coset does not
    qualify)."""
    pairs = _in_block_pairs(mu)
    words = []
    for w in ws:
        word = [0] * w.n
        for position, box in enumerate(w.images):
            word[box - 1] = block[position]
        if not _is_strict(word, pairs):
            raise _unqualified(w, mu, nu)
        words.append(tuple(word))
    return words


def _unqualified(w: Permutation, mu: tuple[int, ...], nu: tuple[int, ...]) -> ValueError:
    """psi's error for a class whose coset does not qualify."""
    return ValueError(
        f"{w.one_line_text()} does not represent a qualifying "
        f"coset for shape {mu} and content {nu}"
    )


def psi(
    w: Permutation, mu: Sequence[int], nu: Sequence[int]
) -> Filling:
    """The column-strict filling attached to a restricted coset class.

    This is the box-action of w on the standard filling of mu, relabelled
    through the content blocks of nu: the entry in box b is the nu-block
    of w^{-1}(b), so position p of w's one-line word fills box w(p).
    Raises when the result is not column-strict, which happens exactly
    when the coset of w does not qualify."""
    mu_t, nu_t = parts_of(mu), parts_of(nu)
    if sum(mu_t) != sum(nu_t) or sum(mu_t) != w.n:
        raise ValueError("composition sizes do not match the permutation")
    return _filling(_psi_words([w], mu_t, nu_t, _value_blocks(nu_t))[0], mu_t)


def _check_fillings(
    words: Iterable[Sequence[int]], mu: tuple[int, ...], nu: tuple[int, ...]
) -> None:
    """Raise unless every box word over mu is column-strict with
    content nu: the input ``psi_inverse`` accepts, for one shape."""
    pairs, block = _in_block_pairs(mu), _value_blocks(nu)
    for word in words:
        if not _is_strict(word, pairs):
            raise ValueError("filling is not column-strict")
        if sorted(word) != block:
            raise ValueError(f"filling has content {_content(word)}, not {nu}")


def _psi_inverse_word(word: Sequence[int], nu: tuple[int, ...]) -> Permutation:
    """The shortest class of a checked box word: each content block's
    values go to its boxes in box order."""
    next_value = list(accumulate(nu, initial=0))
    # the content check makes the assigned values exactly 1..n, once each
    images = [0] * len(word)
    for box, v in enumerate(word, start=1):
        images[next_value[v - 1]] = box
        next_value[v - 1] += 1
    return Permutation._trusted(tuple(images))


def psi_inverse(
    f: Filling, mu: Sequence[int], nu: Sequence[int]
) -> Permutation:
    """The shortest permutation that ``psi`` sends to a given filling.

    All permutations mapping to ``f`` form one coset of the content
    stabiliser; filling each content block into its marked boxes in
    increasing box order selects the minimal representative, so the
    roundtrip through ``psi`` is the identity on those.  The result
    sends the next unused value of the block of each box's entry to
    that box.
    """
    mu_t, nu_t = parts_of(mu), parts_of(nu)
    if f.shape != mu_t:
        raise ValueError(f"filling has shape {f.shape}, not {mu_t}")
    word = f.flat()
    _check_fillings([word], mu_t, nu_t)
    return _psi_inverse_word(word, nu_t)


# ----------------------------------------------------------------------
# weighted sums and the refine/merge moves


def inversions(f: Filling) -> int:
    """Box pairs (p, q) with p before q in box order and a larger entry."""
    return _inversion_count(f.flat())


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


def _weighted(
    moves: list[tuple[tuple[int, ...], int]], shape: tuple[int, ...]
) -> WeightedDiagramSum:
    """The sum of q^exponent * filling over (box word, exponent) moves."""
    return WeightedDiagramSum.of_products(
        (_filling(word, shape), LaurentPoly.q_power(exponent), ONE)
        for word, exponent in moves
    )


def _split_word(
    word: Sequence[int], pos: int, i: int, j: int
) -> list[tuple[tuple[int, ...], int]]:
    """``curlyvee`` on a column-strict box word whose band pos has i+j
    boxes: one (word, exponent) per choice of j boxes relabelled pos+1.

    The exponent is i*j less the (chosen, unchosen) pairs in box order,
    that is the (unchosen, chosen) pairs: sum(chosen) - j*(j-1)/2 over
    the chosen places 0..i+j-1 of the band.
    """
    band = [b for b, v in enumerate(word) if v == pos]
    base = [v + 1 if v > pos else v for v in word]
    out = []
    for chosen in combinations(range(i + j), j):
        values = base.copy()
        for t in chosen:
            values[band[t]] = pos + 1
        out.append((tuple(values), sum(chosen) - j * (j - 1) // 2))
    return out


def _merge_word(
    word: Sequence[int], shape: tuple[int, ...], pos: int
) -> list[tuple[tuple[int, ...], int]]:
    """``curlywedge`` on a column-strict box word over ``shape``: nothing
    when pos sits directly above pos+1 in a column, else the relabelled
    word with exponent -d, d the pairs where pos+1 comes before pos."""
    for i in _in_block_pairs(shape):
        if word[i - 1] == pos and word[i] == pos + 1:
            return []
    seen = d = 0
    for v in word:
        if v == pos + 1:
            seen += 1
        elif v == pos:
            d += seen
    return [(tuple(v - 1 if v > pos else v for v in word), -d)]


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
    return _weighted(_split_word(f.flat(), pos, i, j), f.shape)


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
    return _weighted(_merge_word(f.flat(), f.shape, pos), f.shape)
