"""Symmetric groups, the Hecke algebra, and translation combinatorics.

Contents:

- ``Permutation``: one-line-notation permutations of {1..n} with reduced
  words, two text renderings (one-line digits, reduced-word digits), and
  minimal-coset-representative predicates.
- ``HeckeElement``: elements of the Hecke algebra of S_n over Z[q,q^-1]
  in the normalization with quadratic relation
  H_s^2 = H_e + (q^-1 - q) H_s, so that C_s := H_s + q satisfies
  C_s^2 = (q + q^-1) C_s.  Standard basis products, the bar involution,
  and the Kazhdan-Lusztig basis.
- ``min_coset_reps`` / ``O_set``: shortest coset representatives for
  Young subgroups on either side, and the double-quotient classes used
  as the module basis.
- ``sign_action``: the induced sign module attached to a composition,
  as explicit matrices.
- ``FlagList`` / ``translation_flag``: exact bookkeeping for moving
  Verma-flag class lists onto and out of walls, including the A/B lists
  and their concatenation calculus.

Conventions (pinned once, used everywhere):

- products compose right-to-left: (p*r)(i) = p(r(i));
- l(w s_i) > l(w)  iff  w(i) < w(i+1);
- l(s_i w) > l(w)  iff  w^{-1}(i) < w^{-1}(i+1);
- reduced words are produced by greedily stripping the smallest left
  descent, and render as concatenated generator indices ("e" for the
  identity); one-line text is the digit string of images.

The out-of-wall rule on non-identity classes and the onto-wall drop
rule are pinned by the regression tables in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .qlaurent import ONE, LaurentPoly, LinComb
from .weblin import QMatrix

__all__ = [
    "Permutation",
    "HeckeElement",
    "FlagList",
    "min_coset_reps",
    "O_set",
    "hecke_mul",
    "kl_element",
    "rs_tableaux",
    "annihilates",
    "sign_action",
    "translation_flag",
    "list_A",
    "list_B",
    "parts_of",
    "nonzero_part_count",
]

# q^-1 - q and -q: the two structure constants of the conventions above
_QINV_MINUS_Q = LaurentPoly({-1: 1, 1: -1})
_Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
_MINUS_Q = LaurentPoly({1: -1})


# ----------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a permutation of 1..{n}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def s(cls, i: int, n: int) -> "Permutation":
        """The adjacent transposition swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @classmethod
    def from_word(cls, word: Iterable[int], n: int) -> "Permutation":
        """Product s_{i_1} s_{i_2} ... s_{i_r} of the listed generators."""
        result = cls.identity(n)
        for i in word:
            result = result * cls.s(i, n)
        return result

    @classmethod
    def from_one_line(cls, text: str | Sequence[int]) -> "Permutation":
        if isinstance(text, str):
            digits = text.strip()
            if digits == "e":
                raise ValueError("one-line text needs an explicit size")
            return cls(tuple(int(ch) for ch in digits))
        return cls(tuple(text))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n, 0, -1)))

    # -- basic structure --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("size mismatch in permutation product")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.images, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def times_s(self, i: int) -> "Permutation":
        """Right product self·s_i (swaps the entries at positions i, i+1)."""
        images = list(self.images)
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    def s_times(self, i: int) -> "Permutation":
        """Left product s_i·self (swaps the values i, i+1)."""
        swap = {i: i + 1, i + 1: i}
        return Permutation(tuple(swap.get(v, v) for v in self.images))

    def is_identity(self) -> bool:
        return all(v == j for j, v in enumerate(self.images, start=1))

    def length(self) -> int:
        return _inversion_count(self.images)

    def right_ascent(self, i: int) -> bool:
        """True iff l(self·s_i) > l(self)."""
        return self.images[i - 1] < self.images[i]

    # -- words and text ---------------------------------------------------

    def reduced_word(self) -> tuple[int, ...]:
        """Greedy reduced word: repeatedly strip the smallest left descent."""
        return _reduced_word(self.images)

    def word_text(self) -> str:
        """Generator indices concatenated ("e" for the identity)."""
        word = self.reduced_word()
        return "".join(str(i) for i in word) if word else "e"

    def one_line_text(self) -> str:
        return "".join(str(v) for v in self.images)

    def __str__(self) -> str:
        return self.one_line_text()

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


@lru_cache(maxsize=None)
def _inversion_count(images: tuple[int, ...]) -> int:
    n = len(images)
    return sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if images[a] > images[b]
    )


@lru_cache(maxsize=None)
def _reduced_word(images: tuple[int, ...]) -> tuple[int, ...]:
    word: list[int] = []
    current = list(images)
    n = len(current)
    position = [0] * (n + 1)
    while True:
        for pos, val in enumerate(current, start=1):
            position[val] = pos
        for i in range(1, n):
            if position[i + 1] < position[i]:
                break
        else:
            return tuple(word)
        word.append(i)
        p_i, p_i1 = position[i], position[i + 1]
        current[p_i - 1], current[p_i1 - 1] = i + 1, i


# ----------------------------------------------------------------------
# compositions (duck-typed integer sequences)


def parts_of(mu: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(int(p) for p in mu)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in composition {parts}")
    return parts


def nonzero_part_count(mu: Sequence[int]) -> int:
    """Number of nonzero parts (the row bound of the annihilator test)."""
    return sum(1 for p in parts_of(mu) if p)


def _blocks(mu: Sequence[int]) -> list[range]:
    """Consecutive integer blocks cut out by the parts (zeros give nothing)."""
    blocks = []
    start = 1
    for p in parts_of(mu):
        blocks.append(range(start, start + p))
        start += p
    return blocks


def _block_index(mu: Sequence[int], n: int) -> list[int]:
    """index i (1-based) -> which block of mu contains i (0-based)."""
    out = [0] * (n + 1)
    for b, block in enumerate(_blocks(mu)):
        for i in block:
            out[i] = b
    return out


def _is_left_minimal(w: Permutation, mu_blocks: list[range]) -> bool:
    """w minimal in S_mu·w: values i, i+1 in one block appear in order."""
    inv = w.inverse().images
    return all(
        inv[i - 1] < inv[i]
        for block in mu_blocks
        for i in block[:-1]
    )


def _is_right_minimal(w: Permutation, mu_blocks: list[range]) -> bool:
    """w minimal in w·S_mu: entries at in-block positions increase."""
    return all(
        w.images[i - 1] < w.images[i]
        for block in mu_blocks
        for i in block[:-1]
    )


def min_coset_reps(mu: Sequence[int], side: str) -> set[Permutation]:
    """Shortest coset representatives for the Young subgroup of ``mu``.

    ``side="left"`` gives the minimal representatives of the cosets
    S_mu·w (one-line values increase blockwise via the inverse);
    ``side="right"`` gives those of w·S_mu (entries increase on the
    block positions).
    """
    parts = parts_of(mu)
    n = sum(parts)
    blocks = _blocks(parts)
    if side == "left":
        test = lambda w: _is_left_minimal(w, blocks)
    elif side == "right":
        test = lambda w: _is_right_minimal(w, blocks)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return {
        w
        for images in permutations(range(1, n + 1))
        for w in (Permutation(images),)
        if test(w)
    }


@lru_cache(maxsize=None)
def _right_minimal_reps(nu: tuple[int, ...]) -> tuple[Permutation, ...]:
    n = sum(nu)
    blocks = _blocks(nu)
    return tuple(
        w
        for images in permutations(range(1, n + 1))
        for w in (Permutation(images),)
        if _is_right_minimal(w, blocks)
    )


def _o_qualifies(z: Permutation, mu: tuple[int, ...], nu_block: list[int]) -> bool:
    """Whether the whole coset z·S_nu lies among the mu-minimal elements.

    Every element of the coset is left-mu-minimal iff for each pair of
    values i, i+1 inside one mu-block, the position of i falls in a
    strictly earlier nu-block than the position of i+1.
    """
    inv = z.inverse().images
    for block in _blocks(mu):
        for i in block[:-1]:
            if nu_block[inv[i - 1]] >= nu_block[inv[i]]:
                return False
    return True


def O_set(mu: Sequence[int], nu: Sequence[int]) -> set[Permutation]:
    """Minimal representatives of the cosets in S_n/S_nu that lie
    entirely inside the left-mu-minimal elements."""
    mu_t, nu_t = parts_of(mu), parts_of(nu)
    if sum(mu_t) != sum(nu_t):
        raise ValueError(f"compositions {mu_t} and {nu_t} have different sums")
    n = sum(nu_t)
    nu_block = _block_index(nu_t, n)
    return {
        z
        for z in _right_minimal_reps(nu_t)
        if _o_qualifies(z, mu_t, nu_block)
    }


# ----------------------------------------------------------------------
# the Hecke algebra


@dataclass(frozen=True, eq=False)
class HeckeElement:
    """A Z[q,q^-1]-combination of standard basis elements H_x, x in S_n."""

    n: int
    terms: LinComb  # Permutation -> LaurentPoly

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", LinComb.adopt(self.terms))

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls(n, {Permutation.identity(n): ONE})

    @classmethod
    def standard(cls, w: Permutation) -> "HeckeElement":
        return cls(w.n, {w: ONE})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return HeckeElement(self.n, self.terms + other.terms)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(self.n, self.terms - other.terms)

    def __mul__(self, scalar) -> "HeckeElement":
        if isinstance(scalar, (int, LaurentPoly)):
            return HeckeElement(self.n, self.terms * scalar)
        if isinstance(scalar, HeckeElement):
            return hecke_mul(self, scalar)
        return NotImplemented

    def __rmul__(self, scalar) -> "HeckeElement":
        if isinstance(scalar, (int, LaurentPoly)):
            return self * scalar
        return NotImplemented

    def coeff(self, w: Permutation) -> LaurentPoly:
        return self.terms.coeff(w)

    def bar(self) -> "HeckeElement":
        """The bar involution: q ↦ q^-1 and H_x ↦ (H_{x^{-1}})^{-1}."""
        out = LinComb()
        for x, c in self.terms.items():
            vec = LinComb({Permutation.identity(self.n): c.bar()})
            for i in x.reduced_word():
                vec = _vec_times_gen(vec, i, inverse=True)
            for w, cc in vec.items():
                out.add_term(w, cc)
        return HeckeElement(self.n, out)

    def text(self) -> str:
        """Canonical form "H[321]*(1) + H[231]*(q) + ...".

        Terms are ordered by decreasing length, then lexicographically
        by one-line notation; coefficients print in canonical Laurent
        text inside parentheses.
        """
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms.items(), key=lambda it: (-it[0].length(), it[0].images)
        )
        return " + ".join(
            f"H[{w.one_line_text()}]*({c})" for w, c in ordered
        )

    def __str__(self) -> str:
        return self.text()


def _vec_times_gen(vec: LinComb, i: int, inverse: bool = False) -> LinComb:
    """Right-multiply a standard-basis vector by H_{s_i}, or with
    ``inverse`` by H_{s_i}^{-1} = H_{s_i} + (q - q^-1).

    w·H_{s_i} = H_{ws_i}, plus (q^-1 - q)·H_w when ws_i < w; the inverse
    swaps the correction to (q - q^-1)·H_w when ws_i > w.
    """
    correction = _Q_MINUS_QINV if inverse else _QINV_MINUS_Q
    out = LinComb()
    for w, c in vec.items():
        out.add_term(w.times_s(i), c)
        if w.right_ascent(i) == inverse:
            out.add_term(w, c * correction)
    return out


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra (fold the right factor's words)."""
    if a.n != b.n:
        raise ValueError("size mismatch in Hecke product")
    out = LinComb()
    for y, cy in b.terms.items():
        vec = a.terms
        for i in y.reduced_word():
            vec = _vec_times_gen(vec, i)
        for w, c in vec.items():
            out.add_term(w, c * cy)
    return HeckeElement(a.n, out)


_KL_CACHE: dict[tuple[int, ...], HeckeElement] = {}


def kl_element(w: Permutation) -> HeckeElement:
    """The Kazhdan-Lusztig basis element attached to w.

    Characterized as the unique bar-invariant element of the form
    H_w + Σ_{y≠w} h_y·H_y with every h_y in q·Z[q]; computed by the
    standard recursion on a left descent with degree-one corrections.
    """
    cached = _KL_CACHE.get(w.images)
    if cached is not None:
        return cached
    n = w.n
    if w.is_identity():
        result = HeckeElement.unit(n)
    else:
        inv = w.inverse().images
        i = next(i for i in range(1, n) if inv[i] < inv[i - 1])
        v = w.s_times(i)
        kl_v = kl_element(v)
        kl_s = HeckeElement(
            n, {Permutation.s(i, n): ONE, Permutation.identity(n): LaurentPoly.q_power(1)}
        )
        result = hecke_mul(kl_s, kl_v)
        for z, coeff in list(kl_v.terms.items()):
            m = coeff.coeff(1)
            if m and not z.inverse().right_ascent(i):
                # s_i z < z: subtract the degree-one correction
                result = result - kl_element(z) * m
    _KL_CACHE[w.images] = result
    return result


# ----------------------------------------------------------------------
# Robinson-Schensted


def rs_tableaux(w: Permutation) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row-insertion and recording tableaux of the one-line word of w."""
    insert_rows: list[list[int]] = []
    record_rows: list[list[int]] = []
    for pos, val in enumerate(w.images, start=1):
        r = 0
        while True:
            if r == len(insert_rows):
                insert_rows.append([val])
                record_rows.append([pos])
                break
            row = insert_rows[r]
            bump_at = next((idx for idx, x in enumerate(row) if x > val), None)
            if bump_at is None:
                row.append(val)
                record_rows[r].append(pos)
                break
            row[bump_at], val = val, row[bump_at]
            r += 1
    return (
        tuple(tuple(row) for row in insert_rows),
        tuple(tuple(row) for row in record_rows),
    )


def annihilates(w: Permutation, mu: Sequence[int]) -> bool:
    """Whether the KL element of w must kill the induced sign module:
    true iff the insertion tableau has more rows than mu has nonzero
    parts.  (Only this direction is claimed or used.)"""
    return len(rs_tableaux(w)[0]) > nonzero_part_count(mu)


# ----------------------------------------------------------------------
# the induced sign module


@lru_cache(maxsize=None)
def _module_data(mu: tuple[int, ...]):
    """Basis (sorted) and per-generator transitions for the module of mu.

    For each basis element w and generator i, the action of H_{s_i} is
    one of: move up (w·s_i longer, still minimal), move down (shorter,
    still minimal), or bounce off the wall (w·s_i not minimal), in
    which case the eigenvalue -q applies.
    """
    n = sum(mu)
    blocks = _blocks(mu)
    basis = tuple(
        sorted(
            (
                w
                for images in permutations(range(1, n + 1))
                for w in (Permutation(images),)
                if _is_left_minimal(w, blocks)
            ),
            key=lambda w: w.images,
        )
    )
    basis_set = set(basis)
    transitions = []
    for i in range(1, n):
        row = {}
        for w in basis:
            ws = w.times_s(i)
            if ws not in basis_set:
                row[w] = ("wall", w)
            elif w.right_ascent(i):
                row[w] = ("up", ws)
            else:
                row[w] = ("down", ws)
        transitions.append(row)
    return basis, transitions


def _module_vec_gen(vec: LinComb, trans_i) -> LinComb:
    out = LinComb()
    for w, c in vec.items():
        case, ws = trans_i[w]
        if case == "wall":
            out.add_term(w, c * _MINUS_Q)
        else:
            out.add_term(ws, c)
            if case == "down":
                out.add_term(w, c * _QINV_MINUS_Q)
    return out


def sign_action(h: HeckeElement, mu: Sequence[int]) -> QMatrix:
    """Matrix of h on the induced sign module, over the minimal-coset basis.

    The action is fixed by: H_{s_i} sends a basis element w to w·s_i
    when that is again minimal (with the quadratic correction
    (q^-1 - q)·w when it is shorter), and to -q·w when w·s_i falls out
    of the minimal set.  This is the unique convention under which the
    box-diagram bijection intertwines the module with the E-operators
    on V^{⊗n}; the identity-sized composition recovers the regular
    representation (indices inverted)."""
    mu_t = parts_of(mu)
    n = sum(mu_t)
    if n != h.n:
        raise ValueError(f"composition {mu_t} does not match n={h.n}")
    basis, transitions = _module_data(mu_t)
    columns: list[LinComb] = []
    for w in basis:
        # memoized prefix folding over all standard-basis words of h
        memo: dict[tuple[int, ...], LinComb] = {(): LinComb({w: ONE})}

        def vec_for(word: tuple[int, ...]) -> LinComb:
            if word in memo:
                return memo[word]
            prev = vec_for(word[:-1])
            result = _module_vec_gen(prev, transitions[word[-1] - 1])
            memo[word] = result
            return result

        col = LinComb()
        for x, c in h.terms.items():
            for u, cc in vec_for(x.reduced_word()).items():
                col.add_term(u, cc * c)
        columns.append(col)
    return QMatrix(basis, basis, columns)


# ----------------------------------------------------------------------
# flag lists and translation moves


@dataclass(frozen=True, eq=False)
class FlagList:
    """A multiset of (q-exponent, permutation) pairs, in insertion order.

    Equality is multiset equality; ``text()`` renders the stored order
    while ``canonical_text()`` renders the sorted normal form
    (ascending exponent, then word text)."""

    terms: tuple[tuple[int, Permutation], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def single(cls, w: Permutation, exponent: int = 0) -> "FlagList":
        return cls(((exponent, w),))

    def _counter(self) -> dict[tuple[int, tuple[int, ...]], int]:
        counts: dict[tuple[int, tuple[int, ...]], int] = {}
        for e, w in self.terms:
            key = (e, w.images)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlagList):
            return NotImplemented
        return self._counter() == other._counter()

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "FlagList") -> "FlagList":
        if not isinstance(other, FlagList):
            return NotImplemented
        return FlagList(self.terms + other.terms)

    def shift(self, m: int) -> "FlagList":
        return FlagList(tuple((e + m, w) for e, w in self.terms))

    def times_quantum(self, m: int) -> "FlagList":
        """[m]·self: one shifted copy per monomial of the quantum integer."""
        if m < 0:
            raise ValueError(f"quantum multiple needs m >= 0, got {m}")
        out: list[tuple[int, Permutation]] = []
        for j in range(m):
            out.extend((e + m - 1 - 2 * j, w) for e, w in self.terms)
        return FlagList(tuple(out))

    def concat(self, other: "FlagList") -> "FlagList":
        """All products ab with exponents added, a-major order."""
        return FlagList(
            tuple(
                (ea + eb, wa * wb)
                for ea, wa in self.terms
                for eb, wb in other.terms
            )
        )

    @staticmethod
    def _term_text(e: int, w: Permutation) -> str:
        word = w.word_text()
        if e == 0:
            return word
        if e == 1:
            return f"q {word}"
        return f"q^{e} {word}"

    def text(self) -> str:
        if not self.terms:
            return "(empty)"
        return ", ".join(self._term_text(e, w) for e, w in self.terms)

    def canonical_text(self) -> str:
        if not self.terms:
            return "(empty)"
        ordered = sorted(self.terms, key=lambda t: (t[0], t[1].word_text()))
        return ", ".join(self._term_text(e, w) for e, w in ordered)

    def __str__(self) -> str:
        return self.text()


def list_A(r: int, s: int, n: int) -> FlagList:
    """The descending-generator list: words r(r-1)...s, (r-1)...s, ..., s, e
    with exponents 0, 1, ..., r-s+1."""
    terms = []
    for j in range(r - s + 2):
        word = tuple(range(r - j, s - 1, -1))
        terms.append((j, Permutation.from_word(word, n)))
    return FlagList(tuple(terms))


def list_B(s: int, r: int, n: int) -> FlagList:
    """The ascending-generator list: words s(s+1)...r, (s+1)...r, ..., r, e
    with exponents 0, 1, ..., r-s+1."""
    terms = []
    for j in range(r - s + 2):
        word = tuple(range(s + j, r + 1))
        terms.append((j, Permutation.from_word(word, n)))
    return FlagList(tuple(terms))


def _single_split(
    src: tuple[int, ...], dst: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """If dst refines src by one adjacent split c -> (a, b) with a 1-part,
    return (offset, a, b); otherwise None."""
    for pos in range(len(src)):
        if (
            len(dst) == len(src) + 1
            and src[:pos] == dst[:pos]
            and src[pos + 1 :] == dst[pos + 2 :]
            and dst[pos] + dst[pos + 1] == src[pos]
            and min(dst[pos], dst[pos + 1]) >= 1
            and 1 in (dst[pos], dst[pos + 1])
        ):
            return (sum(src[:pos]), dst[pos], dst[pos + 1])
    return None


def _out_of_wall_reps(offset: int, a: int, b: int, n: int) -> list[Permutation]:
    """Minimal representatives for splitting the block at ``offset`` into
    (a, b): choose which a of the block values sit in the first a
    positions."""
    c = a + b
    block_values = list(range(offset + 1, offset + c + 1))
    reps = []
    for chosen in combinations(block_values, a):
        rest = [v for v in block_values if v not in chosen]
        images = list(range(1, n + 1))
        images[offset : offset + c] = list(chosen) + rest
        reps.append(Permutation(tuple(images)))
    return reps


def translation_flag(
    start: FlagList | Iterable[tuple[int, Permutation]],
    path: Sequence[Sequence[int]],
    mu: Sequence[int] | None = None,
) -> FlagList:
    """Push a class list along a path of walls.

    ``path`` lists the compositions visited, starting with the wall the
    input classes live over.  Consecutive walls must differ by a single
    adjacent split or merge involving a part of size 1.  A refinement
    step moves out of the wall (each class fans out over the minimal
    representatives with exponent offsets L - l(z)); a coarsening step
    moves onto the wall (each class is replaced by the minimal
    representative of its coset, with exponent offset -l(y)).

    When ``mu`` is given, onto-wall steps drop the classes whose coset
    does not qualify for the mu-restricted class set.
    """
    if isinstance(start, FlagList):
        terms = list(start.terms)
    else:
        terms = list(start)
    walls = [parts_of(c) for c in path]
    if not walls:
        raise ValueError("path must contain at least the starting wall")
    mu_t = parts_of(mu) if mu is not None else None
    n = sum(walls[0])
    if any(sum(c) != n for c in walls):
        raise ValueError("all walls in the path must be compositions of n")
    for src, dst in zip(walls, walls[1:]):
        src_blocks = _blocks(src)
        for _, w in terms:
            if not _is_right_minimal(w, src_blocks):
                raise ValueError(
                    f"class {w.one_line_text()} is not minimal over {src}"
                )
        split = _single_split(src, dst)
        if split is not None:
            offset, a, b = split
            c = a + b
            big = c * (c - 1) // 2
            small = a * (a - 1) // 2 + b * (b - 1) // 2
            reps = _out_of_wall_reps(offset, a, b, n)
            new_terms = []
            for e, w in terms:
                for z in reps:
                    new_terms.append((e + big - small - z.length(), w * z))
            terms = new_terms
            continue
        merge = _single_split(dst, src)
        if merge is not None:
            offset, a, b = merge
            c = a + b
            new_terms = []
            nu_block = _block_index(dst, n) if mu_t is not None else None
            for e, w in terms:
                segment = list(w.images[offset : offset + c])
                # inversions inside the merged window = l(y)
                l_y = sum(
                    1
                    for i in range(c)
                    for j in range(i + 1, c)
                    if segment[i] > segment[j]
                )
                images = list(w.images)
                images[offset : offset + c] = sorted(segment)
                z = Permutation(tuple(images))
                if mu_t is not None and not _o_qualifies(z, mu_t, nu_block):
                    continue
                new_terms.append((e - l_y, z))
            terms = new_terms
            continue
        raise ValueError(
            f"ill-matched compositions: {src} and {dst} do not differ "
            f"by one admissible split or merge"
        )
    return FlagList(tuple(terms))
