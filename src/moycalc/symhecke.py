"""Symmetric groups, the Hecke algebra, and translation combinatorics.

Contents:

- ``Permutation``: one-line-notation permutations of {1..n} with reduced
  words and two text renderings (one-line digits, reduced-word digits);
  minimality in a coset w·S_mu is the module-level ``_is_strict``.
- ``HeckeElement``: elements of the Hecke algebra of S_n over Z[q,q^-1]
  in the normalization with quadratic relation
  H_s^2 = H_e + (q^-1 - q) H_s, so that C_s := H_s + q satisfies
  C_s^2 = (q + q^-1) C_s.  Standard basis products, the bar involution,
  and the Kazhdan-Lusztig basis.
- ``min_coset_reps`` / ``O_set`` / ``O_lists``: shortest coset
  representatives for Young subgroups on either side, and the
  double-quotient classes used as the module basis (one weight's, or
  every weight's in one call).
- ``sign_action``: the induced sign module attached to a composition,
  as explicit matrices.
- ``FlagList`` / ``TranslationPath`` / ``translation_flag``: exact
  bookkeeping for moving Verma-flag class lists onto and out of walls,
  including the A/B lists and their concatenation calculus.

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
from functools import lru_cache, reduce
from itertools import combinations, permutations
from typing import Callable, Iterable, NamedTuple, Sequence

from .qlaurent import ONE, LaurentPoly, LinComb, _check_int, _pack, _q_name, _tally, _unpack
from .weblin import QMatrix

__all__ = [
    "Permutation",
    "HeckeElement",
    "FlagList",
    "min_coset_reps",
    "O_set",
    "O_lists",
    "hecke_mul",
    "kl_element",
    "rs_tableaux",
    "annihilates",
    "sign_action",
    "translation_flag",
    "TranslationPath",
    "list_A",
    "list_B",
    "parts_of",
    "nonzero_part_count",
]

# ----------------------------------------------------------------------
# permutations


@dataclass(frozen=True, eq=False)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    Permutations key every Hecke-algebra sum, so the hash (the one a
    dataclass would compute) is computed once, on construction.  The
    constructor validates its input; group operations on valid
    permutations build their results through ``_trusted``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        n = len(images)
        if any(type(v) is not int for v in images):
            raise ValueError(f"permutation entries must be ints, got {images}")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash((images,)))

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from images known to be valid, unchecked."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        object.__setattr__(perm, "_hash", hash((images,)))
        return perm

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Permutation:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_int(n, "permutation size n", 0)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def s(cls, i: int, n: int) -> "Permutation":
        """The adjacent transposition swapping i and i+1."""
        return cls.identity(n).times_s(i)

    @classmethod
    def from_word(cls, word: Iterable[int], n: int) -> "Permutation":
        """Product s_{i_1} s_{i_2} ... s_{i_r} of the listed generators."""
        return reduce(Permutation.times_s, word, cls.identity(n))

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
        images = self.images
        return Permutation._trusted(tuple(images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse_images(self.images))

    def times_s(self, i: int) -> "Permutation":
        """Right product self·s_i (swaps the entries at positions i, i+1)."""
        _check_generator(i, self.n)
        images = list(self.images)
        images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation._trusted(tuple(images))

    def s_times(self, i: int) -> "Permutation":
        """Left product s_i·self (swaps the values i, i+1)."""
        _check_generator(i, self.n)
        swap = {i: i + 1, i + 1: i}
        return Permutation._trusted(tuple(swap.get(v, v) for v in self.images))

    def is_identity(self) -> bool:
        return all(v == j for j, v in enumerate(self.images, start=1))

    def length(self) -> int:
        return _inversion_count(self.images)

    def left_ascent(self, i: int) -> bool:
        """True iff l(s_i·self) > l(self): the value i comes before i+1."""
        return self.images.index(i) < self.images.index(i + 1)

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


def _check_generator(i: int, n: int) -> None:
    _check_int(i, "generator index")
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")


def _inverse_images(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for pos, val in enumerate(images, start=1):
        inv[val - 1] = pos
    return tuple(inv)


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
    """The parts of a composition, each a plain nonnegative int."""
    parts = tuple(mu)
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"composition parts must be ints, got {parts}")
        if p < 0:
            raise ValueError(f"negative part in composition {parts}")
    return parts


def _parts_summing_to(mu: Sequence[int], n: int) -> tuple[int, ...]:
    """``parts_of(mu)``, which must sum to n."""
    parts = parts_of(mu)
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not match n={n}")
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


def _value_blocks(nu: Sequence[int]) -> list[int]:
    """The 1-based nu-block of each position 1..n, at index position - 1."""
    return [index for index, p in enumerate(nu, start=1) for _ in range(p)]


@lru_cache(maxsize=None)
def _in_block_pairs(mu: tuple[int, ...]) -> tuple[int, ...]:
    """The indices i with i and i+1 inside one block of mu."""
    return tuple(i for block in _blocks(mu) for i in block[:-1])


def _is_strict(word: Sequence[int], pairs: tuple[int, ...]) -> bool:
    """Whether entries rise across every in-block pair (``_in_block_pairs``):
    a box word is column-strict, a one-line word is minimal in w·S_mu."""
    return all(word[i - 1] < word[i] for i in pairs)


def min_coset_reps(mu: Sequence[int], side: str) -> set[Permutation]:
    """Shortest coset representatives for the Young subgroup of ``mu``.

    ``side="left"`` gives the minimal representatives of the cosets
    S_mu·w (one-line values increase blockwise via the inverse);
    ``side="right"`` gives those of w·S_mu (entries increase on the
    block positions).
    """
    right = _right_minimal_reps(parts_of(mu))
    if side == "right":
        return set(right)
    if side == "left":
        # w is minimal in S_mu·w exactly when w^-1 is minimal in w^-1·S_mu
        return {w.inverse() for w in right}
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@lru_cache(maxsize=None)
def _right_minimal_reps(nu: tuple[int, ...]) -> tuple[Permutation, ...]:
    """The minimal representatives of the cosets w·S_nu in lexicographic
    order: the images of ``_rep_masks(nu)``."""
    return tuple(Permutation._trusted(images) for images in _rep_masks(nu))


def _embedded(z: Permutation, offset: int, n: int) -> Permutation:
    """z acting on the values offset+1..offset+z.n of 1..n, fixing the rest."""
    head, tail = tuple(range(1, offset + 1)), tuple(range(offset + z.n + 1, n + 1))
    return Permutation._trusted(head + tuple(v + offset for v in z.images) + tail)


@lru_cache(maxsize=None)
def _pair_mask(mu: tuple[int, ...]) -> int:
    """Bit i set for each pair of values i, i+1 inside one block of mu."""
    return sum(1 << i for i in _in_block_pairs(mu))


@lru_cache(maxsize=None)
def _rep_masks(nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The failing-pair mask of each right-minimal representative z of
    nu, keyed by its images in lexicographic order.

    The representatives are the shuffles that give each nu-block of
    positions an increasing run of values, one block after another.
    Every element of z·S_nu is left-mu-minimal iff for each pair of
    values i, i+1 inside one mu-block, the position of i falls in a
    strictly earlier nu-block than the position of i+1.  Bit i of the
    mask is set when that fails for the values i, i+1, so z qualifies
    for mu exactly when ``mask & _pair_mask(mu) == 0``.  A block's value
    v fails with v+1 exactly when v+1 is not left over for a later
    block, so each block sets its bits as it takes its values.
    """
    n = sum(nu)
    bit = [1 << v for v in range(n + 1)]
    below_n = (1 << n) - 2  # the bits of the values 1..n-1
    # (word, the values left over, their bits, mask)
    shuffles = [((), tuple(range(1, n + 1)), below_n | bit[n], 0)]
    for p in nu:
        grown = []
        for word, rest, rest_bits, mask in shuffles:
            # combinations() runs in lexicographic order, so the words do
            for chosen in combinations(rest, p):
                bits = sum(map(bit.__getitem__, chosen))
                left = rest_bits ^ bits
                grown.append((
                    word + chosen,
                    tuple([v for v in rest if not bit[v] & bits]),
                    left,
                    mask | bits & ~(left >> 1) & below_n,
                ))
        shuffles = grown
    return {word: mask for word, _, _, mask in shuffles}


def O_lists(
    mus: Iterable[Sequence[int]], nu: Sequence[int]
) -> list[tuple[tuple[int, ...], list[Permutation]]]:
    """Each weight's ``O_set`` as a list in ``images`` order: (mu, classes)
    for each mu of ``mus``, which must all sum to nu's n, filtered from
    one table of nu's representatives and their masks."""
    nu_t = parts_of(nu)
    # the representatives run in lexicographic order, so each list is sorted
    reps = list(zip(_right_minimal_reps(nu_t), _rep_masks(nu_t).values()))
    out = []
    for mu in mus:
        mu_t = _parts_summing_to(mu, sum(nu_t))
        pair_mask = _pair_mask(mu_t)
        out.append((mu_t, [z for z, mask in reps if not mask & pair_mask]))
    return out


def O_set(mu: Sequence[int], nu: Sequence[int]) -> set[Permutation]:
    """Minimal representatives of the cosets in S_n/S_nu that lie
    entirely inside the left-mu-minimal elements."""
    mu_t, nu_t = parts_of(mu), parts_of(nu)
    if sum(mu_t) != sum(nu_t):
        raise ValueError(f"compositions {mu_t} and {nu_t} have different sums")
    return set(O_lists([mu_t], nu_t)[0][1])


# ----------------------------------------------------------------------
# the Hecke algebra


@dataclass(frozen=True, eq=False)
class HeckeElement:
    """A Z[q,q^-1]-combination of standard basis elements H_x, x in S_n."""

    n: int
    terms: LinComb  # Permutation -> LaurentPoly

    def __post_init__(self) -> None:
        terms = LinComb.adopt(self.terms)
        for x in terms:
            if x.__class__ is not Permutation or x.n != self.n:
                raise ValueError(f"{x!r} is not a permutation of size n={self.n}")
        object.__setattr__(self, "terms", terms)

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
        _check_same_n(self, other, "sum")
        return HeckeElement(self.n, self.terms + other.terms)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        _check_same_n(self, other, "difference")
        return HeckeElement(self.n, self.terms - other.terms)

    def __mul__(self, scalar) -> "HeckeElement":
        if isinstance(scalar, (int, LaurentPoly)):
            return HeckeElement(self.n, self.terms * scalar)
        if isinstance(scalar, HeckeElement):
            return hecke_mul(self, scalar)
        return NotImplemented

    __rmul__ = __mul__

    def coeff(self, w: Permutation) -> LaurentPoly:
        return self.terms.coeff(w)

    def bar(self) -> "HeckeElement":
        """The bar involution: q ↦ q^-1 and H_x ↦ (H_{x^{-1}})^{-1}."""
        unit = HeckeElement.unit(self.n).terms
        bars = _product(self.n, self.terms.bar(), unit, inverse=True)
        return HeckeElement(self.n, bars)

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


# Raw sums: the Hecke code below computes on plain {index: int} dicts
# over the indexed copy of S_n (``_group``).  A coefficient Σ c_e·q^e is
# the integer Σ c_e·2^(B·(e + E)), so q^±1·c is a shift by B bits.  Each
# call fixes B and E before it runs (``_packing``): B wide enough that
# balanced base-2^B digits read back every coefficient of its result,
# and E so that every exponent position is at least 1 where a right
# shift comes, which makes each one exact.  Keys and coefficients enter
# through ``_raw`` and leave through ``_lincomb``, which decodes each
# distinct packed value of one sum once (a column of ``sign_action``
# repeats few values over many keys).
RawSum = dict[int, int]


class _IndexedGroup(NamedTuple):
    """S_n with every element numbered once.

    ``perms[y]`` is the permutation with index y, in lexicographic
    order of one-line notation (so index 0 is the identity); ``index``
    maps one-line images back to the index; ``left[i][y]`` is (index of
    s_i·y, whether s_i·y < y)."""

    perms: tuple[Permutation, ...]
    index: dict[tuple[int, ...], int]
    left: dict[int, tuple[tuple[int, bool], ...]]


@lru_cache(maxsize=None)
def _group(n: int) -> _IndexedGroup:
    perms = tuple(
        Permutation._trusted(images) for images in permutations(range(1, n + 1))
    )
    index = {w.images: y for y, w in enumerate(perms)}
    left: dict[int, list[tuple[int, bool]]] = {i: [] for i in range(1, n)}
    for w in perms:
        images = w.images
        position = _inverse_images(images)
        for i in range(1, n):
            # s_i·w swaps the values i and i+1, which sit at these places
            a, b = position[i - 1] - 1, position[i] - 1
            swapped = list(images)
            swapped[a], swapped[b] = i + 1, i
            left[i].append((index[tuple(swapped)], a > b))
    return _IndexedGroup(perms, index, {i: tuple(row) for i, row in left.items()})


def _norm(polys: Iterable[LaurentPoly]) -> int:
    """Σ|c| over every coefficient of every polynomial."""
    return sum(abs(c) for poly in polys for _, c in poly.terms)


def _low(polys: Iterable[LaurentPoly]) -> int:
    """The lowest exponent of the polynomials (0 for none)."""
    return min((poly.terms[-1][0] for poly in polys), default=0)


def _packing(norm: int, low: int, depth: int) -> tuple[int, int]:
    """Digit width B and offset E for raw sums of total ``norm`` (Σ|c|
    over all their coefficients) and lowest exponent ``low`` that take
    at most ``depth`` left steps.  A step at most triples the norm,
    which bounds every coefficient, and lowers the lowest exponent by
    at most one, so positions stay >= 1 until the last right shift."""
    return (norm * 3**depth).bit_length() + 1, depth - low


def _raw(terms: LinComb, group: _IndexedGroup, width: int, offset: int) -> RawSum:
    index = group.index
    return {index[x.images]: _pack(c, width, offset) for x, c in terms.items()}


def _lincomb(vec: RawSum, group: _IndexedGroup, width: int, offset: int) -> LinComb:
    perms = group.perms
    out = LinComb()
    # keys with equal packed values share one (immutable) decoded polynomial
    decoded: dict[int, LaurentPoly] = {}
    for y, acc in vec.items():
        if acc:
            poly = decoded.get(acc)
            if poly is None:
                poly = decoded[acc] = _unpack(acc, width, offset)
            out[perms[y]] = poly
    return out


def _merge(out: RawSum, vec: RawSum) -> None:
    """out += vec."""
    for y, acc in vec.items():
        out[y] = out.get(y, 0) + acc


def _left_step(
    moves: tuple[tuple[int, bool], ...], vec: RawSum, width: int, inverse: bool = False
) -> RawSum:
    """Left-multiply a raw sum by H_{s_i}, or with ``inverse`` by
    H_{s_i}^{-1} = H_{s_i} + (q - q^-1); ``moves`` is ``left[i]`` of
    the group's table.

    Each pair {a, b = s_i·a} with a < b is handled in one go:
    H_{s_i} sends c_a·H_a + c_b·H_b to c_b·H_a + (c_a + (q^-1 - q)·c_b)·H_b,
    and H_{s_i}^{-1} to (c_b + (q - q^-1)·c_a)·H_a + c_a·H_b.  The
    correction is two shifts by ``width`` bits.
    """
    out: RawSum = {}
    for y, acc in vec.items():
        sy, down = moves[y]
        if down != inverse:
            # y takes the correction, added to its partner's sum
            if inverse:
                out[y] = vec.get(sy, 0) + (acc << width) - (acc >> width)
            else:
                out[y] = vec.get(sy, 0) + (acc >> width) - (acc << width)
        elif sy in vec:
            continue  # the pair is done at its other end
        out[sy] = acc
    return out


def _fold_words(
    group: _IndexedGroup,
    leaves: dict[tuple[int, ...], RawSum],
    width: int,
    inverse: bool,
    depth: int = 0,
) -> RawSum:
    """Σ over ``word -> leaf`` of H_{w_1}···H_{w_r}·leaf (each factor
    inverted with ``inverse``), Horner-style: words sharing a prefix
    share the left steps of that prefix, which act on the largest sums.
    Every word has at least ``depth`` letters and the words agree on
    their first ``depth``."""
    out: RawSum = {}
    branches: dict[int, dict[tuple[int, ...], RawSum]] = {}
    for word, leaf in leaves.items():
        if len(word) == depth:
            _merge(out, leaf)
        else:
            branches.setdefault(word[depth], {})[word] = leaf
    for i, branch in branches.items():
        folded = _fold_words(group, branch, width, inverse, depth + 1)
        _merge(out, _left_step(group.left[i], folded, width, inverse))
    return out


def _check_same_n(a: "HeckeElement", b: "HeckeElement", what: str) -> None:
    if a.n != b.n:
        raise ValueError(f"size mismatch in Hecke {what}")


def _product(n: int, a: LinComb, b: LinComb, inverse: bool) -> LinComb:
    """Σ over the terms c_x·H_x of a of H_{w_1}···H_{w_r}·(c_x·b), with
    w_1···w_r the reduced word of x and each factor inverted with
    ``inverse``, folded along the words on one certified packing."""
    if not a or not b:
        return LinComb()  # a norm of 0 sizes digits too narrow for the other factor
    group = _group(n)
    low_a, polys_b = _low(a.values()), b.values()
    norm = _norm(a.values()) * _norm(polys_b)
    depth = max(x.length() for x in a)
    width, offset = _packing(norm, low_a + _low(polys_b), depth)
    # c_x packed at offset -low_a times b packed at offset + low_a is
    # c_x·b packed at offset
    b_raw = _raw(b, group, width, offset + low_a)
    leaves = {}
    for x, c in a.items():
        scale = _pack(c, width, -low_a)
        leaves[x.reduced_word()] = {y: scale * acc for y, acc in b_raw.items()}
    return _lincomb(_fold_words(group, leaves, width, inverse), group, width, offset)


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra: Σ_x H_x·(c_x·b), folded along the
    reduced words of the x."""
    _check_same_n(a, b, "product")
    return HeckeElement(a.n, _product(a.n, a.terms, b.terms, inverse=False))


_KL_CACHE: dict[tuple[int, ...], HeckeElement] = {}
# one polynomial object per distinct coefficient of the cached elements
_KL_COEFFS: dict[tuple[tuple[int, int], ...], LaurentPoly] = {}


def kl_element(w: Permutation) -> HeckeElement:
    """The Kazhdan-Lusztig basis element attached to w.

    Characterized as the unique bar-invariant element of the form
    H_w + Σ_{y≠w} h_y·H_y with every h_y in q·Z[q]; computed by the
    standard recursion on a left descent with degree-one corrections:
    C_{s_i}·C_v = H_{s_i}·C_v + q·C_v, one left step on C_v's terms.
    """
    cached = _KL_CACHE.get(w.images)
    if cached is not None:
        return cached
    n, images = w.n, w.images
    if w.is_identity():
        result = HeckeElement.unit(n)
    elif images[0] == 1 or images[-1] == n:
        # C_w of the interval w moves, embedded: the parabolic inclusion
        # commutes with bar and keeps H_w + Σ q·Z[q]·H_y, so it keeps C_w
        moved = [i for i, v in enumerate(images) if v != i + 1]
        lo, hi = moved[0], moved[-1] + 1
        inner = kl_element(Permutation._trusted(tuple(v - lo for v in images[lo:hi])))
        terms = {_embedded(y, lo, n): c for y, c in inner.terms.items()}
        result = HeckeElement(n, terms)
    else:
        group = _group(n)
        i = w.reduced_word()[0]
        moves = group.left[i]
        kl_v = kl_element(w.s_times(i)).terms
        # each z with s_i·z < z subtracts m·C_z, m the coefficient of q
        # in C_v's coefficient of z
        corrections = [
            (m, kl_element(z).terms)
            for z, coeff in kl_v.items()
            if (m := coeff.coeff(1)) and not z.left_ascent(i)
        ]
        # the result's norm is at most 4·|C_v| + Σ|m|·|C_z| <= 3·norm,
        # and every coefficient lies in Z[q]
        norm = 2 * _norm(kl_v.values())
        norm += sum(abs(m) * _norm(kl_z.values()) for m, kl_z in corrections)
        width, offset = _packing(norm, 0, 1)
        raw = _raw(kl_v, group, width, offset)
        # C_{s_i}·C_v = H_{s_i}·C_v + q·C_v
        vec = _left_step(moves, raw, width)
        for y, acc in raw.items():
            vec[y] = vec.get(y, 0) + (acc << width)
        for m, kl_z in corrections:
            for y, acc in _raw(kl_z, group, width, offset).items():
                vec[y] = vec.get(y, 0) - m * acc
        terms = _lincomb(vec, group, width, offset)
        for x, c in terms.items():
            terms[x] = _KL_COEFFS.setdefault(c.terms, c)
        result = HeckeElement(n, terms)
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
    parts = _parts_summing_to(mu, w.n)
    return len(rs_tableaux(w)[0]) > nonzero_part_count(parts)


# ----------------------------------------------------------------------
# the induced sign module


@lru_cache(maxsize=None)
def _sign_module(parts: tuple[int, ...]):
    """Basis (sorted), projection table and word tree for the sign
    module of the composition with these nonzero parts.

    The projection is a list over the indices of ``_group(n)``: it sends
    y in S_n, written y = u·d with u in S_mu and d minimal in S_mu·y,
    to (index of d, l(u)), which stands for (-q)^{l(u)}·d.
    Left multiplication by S_mu permutes the values inside each block,
    so d puts every block's values in increasing order on the positions
    y gives them.

    The tree maps each tail of a basis element's greedy reduced word to
    the one-letter-longer tails: the greedy word of x minus its first
    letter i is the greedy word of s_i·x, which need not be minimal.
    """
    n = sum(parts)
    group = _group(n)
    blocks = _blocks(parts)
    project = []
    for y in group.perms:
        images = y.images
        sorted_images = list(images)
        for block in blocks:
            positions = [p for p, v in enumerate(images) if v in block]
            for p, v in zip(positions, block):
                sorted_images[p] = v
        d = tuple(sorted_images)
        length = _inversion_count(images) - _inversion_count(d)
        project.append((group.index[d], length))
    # indices follow one-line order, so sorted indices give a sorted basis
    basis = tuple(group.perms[d] for d in sorted({d for d, _ in project}))
    tree: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for d in basis:
        word = d.reduced_word()
        for k in range(len(word)):
            longer = tree.setdefault(word[k + 1 :], [])
            if word[k:] in longer:
                break
            longer.append(word[k:])
    return basis, project, tree


def _project(
    vec: RawSum, project: list, group: _IndexedGroup, width: int, offset: int
) -> LinComb:
    """The image of a raw sum in the sign module: H_y ↦ (-q)^{l(u)}·d."""
    col: RawSum = {}
    for y, acc in vec.items():
        d, length = project[y]
        shifted = acc << width * length
        col[d] = col.get(d, 0) - shifted if length & 1 else col.get(d, 0) + shifted
    return _lincomb(col, group, width, offset)


def sign_action(h: HeckeElement, mu: Sequence[int]) -> QMatrix:
    """Matrix of h on the induced sign module, over the minimal-coset basis.

    The module is sign ⊗_{H_mu} H: the basis vector of a minimal coset
    representative d is 1 ⊗ H_d, and H_{s_i} in H_mu acts on the sign
    line by -q.  So H_y with y = u·d (u in S_mu) projects to
    (-q)^{l(u)}·d, and the column of a basis vector w is the projection
    of H_w·h.  The products H_w·h are built depth first along
    left-descent chains: with w = s_i·w', H_w·h = H_{s_i}·(H_{w'}·h),
    one left step, and only the products on the current chain are kept.

    On the basis this is the right action fixed by: H_{s_i} sends w to
    w·s_i when that is again minimal (with the quadratic correction
    (q^-1 - q)·w when it is shorter), and to -q·w when w·s_i falls out
    of the minimal set.  This is the unique convention under which the
    box-diagram bijection intertwines the module with the E-operators
    on V^{⊗n}; the identity-sized composition recovers the regular
    representation (indices inverted)."""
    mu_t = _parts_summing_to(mu, h.n)
    group = _group(h.n)
    left = group.left
    basis, project, tree = _sign_module(tuple(p for p in mu_t if p))
    columns: dict[tuple[int, ...], LinComb | None] = dict.fromkeys(
        w.reduced_word() for w in basis
    )
    # the longest column takes one left step per letter of its word
    depth = max(map(len, columns))
    polys = h.terms.values()
    width, offset = _packing(_norm(polys), _low(polys), depth)
    # (greedy word of x, H_{x'}·h for x' = s_i·x, i its first letter);
    # siblings share their parent's product, and only read it
    stack: list[tuple[tuple[int, ...], RawSum]] = [((), {})]
    while stack:
        word, below = stack.pop()
        if word:
            vec = _left_step(left[word[0]], below, width)
        else:
            vec = _raw(h.terms, group, width, offset)
        if word in columns:
            columns[word] = _project(vec, project, group, width, offset)
        stack.extend((longer, vec) for longer in tree.get(word, ()))
    # _project keys every column by the module's basis
    return QMatrix._trusted(basis, basis, columns.values())


# ----------------------------------------------------------------------
# flag lists and translation moves


@dataclass(frozen=True, eq=False)
class FlagList:
    """A multiset of (q-exponent, permutation) pairs, in insertion order.

    Equality is multiset equality; ``text()`` renders the stored order
    while ``canonical_text()`` renders the sorted normal form
    (ascending exponent, then word text).  Each exponent must be an
    ``int`` and each class a ``Permutation``."""

    terms: tuple[tuple[int, Permutation], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        for e, w in self.terms:
            if type(e) is not int or not isinstance(w, Permutation):
                raise ValueError(f"term ({e!r}, {w!r}) is not (int exponent, Permutation)")

    @classmethod
    def single(cls, w: Permutation, exponent: int = 0) -> "FlagList":
        return cls(((exponent, w),))

    def _counter(self) -> dict[tuple[int, tuple[int, ...]], int]:
        return _tally(((e, w.images), 1) for e, w in self.terms)

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

    def times_quantum(self, m: int) -> "FlagList":
        """[m]·self: one shifted copy per monomial of the quantum integer."""
        _check_int(m, "quantum multiple m")
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

    def text(self) -> str:
        return ", ".join(
            w.word_text() if e == 0 else f"{_q_name(e)} {w.word_text()}" for e, w in self.terms
        ) or "(empty)"

    def canonical_text(self) -> str:
        return FlagList(sorted(self.terms, key=lambda t: (t[0], t[1].word_text()))).text()

    __str__ = text


def list_A(r: int, s: int, n: int) -> FlagList:
    """The descending-generator list: words r(r-1)...s, (r-1)...s, ..., s, e
    with exponents 0, 1, ..., r-s+1."""
    return _chain_list((range(r - j, s - 1, -1) for j in range(r - s + 2)), n)


def list_B(s: int, r: int, n: int) -> FlagList:
    """The ascending-generator list: words s(s+1)...r, (s+1)...r, ..., r, e
    with exponents 0, 1, ..., r-s+1."""
    return _chain_list((range(s + j, r + 1) for j in range(r - s + 2)), n)


def _chain_list(words: Iterable[Iterable[int]], n: int) -> FlagList:
    """The flag list giving the j-th generator word exponent j."""
    return FlagList(
        tuple((j, Permutation.from_word(word, n)) for j, word in enumerate(words))
    )


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


def _check_classes(terms: list, wall: tuple[int, ...]) -> None:
    """Every class of the (exponent, class) terms is a ``Permutation``
    of the wall's n, minimal over the wall."""
    n = sum(wall)
    pairs = _in_block_pairs(wall)
    for _, w in terms:
        if not isinstance(w, Permutation):
            raise ValueError(f"class {w!r} is not a Permutation")
        if len(w.images) != n:
            raise ValueError(
                f"class {w.one_line_text()} is not a permutation of size n={n}"
            )
        if not _is_strict(w.images, pairs):
            raise ValueError(f"class {w.one_line_text()} is not minimal over {wall}")


@lru_cache(maxsize=None)
def _wall_step(
    src: tuple[int, ...], dst: tuple[int, ...]
) -> Callable[[list, int | None], list]:
    """The translation move from wall ``src`` to wall ``dst``, analysed
    once per wall pair: a function taking (exponent, images) terms over
    ``src``, each class as its one-line images, and the mu-restriction
    pair mask (or None) to the terms over ``dst``.  The input classes
    are trusted to be minimal over ``src``."""
    n = sum(src)
    split = _single_split(src, dst)
    if split is not None:
        offset, a, b = split
        c = a + b
        shift = c * (c - 1) // 2 - a * (a - 1) // 2 - b * (b - 1) // 2
        # embedding a shuffle of the block keeps its length
        fan = tuple(
            (shift - z.length(), _embedded(z, offset, n).images)
            for z in _right_minimal_reps((a, b))
        )

        def out_of_wall(terms: list, mu_mask: int | None) -> list:
            # the images of w * z
            return [(e + s, tuple(w[j - 1] for j in z)) for e, w in terms for s, z in fan]

        return out_of_wall
    merge = _single_split(dst, src)
    if merge is not None:
        offset, a, b = merge
        end = offset + a + b

        def onto_wall(terms: list, mu_mask: int | None) -> list:
            masks = _rep_masks(dst) if mu_mask is not None else None
            out = []
            for e, images in terms:
                segment = images[offset:end]
                # sorting the merged window keeps z minimal over dst
                z = images[:offset] + tuple(sorted(segment)) + images[end:]
                if masks is not None and masks[z] & mu_mask:
                    continue
                # l(y) counts the inversions inside the merged window
                out.append((e - _inversion_count(segment), z))
            return out

        return onto_wall
    raise ValueError(
        f"ill-matched compositions: {src} and {dst} do not differ "
        f"by one admissible split or merge"
    )


class TranslationPath:
    """A path of walls with each step analysed once.

    ``walls`` lists the compositions visited, starting with the wall the
    classes live over.  Consecutive walls must differ by a single
    adjacent split or merge involving a part of size 1.  A refinement
    step moves out of the wall (each class fans out over the minimal
    representatives with exponent offsets L - l(z)); a coarsening step
    moves onto the wall (each class is replaced by the minimal
    representative of its coset, with exponent offset -l(y)).  Each
    step is analysed once per pair of walls and cached.  ``push`` checks
    its classes once, over the starting wall; the steps trust them and
    act on their one-line images.
    """

    def __init__(self, walls: Sequence[Sequence[int]]) -> None:
        parts = [parts_of(c) for c in walls]
        if not parts:
            raise ValueError("path must contain at least the starting wall")
        self.start = parts[0]
        self.n = sum(self.start)
        if any(sum(c) != self.n for c in parts):
            raise ValueError("all walls in the path must be compositions of n")
        self.steps = tuple(_wall_step(s, d) for s, d in zip(parts, parts[1:]))

    def push(
        self, terms: list[tuple[int, Permutation]], mu: Sequence[int] | None = None
    ) -> list[tuple[int, Permutation]]:
        """The (exponent, class) terms at the path's end.  When ``mu`` is
        given, onto-wall steps drop the classes whose coset does not
        qualify for the mu-restricted class set.  ``mu`` must sum to the
        path's n, and every class must be a permutation of that size,
        minimal over the starting wall: checked here, once."""
        _check_classes(terms, self.start)
        pushed = self._pusher(mu)([(e, w.images) for e, w in terms])
        return [(e, Permutation._trusted(images)) for e, images in pushed]

    def _pusher(self, mu: Sequence[int] | None = None) -> Callable[[list], list]:
        """``push`` for many trusted classes of one weight, ``mu`` checked
        once, on (exponent, images) terms: each class as its one-line images."""
        mu_mask = None if mu is None else _pair_mask(_parts_summing_to(mu, self.n))

        def push(terms: list) -> list:
            for step in self.steps:
                terms = step(terms, mu_mask)
            return terms

        return push


def translation_flag(
    start: FlagList, path: Sequence[Sequence[int]], mu: Sequence[int] | None = None
) -> FlagList:
    """Push a class list along a path of walls, optionally restricted
    to the classes of ``mu`` (see ``TranslationPath``)."""
    return FlagList(tuple(TranslationPath(path).push(list(start.terms), mu)))
