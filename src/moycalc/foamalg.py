"""The rank-3 algebraic shadow of foams.

Closed surfaces and the elementary foam pieces between small webs act,
after decategorification to endomorphism rings, on two truncated
polynomial algebras and one flag ring, all with exact rational
coefficients:

* ``FrobElement`` is the Frobenius algebra C[x]/(x^3) with deg(x) = 2,
  trace Tr(x^i) = -1 when i = 2 (else 0), and the signed
  comultiplication Delta(1) = -(1@x^2 + x@x + x^2@1),
  Delta(x) = -(x@x^2 + x^2@x), Delta(x^2) = -x^2@x^2.
* The basic-map catalogue builds both sheet algebras from one rule on
  C[x]/(x^k): trace x^(k-1) -> (-1)^k, comultiplication
  x^p -> (-1)^k sum_(i>=p) x^i@x^(k-1+p-i).  k = 2 gives the seam foams
  between a pair of sheets, k = 3 the one-sheet foams; ``frob_trace``
  and ``frob_comul`` read the k = 3 maps.
* ``FlagRingElement`` is C[X1,X2,X3] modulo the elementary symmetric
  polynomials, in the frozen monomial basis
  {1, X1, X2, X1X2, X1^2, X1X2^2}, with trace = coefficient of X1X2^2.

``theta_eval`` evaluates a closed theta surface with dotted disks as
the flag-ring trace of the corresponding monomial.  ``surgery_check``
verifies the neck-cutting identity
-id = m_x m_x N + m_x N m_x + N m_x m_x with N the composite
unit-after-trace; ``surgery_search`` runs the resolution protocol that
singles that composite out among the degree-correct candidates built
from the structure maps.

``basic_map`` returns the linear map of a named elementary foam piece
(with optional dots, each multiplying by x) between shifted tensor
powers of the two algebras; each tensor factor of truncation order k
carries the grading shift 1-k.  ``foam_degree`` gives the catalogue
degree, and the two agree on every descriptor -- the degree check in
``verify_foam`` asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .qlaurent import _check_int, _tally
from .reporting import Report
from .symhecke import _inversion_count

__all__ = [
    "FrobElement",
    "frob_mul",
    "frob_comul",
    "frob_trace",
    "FlagRingElement",
    "flag_monomial",
    "theta_eval",
    "surgery_check",
    "surgery_search",
    "FoamMap",
    "BASIC_FOAM_NAMES",
    "basic_map",
    "foam_degree",
    "verify_foam",
]


# ----------------------------------------------------------------------
# exact ring elements on a fixed basis


def _exact(value: object) -> Fraction:
    """An exact coefficient: an int (not a bool) or a Fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"coefficients must be ints or Fractions, got {value!r}")
    return Fraction(value)


def _sparse(pairs: Iterable[tuple[object, Fraction]]) -> dict:
    """Sum (key, coefficient) pairs, dropping the zero sums."""
    return {key: coeff for key, coeff in _tally(pairs).items() if coeff}


@dataclass(frozen=True)
class _RingElement:
    """Exact coefficients on a subclass's basis ``_names``; subclasses
    supply the size-error message and the product ``_times``."""

    coeffs: tuple[Fraction, ...]
    _names: ClassVar[tuple[str, ...]]
    _size_error: ClassVar[str]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self._names):
            raise ValueError(self._size_error.format(len(self.coeffs)))
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))

    @classmethod
    def zero(cls):
        return cls((0,) * len(cls._names))

    @classmethod
    def one(cls):
        return cls((1,) + (0,) * (len(cls._names) - 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: object):
        if isinstance(other, type(self)):
            return self._times(other)
        if isinstance(other, (int, Fraction)):
            return type(self)(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def text(self) -> str:
        pieces = []
        for coeff, name in zip(self.coeffs, self._names):
            if not coeff:
                continue
            if coeff == 1 and name != "1":
                pieces.append(name)
            elif coeff == -1 and name != "1":
                pieces.append(f"-{name}")
            elif name == "1":
                pieces.append(str(coeff))
            else:
                pieces.append(f"{coeff}{name}")
        if not pieces:
            return "0"
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __str__(self) -> str:
        return self.text()


# ----------------------------------------------------------------------
# the three-dimensional Frobenius algebra


class FrobElement(_RingElement):
    """An element of C[x]/(x^3), as coefficients of 1, x, x^2."""

    _names = ("1", "x", "x^2")
    _size_error = "need coefficients of 1, x, x^2, got {}"

    @classmethod
    def x(cls, power: int = 1) -> "FrobElement":
        _check_int(power, "power", 0)
        return cls(tuple(int(i == power) for i in range(3)))

    def _times(self, other: "FrobElement") -> "FrobElement":
        a, b = self.coeffs, other.coeffs
        return FrobElement(
            tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(3))
        )


_FROB_BASIS = tuple(FrobElement.x(power) for power in range(3))


def frob_mul(a: FrobElement, b: FrobElement) -> FrobElement:
    """The product in C[x]/(x^3)."""
    return a * b


def frob_trace(a: FrobElement) -> Fraction:
    """The trace form: -1 on x^2, zero on 1 and x (``circle-death``)."""
    trace = _catalogue()["circle-death"][0].entries
    return sum((a.coeffs[p] * row[()] for (p,), row in trace.items()), Fraction(0))


def frob_comul(a: FrobElement) -> dict[tuple[int, int], Fraction]:
    """The signed comultiplication, as coefficients on basis pairs.

    Keys are pairs of basis exponents; the value at (i, j) is the
    coefficient of x^i @ x^j (``tube-split``).  Zero entries are dropped.
    """
    comul = _catalogue()["tube-split"][0].entries
    return _sparse(
        (pair, coeff * value)
        for power, coeff in enumerate(a.coeffs)
        for pair, value in comul[(power,)].items()
    )


# ----------------------------------------------------------------------
# the full-flag cohomology ring

_FLAG_BASIS: tuple[tuple[int, int], ...] = (
    (0, 0),
    (1, 0),
    (0, 1),
    (1, 1),
    (2, 0),
    (1, 2),
)


@lru_cache(maxsize=None)
def _reduce_power_pair(a: int, b: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """Normal form of X1^a X2^b as (basis monomial, integer) pairs."""
    if a + b > 3 or a >= 3 or b >= 3:
        return ()
    if (a, b) == (0, 2):
        return (((2, 0), -1), ((1, 1), -1))
    if (a, b) == (2, 1):
        return (((1, 2), -1),)
    return (((a, b), 1),)


class FlagRingElement(_RingElement):
    """An element of C[X1,X2,X3] modulo all elementary symmetric
    polynomials, in the frozen basis {1, X1, X2, X1X2, X1^2, X1X2^2}."""

    _names = ("1", "X1", "X2", "X1X2", "X1^2", "X1X2^2")
    _size_error = "need 6 coordinates, got {}"

    @classmethod
    def generator(cls, index: int) -> "FlagRingElement":
        """The class of X1, X2, or X3 (the last is -X1 - X2)."""
        if index == 1:
            return cls._from_pairs([((1, 0), 1)])
        if index == 2:
            return cls._from_pairs([((0, 1), 1)])
        if index == 3:
            return cls._from_pairs([((1, 0), -1), ((0, 1), -1)])
        raise ValueError(f"generator index must be 1, 2 or 3, got {index}")

    @classmethod
    def _from_pairs(
        cls, pairs: Iterable[tuple[tuple[int, int], Fraction]]
    ) -> "FlagRingElement":
        """The normal form of a sum of coefficients times X1^a X2^b."""
        reduced = _sparse(
            (monomial, coeff * factor)
            for (a, b), coeff in pairs
            for monomial, factor in _reduce_power_pair(a, b)
        )
        return cls(tuple(reduced.get(monomial, 0) for monomial in _FLAG_BASIS))

    def _times(self, other: "FlagRingElement") -> "FlagRingElement":
        return FlagRingElement._from_pairs(
            ((a + c, b + d), left * right)
            for (a, b), left in zip(_FLAG_BASIS, self.coeffs)
            for (c, d), right in zip(_FLAG_BASIS, other.coeffs)
        )

    def trace(self) -> Fraction:
        """The trace: the coefficient of X1X2^2."""
        return self.coeffs[_FLAG_BASIS.index((1, 2))]


def flag_monomial(d1: int, d2: int, d3: int) -> FlagRingElement:
    """The class of X1^d1 X2^d2 X3^d3 in normal form."""
    for d in (d1, d2, d3):
        _check_int(d, "dot count")
        if d < 0:
            raise ValueError(f"dot counts must be nonnegative ints, got {d!r}")
    sign = (-1) ** d3
    return FlagRingElement._from_pairs(
        ((d1 + j, d2 + d3 - j), sign * comb(d3, j)) for j in range(d3 + 1)
    )


def theta_eval(d1: int, d2: int, d3: int) -> Fraction:
    """Value of the closed theta surface with the given dot counts on
    its three disks: the flag-ring trace of X1^d1 X2^d2 X3^d3."""
    return flag_monomial(d1, d2, d3).trace()


# ----------------------------------------------------------------------
# the surgery identity

def _neck(a: FrobElement) -> FrobElement:
    """The tube-cutting composite: trace then unit."""
    return FrobElement.one() * frob_trace(a)


def _surgery_sum(
    neck: Callable[[FrobElement], FrobElement],
    a: FrobElement,
    keep: Sequence[int] = (0, 1, 2),
) -> FrobElement:
    """Sum of the kept terms of the dotted neck-cutting expansion: term
    i carries i dots below the cut and 2-i dots above it."""
    x = FrobElement.x()
    terms = (
        x * (x * neck(a)),
        x * neck(x * a),
        neck(x * (x * a)),
    )
    total = FrobElement.zero()
    for index in keep:
        total = total + terms[index]
    return total


def surgery_check() -> bool:
    """Whether cutting a tube decomposes minus the identity:
    -id = m_x m_x N + m_x N m_x + N m_x m_x with N = unit-after-trace,
    checked on the whole basis."""
    return all(_surgery_sum(_neck, a) == -a for a in _FROB_BASIS)


def _map_degree_on_algebra(
    rule: Callable[[FrobElement], FrobElement]
) -> int | None:
    """Homogeneous degree of a linear self-map of C[x]/(x^3), or None
    if the map is zero or not homogeneous."""
    entries = {
        (power,): {(out,): c for out, c in enumerate(rule(a).coeffs)}
        for power, a in enumerate(_FROB_BASIS)
    }
    try:
        return FoamMap((3,), (3,), entries).degree()
    except ValueError:
        return None


def surgery_search() -> list[str]:
    """Names of the tube-cutting candidates that satisfy the surgery
    identity.

    Candidates are the composites of the structure maps (product,
    comultiplication, unit, trace, and the plain constant-term
    projection) that map the algebra to itself, with small integer
    multiples; composites whose degree is not -4 cannot appear in the
    identity and are filtered out first.
    """
    one = FrobElement.one()

    def mul_comul(a: FrobElement) -> FrobElement:
        total = FrobElement.zero()
        for (i, j), coeff in frob_comul(a).items():
            total = total + coeff * (FrobElement.x(i) * FrobElement.x(j))
        return total

    # unit after (trace @ trace) after comult is not listed: by the
    # counit law it is the same linear map as trace-then-unit
    bases: dict[str, Callable[[FrobElement], FrobElement]] = {
        "trace-then-unit": _neck,
        "constant-term-then-unit": lambda a: one * a.coeffs[0],
        "comult-then-mult": mul_comul,
    }
    accepted = []
    for name, rule in sorted(bases.items()):
        for factor in (-2, -1, 1, 2):
            scaled = lambda a, rule=rule, factor=factor: factor * rule(a)
            if _map_degree_on_algebra(scaled) != -4:
                continue
            if all(_surgery_sum(scaled, a) == -a for a in _FROB_BASIS):
                label = name if factor == 1 else f"{factor} {name}"
                accepted.append(label)
    return accepted


# ----------------------------------------------------------------------
# basic foam pieces as graded maps

def _basis_key(key: object, factors: tuple[int, ...]) -> tuple[int, ...]:
    """``key`` if it holds one int exponent per factor, each below that
    factor's truncation order."""
    if not (
        isinstance(key, tuple)
        and len(key) == len(factors)
        and all(type(e) is int and 0 <= e < k for e, k in zip(key, factors))
    ):
        raise ValueError(f"basis key {key!r} does not fit factors of orders {factors}")
    return key


@dataclass(frozen=True)
class FoamMap:
    """A linear map between tensor powers of the sheet algebras.

    ``source`` and ``target`` list the truncation order (2 or 3) of
    each tensor factor; a factor of order k carries the grading shift
    1-k, and a basis vector is a tuple of exponents.  ``entries`` maps
    input basis tuples to their image rows; zero rows may be omitted.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    entries: Mapping[
        tuple[int, ...], Mapping[tuple[int, ...], Fraction]
    ]

    def __post_init__(self) -> None:
        for order in self.source + self.target:
            if order not in (2, 3):
                raise ValueError(
                    f"factor truncation order must be 2 or 3, got {order}"
                )
        frozen = {}
        for key, row in self.entries.items():
            exact = _sparse(
                (_basis_key(out, self.target), _exact(coeff)) for out, coeff in row.items()
            )
            if exact:
                frozen[_basis_key(key, self.source)] = exact
        object.__setattr__(self, "entries", frozen)

    def is_zero(self) -> bool:
        return not self.entries

    def degree(self) -> int:
        """The homogeneous degree, shifts included: 1-k per factor of
        order k."""
        offset = sum(1 - k for k in self.target) - sum(1 - k for k in self.source)
        degree: int | None = None
        for key, row in self.entries.items():
            for out in row:
                step = 2 * sum(out) - 2 * sum(key) + offset
                if degree is None:
                    degree = step
                elif degree != step:
                    raise ValueError("map is not homogeneous")
        if degree is None:
            raise ValueError("the zero map has no degree")
        return degree

    def apply(
        self, vector: Mapping[tuple[int, ...], int | Fraction]
    ) -> dict[tuple[int, ...], Fraction]:
        """Image of a vector given by basis-tuple coefficients, each key
        and coefficient checked as the map's own entries are."""
        rows = (
            (self.entries.get(_basis_key(key, self.source), {}), _exact(coeff))
            for key, coeff in vector.items()
        )
        return _sparse((out, coeff * factor) for row, coeff in rows for out, factor in row.items())


# the four maps of each sheet algebra C[x]/(x^k): unit, trace, product,
# comultiplication
_SHEET_MAPS = {
    2: ("seam-birth", "seam-death", "seam-merge", "seam-split"),
    3: ("circle-birth", "circle-death", "tube-merge", "tube-split"),
}


@lru_cache(maxsize=None)
def _catalogue() -> dict[str, tuple[FoamMap, int]]:
    """Both sheet algebras from the one C[x]/(x^k) rule of the module
    docstring, built once; ``basic_map`` hands out copies of these maps."""
    catalogue = {}
    for k, (unit, trace, mul, comul) in _SHEET_MAPS.items():
        sign = (-1) ** k
        catalogue[unit] = (FoamMap((), (k,), {(): {(0,): 1}}), 1 - k)
        catalogue[trace] = (FoamMap((k,), (), {(k - 1,): {(): sign}}), 1 - k)
        products = {(i, j): {(i + j,): 1} for i in range(k) for j in range(k - i)}
        catalogue[mul] = (FoamMap((k, k), (k,), products), k - 1)
        coproducts = {
            (p,): {(i, k - 1 + p - i): sign for i in range(p, k)} for p in range(k)
        }
        catalogue[comul] = (FoamMap((k,), (k, k), coproducts), k - 1)
    return catalogue


BASIC_FOAM_NAMES: tuple[str, ...] = tuple(sorted(_catalogue()))


def _catalogue_entry(name: str, dots: int) -> tuple[FoamMap, int]:
    """The undotted map and degree of a basic foam piece."""
    _check_int(dots, "dot count", 0)
    try:
        return _catalogue()[name]
    except KeyError:
        known = ", ".join(BASIC_FOAM_NAMES)
        raise ValueError(f"unknown basic foam {name!r}; have {known}") from None


def foam_degree(name: str, dots: int = 0) -> int:
    """Catalogue degree of a basic foam piece with ``dots`` dots."""
    _, base = _catalogue_entry(name, dots)
    return base + 2 * dots


def basic_map(name: str, dots: int = 0) -> FoamMap:
    """The graded linear map of a basic foam piece.

    Each dot multiplies by x on the first tensor factor of the source
    (of the target, for the two birth foams whose source is empty), a
    shift of that factor's exponent; dots beyond the factor's truncation
    produce the zero map.
    """
    base, _ = _catalogue_entry(name, dots)
    if base.source:
        entries = {
            (key[0] - dots,) + key[1:]: dict(row)
            for key, row in base.entries.items()
            if key[0] >= dots
        }
    else:
        entries = {
            key: {
                (out[0] + dots,) + out[1:]: coeff
                for out, coeff in row.items()
                if out[0] + dots < base.target[0]
            }
            for key, row in base.entries.items()
        }
    return FoamMap(base.source, base.target, entries)


# ----------------------------------------------------------------------
# the verification suite

def _on_factors(
    foam: FoamMap, vector: Mapping[tuple[int, ...], Fraction], start: int
) -> dict[tuple[int, ...], Fraction]:
    """``foam`` on the tensor factors of ``vector`` from ``start`` on, as
    many as its source has, and the identity on the others."""
    end = start + len(foam.source)
    return _sparse(
        (key[:start] + image + key[end:], factor)
        for key, coeff in vector.items()
        for image, factor in foam.apply({key[start:end]: coeff}).items()
    )


def _frobenius_failures() -> list[str]:
    failures = []
    one = FrobElement.one()
    for a in _FROB_BASIS:
        for b in _FROB_BASIS:
            if a * b != b * a:
                failures.append(f"commutativity at {a}*{b}")
            for c in _FROB_BASIS:
                if (a * b) * c != a * (b * c):
                    failures.append(f"associativity at {a}*{b}*{c}")
        if one * a != a:
            failures.append(f"unit at {a}")

    # counit, coassociativity and the compatibility square, through the
    # catalogue's k = 3 maps on basis tensors
    _, trace, mul, comul = (_catalogue()[name][0] for name in _SHEET_MAPS[3])
    for p, a in enumerate(_FROB_BASIS):
        basis, split = {(p,): 1}, comul.apply({(p,): 1})
        if _on_factors(trace, split, 0) != basis or _on_factors(trace, split, 1) != basis:
            failures.append(f"counit at {a}")
        if _on_factors(comul, split, 0) != _on_factors(comul, split, 1):
            failures.append(f"coassociativity at {a}")
    for i, j in product(range(3), repeat=2):
        pair = {(i, j): 1}
        product_side = comul.apply(mul.apply(pair))
        through_left = _on_factors(mul, _on_factors(comul, pair, 0), 1)
        through_right = _on_factors(mul, _on_factors(comul, pair, 1), 0)
        if product_side != through_left or product_side != through_right:
            failures.append(f"compatibility at x^{i} @ x^{j}")
    return failures


def verify_foam() -> list[Report]:
    """Exact checks of the whole foam shadow, one report per family."""
    # the comultiplication and the trace of 1, x and x^2
    structure = (
        ({(0, 2): -1, (1, 1): -1, (2, 0): -1}, 0),
        ({(1, 2): -1, (2, 1): -1}, 0),
        ({(2, 2): -1}, -1),
    )
    structure_failures = [
        str(a)
        for a, (comul, trace) in zip(_FROB_BASIS, structure)
        if frob_comul(a) != comul or frob_trace(a) != trace
    ]

    theta_failures = []
    for d1, d2, d3 in permutations((0, 1, 2)):
        expected = -1 if _inversion_count((d1, d2, d3)) % 2 else 1
        if theta_eval(d1, d2, d3) != expected:
            theta_failures.append(f"({d1},{d2},{d3}) != {expected}")
    for d1, d2, d3 in product(range(4), repeat=3):
        if len({d1, d2, d3}) < 3 and theta_eval(d1, d2, d3) != 0:
            theta_failures.append(f"({d1},{d2},{d3}) != 0")

    mutations_fail = all(
        any(_surgery_sum(_neck, a, keep) != -a for a in _FROB_BASIS)
        for keep in ((0, 1), (0, 2), (1, 2))
    ) and any(_surgery_sum(_neck, a) != a for a in _FROB_BASIS)
    accepted = surgery_search()

    degree_failures = []
    for name in BASIC_FOAM_NAMES:
        for dots in range(3):
            mapped = basic_map(name, dots)
            if not mapped.is_zero() and mapped.degree() != foam_degree(name, dots):
                degree_failures.append(
                    f"{name} with {dots} dots: map degree "
                    f"{mapped.degree()} != {foam_degree(name, dots)}"
                )

    return [
        Report.of_failures(
            "foam-frobenius",
            "C[x]/(x^3) with the signed comultiplication and the "
            "trace -1 on x^2 is a commutative Frobenius algebra",
            _frobenius_failures(),
            "unit, associativity, counit, coassociativity and the "
            "compatibility square hold on the full basis",
        ),
        Report.of_failures(
            "foam-structure-constants",
            "the comultiplication sends 1 to -(1@x^2 + x@x + x^2@1), "
            "x to -(x@x^2 + x^2@x), x^2 to -x^2@x^2, and the trace "
            "kills 1 and x and sends x^2 to -1",
            structure_failures,
            "all structure constants match",
        ),
        Report.of_failures(
            "foam-theta",
            "theta surfaces evaluate to the sign of the dot "
            "arrangement: +1 on even arrangements of 0,1,2 dots, "
            "-1 on odd ones, 0 whenever two disks carry equal dots",
            theta_failures,
            "all dot triples up to 3 dots per disk",
        ),
        Report(
            "foam-surgery",
            "cutting a tube decomposes minus the identity into the "
            "three two-dot terms through the trace-then-unit "
            "composite, and fails under sign flips or dropped terms",
            surgery_check() and mutations_fail and accepted == ["trace-then-unit"],
            f"accepted realizations: {', '.join(accepted)}",
        ),
        Report.of_failures(
            "foam-degrees",
            "the degree of every basic foam piece equals the degree "
            "of its linear map, shifts included, and each dot adds 2",
            degree_failures,
            "all catalogue entries with up to two dots",
        ),
    ]
