"""Exact Laurent polynomials in one variable q with integer coefficients.

Every quantity in this package (web evaluations, Hecke structure
constants, link polynomials) lives in the ring Z[q, q^-1].  This module
keeps that arithmetic exact: coefficients are Python ints, exponents may
be negative, and nothing is ever floated.

Each kind of sum has one loop: Laurent sums are ``_summed`` (the
``LaurentPoly`` constructor checks its pairs first; ``+`` and ``*`` do
not), product sums ``LinComb.of_products`` and plain-number sums
``_tally``.  The packed Hecke loops and the translation route's count
stay inline, as measured faster.

>>> str(quantum_int(3))
'q^2 + 1 + q^-2'
>>> quantum_int(2) * quantum_int(2) == quantum_int(3) + quantum_int(1)
True
>>> parse_laurent("2q + 2q^-1") == 2 * quantum_int(2)
True
"""

from __future__ import annotations

import re
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "LaurentPoly",
    "LinComb",
    "quantum_int",
    "parse_laurent",
    "ZERO",
    "ONE",
    "Q",
]


@dataclass(frozen=True, slots=True)
class LaurentPoly:
    """An element of Z[q, q^-1], stored as (exponent, coefficient) pairs.

    The ``terms`` tuple is normalized on construction: duplicate
    exponents are merged, zero coefficients dropped, and the pairs
    sorted by descending exponent, so equality and hashing are
    structural.  Every exponent and coefficient must be exactly an
    ``int``; anything else raises ``ValueError``.  ``parse_laurent``
    sums through this constructor, ``+`` and ``*`` through its unchecked
    sum ``_summed``; the maps that keep the form use ``_trusted``.
    """

    # normalized (exponent, coefficient) pairs, descending exponent
    terms: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        raw = self.terms
        pairs = tuple(raw.items() if isinstance(raw, (dict, Mapping)) else raw)
        for exp, coeff in pairs:
            # exactly int: a bool, float or Fraction is not a term of Z[q, q^-1]
            if type(exp) is not int or type(coeff) is not int:
                raise ValueError(f"term {exp!r}: {coeff!r} needs an int exponent and coefficient")
        _set_terms(self, _summed(pairs))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentPoly":
        """The monomial q^exponent (exponent may be negative, but must be
        exactly an ``int``)."""
        if type(exponent) is not int:
            raise ValueError(f"q_power needs an int exponent, got {exponent!r}")
        return _trusted(((exponent, 1),))

    @classmethod
    def from_int(cls, value: int) -> "LaurentPoly":
        return cls({0: value})

    # ------------------------------------------------------------------
    # ring structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: int) -> int:
        """Coefficient of q^exponent (0 if absent)."""
        for exp, c in self.terms:
            if exp == exponent:
                return c
        return 0

    def __add__(self, other: object) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _trusted(_summed(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _trusted(tuple((e, -c) for e, c in self.terms))

    def __rsub__(self, other: object) -> "LaurentPoly":
        return (-self).__add__(other)

    def __sub__(self, other: object) -> "LaurentPoly":
        difference = self.__rsub__(other)
        return difference if difference is NotImplemented else -difference

    def __mul__(self, other: object) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return ZERO
            return _trusted(tuple((e, c * other) for e, c in self.terms))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _trusted(
            _summed((e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms)
        )

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if type(power) is not int or power < 0:
            raise ValueError(f"power must be a nonnegative int, got {power!r}")
        result = LaurentPoly.one()
        for _ in range(power):
            result = result * self
        return result

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> q^-1."""
        return _trusted(tuple((-e, c) for e, c in reversed(self.terms)))

    # ------------------------------------------------------------------
    # canonical text form

    def __str__(self) -> str:
        """Canonical text: descending exponents, q^1 -> "q", q^0 elided.

        >>> str(LaurentPoly({2: 1, 0: 2, -2: -1}))
        'q^2 + 2 - q^-2'
        >>> str(LaurentPoly({1: 2, -1: 2}))
        '2q + 2q^-1'
        >>> str(LaurentPoly({2: -1, 0: 1}))
        '-q^2 + 1'
        >>> str(LaurentPoly.zero())
        '0'
        """
        return _signed_sum((coeff, _q_name(exp)) for exp, coeff in self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_set_terms = LaurentPoly.terms.__set__


def _normal(acc: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The normal form of exponent -> coefficient sums: zeros dropped,
    exponents descending.  A one-term sum, the common case in matrix
    products, skips the list and the sort."""
    if len(acc) == 1:
        (term,) = acc.items()
        return (term,) if term[1] else ()
    return tuple(sorted([term for term in acc.items() if term[1]], reverse=True))


def _summed(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The one Laurent sum: (exponent, coefficient) pairs, already exact
    ints, summed into normal form, unchecked."""
    acc: dict[int, int] = {}
    for exp, coeff in pairs:
        acc[exp] = acc.get(exp, 0) + coeff
    return _normal(acc)


def _check_int(value: object, what: str, least: int | None = None) -> None:
    """The one exact-int check of ranks, counts and indices: ``value`` must
    be exactly an ``int`` (not a bool or float), and at least ``least`` if
    given.  ``what`` names the whole quantity, for example ``"web rank k"``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


def _q_name(exponent: int) -> str:
    """The one name of the monomial q^exponent: "1", "q" or "q^e"."""
    return "1" if exponent == 0 else "q" if exponent == 1 else f"q^{exponent}"


def _signed_sum(terms: Iterable[tuple[object, str]]) -> str:
    """The one text of a sum of (coefficient, monomial name) pairs: zero
    terms skipped, the name "1" written as its magnitude alone, a
    magnitude of 1 left off any other name, signs written as " + ",
    " - " and a leading "-"; "0" for the empty sum."""
    pieces: list[str] = []
    for coeff, name in terms:
        if not coeff:
            continue
        mag = abs(coeff)
        if pieces:
            pieces.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            pieces.append("-")
        pieces.append(str(mag) if name == "1" else name if mag == 1 else f"{mag}{name}")
    return "".join(pieces) or "0"


def _tally(pairs: Iterable[tuple[Hashable, object]]) -> dict:
    """Sum (key, number) pairs into a plain dict: the one sum of plain
    numbers (counts, fractions).  A zero sum is kept; a caller whose
    numbers can cancel filters its result (``foamalg._sparse``)."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return out


def _trusted(terms: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """A polynomial from terms already in normal form, unchecked."""
    poly = object.__new__(LaurentPoly)
    _set_terms(poly, terms)
    return poly


def _pack(poly: LaurentPoly, width: int, offset: int) -> int:
    """Kronecker substitution: Σ c_e·q^e as Σ c_e·2^(width·(e + offset)).
    ValueError when ``_unpack`` could not read it back: some e + offset
    is negative or some |c_e| is not below 2^(width-1)."""
    half = 1 << (width - 1)
    packed = 0
    for e, c in poly.terms:
        if e + offset < 0 or not -half < c < half:
            raise ValueError(f"{poly} does not fit {width}-bit digits at offset {offset}")
        packed += c << width * (e + offset)
    return packed


def _unpack(packed: int, width: int, offset: int) -> LaurentPoly:
    """Σ c_e·q^e from Σ c_e·2^(width·(e + offset)), read as balanced
    base-2^width digits: exact while every |c_e| is below 2^(width-1)
    and every e + offset is >= 0.  Each run of zero digits is skipped in
    one shift, found from the lowest set bit."""
    full = 1 << width
    half, mask = full >> 1, full - 1
    terms = []
    e = -offset
    while packed:
        zeros = ((packed & -packed).bit_length() - 1) // width
        packed >>= width * zeros
        digit = packed & mask
        packed >>= width
        if digit >= half:
            digit -= full
            packed += 1
        terms.append((e + zeros, digit))
        e += zeros + 1
    return _trusted(tuple(reversed(terms)))


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)


def quantum_int(m: int) -> LaurentPoly:
    """The quantum integer [m] = q^(m-1) + q^(m-3) + ... + q^(1-m).

    Defined for m >= 0; [0] is the zero polynomial and [1] = 1.

    >>> str(quantum_int(4))
    'q^3 + q + q^-1 + q^-3'
    """
    if type(m) is not int or m < 0:
        raise ValueError(f"quantum_int expects an int m >= 0, got {m!r}")
    return LaurentPoly({m - 1 - 2 * j: 1 for j in range(m)})


class LinComb(dict):
    """A finite Z[q, q^-1]-linear combination: basis key -> nonzero poly.

    Zero coefficients are dropped on construction and by ``add_term``, so
    equality is dict equality and an empty combination is zero.  Sums,
    negation, scalar multiples and ``bar`` return the caller's type.
    Every sparse linear map that sums products (window maps past a
    web's first layer, matrix products, ``grothendieck_map``) builds its
    images with ``of_products``; plain-number sums use ``_tally``.

    >>> v = LinComb({"a": Q, "b": ONE})
    >>> v - LinComb({"b": ONE}) == LinComb({"a": Q})
    True
    >>> (v * 0).is_zero(), str(v.bar().coeff("a")), str(v.coeff("c"))
    (True, 'q^-1', '0')
    """

    __slots__ = ()

    def __init__(self, terms: Union[Mapping, Iterable[tuple]] = ()) -> None:
        super().__init__()
        pairs = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        for key, coeff in pairs:
            self.add_term(key, coeff)

    @classmethod
    def adopt(cls, terms) -> "LinComb":
        """``terms`` itself if it is already of this type, else a copy."""
        return terms if isinstance(terms, cls) else cls(terms)

    @classmethod
    def of_products(
        cls, products: Iterable[tuple[Hashable, LaurentPoly, LaurentPoly]]
    ) -> "LinComb":
        """Σ a·b·key over (key, a, b) triples: the one accumulator of
        sparse linear maps.  Each key's products are summed as raw
        exponent sums and made a polynomial once, in the order of the
        key's first product; keys whose sum cancels are dropped.

        >>> v = LinComb.of_products([("a", Q, 2 * ONE), ("b", Q, ONE), ("b", -Q, ONE)])
        >>> v == LinComb({"a": 2 * Q})
        True
        """
        sums: dict[Hashable, dict[int, int]] = {}
        for key, a, b in products:
            acc = sums.get(key)
            if acc is None:
                acc = sums[key] = {}
            for e1, c1 in a.terms:
                for e2, c2 in b.terms:
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        out = cls.__new__(cls)
        for key, acc in sums.items():
            terms = _normal(acc)
            if terms:
                out[key] = _trusted(terms)
        return out

    @classmethod
    def _new(cls, pairs: Iterable[tuple[Hashable, LaurentPoly]]) -> "LinComb":
        # trusted: the pairs have distinct keys and nonzero coefficients
        out = cls.__new__(cls)
        dict.update(out, pairs)
        return out

    def add_term(self, key: Hashable, coeff: LaurentPoly) -> None:
        """Add ``coeff`` to the coefficient of ``key``, dropping a zero."""
        if not coeff:
            return
        old = self.get(key)
        if old is None:
            self[key] = coeff
            return
        total = old + coeff
        if total:
            self[key] = total
        else:
            del self[key]

    def coeff(self, key: Hashable) -> LaurentPoly:
        return self.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self

    def copy(self) -> "LinComb":
        return self._new(self.items())

    def __add__(self, other: object) -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        out = self.copy()
        for key, coeff in other.items():
            out.add_term(key, coeff)
        return out

    def __neg__(self) -> "LinComb":
        return self._new((key, -coeff) for key, coeff in self.items())

    def __sub__(self, other: object) -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: object) -> "LinComb":
        if not isinstance(scalar, (int, LaurentPoly)):
            return NotImplemented
        if not scalar:
            return self._new(())
        # Z[q, q^-1] has no zero divisors, so no product vanishes
        return self._new((key, coeff * scalar) for key, coeff in self.items())

    __rmul__ = __mul__

    def bar(self) -> "LinComb":
        """The bar involution q -> q^-1 on every coefficient."""
        return self._new((key, coeff.bar()) for key, coeff in self.items())


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+)?(?P<q>q(\^(?P<exp>-?\d+))?)?$"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial.

    Accepts exactly the shapes ``__str__`` emits (plus harmless
    variants like an explicit ``q^1`` or ``q^0``); raises ValueError
    on anything else.

    >>> parse_laurent("q^2 + 2 - q^-2") == LaurentPoly({2: 1, 0: 2, -2: -1})
    True
    >>> parse_laurent("0").is_zero()
    True
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent polynomial text")
    if s == "0":
        return LaurentPoly.zero()
    # Normalize to a list of sign-prefixed term bodies.
    s = s.replace(" - ", " + -")
    if s.startswith("- "):
        raise ValueError(f"malformed leading sign in {text!r}")
    terms = []
    for chunk in s.split(" + "):
        body = chunk.strip()
        sign = 1
        if body.startswith("-"):
            sign = -1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or not body or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"malformed term {chunk!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("q") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        terms.append((exp, sign * coeff))
    return LaurentPoly(terms)
