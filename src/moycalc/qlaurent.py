"""Exact Laurent polynomials in one variable q with integer coefficients.

Every quantity in this package (web evaluations, Hecke structure
constants, link polynomials) lives in the ring Z[q, q^-1].  This module
keeps that arithmetic exact: coefficients are Python ints, exponents may
be negative, and nothing is ever floated.

>>> str(quantum_int(3))
'q^2 + 1 + q^-2'
>>> quantum_int(2) * quantum_int(2) == quantum_int(3) + quantum_int(1)
True
>>> parse_laurent("2q + 2q^-1") == 2 * quantum_int(2)
True
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Union

__all__ = [
    "LaurentPoly",
    "LinComb",
    "quantum_int",
    "parse_laurent",
    "ZERO",
    "ONE",
    "Q",
]

TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]]]


@dataclass(frozen=True)
class LaurentPoly:
    """An element of Z[q, q^-1], stored as (exponent, coefficient) pairs.

    The ``terms`` tuple is normalized on construction: duplicate
    exponents are merged, zero coefficients dropped, and the pairs
    sorted by descending exponent, so equality and hashing are
    structural.
    """

    # normalized (exponent, coefficient) pairs, descending exponent
    terms: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        raw = self.terms
        pairs = raw.items() if isinstance(raw, Mapping) else raw
        acc: dict[int, int] = {}
        for exp, coeff in pairs:
            acc[exp] = acc.get(exp, 0) + coeff
        normal = tuple(
            (exp, acc[exp]) for exp in sorted(acc, reverse=True) if acc[exp] != 0
        )
        object.__setattr__(self, "terms", normal)

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
        """The monomial q^exponent (exponent may be negative)."""
        return cls({exponent: 1})

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
        return LaurentPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: object) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly.from_int(other) - self
        return NotImplemented

    def __mul__(self, other: object) -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(tuple((e, c * other) for e, c in self.terms))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError(f"power must be a nonnegative int, got {power!r}")
        result = LaurentPoly.one()
        for _ in range(power):
            result = result * self
        return result

    def bar(self) -> "LaurentPoly":
        """The bar involution q -> q^-1."""
        return LaurentPoly(tuple((-e, c) for e, c in self.terms))

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
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for i, (exp, coeff) in enumerate(self.terms):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                qpart = "q" if exp == 1 else f"q^{exp}"
                body = qpart if mag == 1 else f"{mag}{qpart}"
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)


def quantum_int(m: int) -> LaurentPoly:
    """The quantum integer [m] = q^(m-1) + q^(m-3) + ... + q^(1-m).

    Defined for m >= 0; [0] is the zero polynomial and [1] = 1.

    >>> str(quantum_int(4))
    'q^3 + q + q^-1 + q^-3'
    """
    if m < 0:
        raise ValueError(f"quantum_int expects m >= 0, got {m}")
    return LaurentPoly({m - 1 - 2 * j: 1 for j in range(m)})


class LinComb(dict):
    """A finite Z[q, q^-1]-linear combination: basis key -> nonzero poly.

    Zero coefficients are dropped on construction and by ``add_term``, so
    equality is dict equality and an empty combination is zero.  Sums,
    negation, scalar multiples and ``bar`` return the caller's type.

    >>> v = LinComb({"a": Q, "b": ONE})
    >>> v - LinComb({"b": ONE}) == LinComb({"a": Q})
    True
    >>> (v * 0).is_zero(), str(v.bar().coeff("a")), str(v.coeff("c"))
    (True, 'q^-1', '0')
    """

    __slots__ = ()

    def __init__(self, terms: Union[Mapping, Iterable[tuple]] = ()) -> None:
        super().__init__()
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in pairs:
            self.add_term(key, coeff)

    @classmethod
    def adopt(cls, terms) -> "LinComb":
        """``terms`` itself if it is already of this type, else a copy."""
        return terms if isinstance(terms, cls) else cls(terms)

    def _new(self, pairs: Iterable[tuple[Hashable, LaurentPoly]]) -> "LinComb":
        # trusted: the pairs have distinct keys and nonzero coefficients
        out = self.__class__.__new__(self.__class__)
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
    chunks = s.split(" + ")
    acc: dict[int, int] = {}
    for chunk in chunks:
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
        acc[exp] = acc.get(exp, 0) + sign * coeff
    return LaurentPoly(acc)
