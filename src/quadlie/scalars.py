"""Exact scalar ring: multivariate polynomials over arbitrary-precision rationals.

A Scalar is a canonical finite map from monomials to nonzero Fractions.  A
monomial is a sorted tuple of (name, exponent) pairs; the empty tuple is the
constant monomial, so a Scalar with support {()} is a plain rational.  All
operations return new objects; Scalars are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
RationalLike = Union[int, Fraction, "Scalar"]

_ONE_MONO: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc: Dict[str, int] = dict(a)
    for name, exp in b:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in acc.items() if e != 0))


def _mono_key(m: Monomial):
    # total degree, then lexicographic: stable canonical printing order
    return (sum(e for _, e in m), m)


class Scalar:
    """Element of Q[indeterminates], stored in canonical sparse form."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Fraction] = ()):  # type: ignore[assignment]
        clean = {m: c for m, c in dict(terms).items() if c != 0}
        self._terms: Dict[Monomial, Fraction] = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value: Union[int, Fraction]) -> "Scalar":
        f = Fraction(value)
        return Scalar({_ONE_MONO: f}) if f != 0 else Scalar()

    @staticmethod
    def var(name: str, exp: int = 1) -> "Scalar":
        if exp == 0:
            return ONE
        return Scalar({((name, exp),): Fraction(1)})

    @staticmethod
    def coerce(value: RationalLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.from_rational(value)

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _ONE_MONO in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a plain rational: {self}")
        return self._terms[_ONE_MONO]

    def variables(self) -> set:
        out = set()
        for m in self._terms:
            for name, _ in m:
                out.add(name)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: RationalLike) -> "Scalar":
        other = Scalar.coerce(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Scalar(acc)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: RationalLike) -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: RationalLike) -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: RationalLike) -> "Scalar":
        other = Scalar.coerce(other)
        if not self._terms or not other._terms:
            return ZERO
        # fast path: multiplication by a plain rational
        if other.is_rational():
            c0 = other._terms[_ONE_MONO]
            return Scalar({m: c * c0 for m, c in self._terms.items()})
        if self.is_rational():
            c0 = self._terms[_ONE_MONO]
            return Scalar({m: c * c0 for m, c in other._terms.items()})
        acc: Dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Scalar(acc)

    __rmul__ = __mul__

    def __truediv__(self, other: Union[int, Fraction]) -> "Scalar":
        f = Fraction(other)
        return Scalar({m: c / f for m, c in self._terms.items()})

    def __pow__(self, exp: int) -> "Scalar":
        if exp < 0:
            raise ValueError("negative powers not supported")
        out = ONE
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    # -- substitution -------------------------------------------------

    def substitute(self, assignment: Mapping[str, RationalLike]) -> "Scalar":
        """Replace named indeterminates by scalars; unmentioned names stay."""
        out = ZERO
        for m, c in self._terms.items():
            term = Scalar({_ONE_MONO: c})
            for name, exp in m:
                if name in assignment:
                    term = term * Scalar.coerce(assignment[name]) ** exp
                else:
                    term = term * Scalar.var(name, exp)
            out = out + term
        return out

    # -- comparisons / rendering --------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, key=_mono_key):
            c = self._terms[m]
            mono = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in m
            )
            if not mono:
                text = str(c)
            elif c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}*{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar.from_rational(1)


def srat(num: Union[int, Fraction], den: int = 1) -> Scalar:
    """Shorthand for a rational scalar num/den."""
    return Scalar.from_rational(Fraction(num, den))


def accumulate(store: dict, key, value) -> None:
    """Add value to store[key] in a sparse map, dropping the entry when the
    sum cancels; values may be Scalars, Fractions or ints."""
    prev = store.get(key)
    new = value if prev is None else prev + value
    if new:
        store[key] = new
    else:
        store.pop(key, None)
