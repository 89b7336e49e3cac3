"""Exact scalar ring: multivariate polynomials over arbitrary-precision rationals.

A Scalar is a canonical finite map from monomials to nonzero coefficients:
each is an int when integral, else a Fraction in lowest terms with
denominator > 1 (DECISIONS.md "Integral data stays in ints").  A monomial is
a sorted tuple of (name, exponent) pairs; the empty tuple is the constant
monomial, so a Scalar with support {()} is a plain rational.  All operations
return new objects; Scalars are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Mapping, Sequence, Tuple, Union

Monomial = Tuple[Tuple[str, int], ...]
Rational = Union[int, Fraction]  # a stored coefficient: an int where integral
RationalLike = Union[Rational, "Scalar"]

_ONE_MONO: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc: Dict[str, int] = dict(a)
    for name, exp in b:
        if exp := acc.get(name, 0) + exp:
            acc[name] = exp
        else:
            del acc[name]
    return tuple(sorted(acc.items()))


def _canon(v: Rational) -> Rational:
    """v as an int when integral, else the Fraction v."""
    return v.numerator if v.denominator == 1 else v


def _mono_key(m: Monomial):
    # total degree, then lexicographic: stable canonical printing order
    return (sum(e for _, e in m), m)


class Scalar:
    """Element of Q[indeterminates], stored in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] = ()):  # type: ignore[assignment]
        self._terms: Dict[Monomial, Rational] = {m: _canon(c) for m, c in dict(terms).items() if c}

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(value: Rational) -> "Scalar":
        if type(value) is not int:
            value = _canon(value if isinstance(value, Fraction) else Fraction(value))
        return _wrap({_ONE_MONO: value}) if value else ZERO

    @staticmethod
    def var(name: str, exp: int = 1) -> "Scalar":
        if exp == 0:
            return ONE
        return _wrap({((name, exp),): 1})

    @staticmethod
    def coerce(value: RationalLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.from_rational(value)

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Rational]:
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
        return Fraction(self._terms[_ONE_MONO])

    def variables(self) -> set:
        out = set()
        for m in self._terms:
            for name, _ in m:
                out.add(name)
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: RationalLike) -> "Scalar":
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: RationalLike) -> "Scalar":
        return self._merge(other, -1)

    def _merge(self, other: RationalLike, sign: int) -> "Scalar":
        """self + sign * other in one pass, dropping a monomial that
        cancels; a constant, read through `lower`, goes to the constant term.
        NotImplemented for an operand `lower` refuses, as in `__mul__`."""
        if not isinstance(other, Scalar):
            try:
                f = lower(other)
            except TypeError:
                return NotImplemented
            items = ((_ONE_MONO, f),) if f else ()
        elif not self._terms and sign > 0:
            return other
        else:
            items = other._terms.items()
        acc = dict(self._terms)
        for m, c in items:
            prev = acc.pop(m, None)
            if prev is None:
                acc[m] = c if sign > 0 else -c
            elif new := (prev + c if sign > 0 else prev - c):
                acc[m] = _canon(new)
        return _wrap(acc)

    def __rsub__(self, other: RationalLike) -> "Scalar":
        return (-self)._merge(other, 1)

    def __mul__(self, other: RationalLike) -> "Scalar":
        """The product; a constant factor, read through `lower`, takes the one
        constant-factor path, and a plain-rational left operand moves right.
        NotImplemented for an operand `lower` refuses, so `srat(2) * poly`
        reaches the other operand's `__rmul__`."""
        try:
            f = lower(other)
        except TypeError:
            return NotImplemented
        if isinstance(f, Scalar) and self.is_rational():  # the product commutes
            self, f = f, lower(self)
        if not isinstance(f, Scalar):
            return _wrap({m: _canon(c * f) for m, c in self._terms.items()}) if f else ZERO
        # over one denominator: c1 = n1/d1 and c2 = n2/d2 with d1, d2 the
        # lcm of each side's denominators, so sums run in ints and each
        # monomial takes one Fraction(sum, d1*d2), which reduces it; with
        # only ints on both sides there is nothing to scale or reduce
        d1 = lcm(*(c.denominator for c in self._terms.values()))
        d2 = lcm(*(c.denominator for c in f._terms.values()))
        den = d1 * d2
        left, right = self._terms.items(), f._terms.items()
        if den != 1:
            left = [(m, c.numerator * (d1 // c.denominator)) for m, c in left]
            right = [(m, c.numerator * (d2 // c.denominator)) for m, c in right]
        acc: Dict[Monomial, int] = {}
        for m1, n1 in left:
            for m2, n2 in right:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + n1 * n2
        return _wrap({m: v if den == 1 else _canon(Fraction(v, den))
                      for m, v in acc.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "Scalar":
        return self * (1 / Fraction(other))

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
        elif not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # a plain rational hashes as the int or Fraction it equals
        if self.is_rational():
            return hash(self._terms.get(_ONE_MONO, 0))
        return hash(frozenset(self._terms.items()))

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
        return join_terms(parts)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _wrap(terms: Dict[Monomial, Rational]) -> Scalar:
    """A Scalar around `terms` as given, without `__init__`'s copy, zero
    filter and coercion: for a fresh dict of canonical nonzero coefficients."""
    out = object.__new__(Scalar)
    out._terms = terms
    return out


ZERO = Scalar()
ONE = Scalar.from_rational(1)


def join_terms(parts: Sequence[str]) -> str:
    """Rendered terms as one sum, a term that starts with "-" joined by " - "."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def lower(value):
    """value as an int when integral, else as a Fraction, and as a Scalar only
    when it holds an indeterminate: for inputs, never intermediate values
    (DECISIONS.md "Integral data stays in ints")."""
    if type(value) is not Fraction:  # the common case goes straight through
        if type(value) is int:
            return value
        if isinstance(value, Scalar):  # its stored coefficient is canonical
            return value._terms.get(_ONE_MONO, 0) if value.is_rational() else value
        value = Fraction(value)
    return _canon(value)


def srat(num: Rational, den: int = 1) -> Scalar:
    """Shorthand for a rational scalar num/den."""
    return Scalar.from_rational(num if den == 1 else Fraction(num, den))


def accumulate(store: dict, key, value) -> None:
    """Add value to store[key] in a sparse map, dropping the entry when the
    sum cancels; values may be Scalars, Fractions or ints."""
    prev = store.get(key)
    new = value if prev is None else prev + value
    if new:
        store[key] = new
    else:
        store.pop(key, None)


def axpy(out: dict, coeff, data: Mapping) -> dict:
    """out += coeff * data entry by entry, dropping an entry that cancels;
    coeff and data's values are nonzero, so only a sum is tested; returns out."""
    for key, val in data.items():
        old = out.get(key)
        if old is None:
            out[key] = coeff * val
        elif new := old + coeff * val:
            out[key] = new
        else:
            del out[key]
    return out
