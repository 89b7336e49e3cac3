"""Noncommutative polynomials over a Z2-graded generator alphabet.

Generators are integers 0..n+m-1: the first n are even, the remaining m odd.
A word is a tuple of generators; an NCPoly is a canonical map word -> Scalar
with no zero entries.  Multiplication is word concatenation, extended
bilinearly.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .scalars import ONE, Scalar, accumulate, join_terms

Word = Tuple[int, ...]

EVEN = 0
ODD = 1


class AlphabetMismatch(ValueError):
    pass


class Alphabet:
    """Declares the graded generator set: n even then m odd generators."""

    __slots__ = ("n_even", "m_odd", "names")

    def __init__(
        self,
        n_even: int,
        m_odd: int,
        names: Optional[Sequence[str]] = None,
    ):
        if n_even < 0 or m_odd < 0:
            raise ValueError("dimensions must be nonnegative")
        self.n_even = n_even
        self.m_odd = m_odd
        if names is None:
            names = _default_names(n_even, m_odd)
        if len(names) != n_even + m_odd:
            raise ValueError("wrong number of generator names")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = tuple(names)

    @property
    def size(self) -> int:
        return self.n_even + self.m_odd

    def parity(self, g: int) -> int:
        if type(g) is not int:
            raise TypeError(f"generator id {g!r} is not an int")
        if not 0 <= g < self.size:
            raise IndexError(f"generator {g} out of range")
        return EVEN if g < self.n_even else ODD

    def even(self, i: int) -> int:
        if not 0 <= i < self.n_even:
            raise IndexError(f"even index {i} out of range")
        return i

    def odd(self, p: int) -> int:
        if not 0 <= p < self.m_odd:
            raise IndexError(f"odd index {p} out of range")
        return self.n_even + p

    def __eq__(self, other) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return (self.n_even, self.m_odd, self.names) == (
            other.n_even,
            other.m_odd,
            other.names,
        )

    def __hash__(self):
        return hash((self.n_even, self.m_odd, self.names))

    def __repr__(self):
        default = self.names == _default_names(self.n_even, self.m_odd)
        names = "" if default else f", names={list(self.names)}"
        if len(names) > 100:  # a digest still tells two long name lists apart
            names = f", names_sha256={sha256(repr(self.names).encode()).hexdigest()[:16]}"
        return f"Alphabet(n_even={self.n_even}, m_odd={self.m_odd}{names})"


def _default_names(n_even: int, m_odd: int) -> Tuple[str, ...]:
    return (*(f"x{i + 1}" for i in range(n_even)), *(f"y{p + 1}" for p in range(m_odd)))


def word_key(word: Word) -> tuple:
    # degree first, then lexicographic: deterministic canonical ordering
    return (len(word), word)


class NCPoly:
    """Finite Scalar-linear combination of words over a fixed alphabet."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalar] = ()):  # type: ignore[assignment]
        self.alphabet = alphabet
        self._terms: Dict[Word, Scalar] = {
            w: c for w, c in dict(terms).items() if not c.is_zero()
        }

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(alphabet: Alphabet) -> "NCPoly":
        return NCPoly(alphabet)

    @staticmethod
    def one(alphabet: Alphabet) -> "NCPoly":
        return _ncpoly(alphabet, {(): ONE})

    @staticmethod
    def monomial(alphabet: Alphabet, word: Iterable[int], coeff=1) -> "NCPoly":
        w = tuple(word)
        for g in w:
            alphabet.parity(g)  # bounds check
        c = ONE if type(coeff) is int and coeff == 1 else Scalar.coerce(coeff)
        return _ncpoly(alphabet, {w: c} if c else {})

    @staticmethod
    def generator(alphabet: Alphabet, g: int) -> "NCPoly":
        return NCPoly.monomial(alphabet, (g,))

    def _check(self, other: "NCPoly") -> None:
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"{self.alphabet!r} vs {other.alphabet!r}"
            )

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, Scalar]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        return self._merge(other, 1)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self._merge(other, -1)

    def _merge(self, other: "NCPoly", sign: int) -> "NCPoly":
        """self + sign * other; NotImplemented for an operand that is not an NCPoly."""
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            accumulate(acc, w, c if sign > 0 else -c)
        return _ncpoly(self.alphabet, acc)

    def __neg__(self) -> "NCPoly":
        return _ncpoly(self.alphabet, {w: -c for w, c in self._terms.items()})

    def scale(self, coeff) -> "NCPoly":
        c0 = Scalar.coerce(coeff)
        if c0.is_zero():
            return NCPoly.zero(self.alphabet)
        return _ncpoly(self.alphabet, {w: c * c0 for w, c in self._terms.items()})

    def __mul__(self, other: Union["NCPoly", int, Scalar]) -> "NCPoly":
        """Words concatenate and coefficients multiply, summed per word; one
        term times one term is one concatenation (Scalars have no zero divisors)."""
        if not isinstance(other, NCPoly):
            return self.scale(other)
        self._check(other)
        if len(self._terms) == 1 == len(other._terms):
            ((w1, c1),), ((w2, c2),) = self._terms.items(), other._terms.items()
            return _ncpoly(self.alphabet, {w1 + w2: c1 * c2})
        acc: Dict[Word, Scalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                accumulate(acc, w1 + w2, c1 * c2)
        return _ncpoly(self.alphabet, acc)

    __rmul__ = scale  # an NCPoly left operand is handled by its __mul__

    # -- comparisons / rendering --------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self):
        return hash((self.alphabet, frozenset(self._terms.items())))

    def render(self) -> str:
        """Canonical text form: terms sorted by degree then word."""
        if not self._terms:
            return "0"
        parts = []
        for w in sorted(self._terms, key=word_key):
            c = self._terms[w]
            word_text = "*".join(self.alphabet.names[g] for g in w) or "1"
            ctext = str(c)
            if ctext == "1" and w:
                parts.append(word_text)
            elif ctext == "-1" and w:
                parts.append(f"-{word_text}")
            elif c.is_rational() or not w:
                parts.append(f"{ctext}*{word_text}" if w else ctext)
            else:
                parts.append(f"({ctext})*{word_text}")
        return join_terms(parts)

    __str__ = render

    def __repr__(self):
        return f"NCPoly({self.render()})"


def _ncpoly(alphabet: Alphabet, terms: Dict[Word, Scalar]) -> NCPoly:
    """An NCPoly on a fresh dict of nonzero Scalars, not copied or filtered."""
    out = object.__new__(NCPoly)
    out.alphabet, out._terms = alphabet, terms
    return out

