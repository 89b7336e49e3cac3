"""Noncommutative polynomials over a Z2-graded generator alphabet.

Generators are integers 0..n+m-1: the first n are even, the remaining m odd.
A word is a tuple of generators; an NCPoly is a canonical map word -> Scalar
with no zero entries.  Multiplication is word concatenation, extended
bilinearly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .scalars import Scalar, srat

Word = Tuple[int, ...]

EVEN = 0
ODD = 1


class AlphabetMismatch(ValueError):
    pass


class Alphabet:
    """Declares the graded generator set: n even then m odd generators."""

    __slots__ = ("n_even", "m_odd", "names", "indeterminates")

    def __init__(
        self,
        n_even: int,
        m_odd: int,
        names: Optional[Sequence[str]] = None,
        indeterminates: Iterable[str] = (),
    ):
        if n_even < 0 or m_odd < 0:
            raise ValueError("dimensions must be nonnegative")
        self.n_even = n_even
        self.m_odd = m_odd
        if names is None:
            names = [f"x{i + 1}" for i in range(n_even)] + [
                f"y{p + 1}" for p in range(m_odd)
            ]
        if len(names) != n_even + m_odd:
            raise ValueError("wrong number of generator names")
        self.names = tuple(names)
        self.indeterminates = frozenset(indeterminates)

    @property
    def size(self) -> int:
        return self.n_even + self.m_odd

    def parity(self, g: int) -> int:
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

    def word_parity(self, word: Word) -> int:
        return sum(1 for g in word if g >= self.n_even) % 2

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
        return f"Alphabet(n_even={self.n_even}, m_odd={self.m_odd})"


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
        return NCPoly(alphabet, {(): srat(1)})

    @staticmethod
    def monomial(alphabet: Alphabet, word: Iterable[int], coeff=1) -> "NCPoly":
        w = tuple(word)
        for g in w:
            alphabet.parity(g)  # bounds check
        return NCPoly(alphabet, {w: Scalar.coerce(coeff)})

    @staticmethod
    def generator(alphabet: Alphabet, g: int) -> "NCPoly":
        return NCPoly.monomial(alphabet, (g,))

    def _check(self, other: "NCPoly") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"{self.alphabet!r} vs {other.alphabet!r}"
            )

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, Scalar]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, word: Iterable[int]) -> Scalar:
        return self._terms.get(tuple(word), Scalar())

    def degree(self) -> int:
        """Maximal word length; -1 for the zero element."""
        return max((len(w) for w in self._terms), default=-1)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            prev = acc.get(w)
            acc[w] = c if prev is None else prev + c
        return NCPoly(self.alphabet, acc)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scale(self, coeff) -> "NCPoly":
        c0 = Scalar.coerce(coeff)
        if c0.is_zero():
            return NCPoly.zero(self.alphabet)
        return NCPoly(self.alphabet, {w: c * c0 for w, c in self._terms.items()})

    def __mul__(self, other: Union["NCPoly", int, Scalar]) -> "NCPoly":
        if not isinstance(other, NCPoly):
            return self.scale(other)
        self._check(other)
        acc: Dict[Word, Scalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                prev = acc.get(w)
                acc[w] = c if prev is None else prev + c
        return NCPoly(self.alphabet, acc)

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, NCPoly):
            return NotImplemented
        return self.scale(other)

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
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = render

    def __repr__(self):
        return f"NCPoly({self.render()})"


def super_commutator(a: Word, b: Word, alphabet: Alphabet) -> NCPoly:
    """Graded bracket a.b - (-1)^{|a||b|} b.a of two homogeneous words."""
    sign = (-1) ** (alphabet.word_parity(a) * alphabet.word_parity(b))
    acc: Dict[Word, Scalar] = {tuple(a) + tuple(b): srat(1)}
    w2 = tuple(b) + tuple(a)
    acc[w2] = acc.get(w2, Scalar()) - srat(sign)
    return NCPoly(alphabet, acc)
