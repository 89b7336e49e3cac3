"""One parser for scalar entries and generator expressions.

One grammar is always parsed to an NCPoly.  Loosest first: sums; products
by `*` or adjacency, and division by a rational constant; one `+` or `-`
sign; `^` with a number; parentheses.  So -c^2 is -(c^2) and 2*-c^2 is
-2c^2, as in Python.  `parse_ncpoly` parses "2 Q[1] Qbar[1] - E[1,2]" over
the algebra's alphabet; `parse_scalar` parses "3/4*c^2 - 1" over
Alphabet(0, 0) and returns the coefficient of the empty word.

One name rule: a name the resolver maps, with its index list (one token,
blanks in the brackets allowed), is a generator; else a bare name that the
admitted names include (None admits any) is an indeterminate; else "unknown name".

One work bound: before each product, size(a) * size(b) is added to a count
kept for the parse, a size being a number of (word, monomial) pairs; past
MAX_WORK pair products the input is refused, so (a+b+c+d)^1000 fails at once.
A power or product whose coefficients could pass MAX_BITS bits is refused
before it is formed, so ((10^1000)^1000)^10 and 10^1000 10^1000 10^1000
10^1000 10^1000 fail at once too.
An error message quotes at most MAX_QUOTE characters of the input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, log2
from typing import Callable, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, NCPoly, _ncpoly
from .scalars import Scalar


class ParseError(ValueError):
    pass


# deepest nesting of ( and signs the parser accepts; a level costs a few
# Python frames, so this keeps parsing well inside the recursion limit
MAX_NESTING = 100

# largest exponent after ^: a power is computed by repeated squaring, and
# this bounds its size (c^1000, or a word of 1000 letters) before any work
MAX_EXPONENT = 1000

# most (word, monomial) pair products one parse may form; (c + 1)^1000
# takes 415,666 and the squaring to (a+b+c+d)^32 would take 938,961
MAX_WORK = 500_000

# most bits in a numerator or denominator a power or product may make:
# str() stops at 4,300 digits by default (CPython 3.10.7 on), about 14,284
# bits, so a larger one could not be printed
MAX_BITS = int(4300 * log2(10))

# most characters of the input an error message quotes
MAX_QUOTE = 40

GeneratorResolver = Callable[[str, Optional[List[int]]], Optional[int]]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<gen>(?P<gname>[A-Za-z_][A-Za-z_0-9]*)\s*\[(?P<gidx>\s*\d+"
    r"(?:\s*,\s*\d+)*)\s*\])|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()\[\],])|(?P<bad>\S))"
)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise ParseError(f"number of {len(text)} digits is too long") from exc


def _quote(text: str, show=repr) -> str:
    """show(text) for an error message; past MAX_QUOTE characters, show of
    its first MAX_QUOTE and the length of the whole, so the message is short."""
    if len(text) <= MAX_QUOTE:
        return show(text)
    return f"{show(text[:MAX_QUOTE])}... ({len(text)} characters)"


def _tokenize(text: str) -> List[Tuple[Optional[str], object]]:
    """(kind, text) of each token in one pass, (name, index list) for a "gen",
    then the end token (None, None), which is never taken; the matches abut,
    as every non-blank character matches, and trailing whitespace is left."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if (kind := m.lastgroup) == "bad":
            raise ParseError(f"bad character at {_quote(text[m.start():])}")
        tokens.append((kind, m.group("gname", "gidx") if kind == "gen" else m.group(kind)))
    tokens.append((None, None))
    return tokens


class _Parser:
    """Recursive-descent parser of the grammar into NCPolys over alphabet;
    `resolver` and `names` apply the name rule."""

    def __init__(self, text: str, alphabet: Alphabet, resolver: GeneratorResolver,
                 names: Optional[Sequence[str]]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0  # pair products formed so far, against MAX_WORK
        self.alphabet = alphabet
        self.one = NCPoly.one(alphabet)
        self.resolver = resolver
        self.names = names

    def parse(self):
        """The whole input as one expression; trailing input is refused."""
        out = self.parse_expr()
        if self.tokens[self.pos][0] is not None:
            raise ParseError(f"trailing input near {_quote(self.tokens[self.pos][1])}")
        return out

    def take(self, expect: Optional[str] = None):
        kind, val = self.tokens[self.pos]
        if kind is None:
            raise ParseError("unexpected end of input")
        if expect is not None and val != expect:
            raise ParseError(f"expected {expect!r}, got {_quote(val)}")
        self.pos += 1
        return kind, val

    def _open(self):
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.pos += 1
        self.depth += 1

    def parse_expr(self):
        acc = self.parse_term()
        while True:
            val = self.tokens[self.pos][1]
            if val != "+" and val != "-":
                return acc
            self.pos += 1
            term = self.parse_term()
            acc = acc + term if val == "+" else acc - term

    def parse_term(self):
        acc, letters, tokens = self.parse_signed(), [], self.tokens
        while True:  # letters: a run of adjacent generators, for acc's one word
            kind, val = tokens[self.pos]
            if kind == "gen" and tokens[self.pos + 1][1] != "^" and len(acc._terms) == 1:
                letters.append(self._letter(*val))
                self._count(_size(acc))  # acc times one letter
                self.pos += 1
                continue
            if letters:
                [(word, coeff)] = acc._terms.items()
                acc, letters = _ncpoly(self.alphabet, {word + tuple(letters): coeff}), []
            if val == "/":
                self.pos += 1
                divisor = self.parse_signed()
                div = divisor.terms
                if div.keys() - {()} or type(div.get(())) is Scalar:
                    raise ParseError("division only by rational constants")
                if not div:
                    raise ParseError("division by zero")
                self._check_bits(acc, divisor)  # 1/r has the bits of r
                acc = acc * (1 / Fraction(div[()]))  # 1 / an int is a float
            elif val == "*" or kind in ("num", "name", "gen") or val == "(":
                if val == "*":  # else adjacency: implicit multiplication
                    self.pos += 1
                acc = self._mul(acc, self.parse_signed())
            else:
                return acc

    def parse_signed(self):
        val = self.tokens[self.pos][1]
        if val != "+" and val != "-":
            return self.parse_power(self.parse_atom())
        self._open()
        inner = self.parse_signed()
        self.depth -= 1
        return inner if val == "+" else -inner

    def parse_power(self, base):
        if self.tokens[self.pos][1] != "^":
            return base
        self.pos += 1
        kind, val = self.take()
        if kind != "num":
            raise ParseError("exponent must be a number")
        if len(val) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(f"exponent after ^ is larger than {MAX_EXPONENT}")
        if int(val) * _bits(base) > MAX_BITS:
            raise ParseError(f"power makes coefficients of more than {MAX_BITS} bits")
        return self._power(base, int(val))

    def _power(self, base, exp: int):
        """base^exp by repeated squaring."""
        result = self.one
        while exp:
            if exp & 1:
                result = self._mul(result, base)
            exp >>= 1
            if exp:
                base = self._mul(base, base)
        return result

    def _mul(self, a: NCPoly, b: NCPoly) -> NCPoly:
        """a * b, its size(a) * size(b) pair products counted and its
        coefficients' bits bounded before any is formed."""
        self._count(_size(a) * _size(b))
        self._check_bits(a, b)
        return a * b

    def _check_bits(self, a: NCPoly, b: NCPoly) -> None:
        if _bits(a) + _bits(b) > MAX_BITS:
            raise ParseError(f"product makes coefficients of more than {MAX_BITS} bits")

    def _count(self, products: int) -> None:
        self.work += products
        if self.work > MAX_WORK:
            raise ParseError(f"expression takes more than {MAX_WORK} term products")

    def _letter(self, name: str, index_list: str) -> int:
        indices = [_integer(text.strip()) for text in index_list.split(",")]
        g = self.resolver(name, indices)
        if g is None:
            shown = f"{name}[{','.join(map(str, indices))}]"
            raise ParseError(f"unknown name {_quote(shown, str)}")
        self.alphabet.parity(g)  # bounds check
        return g

    def parse_atom(self):
        kind, val = self.tokens[self.pos]
        if val == "(":
            self._open()
            inner = self.parse_expr()
            self.take(")")
            self.depth -= 1
            return inner
        if kind == "num":
            self.pos += 1
            return self.one.scale(_integer(val))
        if kind == "gen":
            self.pos += 1
            return _ncpoly(self.alphabet, {(self._letter(*val),): 1})
        if kind == "name":
            self.pos += 1
            if self.tokens[self.pos][1] == "[":  # a malformed list: find its error
                self.pos += 1
                while True:
                    k2, v2 = self.take()
                    if k2 != "num":
                        raise ParseError("index must be a number")
                    _integer(v2)
                    k3, v3 = self.take()
                    if v3 != ",":
                        got = v3[0] if k3 == "gen" else v3  # a gen is quoted by its name
                        raise ParseError(f"expected , or ] in index list, got {_quote(got)}")
            g = self.resolver(val, None)
            if g is not None:
                return NCPoly.generator(self.alphabet, g)
            if self.names is None or val in self.names:
                return self.one.scale(Scalar.var(val))
            raise ParseError(f"unknown name {_quote(val, str)}")
        raise ParseError(f"unexpected token {val!r}" if kind else "unexpected end of input")


def _size(poly: NCPoly) -> int:
    """The number of (word, monomial) pairs of poly; a plain loop, run twice per product."""
    n = 0
    for coeff in poly._terms.values():
        n += len(coeff._terms) if type(coeff) is Scalar else 1
    return n


def _bits(poly: NCPoly) -> float:
    """log2 max(L, sum of |L c|), L the lcm of the denominators of poly's
    rational coefficients c: poly^e = (L poly)^e / L^e has no numerator or
    denominator past e times this many bits, and a product no more than
    the sum of its factors' bits."""
    fracs = [c for coeff in poly._terms.values()
             for c in (coeff._terms.values() if type(coeff) is Scalar else (coeff,))]
    den = lcm(*(c.denominator for c in fracs))
    return log2(max(den, sum(abs(c.numerator) * (den // c.denominator) for c in fracs)))


_NO_GENERATORS = Alphabet(0, 0)


def parse_scalar(text: str, indeterminates: Optional[Sequence[str]] = None) -> Scalar:
    """Parse a polynomial string with rational coefficients in the named
    indeterminates (None admits any name)."""
    poly = _Parser(text, _NO_GENERATORS, lambda name, indices: None, indeterminates).parse()
    return Scalar.coerce(poly.terms.get((), 0))


def parse_ncpoly(
    text: str,
    alphabet: Alphabet,
    resolver: GeneratorResolver,
    indeterminates: Sequence[str] = (),
) -> NCPoly:
    """Parse a generator expression; a bare name the resolver does not map
    is a scalar indeterminate when it is one of `indeterminates`."""
    return _Parser(text, alphabet, resolver, indeterminates).parse()
