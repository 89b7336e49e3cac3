"""Parsers for scalar polynomial strings and small generator expressions.

Two entry points:
  parse_scalar  -- "3/4*c^2 - 1" -> Scalar
  parse_ncpoly  -- "2 Q[1] Qbar[1] - E[1,2]" -> NCPoly, given a name->generator
                   resolver; adjacency means multiplication.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, NCPoly
from .scalars import ZERO, Scalar, srat


class ParseError(ValueError):
    pass


# deepest nesting of parentheses and unary minus signs the parser accepts;
# each level costs a few Python frames, so this keeps parsing well inside
# the interpreter's recursion limit
MAX_NESTING = 100

# largest exponent after ^: a power is computed by repeated squaring, and
# this bounds its size (c^1000, or a word of 1000 letters) before any work
MAX_EXPONENT = 1000


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()\[\],]))"
)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise ParseError(f"number of {len(text)} digits is too long") from exc


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {text[pos:]!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


class _Parser:
    """Recursive-descent parser of one grammar: `number(n)` is the value of
    the integer n (number(1) the unit), `atom(name, indices)` resolves a
    name with its optional index list, and `constant(b)` gives a divisor b
    as a Fraction, or None if b is not a rational constant."""

    def __init__(self, text: str, number, atom, constant):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.number = number
        self.atom = atom
        self.constant = constant

    def parse(self):
        """The whole input as one expression; trailing input is refused."""
        out = self.parse_expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near {self.tokens[self.pos][1]!r}")
        return out

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, expect: Optional[str] = None):
        kind, val = self.peek()
        if kind is None:
            raise ParseError("unexpected end of input")
        if expect is not None and val != expect:
            raise ParseError(f"expected {expect!r}, got {val!r}")
        self.pos += 1
        return kind, val

    def parse_expr(self):
        kind, val = self.peek()
        if val in ("+", "-"):
            self.take()
            first = self.parse_term()
            acc = first if val == "+" else -first
        else:
            acc = self.parse_term()
        while True:
            kind, val = self.peek()
            if val not in ("+", "-"):
                return acc
            self.take()
            term = self.parse_term()
            acc = acc + term if val == "+" else acc - term

    def parse_term(self):
        acc = self.parse_power()
        while True:
            kind, val = self.peek()
            if val == "*":
                self.take()
                acc = acc * self.parse_power()
            elif val == "/":
                self.take()
                div = self.constant(self.parse_power())
                if div is None:
                    raise ParseError("division only by rational constants")
                if not div:
                    raise ParseError("division by zero")
                acc = acc * (1 / div)
            elif kind in ("num", "name") or val == "(":
                # adjacency: implicit multiplication
                acc = acc * self.parse_power()
            else:
                return acc

    def parse_power(self):
        base = self.parse_atom()
        kind, val = self.peek()
        if val == "^":
            self.take()
            k2, v2 = self.take()
            if k2 != "num":
                raise ParseError("exponent must be a number")
            if len(v2) > len(str(MAX_EXPONENT)) or int(v2) > MAX_EXPONENT:
                raise ParseError(f"exponent after ^ is larger than {MAX_EXPONENT}")
            return self._power(base, int(v2))
        return base

    def _power(self, base, exp: int):
        """base^exp by repeated squaring."""
        result = self.number(1)
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def parse_atom(self):
        kind, val = self.peek()
        if val in ("(", "-"):
            if self.depth == MAX_NESTING:
                raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
            self.take()
            self.depth += 1
            if val == "(":
                inner = self.parse_expr()
                self.take(")")
            else:
                inner = -self.parse_atom()
            self.depth -= 1
            return inner
        if kind == "num":
            self.take()
            return self.number(_integer(val))
        if kind == "name":
            self.take()
            indices: Optional[List[int]] = None
            if self.peek()[1] == "[":
                self.take("[")
                indices = []
                while True:
                    k2, v2 = self.take()
                    if k2 != "num":
                        raise ParseError("index must be a number")
                    indices.append(_integer(v2))
                    k3, v3 = self.take()
                    if v3 == "]":
                        break
                    if v3 != ",":
                        raise ParseError(f"expected , or ] in index list, got {v3!r}")
            return self.atom(val, indices)
        raise ParseError(f"unexpected token {val!r}" if kind else "unexpected end of input")


def _rational(value: Scalar) -> Optional[Fraction]:
    return value.as_rational() if value.is_rational() else None


def parse_scalar(text: str, indeterminates: Optional[Sequence[str]] = None) -> Scalar:
    """Parse a polynomial string with rational coefficients."""

    def atom(name, indices) -> Scalar:
        if indices is not None:
            raise ParseError(f"indexed name {name} not allowed in scalars")
        if indeterminates is not None and name not in indeterminates:
            raise ParseError(f"unknown indeterminate {name!r}")
        return Scalar.var(name)

    return _Parser(text, srat, atom, _rational).parse()


GeneratorResolver = Callable[[str, Optional[List[int]]], Optional[int]]


def parse_ncpoly(
    text: str,
    alphabet: Alphabet,
    resolver: GeneratorResolver,
    indeterminates: Sequence[str] = (),
) -> NCPoly:
    """Parse a generator expression; names not resolved as generators are
    treated as scalar indeterminates when declared."""

    def atom(name, indices) -> NCPoly:
        g = resolver(name, indices)
        if g is not None:
            return NCPoly.generator(alphabet, g)
        if indices is None and name in indeterminates:
            return NCPoly.one(alphabet).scale(Scalar.var(name))
        suffix = "" if indices is None else f"[{','.join(map(str, indices))}]"
        raise ParseError(f"unknown generator {name}{suffix}")

    def constant(poly: NCPoly) -> Optional[Fraction]:
        if set(poly.terms) - {()}:
            return None
        return _rational(poly.terms.get((), ZERO))

    return _Parser(text, NCPoly.one(alphabet).scale, atom, constant).parse()
