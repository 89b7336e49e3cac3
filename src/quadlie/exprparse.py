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
from .scalars import Scalar, srat


class ParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()\[\],]))"
)


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
    """Recursive-descent parser shared by the scalar and word grammars."""

    def __init__(self, tokens, atom_handler):
        self.tokens = tokens
        self.pos = 0
        self.atom_handler = atom_handler

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
                div = self.parse_power()
                acc = self._divide(acc, div)
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
            exp = int(v2)
            if exp == 0:
                return self._one()
            result = base
            for _ in range(exp - 1):
                result = result * base
            return result
        return base

    def parse_atom(self):
        kind, val = self.peek()
        if val == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        if val == "-":
            self.take()
            return -self.parse_atom()
        if kind == "num":
            self.take()
            return self._number(int(val))
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
                    indices.append(int(v2))
                    k3, v3 = self.take()
                    if v3 == "]":
                        break
                    if v3 != ",":
                        raise ParseError(f"expected , or ] in index list, got {v3!r}")
            return self.atom_handler(val, indices, self)
        raise ParseError(f"unexpected token {val!r}")

    # hooks overridden per grammar
    def _number(self, n: int):
        raise NotImplementedError

    def _one(self):
        raise NotImplementedError

    def _divide(self, a, b):
        raise NotImplementedError


class _ScalarParser(_Parser):
    def _number(self, n: int) -> Scalar:
        return srat(n)

    def _one(self) -> Scalar:
        return srat(1)

    def _divide(self, a: Scalar, b: Scalar) -> Scalar:
        if not b.is_rational():
            raise ParseError("division only by rationals")
        if b.is_zero():
            raise ParseError("division by zero")
        return a / b.as_rational()


def parse_scalar(text: str, indeterminates: Optional[Sequence[str]] = None) -> Scalar:
    """Parse a polynomial string with rational coefficients."""

    def atom(name, indices, parser) -> Scalar:
        if indices is not None:
            raise ParseError(f"indexed name {name} not allowed in scalars")
        if indeterminates is not None and name not in indeterminates:
            raise ParseError(f"unknown indeterminate {name!r}")
        return Scalar.var(name)

    p = _ScalarParser(_tokenize(text), atom)
    out = p.parse_expr()
    if p.pos != len(p.tokens):
        raise ParseError(f"trailing input near {p.tokens[p.pos]}")
    return out


class _PolyParser(_Parser):
    def __init__(self, tokens, atom_handler, alphabet: Alphabet):
        super().__init__(tokens, atom_handler)
        self.alphabet = alphabet

    def _number(self, n: int) -> NCPoly:
        return NCPoly.one(self.alphabet).scale(n)

    def _one(self) -> NCPoly:
        return NCPoly.one(self.alphabet)

    def _divide(self, a: NCPoly, b: NCPoly) -> NCPoly:
        if set(b.terms) != {()}:
            raise ParseError("division only by rational constants")
        coeff = b.terms[()]
        if not coeff.is_rational():
            raise ParseError("division only by rational constants")
        return a.scale(Scalar.coerce(Fraction(1)) / coeff.as_rational())


GeneratorResolver = Callable[[str, Optional[List[int]]], Optional[int]]


def parse_ncpoly(
    text: str,
    alphabet: Alphabet,
    resolver: GeneratorResolver,
    indeterminates: Sequence[str] = (),
) -> NCPoly:
    """Parse a generator expression; names not resolved as generators are
    treated as scalar indeterminates when declared."""

    def atom(name, indices, parser) -> NCPoly:
        g = resolver(name, indices)
        if g is not None:
            return NCPoly.generator(alphabet, g)
        if indices is None and name in indeterminates:
            return NCPoly.one(alphabet).scale(Scalar.var(name))
        suffix = "" if indices is None else f"[{','.join(map(str, indices))}]"
        raise ParseError(f"unknown generator {name}{suffix}")

    p = _PolyParser(_tokenize(text), atom, alphabet)
    out = p.parse_expr()
    if p.pos != len(p.tokens):
        raise ParseError(f"trailing input near {p.tokens[p.pos]}")
    return out
