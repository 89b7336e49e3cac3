"""Parser budgets (exponents, number literals, work), the name rule and
fuzzing."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import exprparse
from quadlie.exprparse import (
    MAX_BITS, MAX_EXPONENT, MAX_NESTING, MAX_WORK, ParseError, _bits, _integer, _quote, _size,
    parse_ncpoly, parse_scalar,
)
from quadlie.gl2n1 import build
from quadlie.ncpoly import Alphabet, NCPoly
from quadlie.scalars import ZERO, Scalar, srat


# -- the reference parser: the grammar as parsed before an indexed generator
# became one token, with a token per name, bracket, comma and number and an
# NCPoly product per factor; the differential test holds the parser to it

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()\[\],])"
    r"|(?P<bad>\S))"
)


def _ref_tokenize(text):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"bad character at {_quote(text[m.start():])}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append((None, None))
    return tokens


class _RefParser:
    def __init__(self, text, alphabet, resolver, names):
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0
        self.alphabet = alphabet
        self.one = NCPoly.one(alphabet)
        self.resolver = resolver
        self.names = names

    def parse(self):
        out = self.parse_expr()
        if self.tokens[self.pos][0] is not None:
            raise ParseError(f"trailing input near {_quote(self.tokens[self.pos][1])}")
        return out

    def take(self, expect=None):
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
        acc = self.parse_signed()
        while True:
            kind, val = self.tokens[self.pos]
            if val == "/":
                self.pos += 1
                div = self.parse_signed().terms
                if div.keys() - {()} or not div.get((), ZERO).is_rational():
                    raise ParseError("division only by rational constants")
                if not div:
                    raise ParseError("division by zero")
                acc = acc * (1 / div[()].as_rational())
            elif val == "*" or kind in ("num", "name") or val == "(":
                if val == "*":
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
        result, exp = self.one, int(val)
        while exp:
            if exp & 1:
                result = self._mul(result, base)
            exp >>= 1
            if exp:
                base = self._mul(base, base)
        return result

    def _mul(self, a, b):
        self.work += _size(a) * _size(b)
        if self.work > MAX_WORK:
            raise ParseError(f"expression takes more than {MAX_WORK} term products")
        return a * b

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
        if kind == "name":
            self.pos += 1
            indices = None
            if self.tokens[self.pos][1] == "[":
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
                        raise ParseError(f"expected , or ] in index list, got {_quote(v3)}")
            g = self.resolver(val, indices)
            if g is not None:
                return NCPoly.generator(self.alphabet, g)
            if indices is None and (self.names is None or val in self.names):
                return self.one.scale(Scalar.var(val))
            suffix = "" if indices is None else f"[{','.join(map(str, indices))}]"
            raise ParseError(f"unknown name {_quote(val + suffix, str)}")
        raise ParseError(f"unexpected token {val!r}" if kind else "unexpected end of input")


def test_powers_by_squaring_match_repeated_products():
    assert parse_scalar("3^5") == srat(243)
    assert parse_scalar("c^0") == srat(1)
    c = Scalar.var("c")
    assert parse_scalar("(c + 1)^7") == (c + 1) * (c + 1) * (c + 1) * (c + 1) * \
        (c + 1) * (c + 1) * (c + 1)
    assert parse_scalar(f"c^{MAX_EXPONENT}") == Scalar.var("c", MAX_EXPONENT)
    alg = build(2, 1)
    e11 = NCPoly.generator(alg.alphabet, alg.resolve("E", [1, 1]))
    power = parse_ncpoly("(E[1,1] + E[1,2])^5", alg.alphabet, alg.resolve)
    e12 = NCPoly.generator(alg.alphabet, alg.resolve("E", [1, 2]))
    want = e11 + e12
    for _ in range(4):
        want = want * (e11 + e12)
    assert power == want


@pytest.mark.parametrize("text", [
    f"c^{MAX_EXPONENT + 1}", "3^2000000", "c^99999999",
    pytest.param("2^" + "9" * 5000, id="5000-digit-exponent"),
])
def test_exponent_past_budget_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exponent"):
        parse_scalar(text)
    assert time.perf_counter() - start < 1.0


def test_work_bound_counts_every_product_of_a_power(monkeypatch):
    # (c + 1)^10 by squaring: squares of sizes 2, 3 and 5 (4 + 9 + 25) and
    # products 1 * 3 and 3 * 9 into the result, 68 pair products in all
    monkeypatch.setattr(exprparse, "MAX_WORK", 68)
    assert len(parse_scalar("(c + 1)^10").terms) == 11
    monkeypatch.setattr(exprparse, "MAX_WORK", 67)
    with pytest.raises(ParseError, match="more than 67 term products"):
        parse_scalar("(c + 1)^10")


def test_work_bound_counts_written_and_adjacent_products(monkeypatch):
    # (a + b)(c + d) * (e + f): 2 * 2 pairs, then 4 * 2
    monkeypatch.setattr(exprparse, "MAX_WORK", 12)
    assert len(parse_scalar("(a + b)(c + d) * (e + f)").terms) == 8
    monkeypatch.setattr(exprparse, "MAX_WORK", 11)
    with pytest.raises(ParseError, match="term products"):
        parse_scalar("(a + b)(c + d) * (e + f)")


def test_power_at_the_work_bound_still_parses():
    # (c + 1)^1000 takes 415,666 pair products, within MAX_WORK
    assert MAX_WORK >= 415_666
    assert len(parse_scalar("(c + 1)^1000").terms) == 1001


@pytest.mark.parametrize("parse", [
    pytest.param(lambda: parse_scalar("(a+b+c+d)^1000"), id="scalar"),
    pytest.param(lambda alg=build(2, 1): parse_ncpoly(
        "(E[1,2]+E[2,1])^30", alg.alphabet, alg.resolve), id="generators"),
])
def test_product_past_work_bound_is_refused_at_once(parse):
    # about 1.7e8 terms and 2^30 words: refused before the product that
    # passes MAX_WORK pair products is formed
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"more than {MAX_WORK} term products"):
        parse()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", [
    "((10^1000)^1000)^10", "((10^1000)^1000)^30", "(10^1000)^5",
    "(1/10^1000)^5", "(2^1000 * 2^1000)^8", "(10^1000 c + 1)^5",
])
def test_power_past_bit_bound_is_refused_at_once(text):
    # 10^1000 has 3,322 bits: five of them pass MAX_BITS, in a numerator
    # or a denominator, refused before the power is formed
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"^power makes coefficients of more than {MAX_BITS} bits$"):
        parse_scalar(text)
    assert time.perf_counter() - start < 1.0


PRODUCT_PAST_BITS = "10^1000 10^1000 10^1000 10^1000 10^1000"  # 5 * 3,322 bits


@pytest.mark.parametrize("text", [
    PRODUCT_PAST_BITS, "10^1000 * 10^1000 * 10^1000 * 10^1000 * 10^1000 c",
    "(10^1000)^4 * 10^1000", "(10^1000 c + 1)^4 (10^1000 c + 1)",
    "1/10^1000/10^1000/10^1000/10^1000/10^1000",
])
def test_product_past_bit_bound_is_refused_before_it_is_formed(text, monkeypatch):
    # the bound covers a product and a division as it covers a power: the
    # last factor would pass MAX_BITS, so it is refused before it is formed
    formed = []
    general = NCPoly.__mul__
    monkeypatch.setattr(NCPoly, "__mul__",
                        lambda a, b: formed.append(general(a, b)) or formed[-1])
    with pytest.raises(ParseError, match=f"^product makes coefficients of more than {MAX_BITS} bits$"):
        parse_scalar(text)
    assert all(_bits(a) <= MAX_BITS for a in formed)


def test_product_within_bit_bound_parses():
    assert parse_scalar("10^1000 10^1000 10^1000 10^1000") == srat(10 ** 4000)
    assert parse_scalar("1/10^1000/10^1000/10^1000/10^1000") == srat(Fraction(1, 10 ** 4000))
    assert parse_scalar("(10^1000)^2 * 10^1000 / 10^1000") == srat(10 ** 2000)


def test_power_within_bit_bound_parses_and_prints():
    # MAX_BITS comes from the 4,300 digits str() prints
    assert 10 ** 4299 < 2 ** MAX_BITS < 10 ** 4300
    assert parse_scalar("(10^1000)^4") == srat(10 ** 4000)
    assert parse_scalar("(1/10^1000)^4") == srat(Fraction(1, 10 ** 4000))
    assert parse_scalar("(2^1000 * 2^1000)^7") == srat(2 ** 14000)
    assert parse_scalar("(2/3)^1000") == srat(Fraction(2, 3) ** 1000)
    for text in ("(10^1000)^4", "(2^1000 * 2^1000)^7", "(10^1000 c + 1)^4"):
        str(parse_scalar(text))


def test_one_name_rule_in_both_parsers():
    alg = build(2, 1)
    assert parse_scalar("x", None) == Scalar.var("x")
    assert parse_scalar("x", ["x"]) == Scalar.var("x")
    e12 = NCPoly.generator(alg.alphabet, alg.resolve("E", [1, 2]))
    assert parse_ncpoly("u E[1,2]", alg.alphabet, alg.resolve, ["u"]) == \
        e12.scale(Scalar.var("u"))
    for text, names in (("x", ["c"]), ("x", ()), ("E[1,2]", None), ("c[1]", None)):
        with pytest.raises(ParseError) as info:
            parse_scalar(text, names)
        assert str(info.value) == f"unknown name {text}"
    for text in ("x[1]", "u", "E[3,1]", "E", "Q[1,1]"):
        with pytest.raises(ParseError) as info:
            parse_ncpoly(text, alg.alphabet, alg.resolve)
        assert str(info.value) == f"unknown name {text}"


def test_overlong_number_is_a_parse_error():
    with pytest.raises(ParseError, match="digits"):
        parse_scalar("1" * 5000)


# fuzz input: tokens of both grammars, and any character that is not a
# digit, joined by spaces, so that a number is one of the listed ones and
# no power grows large
_PIECES = ["0", "1", "2", "3", "17", "c", "u", "x", "E", "Q", "Qbar", "[", "]",
           ",", "+", "-", "*", "/", "^", "(", ")", ".", "1/0", "E[1,2]", "Q[1]"]
_TEXTS = st.lists(st.one_of(st.sampled_from(_PIECES),
                            st.characters(blacklist_categories=("Nd",))),
                  max_size=24).map(" ".join)


@given(_TEXTS)
@settings(max_examples=100, deadline=None)
def test_parse_scalar_raises_only_value_errors(text):
    for names in (None, ("c", "u")):
        try:
            assert isinstance(parse_scalar(text, names), Scalar)
        except ValueError:  # ParseError included
            pass


@given(_TEXTS)
@settings(max_examples=100, deadline=None)
def test_parse_ncpoly_raises_only_value_errors(text):
    alg = build(2, 1)
    try:
        poly = parse_ncpoly(text, alg.alphabet, alg.resolve, ("c",))
        assert isinstance(poly, NCPoly)
    except ValueError:  # ParseError included
        pass


@pytest.mark.parametrize("text", ["", "  ", "2 +", "(", "3 *", "2/", "-", "2^", "(2", "(2 + 3"])
def test_truncated_input_is_refused_as_end_of_input(text):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == "unexpected end of input"
    alg = build(2, 1)
    with pytest.raises(ParseError) as info:
        parse_ncpoly(text, alg.alphabet, alg.resolve)
    assert str(info.value) == "unexpected end of input"


@pytest.mark.parametrize("text, token", [
    ("2 ^ 3 ^ 2", "^"), ("c)", ")"), ("2 ]", "]"), ("3, 4", ","),
])
def test_trailing_input_names_the_token_text(text, token):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == f"trailing input near {token!r}"


def test_misplaced_token_is_named():
    with pytest.raises(ParseError) as info:
        parse_scalar("2 + *")
    assert str(info.value) == "unexpected token '*'"


@pytest.mark.parametrize("text, rest", [
    ("E[1,1] $", " $"),  # the rest from the end of the last token, spaces included
    ("$1", "$1"),
    ("c +\t§ 2", "\t§ 2"),
    ("2 . 5", " . 5"),
])
def test_bad_character_names_the_rest_of_the_input(text, rest):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == f"bad character at {rest!r}"
    alg = build(2, 1)
    with pytest.raises(ParseError) as info:
        parse_ncpoly(text, alg.alphabet, alg.resolve)
    assert str(info.value) == f"bad character at {rest!r}"


@pytest.mark.parametrize("text, start", [
    ("$" + "E[1,1] " * 10_000, "bad character at '$E[1,1] "),
    ("x" * 60_000, "unknown name xxx"),
    ("c[1" + ",1" * 30_000 + "]", "unknown name c[1,1"),
    ("c[1 " + "2" * 60_000 + "]", "expected , or ] in index list, got '222"),
], ids=["bad-character", "unknown-name", "unknown-indices", "index-list"])
def test_long_input_is_quoted_in_a_short_message(text, start):
    # whatever the input's length, an error message quotes at most
    # MAX_QUOTE characters of it and then gives the length of the whole
    with pytest.raises(ParseError) as info:
        parse_scalar(text, ["c"])
    message = str(info.value)
    assert message.startswith(start), message
    assert message.endswith(" characters)") and "\n" not in message
    assert len(message) < 3 * exprparse.MAX_QUOTE


def test_trailing_whitespace_is_accepted():
    c = Scalar.var("c")
    assert parse_scalar("c + 1 \t\n ") == c + 1
    assert parse_scalar("\n c") == c
    alg = build(2, 1)
    e12 = NCPoly.generator(alg.alphabet, alg.resolve("E", [1, 2]))
    assert parse_ncpoly(" E[1,2]\n", alg.alphabet, alg.resolve) == e12


def test_parse_work_is_the_sum_of_product_sizes(monkeypatch):
    # products and powers of generators with integer, rational and symbolic
    # factors: the parser's work count is the sum of size(a) * size(b) over
    # the products the grammar forms, a size being a number of (word,
    # monomial) pairs, each product seen where the reference parser calls
    # NCPoly.__mul__ (the parser appends a run of generators to one word)
    alg = build(2)
    names = alg.presentation.indeterminates
    gens = ["E[1,1]", "E[1,2]", "E[2,1]", "E[2,2]", "Q[1]", "Q[2]", "Qbar[1]", "Qbar[2]"]
    factors = gens + ["3", "2/3", "c", "(c + 1)", "(2 - c)", "(E[1,2] + Q[1])", "0"]
    sizes = []
    general = NCPoly.__mul__

    def recording_mul(a, b):
        if isinstance(b, NCPoly):
            sizes.append(sum(len(c.terms) for c in a.terms.values())
                         * sum(len(c.terms) for c in b.terms.values()))
        return general(a, b)

    rng = random.Random(34)
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 6)):
            part = rng.choice(factors)
            if rng.random() < 0.25:
                part += f"^{rng.randint(0, 4)}"
            parts.append(part)
        text = rng.choice([" ", " * "]).join(parts)
        if rng.random() < 0.3:
            text = f"-{text} + {rng.choice(gens)} {rng.choice(factors)}"
        sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(NCPoly, "__mul__", recording_mul)
            _RefParser(text, alg.alphabet, alg.resolve, names).parse()
        parser = exprparse._Parser(text, alg.alphabet, alg.resolve, names)
        parser.parse()
        assert parser.work == sum(sizes), text


# pieces of the differential test's strings: indexed generators of gl2(2/1)
# and gl2(3/1) with and without whitespace in the brackets, unknown and
# malformed index lists, bare names, small numbers, every operator and a
# bad character
_GENERATORS = ["E[1,2]", "E[2,1]", "E[1,1]", "E [ 2 ,\t1 ]", "Q[1]", "Q[2]", "Qbar[1]",
               "Qbar[ 2]", "Q[01]"]
_N3_GENERATORS = ["E[3,1]", "E[2,3]", "Q[3]", "Qbar[3]"]
_SOUP = _GENERATORS + _N3_GENERATORS + [
    "X[1]", "Q[1,1]", "E[1]", "c[1]", "E[0,1]",
    "E[1,", "E[", "Q[1 2]", "E[,1]", "Q[]", "E[1,2", "Qbar[x]", "E[1,2,]", "E[1 E[1,2]]",
    "c", "u", "x", "E", "Q", "Qbar", "0", "1", "2", "3",
    "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", "$",
]
_FACTORS = _GENERATORS + ["c", "2", "(c + 1)", "(E[1,2] - Q[1])", "-Q[2]"]
_SCALAR_FACTORS = ["c", "u", "2", "3", "(c + 1)", "-c", "1/2"]
_BLANKS = ["", " ", "\t"]


def _differential_text(rng):
    """A seeded random string: half a soup of any pieces, the rest sums of
    one or two products of one to three factors, generators, names and
    numbers (three in ten) or names and numbers only (one in five), some
    factors with a power."""
    mode = rng.random()
    if mode < 0.5:
        n = rng.randint(0, 8)
        return "".join(map(str.__add__, rng.choices(_SOUP, k=n), rng.choices(_BLANKS, k=n)))
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if mode < 0.8:
                pool = _N3_GENERATORS if rng.random() < 0.05 else _FACTORS
            else:
                pool = _SCALAR_FACTORS
            factor = rng.choice(pool)
            if rng.random() < 0.15:
                factor += f"^{rng.randint(0, 2)}"
            factors.append(factor)
        terms.append(rng.choice([" ", " * ", "*"]).join(factors))
    return rng.choice([" + ", " - ", "-"]).join(terms)


def test_parser_agrees_with_the_reference_parser(monkeypatch):
    """Seeded differential test over 20,000 strings, parsed in turn through
    parse_ncpoly over gl2(2/1), over gl2(3/1) and through parse_scalar: the
    parser and the reference give the same value and the same work, or the
    same exception type and message."""
    parsers = []

    class Recorded(exprparse._Parser):
        def parse(self):
            parsers.append(self)
            return super().parse()

    monkeypatch.setattr(exprparse, "_Parser", Recorded)

    def outcome(parse, *args):
        try:
            return parse(*args)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)

    references = []

    def reference(text, alphabet, resolver, names):
        # recorded once tokenized, as a parser is when its parse() is called
        ref = _RefParser(text, alphabet, resolver, names)
        references.append(ref)
        return ref.parse()

    def reference_scalar(text, names):
        poly = reference(text, no_generators, lambda name, indices: None, names)
        return poly.terms.get((), ZERO)

    no_generators = Alphabet(0, 0)
    contexts = [(parse_ncpoly, reference, (alg.alphabet, alg.resolve, ("c",)))
                for alg in (build(2), build(3))]
    contexts.append((parse_scalar, reference_scalar, (("c", "u"),)))
    rng = random.Random(40)
    parsed = [0, 0, 0]
    for i in range(20_000):
        text = _differential_text(rng)
        parse, ref, args = contexts[i % 3]
        parsers.clear()
        references.clear()
        got = outcome(parse, text, *args)
        assert got == outcome(ref, text, *args), text
        assert [p.work for p in parsers] == [r.work for r in references], text
        parsed[i % 3] += not isinstance(got, tuple)
    assert min(parsed) > 1_000, parsed


def test_an_indexed_generator_is_one_token():
    assert exprparse._tokenize("Qbar[1] Q[2] E[2,1]") == [
        ("gen", ("Qbar", "1")), ("gen", ("Q", "2")), ("gen", ("E", "2,1")), (None, None)]
    alg = build(2)
    spaced = parse_ncpoly("E [ 1 ,\t2 ]\nQ[ 1] * Qbar [2 ]", alg.alphabet, alg.resolve)
    assert spaced == parse_ncpoly("E[1,2] Q[1] Qbar[2]", alg.alphabet, alg.resolve)


@pytest.mark.parametrize("text", ["X[1]", "E[1,1] X[1]", "E[1,1] * X[1] E[1,2]"])
def test_an_indexed_generator_is_checked_against_the_alphabet(text):
    # a resolver may map a name outside the alphabet; each letter, first or
    # in a run, is checked before it is multiplied
    alg = build(2)

    def resolver(name, indices):
        return {"X": 99, "Y": 1.0}.get(name, alg.resolve(name, indices))

    with pytest.raises(IndexError, match="generator 99 out of range"):
        parse_ncpoly(text, alg.alphabet, resolver)
    with pytest.raises(TypeError, match="generator id 1.0 is not an int"):
        parse_ncpoly(text.replace("X", "Y"), alg.alphabet, resolver)


def test_a_resolver_may_map_a_bare_name():
    # a bare name the resolver maps is a generator, before the indeterminates
    # are asked; one it does not map stays an indeterminate or is unknown
    ab = Alphabet(1, 1)

    def resolver(name, indices):
        return {"X": 0, "c": 1}.get(name) if indices is None else None

    got = parse_ncpoly("2 X c + X u", ab, resolver, ("c", "u"))
    assert got == NCPoly(ab, {(0, 1): srat(2), (0,): Scalar.var("u")})
    with pytest.raises(ParseError) as info:
        parse_ncpoly("X v", ab, resolver, ("c", "u"))
    assert str(info.value) == "unknown name v"


def _random_expression(rng, depth):
    """(quadlie text, Python text) of one random expression tree over small
    integers with + - * / ^, parentheses and signs: no chained ^, no sign
    inside an exponent, no adjacency.  The Python text writes ^ as ** and
    each literal as a Fraction, so Python's own precedence evaluates it."""
    def atom(depth):
        if depth and rng.random() < 0.3:
            q, py = expr(depth - 1)
            return f"({q})", f"({py})"
        k = rng.randint(0, 4)
        return str(k), f"Fraction({k})"

    def power(depth):
        q, py = atom(depth)
        if rng.random() < 0.3:
            k = rng.randint(0, 3)
            return f"{q}^{k}", f"{py}**{k}"
        return q, py

    def signed(depth):
        if rng.random() < 0.35:
            sign = rng.choice("+-")
            q, py = signed(depth)
            return sign + q, f"{sign}{py}"
        return power(depth)

    def term(depth):
        q, py = signed(depth)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice("*/")
            q2, py2 = signed(depth)
            q, py = f"{q} {op} {q2}", f"{py} {op} {py2}"
        return q, py

    def expr(depth):
        q, py = term(depth)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice("+-")
            q2, py2 = term(depth)
            q, py = f"{q} {op} {q2}", f"{py} {op} {py2}"
        return q, py

    return expr(depth)


def test_parse_scalar_agrees_with_python_precedence():
    """Seeded differential test: parse_scalar equals Python's evaluation of
    the same tree, and a division by zero raises in both."""
    rng = random.Random(38)
    after_operator = zero_divisions = 0
    for _ in range(3000):
        text, python = _random_expression(rng, 3)
        try:
            want = eval(python, {"Fraction": Fraction})  # text built above
        except ZeroDivisionError:
            zero_divisions += 1
            with pytest.raises(ParseError, match="division by zero"):
                parse_scalar(text)
            continue
        assert parse_scalar(text) == want, (text, python)
        after_operator += any(f"{op} -" in text for op in "*/")
    assert after_operator > 300 and zero_divisions > 30


@pytest.mark.parametrize("text, want", [
    ("-c^2", "-c^2"), ("2*-c^2", "-2*c^2"), ("3*-2^2", "-12"), ("c/-2^2", "-1/4*c"),
    ("(-c)^2", "c^2"), ("-(c)^2", "-c^2"), ("--c", "c"), ("2*+c", "2*c"),
    ("1/2*-c^2", "-1/2*c^2"), ("-2 c - -c", "-c"), ("c/+2", "1/2*c"), ("c + +c", "2*c"),
])
def test_a_sign_binds_looser_than_a_power_and_tighter_than_a_product(text, want):
    assert str(parse_scalar(text)) == want


def test_each_sign_opens_one_nesting_level():
    assert parse_scalar("-" * MAX_NESTING + "c") == Scalar.var("c")
    assert parse_scalar("2 * " + "+" * MAX_NESTING + "c") == Scalar.var("c") * 2
    for text in ("-" * (MAX_NESTING + 1) + "c",
                 "-" + "(" * MAX_NESTING + "c" + ")" * MAX_NESTING,
                 "(" * MAX_NESTING + "-c" + ")" * MAX_NESTING):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
            parse_scalar(text)
