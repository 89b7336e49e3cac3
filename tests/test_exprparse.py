"""Parser budgets (exponents, number literals) and fuzzing."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.exprparse import MAX_EXPONENT, ParseError, parse_ncpoly, parse_scalar
from quadlie.gl2n1 import build
from quadlie.ncpoly import NCPoly
from quadlie.scalars import Scalar, srat


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
