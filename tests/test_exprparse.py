"""Parser budgets: exponents and number literals."""

import time

import pytest

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
