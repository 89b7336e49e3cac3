"""Exact scalar ring: rationals and multivariate polynomials."""

from collections import Counter
from fractions import Fraction
from math import gcd

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from quadlie.scalars import Scalar, axpy, join_terms, lower, srat

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@given(rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_rational_addition_cross_multiplication(a, b):
    s = Scalar.from_rational(a) + Scalar.from_rational(b)
    assert s.is_rational()
    expected = Fraction(
        a.numerator * b.denominator + b.numerator * a.denominator,
        a.denominator * b.denominator,
    )
    assert s.as_rational() == expected


@given(rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_ring_axioms_on_rationals(a, b, c):
    sa, sb, sc = (Scalar.from_rational(x) for x in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


def test_polynomial_arithmetic():
    c = Scalar.var("c")
    assert (c + 1) * (c - 1) == c * c - 1
    assert ((c + 1) * (c - 1)).substitute({"c": 3}) == 8
    assert (c - c).is_zero()
    assert not (c - 1).is_rational()
    assert (c * 0).is_zero()


def test_canonical_form_idempotent():
    c = Scalar.var("c")
    p = c * c - c * c + srat(2, 3)
    assert p.is_rational()
    assert p.as_rational() == Fraction(2, 3)
    assert str(p) == str(Scalar.coerce(Fraction(2, 3)))


def test_division_by_rational():
    c = Scalar.var("c")
    assert (c * 2) / 2 == c
    assert srat(1, 2) + srat(1, 3) == srat(5, 6)


def test_string_rendering_deterministic():
    c, mu = Scalar.var("c"), Scalar.var("mubar")
    p = c * mu + mu * c + 1
    q = mu * c * 2 + 1
    assert str(p) == str(q)


X = (("x", 1),)
scalars = st.builds(
    lambda c0, c1: Scalar({(): c0, X: c1}), rationals, rationals | st.just(0)
)
operands = st.integers(-6, 6) | rationals | scalars
OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "r+": lambda a, b: b + a, "r-": lambda a, b: b - a, "r*": lambda a, b: b * a,
    "neg": lambda a, b: -a,
}
chains = st.lists(st.tuples(st.sampled_from(sorted(OPS)), operands), max_size=8)


def _run_chain(start, steps, lift):
    acc = lift(start)
    for op, x in steps:
        acc = OPS[op](acc, lift(x))
    return acc


@given(scalars, chains)
@settings(max_examples=100, deadline=None)
def test_mixed_operand_chains_stay_canonical(start, steps):
    """Chains of +, -, * and negation over int, Fraction and Scalar
    operands, with and without an indeterminate: the int and Fraction fast
    paths store only nonzero Fractions and agree with the chain run on
    Scalars throughout, and with plain Fractions at x = 3."""
    got = _run_chain(start, steps, lambda v: v)
    want = _run_chain(start, steps, Scalar.coerce)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert got == want and hash(got) == hash(want)
    at3 = _run_chain(start, steps, lambda v: (
        v.substitute({"x": 3}).as_rational() if isinstance(v, Scalar) else Fraction(v)))
    assert got.substitute({"x": 3}) == at3
    if got.is_rational():
        assert hash(got) == hash(Scalar.from_rational(got.as_rational()))


names = st.sets(st.sampled_from("xyz"), min_size=2, max_size=3).map(sorted)


@st.composite
def polynomials(draw, variables):
    """A Scalar of up to five terms in the given indeterminates, exponents
    0..3 (an exponent 0 leaves the name out), coefficients with mixed
    denominators up to 12."""
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        mono = tuple((v, e) for v in variables if (e := draw(st.integers(0, 3))))
        terms[mono] = draw(rationals.filter(bool))
    return Scalar(terms)


def _reference_product(p, q):
    """p * q expanded term by term: exponents merged with a Counter,
    coefficients summed as Fractions, cancelled monomials dropped."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


@given(names.flatmap(lambda v: st.tuples(polynomials(v), polynomials(v))))
@settings(max_examples=150, deadline=None)
def test_general_product_matches_term_by_term_expansion(pair):
    """Products of Scalars in 2-3 indeterminates with mixed denominators,
    and (p + q)(p - q), whose cross terms cancel, equal the reference
    expansion; every stored coefficient is a nonzero Fraction in lowest
    terms on a sorted monomial with no exponent 0."""
    p, q = pair
    for a, b in ((p, q), (q, p), (p + q, p - q), (p * 3 - q, p * 3 + q)):
        got = a * b
        assert got.terms == _reference_product(a, b)
        for mono, coeff in got.terms.items():
            assert type(coeff) is Fraction and coeff != 0
            assert gcd(coeff.numerator, coeff.denominator) == 1 and coeff.denominator > 0
            assert list(mono) == sorted(mono) and all(e != 0 for _, e in mono)


def test_general_product_drops_cancelled_monomials():
    x, y = Scalar.var("x"), Scalar.var("y")
    p = x * srat(1, 2) + y * srat(1, 3)
    q = x * srat(2, 3) - y
    got = (p * q) * (p * 3 - q)
    assert got.terms == _reference_product(p * q, p * 3 - q)
    assert ((x + y) * (x - y)).terms == {(("x", 2),): 1, (("y", 2),): -1}


def test_axpy_adds_in_place_and_drops_cancelled_entries():
    x, y = Scalar.var("x"), Scalar.var("y")
    for u, v in ((3, -2), (Fraction(1, 3), Fraction(-5, 2)), (x + 1, srat(2, 3) * y)):
        out = {"kept": u, "cancels": v * u}
        got = axpy(out, v, {"cancels": -u, "new": v})
        assert got is out
        assert out == {"kept": u, "new": v * v}
        assert "cancels" not in out


@pytest.mark.parametrize("value, want, kind", [
    (7, 7, int),
    (Fraction(-6, 3), -2, int),
    (Fraction(5, 4), Fraction(5, 4), Fraction),
    (srat(3), 3, int),
    (srat(-2, 3), Fraction(-2, 3), Fraction),
    (Scalar.var("c") + 1, Scalar.var("c") + 1, Scalar),
    (Scalar(), 0, int),
    (Fraction(0), 0, int),
])
def test_lower_keeps_integral_values_in_ints(value, want, kind):
    got = lower(value)
    assert type(got) is kind
    assert got == want


def test_lower_returns_a_fraction_and_a_symbolic_scalar_as_given():
    f, s = Fraction(1, 3), Scalar.var("c") * 2
    assert lower(f) is f
    assert lower(s) is s


def test_join_terms_folds_a_leading_minus_into_the_joiner():
    assert join_terms(["x"]) == "x"
    assert join_terms(["-x"]) == "-x"
    assert join_terms(["x", "-2*y", "z", "-1/2"]) == "x - 2*y + z - 1/2"
    assert str(Scalar.var("x") - Scalar.var("y") * 2 + 1) == "1 + x - 2*y"


def test_plain_rational_hashes_as_the_rational_it_equals():
    for value in (0, 1, -3, 10**30, Fraction(1, 2), Fraction(-7, 3)):
        scalar = srat(value)
        assert scalar == value and hash(scalar) == hash(value)
        assert len({scalar, value}) == 1 and {value: 1}[scalar] == 1
    assert hash(Scalar()) == hash(srat(0)) == 0
    c = Scalar.var("c")
    assert hash(c + 1) == hash(1 + c) and len({c + 1, 1 + c, c}) == 2
