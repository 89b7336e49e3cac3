"""Exact scalar ring: rationals and multivariate polynomials."""

from fractions import Fraction

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.scalars import Scalar, srat

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
