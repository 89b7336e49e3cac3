"""Exact scalar ring: rationals and multivariate polynomials."""

from collections import Counter
from fractions import Fraction
from math import gcd

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from quadlie.exprparse import parse_scalar
from quadlie.scalars import ONE, ZERO, Scalar, axpy, join_terms, lower, srat

def _canonical(c) -> bool:
    """The stored form of a Scalar coefficient: a nonzero int when
    integral, else a Fraction with denominator > 1."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)


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


def test_a_constant_factor_never_reaches_the_general_product(monkeypatch):
    # an int, Fraction, float or plain-rational factor, on either side,
    # scales term by term, integral results as ints: the general product's
    # monomial merge never runs
    x = Scalar.var("x")
    p = x * srat(1, 2) + srat(3, 2)

    def merge(a, b):
        raise AssertionError("the general product ran")

    monkeypatch.setattr("quadlie.scalars._mono_mul", merge)
    for k in (2, Fraction(2), Fraction(4, 2), 2.0, srat(2), srat(4, 2)):
        for got in (p * k, k * p):
            assert got.terms == {(("x", 1),): 1, (): 3}
            assert all(type(v) is int for v in got.terms.values())
    assert (ONE * p).terms == (p * ONE).terms == p.terms and (p / 3 * 3).terms == p.terms
    assert all(not (k * p) and not (p * k) for k in (0, Fraction(0), 0.0, ZERO))
    assert (ZERO * x).is_zero() and (x * ZERO).is_zero()


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
    paths store a nonzero int where integral, else a Fraction with
    denominator > 1, and agree with the chain run on Scalars throughout,
    and with plain Fractions at x = 3."""
    got = _run_chain(start, steps, lambda v: v)
    want = _run_chain(start, steps, Scalar.coerce)
    assert all(_canonical(c) for c in got.terms.values())
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
    expansion; every stored coefficient is a nonzero int where integral,
    else a Fraction in lowest terms with denominator > 1, on a sorted
    monomial with no exponent 0."""
    p, q = pair
    for a, b in ((p, q), (q, p), (p + q, p - q), (p * 3 - q, p * 3 + q)):
        got = a * b
        assert got.terms == _reference_product(a, b)
        for mono, coeff in got.terms.items():
            assert _canonical(coeff)
            assert gcd(coeff.numerator, coeff.denominator) == 1
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


# -- differential test: every operation against a dict of Fractions ---------

def _ref(value) -> dict:
    """The reference form of an int, Fraction or Scalar: monomial -> nonzero
    Fraction, with no int anywhere."""
    if isinstance(value, Scalar):
        return {m: Fraction(c) for m, c in value.terms.items()}
    return {(): Fraction(value)} if value else {}


def _ref_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def _ref_mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(p: dict, exp: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(exp):
        out = _ref_mul(out, p)
    return out


def _ref_substitute(p: dict, name: str, q: dict) -> dict:
    out = {}
    for m, c in p.items():
        rest = tuple((v, e) for v, e in m if v != name)
        term = _ref_mul({rest: c}, _ref_pow(q, dict(m).get(name, 0)))
        out = _ref_add(out, term)
    return out


# coefficients: integral ones as ints and as integral Fractions, and not
# integral ones
coefficients = (st.integers(-6, 6).filter(bool)
                | st.integers(-6, 6).filter(bool).map(Fraction)
                | rationals.filter(bool))


@st.composite
def small_polynomials(draw):
    """A Scalar of up to four terms in x and y, exponents 0..2, built through
    the public constructor from mixed int and Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple((v, e) for v in "xy" if (e := draw(st.integers(0, 2))))
        terms[mono] = draw(coefficients)
    return Scalar(terms)


numbers = st.integers(-6, 6) | rationals | st.integers(-6, 6).map(Fraction)
steps = st.lists(st.one_of(
    st.tuples(st.sampled_from(["+", "-", "*", "r+", "r-", "r*"]), numbers | small_polynomials()),
    st.tuples(st.just("/"), numbers.filter(bool)),
    st.tuples(st.just("**"), st.integers(0, 3)),
    st.tuples(st.just("neg"), st.none()),
    st.tuples(st.just("subst"), numbers | small_polynomials()),
), max_size=6)


REF_OPS = {"+": _ref_add, "-": lambda p, q: _ref_add(p, q, -1), "*": _ref_mul}


def _step(acc, op, x):
    """One step on a Scalar and on its reference form."""
    got, ref = acc
    if op.lstrip("r") in REF_OPS:  # "r-" is x - acc
        f = REF_OPS[op.lstrip("r")]
        return OPS[op](got, x), f(_ref(x), ref) if op[0] == "r" else f(ref, _ref(x))
    if op == "/":
        return got / x, {m: c / Fraction(x) for m, c in ref.items()}
    if op == "**":
        return got ** x, _ref_pow(ref, x)
    if op == "neg":
        return -got, {m: -c for m, c in ref.items()}
    return got.substitute({"x": x}), _ref_substitute(ref, "x", _ref(x))


@given(small_polynomials(), steps)
@settings(max_examples=150, deadline=None)
def test_operations_match_a_fraction_reference_and_store_ints_where_integral(start, chain):
    """Chains of + - * / ** negation and substitution over polynomials with
    integral and non-integral coefficients, mixed with int and Fraction
    operands: each result equals the reference computed in Fractions alone,
    stores an int exactly where a coefficient is integral, and hands out
    its rational value as a Fraction."""
    acc = (start, _ref(start))
    for op, x in [(None, None), *chain]:
        if op is not None:
            acc = _step(acc, op, x)
        got, ref = acc
        assert got.terms == ref
        assert all(_canonical(c) for c in got.terms.values())
        assert all(list(m) == sorted(m) and all(e for _, e in m) for m in got.terms)
        assert got == Scalar(ref) and hash(got) == hash(Scalar(ref))
        if got.is_rational():
            value = got.as_rational()
            assert type(value) is Fraction and value == ref.get((), 0)


@pytest.mark.parametrize("operand", [
    0, 1, -2, Fraction(3, 4), Fraction(6, 3), 0.5, -1.25, srat(5, 3), srat(2), ZERO, ONE,
    Scalar.var("x") + 1, Scalar.var("x") * srat(1, 3), Scalar.var("y") * Scalar.var("x")])
def test_every_operand_type_matches_the_fraction_reference(operand):
    """int, Fraction, float, plain-rational and symbolic operands on either
    side of * + - and, for a nonzero constant, under /: each result equals
    the reference in Fractions and stores an int where integral."""
    x = Scalar.var("x")
    k = _ref(operand)
    for s in (ZERO, ONE, srat(-3, 4), x * srat(1, 2) + 3, x * x - x * srat(2, 3)):
        cases = [(s * operand, _ref_mul(_ref(s), k)), (operand * s, _ref_mul(k, _ref(s))),
                 (s + operand, _ref_add(_ref(s), k)), (operand + s, _ref_add(k, _ref(s))),
                 (s - operand, _ref_add(_ref(s), k, -1)), (operand - s, _ref_add(k, _ref(s), -1))]
        if not isinstance(operand, Scalar) and operand:
            cases.append((s / operand, {m: c / Fraction(operand) for m, c in _ref(s).items()}))
        for got, want in cases:
            assert type(got) is Scalar and got.terms == want, (s, operand)
            assert all(_canonical(c) for c in got.terms.values())


def test_rational_inputs_come_out_exact():
    # the parser divides by as_rational(), a Fraction: 1/3 stays exact
    for text in ("1/3", "(2)/(6)"):
        got = parse_scalar(text)
        assert got == Fraction(1, 3) and type(got.terms[()]) is Fraction
        assert type(got.as_rational()) is Fraction
    x = Scalar.var("x")
    assert (x / 3).terms == {(("x", 1),): Fraction(1, 3)}
    assert (x * 6 / 3).terms == {(("x", 1),): 2} and type((x * 6 / 3).terms[(("x", 1),)]) is int
    assert type(srat(Fraction(6, 3)).terms[()]) is int
    assert type(Scalar.from_rational(Fraction(4, 2)).as_rational()) is Fraction
    assert type(Scalar.from_rational(0).as_rational()) is Fraction


def test_a_symbolic_value_has_no_rational_and_no_negative_power():
    with pytest.raises(ValueError) as info:
        (Scalar.var("c") + 1).as_rational()
    assert str(info.value) == "not a plain rational: 1 + c"
    for base in (srat(2), Scalar.var("c")):
        with pytest.raises(ValueError) as info:
            base ** -1
        assert str(info.value) == "negative powers not supported"
