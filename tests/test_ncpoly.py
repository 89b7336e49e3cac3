"""Noncommutative polynomials over a graded alphabet."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie.ncpoly import Alphabet, AlphabetMismatch, NCPoly
from quadlie.scalars import Scalar, accumulate, srat

AB = Alphabet(2, 2)  # x0, x1 even; y0, y1 odd (ids 2, 3)


def gen(g):
    return NCPoly.generator(AB, g)


def test_free_product_words():
    p = gen(0) * gen(1)
    assert p.terms == {(0, 1): srat(1)}


def _product_by_terms(a, b):
    """a * b summed pair by pair over the terms, for the reference."""
    acc = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            accumulate(acc, w1 + w2, c1 * c2)
    return NCPoly(a.alphabet, acc)


def test_one_term_products_match_the_term_by_term_product():
    # integer, rational, symbolic and multi-monomial coefficients on words
    # of length 0 to 3, each product one concatenation; and a two-term
    # operand, which takes the general loop
    c = Scalar.var("c")
    coeffs = [1, -1, 3, srat(2, 3), c, -c * srat(1, 2), c + 1, 2 - c * c * srat(1, 3)]
    words = [(), (0,), (2, 1), (3, 3, 0)]
    monos = [NCPoly.monomial(AB, w, k) for w in words for k in coeffs]
    for a in monos + [monos[9] + monos[-1]]:
        for b in monos:
            got = a * b
            assert got == _product_by_terms(a, b)
            assert all(type(v) is Scalar and not v.is_zero() for v in got.terms.values())


def test_alphabet_rejects_repeated_names():
    with pytest.raises(ValueError, match="distinct"):
        Alphabet(1, 1, names=["g", "g"])
    assert Alphabet(1, 1, names=["g", "h"]).names == ("g", "h")


@pytest.mark.parametrize("args, kind, message", [
    ((-1, 0), ValueError, "dimensions must be nonnegative"),
    ((0, -1), ValueError, "dimensions must be nonnegative"),
    ((1, 1, ["g"]), ValueError, "wrong number of generator names"),
    ((1, 1, ["g", "h", "k"]), ValueError, "wrong number of generator names"),
])
def test_alphabet_rejects_negative_counts_and_a_wrong_name_count(args, kind, message):
    with pytest.raises(kind) as info:
        Alphabet(*args)
    assert str(info.value) == message


def test_even_and_odd_indices_out_of_range_rejected():
    for method, kind, bad in ((AB.even, "even", (2, -1)), (AB.odd, "odd", (2, -1))):
        for i in bad:
            with pytest.raises(IndexError) as info:
                method(i)
            assert str(info.value) == f"{kind} index {i} out of range"
    assert (AB.even(1), AB.odd(0), AB.odd(1)) == (1, 2, 3)


def test_generator_ids_must_be_ints():
    # 1.0 and True hash and compare equal to 1, so a range check alone
    # would take them for generator 1
    ab = Alphabet(2, 1)
    for g in (1.0, True, 1.5, "1"):
        with pytest.raises(TypeError, match="is not an int"):
            ab.parity(g)
        with pytest.raises(TypeError, match="is not an int"):
            NCPoly.monomial(ab, (0, g))
    assert [ab.parity(g) for g in range(3)] == [0, 0, 1]


def test_bilinearity():
    p = (gen(0) + gen(1)) * gen(0)
    assert p.terms == {(0, 0): srat(1), (1, 0): srat(1)}


def test_scalar_coefficients_multiply():
    p = gen(0).scale(srat(2, 3)) * gen(2).scale(srat(3))
    assert p.terms == {(0, 2): srat(2)}


def test_a_scalar_left_operand_scales_like_a_right_one():
    c = Scalar.var("c")
    p = gen(0) * gen(2) * srat(1, 2) + gen(1) - gen(3).scale(c)
    assert srat(2) * p == p * srat(2) == p.scale(2) == 2 * p
    assert c * p == p.scale(c) == p * c
    assert Fraction(1, 3) * p == p.scale(Fraction(1, 3)) and srat(0) * p == NCPoly.zero(AB)


@pytest.mark.parametrize("op, sign", [(operator.add, "+"), (operator.sub, "-")])
def test_adding_a_number_to_a_poly_is_a_type_error(op, sign):
    # only an NCPoly adds to an NCPoly; a constant goes in as NCPoly.one(ab).scale(k)
    for left, right, names in ((gen(0), 1, "'NCPoly' and 'int'"),
                               (1, gen(0), "'int' and 'NCPoly'"),
                               (gen(0), srat(1), "'NCPoly' and 'Scalar'")):
        with pytest.raises(TypeError) as info:
            op(left, right)
        assert str(info.value) == f"unsupported operand type(s) for {sign}: {names}"


def test_alphabet_mismatch_rejected():
    other = Alphabet(3, 0)
    with pytest.raises(AlphabetMismatch):
        gen(0) * NCPoly.generator(other, 0)


def test_alphabet_repr_stays_short_and_tells_names_apart():
    # named like gl2(30/1)'s 960 generators: E1_1 .. E30_30, Qbar1 .., Q1 ..
    n = 30
    names = ([f"E{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
             + [f"Qbar{i}" for i in range(1, n + 1)] + [f"Q{i}" for i in range(1, n + 1)])
    big = repr(Alphabet(n * n, 2 * n, names))
    assert len(big) <= 200
    for k in (0, len(names) - 1):  # one name changed, first or last
        renamed = names[:k] + ["Z"] + names[k + 1:]
        assert repr(Alphabet(n * n, 2 * n, renamed)) != big
    assert repr(Alphabet(n * n, 2 * n)) != big


def test_no_zero_terms_kept():
    p = gen(0) - gen(0)
    assert p.is_zero()
    assert p.terms == {}


polys = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=3), max_size=3),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    ),
    max_size=4,
).map(
    lambda entries: NCPoly(
        AB,
        {
            tuple(w): srat(Fraction(c))
            for w, c in (
                (w, sum(cc for ww, cc in entries if tuple(ww) == tuple(w)))
                for w, _ in entries
            )
            if c
        },
    )
)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a


@given(polys)
@settings(max_examples=40, deadline=None)
def test_degree_additive_and_units(p):
    one = NCPoly.one(AB)
    assert p * one == p
    assert one * p == p
    q = p * gen(0)
    for word in q.terms:
        assert word[-1] == 0


C = Scalar.var("c")
coeffs = (
    st.sampled_from([0, 1, -1])
    | st.fractions(min_value=-3, max_value=3, max_denominator=3)
    | st.builds(lambda a, b: Scalar.coerce(a) + C * b,
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                st.sampled_from([0, 1, -1, Fraction(1, 2)]))
)
monomials = st.builds(
    lambda w, c: NCPoly.monomial(AB, w, c),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2), coeffs,
)
small_polys = monomials | st.lists(monomials, max_size=3).map(
    lambda ms: sum(ms, NCPoly.zero(AB)))
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "r*"]), small_polys),
        st.tuples(st.just("neg"), st.none()),
        st.tuples(st.just("scale"), coeffs),
    ),
    max_size=5,
)


def _constant(coeff) -> NCPoly:
    return NCPoly(AB, {(): Scalar.coerce(coeff)})


def _step(acc, op, x, via_mul):
    if op == "+":
        return acc + x
    if op == "-":
        return acc - x
    if op == "*":
        return acc * x
    if op == "r*":
        return x * acc
    if op == "neg":
        return acc * _constant(-1) if via_mul else -acc
    return acc * _constant(x) if via_mul else acc.scale(x)


def _assert_canonical(p: NCPoly) -> None:
    assert all(type(v) is Scalar and not v.is_zero()
               and all((type(f) is int and f) or (type(f) is Fraction and f.denominator > 1)
                       for f in v.terms.values())
               for v in p.terms.values())
    rebuilt = NCPoly(AB, dict(p.terms))
    assert p == rebuilt and hash(p) == hash(rebuilt)


@given(small_polys, steps)
@settings(max_examples=100, deadline=None)
def test_ops_stay_canonical(start, chain):
    """Monomials and chains of +, -, *, negation and scaling over int,
    Fraction and Scalar coefficients, with and without c and including 0,
    1 and -1.  The constructors that skip the zero filter store only
    nonzero Scalars: every result equals (and hashes as) its rebuild
    through the public constructor, and agrees with the chain that scales
    and negates through a product with a constant."""
    _assert_canonical(start)
    got, want = start, start
    for op, x in chain:
        got, want = _step(got, op, x, False), _step(want, op, x, True)
        _assert_canonical(got)
        assert got == want and hash(got) == hash(want)
