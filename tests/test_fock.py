"""Fermionic Fock-space oracle: exact CAR, composite generators, the
bracket identity, and the occupation-2 zero-step demonstration."""

import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations
from unittest import mock

import pytest

from quadlie import fock
from quadlie.fock import (
    SparseOp,
    anticommutator,
    bracket_polynomial_check,
    composite_generators,
    fermion_ops,
    lambda3_presentation,
    occupation_basis,
    presentation_cross_check,
    zero_step_demo,
)
from quadlie.gl2n1 import type_one_presentation


def commutator(x, y):
    return x * y - y * x


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_canonical_anticommutation_relations(n):
    ann, cre = fermion_ops(n)
    dim = 1 << n
    ident = SparseOp.identity(dim)
    for i in range(n):
        for j in range(n):
            mixed = anticommutator(ann[i], cre[j])
            assert mixed == (ident if i == j else SparseOp(dim))
            assert anticommutator(ann[i], ann[j]).is_zero()
            assert anticommutator(cre[i], cre[j]).is_zero()


def test_fermion_ops_mode_range():
    with pytest.raises(ValueError):
        fermion_ops(0)
    with pytest.raises(ValueError):
        fermion_ops(15)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_bilinears_satisfy_gl_commutators(n):
    gens = composite_generators(n)
    e = gens["E"]
    dim = gens["dim"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    want = SparseOp(dim)
                    if j == k:
                        want = want + e[(i, l)]
                    if l == i:
                        want = want - e[(k, j)]
                    assert commutator(e[(i, j)], e[(k, l)]) == want


def test_repeated_index_composites_vanish():
    gens = composite_generators(4)
    assert gens["Q"][(1, 1, 2)].is_zero()
    assert gens["Qbar"][(3, 2, 2)].is_zero()


def test_number_operator_grades_composites():
    gens = composite_generators(4)
    qbar = gens["Qbar"][(1, 2, 3)]
    q = gens["Q"][(1, 2, 3)]
    assert commutator(gens["N"], qbar) == qbar * Fraction(3)
    assert commutator(gens["N"], q) == q * Fraction(-3)


def test_occupation_basis():
    assert occupation_basis(4, 0) == [0]
    assert len(occupation_basis(4, 2)) == 6
    assert all(bin(b).count("1") == 2 for b in occupation_basis(4, 2))


def test_bracket_polynomial_exact():
    report = bracket_polynomial_check(4)
    assert report["components_checked"] == 16
    # {Q, Qbar} = -1/4 (E_script^2 - (n+3-N) E_script + 4 delta), exactly
    assert report["holds"] is True


def test_zero_step_demo_passes():
    demo = zero_step_demo(4)
    assert demo["passed"] is True
    assert demo["occ2_dimension"] == 6
    assert demo["restricted_dimension"] == 24
    assert demo["q_annihilates"] and demo["qbar_annihilates"]
    assert demo["char_identity_holds"]
    assert demo["roots"] == (1, 4)
    assert demo["root_1_attained"] and demo["root_4_attained"]
    assert demo["rhs_vanishes"]
    # at n = 5 the right side reads M^2 - 6 M + 4, which M does not satisfy,
    # and Qbar maps occupation 2 to occupation 5
    demo5 = zero_step_demo(5)
    assert not demo5["rhs_vanishes"] and not demo5["passed"]
    assert demo5["q_annihilates"] is True and demo5["qbar_annihilates"] is False


def restrict(op, basis):
    """Dense matrix of the operator on the span of the given basis
    columns; raises if the operator does not preserve the span."""
    pos = {b: i for i, b in enumerate(basis)}
    mat = [[Fraction(0)] * len(basis) for _ in basis]
    for (r, c), val in op.data.items():
        if c in pos:
            if r not in pos:
                raise ValueError("operator does not preserve the subspace")
            mat[pos[r]][pos[c]] = val
    return mat


def test_restrict_requires_invariant_subspace():
    ann, cre = fermion_ops(3)
    basis1 = occupation_basis(3, 1)
    with pytest.raises(ValueError):
        restrict(ann[0], basis1)
    num = SparseOp(8)
    for i in range(3):
        num = num + cre[i] * ann[i]
    mat = restrict(num, basis1)
    assert mat == [
        [Fraction(int(r == c)) for c in range(3)] for r in range(3)
    ]


def test_lambda3_presentation_satisfies_jacobi():
    pres = lambda3_presentation()
    assert pres.n_even == 16 and pres.m_odd == 8
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed


def test_presentation_matches_fock_matrices():
    report = presentation_cross_check()
    assert report["relations_hold"] is True
    assert report["failures"] == []


def test_cross_check_multiplies_each_pair_of_matrices_once(monkeypatch):
    """No two SparseOp objects are multiplied twice in one cross-check; the
    operands are kept alive so that an id is never reused."""
    seen, operands = set(), []
    inner = SparseOp.__mul__

    def recorded(x, y):
        if isinstance(y, SparseOp):
            assert (id(x), id(y)) not in seen
            seen.add((id(x), id(y)))
            operands.append((x, y))
        return inner(x, y)

    monkeypatch.setattr(SparseOp, "__mul__", recorded)
    assert presentation_cross_check()["relations_hold"] is True
    assert len(seen) == 752


def _reference_failures(pres):
    """The cross-check done relation by relation on SparseOps: each bracket
    word's product formed anew, the right side summed as a SparseOp with
    rational entries and compared with the bracket's matrix."""
    n = 4
    gens = composite_generators(n)
    dim = gens["dim"]
    triples = list(combinations(range(1, n + 1), 3))
    mats = [*gens["E"].values(), *(gens["Qbar"][u] for u in triples),
            *(gens["Q"][u] for u in triples)]
    ne = pres.n_even
    evens, odds = range(ne), range(ne, ne + pres.m_odd)
    failures = []
    for kind, firsts, seconds in (("ee", evens, evens), ("mx", evens, odds),
                                  ("oo", odds, odds)):
        bracket_op = anticommutator if kind == "oo" else commutator
        for g1 in firsts:
            for g2 in seconds:
                rhs = SparseOp(dim)
                for word, val in pres.bracket(g1, g2).items():
                    op = (reduce(operator.mul, (mats[g] for g in word))
                          if word else SparseOp.identity(dim))
                    rhs = rhs + op * val.as_rational()
                if bracket_op(mats[g1], mats[g2]) != rhs:
                    failures.append((kind, g1 - firsts.start, g2 - seconds.start))
    return failures


def _lambda3_variant(k1=Fraction(-3, 4), a_value=Fraction(-1)):
    """`lambda3_presentation()` with k1 or the constant a replaced."""
    return type_one_presentation(
        4, 3, (k1, Fraction(1, 8), Fraction(1, 8), Fraction(-1, 24)),
        (Fraction(1, 4), Fraction(-1, 12)), a_value)


@pytest.mark.parametrize("change, count", [
    ({}, 0), ({"k1": Fraction(-1, 2)}, 32), ({"a_value": Fraction(-2)}, 8)])
def test_cross_check_failures_match_the_sparse_reference(change, count):
    """The cross-check's failure list equals the relation-by-relation
    reference, order included: empty on the Lambda^3 presentation, and
    32 and 8 odd-odd failures with k1 = -1/2 or a = -2 put in for it."""
    pres = _lambda3_variant(**change)
    assert pres.dumps() != lambda3_presentation().dumps() or not change
    with mock.patch.object(fock, "lambda3_presentation", lambda: pres):
        report = presentation_cross_check()
    want = _reference_failures(pres)
    assert report["failures"] == want and report["presentation"] is pres
    assert len(want) == count and all(kind == "oo" for kind, _, _ in want)
    assert report["relations_hold"] is (count == 0)


@pytest.mark.parametrize("op", [
    lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y])
def test_dimension_mismatch_raises(op):
    with pytest.raises(ValueError, match="dimension"):
        op(SparseOp.identity(2), SparseOp.identity(4))


@pytest.mark.parametrize("op, sign", [(operator.add, "+"), (operator.sub, "-")])
def test_adding_a_number_to_an_operator_is_a_type_error(op, sign):
    one = SparseOp.identity(2)
    for left, right, names in ((one, 1, "'SparseOp' and 'int'"),
                               (1, one, "'int' and 'SparseOp'")):
        with pytest.raises(TypeError) as info:
            op(left, right)
        assert str(info.value) == f"unsupported operand type(s) for {sign}: {names}"
    assert one + one == one * 2 and (one - one).is_zero()


def test_composite_triples_need_three_modes():
    with pytest.raises(ValueError) as info:
        composite_generators(2)
    assert str(info.value) == "composite triples need n >= 3"


def test_constructor_rejects_index_outside_dimension():
    for key in ((5, 7), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="outside dimension 2"):
            SparseOp(2, {key: 1})


def test_int_and_fraction_entries_compare_equal():
    ann, cre = fermion_ops(3)
    op = cre[0] * ann[1] + ann[2] * 3
    assert all(type(v) is int for v in op.data.values())
    as_fractions = SparseOp(op.dim, {k: Fraction(v) for k, v in op.data.items()})
    assert all(type(v) is Fraction for v in as_fractions.data.values())
    assert as_fractions == op
    assert as_fractions - op == SparseOp(op.dim)
    assert op * Fraction(1, 2) != op and op * Fraction(2) == op + op


def test_float_entry_stored_as_exact_fraction():
    op = SparseOp(2, {(0, 1): 0.1, (1, 0): 2})
    assert op.data[(0, 1)] == Fraction(0.1) != Fraction(1, 10)
    assert type(op.data[(0, 1)]) is Fraction and type(op.data[(1, 0)]) is int
    assert (op * 0.5).data[(1, 0)] == 1 and (op * 0).is_zero()
