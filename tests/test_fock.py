"""Fermionic Fock-space oracle: exact CAR, composite generators, the
bracket identity, and the occupation-2 zero-step demonstration."""

from fractions import Fraction

import pytest

from quadlie.fock import (
    SparseOp,
    anticommutator,
    bracket_polynomial_check,
    commutator,
    composite_generators,
    fermion_ops,
    lambda3_presentation,
    occupation_basis,
    presentation_cross_check,
    zero_step_demo,
)


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


def test_restrict_requires_invariant_subspace():
    ann, cre = fermion_ops(3)
    basis1 = occupation_basis(3, 1)
    with pytest.raises(ValueError):
        ann[0].restrict(basis1)
    num = SparseOp(8)
    for i in range(3):
        num = num + cre[i] * ann[i]
    mat = num.restrict(basis1)
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
