"""The gl2(n/1) family: brackets, odd-multinomial calculus, adjoint
operators, Casimirs, characteristic identities and family data."""

import hashlib
from fractions import Fraction
from math import comb

import pytest

from quadlie.gl2n1 import (
    CharIdentity,
    FamilyParams,
    Gl2n1,
    Weight,
    build,
    casimirs,
    char_roots,
    family_data,
    lam_prime,
    projector,
    reduced_char_poly,
    uni_mod,
    uni_mul,
    uni_trim,
)
from quadlie.fock import lambda3_presentation
from quadlie.ncpoly import NCPoly
from quadlie.pbw import MAX_RELATIONS
from quadlie.scalars import Scalar, srat


def _nf(alg, poly):
    return alg.rewrite.normal_form(poly)


def _anti(alg, u, v):
    return _nf(alg, u * v + v * u)


# -- n = 2 degenerate structure ---------------------------------------


def test_n2_d_tensor_vanishes():
    assert build(2).presentation.d == {}


def test_n2_bracket_table():
    alg = build(2)
    c = alg.central
    one = NCPoly.one(alg.alphabet)
    expected = {
        (1, 1): -alg.E(2, 2) + one.scale(c),
        (1, 2): alg.E(1, 2),
        (2, 1): alg.E(2, 1),
        (2, 2): -alg.E(1, 1) + one.scale(c),
    }
    for (i, j), rhs in expected.items():
        assert _anti(alg, alg.Qbar(i), alg.Q(j)) == _nf(alg, rhs)


# dumps of build(n, c) for n = 2..6, c in (None, 1, 5/3), then of the
# Lambda^3 presentation, hashed in that order
_BUILTIN_DUMPS_SHA256 = "79050094c44fe7955c345c5b537820023b2871c0dfa75e27adb2f7915b87e951"


def test_builtin_presentations_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 7):
        for c in (None, Fraction(1), Fraction(5, 3)):
            digest.update(build(n, c).presentation.dumps().encode())
    digest.update(lambda3_presentation().dumps().encode())
    assert digest.hexdigest() == _BUILTIN_DUMPS_SHA256


# -- odd multinomial calculus -----------------------------------------


def test_sbar_n2_explicit():
    alg = build(2)
    assert alg.sbar(()) == alg.Qbar(1) * alg.Qbar(2)


def test_sbar_repeated_index_vanishes():
    alg = build(3)
    assert alg.sbar((2, 2)).is_zero()


def test_sbar_index_out_of_range_rejected():
    alg = build(3)
    for idx in ((4,), (1, 0), (2, -1)):
        with pytest.raises(IndexError) as info:
            alg.sbar(idx)
        assert str(info.value) == f"index {idx[-1]} out of range 1..3"


def test_uni_mod_needs_a_monic_modulus():
    p = [srat(1), srat(2), srat(3)]  # 3 x^2 + 2 x + 1
    for modulus in ([srat(1), srat(2)], [srat(1), srat(1, 2)], []):
        with pytest.raises(ValueError) as info:
            uni_mod(p, modulus)
        assert str(info.value) == "modulus must be monic"
    assert uni_mod(p, [srat(1), srat(1)]) == [srat(2)]  # p(-1)


@pytest.mark.parametrize("n", [3, 4])
def test_qbar_annihilates_sbar(n):
    alg = build(n)
    for i in range(1, n + 1):
        assert _nf(alg, alg.Qbar(i) * alg.sbar(())).is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_qbar_on_sbar_single(n):
    alg = build(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = _nf(alg, alg.Qbar(i) * alg.sbar((j,)))
            want = alg.sbar(()) if i == j else NCPoly.zero(alg.alphabet)
            assert got == want


@pytest.mark.parametrize("n", [3, 4])
def test_qbar_on_sbar_pair(n):
    alg = build(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                got = _nf(alg, alg.Qbar(i) * alg.sbar((j, k)))
                want = NCPoly.zero(alg.alphabet)
                if i == j:
                    want = want + alg.sbar((k,))
                if i == k:
                    want = want - alg.sbar((j,))
                assert got == _nf(alg, want)


@pytest.mark.parametrize("n", [3, 4])
def test_even_bracket_on_sbar(n):
    # [E^i_j, Sbar_K] = delta(i,j) Sbar_K - sum_t delta(i, K_t) Sbar_{K_t -> j}
    alg = build(n)
    ksets = [(), (1,), (2,)] + ([(1, 3)] if n >= 3 else [])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for K in ksets:
                s = alg.sbar(K)
                got = _nf(alg, alg.E(i, j) * s - s * alg.E(i, j))
                want = s if i == j else NCPoly.zero(alg.alphabet)
                for t, kt in enumerate(K):
                    if kt == i:
                        want = want - alg.sbar(K[:t] + (j,) + K[t + 1 :])
                assert got == _nf(alg, want)


@pytest.mark.parametrize("n", [3, 4])
def test_trace_bracket_counts_missing_indices(n):
    alg = build(n)
    tr = alg.E_trace()
    for K in [(), (1,), (1, 2), tuple(range(1, n + 1))]:
        s = alg.sbar(K)
        got = _nf(alg, tr * s - s * tr)
        assert got == _nf(alg, s.scale(n - len(K)))


@pytest.mark.parametrize("n", [3, 4])
def test_q_bracket_sbar_is_adjoint_A(n):
    alg = build(n)
    A = alg.adjoint_A()
    s = alg.sbar(())
    sgn = 1 if n % 2 == 0 else -1  # graded bracket: Sbar has parity n
    for i in range(1, n + 1):
        got = _nf(alg, alg.Q(i) * s - s.scale(sgn) * alg.Q(i))
        want = NCPoly.zero(alg.alphabet)
        for k in range(1, n + 1):
            want = want + alg.sbar((k,)) * A[k - 1][i - 1]
        assert got == _nf(alg, want)


@pytest.mark.parametrize("n", [3, 4])
def test_q_bracket_sbar_single_is_adjoint_B(n):
    alg = build(n)
    B = alg.adjoint_B()
    sgn = 1 if (n - 1) % 2 == 0 else -1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = alg.sbar((j,))
            got = _nf(alg, alg.Q(i) * s - s.scale(sgn) * alg.Q(i))
            want = NCPoly.zero(alg.alphabet)
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    want = want + alg.sbar((k, l)) * B[(k, l, i, j)]
            assert got == _nf(alg, want)


ADJOINT_GRID = [(n, c) for n in (2, 3, 4, 5) for c in (None, Fraction(5, 3))]


def test_adjoint_A_exact_closed_form():
    # A^i_j = (E^2)^i_j - (<E>+n-2) E^i_j
    #         - (1/2) delta (<E^2> - <E>^2 - (n-3)<E>) + (c-(n-1)) delta
    for n, c in ADJOINT_GRID:
        alg = build(n, c)
        tr = alg.E_trace()
        tr2 = sum((alg.E2(i, i) for i in range(1, n + 1)), NCPoly.zero(alg.alphabet))
        one = NCPoly.one(alg.alphabet)
        A = alg.adjoint_A()
        assert len(A) == n and all(len(row) == n for row in A)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = alg.E2(i, j) - (tr + one.scale(n - 2)) * alg.E(i, j)
                if i == j:
                    want = want + (tr2 - tr * tr - tr.scale(n - 3)).scale(
                        srat(-1, 2)
                    )
                    want = want + one.scale(alg.central - (n - 1))
                assert A[i - 1][j - 1] == want, (n, c, i, j)


def _adjoint_B_reference(alg):
    """The docstring's B^{kl}_{ij} = X^{kl}_{ij} - X^{lk}_{ij} over every
    slot, each delta written out as a 0/1 factor."""
    n = alg.n
    tr = alg.E_trace()
    tr2 = sum((alg.E2(i, i) for i in range(1, n + 1)), NCPoly.zero(alg.alphabet))
    one = NCPoly.one(alg.alphabet)
    rng = range(1, n + 1)
    F = {(a, b): alg.E2(a, b) - alg.E(a, b) * (tr + one.scale(n - 3))
         for a in rng for b in rng}
    dd = (tr2 - tr * tr - tr.scale(n - 5)).scale(srat(-1, 2)) + one.scale(
        alg.central - 2 * (n - 2))

    def delta(a, b):
        return 1 if a == b else 0

    def X(k, l, i, j):
        return (F[k, i].scale(delta(l, j)) + alg.E(l, j).scale(delta(k, i))
                + dd.scale(delta(k, i) * delta(l, j)))

    return [((k, l, i, j), X(k, l, i, j) - X(l, k, i, j))
            for k in rng for l in rng for i in rng for j in rng]


def test_adjoint_B_exact_closed_form():
    """Every one of the n^4 entries, zeros included, in key order, against
    the dense reference; the delta-delta constant is c - 2(n-2)."""
    for n, c in ADJOINT_GRID:
        alg = build(n, c)
        B = alg.adjoint_B()
        want = _adjoint_B_reference(alg)
        assert list(B) == [key for key, _ in want]
        for key, value in want:
            assert B[key] == value, (n, c, key)


# -- weights, Casimirs, characteristic identities ---------------------


def rho0(n):
    """Half-sum of positive even roots: ((n-1)/2, (n-3)/2, ...)."""
    return Weight([Fraction(n + 1 - 2 * r, 2) for r in range(1, n + 1)])


def test_rho_vectors():
    assert rho0(3) == Weight([1, 0, -1])
    assert lam_prime(Weight([Fraction(1, 2)] * 3)) == Weight([Fraction(-1, 2)] * 3)
    assert lam_prime(Weight([2, 1, 0])) == Weight([1, 0, -1])


def test_casimir_eigenvalues():
    assert casimirs(Weight([0, 0])) == (Scalar.coerce(0), Scalar.coerce(0))
    c1, c2 = casimirs(Weight([1, 0]))
    assert c1 == 1 and c2 == 2


def test_char_roots_and_retention():
    ci = char_roots(Weight([1, 1, 0, 0]))
    assert [r.as_rational() for r in ci.roots] == [4, 3, 1, 0]
    assert ci.retained == [False, True, False, True]
    assert [s for s, _ in ci.retained_roots()] == [2, 4]
    assert [r.as_rational() for r in ci.dual_roots] == [2, 2, 3, 3]


def test_family_retained_roots_are_mubar_nubar_minus_one():
    params = FamilyParams(4, 2, 3, 1)
    ci = char_roots(lam_prime(params.weight()))
    retained = ci.retained_roots()
    assert len(retained) == 2
    (s1, r1), (s2, r2) = retained
    assert (s1, s2) == (params.r, params.n)
    assert r1 == params.mubar - 1
    assert r2 == params.nubar - 1


def test_rectangular_full_r_single_retained_root():
    params = FamilyParams(3, 3, 2, 0)
    ci = char_roots(lam_prime(params.weight()))
    retained = ci.retained_roots()
    assert len(retained) == 1
    assert retained[0][0] == 3
    assert retained[0][1] == params.mubar - 1


def test_projectors_resolve_identity_and_annihilate():
    ci = char_roots(Weight([1, 1, 0, 0]))
    p2 = projector(ci, 2)
    p4 = projector(ci, 4)
    # partition of unity on the retained spectrum
    total = uni_trim([a + b for a, b in zip(p2, p4)])
    assert total == [srat(1)]
    # orthogonality modulo the reduced characteristic polynomial
    assert uni_mod(uni_mul(p2, p4), reduced_char_poly(ci)) == []
    # p2 is 1 at the root 3 and 0 at the root 0, p4 the other way round
    values = {x: [sum((a * x ** k for k, a in enumerate(p)), Scalar()) for p in (p2, p4)]
              for x in (3, 0)}
    assert values == {3: [1, 0], 0: [0, 1]}


def test_projector_symbolic_two_roots():
    a, b = Scalar.var("mubar"), Scalar.var("nubar")
    # quadratic (E-a)(E-b); Lagrange factors (E-b)/(a-b) and (E-a)/(b-a)
    quad = uni_mul([-a, srat(1)], [-b, srat(1)])
    assert uni_mod(uni_mul([-b, srat(1)], [-a, srat(1)]), quad) == []
    ea, eb = [-a, srat(1)], [-b, srat(1)]
    diff = uni_trim([x - y for x, y in zip(eb, ea)])
    assert diff == [a - b]


def test_projector_rejects_unretained_root():
    ci = char_roots(Weight([1, 1, 0, 0]))
    with pytest.raises(ValueError):
        projector(ci, 1)


# -- closed family data ------------------------------------------------


def _symbolic_params(n, r):
    mu, nu = Scalar.var("mubar"), Scalar.var("nubar")
    # choose mu so that the barred label is exactly the symbol mubar
    return FamilyParams(n, r, mu - (n - r), nu)


def test_family_casimirs_match_weight_casimirs():
    for n, r, mu, nu in ((3, 1, 4, 2), (4, 2, 3, 1), (5, 3, 5, 0)):
        params = FamilyParams(n, r, mu, nu)
        data = family_data(params, 0)
        c1, c2 = casimirs(lam_prime(params.weight()))
        assert data["C1_prime"] == c1
        assert data["C2_prime"] == c2


def test_family_c2_identity():
    for n in range(3, 7):
        for r in range(1, n + 1):
            data = family_data(_symbolic_params(n, r), Scalar.var("c"))
            mb, nb = data["mubar"], data["nubar"]
            want = (mb + nb - 2) * data["C1_prime"] - (mb - 1) * (nb - 1) * n
            assert (data["C2_prime"] - want).is_zero()


def test_family_reduced_A_form_closed():
    # A reduces to A_E * E + A_delta with
    # A_E = -[(r-1) mubar + (n-r-1) nubar - r(n-r)]
    for n in range(3, 7):
        for r in range(1, n + 1):
            data = family_data(_symbolic_params(n, r), Scalar.var("c"))
            mb, nb = data["mubar"], data["nubar"]
            e_coeff = -(
                mb * (r - 1) + nb * (n - r - 1) - Scalar.coerce(r * (n - r))
            )
            assert (data["A_E"] - e_coeff).is_zero()
            inner = -e_coeff - 1
            d_coeff = (
                Scalar.var("c")
                - (n - 1)
                + (mb - 1) * (nb - 1) * Fraction(n - 2, 2)
                + data["C1_prime"] * inner / 2
            )
            assert (data["A_delta"] - d_coeff).is_zero()


def test_family_reduced_B_form_coefficients():
    # B reduces to (s'-b1)(E delta) - bbar1 (delta E) + (b0-p')(delta delta)
    for n in range(3, 7):
        for r in range(1, n + 1):
            data = family_data(_symbolic_params(n, r), Scalar.var("c"))
            assert (data["B_Edelta"] - (data["A_E"] + 1)).is_zero()
            assert data["B_deltaE"] == 1
            sp, pp = data["s_prime"], data["p_prime"]
            b0 = data["b0"]
            assert (data["B_deltadelta"] - (b0 - pp)).is_zero()
            # coefficient interrelations
            assert (data["b1"] - (data["a1"] - 1)).is_zero()
            assert data["bbar1"] == -1
            assert (data["a0"] - data["b0"] - (data["C1_prime"] - 1)).is_zero()


def test_build_refuses_past_rule_budget():
    # C(n^2 + 2n, 2) + 2n rules: 522,815 at n = 31, refused before any
    # tensor is built; n = 30 (460,380) is the largest admitted
    with pytest.raises(ValueError, match="pairs"):
        build(31)
    assert comb(30 * 30 + 60, 2) + 60 <= MAX_RELATIONS < comb(31 * 31 + 62, 2)


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(3, 0, 1, 1)
    with pytest.raises(ValueError):
        FamilyParams(3, 4, 1, 1)
    sym = FamilyParams(3, 2, Scalar.var("mubar"), 0)
    with pytest.raises(ValueError):
        sym.weight()
