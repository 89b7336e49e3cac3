"""Acceptance gate: one check per shipped guarantee, one summary line each.

Run with `python3 -m pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from quadlie.atypicality import (
    level1_poly,
    one_step_analysis,
    table_zero_step,
    zero_step,
)
from quadlie.fock import (
    SparseOp,
    anticommutator,
    bracket_polynomial_check,
    fermion_ops,
    zero_step_demo,
)
from quadlie.gl2n1 import (
    FamilyParams,
    Weight,
    build,
    char_roots,
    family_data,
    lam_prime,
    projector,
    reduced_char_poly,
    uni_mod,
    uni_mul,
    uni_trim,
)
from quadlie.linalg import rank_of_rows
from quadlie.ncpoly import NCPoly
from quadlie.pbw import (
    GeneratorOrder,
    RewriteSystem,
    check_admissible,
    inadmissible_dependence_witness,
    pbw_monomial_count,
    serre_module_check,
)
from quadlie.scalars import Scalar, srat

from test_presentation import _random_presentation, _verdicts_agree


def _report(k, passed, summary):
    print(f"\nACCEPTANCE {k}: {'PASS' if passed else 'FAIL'} — {summary}")
    assert passed, summary


def test_acceptance_1_jacobi_family():
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        pres = build(n).presentation
        comp = pres.check_component_jacobi()
        abst = pres.check_abstract_jacobi()
        assert comp.passed and abst.passed, f"n={n} Jacobi failure"
    elapsed = time.monotonic() - start
    _report(
        1, elapsed < 60,
        f"gl2(n/1) n=2..5 pass both Jacobi checkers in {elapsed:.1f}s",
    )


def test_acceptance_2_checker_equivalence():
    rng = random.Random(2024)
    agreements = failures_seen = 0
    for _ in range(60):
        pres = _random_presentation(rng)
        assert _verdicts_agree(pres)
        agreements += 1
        if not pres.check_component_jacobi().passed:
            failures_seen += 1
    _report(
        2, agreements >= 50 and failures_seen >= 10,
        f"{agreements} random presentations, checkers agree "
        f"({failures_seen} genuine failures exercised)",
    )


def test_acceptance_3_n2_degeneracy():
    alg = build(2)
    nf = alg.rewrite.normal_form
    one = NCPoly.one(alg.alphabet)
    c = alg.central
    table = {
        (1, 1): -alg.E(2, 2) + one.scale(c),
        (1, 2): alg.E(1, 2),
        (2, 1): alg.E(2, 1),
        (2, 2): -alg.E(1, 1) + one.scale(c),
    }
    ok = alg.presentation.d == {}
    for (i, j), rhs in table.items():
        lhs = nf(alg.Qbar(i) * alg.Q(j) + alg.Q(j) * alg.Qbar(i))
        ok = ok and lhs == nf(rhs)
    _report(3, ok, "n=2 has d == 0 and the four displayed anticommutators")


def test_acceptance_4_pbw():
    alg = build(3)
    serre_ok, _ = serre_module_check(alg.rewrite, max_len=4)

    ab = alg.alphabet
    rows = []
    words = [()]
    frontier = [()]
    span_ok = True
    expected = pbw_monomial_count(alg.rewrite, 0)
    for deg in (1, 2, 3):
        frontier = [(g,) + w for w in frontier for g in range(ab.size)]
        words += frontier
        expected += pbw_monomial_count(alg.rewrite, deg)
    for w in words:
        nf = alg.rewrite.normal_form(NCPoly(ab, {w: srat(1)}))
        rows.append({ww: v for ww, v in nf.terms.items() if v.is_rational()})
    rows = [{w: v.as_rational() for w, v in r.items()} for r in rows]
    span_ok = rank_of_rows(rows) == expected

    size = ab.size
    bad_order = GeneratorOrder([9] + list(range(9)) + list(range(10, size)))
    admissible, _ = check_admissible(alg.presentation, bad_order)
    witness = inadmissible_dependence_witness(alg.presentation, bad_order)
    _report(
        4, serre_ok and span_ok and not admissible and not witness.is_zero(),
        "gl2(3/1): module relations to degree 4, normal-form spans match "
        "ordered-monomial counts, inadmissible order yields a nonzero witness",
    )


def test_acceptance_5_sbar_calculus():
    ok = True
    for n in (3, 4):
        alg = build(n)
        nf = alg.rewrite.normal_form
        zero = NCPoly.zero(alg.alphabet)
        s_full = alg.sbar(())
        rng = range(1, n + 1)
        for i in rng:
            ok = ok and nf(alg.Qbar(i) * s_full).is_zero()
            for j in rng:
                got = nf(alg.Qbar(i) * alg.sbar((j,)))
                ok = ok and got == (s_full if i == j else zero)
                for k in rng:
                    got = nf(alg.Qbar(i) * alg.sbar((j, k)))
                    want = zero
                    if i == j:
                        want = want + alg.sbar((k,))
                    if i == k:
                        want = want - alg.sbar((j,))
                    ok = ok and got == nf(want)
        tr = alg.E_trace()
        for K in ((), (1,), (1, 2)):
            s = alg.sbar(K)
            ok = ok and nf(tr * s - s * tr) == nf(s.scale(n - len(K)))
        # A exactly in its closed form, and the adjoint brackets
        tr2 = alg.E2_trace()
        one = NCPoly.one(alg.alphabet)
        A = alg.adjoint_A()
        for i in rng:
            for j in rng:
                want = alg.E2(i, j) - (tr + one.scale(n - 2)) * alg.E(i, j)
                if i == j:
                    want = want + (tr2 - tr * tr - tr.scale(n - 3)).scale(
                        srat(-1, 2)
                    ) + one.scale(alg.central - (n - 1))
                ok = ok and A[i - 1][j - 1] == want
        sgn = 1 if n % 2 == 0 else -1
        for i in rng:
            got = nf(alg.Q(i) * s_full - s_full.scale(sgn) * alg.Q(i))
            want = zero
            for k in rng:
                want = want + alg.sbar((k,)) * A[k - 1][i - 1]
            ok = ok and got == nf(want)
        B = alg.adjoint_B()
        sgn = 1 if (n - 1) % 2 == 0 else -1
        for i in rng:
            for j in rng:
                s = alg.sbar((j,))
                got = nf(alg.Q(i) * s - s.scale(sgn) * alg.Q(i))
                want = zero
                for k in rng:
                    for l in range(k + 1, n + 1):
                        want = want + alg.sbar((k, l)) * B[(k, l, i, j)]
                ok = ok and got == nf(want)
    _report(
        5, ok,
        "odd-multinomial calculus holds for n=3,4 with the exact closed "
        "form of A",
    )


def test_acceptance_6_family_data():
    mu, nu, c = Scalar.var("mubar"), Scalar.var("nubar"), Scalar.var("c")
    ok = True
    for n in range(3, 7):
        for r in range(1, n + 1):
            params = FamilyParams(n, r, mu - (n - r), nu)
            d = family_data(params, c)
            mb, nb = d["mubar"], d["nubar"]
            # (ii) Casimir closed forms and the C2' identity
            c2_identity = (mb + nb - 2) * d["C1_prime"] - (mb - 1) * (
                nb - 1
            ) * n
            ok = ok and (d["C2_prime"] - c2_identity).is_zero()
            # (iii) reduced A-form coefficients
            e_coeff = -(
                mb * (r - 1) + nb * (n - r - 1) - Scalar.coerce(r * (n - r))
            )
            ok = ok and (d["A_E"] - e_coeff).is_zero()
            inner = -e_coeff - 1
            d_coeff = (
                c - (n - 1)
                + (mb - 1) * (nb - 1) * Fraction(n - 2, 2)
                + d["C1_prime"] * inner / 2
            )
            ok = ok and (d["A_delta"] - d_coeff).is_zero()
            # (iv) reduced B-form coefficients, per the schematic derivation
            ok = ok and (d["B_Edelta"] - (d["A_E"] + 1)).is_zero()
            ok = ok and d["B_deltaE"] == 1
            ok = ok and (d["B_deltadelta"] - (d["b0"] - d["p_prime"])).is_zero()
    # (i) retained roots are mubar-1 and nubar-1 (rational samples)
    for nn, rr, mm, vv in ((3, 1, 4, 2), (4, 2, 3, 1), (5, 3, 5, 0)):
        params = FamilyParams(nn, rr, mm, vv)
        retained = char_roots(lam_prime(params.weight())).retained_roots()
        roots = [root for _, root in retained]
        ok = ok and roots[0] == params.mubar - 1
        if rr < nn:
            ok = ok and roots[-1] == params.nubar - 1
    _report(
        6, ok,
        "closed family data matches its reduced forms identically for n <= 6",
    )


def test_acceptance_7_zero_step_table():
    published = [
        (3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 4), (7, 2, 5), (7, 3, 2),
        (7, 4, 1), (8, 2, 6), (9, 2, 7), (9, 5, 1), (10, 2, 8), (10, 4, 2),
    ]
    start = time.monotonic()
    rows = table_zero_step(10)
    elapsed = time.monotonic() - start
    extras = sorted(set(rows) - set(published))
    matches = rows == published and elapsed < 1
    if not matches:
        print(
            f"\nACCEPTANCE 7: FAIL — table has {len(rows)} rows, not the 12 "
            f"published ones; complete enumeration of the defining condition "
            f"also yields {extras} (each independently verified zero-step); "
            "see the decisions ledger"
        )
        assert set(published) <= set(rows)
        assert elapsed < 1
        pytest.xfail(
            "published table omits two solutions of its own condition"
        )
    _report(7, True, "zero-step table matches the published 12 rows")


def test_acceptance_8_zero_step_vanishing():
    ok = True
    for n, r, k in table_zero_step(10):
        params = FamilyParams(n, r, k, 0)
        residual = family_data(params, 0)["A_delta"]
        c = -residual.as_rational()
        w = params.weight()
        ok = ok and level1_poly(w, c, r).is_zero()
        ok = ok and level1_poly(w, c, n).is_zero()
        ok = ok and not (
            level1_poly(w, c + 1, r).is_zero()
            and level1_poly(w, c + 1, n).is_zero()
        )
        ok = ok and zero_step(params, c) is True
    _report(
        8, ok,
        "every table row: both level-1 values vanish at the solved charge "
        "and a unit perturbation breaks at least one",
    )


def test_acceptance_9_one_step_nonexistence():
    ok = True
    for n in range(3, 9):
        res = one_step_analysis(n, scan_bound=10)
        ok = ok and res["one_step_exists"] is False
        ok = ok and res["conclusion"] == "no one-step modules"
        ok = ok and res["branch_s_eq_b1"]["residual"] == 2 - n
        ok = ok and res["scan_counterexamples"] == []
    _report(
        9, ok,
        "no one-step modules for n=3..8; branch residual 2-n nonzero; "
        "grid scan over [-10,10]^3 empty",
    )


def test_acceptance_10_fock():
    start = time.monotonic()
    ann, cre = fermion_ops(4)
    ident = SparseOp.identity(16)
    car = all(
        anticommutator(ann[i], cre[j])
        == (ident if i == j else SparseOp(16))
        and anticommutator(ann[i], ann[j]).is_zero()
        and anticommutator(cre[i], cre[j]).is_zero()
        for i in range(4)
        for j in range(4)
    )
    bracket = bracket_polynomial_check(4)
    demo = zero_step_demo(4)
    elapsed = time.monotonic() - start
    _report(
        10,
        car and bracket["holds"] is True and demo["passed"] and elapsed < 30,
        "exact CAR on 16 dims; bracket identity {Q, Qbar} = -1/4 (...) "
        "exact; occupation-2 module "
        f"zero-step with spectrum in {{1, 4}} ({elapsed:.1f}s)",
    )


def test_acceptance_11_projectors():
    # rational family instance
    ci = char_roots(Weight([1, 1, 0, 0]))
    p2, p4 = projector(ci, 2), projector(ci, 4)
    ok = uni_trim([a + b for a, b in zip(p2, p4)]) == [srat(1)]
    ok = ok and uni_mod(uni_mul(p2, p4), reduced_char_poly(ci)) == []
    # symbolic: roots mubar-1 and nubar-1 with denominators cleared
    a, b = Scalar.var("mubar") - 1, Scalar.var("nubar") - 1
    quad = uni_mul([-a, srat(1)], [-b, srat(1)])
    num_r, num_n = [-b, srat(1)], [-a, srat(1)]
    # (a-b) * (P[r]+P[n]) has numerator (E-b) - (E-a) = a-b
    ok = ok and uni_trim([x - y for x, y in zip(num_r, num_n)]) == [a - b]
    # (a-b)^2 * P[r]P[n] has numerator -(E-a)(E-b) = 0 mod the identity
    ok = ok and uni_mod(uni_mul(num_r, num_n), quad) == []
    _report(
        11, ok,
        "projectors resolve the identity and are orthogonal modulo the "
        "quadratic characteristic identity, rationally and symbolically",
    )
