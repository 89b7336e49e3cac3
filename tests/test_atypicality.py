"""Level-1 atypicality: zero-step conditions, the zero-step table, and
the one-step exclusion."""

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from quadlie.atypicality import (
    atypicality_report,
    level1_poly,
    one_step_analysis,
    table_zero_step,
    zero_step,
    zero_step_equivalence_check,
)
import quadlie.atypicality
from quadlie.gl2n1 import (
    FamilyParams,
    Weight,
    _adjoint_coeffs,
    _casimirs,
    _composite_coeffs,
    _rect_casimirs,
    build,
    casimirs,
    char_roots,
    family_data,
    lam_prime,
)
from quadlie.scalars import Scalar

# all (n, r, k) with (r-1)(k+n-r) = r(n-r), k >= 1, 2 <= r <= n-1, n <= 10
COMPLETE_TABLE = [
    (3, 2, 1), (4, 2, 2), (5, 2, 3), (5, 3, 1), (6, 2, 4), (7, 2, 5),
    (7, 3, 2), (7, 4, 1), (8, 2, 6), (9, 2, 7), (9, 3, 3), (9, 5, 1),
    (10, 2, 8), (10, 4, 2),
]
PUBLISHED_TABLE = [
    (3, 2, 1), (4, 2, 2), (5, 2, 3), (6, 2, 4), (7, 2, 5), (7, 3, 2),
    (7, 4, 1), (8, 2, 6), (9, 2, 7), (9, 5, 1), (10, 2, 8), (10, 4, 2),
]


def _solved_central(params):
    """The unique central charge making the constant reduced-A coefficient
    vanish (it enters that coefficient with coefficient one)."""
    residual = family_data(params, 0)["A_delta"]
    assert residual.is_rational()
    return -residual.as_rational()


def test_table_complete_enumeration():
    assert table_zero_step(10) == COMPLETE_TABLE


def test_table_contains_published_rows():
    table = set(table_zero_step(10))
    for row in PUBLISHED_TABLE:
        assert row in table


def test_table_defining_condition():
    for n, r, k in table_zero_step(10):
        assert (r - 1) * (k + n - r) == r * (n - r)
        assert k >= 1 and 2 <= r <= n - 1


@pytest.mark.parametrize("n,r,k", COMPLETE_TABLE)
def test_table_rows_are_zero_step(n, r, k):
    params = FamilyParams(n, r, k, 0)
    c = _solved_central(params)
    assert zero_step(params, c) is True
    # independent oracle: the bracket vanishes identically on V_0(Lambda)
    assert zero_step_equivalence_check(params, c)
    # both retained level-1 polynomials vanish
    w = params.weight()
    assert level1_poly(w, c, r).is_zero()
    assert level1_poly(w, c, n).is_zero()
    # perturbing the central charge breaks atypicality
    assert zero_step(params, c + 1) is False
    assert not zero_step_equivalence_check(params, c + 1)
    assert not (
        level1_poly(w, c + 1, r).is_zero()
        and level1_poly(w, c + 1, n).is_zero()
    )


def test_zero_step_symbolic_central_returns_condition():
    params = FamilyParams(3, 2, 1, 0)
    cond = zero_step(params, Scalar.var("c"))
    assert isinstance(cond, Scalar)
    c_star = _solved_central(params)
    assert cond.substitute({"c": c_star}) == 0
    assert cond.substitute({"c": c_star + 1}) != 0


def test_zero_step_charge_independent_failure():
    # first condition fails for generic labels regardless of the charge
    params = FamilyParams(4, 2, 7, 0)
    assert family_data(params, 0)["A_E"] != 0
    assert zero_step(params, Scalar.var("c")) is False


def test_zero_step_full_rectangle():
    # (mu - (n/2)/(n-2))^2 = ((n/2)/(n-2))^2 - 2c/((n-1)(n-2)); n=4, mu=1, c=3
    assert zero_step(FamilyParams(4, 4, 1, 0), 3) is True
    assert zero_step(FamilyParams(4, 4, 1, 0), 2) is False


@pytest.mark.parametrize("n", range(3, 9))
def test_full_rectangle_condition_is_the_printed_form(n):
    """At r = n and symbolic mu, nu, c, zero_step equals the printed form
    (mu - h)^2 - h^2 + 2c/((n-1)(n-2)), h = (n/2)/(n-2), and also
    2/((n-1)(n-2)) times the level-1 value at alpha'_n, as Scalars and as text."""
    params = FamilyParams(n, n, MU, NU)
    h = Fraction(n, 2) / (n - 2)
    scale = Fraction(2, (n - 1) * (n - 2))
    printed = (MU - h) ** 2 - (h * h - C * scale)
    level1 = atypicality_report(params, C)["a_values"][n] * scale
    got = zero_step(params, C)
    assert got == printed == level1
    assert str(got) == str(printed) == str(level1)


@pytest.mark.parametrize("params", [FamilyParams(4, 2, 2, 0), FamilyParams(4, 4, 1, 0),
                                    FamilyParams(3, 2, Scalar.var("mu"), 0)])
def test_atypicality_report_forms_the_family_values_once(params, monkeypatch):
    """One `_family_values` call per report, also where it decides zero_step."""
    calls = []
    inner = quadlie.atypicality._family_values

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(quadlie.atypicality, "_family_values", counted)
    atypicality_report(params, Scalar.var("c"))
    assert len(calls) == 1


def test_zero_step_requires_n_at_least_three():
    with pytest.raises(ValueError):
        zero_step(FamilyParams(2, 1, 1, 0), 0)


def test_zero_step_equal_barred_labels_rejected():
    # mubar = nubar is outside the analysis hypothesis
    params = FamilyParams(4, 2, 0, 2)
    assert (params.mubar - params.nubar).is_zero()
    with pytest.raises(ValueError):
        zero_step(params, 0)
    with pytest.raises(ValueError, match="not retained"):
        atypicality_report(params, 0)


def test_trivial_weight_verdicts_need_the_shift_s_equal_r_retained():
    """Lambda = (0,0,0), c = 0: at r = 3 it is zero-step, as level1_poly at
    alpha'_3 vanishes; at r = 1 and 2, mu - nu = 0 and s = r is not retained,
    so every verdict refuses.  family_data stays total, and a non-integral
    or symbolic mu - nu is still the polynomial continuation."""
    assert level1_poly(Weight([0, 0, 0]), 0, 3) == 0
    full = FamilyParams(3, 3, 0, 0)
    assert zero_step(full, 0) is True and zero_step_equivalence_check(full, 0) is True
    assert atypicality_report(full, 0)["zero_step"] is True
    for params in (FamilyParams(3, 1, 0, 0), FamilyParams(3, 2, 0, 0),
                   FamilyParams(3, 1, -2, 1), FamilyParams(4, 2, MU, MU)):
        for verdict in (atypicality_report, zero_step, zero_step_equivalence_check):
            with pytest.raises(ValueError, match="shift s = r is not retained"):
                verdict(params, 0)
        assert family_data(params, 0)["r"] == params.r
    for mu, nu in ((Fraction(1, 2), 1), (1, 0), (MU, NU), (MU, 0)):
        for verdict in (atypicality_report, zero_step, zero_step_equivalence_check):
            verdict(FamilyParams(3, 1, mu, nu), 0)  # no refusal


def test_zero_step_equivalence_sweep():
    rng = random.Random(17)
    samples = []
    for _ in range(120):
        n = rng.randint(3, 7)
        r = rng.randint(1, n - 1)
        nu = rng.randint(0, 4)
        mu = nu + rng.randint(1, 5)
        params = FamilyParams(n, r, mu, nu)
        if rng.random() < 0.3:
            c = _solved_central(params)  # constant coefficient vanishes
        else:
            c = Fraction(rng.randint(-6, 6))
        samples.append((params, c))
    for n, r, k in COMPLETE_TABLE:
        params = FamilyParams(n, r, k, 0)
        samples.append((params, _solved_central(params)))
    trues = 0
    for params, c in samples:
        n, r = params.n, params.r
        zs = zero_step(params, c)
        assert zs in (True, False)
        assert zs == zero_step_equivalence_check(params, c)
        w = params.weight()
        both_vanish = (
            level1_poly(w, c, r).is_zero() and level1_poly(w, c, n).is_zero()
        )
        assert zs == both_vanish
        trues += zs
    assert trues >= 10


def test_zero_step_equivalence_at_r_equal_n():
    # V_0(mu^n) is one-dimensional: the check agrees with zero_step at the
    # charge that kills the level-1 value and one past it, and nu (absent
    # from the weight) changes nothing, nu = mubar included
    for n in range(3, 8):
        for mu in range(5):
            c = -atypicality_report(FamilyParams(n, n, mu, 0), 0)["a_values"][n].as_rational()
            for charge, want in ((c, True), (c + 1, False)):
                for nu in (-2, 0, 7):
                    params = FamilyParams(n, n, mu, nu)
                    assert zero_step(params, charge) is want
                    assert zero_step_equivalence_check(params, charge) is want


@pytest.mark.parametrize("n, mu, c", [(3, 1, 2), (4, 3, -9), (5, 2, -4)])
def test_zero_step_equivalence_at_r_equal_n_matches_the_bracket(n, mu, c):
    # {Qbar^i, Q_j} read from the presentation, with E^i_j acting as
    # mu delta^i_j on V_0(mu^n): zero for every i, j at c, not at c + 1
    for charge, want in ((c, True), (c + 1, False)):
        alg = build(n, charge)
        diagonal = {alg.resolve("E", [i, i]) for i in range(1, n + 1)}

        def on_v0(word):
            return mu ** len(word) if set(word) <= diagonal else 0

        values = {
            sum(v.as_rational() * on_v0(w) for w, v in alg.presentation.bracket(
                alg.resolve("Qbar", [i]), alg.resolve("Q", [j])).items())
            for i in range(1, n + 1) for j in range(1, n + 1)
        }
        assert (values == {0}) is want
        assert zero_step_equivalence_check(FamilyParams(n, n, mu, 0), charge) is want


def test_level1_poly_validation():
    with pytest.raises(ValueError):
        level1_poly(Weight([0, 1, 0]), 0, 1)  # not dominant
    with pytest.raises(ValueError):
        level1_poly(Weight([2, 1, 0]), 0, 4)  # index out of range
    with pytest.raises(ValueError):
        level1_poly(Weight([1, 1, 0]), 0, 1)  # shift not dominant


@pytest.mark.parametrize("n", range(3, 9))
def test_one_step_excluded(n):
    res = one_step_analysis(n)
    assert res["one_step_exists"] is False
    assert res["conclusion"] == "no one-step modules"
    assert res["branch_s_eq_b1"]["residual"] == 2 - n
    assert res["branch_s_eq_a1"]["s_minus_b1"] == 1


def test_one_step_branch_identities():
    res = one_step_analysis(5)
    c1p = Scalar.var("r") * Scalar.var("mubar") + (
        Scalar.coerce(5) - Scalar.var("r")
    ) * Scalar.var("nubar") - Scalar.var("r") * (
        Scalar.coerce(5) - Scalar.var("r")
    ) - 5
    assert (res["branch_s_eq_b1"]["a0_minus_b0"] - (c1p - 1)).is_zero()


def test_one_step_grid_scan_empty():
    res = one_step_analysis(3, scan_bound=10)
    assert res["scan_bound"] == 10
    assert res["scan_counterexamples"] == []


def _numeric_composites(n, r, mubar, nubar, c):
    s_p, p_p, c1p, c2p = _rect_casimirs(n, r, mubar, nubar)
    return _composite_coeffs(s_p, p_p, *_adjoint_coeffs(n, c1p, c2p, c))


def test_family_formulas_agree_across_paths():
    """The symbolic B o A coefficients, the integer scan path and the
    reduced operator forms of family_data give the same values."""
    rng = random.Random(7)
    keys = ("EE", "Edelta", "deltaE", "deltadelta")
    for n in range(3, 7):
        symbolic = one_step_analysis(n)["coefficients"]
        for _ in range(15):
            r = rng.randint(1, n - 1)
            mubar, nubar, c = (rng.randint(-10, 10) for _ in range(3))
            point = {"r": r, "mubar": mubar, "nubar": nubar, "c": c}
            from_symbolic = tuple(
                symbolic[k].substitute(point).as_rational() for k in keys
            )
            numeric = _numeric_composites(n, r, mubar, nubar, c)
            assert all(type(v) is int for v in numeric)
            d = family_data(FamilyParams(n, r, mubar - (n - r), nubar), c)
            from_family = (
                d["A_E"] * d["B_Edelta"],
                d["A_delta"] * d["B_Edelta"],
                d["A_E"] * (d["B_deltadelta"] + d["s_prime"])
                + d["A_delta"] * d["B_deltaE"],
                d["A_delta"] * d["B_deltadelta"] + d["p_prime"] * d["A_E"],
            )
            assert from_symbolic == numeric
            assert tuple(v.as_rational() for v in from_family) == numeric


def test_halved_family_quantities_are_even():
    """C2' - C1'^2 - C1'(n - k), k = 3 and 5, is an integer polynomial in
    (n, r, mubar, nubar), so its parity depends only on the arguments mod
    2: even on all 16 residue classes means even on every integer input,
    which is why `_adjoint_coeffs` may halve ints exactly."""
    for n, r, mubar, nubar in itertools.product(range(2), repeat=4):
        _, _, c1p, c2p = _rect_casimirs(n, r, mubar, nubar)
        # with Fraction input the halving divides: a0, b0 at c = 0 are
        # -(n - 1) and -(n - 2) minus the two halved quantities
        _, a0, _, b0 = _adjoint_coeffs(n, Fraction(c1p), Fraction(c2p), 0)
        assert (a0 + n - 1).denominator == 1
        assert (b0 + n - 2).denominator == 1
        assert _adjoint_coeffs(n, c1p, c2p, 0) == (c1p + n - 2, a0, c1p + n - 3, b0)


def test_adjoint_coeffs_refuses_odd_int_instead_of_rounding():
    # C2' - C1'^2 - C1'(n - 3) = 0 - 1 - 0 at n = 3, C1' = 1, C2' = 0
    with pytest.raises(ArithmeticError):
        _adjoint_coeffs(3, 1, 0, 0)
    assert _adjoint_coeffs(3, Fraction(1), Fraction(0), 0)[1] == Fraction(-3, 2)


def test_one_step_scan_rejects_negative_bound():
    with pytest.raises(ValueError, match="scan_bound"):
        one_step_analysis(3, scan_bound=-1)
    assert one_step_analysis(3, scan_bound=0)["scan_counterexamples"] == []


def test_one_step_scan_reports_the_cells_a_broken_closed_form_makes(monkeypatch):
    # with the constant n - 2 of b0 counted twice, a0 - b0 - s' vanishes on
    # the branch s' = b1, so the exclusion fails and the scan finds the cells
    # where (delta delta) = (a0 - p')(b0 - p') - p' vanishes too
    def broken(n, c1p, c2p, central):
        a1, a0, b1, b0 = _adjoint_coeffs(n, c1p, c2p, central)
        return a1, a0, b1, b0 - (n - 2)

    monkeypatch.setattr(quadlie.atypicality, "_adjoint_coeffs", broken)
    res = one_step_analysis(3, scan_bound=4)
    assert res["conclusion"] == "inconclusive" and res["one_step_exists"] is None
    hits = res["scan_counterexamples"]
    assert hits == [(1, 1, 3, 2), (1, 1, 3, 4), (1, 4, 3, -2),
                    (2, 3, 1, 2), (2, 3, 1, 4), (2, 3, 4, -2)]
    for r, mubar, nubar, c in hits:  # each a zero of the symbolic coefficients
        point = {"r": r, "mubar": mubar, "nubar": nubar, "c": c}
        assert all(v.substitute(point) == 0 for v in res["coefficients"].values())


def test_one_step_scan_past_its_cell_budget_is_refused_at_once(monkeypatch):
    # the scan visits (n - 1)(2 scan_bound + 1)^2 cells: 18 at n = 3, bound 1
    monkeypatch.setattr(quadlie.atypicality, "MAX_SCAN_CELLS", 18)
    assert one_step_analysis(3, scan_bound=1)["scan_counterexamples"] == []
    monkeypatch.setattr(quadlie.atypicality, "MAX_SCAN_CELLS", 17)
    with pytest.raises(ValueError, match="more than 17 cells"):
        one_step_analysis(3, scan_bound=1)
    monkeypatch.undo()
    # the largest scan in the repository, n = 8 at bound 10, is 3,087 cells
    assert 7 * 21 ** 2 <= quadlie.atypicality.MAX_SCAN_CELLS
    # about 16 s of scanning, refused before the first cell
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cells"):
        one_step_analysis(3, scan_bound=1000)
    assert time.perf_counter() - start < 1.0


def test_one_step_scan_gate_can_fail():
    """Zero-step rows inside the scan grid make every B o A coefficient
    vanish, so only the zero-step exclusion keeps the scan empty."""
    inside = 0
    for n, r, k in table_zero_step(10):
        params = FamilyParams(n, r, k, 0)
        c = _solved_central(params)
        mubar = params.mubar.as_rational()
        if not (c.denominator == 1 and abs(c) <= 10 and abs(mubar) <= 10):
            continue
        inside += 1
        point = {"r": r, "mubar": mubar, "nubar": 0, "c": c}
        coeffs = one_step_analysis(n)["coefficients"]
        assert all(v.substitute(point).is_zero() for v in coeffs.values())
        assert not any(_numeric_composites(n, r, int(mubar), 0, int(c)))
        scan = one_step_analysis(n, scan_bound=10)["scan_counterexamples"]
        assert (r, mubar, 0, c) not in scan
    assert inside == 3  # (3,2,1), (4,2,2) and (5,3,1)


def test_one_step_requires_n_at_least_three():
    with pytest.raises(ValueError):
        one_step_analysis(2)


def test_atypicality_report_levels():
    params = FamilyParams(3, 2, 1, 0)
    c = _solved_central(params)
    rep = atypicality_report(params, c)
    assert rep["zero_step"] is True
    assert rep["levels"][0] == "present"
    assert all(rep["levels"][k] == "killed" for k in range(1, 4))
    assert all(v.is_zero() for v in rep["a_values"].values())
    assert rep["roots"][2] == params.mubar - 1
    assert rep["roots"][3] == params.nubar - 1

    generic = atypicality_report(params, c + 2)
    assert generic["zero_step"] is False
    assert generic["levels"][1] == "present"
    assert generic["levels"][2] == "not analyzed"


# -- the lowered path: ints and Fractions inside, Scalars at the edge ---------

MU, NU, C = (Scalar.var(v) for v in ("mu", "nu", "c"))


def _value(rng):
    """An integer, a non-integral third or a half-integer, in turn at random."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return Fraction(3 * rng.randint(-3, 3) + rng.choice((1, 2)), 3)
    return Fraction(2 * rng.randint(-4, 4) + 1, 2)


def _family_grid(seed, count):
    """Seeded (n, r, mu, nu, c): nu is often mu less an integer, so that the
    weight is dominant, and for r >= 2 some points solve both zero-step
    conditions, so that zero_step holds at non-integral data too."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 6)
        r = rng.randint(1, n)
        mu, c = _value(rng), _value(rng)
        nu = mu - rng.randint(0, 3) if rng.random() < 0.5 else _value(rng)
        if 2 <= r < n and rng.random() < 0.3:
            # (r-1) mubar + (n-r-1) nubar = r(n-r), then the solved charge
            mu = Fraction(r * (n - r) - (n - r - 1) * nu, r - 1) - (n - r)
            c = -family_data(FamilyParams(n, r, mu, nu), 0)["A_delta"].as_rational()
        yield n, r, mu, nu, c


def test_lowered_family_path_equals_the_symbolic_one():
    """family_data, atypicality_report, zero_step, the equivalence check and
    level1_poly on rational input equal the all-Scalar values that symbolic
    mu, nu and c give after substitution, and every value is a Scalar."""
    holds = refused = 0
    for n, r, mu, nu, c in _family_grid(26, 300):
        point = {"mu": mu, "nu": nu, "c": c}
        params, symbolic_params = FamilyParams(n, r, mu, nu), FamilyParams(n, r, MU, NU)
        symbolic = family_data(symbolic_params, C)
        data = family_data(params, c)
        assert list(data) == list(symbolic)
        assert (data["n"], data["r"]) == (n, r)
        for key in list(data)[2:]:
            assert isinstance(data[key], Scalar)
            assert data[key] == symbolic[key].substitute(point), key

        if (mu - nu).denominator == 1 and mu >= nu:
            w = params.weight()
            roots = {n: symbolic["nubar"] - 1, r: symbolic["mubar"] - 1}  # s = r wins at r = n
            retained = char_roots(w).retained
            for s, root in roots.items():
                if not retained[s - 1]:
                    continue
                got = level1_poly(w, c, s)
                assert isinstance(got, Scalar)
                assert got == (symbolic["A_E"] * root + symbolic["A_delta"]).substitute(point)

        if r < n and (mu - nu).denominator == 1 and mu <= nu:
            # the shift s = r is not retained: no verdict, whatever c is
            for verdict in (atypicality_report, zero_step, zero_step_equivalence_check):
                with pytest.raises(ValueError, match="shift s = r is not retained"):
                    verdict(params, c)
            refused += 1
            continue
        report = atypicality_report(params, c)
        symbolic_report = atypicality_report(symbolic_params, C)
        assert report["family"] == data and isinstance(report["central"], Scalar)
        for key in ("roots", "a_values"):
            assert list(report[key]) == list(symbolic_report[key])
            for s, v in report[key].items():
                assert isinstance(v, Scalar)
                assert v == symbolic_report[key][s].substitute(point)

        if r == n:
            want = zero_step(symbolic_params, C).substitute(point).is_zero()
        else:
            want = all(symbolic[k].substitute(point).is_zero() for k in ("A_E", "A_delta"))
            assert zero_step_equivalence_check(params, c) is want
        assert zero_step(params, c) is want
        assert report["zero_step"] is want
        holds += want
    assert holds >= 10 and refused >= 10


def test_level1_poly_on_half_integral_weights_matches_the_scalar_path():
    """level1_poly never halves an int that is not proven even: on
    half-integral dominant weights it equals the same formula run on
    Scalars (which divide, never raise).  (1/2)^4 has integral C1' = -2,
    C2' = 1 and an odd halved quantity -1."""
    rng = random.Random(6)
    weights = [Weight([Fraction(1, 2)] * 4)]
    for _ in range(60):
        base = Fraction(rng.choice((-3, -1, 1, 3)), rng.choice((2, 2, 3)))
        n = rng.randint(2, 6)
        weights.append(Weight(sorted((base + rng.randint(-2, 2) for _ in range(n)),
                                     reverse=True)))
    checked = 0
    for w in weights:
        n = w.n
        a1, a0, _, _ = _adjoint_coeffs(n, *casimirs(lam_prime(w)), C)
        for s, keep in enumerate(char_roots(w).retained, start=1):
            if not keep:
                continue
            alpha = Scalar.coerce(w.components[s - 1] - 1 + n - s)
            want = alpha * alpha - a1 * alpha + a0
            for c in (0, Fraction(3, 2), Fraction(-7, 3), C):
                got = level1_poly(w, c, s)
                assert isinstance(got, Scalar)
                assert got == (want if c is C else want.substitute({"c": c}))
                checked += 1
    assert checked > 200


def test_weight_stores_integral_components_as_ints():
    """casimirs and char_roots compute on a weight's ints and Fractions and
    return the same Scalars as sums formed in Scalars."""
    assert Weight([Fraction(2), 1]) == Weight([2, 1])
    assert hash(Weight([Fraction(2), 1])) == hash(Weight([2, 1]))
    assert [type(x) for x in Weight([Fraction(4, 2), 1, Fraction(1, 2)]).components] \
        == [int, int, Fraction]
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        lam = [_value(rng) for _ in range(n)]
        w = Weight(lam)
        scalars = [Scalar.coerce(x) for x in lam]
        c1 = sum(scalars, Scalar())
        c2 = sum((x * (x + n + 1 - 2 * r) for r, x in enumerate(scalars, start=1)), Scalar())
        got = casimirs(w)
        assert all(isinstance(v, Scalar) for v in got) and got == (c1, c2)
        ci = char_roots(w)
        assert ci.roots == [x + (n - s) for s, x in enumerate(scalars, start=1)]
        assert ci.dual_roots == [(n - 1) - x for x in scalars]
        assert all(isinstance(v, Scalar) for v in ci.roots + ci.dual_roots)


def test_halved_level1_quantity_is_even_on_every_integral_weight():
    """C2' - C1'^2 - C1'(n - k), k = 3 and 5, is even for every integral
    weight: mod 2, lambda^2 = lambda and (sum lambda)^2 = sum lambda, so
    C2 = n C1 and C1^2 = C1.  Its parity depends only on lambda mod 2,
    so lambda in {0, 1}^n covers every integral weight of each n."""
    for n in range(2, 7):
        for lam in itertools.product(range(2), repeat=n):
            c1, c2 = _casimirs(Weight(lam))
            assert type(c1) is int and type(c2) is int
            for k in (3, 5):
                assert (c2 - c1 * c1 - c1 * (n - k)) % 2 == 0, (lam, k)


def test_one_step_scan_evaluates_the_per_charge_coefficients(monkeypatch):
    """The scan adds c to a0 and b0 at c = 0 rather than forming the
    adjoint coefficients for each c; every B o A it evaluates is the one
    `_adjoint_coeffs` gives at that c."""
    seen = []

    def record(*args):
        seen.append(args)
        return _composite_coeffs(*args)

    monkeypatch.setattr(quadlie.atypicality, "_composite_coeffs", record)
    n, bound = 4, 3
    one_step_analysis(n, scan_bound=bound)
    span = range(-bound, bound + 1)
    want = []
    for r, mubar, nubar in itertools.product(range(1, n), span, span):
        s_p, p_p, c1p, c2p = _rect_casimirs(n, r, mubar, nubar)
        a1, _, b1, _ = _adjoint_coeffs(n, c1p, c2p, 0)
        want.append((s_p, p_p, a1, 0, b1, 0))
        if not _composite_coeffs(*want[-1])[0]:
            want.extend((s_p, p_p, *_adjoint_coeffs(n, c1p, c2p, c)) for c in span)
    assert len(want) > len(range(1, n)) * len(span) ** 2  # some c loops ran
    assert seen[1:] == want  # the first call is the symbolic expansion


# repr(one_step_analysis(n, scan_bound=10)) for n = 3..8, hashed in order
_ONE_STEP_SHA256 = "c58e51ab7092569fb920db4d4843fe640b932a7435fa363dee65286865bbedc4"
# str of every value of family_data, then of atypicality_report, for
# FamilyParams(n, r, mu, nu) at symbolic mu, nu and c, n = 3..8, r = 1..n
_SYMBOLIC_FAMILY_SHA256 = "e8bee96ad8050078fbe3561bffc1400d43d751efadb74822c1bb915f8d5e37f7"


def test_one_step_analysis_is_pinned():
    digest = hashlib.sha256()
    for n in range(3, 9):
        digest.update(repr(one_step_analysis(n, scan_bound=10)).encode())
    assert digest.hexdigest() == _ONE_STEP_SHA256


def test_symbolic_family_outputs_are_pinned():
    mu, nu, c = (Scalar.var(v) for v in ("mu", "nu", "c"))
    digest = hashlib.sha256()
    for n in range(3, 9):
        for r in range(1, n + 1):
            params = FamilyParams(n, r, mu, nu)
            for out in (family_data(params, c), atypicality_report(params, c)):
                for value in out.values():
                    digest.update(str(value).encode())
    assert digest.hexdigest() == _SYMBOLIC_FAMILY_SHA256


# -- guards and the retention rule ------------------------------------------


def test_zero_step_equivalence_check_refuses_what_the_analysis_excludes():
    with pytest.raises(ValueError, match="n >= 3"):
        zero_step_equivalence_check(FamilyParams(2, 1, 1, 0), 0)
    params = FamilyParams(4, 2, 0, 2)
    assert params.mubar == params.nubar
    with pytest.raises(ValueError, match="shift s = r is not retained"):
        zero_step_equivalence_check(params, 0)


@pytest.mark.parametrize("args, c, a_values, levels", [
    ((2, 1, 2, 0), 0, {1: 1, 2: -2}, ["present", "present", "not analyzed"]),
    ((2, 1, 3, 1), 5, {1: 5, 2: 2}, ["present", "present", "not analyzed"]),
    ((2, 2, 1, 1), 0, {2: -1}, ["present", "present", "not analyzed"]),
    ((2, 2, 1, 1), 1, {2: 0}, ["present", "killed", "killed"]),
])
def test_atypicality_report_at_n_2_has_no_zero_step(args, c, a_values, levels):
    """At n = 2 the zero-step analysis does not apply, so the report gives
    zero_step False even where every level-1 value vanishes."""
    rep = atypicality_report(FamilyParams(*args), c)
    assert rep["zero_step"] is False
    assert rep["a_values"] == a_values
    assert rep["levels"] == dict(enumerate(levels))


@pytest.mark.parametrize("args", [(2, 1, 0, 0), (2, 1, 1, 3), (2, 1, -1, -1)])
def test_atypicality_report_at_n_2_refuses_an_unretained_shift(args):
    """The retention rule holds at n = 2 as well: at r = 1 an integer
    mu - nu <= 0 leaves s = r unretained, so the report refuses."""
    with pytest.raises(ValueError, match="shift s = r is not retained"):
        atypicality_report(FamilyParams(*args), 0)


def _shift_is_dominant_integral(lam, s):
    """Lambda - epsilon_s dominant integral, from the differences of Lambda:
    the shift adds 1 to lambda_{s-1} - lambda_s and takes 1 from
    lambda_s - lambda_{s+1}."""
    diffs = [a - b for a, b in zip(lam, lam[1:])]
    if s > 1:
        diffs[s - 2] += 1
    if s < len(lam):
        diffs[s - 1] -= 1
    return all(Fraction(d).denominator == 1 and d >= 0 for d in diffs)


def test_weight_retained_is_the_char_identity_flag_and_the_level1_guard():
    """Weight.retained(s) is the one test of Lambda - epsilon_s: it matches
    the rule on differences, CharIdentity.retained reads it, and on a
    dominant integral weight level1_poly raises exactly where it is False."""
    rng = random.Random(30)
    raised = kept = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        base = _value(rng)
        lam = [base + rng.randint(-2, 2) for _ in range(n)]
        if rng.random() < 0.6:
            lam.sort(reverse=True)
        if rng.random() < 0.2:
            lam[rng.randrange(n)] += Fraction(1, 2)
        w = Weight(lam)
        flags = [w.retained(s) for s in range(1, n + 1)]
        assert flags == [_shift_is_dominant_integral(lam, s) for s in range(1, n + 1)]
        assert char_roots(w).retained == flags
        if not w.is_dominant_integral():
            continue
        for s, keep in enumerate(flags, start=1):
            if keep:
                assert isinstance(level1_poly(w, 0, s), Scalar)
                kept += 1
            else:
                with pytest.raises(ValueError, match="not retained"):
                    level1_poly(w, 0, s)
                raised += 1
    assert kept > 100 and raised > 50


@pytest.mark.parametrize("components", [[1, 0], [2, 1, 0], [Fraction(1, 2)]])
def test_weight_retained_refuses_an_index_outside_1_to_n(components):
    w = Weight(components)
    for s in (0, w.n + 1):
        with pytest.raises(ValueError, match=f"root index {s} out of range"):
            w.retained(s)
