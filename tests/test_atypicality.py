"""Level-1 atypicality: zero-step conditions, the zero-step table, and
the one-step exclusion."""

import itertools
import random
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
from quadlie.gl2n1 import (
    FamilyParams,
    Weight,
    _adjoint_coeffs,
    _composite_coeffs,
    _rect_casimirs,
    family_data,
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


def test_zero_step_requires_n_at_least_three():
    with pytest.raises(ValueError):
        zero_step(FamilyParams(2, 1, 1, 0), 0)


def test_zero_step_equal_barred_labels_rejected():
    # mubar = nubar is outside the analysis hypothesis
    params = FamilyParams(4, 2, 0, 2)
    assert (params.mubar - params.nubar).is_zero()
    with pytest.raises(ValueError):
        zero_step(params, 0)
    assert atypicality_report(params, 0)["zero_step"] == "indeterminate"


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
