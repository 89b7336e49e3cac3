"""Level-1 atypicality analysis for gl2(n/1) Kac modules.

The level-1 content of a Kac module V(Lambda) is controlled by the adjoint
polynomial a(alpha'_s, C1', C2') evaluated at the retained roots of the
characteristic identity on V_0(Lambda'), Lambda' = Lambda - 2 rho_1:
V_0(Lambda + delta_s) survives iff the value is nonzero.  Zero-step
modules (level 0 only) arise when every retained value vanishes; for the
rectangular family (mu^r, nu^{n-r}) this reduces to two printed closed
conditions.  One-step modules (levels 1 and 2 only) are excluded for
n >= 3 by a branch analysis on the composite B o A.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .gl2n1 import (
    FamilyParams,
    Weight,
    _adjoint_coeffs,
    _composite_coeffs,
    _rect_casimirs,
    casimirs,
    family_data,
    lam_prime,
)
from .scalars import Scalar

ZeroStepResult = Union[bool, Scalar]


def level1_poly(w: Weight, central, s: int) -> Scalar:
    """Adjoint polynomial value at the retained root alpha'_s of Lambda'.

    Vanishing means the level-1 module V_0(Lambda + delta_s) is absent.
    Raises for non-dominant Lambda or a non-retained root.
    """
    n = w.n
    if not w.is_dominant_integral():
        raise ValueError("weight is not dominant integral")
    if not 1 <= s <= n:
        raise ValueError(f"root index {s} out of range")
    shifted = list(w.components)
    shifted[s - 1] -= 1
    if not Weight(shifted).is_dominant_integral():
        raise ValueError(f"root {s} is not retained (shift not dominant)")
    wp = lam_prime(w)
    c1p, c2p = casimirs(wp)
    a1, a0, _, _ = _adjoint_coeffs(n, c1p, c2p, Scalar.coerce(central))
    alpha = Scalar.coerce(w.components[s - 1] - 1 + n - s)
    return alpha * alpha - a1 * alpha + a0


def zero_step(params: FamilyParams, central) -> ZeroStepResult:
    """Zero-step (level-0-only) test for V(mu^r, nu^{n-r}), n >= 3.

    With rational central charge, returns a boolean.  With a symbolic
    central charge, returns the polynomial in it whose vanishing is the
    zero-step condition (or False when the charge-independent condition
    already fails).
    """
    n, r = params.n, params.r
    if n < 3:
        raise ValueError("zero-step analysis requires n >= 3")
    c = Scalar.coerce(central)
    if r == n:
        mu = params.mu
        half_n = Fraction(n, 2) / (n - 2)
        lhs = (mu - half_n) ** 2
        rhs = Scalar.coerce(half_n * half_n) - c * Fraction(2, (n - 1) * (n - 2))
        residual = lhs - rhs
    else:
        mb, nb = params.mubar, params.nubar
        if (mb - nb).is_zero():
            raise ValueError("mubar = nubar: zero-step analysis indeterminate")
        # zero-step <=> both reduced adjoint coefficients vanish:
        # the E-coefficient gives (r-1) mubar + (n-r-1) nubar = r(n-r),
        # the delta-coefficient gives the condition on the central charge
        data = family_data(params, c)
        if not data["A_E"].is_zero():
            return False
        residual = data["A_delta"]
    if residual.is_zero():
        return True
    if residual.is_rational():
        return False
    return residual


def zero_step_equivalence_check(params: FamilyParams, central) -> bool:
    """Check directly that the anticommutator operator {Qbar^i, Q_j}
    vanishes on V_0(Lambda), using the level-Lambda quadratic identity.

    On V_0(Lambda) the identity has sum s'+2 and product p'+s'+1, and the
    Casimirs shift as C1 = C1'+n, C2 = C2'+2C1'+n.  True iff both the
    E-coefficient and the delta-coefficient of the bracket vanish.
    """
    n = params.n
    if n < 3:
        raise ValueError("analysis requires n >= 3")
    if (params.mubar - params.nubar).is_zero():
        raise ValueError("mubar = nubar: analysis inapplicable as printed")
    data = family_data(params, central)
    c = Scalar.coerce(central)
    s_p, p_p = data["s_prime"], data["p_prime"]
    c1 = data["C1_prime"] + n
    c2 = data["C2_prime"] + data["C1_prime"] * 2 + n
    # bracket = E^2 - <E> E - (1/2)(<E^2> - <E>^2 + (n-1)<E>) + c,
    # with E^2 = (s'+2) E - (p'+s'+1) on V_0(Lambda)
    e_coeff = (s_p + 2) - c1
    d_coeff = -(p_p + s_p + 1) - (c2 - c1 * c1 + c1 * (n - 1)) / 2 + c
    return e_coeff.is_zero() and d_coeff.is_zero()


def one_step_analysis(n: int, scan_bound: Optional[int] = None) -> dict:
    """Symbolic exclusion of one-step (levels 1+2 only) modules for n >= 3.

    Expands B o A over the operator basis (EE), (E delta), (delta E),
    (delta delta) in the reduced coefficients and walks the two branches of
    the (EE) coefficient.  Optionally scans integer (r, mubar, nubar, c) in
    [-scan_bound, scan_bound] for counterexamples.
    """
    if n < 3:
        raise ValueError("analysis requires n >= 3")
    mb, nb, r, c = (Scalar.var(v) for v in ("mubar", "nubar", "r", "c"))
    s_p, p_p, c1p, c2p = _rect_casimirs(n, r, mb, nb)
    a1, a0, b1, b0 = _adjoint_coeffs(n, c1p, c2p, c)
    coeffs = dict(zip(
        ("EE", "Edelta", "deltaE", "deltadelta"),
        _composite_coeffs(s_p, p_p, a1, a0, b1, b0),
    ))

    # branch s' = a1: then s' - b1 = 1, so the (E delta) coefficient forces
    # a0 = p', which is exactly the zero-step degeneration
    branch_a = {
        "condition": "s_prime = a1",
        "s_minus_b1": (a1 - b1),  # identically 1
        "forces": "a0 - p_prime = 0 (zero-step case)",
    }
    # branch s' = b1: the (delta E) coefficient becomes a0 - b0 - s'
    a0_minus_b0 = a0 - b0  # = C1' - 1 identically
    residual = a0_minus_b0 - b1  # a0 - b0 - s' with s' = b1
    branch_b = {
        "condition": "s_prime = b1",
        "a0_minus_b0": a0_minus_b0,
        "residual": residual,  # must vanish; equals 2 - n identically
    }

    excluded = residual == 2 - n  # nonzero constant for n >= 3
    result = {
        "n": n,
        "coefficients": coeffs,
        "branch_s_eq_a1": branch_a,
        "branch_s_eq_b1": branch_b,
        "one_step_exists": False if excluded else None,
        "conclusion": "no one-step modules" if excluded else "inconclusive",
    }

    if scan_bound is not None:
        hits: List[Tuple[int, int, int, Fraction]] = []
        span = range(-scan_bound, scan_bound + 1)
        for rr in range(1, n):
            for mbv in span:
                for nbv in span:
                    sp, ppv, c1pv, c2pv = _rect_casimirs(n, rr, mbv, nbv)
                    # (EE) does not involve c: skip the c loop when nonzero
                    a1v, _, b1v, _ = _adjoint_coeffs(n, c1pv, c2pv, 0)
                    if _composite_coeffs(sp, ppv, a1v, 0, b1v, 0)[0]:
                        continue
                    for cv in span:
                        a1v, a0v, b1v, b0v = _adjoint_coeffs(n, c1pv, c2pv, cv)
                        if any(_composite_coeffs(sp, ppv, a1v, a0v, b1v, b0v)):
                            continue
                        # exclude zero-step degenerations (s'=a1, a0=p')
                        if a1v == sp and a0v == ppv:
                            continue
                        hits.append((rr, mbv, nbv, Fraction(cv)))
        result["scan_bound"] = scan_bound
        result["scan_counterexamples"] = hits
    return result


def table_zero_step(n_max: int) -> List[Tuple[int, int, int]]:
    """All (n, r, k) with (r-1)(k+n-r) = r(n-r), k >= 1, 2 <= r <= n-1,
    n <= n_max: the zero-step candidates V(k^r, 0^{n-r}) at nu = 0."""
    out = []
    for n in range(3, n_max + 1):
        for r in range(2, n):
            num = r * (n - r)
            if num % (r - 1) != 0:
                continue
            k = num // (r - 1) - (n - r)
            if k >= 1:
                out.append((n, r, k))
    return out


def atypicality_report(params: FamilyParams, central) -> dict:
    """Per-root level-1 values, zero-step status and level occupancy for
    the rectangular family."""
    n, r = params.n, params.r
    data = family_data(params, central)
    a_values: Dict[int, Scalar] = {}
    roots: Dict[int, Scalar] = {}
    # retained shift roots: s=r at mubar-1 and (r<n) s=n at nubar-1
    targets = [(r, data["mubar"] - 1)]
    if r < n:
        targets.append((n, data["nubar"] - 1))
    for s, root in targets:
        roots[s] = root
        a_values[s] = data["A_E"] * root + data["A_delta"]
    zs: Union[ZeroStepResult, str]
    if n < 3:
        zs = False
    elif r < n and (data["mubar"] - data["nubar"]).is_zero():
        zs = "indeterminate"
    else:
        zs = zero_step(params, central)
    all_vanish = all(v.is_zero() for v in a_values.values())
    levels: Dict[int, str] = {0: "present"}
    for lvl in range(1, n + 1):
        if zs is True or all_vanish:
            levels[lvl] = "killed"
        elif lvl == 1:
            levels[lvl] = "present" if any(
                not v.is_zero() for v in a_values.values()
            ) else "killed"
        else:
            levels[lvl] = "not analyzed"
    return {
        "params": params,
        "central": Scalar.coerce(central),
        "family": data,
        "roots": roots,
        "a_values": a_values,
        "zero_step": zs,
        "levels": levels,
    }
