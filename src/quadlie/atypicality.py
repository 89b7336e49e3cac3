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
    _casimirs,
    _composite_coeffs,
    _family_values,
    _lifted,
    _rect_casimirs,
    lam_prime,
)
from .presentation import _half
from .scalars import Scalar, lower

ZeroStepResult = Union[bool, Scalar]

# the largest n that `atypicality_report` (one level per 1..n) and
# `table_zero_step` (quadratic in n_max: 0.68 s at 4,000) take
MAX_N = 5_000

MAX_SCAN_CELLS = 1_000_000  # (n - 1)(2 scan_bound + 1)^2 one-step scan cells, ~2 us each


def _budget(name: str, n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"{name} = {n} is more than {MAX_N}")


def _require_retained_shift(params: FamilyParams, data: dict) -> None:
    """Refuse an integer mu - nu <= 0 at r < n: the shift s = r is not retained."""
    gap = lower(data["mubar"] - data["nubar"] - (params.n - params.r))  # mu - nu
    if params.r < params.n and type(gap) is int and gap <= 0:
        raise ValueError(f"mu - nu = {gap} <= 0 at r < n: the shift s = r is not retained")


def level1_poly(w: Weight, central, s: int) -> Scalar:
    """Adjoint polynomial value at the retained root alpha'_s of Lambda'.

    Vanishing means the level-1 module V_0(Lambda + delta_s) is absent.
    Raises for non-dominant Lambda, a root index outside 1..n or a
    non-retained root.
    """
    n = w.n
    if not w.is_dominant_integral():
        raise ValueError("weight is not dominant integral")
    if not w.retained(s):
        raise ValueError(f"root {s} is not retained (shift not dominant)")
    c1p, c2p = _casimirs(lam_prime(w))
    a1, a0, _, _ = _adjoint_coeffs(n, c1p, c2p, lower(central))
    alpha = w.components[s - 1] - 1 + n - s
    return Scalar.coerce(alpha * alpha - a1 * alpha + a0)


def zero_step(params: FamilyParams, central) -> ZeroStepResult:
    """Zero-step (level-0-only) test for V(mu^r, nu^{n-r}), n >= 3.

    With rational central charge, returns a boolean.  With a symbolic
    central charge, returns the polynomial in it whose vanishing is the
    zero-step condition (or False when the charge-independent condition
    already fails).  Raises for n < 3 and for integer mu - nu <= 0 at r < n.
    """
    if params.n < 3:
        raise ValueError("zero-step analysis requires n >= 3")
    data = _family_values(params, central)
    _require_retained_shift(params, data)
    return _zero_step(params, data)


def _zero_step(params: FamilyParams, data: dict) -> ZeroStepResult:
    """`zero_step` on the `_family_values` of its input, without the guards.

    At r < n, zero-step <=> both reduced adjoint coefficients vanish: the
    E-coefficient gives (r-1) mubar + (n-r-1) nubar = r(n-r), the
    delta-coefficient the condition on the central charge.  At r = n the
    condition is 2/((n-1)(n-2)) times the level-1 value at alpha'_n,
    A_E (mubar - 1) + A_delta, which is the printed form
    (mu - h)^2 - h^2 + 2c/((n-1)(n-2)), h = (n/2)/(n-2).
    """
    n = params.n
    if n == params.r:
        value = data["A_E"] * (data["mubar"] - 1) + data["A_delta"]
        residual = Fraction(2, (n - 1) * (n - 2)) * value
    elif data["A_E"]:
        return False
    else:
        residual = data["A_delta"]
    if not residual:
        return True
    if not isinstance(residual, Scalar) or residual.is_rational():
        return False
    return residual


def zero_step_equivalence_check(params: FamilyParams, central) -> bool:
    """Check directly that {Qbar^i, Q_j} = E^2 - <E> E - (1/2)(<E^2> -
    <E>^2 + (n-1)<E>) + c vanishes on V_0(Lambda), with Casimirs C1 =
    C1'+n and C2 = C2'+2C1'+n.  At r < n the quadratic identity there is
    E^2 = (s'+2) E - (p'+s'+1), and both the E- and the delta-coefficient
    must vanish; at r = n, V_0(Lambda) is one-dimensional and E acts as
    mubar, which leaves one delta-coefficient."""
    n = params.n
    if n < 3:
        raise ValueError("analysis requires n >= 3")
    data = _family_values(params, central)
    _require_retained_shift(params, data)
    s_p, p_p, mb = data["s_prime"], data["p_prime"], data["mubar"]
    c1 = data["C1_prime"] + n
    c2 = data["C2_prime"] + data["C1_prime"] * 2 + n
    # the halved quantity is C2' - C1'^2 - C1'(n - 1), even on int input
    constant = lower(central) - _half(c2 - c1 * c1 + c1 * (n - 1))
    if params.r == n:
        return not mb * mb - c1 * mb + constant
    return not (s_p + 2) - c1 and not constant - (p_p + s_p + 1)


def one_step_analysis(n: int, scan_bound: Optional[int] = None) -> dict:
    """Symbolic exclusion of one-step (levels 1+2 only) modules for n >= 3.

    Expands B o A over the operator basis (EE), (E delta), (delta E),
    (delta delta) in the reduced coefficients and walks the two branches of
    the (EE) coefficient.  Optionally scans integer (r, mubar, nubar, c) in
    [-scan_bound, scan_bound] for counterexamples; a negative bound would
    scan nothing and raises, as does one past MAX_SCAN_CELLS cells.
    """
    if n < 3:
        raise ValueError("analysis requires n >= 3")
    if scan_bound is not None and scan_bound < 0:
        raise ValueError(f"scan_bound must be >= 0, got {scan_bound}")
    if scan_bound is not None and (n - 1) * (2 * scan_bound + 1) ** 2 > MAX_SCAN_CELLS:
        raise ValueError(f"scan_bound = {scan_bound} scans more than {MAX_SCAN_CELLS} cells")
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
                    a1v, a0c, b1v, b0c = _adjoint_coeffs(n, c1pv, c2pv, 0)
                    if _composite_coeffs(sp, ppv, a1v, 0, b1v, 0)[0]:
                        continue
                    # a0 and b0 are c plus their values at c = 0
                    for cv in span:
                        a0v, b0v = a0c + cv, b0c + cv
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
    n <= n_max: the zero-step candidates V(k^r, 0^{n-r}) at nu = 0.
    Raises ValueError past n_max = MAX_N."""
    _budget("n_max", n_max)
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
    """Per-root level-1 values, zero-step status and level occupancy for the
    family.  Raises past n = MAX_N and for integer mu - nu <= 0 at r < n."""
    n, r = params.n, params.r
    _budget("n", n)
    data = _family_values(params, central)
    _require_retained_shift(params, data)
    # retained shift roots: s=r at mubar-1 and (r<n) s=n at nubar-1
    targets = {r: data["mubar"] - 1}
    if r < n:
        targets[n] = data["nubar"] - 1
    values = [data["A_E"] * root + data["A_delta"] for root in targets.values()]
    killed = not any(values)
    levels: Dict[int, str] = {0: "present", 1: "killed" if killed else "present"}
    for lvl in range(2, n + 1):
        levels[lvl] = "killed" if killed else "not analyzed"
    return {
        "params": params,
        "central": Scalar.coerce(central),
        "family": _lifted(params, data),
        "roots": {s: Scalar.coerce(root) for s, root in targets.items()},
        "a_values": {s: Scalar.coerce(v) for s, v in zip(targets, values)},
        "zero_step": n >= 3 and _zero_step(params, data),
        "levels": levels,
    }
