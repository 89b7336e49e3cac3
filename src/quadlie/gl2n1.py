"""The gl2(n/1) family: a one-parameter quadratic deformation of gl(n/1).

Even generators are the gl(n) Gel'fand generators E^i_j (row-major), odd
generators a vector Qbar^1..Qbar^n and a contragredient vector Q_1..Q_n.
The anticommutator {Qbar^i, Q_j} closes on a quadratic expression in the
E's plus a central charge c:

    {Qbar^i, Q_j} = (E^2)^i_j - <E> E^i_j
                    - (1/2) delta^i_j (<E^2> - <E>^2 + (n-1)<E>) + c delta^i_j

`build` converts this to a presentation (d, b, a tensors): the quadratic
part is symmetrized in its two even slots, and the commutator correction
that symmetrization produces is absorbed into the linear b-tensor.

Also here: the multinomial odd elements Sbar (epsilon-contracted products
of Qbar's) and their calculus, the adjoint operators A and B, Casimir
eigenvalues, characteristic-identity roots and projectors, and the closed
family data for highest weights of rectangular shape (mu^r, nu^{n-r}).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, NCPoly
from .pbw import GeneratorOrder, RewriteSystem
from .presentation import QlsPresentation
from .scalars import Scalar, accumulate, srat

Uni = List[Scalar]  # univariate polynomial, coefficients low to high


class Weight:
    """gl(n) weight with exact rational components (lambda_1..lambda_n)."""

    def __init__(self, components: Sequence):
        self.components = tuple(Fraction(x) for x in components)

    @property
    def n(self) -> int:
        return len(self.components)

    def is_dominant_integral(self) -> bool:
        return all(
            (a - b).denominator == 1 and a >= b
            for a, b in zip(self.components, self.components[1:])
        )

    def shifted(self, other: "Weight", factor=1) -> "Weight":
        return Weight(
            [a + Fraction(factor) * b for a, b in zip(self.components, other.components)]
        )

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Weight({list(self.components)})"


def rho0(n: int) -> Weight:
    """Half-sum of positive even roots: ((n-1)/2, (n-3)/2, ...)."""
    return Weight([Fraction(n + 1 - 2 * r, 2) for r in range(1, n + 1)])


def rho1(n: int) -> Weight:
    """Half-sum of positive odd weights: (1/2, ..., 1/2)."""
    return Weight([Fraction(1, 2)] * n)


def lam_prime(w: Weight) -> Weight:
    """The shifted weight Lambda' = Lambda - 2 rho_1 (subtract 1 throughout)."""
    return w.shifted(rho1(w.n), -2)


class FamilyParams:
    """Rectangular highest weight (mu^r, nu^{n-r}) with the barred labels
    mubar = mu + n - r, nubar = nu.  mu and nu may be exact rationals or
    symbolic Scalars."""

    def __init__(self, n: int, r: int, mu, nu):
        if not 1 <= r <= n:
            raise ValueError(f"r must lie in 1..{n}")
        self.n = n
        self.r = r
        self.mu = Scalar.coerce(mu)
        self.nu = Scalar.coerce(nu)
        self.mubar = self.mu + (n - r)
        self.nubar = self.nu

    def weight(self) -> Weight:
        if not (self.mu.is_rational() and self.nu.is_rational()):
            raise ValueError("symbolic parameters have no concrete weight")
        mu, nu = self.mu.as_rational(), self.nu.as_rational()
        return Weight([mu] * self.r + [nu] * (self.n - self.r))

    def __repr__(self):
        return f"FamilyParams(n={self.n}, r={self.r}, mu={self.mu}, nu={self.nu})"


class CharIdentity:
    """Characteristic-identity data for the Gel'fand array on V_0(lambda):
    roots alpha_s = lambda_s + n - s, duals abar_s = n - 1 - lambda_s, and
    per-root retention flags (lambda + delta_s dominant integral, where
    delta_s = -e_s is a weight of the dual vector representation)."""

    def __init__(self, weight: Weight):
        n = weight.n
        lam = weight.components
        self.weight = weight
        self.roots: List[Scalar] = [
            Scalar.coerce(lam[s - 1] + n - s) for s in range(1, n + 1)
        ]
        self.dual_roots: List[Scalar] = [
            Scalar.coerce(n - 1 - lam[s - 1]) for s in range(1, n + 1)
        ]
        self.retained: List[bool] = []
        for s in range(1, n + 1):
            shifted = list(lam)
            shifted[s - 1] -= 1
            self.retained.append(Weight(shifted).is_dominant_integral())

    def retained_roots(self) -> List[Tuple[int, Scalar]]:
        """Distinct retained (s, alpha_s) pairs, first occurrence per value."""
        out: List[Tuple[int, Scalar]] = []
        seen = set()
        for s, (root, keep) in enumerate(zip(self.roots, self.retained), start=1):
            if keep and root not in seen:
                seen.add(root)
                out.append((s, root))
        return out


# -- univariate polynomial helpers (used for projector algebra) --------


def uni_trim(p: Uni) -> Uni:
    while p and p[-1].is_zero():
        p.pop()
    return p


def uni_mul(p: Uni, q: Uni) -> Uni:
    out = [Scalar() for _ in range(len(p) + len(q) - 1)] if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return uni_trim(out)


def uni_mod(p: Uni, modulus: Uni) -> Uni:
    """Remainder of p modulo a monic modulus."""
    if not modulus or modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    p = list(p)
    d = len(modulus) - 1
    while len(p) > d:
        lead = p[-1]
        for k in range(d + 1):
            p[len(p) - 1 - d + k] = p[len(p) - 1 - d + k] - lead * modulus[k]
        uni_trim(p)
        if len(p) > d and p[-1].is_zero():
            uni_trim(p)
    return uni_trim(p)


def uni_eval(p: Uni, x) -> Scalar:
    acc = Scalar()
    xs = Scalar.coerce(x)
    for coeff in reversed(p):
        acc = acc * xs + coeff
    return acc


def char_roots(w: Weight) -> CharIdentity:
    return CharIdentity(w)


def reduced_char_poly(ci: CharIdentity) -> Uni:
    """Monic polynomial with the distinct retained roots."""
    poly: Uni = [srat(1)]
    for _, root in ci.retained_roots():
        poly = uni_mul(poly, [-root, srat(1)])
    return poly


def projector(ci: CharIdentity, s: int) -> Uni:
    """Lagrange projector onto the shift with root alpha_s, as a univariate
    polynomial in the symbol E; requires s retained and the retained roots
    pairwise distinct."""
    retained = ci.retained_roots()
    target = None
    for s2, root in retained:
        if s2 == s:
            target = root
    if target is None:
        if not (1 <= s <= len(ci.roots)) or not ci.retained[s - 1]:
            raise ValueError(f"root index {s} is not retained")
        target = ci.roots[s - 1]
    num: Uni = [srat(1)]
    den = srat(1)
    for _, root in retained:
        if root == target:
            continue
        diff = target - root
        if diff.is_zero():
            raise ValueError("coincident retained roots; projector undefined")
        num = uni_mul(num, [-root, srat(1)])
        den = den * diff
    if not den.is_rational():
        raise ValueError("projector denominators must be rational")
    return [coeff / den.as_rational() for coeff in num]


def casimirs(w: Weight) -> Tuple[Scalar, Scalar]:
    """Eigenvalues C1 = sum lambda_r, C2 = sum lambda_r (lambda_r+n+1-2r)."""
    n = w.n
    c1 = Scalar()
    c2 = Scalar()
    for r, lam in enumerate(w.components, start=1):
        c1 = c1 + Scalar.coerce(lam)
        c2 = c2 + Scalar.coerce(lam * (lam + n + 1 - 2 * r))
    return c1, c2


class Gl2n1:
    """The quadratic superalgebra gl2(n/1) with central charge c."""

    def __init__(self, n: int, central: Scalar, pres: QlsPresentation):
        self.n = n
        self.central = central
        self.presentation = pres
        self.alphabet = pres.alphabet
        self.rewrite = RewriteSystem(pres, GeneratorOrder.default(pres.alphabet))

    # -- generator bookkeeping ----------------------------------------

    def even_id(self, i: int, j: int) -> int:
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"E[{i},{j}] out of range")
        return n * (i - 1) + (j - 1)

    def qbar_id(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"Qbar[{i}] out of range")
        return self.n * self.n + (i - 1)

    def q_id(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"Q[{i}] out of range")
        return self.n * self.n + self.n + (i - 1)

    def E(self, i: int, j: int) -> NCPoly:
        return NCPoly.generator(self.alphabet, self.even_id(i, j))

    def Qbar(self, i: int) -> NCPoly:
        return NCPoly.generator(self.alphabet, self.qbar_id(i))

    def Q(self, i: int) -> NCPoly:
        return NCPoly.generator(self.alphabet, self.q_id(i))

    def E_trace(self) -> NCPoly:
        out = NCPoly.zero(self.alphabet)
        for i in range(1, self.n + 1):
            out = out + self.E(i, i)
        return out

    def E2(self, i: int, j: int) -> NCPoly:
        out = NCPoly.zero(self.alphabet)
        for k in range(1, self.n + 1):
            out = out + self.E(i, k) * self.E(k, j)
        return out

    def E2_trace(self) -> NCPoly:
        out = NCPoly.zero(self.alphabet)
        for i in range(1, self.n + 1):
            out = out + self.E2(i, i)
        return out

    def resolve(self, name: str, indices) -> Optional[int]:
        """Generator resolver for the expression parser."""
        try:
            if name == "E" and indices and len(indices) == 2:
                return self.even_id(indices[0], indices[1])
            if name == "Qbar" and indices and len(indices) == 1:
                return self.qbar_id(indices[0])
            if name == "Q" and indices and len(indices) == 1:
                return self.q_id(indices[0])
            if name == "x" and indices and len(indices) == 1:
                if not 1 <= indices[0] <= self.n * self.n:
                    return None
                return indices[0] - 1
            if name == "y" and indices and len(indices) == 1:
                if not 1 <= indices[0] <= 2 * self.n:
                    return None
                return self.n * self.n + indices[0] - 1
        except IndexError:
            return None
        return None

    # -- multinomial odd elements -------------------------------------

    def sbar(self, indices: Sequence[int] = ()) -> NCPoly:
        """Sbar_{i1..ik}: epsilon-contracted product of the complementary
        Qbar's with the printed prefactor; repeated indices give zero."""
        n = self.n
        k = len(indices)
        for i in indices:
            if not 1 <= i <= n:
                raise IndexError(f"index {i} out of range 1..{n}")
        if len(set(indices)) != k:
            return NCPoly.zero(self.alphabet)
        rest = [i for i in range(1, n + 1) if i not in set(indices)]
        pref = Fraction((-1) ** ((k * (k - 1)) // 2), factorial(n - k))
        out = NCPoly.zero(self.alphabet)
        for perm in permutations(rest):
            eps = _perm_sign(tuple(indices) + perm)
            word = tuple(self.qbar_id(i) for i in perm)
            out = out + NCPoly.monomial(self.alphabet, word, pref * eps)
        return self.rewrite.normal_form(out)

    # -- adjoint operators --------------------------------------------

    def adjoint_A(self) -> List[List[NCPoly]]:
        """A^i_j = (E^2)^i_j - (<E>+(n-2))E^i_j
        - (1/2) delta (<E^2> - <E>^2 - (n-3)<E>) + (c-(n-1)) delta."""
        n = self.n
        tr = self.E_trace()
        tr2 = self.E2_trace()
        scalar_part = (
            tr2 - tr * tr - tr.scale(n - 3)
        ).scale(srat(-1, 2))
        one = NCPoly.one(self.alphabet)
        out = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                entry = self.E2(i, j) - (tr + one.scale(n - 2)) * self.E(i, j)
                if i == j:
                    entry = entry + scalar_part
                    entry = entry + one.scale(self.central - (n - 1))
                row.append(entry)
            out.append(row)
        return out

    def adjoint_B(self) -> Dict[Tuple[int, int, int, int], NCPoly]:
        """B^{kl}_{ij}, antisymmetrized in (k,l), satisfying exactly

            [Q_i, Sbar_j} = sum_{k<l} Sbar_{kl} B^{kl}_{ij}

        in the enveloping algebra (graded bracket; anticommutator when
        Sbar_j is odd).  The delta-delta scalar slot carries the constant
        c - 2(n-2); with c - (n-2) instead, the identity above fails by
        exactly (n-2) times the (delta delta) combination."""
        n = self.n
        tr = self.E_trace()
        tr2 = self.E2_trace()
        one = NCPoly.one(self.alphabet)
        quad = (tr2 - tr * tr - tr.scale(n - 5)).scale(srat(-1, 2))
        # delta-delta scalar factor
        dd_factor = quad + one.scale(self.central - 2 * (n - 2))

        def delta(a, b):
            return 1 if a == b else 0

        out: Dict[Tuple[int, int, int, int], NCPoly] = {}
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        entry = NCPoly.zero(self.alphabet)
                        for (kk, ll, sgn) in ((k, l, 1), (l, k, -1)):
                            term = self.E2(kk, i).scale(delta(ll, j))
                            term = term - self.E(kk, i).scale(delta(ll, j)) * (
                                tr + one.scale(n - 3)
                            )
                            term = term + self.E(ll, j).scale(delta(kk, i))
                            term = term + dd_factor.scale(
                                delta(kk, i) * delta(ll, j)
                            )
                            entry = entry + term.scale(sgn)
                        out[(k, l, i, j)] = entry
        return out

    # -- family data ---------------------------------------------------

    def family_data(self, params: FamilyParams) -> dict:
        return family_data(params, self.central)


# -- family formulas --------------------------------------------------
#
# Each takes Scalar, int or Fraction arguments; halving multiplies by
# Fraction(1, 2) so integer input never turns into floats.


def _rect_casimirs(n: int, r, mubar, nubar) -> tuple:
    """(s', p', C1', C2') on V_0(Lambda') for Lambda = (mu^r, nu^{n-r}):
    the sum and product of the two retained roots mubar-1, nubar-1 and
    the Casimir eigenvalues of Lambda'."""
    s_prime = mubar + nubar - 2
    p_prime = (mubar - 1) * (nubar - 1)
    c1p = mubar * r + nubar * (n - r) - r * (n - r) - n
    c2p = s_prime * c1p - p_prime * n
    return s_prime, p_prime, c1p, c2p


def _adjoint_coeffs(n: int, c1p, c2p, central) -> tuple:
    """(a1, a0, b1, b0) of the adjoint operators on V_0(Lambda'), from the
    Casimirs of Lambda': A = E^2 - a1 E + a0, and b1, b0 the matching
    coefficients of B (its third coefficient bbar1 is the constant -1)."""
    half = Fraction(1, 2)
    a1 = c1p + n - 2
    a0 = central - (n - 1) - (c2p - c1p * c1p - c1p * (n - 3)) * half
    b1 = a1 - 1
    b0 = central - (n - 2) - (c2p - c1p * c1p - c1p * (n - 5)) * half
    return a1, a0, b1, b0


def _composite_coeffs(s_prime, p_prime, a1, a0, b1, b0) -> tuple:
    """Coefficients (EE, E delta, delta E, delta delta) of B o A over the
    operator basis, with E^2 = s' E - p' and bbar1 = -1."""
    a_e, a_delta = s_prime - a1, a0 - p_prime
    b_e = s_prime - b1
    return (
        a_e * b_e,
        a_delta * b_e,
        a_e * (b0 + s_prime - p_prime) + a_delta,
        a_delta * (b0 - p_prime) + p_prime * a_e,
    )


def family_data(params: FamilyParams, central) -> dict:
    """All printed closed-form quantities for Lambda = (mu^r, nu^{n-r}),
    as exact polynomials in mubar, nubar and the central charge."""
    n, r = params.n, params.r
    mb, nb = params.mubar, params.nubar
    s_prime, p_prime, c1p, c2p = _rect_casimirs(n, r, mb, nb)
    a1, a0, b1, b0 = _adjoint_coeffs(n, c1p, c2p, Scalar.coerce(central))
    bbar1 = Scalar.coerce(-1)
    return {
        "n": n,
        "r": r,
        "mubar": mb,
        "nubar": nb,
        "s_prime": s_prime,
        "p_prime": p_prime,
        "C1_prime": c1p,
        "C2_prime": c2p,
        "a1": a1,
        "a0": a0,
        "b1": b1,
        "bbar1": bbar1,
        "b0": b0,
        # reduced operator forms on V_0(Lambda'):
        # A = A_E * E + A_delta,  B = B_Edelta (Ed) + B_deltaE (dE) + B_dd (dd)
        "A_E": s_prime - a1,
        "A_delta": a0 - p_prime,
        "B_Edelta": s_prime - b1,
        "B_deltaE": -bbar1,
        "B_deltadelta": b0 - p_prime,
    }


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for s in range(len(seq)):
        for t in range(s + 1, len(seq)):
            if seq[s] > seq[t]:
                inv += 1
    return -1 if inv % 2 else 1


def gl_structure_constants(n: int) -> Dict[tuple, Fraction]:
    """gl(n) brackets on the Gel'fand generators E^a_b, indexed row-major:
    [E^a_b, E^c_d] = delta(b,c) E^a_d - delta(d,a) E^c_b."""

    def eid(i, j):
        return n * (i - 1) + (j - 1)

    c_tensor: Dict[tuple, Fraction] = {}
    rng = range(1, n + 1)
    for a in rng:
        for b in rng:
            for cc in rng:
                for d in rng:
                    i, j = eid(a, b), eid(cc, d)
                    if b == cc:
                        accumulate(c_tensor, (i, j, eid(a, d)), Fraction(1))
                    if d == a:
                        accumulate(c_tensor, (i, j, eid(cc, b)), Fraction(-1))
    return c_tensor


def _mirror_odd(tensor: dict) -> dict:
    """Nonzero entries of a tensor keyed (p, q, ...), made symmetric in the
    odd pair (p, q)."""
    out = {}
    for (p, q, *rest), v in tensor.items():
        if v:
            out[(p, q, *rest)] = v
            out[(q, p, *rest)] = v
    return out


def build(n: int, central=None) -> Gl2n1:
    """Construct gl2(n/1) as a presentation; the central charge defaults to
    the symbolic indeterminate 'c'."""
    if n < 2:
        raise ValueError("n must be at least 2")
    c_scalar = Scalar.var("c") if central is None else Scalar.coerce(central)

    n2 = n * n
    names = (
        [f"E{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        + [f"Qbar{i}" for i in range(1, n + 1)]
        + [f"Q{i}" for i in range(1, n + 1)]
    )

    def eid(i, j):
        return n * (i - 1) + (j - 1)

    # vector / contragredient actions
    cbar: Dict[tuple, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # [E^i_j, Qbar^k] = delta(k,j) Qbar^i
            cbar[(eid(i, j), j - 1, i - 1)] = Fraction(1)
            # [E^i_j, Q_k] = -delta(i,k) Q_j
            cbar[(eid(i, j), n + i - 1, n + j - 1)] = Fraction(-1)

    # {Qbar^i, Q_j}: quadratic part symmetrized into d, with the commutator
    # correction from symmetrization absorbed into b
    d_tensor: Dict[tuple, Fraction] = {}
    b_tensor: Dict[tuple, Scalar] = {}
    a_tensor: Dict[tuple, Scalar] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p, q = i - 1, n + j - 1  # odd indices of Qbar^i, Q_j
            # raw quadratic coefficient tensor T[(even a, even b)]
            T: Dict[tuple, Fraction] = {}
            for k in range(1, n + 1):
                accumulate(T, (eid(i, k), eid(k, j)), Fraction(1))  # (E^2)^i_j
                accumulate(T, (eid(k, k), eid(i, j)), Fraction(-1))  # -<E> E^i_j
            if i == j:
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        # -<E^2>/2 + <E>^2/2
                        accumulate(T, (eid(k, l), eid(l, k)), Fraction(-1, 2))
                        accumulate(T, (eid(k, k), eid(l, l)), Fraction(1, 2))
            # symmetrize in the even pair
            for (a, b), v in T.items():
                for key in ((p, q, a, b), (p, q, b, a)):
                    accumulate(d_tensor, key, v / 2)

            # linear part: printed -(n-1)/2 delta <E> plus the symmetrization
            # correction (1/2) sum_ab T_ab [x_a, x_b] = (n/2) E^i_j - delta <E>/2
            accumulate(b_tensor, (p, q, eid(i, j)), srat(n, 2))
            if i == j:
                for k in range(1, n + 1):
                    accumulate(b_tensor, (p, q, eid(k, k)), srat(-n, 2))
                a_tensor[(p, q)] = c_scalar

    pres = QlsPresentation(
        n2,
        2 * n,
        c=gl_structure_constants(n),
        cbar=cbar,
        d=_mirror_odd(d_tensor),
        b=_mirror_odd(b_tensor),
        a=_mirror_odd(a_tensor),
        names=names,
    )
    return Gl2n1(n, c_scalar, pres)
