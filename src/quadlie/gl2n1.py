"""The gl2(n/1) family: a one-parameter quadratic deformation of gl(n/1).

Even generators are the gl(n) Gel'fand generators E^i_j (row-major), odd
generators a vector Qbar^1..Qbar^n and a contragredient vector Q_1..Q_n.
The anticommutator {Qbar^i, Q_j} closes on a quadratic expression in the
E's plus a central charge c:

    {Qbar^i, Q_j} = (E^2)^i_j - <E> E^i_j
                    - (1/2) delta^i_j (<E^2> - <E>^2 + (n-1)<E>) + c delta^i_j

It is a type-I presentation, built by `type_one_presentation` like the
Lambda^3 one of `fock`: d and b come from trace invariants of E, and the
quadratic part of {Qbar^i, Q_j} is the E^j_i-gradient of
e3(E) = tr E^3/3 - tr E tr E^2/2 + (tr E)^3/6.

Also here: the multinomial odd elements Sbar (epsilon-contracted products
of Qbar's) and their calculus, the adjoint operators A and B, Casimir
eigenvalues, characteristic-identity roots and projectors, and the closed
family data for highest weights of rectangular shape (mu^r, nu^{n-r}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .ncpoly import NCPoly
from .pbw import RewriteSystem, check_rule_count
from .presentation import BalancedData, QlsPresentation, _half, build_from_casimirs
from .scalars import Scalar, accumulate, lower, srat

Uni = List[Scalar]  # univariate polynomial, coefficients low to high


def even_index(n: int, i: int, j: int) -> int:
    """Row-major generator index of E^i_j in gl(n), 1 <= i, j <= n."""
    return n * (i - 1) + (j - 1)


class Weight:
    """gl(n) weight with exact rational components (lambda_1..lambda_n),
    an integral component held as an int."""

    def __init__(self, components: Sequence):
        self.components = tuple(x if type(x) is int else lower(Fraction(x)) for x in components)

    @property
    def n(self) -> int:
        return len(self.components)

    def is_dominant_integral(self) -> bool:
        return all(
            (a - b).denominator == 1 and a >= b
            for a, b in zip(self.components, self.components[1:])
        )

    def retained(self, s: int) -> bool:
        """Whether Lambda - epsilon_s (component s less 1) is dominant
        integral; ValueError unless 1 <= s <= n."""
        if not 1 <= s <= self.n:
            raise ValueError(f"root index {s} out of range")
        lam = self.components
        return Weight(lam[:s - 1] + (lam[s - 1] - 1,) + lam[s:]).is_dominant_integral()

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Weight({list(self.components)})"


def lam_prime(w: Weight) -> Weight:
    """The shifted weight Lambda' = Lambda - 2 rho_1, rho_1 = (1/2, ..., 1/2)
    the half-sum of the positive odd weights: subtract 1 throughout."""
    return Weight([a - 1 for a in w.components])


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
        return Weight([lower(self.mu)] * self.r + [lower(self.nu)] * (self.n - self.r))

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
        self.roots: List[Scalar] = [Scalar.coerce(lam[s - 1] + n - s) for s in range(1, n + 1)]
        self.dual_roots: List[Scalar] = [Scalar.coerce(n - 1 - x) for x in lam]
        self.retained: List[bool] = [weight.retained(s) for s in range(1, n + 1)]

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
    return uni_trim(p)


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
    if not (1 <= s <= len(ci.roots)) or not ci.retained[s - 1]:
        raise ValueError(f"root index {s} is not retained")
    target = ci.roots[s - 1]
    num: Uni = [srat(1)]
    den = srat(1)
    for _, root in ci.retained_roots():
        if root != target:
            num = uni_mul(num, [-root, srat(1)])
            den = den * (target - root)
    return [coeff / den.as_rational() for coeff in num]


def _casimirs(w: Weight) -> tuple:
    """(C1, C2) of `casimirs` as an int or a Fraction each."""
    n = w.n
    c1 = sum(w.components)
    c2 = sum(lam * (lam + n + 1 - 2 * r) for r, lam in enumerate(w.components, start=1))
    return c1, c2


def casimirs(w: Weight) -> Tuple[Scalar, Scalar]:
    """Eigenvalues C1 = sum lambda_r, C2 = sum lambda_r (lambda_r+n+1-2r)."""
    c1, c2 = _casimirs(w)
    return Scalar.coerce(c1), Scalar.coerce(c2)


class Gl2n1:
    """The quadratic superalgebra gl2(n/1) with central charge c: the
    type-I presentation on gl(n) + V + V* that `build` makes."""

    def __init__(self, n: int, central: Scalar, pres: QlsPresentation):
        self.n = n
        self.central = central
        self.presentation = pres
        self.alphabet = pres.alphabet

    @cached_property
    def rewrite(self) -> RewriteSystem:
        """The rewrite system in the default order, built on first use."""
        return RewriteSystem(self.presentation)

    # -- generator bookkeeping ----------------------------------------

    def even_id(self, i: int, j: int) -> int:
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"E[{i},{j}] out of range")
        return even_index(n, i, j)

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
        return NCPoly(self.alphabet, {(self.even_id(i, i),): 1 for i in range(1, self.n + 1)})

    def E2(self, i: int, j: int) -> NCPoly:
        e = self.even_id
        return NCPoly(self.alphabet, {(e(i, k), e(k, j)): 1 for k in range(1, self.n + 1)})

    def resolve(self, name: str, indices) -> Optional[int]:
        """Generator resolver for the expression parser."""
        try:
            if name == "E" and indices and len(indices) == 2:
                return self.even_id(indices[0], indices[1])
            if name == "Qbar" and indices and len(indices) == 1:
                return self.qbar_id(indices[0])
            if name == "Q" and indices and len(indices) == 1:
                return self.q_id(indices[0])
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
        out = NCPoly(self.alphabet, {
            tuple(map(self.qbar_id, perm)): pref * _perm_sign(tuple(indices) + perm)
            for perm in permutations(rest)})
        return self.rewrite.normal_form(out)

    # -- adjoint operators --------------------------------------------

    def _adjoint_parts(self, shift: int, k: int, const) -> tuple:
        """What the adjoint operators are built from, each piece once: the
        table (a, b) -> (E^2)^a_b, <E> + shift, and the scalar
        -(1/2)(<E^2> - <E>^2 - k<E>) + const of their delta slots."""
        rng = range(1, self.n + 1)
        e2 = {(a, b): self.E2(a, b) for a in rng for b in rng}
        tr, one = self.E_trace(), NCPoly.one(self.alphabet)
        tr2 = sum((e2[a, a] for a in rng), NCPoly.zero(self.alphabet))
        scalar = (tr2 - tr * tr - tr.scale(k)).scale(Fraction(-1, 2))
        return e2, tr + one.scale(shift), scalar + one.scale(const)

    def adjoint_A(self) -> List[List[NCPoly]]:
        """A^i_j = (E^2)^i_j - (<E>+(n-2))E^i_j
        - (1/2) delta (<E^2> - <E>^2 - (n-3)<E>) + (c-(n-1)) delta."""
        n = self.n
        e2, shift, diag = self._adjoint_parts(n - 2, n - 3, self.central - (n - 1))
        zero = NCPoly.zero(self.alphabet)
        rng = range(1, n + 1)
        return [[e2[i, j] - shift * self.E(i, j) + (diag if i == j else zero)
                 for j in rng] for i in rng]

    def adjoint_B(self) -> Dict[Tuple[int, int, int, int], NCPoly]:
        """B^{kl}_{ij} = X^{kl}_{ij} - X^{lk}_{ij}, antisymmetric in (k,l):

            X^{kl}_{ij} = delta^l_j F^k_i + delta^k_i E^l_j + delta^k_i delta^l_j dd,
            F^k_i = (E^2)^k_i - E^k_i (<E> + n - 3),
            dd = -(1/2)(<E^2> - <E>^2 - (n-5)<E>) + c - 2(n-2).

        [Q_i, Sbar_j} = sum_{k<l} Sbar_{kl} B^{kl}_{ij} holds exactly in the
        enveloping algebra (graded bracket); with c - (n-2) in dd it fails
        by (n-2) times the (delta delta) combination.  X fills only its
        nonzero delta slots: F when l = j, E when k = i, dd when both hold.
        All n^4 keys (k, l, i, j) are present, in row-major order."""
        n = self.n
        e2, shift, dd = self._adjoint_parts(n - 3, n - 5, self.central - 2 * (n - 2))
        F = {(a, b): sq - self.E(a, b) * shift for (a, b), sq in e2.items()}
        zero = NCPoly.zero(self.alphabet)

        def x(k, l, i, j):
            out = F[k, i] if l == j else zero
            if k == i:
                out = out + self.E(l, j) + (dd if l == j else zero)
            return out

        rng = range(1, n + 1)
        return {(k, l, i, j): x(k, l, i, j) - x(l, k, i, j)
                for k in rng for l in rng for i in rng for j in rng}


# -- family formulas --------------------------------------------------
#
# Each takes Scalar, int or Fraction arguments; callers pass their inputs
# through `scalars.lower`, so rational data runs in ints and Fractions and a Scalar
# appears only where an input is symbolic.  The two halved quantities
# C2' - C1'^2 - C1'(n - k), k = 3 and 5, are even on every integral weight
# (DECISIONS.md "Integral data stays in ints"), so `_half` halves ints
# exactly (an odd int raises, never rounds) and divides a Scalar or Fraction.


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
    a1 = c1p + n - 2
    a0 = central - (n - 1) - _half(c2p - c1p * c1p - c1p * (n - 3))
    b1 = a1 - 1
    b0 = central - (n - 2) - _half(c2p - c1p * c1p - c1p * (n - 5))
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


def _family_values(params: FamilyParams, central) -> dict:
    """The values of `family_data` but n and r, computed on the lowered
    mubar, nubar and central charge: ints and Fractions for rational input,
    Scalars only where an input is symbolic."""
    n, r = params.n, params.r
    mb, nb = lower(params.mubar), lower(params.nubar)
    s_prime, p_prime, c1p, c2p = _rect_casimirs(n, r, mb, nb)
    a1, a0, b1, b0 = _adjoint_coeffs(n, c1p, c2p, lower(central))
    return {
        "mubar": mb,
        "nubar": nb,
        "s_prime": s_prime,
        "p_prime": p_prime,
        "C1_prime": c1p,
        "C2_prime": c2p,
        "a1": a1,
        "a0": a0,
        "b1": b1,
        "bbar1": -1,
        "b0": b0,
        # reduced operator forms on V_0(Lambda'):
        # A = A_E * E + A_delta,  B = B_Edelta (Ed) + B_deltaE (dE) + B_dd (dd)
        "A_E": s_prime - a1,
        "A_delta": a0 - p_prime,
        "B_Edelta": s_prime - b1,
        "B_deltaE": 1,
        "B_deltadelta": b0 - p_prime,
    }


def family_data(params: FamilyParams, central) -> dict:
    """All printed closed-form quantities for Lambda = (mu^r, nu^{n-r}),
    as exact polynomials in mubar, nubar and the central charge."""
    return _lifted(params, _family_values(params, central))


def _lifted(params: FamilyParams, values: dict) -> dict:
    """The `family_data` dict of `_family_values`: n, r, then each value
    as a Scalar."""
    return {"n": params.n, "r": params.r,
            **{key: Scalar.coerce(v) for key, v in values.items()}}


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for s in range(len(seq)):
        for t in range(s + 1, len(seq)):
            if seq[s] > seq[t]:
                inv += 1
    return -1 if inv % 2 else 1


def gl_structure_constants(n: int) -> Dict[tuple, int]:
    """gl(n) brackets on the Gel'fand generators E^a_b, indexed row-major:
    [E^a_b, E^c_d] = delta(b,c) E^a_d - delta(d,a) E^c_b, so only
    [E^a_b, E^b_x] holds +E^a_x and [E^a_b, E^x_a] holds -E^x_b; the two
    cancel on [E^a_a, E^a_a]."""
    eid = partial(even_index, n)
    c_tensor: Dict[tuple, int] = {}
    rng = range(1, n + 1)
    for a, b, x in product(rng, repeat=3):
        accumulate(c_tensor, (eid(a, b), eid(b, x), eid(a, x)), 1)
        accumulate(c_tensor, (eid(a, b), eid(x, a), eid(x, b)), -1)
    return c_tensor


def _wedge_frame(n: int, k: int) -> tuple:
    """(names, c, cbar) of gl(n) acting on Lambda^k V and its dual: evens
    E^i_j with c the gl(n) brackets, then the odd block Qbar^U and the odd
    block Q_U, U over the k-subsets of 1..n in lexicographic order.
    [E^i_j, Qbar^U] replaces the index j of U by i, [E^i_j, Q_U] is minus
    U with the index i replaced by j; each term is signed by the sort of
    the new subset.  cbar entries are the ints +-1."""
    eid = partial(even_index, n)
    subsets = list(combinations(range(1, n + 1), k))
    pos = {u: t for t, u in enumerate(subsets)}
    m = len(subsets)
    cbar: Dict[tuple, int] = {}
    for t, u in enumerate(subsets):
        for s, old in enumerate(u):
            for new in range(1, n + 1):
                if new != old and new in u:
                    continue
                seq = u[:s] + (new,) + u[s + 1:]
                sign, tgt = _perm_sign(seq), pos[tuple(sorted(seq))]
                cbar[eid(new, old), t, tgt] = sign
                cbar[eid(old, new), m + t, m + tgt] = -sign
    labels = ["".join(map(str, u)) for u in subsets]
    names = ([f"E{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
             + ["Qbar" + u for u in labels] + ["Q" + u for u in labels])
    return names, gl_structure_constants(n), cbar


def type_one_presentation(n: int, k: int, cubic: Sequence, quadratic: Sequence,
                          a_value) -> QlsPresentation:
    """The type-I presentation on gl(n) + Lambda^k V + its dual
    (`_wedge_frame`) whose odd-odd bracket comes from trace-monomial
    invariants through `build_from_casimirs`, with the pairing Omega +1
    from Qbar^U to Q_U and -1 back, and a = a_value on each pair
    (Qbar^U, Q_U).  cubic = (k1, k2, k3, k4) weighs the invariant
    3-tensors tr(EEE), tr(EE)tr(E), tr(E)tr(EE), tr(E)^3, symmetric in the
    last two slots (the first slot is the one pi acts by); quadratic =
    (l1, l2) weighs tr(EE), tr(E)^2."""
    names, c_tensor, cbar = _wedge_frame(n, k)
    m = comb(n, k)
    omega = [[0] * (2 * m) for _ in range(2 * m)]
    a_tensor = {}
    for t in range(m):
        omega[t][m + t], omega[m + t][t] = 1, -1
        a_tensor[t, m + t] = a_tensor[m + t, t] = a_value
    (k1, k2, k3, k4), (l1, l2) = cubic, quadratic
    half_k1 = k1 / 2
    rng = range(n)
    e = [[n * i + j for j in rng] for i in rng]  # E^{i+1}_{j+1}
    c2: Dict[tuple, Fraction] = {}
    c3: Dict[tuple, Fraction] = {}
    for i in rng:
        for j in rng:
            ij, ji, ii, jj = e[i][j], e[j][i], e[i][i], e[j][j]
            accumulate(c2, (ij, ji), l1)  # tr(EE)
            accumulate(c2, (ii, jj), l2)  # tr(E)^2
            for h in rng:
                jh, hi, hh = e[j][h], e[h][i], e[h][h]
                accumulate(c3, (ij, jh, hi), half_k1)  # tr(EEE)
                accumulate(c3, (ij, hi, jh), half_k1)
                accumulate(c3, (ij, ji, hh), k2)  # tr(EE)tr(E)
                accumulate(c3, (ij, hh, ji), k2)
                accumulate(c3, (hh, ij, ji), k3)  # tr(E)tr(EE)
                accumulate(c3, (ii, jj, hh), k4)  # tr(E)^3
    bal = BalancedData({key: -v for key, v in cbar.items()}, omega)
    b_tensor, d_tensor = build_from_casimirs(c2, c3, bal)
    return QlsPresentation(n * n, 2 * m, c=c_tensor, cbar=cbar, d=d_tensor,
                           b=b_tensor, a=a_tensor, names=names)


def build(n: int, central=None) -> Gl2n1:
    """Construct gl2(n/1) as a presentation; the central charge defaults to
    the symbolic indeterminate 'c'.  The type-I presentation on
    V = Lambda^1: C3(E^j_i, E, E) is minus the E^j_i-gradient of e3, C2
    carries the printed linear terms and the ordering correction, and
    a = c (DECISIONS.md)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    check_rule_count(n * n + 2 * n, 2 * n)  # n >= 31 is refused
    c_scalar = Scalar.var("c") if central is None else Scalar.coerce(central)
    pres = type_one_presentation(
        n, 1, (Fraction(-1), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(-n, 2), Fraction(n, 2)), c_scalar)
    return Gl2n1(n, c_scalar, pres)
