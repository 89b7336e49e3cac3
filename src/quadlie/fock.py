"""Fermionic Fock-space realization used as an independent numerical oracle.

Modes 1..n act on the 2^n-dimensional space of occupation bitstrings with
Jordan-Wigner signs, giving exact canonical anticommutation relations.  The
composites E^i_j = adag_i a_j, Q_{ijk} = a_i a_j a_k, Qbar^{ijk} =
adag_i adag_j adag_k realize a quadratic superalgebra with odd generators
in the third antisymmetric power of the fundamental; for n = 4 the
occupation-number-2 states form a zero-step module, demonstrated here by
exact matrix computations.  Matrix entries are Python ints where integral
(the Jordan-Wigner signs and everything built from them by integer
arithmetic) and Fractions otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from typing import Dict, List, Optional, Tuple, Union

from .gl2n1 import _perm_sign, type_one_presentation
from .scalars import axpy, lower

Entry = Union[int, Fraction]


class SparseOp:
    """Sparse exact operator on a 2^n-dimensional Fock space.  Entries are
    nonzero ints where integral, else Fractions; an int and an equal
    Fraction compare equal, so two operators compare by value."""

    __slots__ = ("dim", "data")

    def __init__(self, dim: int, data: Optional[Dict[Tuple[int, int], Entry]] = None):
        self.dim = dim
        self.data = {}
        if data:
            for (r, c), val in data.items():
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"index ({r}, {c}) outside dimension {dim}")
                if val:
                    self.data[(r, c)] = val if type(val) is int else Fraction(val)

    @classmethod
    def identity(cls, dim: int) -> "SparseOp":
        return _op(dim, {(i, i): 1 for i in range(dim)})

    def _same_dim(self, other: "SparseOp") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} and {other.dim}")

    def __add__(self, other: "SparseOp") -> "SparseOp":
        return self._merge(other, 1)

    def __sub__(self, other: "SparseOp") -> "SparseOp":
        return self._merge(other, -1)

    def _merge(self, other: "SparseOp", sign: int) -> "SparseOp":
        """self + sign * other; NotImplemented for an operand that is not a SparseOp."""
        if not isinstance(other, SparseOp):
            return NotImplemented
        self._same_dim(other)
        return _op(self.dim, axpy(dict(self.data), sign, other.data))

    def __mul__(self, other):
        if isinstance(other, SparseOp):
            self._same_dim(other)
            by_row: Dict[int, List[Tuple[int, Entry]]] = {}
            for (r, c), val in other.data.items():
                by_row.setdefault(r, []).append((c, val))
            out: Dict[Tuple[int, int], Entry] = {}
            for (r, k), aval in self.data.items():
                for c, bval in by_row.get(k, ()):
                    key = (r, c)
                    new = out.get(key, 0) + aval * bval
                    if new:
                        out[key] = new
                    else:
                        del out[key]
            return _op(self.dim, out)
        if not isinstance(other, int):
            other = lower(Fraction(other))
        return _op(self.dim, {k: v * other for k, v in self.data.items()} if other else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseOp) and self.dim == other.dim and self.data == other.data

    def is_zero(self) -> bool:
        return not self.data

    def __repr__(self):
        entries = ", ".join(f"({r},{c}): {v}" for (r, c), v in sorted(self.data.items()))
        return f"SparseOp(dim={self.dim}, {{{entries}}})"


def _op(dim: int, data: Dict[Tuple[int, int], Entry]) -> SparseOp:
    """A SparseOp around `data` as given, without the public constructor's
    checks and coercion: for a fresh dict of nonzero in-range entries."""
    out = object.__new__(SparseOp)
    out.dim = dim
    out.data = data
    return out


def _jw_sign(bits: int, mode: int) -> int:
    """(-1)^(number of occupied modes below `mode`), modes 1-based."""
    below = bits & ((1 << (mode - 1)) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def fermion_ops(n: int) -> Tuple[List[SparseOp], List[SparseOp]]:
    """Jordan-Wigner annihilation/creation operators a_1..a_n, adag_1..adag_n
    on the 2^n-dimensional space; satisfy exact canonical anticommutation."""
    if not 1 <= n <= 14:
        raise ValueError(f"mode count {n} out of supported range 1..14")
    dim = 1 << n
    ann, cre = [], []
    for i in range(1, n + 1):
        bit = 1 << (i - 1)
        a_data, c_data = {}, {}
        for b in range(dim):
            if b & bit:
                sign = _jw_sign(b, i)
                a_data[(b ^ bit, b)] = sign
                c_data[(b, b ^ bit)] = sign
        ann.append(SparseOp(dim, a_data))
        cre.append(SparseOp(dim, c_data))
    return ann, cre


def anticommutator(x: SparseOp, y: SparseOp) -> SparseOp:
    return x * y + y * x


def composite_generators(n: int) -> dict:
    """E^i_j = adag_i a_j, the number operator N, and the totally
    antisymmetric triple composites Q_{ijk}, Qbar^{ijk} (keys: all index
    triples, 1-based)."""
    if n < 3:
        raise ValueError("composite triples need n >= 3")
    ann, cre = fermion_ops(n)
    dim = 1 << n
    rng = range(1, n + 1)
    e = {(i, j): cre[i - 1] * ann[j - 1] for i in rng for j in rng}
    num = sum((e[(i, i)] for i in rng), SparseOp(dim))
    q, qbar = {}, {}
    for i in rng:
        for j in rng:
            # (a_i a_j) a_k with the pair formed once: the products of a_i a_j a_k
            # in their order, no antisymmetry shortcut, so the oracle stays independent
            aa, cc = ann[i - 1] * ann[j - 1], cre[i - 1] * cre[j - 1]
            for k in rng:
                q[(i, j, k)] = aa * ann[k - 1]
                qbar[(i, j, k)] = cc * cre[k - 1]
    return {"n": n, "dim": dim, "a": ann, "adag": cre, "E": e, "N": num,
            "Q": q, "Qbar": qbar}


def _script_e(gens: dict, upper: Tuple[int, int, int], lower: Tuple[int, int, int]) -> SparseOp:
    """Component of the antisymmetrized adjoint array: both index triples
    antisymmetrized with weight 1/3!, which collapses to 18 unit-coefficient
    terms (signed pairings of the triples, E in each of the three slots)."""
    dim, e = gens["dim"], gens["E"]
    out = SparseOp(dim)
    for perm in permutations(range(3)):
        sign = _perm_sign(perm)
        low = tuple(lower[p] for p in perm)
        for t in range(3):
            deltas_ok = all(upper[s] == low[s] for s in range(3) if s != t)
            if deltas_ok:
                out = out + e[(upper[t], low[t])] * sign
    return out


def bracket_polynomial_check(n: int = 4) -> dict:
    """Verify {Q_{ijk}, Qbar^{pqr}} = -1/4 (E_script^2 - (n+3-N) E_script
    + 4 delta) component-wise as exact matrices."""
    gens = composite_generators(n)
    dim, num = gens["dim"], gens["N"]
    triples = list(combinations(range(1, n + 1), 3))
    script = {(u, l): _script_e(gens, u, l) for u in triples for l in triples}
    # (E_script^2): matrix product over the ordered-triple basis
    script2 = {}
    for u in triples:
        for l in triples:
            acc = SparseOp(dim)
            for m in triples:
                acc = acc + script[(u, m)] * script[(m, l)]
            script2[(u, l)] = acc
    coeff = SparseOp.identity(dim) * (n + 3) - num
    # on sorted triples the antisymmetrized delta is u == l
    checked = [anticommutator(gens["Q"][l], gens["Qbar"][u])
               == (script2[(u, l)] - coeff * script[(u, l)]
                   + SparseOp.identity(dim) * (4 * (u == l))) * Fraction(-1, 4)
               for u in triples for l in triples]
    return {"n": n, "holds": all(checked), "components_checked": len(checked)}


def occupation_basis(n: int, k: int) -> List[int]:
    """Bitmask basis states with exactly k occupied modes."""
    return [b for b in range(1 << n) if bin(b).count("1") == k]


def zero_step_demo(n: int = 4) -> dict:
    """Exact demonstration that the occupation-2 states of the n=4
    realization form a zero-step module: all triple composites annihilate
    the subspace, and the antisymmetrized adjoint array restricted there
    satisfies (M-1)(M-4) = 0 with both roots attained."""
    gens = composite_generators(n)
    basis2 = occupation_basis(n, 2)
    pos = {b: i for i, b in enumerate(basis2)}
    # an operator annihilates the occ-2 states iff none of its entries
    # lies in their columns
    killed_q, killed_qbar = (
        not any(c in pos for op in gens[name].values() for _, c in op.data)
        for name in ("Q", "Qbar"))
    triples = list(combinations(range(1, n + 1), 3))
    # block operator of the adjoint array on (ordered triples) x (occ-2 states)
    size = len(triples) * len(basis2)
    big = {}
    for ui, u in enumerate(triples):
        for li, l in enumerate(triples):
            for (r, c), val in _script_e(gens, u, l).data.items():
                if c in pos:
                    if r not in pos:
                        raise ValueError("adjoint array does not preserve the subspace")
                    big[(ui * len(basis2) + pos[r], li * len(basis2) + pos[c])] = val
    m, one = SparseOp(size, big), SparseOp.identity(size)
    m1, m4 = m - one, m - one * 4
    annihilated = (m1 * m4).is_zero()
    root1_attained = not m4.is_zero()
    root4_attained = not m1.is_zero()
    # right side of the displayed bracket with N -> 2:
    # -1/4 (M^2 - (n + 1) M + 4), on the restricted operator
    rhs_vanishes = (m * m - m * (n + 1) + one * 4).is_zero()
    return {
        "n": n,
        "occ2_dimension": len(basis2),
        "q_annihilates": killed_q,
        "qbar_annihilates": killed_qbar,
        "restricted_dimension": size,
        "char_identity_holds": annihilated,
        "roots": (1, 4),
        "root_1_attained": root1_attained,
        "root_4_attained": root4_attained,
        "rhs_vanishes": rhs_vanishes,
        "passed": killed_q and killed_qbar and annihilated
        and root1_attained and root4_attained and rhs_vanishes,
    }


def lambda3_presentation():
    """Quadratic-superalgebra presentation of the n=4 triple-composite
    algebra: evens E^i_j (gl(4)), odds Qbar^{ijk} and Q_{ijk} over ordered
    triples, with the odd-odd bracket read off from the verified matrix
    identity {Q, Qbar} = -1/4 (E_script^2 - (n+3-<E>) E_script + 4 delta).
    """
    # The 16-dimensional Fock module is not faithful on quadratic Casimir
    # combinations, so the odd-odd tensors cannot be read off the matrix
    # bracket alone: many tensor choices reproduce the same matrices but
    # violate the graded Jacobi identities.  Instead build d, b through the
    # balanced pairing between the two odd blocks from invariant 2- and
    # 3-tensors (trace monomials in E, symmetrized in the two quadratic
    # slots).  The coefficients below are the unique ones for which the
    # presentation both reproduces the matrix bracket exactly and passes
    # the Jacobi identities.
    return type_one_presentation(
        4, 3, (Fraction(-3, 4), Fraction(1, 8), Fraction(1, 8), Fraction(-1, 24)),
        (Fraction(1, 4), Fraction(-1, 12)), Fraction(-1))


def presentation_cross_check() -> dict:
    """Verify every defining relation of the triple-composite presentation
    as an exact matrix identity in the n=4 Fock realization.  A relation
    [g1, g2} = sum_w v_w w is checked scaled by L, the lcm of the
    denominators of its v_w: L [g1, g2} - sum_w (L v_w) w, an int matrix
    accumulated entry by entry, must vanish."""
    pres = lambda3_presentation()
    n = 4
    gens = composite_generators(n)
    dim = gens["dim"]
    triples = list(combinations(range(1, n + 1), 3))
    # E^i_j row-major, then Qbar^u and Q_u over the ordered triples
    mats = [*gens["E"].values(), *(gens["Qbar"][u] for u in triples),
            *(gens["Q"][u] for u in triples)]

    # each word's matrix, g1 g2 and g2 g1 included, formed once in this call
    # from its prefix's (a word of a relation has at most two letters)
    words = {(g,): op for g, op in enumerate(mats)}
    words[()] = SparseOp.identity(dim)
    failures = []
    evens, odds = range(pres.n_even), range(pres.n_even, pres.alphabet.size)
    # {y_p, y_q} = y_p y_q + y_q y_p for odd pairs, [., .] otherwise; pairs
    # (odd, even) are the (even, odd) relations again
    for kind, firsts, seconds in (("ee", evens, evens), ("mx", evens, odds),
                                  ("oo", odds, odds)):
        swap = 1 if kind == "oo" else -1
        for g1 in firsts:
            for g2 in seconds:
                rhs = [(w, lower(v)) for w, v in pres.bracket(g1, g2).items()]
                scale = lcm(*(v.denominator for _, v in rhs))
                terms = [((g1, g2), scale), ((g2, g1), swap * scale),
                         *((w, -v.numerator * (scale // v.denominator)) for w, v in rhs)]
                acc = {}
                for word, k in terms:
                    if word not in words:
                        words[word] = words[word[:-1]] * mats[word[-1]]
                    axpy(acc, k, words[word].data)
                if acc:
                    failures.append((kind, g1 - firsts.start, g2 - seconds.start))
    return {"n": n, "relations_hold": not failures, "failures": failures,
            "presentation": pres}

