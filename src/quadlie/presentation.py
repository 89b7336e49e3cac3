"""Quadratic graded bracket presentations and Jacobi-consistency checkers.

A presentation packages the structure tensors of a Z2-graded algebra with
brackets

    [x_i, x_j] = c_ij^k x_k
    [x_i, y_p] = cbar_ip^q y_q
    {y_p, y_q} = d_pq^kl x_k x_l + b_pq^k x_k + a_pq

(evens x_i, odds y_p, summation implied).  The anticommutators are allowed
to close on quadratic expressions, so associativity of the enveloping
algebra is not automatic; two independent checkers decide it:

  * check_component_jacobi -- six families of index-wise tensor identities,
  * check_abstract_jacobi  -- reduces overlap elements of the defining ideal
    and verifies the degree-2/1/0 obstructions all vanish.

Both return a JacobiReport listing every violated identity with its exact
residual.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .exprparse import parse_scalar
from .ncpoly import Alphabet, NCPoly, Word
from .scalars import Scalar, accumulate, srat

# An ideal pair labels one quadratic generator of the defining ideal:
#   ("ee", i, j) i<j : x_i x_j - x_j x_i - c-part
#   ("mx", i, p)     : x_i y_p - y_p x_i - cbar-part
#   ("oo", p, q) p<=q: y_p y_q + y_q y_p - d-part - b-part - a-part
Pair = Tuple[str, int, int]

FORMAT_TAG = "quadlie-presentation-1"


class JacobiViolation(NamedTuple):
    family: str
    indices: Tuple[int, ...]
    residual: Scalar
    detail: str = ""


class JacobiReport:
    """Outcome of a Jacobi consistency check."""

    def __init__(self, method: str, violations: Sequence[JacobiViolation]):
        self.method = method
        self.violations = list(violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return f"{self.method}: all Jacobi identities hold"
        lines = [f"{self.method}: {len(self.violations)} violated identities"]
        for v in self.violations[:20]:
            where = f" [{v.detail}]" if v.detail else ""
            lines.append(
                f"  {v.family} at {v.indices}{where}: residual {v.residual}"
            )
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)

    def __repr__(self):
        return f"JacobiReport({self.method}, passed={self.passed})"


def _coerce_tensor(entries, arity: int, label: str) -> Dict[tuple, Scalar]:
    out: Dict[tuple, Scalar] = {}
    for idx, val in dict(entries or {}).items():
        idx = tuple(idx)
        if len(idx) != arity:
            raise ValueError(f"{label} index {idx} must have {arity} components")
        sval = Scalar.coerce(val)
        if not sval.is_zero():
            out[idx] = sval
    return out


class QlsPresentation:
    """Structure tensors of a quadratic graded bracket presentation.

    Tensors are sparse dicts keyed by 0-based index tuples:
    c[(i,j,k)], cbar[(i,p,q)], d[(p,q,k,l)], b[(p,q,k)], a[(p,q)].
    Symmetry constraints (c antisymmetric in i,j; d symmetric in p,q and in
    k,l; b and a symmetric in p,q) are validated at construction and
    violations rejected rather than silently symmetrized.
    """

    def __init__(
        self,
        n_even: int,
        m_odd: int,
        c: Mapping = (),
        cbar: Mapping = (),
        d: Mapping = (),
        b: Mapping = (),
        a: Mapping = (),
        names: Optional[Sequence[str]] = None,
        indeterminates: Iterable[str] = (),
    ):
        self.n_even = n_even
        self.m_odd = m_odd
        self.c = _coerce_tensor(c, 3, "c")
        self.cbar = _coerce_tensor(cbar, 3, "cbar")
        self.d = _coerce_tensor(d, 4, "d")
        self.b = _coerce_tensor(b, 3, "b")
        self.a = _coerce_tensor(a, 2, "a")
        inferred = set(indeterminates)
        for tensor in (self.c, self.cbar, self.d, self.b, self.a):
            for val in tensor.values():
                inferred |= val.variables()
        self.indeterminates = tuple(sorted(inferred))
        self.alphabet = Alphabet(
            n_even, m_odd, names=names, indeterminates=self.indeterminates
        )
        self._validate()
        self._alpha_cache: Dict[Pair, NCPoly] = {}
        self._e2_cache: Dict[Pair, NCPoly] = {}

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        n, m = self.n_even, self.m_odd
        for (i, j, k), v in self.c.items():
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError(f"c index {(i, j, k)} out of range")
            if self.c.get((j, i, k), Scalar()) != -v:
                raise ValueError(f"c not antisymmetric at {(i, j, k)}")
        for (i, p, q), _ in self.cbar.items():
            if not (0 <= i < n and 0 <= p < m and 0 <= q < m):
                raise ValueError(f"cbar index {(i, p, q)} out of range")
        for (p, q, k, l), v in self.d.items():
            if not (0 <= p < m and 0 <= q < m and 0 <= k < n and 0 <= l < n):
                raise ValueError(f"d index {(p, q, k, l)} out of range")
            if self.d.get((q, p, k, l), Scalar()) != v:
                raise ValueError(f"d not symmetric in odd pair at {(p, q, k, l)}")
            if self.d.get((p, q, l, k), Scalar()) != v:
                raise ValueError(f"d not symmetric in even pair at {(p, q, k, l)}")
        for (p, q, k), v in self.b.items():
            if not (0 <= p < m and 0 <= q < m and 0 <= k < n):
                raise ValueError(f"b index {(p, q, k)} out of range")
            if self.b.get((q, p, k), Scalar()) != v:
                raise ValueError(f"b not symmetric at {(p, q, k)}")
        for (p, q), v in self.a.items():
            if not (0 <= p < m and 0 <= q < m):
                raise ValueError(f"a index {(p, q)} out of range")
            if self.a.get((q, p), Scalar()) != v:
                raise ValueError(f"a not symmetric at {(p, q)}")

    # -- equality / serialization -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QlsPresentation):
            return NotImplemented
        return (
            self.n_even,
            self.m_odd,
            self.alphabet.names,
            self.c,
            self.cbar,
            self.d,
            self.b,
            self.a,
        ) == (
            other.n_even,
            other.m_odd,
            other.alphabet.names,
            other.c,
            other.cbar,
            other.d,
            other.b,
            other.a,
        )

    def __hash__(self):
        return hash((self.n_even, self.m_odd, len(self.c), len(self.d)))

    def to_json_dict(self) -> dict:
        def dump(tensor):
            return [
                [*idx, str(tensor[idx])] for idx in sorted(tensor)
            ]

        return {
            "format": FORMAT_TAG,
            "n_even": self.n_even,
            "m_odd": self.m_odd,
            "names": list(self.alphabet.names),
            "indeterminates": list(self.indeterminates),
            "c": dump(self.c),
            "cbar": dump(self.cbar),
            "d": dump(self.d),
            "b": dump(self.b),
            "a": dump(self.a),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @staticmethod
    def from_json_dict(data: dict) -> "QlsPresentation":
        if not isinstance(data, dict):
            raise ValueError("presentation must be a JSON object")
        if data.get("format") != FORMAT_TAG:
            raise ValueError(f"unrecognized presentation format {data.get('format')!r}")

        def load(entries, arity):
            out = {}
            for row in entries:
                if not isinstance(row, list) or len(row) != arity + 1:
                    raise ValueError(f"bad tensor row {row}")
                if not isinstance(row[-1], str):
                    raise ValueError(f"tensor entry in row {row} is not a string")
                out[tuple(int(t) for t in row[:-1])] = parse_scalar(row[-1])
            return out

        return QlsPresentation(
            int(data["n_even"]),
            int(data["m_odd"]),
            c=load(data.get("c", []), 3),
            cbar=load(data.get("cbar", []), 3),
            d=load(data.get("d", []), 4),
            b=load(data.get("b", []), 3),
            a=load(data.get("a", []), 2),
            names=data.get("names"),
            indeterminates=data.get("indeterminates", ()),
        )

    @staticmethod
    def loads(text: str) -> "QlsPresentation":
        return QlsPresentation.from_json_dict(json.loads(text))

    @staticmethod
    def load(path: str) -> "QlsPresentation":
        with open(path) as fh:
            return QlsPresentation.loads(fh.read())

    # -- ideal generators ---------------------------------------------

    def ideal_pairs(self) -> List[Pair]:
        n, m = self.n_even, self.m_odd
        pairs: List[Pair] = []
        pairs += [("ee", i, j) for i in range(n) for j in range(i + 1, n)]
        pairs += [("mx", i, p) for i in range(n) for p in range(m)]
        pairs += [("oo", p, q) for p in range(m) for q in range(p, m)]
        return pairs

    def e2(self, pair: Pair) -> NCPoly:
        """Quadratic part of the ideal generator labelled by `pair`."""
        cached = self._e2_cache.get(pair)
        if cached is not None:
            return cached
        ab = self.alphabet
        kind, u, v = pair
        if kind == "ee":
            i, j = ab.even(u), ab.even(v)
            poly = NCPoly(ab, {(i, j): srat(1), (j, i): srat(-1)})
        elif kind == "mx":
            i, p = ab.even(u), ab.odd(v)
            poly = NCPoly(ab, {(i, p): srat(1), (p, i): srat(-1)})
        elif kind == "oo":
            p, q = ab.odd(u), ab.odd(v)
            terms: Dict[Word, Scalar] = {(p, q): srat(1)}
            terms[(q, p)] = terms.get((q, p), Scalar()) + 1
            poly = NCPoly(ab, terms)
            dpart: Dict[Word, Scalar] = {}
            for (p2, q2, k, l), val in self.d.items():
                if (p2, q2) == (u, v):
                    w = (ab.even(k), ab.even(l))
                    dpart[w] = dpart.get(w, Scalar()) + val
            poly = poly - NCPoly(ab, dpart)
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        self._e2_cache[pair] = poly
        return poly

    def alpha(self, pair: Pair) -> NCPoly:
        """Degree-1 bracket value of the ideal generator."""
        cached = self._alpha_cache.get(pair)
        if cached is not None:
            return cached
        ab = self.alphabet
        kind, u, v = pair
        acc: Dict[Word, Scalar] = {}
        if kind == "ee":
            for (i, j, k), val in self.c.items():
                if (i, j) == (u, v):
                    w = (ab.even(k),)
                    acc[w] = acc.get(w, Scalar()) + val
        elif kind == "mx":
            for (i, p, q), val in self.cbar.items():
                if (i, p) == (u, v):
                    w = (ab.odd(q),)
                    acc[w] = acc.get(w, Scalar()) + val
        elif kind == "oo":
            for (p, q, k), val in self.b.items():
                if (p, q) == (u, v):
                    w = (ab.even(k),)
                    acc[w] = acc.get(w, Scalar()) + val
        else:
            raise ValueError(f"unknown pair kind {kind!r}")
        poly = NCPoly(ab, acc)
        self._alpha_cache[pair] = poly
        return poly

    def beta(self, pair: Pair) -> Scalar:
        """Scalar bracket value of the ideal generator (odd pairs only)."""
        kind, u, v = pair
        if kind == "oo":
            return self.a.get((u, v), Scalar())
        return Scalar()

    def ideal_generator(self, pair: Pair) -> NCPoly:
        """Full generator: quadratic part minus its bracket value."""
        g = self.e2(pair) - self.alpha(pair)
        return g - NCPoly.one(self.alphabet).scale(self.beta(pair))

    # -- reduction of degree-2 elements --------------------------------

    def normalize2(self, poly: NCPoly) -> Tuple[NCPoly, Dict[Pair, Scalar]]:
        """Split a degree<=2 element as (ordered residual) + sum lam.e2(pair).

        Ordered words: x_u x_v with u<=v, x_i y_p, and y_p y_q with p<q.
        Returns the residual and the bookkeeping coefficients lam.
        """
        ab = self.alphabet
        n = ab.n_even
        residual: Dict[Word, Scalar] = {}
        lam: Dict[Pair, Scalar] = {}
        work = list(poly.terms.items())
        while work:
            word, coeff = work.pop()
            if len(word) != 2:
                accumulate(residual, word, coeff)
                continue
            g1, g2 = word
            p1, p2 = ab.parity(g1), ab.parity(g2)
            if p1 == 0 and p2 == 0:
                if g1 <= g2:
                    accumulate(residual, word, coeff)
                else:
                    # x_j x_i = x_i x_j - e_ee(i,j)   (i<j)
                    work.append(((g2, g1), coeff))
                    accumulate(lam, ("ee", g2, g1), -coeff)
            elif p1 == 0:  # even then odd: ordered
                accumulate(residual, word, coeff)
            elif p2 == 0:
                # y_p x_i = x_i y_p - e_mx(i,p)
                work.append(((g2, g1), coeff))
                accumulate(lam, ("mx", g2, g1 - n), -coeff)
            else:
                u, v = g1 - n, g2 - n
                if u < v:
                    accumulate(residual, word, coeff)
                elif u == v:
                    # y_p y_p = (1/2) d-part + (1/2) e_oo(p,p)
                    half = coeff / 2
                    for (p, q, k, l), val in self.d.items():
                        if (p, q) == (u, u):
                            work.append(((ab.even(k), ab.even(l)), half * val))
                    accumulate(lam, ("oo", u, u), half)
                else:
                    # y_p y_q = -y_q y_p + d-part + e_oo(q,p)   (q<p)
                    work.append(((g2, g1), -coeff))
                    for (p, q, k, l), val in self.d.items():
                        if (p, q) == (v, u):
                            work.append(((ab.even(k), ab.even(l)), coeff * val))
                    accumulate(lam, ("oo", v, u), coeff)
        return NCPoly(ab, residual), lam

    def alpha_beta(self, poly: NCPoly) -> Tuple[NCPoly, Scalar]:
        """Bracket value of an element of the quadratic ideal span.

        Raises ValueError when the degree-2 input is not in the span.
        """
        residual, lam = self.normalize2(poly)
        if not residual.is_zero():
            raise ValueError(
                f"element is not in the quadratic ideal: residual {residual.render()}"
            )
        out = NCPoly.zero(self.alphabet)
        scalar = Scalar()
        for pair, coeff in lam.items():
            out = out + self.alpha(pair).scale(coeff)
            scalar = scalar + coeff * self.beta(pair)
        return out, scalar

    # -- component checker --------------------------------------------

    def check_component_jacobi(self) -> JacobiReport:
        """Index-wise tensor identities, checked family by family."""
        viols: List[JacobiViolation] = []

        c_by_first: Dict[int, list] = {}
        c_by_second: Dict[int, list] = {}
        for (i, j, k), v in self.c.items():
            c_by_first.setdefault(i, []).append((j, k, v))
            c_by_second.setdefault(j, []).append((i, k, v))
        cbar_by_even: Dict[int, list] = {}
        cbar_by_out: Dict[int, list] = {}
        for (i, p, q), v in self.cbar.items():
            cbar_by_even.setdefault(i, []).append((p, q, v))
            cbar_by_out.setdefault(q, []).append((i, p, v))
        d_by_first: Dict[int, list] = {}
        for (p, q, k, l), v in self.d.items():
            d_by_first.setdefault(p, []).append((q, k, l, v))
        b_by_first: Dict[int, list] = {}
        for (p, q, k), v in self.b.items():
            b_by_first.setdefault(p, []).append((q, k, v))

        def emit(family, residuals, canonical=None):
            for idx in sorted(residuals):
                if canonical is not None and not canonical(idx):
                    continue
                viols.append(JacobiViolation(family, idx, residuals[idx]))

        # (1) even-even-even: c_ij^l c_lk^m = c_ik^l c_lj^m - c_jk^l c_li^m
        # (the adjoint-representation form of the classical Jacobi identity)
        res: Dict[tuple, Scalar] = {}
        for (x, y, l), v in self.c.items():
            for z, w, v2 in c_by_first.get(l, ()):
                accumulate(res, (x, y, z, w), v * v2)
                accumulate(res, (x, z, y, w), -(v * v2))
                accumulate(res, (z, x, y, w), v * v2)
        emit("even-even-even", res, canonical=lambda t: t[0] < t[1] < t[2])

        # (2) even-even-odd: c_ij^l cbar_lp^q - cbar_i.^q cbar_jp^. + (i<->j)
        res = {}
        for (i, j, l), v in self.c.items():
            for p, q, v2 in cbar_by_even.get(l, ()):
                accumulate(res, (i, j, p, q), v * v2)
        for (i, r, q), v in self.cbar.items():
            for j, p, v2 in cbar_by_out.get(r, ()):
                accumulate(res, (i, j, p, q), -(v * v2))
                accumulate(res, (j, i, p, q), v * v2)
        emit("even-even-odd", res, canonical=lambda t: t[0] < t[1])

        # (3) even action on d:
        #     c_im^k d_pq^ml + c_im^l d_pq^km = cbar_ip^s d_sq^kl + cbar_iq^s d_ps^kl
        res = {}
        for (p, q, m, l), v in self.d.items():
            for i, k, v2 in c_by_second.get(m, ()):
                accumulate(res, (i, p, q, k, l), v * v2)
                accumulate(res, (i, p, q, l, k), v * v2)
        for (i, p, s), v in self.cbar.items():
            for q, k, l, v2 in d_by_first.get(s, ()):
                accumulate(res, (i, p, q, k, l), -(v * v2))
                accumulate(res, (i, q, p, k, l), -(v * v2))
        emit(
            "even-odd-odd-d",
            res,
            canonical=lambda t: t[1] <= t[2] and t[3] <= t[4],
        )

        # (4) even action on b: b_pq^m c_im^k = cbar_ip^s b_sq^k + cbar_iq^s b_ps^k
        res = {}
        for (p, q, m), v in self.b.items():
            for i, k, v2 in c_by_second.get(m, ()):
                accumulate(res, (i, p, q, k), v * v2)
        for (i, p, s), v in self.cbar.items():
            for q, k, v2 in b_by_first.get(s, ()):
                accumulate(res, (i, p, q, k), -(v * v2))
                accumulate(res, (i, q, p, k), -(v * v2))
        emit("even-odd-odd-b", res, canonical=lambda t: t[1] <= t[2])

        # (5) odd cyclic identity for b: sum_cyc cbar_mp^s b_qr^m = 0
        part: Dict[tuple, Scalar] = {}
        for (q, r, mm), v in self.b.items():
            for p, s, v2 in cbar_by_even.get(mm, ()):
                accumulate(part, (p, q, r, s), v * v2)
        res = {}
        m_odd = self.m_odd
        for p in range(m_odd):
            for q in range(p, m_odd):
                for r in range(q, m_odd):
                    for s in range(m_odd):
                        total = (
                            part.get((p, q, r, s), Scalar())
                            + part.get((q, r, p, s), Scalar())
                            + part.get((r, p, q, s), Scalar())
                        )
                        if not total.is_zero():
                            accumulate(res, (p, q, r, s), total)
        emit("odd-odd-odd-b", res)

        # (6) odd cyclic identity for d: sum_cyc cbar_mp^s d_qr^ml = 0
        part = {}
        for (q, r, mm, l), v in self.d.items():
            for p, s, v2 in cbar_by_even.get(mm, ()):
                accumulate(part, (p, q, r, s, l), v * v2)
        res = {}
        outs = sorted({(s, l) for (_, _, _, s, l) in part})
        for p in range(m_odd):
            for q in range(p, m_odd):
                for r in range(q, m_odd):
                    for s, l in outs:
                        total = (
                            part.get((p, q, r, s, l), Scalar())
                            + part.get((q, r, p, s, l), Scalar())
                            + part.get((r, p, q, s, l), Scalar())
                        )
                        if not total.is_zero():
                            accumulate(res, (p, q, r, s, l), total)
        emit("odd-odd-odd-d", res)

        return JacobiReport("component", viols)

    # -- abstract checker ---------------------------------------------

    def _overlap_elements(self):
        """Yield (indices, zL, zR) spanning the degree-3 overlap space.

        zL is a dict (generator, pair) -> Scalar representing
        sum coeff . generator (x) e2(pair); zR the mirror dict
        (pair, generator) -> Scalar.  As a self-check, the two tensor
        expansions are verified to agree word by word.
        """
        ab = self.alphabet
        n, m = self.n_even, self.m_odd

        def ee(i, j):
            # signed even pair: [x_i, x_j]
            if i < j:
                return ("ee", i, j), 1
            return ("ee", j, i), -1

        def check(indices, zL, zR):
            left = NCPoly.zero(ab)
            for (g, pair), coeff in zL.items():
                left = left + (
                    NCPoly.generator(ab, g) * self.e2(pair)
                ).scale(coeff)
            right = NCPoly.zero(ab)
            for (pair, g), coeff in zR.items():
                right = right + (
                    self.e2(pair) * NCPoly.generator(ab, g)
                ).scale(coeff)
            if left != right:
                raise AssertionError(
                    f"overlap element mismatch at {indices}: "
                    f"{(left - right).render()}"
                )
            return indices, zL, zR

        one = srat(1)

        # even-even-even
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    zL: Dict[tuple, Scalar] = {}
                    zR: Dict[tuple, Scalar] = {}
                    for (aa, bb, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                        pair_bc, sign_bc = ee(bb, cc)
                        accumulate(zL, (ab.even(aa), pair_bc), srat(sign_bc))
                        pair_ab, sign_ab = ee(aa, bb)
                        accumulate(zR, (pair_ab, ab.even(cc)), srat(sign_ab))
                    yield check((i, j, k), zL, zR)

        # even-even-odd
        for i in range(n):
            for j in range(i + 1, n):
                for p in range(m):
                    pair_ij, sign_ij = ee(i, j)
                    zL = {
                        (ab.even(i), ("mx", j, p)): one,
                        (ab.even(j), ("mx", i, p)): -one,
                        (ab.odd(p), pair_ij): srat(sign_ij),
                    }
                    zR = {
                        (pair_ij, ab.odd(p)): srat(sign_ij),
                        (("mx", j, p), ab.even(i)): one,
                        (("mx", i, p), ab.even(j)): -one,
                    }
                    yield check((i, j, n + p), zL, zR)

        # even-odd-odd
        for p in range(m):
            for q in range(p, m):
                for i in range(n):
                    zL = {
                        (ab.even(i), ("oo", p, q)): one,
                        (ab.odd(p), ("mx", i, q)): -one,
                    }
                    accumulate(zL, (ab.odd(q), ("mx", i, p)), -one)
                    zR = {
                        (("oo", p, q), ab.even(i)): one,
                        (("mx", i, q), ab.odd(p)): one,
                    }
                    accumulate(zR, (("mx", i, p), ab.odd(q)), one)
                    for (pp, qq, k, l), val in self.d.items():
                        if (pp, qq) != (p, q):
                            continue
                        pair_il, sign_il = ee(i, l)
                        if i != l:
                            accumulate(zL, (ab.even(k), pair_il), val * sign_il)
                        pair_ik, sign_ik = ee(i, k)
                        if i != k:
                            accumulate(zR, (pair_ik, ab.even(l)), -(val * sign_ik))
                    yield check((i, n + p, n + q), zL, zR)

        # odd-odd-odd
        for p in range(m):
            for q in range(p, m):
                for r in range(q, m):
                    zL = {}
                    zR = {}
                    for (aa, bb, cc) in ((p, q, r), (q, r, p), (r, p, q)):
                        pair_bc = ("oo", min(bb, cc), max(bb, cc))
                        accumulate(zL, (ab.odd(aa), pair_bc), one)
                        accumulate(zR, (pair_bc, ab.odd(aa)), one)
                        for (pp, qq, k, l), val in self.d.items():
                            if (pp, qq) != (min(bb, cc), max(bb, cc)):
                                continue
                            accumulate(zL, (ab.even(k), ("mx", l, aa)), -val)
                            accumulate(zR, (("mx", k, aa), ab.even(l)), val)
                    yield check((n + p, n + q, n + r), zL, zR)

    def check_abstract_jacobi(self) -> JacobiReport:
        """Overlap-reduction consistency check on the defining ideal.

        For each spanning element z of the degree-3 overlap space the two
        ways of substituting bracket values must agree; the obstructions
        split by degree into J1 (quadratic), J2 (linear), J3 (scalar).
        These are the PBW conditions for quadratic-linear-scalar algebras
        of Braverman and Gaitsgory (J. Algebra 181, 1996).
        """
        ab = self.alphabet
        viols: List[JacobiViolation] = []

        for indices, zL, zR in self._overlap_elements():
            t = NCPoly.zero(ab)
            s = NCPoly.zero(ab)
            for (pair, g), coeff in zR.items():
                gen = NCPoly.generator(ab, g)
                t = t + (self.alpha(pair) * gen).scale(coeff)
                s = s + gen.scale(coeff * self.beta(pair))
            for (g, pair), coeff in zL.items():
                gen = NCPoly.generator(ab, g)
                t = t - (gen * self.alpha(pair)).scale(coeff)
                s = s - gen.scale(coeff * self.beta(pair))
            residual, lam = self.normalize2(t)

            if not residual.is_zero():
                for w in sorted(residual.terms):
                    viols.append(
                        JacobiViolation(
                            "J1",
                            indices,
                            residual.terms[w],
                            detail="*".join(ab.names[g] for g in w),
                        )
                    )
            u = s
            j3 = Scalar()
            for pair, coeff in lam.items():
                u = u + self.alpha(pair).scale(coeff)
                j3 = j3 + coeff * self.beta(pair)
            if not u.is_zero():
                for w in sorted(u.terms):
                    viols.append(
                        JacobiViolation(
                            "J2",
                            indices,
                            u.terms[w],
                            detail="*".join(ab.names[g] for g in w),
                        )
                    )
            if not j3.is_zero():
                viols.append(JacobiViolation("J3", indices, j3))

        return JacobiReport("abstract", viols)


class BalancedData:
    """Self-contragredient odd-module data: the even action pi(x_i)_p^q on
    the odd module together with an invertible pairing Omega implementing
    the equivalence with the contragredient action."""

    def __init__(self, pi: Sequence[Sequence[Sequence]], omega: Sequence[Sequence], check: bool = True):
        self.pi = [
            [[Scalar.coerce(entry) for entry in row] for row in mat] for mat in pi
        ]
        self.omega = [[Fraction(entry) for entry in row] for row in omega]
        from .linalg import invert_matrix

        self.omega_inv = invert_matrix(self.omega)
        if check:
            bad = self.intertwiner_violation()
            if bad is not None:
                raise ValueError(f"pairing is not balanced: violation at {bad}")

    @property
    def m_odd(self) -> int:
        return len(self.omega)

    def intertwiner_violation(self):
        """First (i, p, q) where Omega^{qr} pi(x_i)_r^s Omega_{sp} differs
        from -pi(x_i)_p^q, or None if balanced."""
        m = self.m_odd
        for i, mat in enumerate(self.pi):
            for p in range(m):
                for q in range(m):
                    acc = Scalar()
                    for r in range(m):
                        for s in range(m):
                            acc = acc + mat[r][s] * (self.omega_inv[q][r] * self.omega[s][p])
                    if not (acc + mat[p][q]).is_zero():
                        return (i, p, q)
        return None


def build_from_casimirs(c: Mapping, c2: Mapping, c3: Mapping, bal: BalancedData) -> Tuple[Dict, Dict]:
    """Structure constants from invariant Casimir tensors of the even
    algebra: b_pq^i = C2^{ij} pi(x_j)_p^r Omega_rq and
    d_pq^{kl} = C3^{mkl} pi(x_m)_p^r Omega_rq.

    c2/c3 are sparse symmetric coefficient tensors of the quadratic and
    cubic invariants; either may be empty.  Returns (b, d) tensor dicts
    suitable for a presentation together with the given c and the cbar
    implied by pi.
    """
    m = bal.m_odd
    b_tensor: Dict[tuple, Scalar] = {}
    d_tensor: Dict[tuple, Scalar] = {}
    # (even index of pi, trailing even indices of the key, coeff, output)
    jobs = [(j, (i,), coeff, b_tensor) for (i, j), coeff in c2.items()]
    jobs += [(mm, (k, l), coeff, d_tensor) for (mm, k, l), coeff in c3.items()]
    for x, rest, coeff, out in jobs:
        cval = Scalar.coerce(coeff)
        mat = bal.pi[x]
        for p in range(m):
            for r in range(m):
                if mat[p][r].is_zero():
                    continue
                for q in range(m):
                    om = bal.omega[r][q]
                    if om:
                        accumulate(out, (p, q) + rest, cval * mat[p][r] * om)
    return b_tensor, d_tensor
