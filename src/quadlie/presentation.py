"""Quadratic graded bracket presentations and Jacobi-consistency checkers.

A presentation packages the structure tensors of a Z2-graded algebra with
brackets

    [x_i, x_j] = c_ij^k x_k
    [x_i, y_p] = cbar_ip^q y_q
    {y_p, y_q} = d_pq^kl x_k x_l + b_pq^k x_k + a_pq

(evens x_i, odds y_p, summation implied).  The anticommutators are allowed
to close on quadratic expressions, so associativity of the enveloping
algebra is not automatic.  `QlsPresentation.bracket(g1, g2)` is the one
place where the bracket of a generator pair is read: a table built once
from the five tensors.  The defining ideal is generated by
e(g1, g2) = g1 g2 - (-1)^{|g1||g2|} g2 g1 - bracket(g1, g2), keyed by the
generator pair itself.  Two independent checkers decide associativity:

  * check_component_jacobi -- six families of index-wise tensor identities,
  * check_abstract_jacobi  -- reduces overlap elements of the defining ideal
    and verifies the degree-2/1/0 obstructions all vanish.

Both return a JacobiReport listing every violated identity with its exact
residual.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .exprparse import parse_scalar
from .ncpoly import Alphabet, NCPoly, Word
from .scalars import Scalar, accumulate, srat

FORMAT_TAG = "quadlie-presentation-1"

_NO_TERMS: Mapping[Word, Scalar] = MappingProxyType({})


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


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        self._brackets = self._build_brackets()

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

    # -- bracket table ------------------------------------------------

    def _build_brackets(self) -> Dict[Tuple[int, int], Mapping[Word, Scalar]]:
        n = self.n_even
        table: Dict[Tuple[int, int], Dict[Word, Scalar]] = {}

        def put(g1, g2, word, val):
            table.setdefault((g1, g2), {})[word] = val

        for (i, j, k), v in self.c.items():
            put(i, j, (k,), v)
        for (i, p, q), v in self.cbar.items():
            put(i, n + p, (n + q,), v)
            put(n + p, i, (n + q,), -v)
        for (p, q, k, l), v in self.d.items():
            put(n + p, n + q, (k, l), v)
        for (p, q, k), v in self.b.items():
            put(n + p, n + q, (k,), v)
        for (p, q), v in self.a.items():
            put(n + p, n + q, (), v)
        return {pair: MappingProxyType(terms) for pair, terms in table.items()}

    def bracket(self, g1: int, g2: int) -> Mapping[Word, Scalar]:
        """[g1, g2} = g1 g2 - (-1)^{|g1||g2|} g2 g1 as a read-only map
        word -> coeff over words of length 0, 1 or 2."""
        return self._brackets.get((g1, g2), _NO_TERMS)

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

        def count(key):
            value = data.get(key)
            if not _is_json_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        def load(key, arity):
            entries = data.get(key, [])
            if not isinstance(entries, list):
                raise ValueError(f"tensor section {key!r} is not a list")
            out = {}
            for row in entries:
                if not isinstance(row, list) or len(row) != arity + 1:
                    raise ValueError(f"bad tensor row {row}")
                if not all(_is_json_int(t) for t in row[:-1]):
                    raise ValueError(f"tensor index in row {row} is not an integer")
                if not isinstance(row[-1], str):
                    raise ValueError(f"tensor entry in row {row} is not a string")
                idx = tuple(row[:-1])
                if idx in out:
                    raise ValueError(f"{key} index {list(idx)} appears twice")
                out[idx] = parse_scalar(row[-1])
            return out

        def strings(key, default):
            if key not in data:
                return default
            value = data[key]
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ValueError(f"{key} must be a list of strings")
            return value

        return QlsPresentation(
            count("n_even"),
            count("m_odd"),
            c=load("c", 3),
            cbar=load("cbar", 3),
            d=load("d", 4),
            b=load("b", 3),
            a=load("a", 2),
            names=strings("names", None),
            indeterminates=strings("indeterminates", ()),
        )

    @staticmethod
    def loads(text: str) -> "QlsPresentation":
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
        return QlsPresentation.from_json_dict(data)

    @staticmethod
    def load(path: str) -> "QlsPresentation":
        with open(path) as fh:
            return QlsPresentation.loads(fh.read())

    # -- ideal generators ---------------------------------------------

    def e2(self, g1: int, g2: int) -> NCPoly:
        """Quadratic part of the ideal generator e(g1, g2)."""
        terms = {w: -v for w, v in self.bracket(g1, g2).items() if len(w) == 2}
        accumulate(terms, (g1, g2), srat(1))
        n = self.n_even
        accumulate(terms, (g2, g1), srat(1 if g1 >= n and g2 >= n else -1))
        return NCPoly(self.alphabet, terms)

    def _add_lower(
        self, out: Dict[Word, Scalar], lam: Mapping[Tuple[int, int], Scalar]
    ) -> None:
        """Add sum lam[(g1, g2)] * (degree <= 1 part of bracket(g1, g2)) to out."""
        for (g1, g2), coeff in lam.items():
            for w, v in self.bracket(g1, g2).items():
                if len(w) < 2:
                    accumulate(out, w, coeff * v)

    # -- reduction of degree-2 elements --------------------------------

    def normalize2(
        self, poly: NCPoly
    ) -> Tuple[NCPoly, Dict[Tuple[int, int], Scalar]]:
        """Split a degree<=2 element as (ordered residual) + sum lam.e2(g, h).

        Ordered words: x_u x_v with u<=v, x_i y_p, and y_p y_q with p<q.
        Returns the residual and the bookkeeping coefficients lam, keyed by
        generator pairs (g, h) with g < h, or g = h odd.
        """
        n = self.n_even
        residual: Dict[Word, Scalar] = {}
        lam: Dict[Tuple[int, int], Scalar] = {}
        work = list(poly.terms.items())
        while work:
            word, coeff = work.pop()
            if len(word) != 2 or word[0] < word[1] or word[0] == word[1] < n:
                accumulate(residual, word, coeff)
                continue
            h, g = word  # g < h, or an odd square
            if g == h:
                # y_p y_p = (1/2) d-part + (1/2) e(y_p, y_p)
                t = coeff / 2
            else:
                # h g = s g h - s d-part - s e(g,h), s the swap sign
                t = coeff if g >= n else -coeff
                work.append(((g, h), -t))
            for w, v in self.bracket(g, h).items():
                if len(w) == 2:
                    work.append((w, t * v))
            accumulate(lam, (g, h), t)
        return NCPoly(self.alphabet, residual), lam

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

        zL maps a generator triple (g, g1, g2) to the coefficient of
        g . e2(g1, g2), zR maps (g1, g2, g) to that of e2(g1, g2) . g.  The
        two expand to the same degree-3 element of the free algebra.  There
        is one element per triple (a, b, c) of generators, evens first and
        no even repeated: the graded-cyclic sum of u e(v, w) on the left and
        of e(u, v) w on the right, plus the terms that carry the d-part of
        an odd pair (v, w) past u.
        """
        n = self.n_even
        evens, odds = range(n), range(n, self.alphabet.size)
        triples = chain(
            combinations(evens, 3),
            ((i, j, y) for i, j in combinations(evens, 2) for y in odds),
            ((i, y1, y2) for y1, y2 in combinations_with_replacement(odds, 2)
             for i in evens),
            combinations_with_replacement(odds, 3),
        )
        for a, b, c in triples:
            zL: Dict[tuple, Scalar] = {}
            zR: Dict[tuple, Scalar] = {}
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                # graded Jacobi sign (-1)^{|u||w|}, normalized to +1 on (a, b, c)
                s = srat(-1 if (u >= n and w >= n) != (a >= n and c >= n) else 1)
                accumulate(zL, (u, v, w), s)
                accumulate(zR, (u, v, w), s)
                # u d-part(v, w) - d-part(v, w) u, rewritten as
                # k e2(u, l) + e2(u, k) l for each d-word k l
                for word, val in self.bracket(v, w).items():
                    if len(word) == 2:
                        k, l = word
                        accumulate(zL, (k, u, l), s * val)
                        accumulate(zR, (u, k, l), -(s * val))
            yield (a, b, c), zL, zR

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
            # the degree <= 1 bracket parts substituted into zR minus zL,
            # split into degree 2 (for normalize2) and degree <= 1 (J2
            # words and the J3 scalar at ())
            quad: Dict[Word, Scalar] = {}
            low: Dict[Word, Scalar] = {}
            terms = [((g1, g2), (), (g,), cf) for (g1, g2, g), cf in zR.items()]
            terms += [((g1, g2), (g,), (), -cf) for (g, g1, g2), cf in zL.items()]
            for pair, left, right, coeff in terms:
                for w, v in self.bracket(*pair).items():
                    if len(w) < 2:
                        accumulate(quad if w else low, left + w + right, coeff * v)
            residual, lam = self.normalize2(NCPoly(ab, quad))
            self._add_lower(low, lam)
            j3 = low.pop((), Scalar())

            for family, part in (("J1", residual.terms), ("J2", low)):
                for w in sorted(part):
                    viols.append(
                        JacobiViolation(
                            family,
                            indices,
                            part[w],
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
