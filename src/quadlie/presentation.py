"""Quadratic graded bracket presentations and Jacobi-consistency checkers.

A presentation packages the structure tensors of a Z2-graded algebra with
brackets

    [x_i, x_j] = c_ij^k x_k
    [x_i, y_p] = cbar_ip^q y_q
    {y_p, y_q} = d_pq^kl x_k x_l + b_pq^k x_k + a_pq

(evens x_i, odds y_p, summation implied).  The anticommutators are allowed
to close on quadratic expressions, so associativity of the enveloping
algebra is not automatic.  `TENSORS` is the one description of the five
tensors, the kind of each index slot: validation, the bracket table, JSON
I/O, equality, the checkers' ring and the component checker all read it.
`QlsPresentation.bracket(g1, g2)` is the one place where the bracket of a
generator pair is read: a table built once from the five tensors.  The
defining ideal is generated by
e(g1, g2) = g1 g2 - (-1)^{|g1||g2|} g2 g1 - bracket(g1, g2), keyed by the
generator pair itself.  Two independent checkers decide associativity:

  * check_component_jacobi -- seven families of index-wise tensor
    identities: c, cbar, d, b and a invariant under the even part, and the
    odd cyclic identities of b and d,
  * check_abstract_jacobi  -- reduces overlap elements of the defining ideal
    and verifies the degree-2/1/0 obstructions all vanish.

Both return a JacobiReport listing every violated identity with its exact
residual, and how many identities of each family it checked.

Both run in one coefficient ring per presentation (`_ring`): the bracket
table without its a words after `odd_rescale`, in Python ints with the
entries that hold an indeterminate or stay non-integral kept as Scalars.
`a` enters as D^2 a, in Scalars: the component family (7) multiplies it
by cbar, and the abstract checker, linear in it, keeps one coefficient
per odd pair at the empty word and dots them with D^2 a at the end of
each triple.  Map-back:
  * families (1) and (2) are products of c and cbar, so unscaled; (3)-(7)
    are linear in d, b or a, so their residuals map back by D^-2;
  * abstract: the entries of the overlap lists and the bracket letters
    substituted into them carry `odd_rescale`'s factor, and a swap keeps
    the letters, so by induction over the substitutions and `_reduce2` the
    scaled coefficient of a word w in the reduction of the overlap element
    of (a, b, c) is the unscaled one times D^(o(abc) - o(w)); a residual
    maps back by the nonzero D^(o(w) - o(abc)), so the same identities fail;
  * odd squares: `_reduce2` halves the coefficient of y y.  Only the
    overlap of (x_i, y, y') makes one, from the two rotations where an
    even-odd bracket yields y, whose graded-cyclic signs agree: the
    coefficient is 2 cbar_{i y'}^{y} (4 cbar_{i y}^{y} if y' = y), even
    in ints.  Its d-part words are even-even, never halved again; `_half`
    raises rather than round.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
from math import comb, lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .exprparse import parse_scalar
from .ncpoly import Alphabet, NCPoly, Word
from .scalars import ZERO, Scalar, accumulate, srat

FORMAT_TAG = "quadlie-presentation-1"

# The slot kinds of each structure tensor, in the order the tensors are
# validated, tabled and dumped: e/o is a lower even/odd index (one of the
# bracketed pair, which comes first), E/O an upper one (a letter of the
# bracket word).  Two adjacent slots of one kind form a pair, antisymmetric
# for ee and symmetric otherwise.
TENSORS = {"c": "eeE", "cbar": "eoO", "d": "ooEE", "b": "ooE", "a": "oo"}
_PARITY = {"e": "even", "E": "even", "o": "odd", "O": "odd"}

# generators a .qls file may declare, checked before any name is built:
# past the most `RewriteSystem` admits (about 1,000) and the widest file
# `check_abstract_jacobi` refuses by MAX_TRIPLES, at about 170 bytes a name
MAX_GENERATORS = 100_000

Coeff = Union[int, Scalar]  # a coefficient in a checker's or action's ring
Table = Dict[Tuple[int, int], List[Tuple[Word, Coeff]]]  # pair -> (word, coeff)

# overlap elements one `check_abstract_jacobi` may reduce: gl2(8/1) has
# 83,440, gl2(5/1) 6,895, Lambda^3 2,216
MAX_TRIPLES = 100_000

# the component checker's families in report order: (1)-(4) and (7) the
# invariance of c, cbar, d, b and a, (5) and (6) the odd cyclic identities
COMPONENT_FAMILIES = ("even-even-even", "even-even-odd", "even-odd-odd-d",
                      "even-odd-odd-b", "odd-odd-odd-b", "odd-odd-odd-d",
                      "even-odd-odd-a")

_NO_TERMS: Mapping[Word, Scalar] = MappingProxyType({})


class JacobiViolation(NamedTuple):
    family: str
    indices: Tuple[int, ...]
    residual: Scalar
    detail: str = ""


class JacobiReport:
    """Outcome of a Jacobi consistency check.

    `checked` maps each family to the number of its identities that
    received at least one nonzero term; every other identity of the family
    vanishes term by term.
    """

    def __init__(self, method: str, violations: Sequence[JacobiViolation],
                 checked: Optional[Mapping[str, int]] = None):
        self.method = method
        self.violations = list(violations)
        self.checked = dict(checked or {})

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


def _pairs(kinds: str) -> List[Tuple[int, int, str]]:
    """(slot, slot + 1, kind) for each two adjacent slots of one kind."""
    return [(s, s + 1, k) for s, k in enumerate(kinds[:-1]) if kinds[s + 1] == k]


def _bracket_table(n: int, tensors) -> Dict[Tuple[int, int], Dict[Word, Coeff]]:
    """Bracket words of each generator pair, from (name, kinds, entries) of
    each tensor: an entry's two lower slots give the pair and its upper
    slots the word, odd indices shifted past the n evens; a mixed pair also
    gives the bracket the other way round, negated."""
    table: Dict[Tuple[int, int], Dict[Word, Coeff]] = {}
    for _, kinds, tensor in tensors:
        s1, s2 = (n if k == "o" else 0 for k in kinds[:2])
        up = n if "O" in kinds else 0  # the upper slots share one parity
        for idx, v in tensor.items():
            g1, g2 = idx[0] + s1, idx[1] + s2
            word = tuple(g + up for g in idx[2:]) if up else idx[2:]
            table.setdefault((g1, g2), {})[word] = v
            if s1 != s2:
                table.setdefault((g2, g1), {})[word] = -v
    return table


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

    The tensors are passed by keyword and kept as attributes of the same
    names: sparse dicts keyed by 0-based index tuples, c[(i,j,k)],
    cbar[(i,p,q)], d[(p,q,k,l)], b[(p,q,k)], a[(p,q)].  `TENSORS` gives the
    kind of each slot, hence its range and the pairs: c antisymmetric in
    i,j; d symmetric in p,q and in k,l; b and a symmetric in p,q.  These are
    validated at construction and violations rejected rather than silently
    symmetrized.
    """

    def __init__(
        self,
        n_even: int,
        m_odd: int,
        *,
        names: Optional[Sequence[str]] = None,
        indeterminates: Iterable[str] = (),
        **tensors: Mapping,
    ):
        unknown = tensors.keys() - TENSORS.keys()
        if unknown:
            raise TypeError(f"unknown structure tensors {sorted(unknown)}")
        self.n_even = n_even
        self.m_odd = m_odd
        inferred = set(indeterminates)
        for name, kinds in TENSORS.items():
            tensor = _coerce_tensor(tensors.get(name), len(kinds), name)
            setattr(self, name, tensor)
            for val in tensor.values():
                inferred |= val.variables()
        self.indeterminates = tuple(sorted(inferred))
        self.alphabet = Alphabet(n_even, m_odd, names=names)
        self._validate()
        table = _bracket_table(n_even, self._tensors())
        self._brackets = {pair: MappingProxyType(terms) for pair, terms in table.items()}

    def _tensors(self) -> List[Tuple[str, str, Dict[tuple, Scalar]]]:
        """(name, slot kinds, entries) of each tensor, in `TENSORS` order."""
        return [(name, kinds, getattr(self, name)) for name, kinds in TENSORS.items()]

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        """Each index in range for its slots' kinds, and each tensor mapped
        onto itself by swapping the two slots of each pair, negated on ee."""
        n, m = self.n_even, self.m_odd
        for name, kinds, tensor in self._tensors():
            for s, k in enumerate(kinds):  # a slot at a time, in C
                bound = n if k in "eE" else m
                column = list(map(itemgetter(s), tensor))
                if column and not 0 <= min(column) <= max(column) < bound:
                    bad = next(idx for idx in tensor if not 0 <= idx[s] < bound)
                    raise ValueError(f"{name} index {bad} out of range")
            for s, t, k in _pairs(kinds):
                swap = itemgetter(*range(s), t, s, *range(t + 1, len(kinds)))
                anti = k == "e"
                if {swap(idx): -v if anti else v for idx, v in tensor.items()} != tensor:
                    bad = next(idx for idx, v in tensor.items()
                               if tensor.get(swap(idx), ZERO) != (-v if anti else v))
                    raise ValueError(f"{name} not {'anti' if anti else ''}symmetric "
                                     f"in {_PARITY[k]} pair at {bad}")

    # -- bracket table ------------------------------------------------

    def bracket(self, g1: int, g2: int) -> Mapping[Word, Scalar]:
        """[g1, g2} = g1 g2 - (-1)^{|g1||g2|} g2 g1 as a read-only map
        word -> coeff over words of length 0, 1 or 2."""
        return self._brackets.get((g1, g2), _NO_TERMS)

    # -- equality / serialization -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QlsPresentation):
            return NotImplemented
        return (self.n_even, self.m_odd, self.alphabet.names, self._tensors()) == (
            other.n_even, other.m_odd, other.alphabet.names, other._tensors())

    def __hash__(self):
        return hash((self.n_even, self.m_odd, len(self.c), len(self.d)))

    def to_json_dict(self) -> dict:
        doc = {
            "format": FORMAT_TAG,
            "n_even": self.n_even,
            "m_odd": self.m_odd,
            "names": list(self.alphabet.names),
            "indeterminates": list(self.indeterminates),
        }
        for name, _, tensor in self._tensors():
            doc[name] = [[*idx, str(tensor[idx])] for idx in sorted(tensor)]
        return doc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_dict(data: dict) -> "QlsPresentation":
        """The presentation a JSON document describes; ValueError if the
        document is malformed, declares more than MAX_GENERATORS generators
        or breaks a rule of `TENSORS`."""
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

        n_even, m_odd = count("n_even"), count("m_odd")
        if n_even + m_odd > MAX_GENERATORS:
            raise ValueError(f"{n_even + m_odd} generators declared, more than "
                             f"{MAX_GENERATORS}")
        tensors = {name: load(name, len(kinds)) for name, kinds in TENSORS.items()}
        return QlsPresentation(
            n_even,
            m_odd,
            names=strings("names", None),
            indeterminates=strings("indeterminates", ()),
            **tensors,
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

    # -- the checkers' ring -------------------------------------------

    def _brackets_without_a(self) -> Table:
        return {pair: [(w, v) for w, v in terms.items() if w]
                for pair, terms in self._brackets.items()}

    @cached_property
    def _scalar_ring(self) -> "_Ring":
        """The presentation's own Scalars, unscaled: `normalize2`'s basis."""
        return _Ring.build(self, self._brackets_without_a(), 1)

    @cached_property
    def _ring(self) -> "_Ring":
        """`odd_rescale` of the brackets without their a words."""
        return _Ring.build(self, *odd_rescale(self._brackets_without_a(), self.n_even))

    # -- reduction of degree-2 elements --------------------------------

    def normalize2(
        self, poly: NCPoly
    ) -> Tuple[NCPoly, Dict[Tuple[int, int], Scalar]]:
        """Split a degree<=2 element as (ordered residual) + sum lam.e2(g, h).

        Ordered words: x_u x_v with u<=v, x_i y_p, and y_p y_q with p<q.
        Returns the residual and the bookkeeping coefficients lam, keyed by
        generator pairs (g, h) with g < h, or g = h odd.
        """
        residual, lam = self._reduce2(poly.terms, self._scalar_ring.quad)
        return NCPoly(self.alphabet, residual), {k: v for k, v in lam.items() if v}

    def _reduce2(self, terms: Mapping[Word, Coeff], quad: Mapping) -> Tuple[dict, dict]:
        """`normalize2` on a word -> coeff map in the checkers' ring, with
        the d-part words of each pair from quad; entries that cancel stay
        in the result as zeros."""
        n = self.n_even
        residual: Dict[Word, Coeff] = {}
        lam: Dict[Tuple[int, int], Coeff] = {}
        work = list(terms.items())
        while work:
            word, coeff = work.pop()
            if not coeff:
                continue
            if len(word) != 2 or word[0] < word[1] or word[0] == word[1] < n:
                _add(residual, word, coeff)
                continue
            h, g = word  # g < h, or an odd square
            if g == h:
                # y_p y_p = (1/2) d-part + (1/2) e(y_p, y_p)
                t = _half(coeff)
            else:
                # h g = s g h - s d-part - s e(g,h), s the swap sign
                t = coeff if g >= n else -coeff
                work.append(((g, h), -t))
            for w, v in quad.get((g, h), ()):
                work.append((w, t * v))
            _add(lam, (g, h), t)
        return residual, lam

    # -- component checker --------------------------------------------

    def check_component_jacobi(self) -> JacobiReport:
        """Index-wise tensor identities, checked family by family, in the
        ring of `_ring`.  Families (1)-(4) and (7) say that c, cbar, d, b
        and a are invariant under the even part, (5) and (6) are the odd
        cyclic identities of b and d; residuals of the families linear in
        d, b or a map back by D**-2."""
        ring = self._ring

        # x_i on one index slot holding s, by slot kind: lower even (e)
        # -c_ij^s, upper even (E) +c_is^k, lower odd (o) -cbar_ip^s, upper
        # odd (O) +cbar_is^q; an image is ((i,), (new index,), coeff), its
        # 1-tuples spliced into the residual key as they are
        act: Dict[str, Dict[int, list]] = {kind: {} for kind in "eEoO"}
        for lower, upper, tensor in (("e", "E", ring.c), ("o", "O", ring.cbar)):
            for (i, j, k), v in tensor.items():
                act[lower].setdefault(k, []).append(((i,), (j,), -v))
                act[upper].setdefault(j, []).append(((i,), (k,), v))
        cbar_by_even: Dict[int, list] = {}
        for (i, p, q), v in ring.cbar.items():
            cbar_by_even.setdefault(i, []).append((p, q, v))

        def emit(family, residuals, exponent, rises):
            """(identities checked, violations) of one family."""
            keys = sorted(residuals)
            for s, t, gap in rises:
                keys = [idx for idx in keys if idx[t] >= idx[s] + gap]
            return len(keys), [
                JacobiViolation(family, idx, ring.back(residuals[idx], exponent))
                for idx in keys if residuals[idx]]

        def invariance(tensor, kinds):
            """x_i . tensor, keyed (i, *index): the sum over the slots of
            each entry, kinds giving the kind of each slot."""
            res: Dict[tuple, Coeff] = {}
            slots = list(enumerate(act[kind] for kind in kinds))
            for idx, v in tensor.items():
                for slot, table in slots:
                    images = table.get(idx[slot])
                    if images:
                        head, tail = idx[:slot], idx[slot + 1:]
                        for i, new, w in images:  # _add inlined: the hot loop
                            key = i + head + new + tail
                            prev = res.get(key)
                            res[key] = v * w if prev is None else prev + v * w
            return res

        def odd_cyclic(tensor):
            """sum_cyc cbar_mp^s T_qr^m.. = 0 over the rotations of (p, q, r)."""
            part: Dict[tuple, Coeff] = {}
            for (q, r, m, *rest), v in tensor.items():
                for p, s, w in cbar_by_even.get(m, ()):
                    _add(part, (p, q, r, s, *rest), v * w)
            return _cyclic_sums(part)

        found: Dict[str, Tuple[int, List[JacobiViolation]]] = {}
        for name, kinds in TENSORS.items():
            tensor = getattr(ring, name)
            # the scaling lemma: the ring scales T by D^(o(pair) - o(word))
            exponent = kinds.count("O") - kinds.count("o")
            family = "-".join(_PARITY[k] for k in "e" + kinds[:2])
            if kinds[0] == "e":
                # c and cbar, the even part's own action: (1) and (2) report
                # -(x_i . c) and -(x_i . cbar), for (1) the adjoint form
                # c_ij^l c_lk^m = c_ik^l c_lj^m - c_jk^l c_li^m of the
                # classical Jacobi identity
                tensor = {k: -v for k, v in tensor.items()}
            else:
                # (3) c_im^k d_pq^ml + c_im^l d_pq^km = cbar_ip^s d_sq^kl
                # + cbar_iq^s d_ps^kl, (4) c_im^k b_pq^m = cbar_ip^s b_sq^k
                # + cbar_iq^s b_ps^k, (7) 0 = cbar_ip^s a_sq + cbar_iq^s a_ps,
                # the component form of J3
                family += "-" + name
            # a residual key is checked if it rises along each pair of its
            # kinds, x_i's kind e prepended: strictly for x_i and the lower
            # evens, weakly elsewhere
            rises = [(s, t, int(k == "e")) for s, t, k in _pairs("e" + kinds)]
            found[family] = emit(family, invariance(tensor, kinds), exponent, rises)
            if kinds.startswith("ooE"):
                # (5) and (6) sum_cyc cbar_mp^s b_qr^m = 0, sum_cyc cbar_mp^s d_qr^ml = 0
                family = "odd-odd-odd-" + name
                found[family] = emit(family, odd_cyclic(tensor), exponent, ())
        return JacobiReport(
            "component", [v for family in COMPONENT_FAMILIES for v in found[family][1]],
            {family: found[family][0] for family in COMPONENT_FAMILIES})

    # -- abstract checker ---------------------------------------------

    def _overlap_elements(self, ring: Optional["_Ring"] = None):
        """Yield (indices, zL, zR) spanning the degree-3 overlap space.

        zL lists (g, pair, coeff) for coeff . g e2(pair) and zR (pair, g,
        coeff) for coeff . e2(pair) g, unmerged and with zeros kept; the two
        expand to the same degree-3 element of the free algebra.  One element
        per triple (a, b, c) of generators, evens first and no even repeated:
        the graded-cyclic sum of u e(v, w) on the left and of e(u, v) w on
        the right, plus the terms that carry the d-part of an odd pair (v, w)
        past u.  Coefficients are in the ring given, by default Scalars.
        """
        quad = (ring or self._scalar_ring).quad
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
            zL, zR = [], []  # entries (g, pair, coeff) and (pair, g, coeff)
            for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                # graded Jacobi sign (-1)^{|u||w|}, normalized to +1 on (a, b, c)
                s = -1 if (u >= n and w >= n) != (a >= n and c >= n) else 1
                zL.append((u, (v, w), s))
                zR.append(((u, v), w, s))
                # u d-part(v, w) - d-part(v, w) u, rewritten as
                # k e2(u, l) + e2(u, k) l for each d-word k l
                for (k, l), val in quad.get((v, w), ()):
                    zL.append((k, (u, l), s * val))
                    zR.append(((u, k), l, -(s * val)))
            yield (a, b, c), zL, zR

    def _overlap_count(self) -> int:
        """Number of elements `_overlap_elements` yields, in closed form."""
        n, m = self.n_even, self.m_odd
        return comb(n, 3) + comb(n, 2) * m + n * comb(m + 1, 2) + comb(m + 2, 3)

    def check_abstract_jacobi(self) -> JacobiReport:
        """Overlap-reduction consistency check on the defining ideal.

        For each spanning element z of the degree-3 overlap space the two
        ways of substituting bracket values must agree; the obstructions
        split by degree into J1 (quadratic), J2 (linear), J3 (scalar).
        These are the PBW conditions for quadratic-linear-scalar algebras
        of Braverman and Gaitsgory (J. Algebra 181, 1996).  Runs in the
        ring of `_ring`, with the a part kept apart as one coefficient per
        odd pair and dotted in per triple.  Raises ValueError past
        MAX_TRIPLES overlap elements.
        """
        triples = self._overlap_count()
        if triples > MAX_TRIPLES:
            raise ValueError(f"{triples} overlap triples to check, more than "
                             f"{MAX_TRIPLES}")
        ring = self._ring
        lin, back = ring.lin, ring.back
        n, names = self.n_even, self.alphabet.names
        a_part = {(n + p, n + q): v for (p, q), v in ring.a.items()}
        viols: List[JacobiViolation] = []
        checked = {"J1": 0, "J2": 0, "J3": 0}

        for indices, zL, zR in self._overlap_elements(ring):
            odd_abc = sum(g >= n for g in indices)
            # the letters of the brackets substituted into zR minus zL: (x, g)
            # from ((g1, g2), g), (g, x) from (g, (g1, g2)) for normalize2,
            # then degree 1 (J2).  The a part of an odd pair (u, v) would
            # land on one-letter words and cancel there: ((u, v), g) in zR
            # and (g, (u, v)) in zL carry the same graded-cyclic sign
            deg2: Dict[Word, Coeff] = {}
            low: Dict[Word, Coeff] = {}
            for pair, g, coeff in zR:  # _add inlined: the hot loop
                for x, v in lin.get(pair, ()):
                    deg2[x, g] = deg2.get((x, g), 0) + coeff * v
            for g, pair, coeff in zL:
                for x, v in lin.get(pair, ()):
                    deg2[g, x] = deg2.get((g, x), 0) - coeff * v
            residual, lam = self._reduce2(deg2, ring.quad)
            by_a: Dict[Tuple[int, int], Coeff] = {}  # J3: a_pair -> coeff
            for pair, coeff in lam.items():
                if not coeff:
                    continue
                for x, v in lin.get(pair, ()):
                    _add(low, (x,), coeff * v)
                if pair in a_part:
                    _add(by_a, pair, coeff)

            checked["J1"] += len(residual)
            checked["J2"] += len(low)
            checked["J3"] += bool(by_a)
            for family, part in (("J1", residual), ("J2", low)):
                for w in sorted(part):
                    if part[w]:
                        viols.append(JacobiViolation(
                            family, indices,
                            back(part[w], sum(g >= n for g in w) - odd_abc),
                            detail="*".join(names[g] for g in w)))
            j3 = ZERO
            for pair, coeff in by_a.items():
                if coeff:
                    j3 = j3 + a_part[pair] * back(coeff, -odd_abc)
            if j3:
                viols.append(JacobiViolation("J3", indices, j3))

        return JacobiReport("abstract", viols, checked)


def _add(store: dict, key, value) -> None:
    """store[key] += value, keeping entries that cancel to zero."""
    prev = store.get(key)
    store[key] = value if prev is None else prev + value


def _cyclic_sums(part: Mapping[tuple, Coeff]) -> Dict[tuple, Coeff]:
    """Sum of part over the cyclic rotations of the first three indices,
    at each key whose first three indices are weakly increasing; a key none
    of whose rotations is in part sums to zero, so only the others are
    visited."""
    res: Dict[tuple, Coeff] = {}
    for p, q, r, *rest in part:
        for x, y, z in ((p, q, r), (q, r, p), (r, p, q)):
            key = (x, y, z, *rest)
            if x <= y <= z and key not in res:
                res[key] = sum(part.get((u, v, w, *rest), 0)
                               for u, v, w in ((x, y, z), (y, z, x), (z, x, y)))
    return res


def _half(value: Union[Coeff, Fraction]) -> Union[Coeff, Fraction]:
    """value / 2, exact: a Scalar or Fraction is divided by 2, an int is
    halved in ints and must be even, else ArithmeticError (never rounded).
    Callers halve only values proven even on int input: the coefficient of
    an odd square (module docstring) and the family formulas of gl2n1."""
    if not isinstance(value, int):
        return value / 2
    half, odd = divmod(value, 2)
    if odd:
        raise ArithmeticError(f"cannot halve the odd integer {value} exactly")
    return half


def odd_scale(den: int) -> int:
    """The least D <= 2**16 with den | D * D, else den itself (den | den * den)."""
    return next((d for d in range(1, min(den, 1 << 16) + 1) if d * d % den == 0), den)


def odd_rescale(table: Table, n_even: int) -> Tuple[Table, int]:
    """(table after the odd rescaling by D, D): a plain-rational coefficient
    whose scaled value is an integer becomes a Python int; one that holds an
    indeterminate, or a plain rational the factor leaves non-integral (1/2
    in an even-even bracket, say), stays a Scalar.

    The table maps a generator pair g1 g2 to (word w, coeff) terms: the
    Serre action's halved rules with a, or the checkers' brackets without
    a.  Scaling lemma: with o(w) the number of odd letters of w, scaling
    every odd generator y -> D y (D > 0 an integer) multiplies the
    coefficient of w by D^(o(g1 g2) - o(w)); brackets keep parity, so the
    factor is D^2 on odd-odd pairs and 1 elsewhere.  The lemma holds over
    any commutative coefficient ring, so a Scalar term takes the same
    factor as an int one.  D is `odd_scale` of the lcm of the
    plain-rational denominators on odd-odd pairs, so den | D^2 there and
    only a coefficient off those pairs can stay non-integral.  Each
    consumer maps its results back by the inverse factors
    (`pbw._ModuleAction.apply_word`, `_Ring.back`).
    """
    def odd_odd(pair):
        return pair[0] >= n_even and pair[1] >= n_even

    scale = odd_scale(lcm(*(v.as_rational().denominator
                            for pair, terms in table.items() if odd_odd(pair)
                            for _, v in terms if v.is_rational())))
    out: Table = {}
    for pair, terms in table.items():
        factor = scale * scale if odd_odd(pair) else 1
        row = out[pair] = []
        for w, v in terms:
            if v.is_rational():
                f = v.as_rational()
                num, den = f.numerator * factor, f.denominator
                if num % den == 0:  # always where the factor is D^2
                    row.append((w, num // den))
                    continue
            row.append((w, v * factor if factor != 1 else v))
    return out, scale


def unscaled(value: Coeff, factor: Fraction) -> Scalar:
    """value * factor as an exact Scalar, for mapping a coefficient of an
    `odd_rescale`d ring back: an int through one Fraction product, a
    Scalar multiplied by the factor."""
    return value * factor if isinstance(value, Scalar) else srat(value * factor)


class _Ring(NamedTuple):
    """The structure tensors as the checkers read them.

    The five tensors, keyed as in the presentation.  c, cbar, d and b are
    Python ints after the odd rescaling by `scale`, but for the entries
    `odd_rescale` keeps as Scalars.  The a part is kept apart as Scalars,
    scaled by D**2; the component checker reads it through family (7), the
    abstract one dots it in at J3.  quad holds the (word, coeff) terms of
    length 2 of each generator pair, lin its (letter, coeff) terms.
    """

    c: Mapping[tuple, Coeff]
    cbar: Mapping[tuple, Coeff]
    d: Mapping[tuple, Coeff]
    b: Mapping[tuple, Coeff]
    a: Dict[Tuple[int, int], Scalar]
    lin: Dict[Tuple[int, int], List[Tuple[int, Coeff]]]
    quad: Table
    scale: int

    @staticmethod
    def build(pres: QlsPresentation, table: Table, scale: int) -> "_Ring":
        """The ring of a bracket table without a words, read back into the
        tensors of `TENSORS` by the parities of the pair and the word
        length."""
        n = pres.n_even
        lin: Dict[Tuple[int, int], List[Tuple[int, Coeff]]] = {}
        quad: Table = {}
        tensors: Dict[str, dict] = {name: {} for name in TENSORS}
        shape = {(kinds[0] == "o", kinds[1] == "o", len(kinds) - 2): tensors[name]
                 for name, kinds in TENSORS.items()}
        for (g1, g2), terms in table.items():
            for w, v in terms:
                (quad if len(w) == 2 else lin).setdefault((g1, g2), []).append(
                    (w, v) if len(w) == 2 else (*w, v))
                tensor = shape.get((g1 >= n, g2 >= n, len(w)))
                if tensor is not None:  # not the odd-even copy of a mixed pair
                    tensor[tuple(g - n if g >= n else g for g in (g1, g2, *w))] = v
        sq = scale * scale
        tensors["a"] = {k: v if sq == 1 else v * sq for k, v in pres.a.items()}
        return _Ring(lin=lin, quad=quad, scale=scale, **tensors)

    def back(self, value: Coeff, exponent: int) -> Scalar:
        """value * D**exponent as an exact Scalar."""
        return unscaled(value, Fraction(self.scale) ** exponent)


class BalancedData:
    """Self-contragredient odd-module data: the even action pi(x_i)_p^q on
    the odd module together with an invertible pairing Omega implementing
    the equivalence with the contragredient action."""

    def __init__(self, pi: Sequence[Sequence[Sequence]], omega: Sequence[Sequence]):
        self.pi = [
            [[Scalar.coerce(entry) for entry in row] for row in mat] for mat in pi
        ]
        self.omega = [[Fraction(entry) for entry in row] for row in omega]
        from .linalg import invert_matrix

        self.omega_inv = invert_matrix(self.omega)
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
        # the nonzero Omega^{qr} of each q and Omega_{sp} of each p
        inv_row = [[(r, x) for r, x in enumerate(row) if x] for row in self.omega_inv]
        col = [[(s, self.omega[s][p]) for s in range(m) if self.omega[s][p]]
               for p in range(m)]
        for i, mat in enumerate(self.pi):
            for p in range(m):
                for q in range(m):
                    acc = Scalar()
                    for r, x in inv_row[q]:
                        for s, y in col[p]:
                            acc = acc + mat[r][s] * (x * y)
                    if not (acc + mat[p][q]).is_zero():
                        return (i, p, q)
        return None


def build_from_casimirs(c2: Mapping, c3: Mapping, bal: BalancedData) -> Tuple[Dict, Dict]:
    """Structure constants from invariant Casimir tensors of the even
    algebra: b_pq^i = C2^{ij} pi(x_j)_p^r Omega_rq and
    d_pq^{kl} = C3^{mkl} pi(x_m)_p^r Omega_rq.

    c2/c3 are sparse symmetric coefficient tensors of the quadratic and
    cubic invariants; either may be empty.  Returns (b, d) tensor dicts
    suitable for a presentation together with the even algebra's c and
    the cbar implied by pi.
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
