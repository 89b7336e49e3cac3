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
I/O, equality, the odd rescaling's exponent and the component checker all
read it.  `_Ring.build` is the one builder of bracket tables, each term
kept once: a reader of one part picks it out by word length.
`QlsPresentation.bracket(g1, g2)` copies the bracket of a generator pair
out of `_plain`, the tensors' own ring at D = 1, made on first use;
`normalize2` reads that ring too.  The defining ideal is generated by
e(g1, g2) = g1 g2 - (-1)^{|g1||g2|} g2 g1 - bracket(g1, g2), keyed by the
generator pair itself.  Two independent checkers decide associativity:

  * check_component_jacobi -- seven families of index-wise tensor
    identities: c, cbar, d, b and a invariant under the even part, and the
    odd cyclic identities of b and d,
  * check_abstract_jacobi  -- reduces overlap elements of the defining ideal
    and verifies the degree-2/1/0 obstructions all vanish.

Both return a JacobiReport listing every violated identity with its exact
residual, and how many identities of each family it checked.

Both run in one coefficient ring per presentation (`_ring`), which
`pbw`'s module action reads too, derived forward from the five tensors:
`odd_rescale` scales each by D^`odd_exponent` of its kinds, in Python ints
with the entries that hold an indeterminate or stay non-integral kept as
Scalars, and `_Ring.build` keeps them and makes the bracket table, a
included, from them.  The component family (7) multiplies a by cbar, and
the abstract checker, linear in a, keeps one coefficient per odd pair at
the empty word and dots them with the ring's a at the end of each triple.
Map-back:
  * families (1) and (2) are products of c and cbar, so unscaled; (3)-(7)
    are linear in d, b or a, so their residuals map back by D^-2;
  * abstract: the bracket letters substituted in place carry
    `odd_rescale`'s factor, a swap keeps the letters, and a word's cached
    reduction times its coefficient is `_reduce2`'s; by induction, the
    scaled coefficient of w in the reduction of the overlap element of
    (a, b, c) is the unscaled one times D^(o(abc) - o(w)), and a residual
    maps back by D^(o(w) - o(abc)) != 0, so the same identities fail;
  * odd squares: y y is reduced at coefficient 2 and the coefficient
    halved.  Only the overlap of (x_i, y, y') makes one, from the two
    rotations where an even-odd bracket yields y, whose graded-cyclic
    signs agree: the coefficient is 2 cbar_{i y'}^{y} (4 cbar_{i y}^{y} if
    y' = y), even in ints.  Its d-part words are even-even, never halved
    again; `_half` raises rather than round.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb, lcm
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .exprparse import ParseError, parse_scalar
from .ncpoly import Alphabet, AlphabetMismatch, NCPoly, Word
from .scalars import ZERO, Scalar, accumulate, lower, srat

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
                 checked: Mapping[str, int]):
        self.method = method
        self.violations = list(violations)
        self.checked = dict(checked)

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


def _pairs(kinds: str) -> List[Tuple[int, int, str]]:
    """(slot, slot + 1, kind) for each two adjacent slots of one kind."""
    return [(s, s + 1, k) for s, k in enumerate(kinds[:-1]) if kinds[s + 1] == k]


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

    def _tensors(self) -> List[Tuple[str, str, Dict[tuple, Scalar]]]:
        """(name, slot kinds, entries) of each tensor, in `TENSORS` order."""
        return [(name, kinds, getattr(self, name)) for name, kinds in TENSORS.items()]

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        """Each index an int (not a float or bool, which dumps() would write
        and loads() refuse) in range for its slots' kinds, each tensor mapped
        onto itself by swapping the two slots of each pair, negated on ee."""
        n, m = self.n_even, self.m_odd
        for name, kinds, tensor in self._tensors():
            for s, k in enumerate(kinds):  # a slot at a time, in C
                bound = n if k in "eE" else m
                column = list(map(itemgetter(s), tensor))
                if not set(map(type, column)) <= {int}:
                    bad = next(idx for idx in tensor if type(idx[s]) is not int)
                    raise ValueError(f"{name} index {bad} is not an integer")
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

    @cached_property
    def _plain(self) -> "_Ring":
        """The tensors' own ring, D = 1 and every entry a Scalar: the
        bracket table `bracket` and `normalize2` read."""
        return _Ring.build(self.n_even, self._tensors(), 1)

    def bracket(self, g1: int, g2: int) -> Dict[Word, Scalar]:
        """[g1, g2} = g1 g2 - (-1)^{|g1||g2|} g2 g1 as a new dict
        word -> coeff over words of length 0, 1 or 2; IndexError off the alphabet."""
        for g in (g1, g2):
            self.alphabet.parity(g)  # IndexError outside the alphabet
        return dict(self._plain.table.get((g1, g2), ()))

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
        document is malformed, declares more than MAX_GENERATORS generators,
        has an entry naming an indeterminate it does not declare or breaks a
        rule of `TENSORS`."""
        if not isinstance(data, dict):
            raise ValueError("presentation must be a JSON object")
        if data.get("format") != FORMAT_TAG:
            raise ValueError(f"unrecognized presentation format {data.get('format')!r}")

        def count(key):
            value = data.get(key)
            if type(value) is not int:  # not a float or a bool
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        parsed: Dict[str, Scalar] = {}  # each distinct entry text, parsed once

        def load(key, arity):
            entries = data.get(key, [])
            if not isinstance(entries, list):
                raise ValueError(f"tensor section {key!r} is not a list")
            out = {}
            for row in entries:
                if not isinstance(row, list) or len(row) != arity + 1:
                    raise ValueError(f"bad tensor row {row}")
                if not set(map(type, row[:-1])) <= {int}:
                    raise ValueError(f"tensor index in row {row} is not an integer")
                if not isinstance(row[-1], str):
                    raise ValueError(f"tensor entry in row {row} is not a string")
                idx = tuple(row[:-1])
                if idx in out:
                    raise ValueError(f"{key} index {list(idx)} appears twice")
                if row[-1] not in parsed:
                    try:
                        parsed[row[-1]] = parse_scalar(row[-1], declared)
                    except ParseError as exc:  # say where the entry is
                        raise ParseError(f"{key} entry {list(idx)}: {exc}") from None
                out[idx] = parsed[row[-1]]
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
        declared = strings("indeterminates", [])  # the only names an entry may use
        tensors = {name: load(name, len(kinds)) for name, kinds in TENSORS.items()}
        return QlsPresentation(
            n_even,
            m_odd,
            names=strings("names", None),
            indeterminates=declared,
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

    # -- the checkers' and the action's ring ----------------------------

    @cached_property
    def _ring(self) -> "_Ring":
        """The one ring both checkers and `pbw`'s module action run in:
        the tensors after `odd_rescale`."""
        return _Ring.build(self.n_even, *odd_rescale(self._tensors()))

    # -- reduction of degree-2 elements --------------------------------

    def normalize2(
        self, poly: NCPoly
    ) -> Tuple[NCPoly, Dict[Tuple[int, int], Scalar]]:
        """Split a degree<=2 element as (ordered residual) + sum lam.e2(g, h).

        Ordered words: x_u x_v with u<=v, x_i y_p, and y_p y_q with p<q.
        Returns the residual and the bookkeeping coefficients lam, keyed by
        generator pairs (g, h) with g < h, or g = h odd.
        """
        if poly.alphabet != self.alphabet:
            raise AlphabetMismatch(f"{poly.alphabet!r} vs {self.alphabet!r}")
        residual, lam = self._reduce2(  # in Scalars: _half refuses an odd int
            {w: Scalar.coerce(c) for w, c in poly.terms.items()}, self._plain.table)
        return NCPoly(self.alphabet, residual), {k: v for k, v in lam.items() if v}

    def _reduce2(self, terms: Mapping[Word, Coeff], table: Table) -> Tuple[dict, dict]:
        """`normalize2` on a word -> coeff map in the checkers' ring, with
        the d-part, the two-letter words, of each pair from a ring's table;
        entries that cancel stay in the result as zeros."""
        n = self.n_even
        residual: Dict[Word, Coeff] = {}
        lam: Dict[Tuple[int, int], Coeff] = {}
        work = list(terms.items())
        while work:
            word, coeff = work.pop()
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
            work += [(w, t * v) for w, v in table.get((g, h), ()) if len(w) == 2]
            _add(lam, (g, h), t)
        return residual, lam

    # -- component checker --------------------------------------------

    def check_component_jacobi(self) -> JacobiReport:
        """Index-wise tensor identities, checked family by family, in the
        ring of `_ring`.  Families (1)-(4) and (7) say that c, cbar, d, b
        and a are invariant under the even part, (5) and (6) are the odd
        cyclic identities of b and d; residuals of the families linear in
        d, b or a map back by D**-2.  Only canonical residual keys, one
        per identity, are ever formed."""
        ring = self._ring

        # x_i on one index slot holding s, by slot kind: lower even (e)
        # -c_ij^s, upper even (E) +c_is^k, lower odd (o) -cbar_ip^s, upper
        # odd (O) +cbar_is^q, as images (i, new index, coeff).  e keeps i < j
        # only: every canonical key has it (on c's slot 1, i < slot 0 < j)
        act: Dict[str, Dict[int, list]] = {kind: {} for kind in "eEoO"}
        for lower, upper, tensor in (("e", "E", ring.c), ("o", "O", ring.cbar)):
            for (i, j, k), v in tensor.items():
                if lower == "o" or i < j:
                    act[lower].setdefault(k, []).append((i, j, -v))
                act[upper].setdefault(j, []).append((i, k, v))
        cbar_by_even: Dict[int, list] = {}
        for (i, p, q), v in ring.cbar.items():
            cbar_by_even.setdefault(i, []).append((p, q, v))
        size = self.alphabet.size  # past every index: no bound

        def emit(family, residuals, exponent):
            """(identities checked, violations) of one family."""
            return len(residuals), [
                JacobiViolation(family, idx, ring.back(residuals[idx], exponent))
                for idx in sorted(residuals) if residuals[idx]]

        def invariance(tensor, kinds):
            """x_i . tensor at its canonical keys (i, *index), summed over
            the slots of each entry (kinds: each slot's kind).  A key is
            canonical if it rises along each pair of "e" + kinds, strictly
            for x_i and the lower evens, weakly elsewhere; the one rise clear of
            x_i and slot r ((0, 0, 0) if none) is tested per entry and slot,
            the rest per image."""
            res: Dict[tuple, Coeff] = {}
            rises = [(s, t, int(k == "e")) for s, t, k in _pairs(kinds)]
            slots = [(r, act[kind], *next((x for x in rises if r not in x[:2]), (0, 0, 0)),
                      next((g for s, t, g in rises if t == r), None),
                      next((g for s, t, g in rises if s == r), None))
                     for r, kind in enumerate(kinds)]
            for idx, v in tensor.items():
                for r, table, fs, ft, fg, left, right in slots:
                    images = table.get(idx[r])
                    if not images or idx[ft] < idx[fs] + fg:
                        continue
                    lo = 0 if left is None else idx[r - 1] + left
                    hi = size if right is None else idx[r + 1] - right
                    top = idx[0] if r and kinds[0] == "e" else size
                    head, tail = idx[:r], idx[r + 1:]
                    for i, new, w in images:  # _add inlined: the hot loop
                        if lo <= new <= hi and i < top:
                            key = (i, *head, new, *tail)
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
            exponent = -odd_exponent(kinds)
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
            found[family] = emit(family, invariance(tensor, kinds), exponent)
            if kinds.startswith("ooE"):
                # (5) and (6) sum_cyc cbar_mp^s b_qr^m = 0, sum_cyc cbar_mp^s d_qr^ml = 0
                family = "odd-odd-odd-" + name
                found[family] = emit(family, odd_cyclic(tensor), exponent)
        return JacobiReport(
            "component", [v for family in COMPONENT_FAMILIES for v in found[family][1]],
            {family: found[family][0] for family in COMPONENT_FAMILIES})

    # -- abstract checker ---------------------------------------------

    def _overlap_elements(self, ring: "_Ring"):
        """Yield (indices, deg2) for each triple (a, b, c) of generators,
        evens first and no even repeated; their overlap elements span the
        degree-3 overlap space.  Over the rotations (u, v, w) of (a, b, c),
        the graded-cyclic sum of u e(v, w), plus k e(u, l) for each d-word
        k l of an odd pair (v, w), equals that of e(u, v) w, minus e(u, k) l,
        in the free algebra.  deg2 maps each word g h, keyed g * size + h,
        to its coefficient, in the ring given and zeros kept, in the right
        side minus the left with each e replaced by its bracket's letters;
        the a terms cancel, as e(u, v) g and g e(u, v) carry the same sign.
        """
        self.check_triple_budget()  # bounds size, so the rows of cells and lin
        n, size = self.n_even, self.alphabet.size
        cells: List[list] = [[None] * size for _ in range(size)]  # None: no bracket
        for (g, h), terms in ring.table.items():  # (one-letter, d-word) terms
            cells[g][h] = ([(*w, t) for w, t in terms if len(w) == 1],
                           [t for t in terms if len(t[0]) == 2])
        lin = [[cell[0] if cell else () for cell in row] for row in cells]
        evens, odds = range(n), range(n, size)
        # each family's triples, with the graded sign of (c, a, b): -1 on (y2, i, y1) alone
        families = (
            (combinations(evens, 3), 1),
            (((i, j, y) for i, j in combinations(evens, 2) for y in odds), 1),
            (((i, y1, y2) for y1, y2 in combinations_with_replacement(odds, 2)
              for i in evens), -1),
            (combinations_with_replacement(odds, 3), 1),
        )
        for triples, sign in families:
            for a, b, c in triples:
                deg2: Dict[int, Coeff] = {}
                ab, bc, ca = cells[a][b], cells[b][c], cells[c][a]
                if ab is None and bc is None and ca is None:
                    yield (a, b, c), deg2  # every term below reads one of the three
                    continue
                for u, w, uv, vw, s in ((a, c, ab, bc, 1), (b, a, bc, ca, 1),
                                        (c, b, ca, ab, sign)):  # rotations (u, v, w)
                    if uv is not None:
                        for x, t in uv[0]:  # e(u, v) w; _add inlined
                            key = x * size + w
                            deg2[key] = deg2.get(key, 0) + s * t
                    if vw is not None:
                        for x, t in vw[0]:  # u e(v, w)
                            key = u * size + x
                            deg2[key] = deg2.get(key, 0) - s * t
                        for (k, l), val in vw[1]:
                            for x, t in lin[u][l]:  # k e(u, l)
                                key = k * size + x
                                deg2[key] = deg2.get(key, 0) - s * val * t
                            for x, t in lin[u][k]:  # -e(u, k) l
                                key = x * size + l
                                deg2[key] = deg2.get(key, 0) - s * val * t
                yield (a, b, c), deg2

    def check_triple_budget(self) -> int:
        """Number of elements `_overlap_elements` yields, in closed form from
        n_even and m_odd alone; ValueError if it is past MAX_TRIPLES."""
        n, m = self.n_even, self.m_odd
        triples = comb(n, 3) + comb(n, 2) * m + n * comb(m + 1, 2) + comb(m + 2, 3)
        if triples > MAX_TRIPLES:
            raise ValueError(f"{triples} overlap triples to check, more than "
                             f"{MAX_TRIPLES}")
        return triples

    def check_abstract_jacobi(self) -> JacobiReport:
        """Overlap-reduction consistency check on the defining ideal.

        For each spanning element z of the degree-3 overlap space the two
        ways of substituting bracket values must agree; the obstructions
        split by degree into J1 (quadratic), J2 (linear), J3 (scalar), the
        PBW conditions for quadratic-linear-scalar algebras of Braverman
        and Gaitsgory (J. Algebra 181, 1996).  Runs in the ring of `_ring` on
        int keys: a word's from `_overlap_elements`, a lam pair g h's size**2 +
        g * size + h.  ValueError past MAX_TRIPLES (`check_triple_budget`).
        """
        ring = self._ring
        table, back = ring.table, ring.back
        n, names, size = self.n_even, self.alphabet.names, self.alphabet.size
        lam0 = size * size  # the least lam key
        a_part = {lam0 + (n + p) * size + n + q: v for (p, q), v in ring.a.items()}
        lam_lin = {lam0 + g * size + h: [t for t in terms if len(t[0]) == 1]
                   for (g, h), terms in table.items()}
        viols: List[JacobiViolation] = []
        j1 = j2 = j3 = 0  # identities checked
        # key -> True on an ordered word, else (halve, residual and lam items) of `_reduce2`
        # on it at 1, or 2 on an odd square: DECISIONS.md "One reduction per two-letter word"
        reduced: Dict[int, Union[bool, Tuple[bool, tuple]]] = {}

        for indices, deg2 in self._overlap_elements(ring):
            if not deg2:
                continue
            acc: Dict[int, Coeff] = {}  # residual and lam
            for key, coeff in deg2.items():
                if not coeff:
                    continue
                image = reduced.get(key)
                if image is None:
                    g, h = word = divmod(key, size)
                    square = g == h >= n
                    image = reduced[key] = g < h or g == h < n or (square, tuple(
                        (lam * lam0 + g * size + h, v) for lam, part in
                        enumerate(self._reduce2({word: 1 + square}, table))
                        for (g, h), v in part.items()))
                if image is True:  # the word is its own reduction
                    acc[key] = acc[key] + coeff if key in acc else coeff
                    continue
                halve, terms = image
                if halve:
                    coeff = _half(coeff)
                for k, v in terms:  # _add inlined: the hot loop
                    prev = acc.get(k)
                    acc[k] = coeff * v if prev is None else prev + coeff * v
            residual, low, by_a = {}, {}, []  # J1's nonzero words, J2 (degree 1), J3
            for key, coeff in acc.items():
                if key < lam0:
                    j1 += 1
                    if coeff:
                        residual[divmod(key, size)] = coeff
                elif coeff:
                    for w, v in lam_lin.get(key, ()):
                        prev = low.get(w)
                        low[w] = coeff * v if prev is None else prev + coeff * v
                    if key in a_part:
                        by_a.append(a_part[key] * coeff)
            j2 += len(low)
            j3 += bool(by_a)
            if not (residual or any(low.values()) or by_a):
                continue
            odd_abc = sum(g >= n for g in indices)
            for family, part in (("J1", residual), ("J2", low)):
                for w in sorted(w for w, v in part.items() if v):
                    viols.append(JacobiViolation(
                        family, indices, back(part[w], sum(g >= n for g in w) - odd_abc),
                        detail="*".join(names[g] for g in w)))
            if total := sum(by_a):
                viols.append(JacobiViolation("J3", indices, back(total, -odd_abc)))

        return JacobiReport("abstract", viols, {"J1": j1, "J2": j2, "J3": j3})


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


def odd_exponent(kinds: str) -> int:
    """o(pair) - o(word) of a tensor with these `TENSORS` slot kinds: the
    power of D the odd rescaling multiplies its entries by (2 on the odd
    pair tensors d, b and a, 0 on c and cbar)."""
    return kinds.count("o") - kinds.count("O")


def odd_rescale(tensors) -> Tuple[list, int]:
    """((name, kinds, entries) of each tensor after the odd rescaling by D,
    D), from (name, kinds, entries) as `QlsPresentation._tensors` gives
    them: a plain-rational entry whose scaled value is an integer becomes a
    Python int; one that holds an indeterminate, or a plain rational the
    factor leaves non-integral (1/2 in c, say), stays a Scalar.

    Scaling lemma: with o(w) the number of odd letters of w, scaling every
    odd generator y -> D y (D > 0 an integer) multiplies the coefficient of
    w in the bracket of g1 g2 by D^(o(g1 g2) - o(w)), which is
    D^`odd_exponent(kinds)` on each entry of a tensor.  The lemma holds over any commutative
    coefficient ring, so a Scalar entry takes the same factor as an int
    one.  D is `odd_scale` of the lcm of the plain-rational denominators of
    the odd-pair tensors, of v / 2 on an odd square (the module action
    halves it) and of v elsewhere, so each of their entries becomes an int,
    even on an odd square, and only a c or cbar entry can stay
    non-integral.  Each consumer maps its results back by the inverse
    factors through `_Ring.back`.
    """
    def den(idx, f):  # of f, or of f / 2 on an odd square
        return f.denominator * (2 if idx[0] == idx[1] and f.numerator % 2 else 1)

    scale = odd_scale(lcm(*(den(idx, v.terms[()])
                            for _, kinds, tensor in tensors if kinds[:2] == "oo"
                            for idx, v in tensor.items() if v.is_rational())))
    out = []
    for name, kinds, tensor in tensors:
        factor = scale ** odd_exponent(kinds)
        scaled: Dict[tuple, Coeff] = {}
        for idx, v in tensor.items():  # an int always where the factor is D^2
            f = v.terms[()] if v.is_rational() else None  # an int or a Fraction
            if f is not None and factor % f.denominator == 0:
                scaled[idx] = f.numerator * (factor // f.denominator)
            else:  # an indeterminate, or a rational the factor leaves non-integral
                scaled[idx] = v * factor if factor != 1 else v
        out.append((name, kinds, scaled))
    return out, scale


class _Ring(NamedTuple):
    """The structure tensors with the bracket table made from them.

    Two rings per presentation come from `build`: `_ring`, which the
    checkers and the module action read, holds Python ints after the odd
    rescaling by `scale`, but for the entries `odd_rescale` keeps as
    Scalars; `_plain`, which `bracket` and `normalize2` read, holds the
    tensors' own Scalars at scale 1.  The five tensors are keyed as in the
    presentation; a enters the component family (7) and the abstract
    checker's J3 only.  table holds the (word, coeff) terms of each
    generator pair, a words included, the one copy of them: a reader of
    one word length filters it.  scale is D; `back` maps by D to an exponent
    <= 0, as no bracket raises the odd-letter count.  A ring holds no cache.
    """

    c: Mapping[tuple, Coeff]
    cbar: Mapping[tuple, Coeff]
    d: Mapping[tuple, Coeff]
    b: Mapping[tuple, Coeff]
    a: Mapping[tuple, Coeff]
    table: Table
    scale: int

    @staticmethod
    def build(n: int, tensors, scale: int) -> "_Ring":
        """The ring of (name, kinds, entries) of each tensor, scaled by
        `scale`: the tensors kept as they are, and the bracket table made
        from them.  An entry's two lower slots give the pair and its upper
        slots the word, odd indices shifted past the n evens; a mixed pair
        also gives the bracket the other way round, negated."""
        table: Table = {}
        for _, kinds, tensor in tensors:
            s1, s2 = (n if k == "o" else 0 for k in kinds[:2])
            up = n if "O" in kinds else 0  # the upper slots share one parity
            for idx, v in tensor.items():
                g1, g2 = idx[0] + s1, idx[1] + s2
                word = tuple(g + up for g in idx[2:]) if up else idx[2:]
                table.setdefault((g1, g2), []).append((word, v))
                if s1 != s2:
                    table.setdefault((g2, g1), []).append((word, -v))
        return _Ring(table=table, scale=scale,
                     **{name: tensor for name, _, tensor in tensors})

    def back(self, value: Coeff, exponent: int, den: int = 1) -> Scalar:
        """value * D**exponent / den as an exact Scalar, mapping a ring
        coefficient back, exponent <= 0: it is o(w) - o(input) for a result
        word w, and a bracket never raises the odd-letter count.  The int
        D**-exponent joins den; then an int makes one Fraction(value, den)
        and a Scalar is divided by den but for den = 1."""
        if exponent and self.scale != 1:
            den *= self.scale ** -exponent
        if not isinstance(value, Scalar):
            return srat(value, den)
        return value if den == 1 else value / den


class BalancedData:
    """Self-contragredient odd-module data: the even action pi(x_i)_p^q on
    the odd module, a sparse map {(i, p, q): value} keyed like cbar,
    together with an invertible pairing Omega (a square matrix)
    implementing the equivalence with the contragredient action."""

    def __init__(self, pi: Mapping[tuple, object], omega: Sequence[Sequence]):
        from .linalg import invert_matrix

        m = len(omega)
        for i, p, q in pi:
            if not (0 <= p < m and 0 <= q < m):
                raise ValueError(f"pi index {(i, p, q)} outside the pairing's size {m}")
        self.pi = {key: v for key, v in pi.items() if v}
        self.omega_inv = invert_matrix(omega)
        # the nonzero Omega_rq of each row r and Omega^{qr} of each column r
        self.omega_rows = [_nonzeros(row) for row in omega]
        self._inv_cols = [_nonzeros(col) for col in zip(*self.omega_inv)]
        bad = self.intertwiner_violation()
        if bad is not None:
            raise ValueError(f"pairing is not balanced: violation at {bad}")

    def intertwiner_violation(self):
        """The least (i, p, q) where Omega^{qr} pi(x_i)_r^s Omega_{sp}
        differs from -pi(x_i)_p^q, or None if balanced: the residual is
        pi plus the sum over the nonzero pi entries."""
        residual = dict(self.pi)
        for (i, r, s), v in self.pi.items():
            for q, x in self._inv_cols[r]:
                for p, y in self.omega_rows[s]:
                    accumulate(residual, (i, p, q), x * v * y)
        return min(residual, default=None)


def _nonzeros(row: Sequence) -> List[Tuple[int, Union[int, Fraction]]]:
    """(index, entry) of each nonzero entry of a rational row, lowered."""
    return [(q, lower(x)) for q, x in enumerate(row) if x]


def build_from_casimirs(c2: Mapping, c3: Mapping, bal: BalancedData) -> Tuple[Dict, Dict]:
    """Structure constants from invariant Casimir tensors of the even
    algebra: b_pq^i = C2^{ij} pi(x_j)_p^r Omega_rq and
    d_pq^{kl} = C3^{mkl} pi(x_m)_p^r Omega_rq.

    c2/c3 are sparse symmetric coefficient tensors of the quadratic and
    cubic invariants; either may be empty.  Returns (b, d) tensor dicts of
    exact nonzero values (ints, Fractions or Scalars, as the products
    come), suitable for a presentation together with the even algebra's c
    and the cbar implied by pi.  pi(x) Omega is formed once per even x,
    and each Casimir entry contracts with its nonzeros only.
    """
    pi_omega: Dict[int, Dict[Tuple[int, int], Coeff]] = {}
    for (x, p, r), v in bal.pi.items():
        for q, om in bal.omega_rows[r]:
            accumulate(pi_omega.setdefault(x, {}), (p, q), v * om)
    # the (p, q) of each value of pi(x) Omega, so a coefficient is
    # multiplied once per value
    by_value: Dict[int, Dict[Coeff, List[Tuple[int, int]]]] = {}
    for x, entries in pi_omega.items():
        for pq, v in entries.items():
            by_value.setdefault(x, {}).setdefault(v, []).append(pq)
    b_tensor: Dict[tuple, Coeff] = {}
    d_tensor: Dict[tuple, Coeff] = {}
    # (even index of pi, trailing even indices of the key, coeff, output)
    jobs = [(j, (i,), coeff, b_tensor) for (i, j), coeff in c2.items()]
    jobs += [(mm, (k, l), coeff, d_tensor) for (mm, k, l), coeff in c3.items()]
    for x, rest, coeff, out in jobs:
        for v, pqs in by_value.get(x, {}).items():
            value = coeff * v
            for pq in pqs:
                accumulate(out, pq + rest, value)
    return b_tensor, d_tensor
