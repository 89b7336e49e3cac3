"""Normal ordering for enveloping algebras of quadratic graded
presentations.

A RewriteSystem pairs a presentation with an *admissible* total
generator order: every even pair in the support of the d-tensor strictly
precedes the odd pair it rewrites to.  The constructor refuses any other
order, so a system that exists is admissible.  Under its order the
ordered monomials (evens weakly increasing, odds strictly increasing)
form a basis and `normal_form` computes coordinates in it.

There is one normal-ordering engine: the action of the generators on the
free span of ordered words (`_ModuleAction`).  `normal_form` folds a word
into the empty ordered word through that action, and `serre_module_check`
verifies the defining relations on the same action (equivalently, the
Jacobi identities of the presentation).  By Bergman's diamond lemma
(Adv. Math. 29, 1978) a passing check certifies that the reductions are
confluent, so the normal forms `normal_form` returns are well defined;
they are defined only when the check passes.  Words of length 3 carry
every overlap of the quadratic rules, so `max_len` must be at least 3.

The relation on (a, b, N), a b out of order and N ordered, reads w_a w_b
z_N = (sign) w_b w_a z_N + (lower terms) z_N.  Skip rule: the first step
of `_act(a, b N)` is that right side, and w_b z_N = z_bN when b N is
ordered, so then both sides are `_act(a, b N)` and the relation holds by
construction.  The check skips those (N = () or b preceding N[0]) and
compares `_apply((a, b), N)` with `_act(a, b N)` on the rest.  At
`max_len` 3 it thus covers exactly Bergman's overlap words a b c, with
both a b and b c out of order.

The action reads the bracket table of the presentation's ring
(`QlsPresentation._ring`, which the Jacobi checkers read too) and `_act`
halves an odd square's terms, y y = (1/2) {y, y}, where it applies them:
Python ints, with the coefficients that hold an indeterminate (c sits
only in a few a terms of gl2(n/1)) or stay non-integral (1/2 in an
even-even bracket, say) kept as Scalars; D = 2 for gl2(3/1) at c = 1 or
symbolic, 10 at c = 7/5.  The rescaling sends z_N to D^o(N) z_N, o
counting odd letters.  Exactness: each table term, int or Scalar, halved
or not, carries the table's factor, so by induction over `_act` the
scaled coefficient of z_w in w_a ... w_b z_N is the unscaled one times
D^(o(a ... b N) - o(w)), never 0, in any commutative coefficient ring.
So a relation (a, b, N) vanishes in both bases or in neither (same
verdict, same first witness, no evaluation of an indeterminate), and
`apply_word` maps back by D^(o(w) - o(a ... b N)) through the ring's
`back`.

Also provided: a witness of linear dependence for inadmissible orders, and
ordered-monomial counting.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, AlphabetMismatch, NCPoly, Word
from .presentation import Coeff, QlsPresentation, _half
from .scalars import Scalar, accumulate

# (pair, word) relations one `serre_module_check` may run: gl2(5/1) at
# length 4 has 396,880, gl2(3/1) at length 6 341,325 and at length 7
# 1,204,128
MAX_RELATIONS = 500_000
# terms after one generator step of `_ModuleAction._apply` (inputs seen: <= 138)
MAX_TERMS = 20_000


def check_rule_count(size: int, m_odd: int) -> None:
    """Raise ValueError if a system on size generators, m_odd of them odd,
    has more than MAX_RELATIONS rules: one per unordered pair, C(size, 2)
    + m_odd, counted before any rule or tensor is built."""
    rules = comb(size, 2) + m_odd
    if rules > MAX_RELATIONS:
        raise ValueError(f"{rules} unordered generator pairs to rewrite, "
                         f"more than {MAX_RELATIONS}")


class GeneratorOrder:
    """Total order on generators, given as a sequence from least to greatest."""

    def __init__(self, sequence: Sequence[int]):
        self.sequence = tuple(sequence)
        if sorted(self.sequence) != list(range(len(self.sequence))):
            raise ValueError("order must be a permutation of 0..size-1")
        self.position = {g: i for i, g in enumerate(self.sequence)}

    @staticmethod
    def default(alphabet: Alphabet) -> "GeneratorOrder":
        return GeneratorOrder(range(alphabet.size))

    def __eq__(self, other):
        if not isinstance(other, GeneratorOrder):
            return NotImplemented
        return self.sequence == other.sequence

    def __hash__(self):
        return hash(self.sequence)

    def __repr__(self):
        return f"GeneratorOrder({self.sequence})"


def check_admissible(
    pres: QlsPresentation, order: GeneratorOrder
) -> Tuple[bool, Optional[Tuple[int, int, int, int]]]:
    """True iff every d-entry's even pair strictly precedes its odd pair.

    On failure returns the least violating d-index (p, q, k, l).
    """
    if len(order.sequence) != pres.alphabet.size:
        raise ValueError("order size does not match the presentation")
    pos, n = order.position, pres.n_even
    bad = [(p, q, k, l) for p, q, k, l in pres.d
           if max(pos[k], pos[l]) > min(pos[n + p], pos[n + q])]
    return (False, min(bad)) if bad else (True, None)


class RewriteSystem:
    """Immutable presentation + admissible generator order.

    The constructor raises ValueError on an inadmissible order, naming the
    least violating d-index, and fixes the pair predicate
    `_pair_is_ordered` that every ordering decision reads.
    `normal_form` folds each word into the empty ordered word through the
    module action `_ModuleAction`; the system owns one action, created
    on first use, so its cache serves every later call.
    `serre_module_check` verifies the defining relations on the same action
    (Bergman's diamond lemma, Adv. Math. 29, 1978).  Normal forms are
    defined only when that check passes: otherwise the action need not
    vanish on the relations, and the result depends on the word chosen to
    represent an element.
    """

    def __init__(self, pres: QlsPresentation, order: Optional[GeneratorOrder] = None):
        check_rule_count(pres.alphabet.size, pres.m_odd)
        self.presentation = pres
        self.order = order if order is not None else GeneratorOrder.default(pres.alphabet)
        admissible, witness = check_admissible(pres, self.order)
        if not admissible:
            raise ValueError(f"inadmissible order: witness d-index {witness}")
        pos, n = self.order.position, pres.n_even
        # the two-letter word a b is ordered: a precedes b, or an even square
        self._pair_is_ordered = lambda a, b: pos[a] < pos[b] or a == b < n
        self._action: Optional[_ModuleAction] = None

    def word_is_ordered(self, word: Word) -> bool:
        return all(map(self._pair_is_ordered, word, word[1:]))

    # -- normal forms -------------------------------------------------

    def normal_form(self, elem: NCPoly) -> NCPoly:
        if elem.alphabet != self.presentation.alphabet:
            raise AlphabetMismatch(
                f"{elem.alphabet!r} vs {self.presentation.alphabet!r}")
        if self._action is None:
            self._action = _ModuleAction(self)
        out: Dict[Word, Scalar] = {}
        for word, coeff in elem.terms.items():
            for w, v in self._action.apply_word(word, ()).items():
                accumulate(out, w, v * coeff)
        return NCPoly(self.presentation.alphabet, out)


def pbw_monomial_count(rs: RewriteSystem, degree: int) -> int:
    """Number of ordered monomials of exactly the given degree."""
    n = rs.presentation.n_even
    m = rs.presentation.m_odd
    return sum(
        (1 if j == 0 else comb(n + j - 1, j)) * comb(m, degree - j)
        for j in range(degree + 1)
        if 0 <= degree - j <= m and (n > 0 or j == 0)
    )


def inadmissible_dependence_witness(
    pres: QlsPresentation, order: GeneratorOrder
) -> NCPoly:
    """Degree-3 combination that vanishes in the enveloping algebra but is a
    nonzero sum of monomials over the inadmissible ordered set:

        0 = (1/2) d_aa^{cd} x_c x_d y_b + y_a y_b y_a - d_ab^{cd} y_a x_c x_d
    """
    ok, witness = check_admissible(pres, order)
    if ok:
        raise ValueError("order is admissible; no dependence witness exists")
    assert witness is not None
    p, q, _, _ = witness
    ab = pres.alphabet
    ya, yb = ab.odd(p), ab.odd(q)
    out = NCPoly.monomial(ab, (ya, yb, ya))
    for w, v in pres.bracket(ya, ya).items():
        if len(w) == 2:
            out = out + NCPoly.monomial(ab, w + (yb,), v / 2)
    for w, v in pres.bracket(ya, yb).items():
        if len(w) == 2:
            out = out - NCPoly.monomial(ab, (ya,) + w, v)
    return out


class _ModuleAction:
    """Serre-style action of generators on the free span of ordered words.

    The cache, `_act` and `_apply` work in the presentation's ring, read
    from its table; `apply_word` maps back to `Scalar`s in the
    presentation's own basis through the ring's `back`.
    `max_len` is ignored: the action is defined on words of any length.
    """

    def __init__(self, rs: RewriteSystem, max_len: Optional[int] = None):
        self.rs = rs
        self.ab = rs.presentation.alphabet
        self._before = rs._pair_is_ordered
        self._cache: Dict[Tuple[int, Word], Dict[Word, Coeff]] = {}
        ring = rs.presentation._ring
        self._table, self._back = ring.table, ring.back

    def apply_word(self, gens: Word, word: Word) -> Dict[Word, Scalar]:
        """Act with w_{gens[0]} ... w_{gens[-1]} on z_word; a scaled
        coefficient maps back by D^(odd letters out - odd letters in)."""
        dist = self._apply(gens, word)
        n, back = self.ab.n_even, self._back
        odd_in = sum(g >= n for g in gens + word)
        return {w: back(v, sum(g >= n for g in w) - odd_in) for w, v in dist.items()}

    def _act(self, a: int, word: Word) -> Dict[Word, Coeff]:
        """w_a z_word as a map ordered word -> coeff.  word[1:] must be
        ordered; word itself need not be: for word = b N out of order,
        with a b out of order too, this is the right side of the relation
        on (a, b, N), which `_first_failure` reads.

        The letter a sinks rightwards past the prefix word[:stop] of
        letters it does not precede.  act(a, word[i:]) is built from
        act(a, word[i + 1:]) in a loop from the right, so the call depth
        does not grow with the length of word.
        """
        cache = self._cache
        cached = cache.get((a, word))
        if cached is not None:
            return cached
        n = self.ab.n_even
        stop = 0
        while stop < len(word) and not self._before(a, word[stop]):
            stop += 1
        # resume from the longest suffix already in the cache
        for i in range(1, stop + 1):
            out = cache.get((a, word[i:]))
            if out is not None:
                break
        else:
            i, out = stop, {(a,) + word[stop:]: 1}
            cache[(a, word[stop:])] = out
        while i > 0:
            i -= 1
            b, rest = word[i], word[i + 1 :]
            inner, out = out, {}
            if a != b:  # an odd square has no swap term
                sign = -1 if a >= n and b >= n else 1
                for w1, v1 in inner.items():
                    for w2, v2 in self._act(b, w1).items():
                        accumulate(out, w2, v2 * v1 * sign)
            for mid, coeff in self._table.get((a, b), ()):
                if a == b:  # an odd square: y y = (1/2) {y, y}
                    coeff = _half(coeff)
                for w2, v2 in self._apply(mid, rest).items():
                    accumulate(out, w2, v2 * coeff)
            cache[(a, word[i:])] = out
        return out

    def _apply(self, gens: Word, word: Word) -> Dict[Word, Coeff]:
        """`apply_word` in the system's ring."""
        dist: Dict[Word, Coeff] = {word: 1}
        for g in reversed(gens):
            nxt: Dict[Word, Coeff] = {}
            for w, v in dist.items():
                for w2, v2 in self._act(g, w).items():
                    accumulate(nxt, w2, v * v2)
            dist = nxt
            if len(dist) > MAX_TERMS:
                raise ValueError(f"more than {MAX_TERMS} terms in one action step")
        return dist


def _first_failure(action: _ModuleAction,
                   relations: Iterable[Tuple[Word, Tuple[int, int]]]
                   ) -> Optional[Tuple[int, int, Word]]:
    """The first relation (a, b, N) that fails on the action, or None.
    Relations with b N ordered hold by construction and are skipped; the
    right side of the others is `_act(a, b N)`."""
    for nword, (a, b) in relations:
        if not nword or action._before(b, nword[0]):
            continue
        word = (b,) + nword
        failed = action._apply((a, b), nword) != action._act(a, word)
        del action._cache[(a, word)]  # the cache keeps ordered words only
        if failed:
            return a, b, nword
    return None


def serre_module_check(
    rs: RewriteSystem, max_len: int = 4
) -> Tuple[bool, Optional[Tuple[int, int, Word]]]:
    """Verify the defining relations on the module of ordered words.

    Checks w_a w_b z_N = (sign) w_b w_a z_N + (lower-order terms) z_N for
    all out-of-order generator pairs a b and all ordered words N of length
    <= max_len - 2, but for those with b N ordered, which hold by
    construction (module docstring); every relation still counts against
    the budget and its place in the order.
    Returns (True, None) or (False, (a, b, N)) on the first failure.
    Raises ValueError for max_len < 3, which would check only N = (), and
    past MAX_RELATIONS relations.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be at least 3, got {max_len}: "
                         "shorter checks cover only the empty word")
    size = rs.presentation.alphabet.size
    pairs = [(a, b) for a in range(size) for b in range(size)
             if not rs._pair_is_ordered(a, b)]
    words: List[Word] = [()]
    frontier: List[Word] = [()]
    for _ in range(max_len - 2):
        frontier = [(g,) + w for w in frontier for g in range(size)
                    if not w or rs._pair_is_ordered(g, w[0])]
        words += frontier
        if len(words) * len(pairs) > MAX_RELATIONS:
            raise ValueError(
                f"max_len {max_len} gives more than {MAX_RELATIONS} "
                "(pair, word) relations to check")
    first = _first_failure(_ModuleAction(rs), product(words, pairs))
    return first is None, first
