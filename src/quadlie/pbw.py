"""Normal ordering for enveloping algebras of quadratic graded
presentations.

A RewriteSystem pairs a presentation with a total generator order.  The
order is *admissible* when every even pair in the support of the d-tensor
strictly precedes the odd pair it rewrites to; under an admissible order
the ordered monomials (evens weakly increasing, odds strictly increasing)
form a basis and `normal_form` computes coordinates in it.

There is one normal-ordering engine: the action of the generators on the
free span of ordered words (`_ModuleAction`).  `normal_form` folds a word
into the empty ordered word through that action, and `serre_module_check`
verifies the defining relations on the same action (equivalently, the
Jacobi identities of the presentation).  By Bergman's diamond lemma
(Adv. Math. 29, 1978) a passing check certifies that the reductions are
confluent, so the normal forms `normal_form` returns are well defined;
they are defined only when the check passes.

Also provided: a witness of linear dependence for inadmissible orders, and
ordered-monomial counting.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, NCPoly, Word
from .presentation import QlsPresentation
from .scalars import Scalar, accumulate, srat


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

    def pos(self, g: int) -> int:
        return self.position[g]

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

    On failure returns the first violating d-index (p, q, k, l).
    """
    ab = pres.alphabet
    if len(order.sequence) != ab.size:
        raise ValueError("order size does not match the presentation")
    for (p, q, k, l) in sorted(pres.d):
        odd_pos = (order.pos(ab.odd(p)), order.pos(ab.odd(q)))
        even_pos = (order.pos(ab.even(k)), order.pos(ab.even(l)))
        if not all(e < o for e in even_pos for o in odd_pos):
            return False, (p, q, k, l)
    return True, None


class RewriteSystem:
    """Immutable presentation + generator order.

    `normal_form` folds each word into the empty ordered word through the
    module action `_ModuleAction.act`; the system owns one action, created
    on first use, so its cache serves every later call.
    `serre_module_check` verifies the defining relations on the same action
    (Bergman's diamond lemma, Adv. Math. 29, 1978).  Normal forms are
    defined only when that check passes: otherwise the action need not
    vanish on the relations, and the result depends on the word chosen to
    represent an element.
    """

    def __init__(self, pres: QlsPresentation, order: Optional[GeneratorOrder] = None):
        self.presentation = pres
        self.order = order if order is not None else GeneratorOrder.default(pres.alphabet)
        self.admissible, self.admissibility_witness = check_admissible(
            pres, self.order
        )
        self._rules = self._build_rules()
        self._action: Optional[_ModuleAction] = None

    # lower-order table: unordered adjacent pair (g1, g2) -> list of
    # (middle word, coeff) with g1 g2 = (sign) g2 g1 + sum coeff * middle,
    # and y y = sum coeff * middle for an odd square
    def _build_rules(self):
        ab = self.presentation.alphabet
        pres = self.presentation
        rules: Dict[Tuple[int, int], List[Tuple[Word, Scalar]]] = {}
        size = ab.size
        for g1 in range(size):
            for g2 in range(size):
                if self.word_is_ordered((g1, g2)):
                    continue
                out: List[Tuple[Word, Scalar]] = []
                p1, p2 = ab.parity(g1), ab.parity(g2)
                if p1 == 0 and p2 == 0:
                    for (i, j, k), v in pres.c.items():
                        if (i, j) == (g1, g2):
                            out.append(((ab.even(k),), v))
                elif p1 == 0:
                    # x_i y_p = y_p x_i + cbar_ip^q y_q
                    for (i, p, q), v in pres.cbar.items():
                        if (i, p) == (g1, g2 - ab.n_even):
                            out.append(((ab.odd(q),), v))
                elif p2 == 0:
                    # y_p x_i = x_i y_p - cbar_ip^q y_q
                    for (i, p, q), v in pres.cbar.items():
                        if (i, p) == (g2, g1 - ab.n_even):
                            out.append(((ab.odd(q),), -v))
                else:
                    p, q = g1 - ab.n_even, g2 - ab.n_even
                    half = srat(1, 2) if p == q else srat(1)
                    for (pp, qq, k, l), v in pres.d.items():
                        if (pp, qq) == (p, q):
                            out.append(((ab.even(k), ab.even(l)), v * half))
                    for (pp, qq, k), v in pres.b.items():
                        if (pp, qq) == (p, q):
                            out.append(((ab.even(k),), v * half))
                    av = pres.a.get((p, q))
                    if av is not None:
                        out.append(((), av * half))
                rules[(g1, g2)] = out
        return rules

    # -- ordering predicates ------------------------------------------

    def word_is_ordered(self, word: Word) -> bool:
        ab = self.presentation.alphabet
        pos = self.order.pos
        for g1, g2 in zip(word, word[1:]):
            if g1 == g2:
                if ab.parity(g1) == 1:
                    return False
            elif pos(g1) > pos(g2):
                return False
        return True

    # -- normal forms -------------------------------------------------

    def normal_form(self, elem: NCPoly) -> NCPoly:
        if not self.admissible:
            raise ValueError(
                f"order is not admissible (witness d-index "
                f"{self.admissibility_witness}); normal forms not defined"
            )
        if self._action is None:
            self._action = _ModuleAction(self)
        out: Dict[Word, Scalar] = {}
        for word, coeff in elem.terms.items():
            for w, v in self._action.apply_word(word, ()).items():
                accumulate(out, w, v * coeff)
        return NCPoly(self.presentation.alphabet, out)


def normal_form(elem: NCPoly, rs: RewriteSystem) -> NCPoly:
    return rs.normal_form(elem)


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
    for (pp, qq, k, l), v in pres.d.items():
        if (pp, qq) == (p, p):
            out = out + NCPoly.monomial(
                ab, (ab.even(k), ab.even(l), yb), v / 2
            )
        if (pp, qq) == (p, q):
            out = out - NCPoly.monomial(ab, (ya, ab.even(k), ab.even(l)), v)
    return out


class _ModuleAction:
    """Serre-style action of generators on the free span of ordered words.

    `max_len` is ignored: the action is defined on words of any length.
    """

    def __init__(self, rs: RewriteSystem, max_len: Optional[int] = None):
        self.rs = rs
        self.ab = rs.presentation.alphabet
        self.pos = rs.order.pos
        self._cache: Dict[Tuple[int, Word], Dict[Word, Scalar]] = {}
        # lower-order bracket data for unordered pairs, acting on basis
        # vectors z_N
        self._lower = rs._rules

    def _before(self, a: int, b: int) -> bool:
        """True iff the two-letter word (a, b) is ordered."""
        if a == b:
            return self.ab.parity(a) == 0
        return self.pos(a) < self.pos(b)

    def _precedes(self, a: int, word: Word) -> bool:
        return not word or self._before(a, word[0])

    def act(self, a: int, word: Word) -> Dict[Word, Scalar]:
        """w_a z_word for an ordered word, as a map ordered word -> coeff.

        The letter a sinks rightwards past the prefix word[:stop] of
        letters it does not precede.  act(a, word[i:]) is built from
        act(a, word[i + 1:]) in a loop from the right, so the call depth
        does not grow with the length of word.
        """
        cache = self._cache
        cached = cache.get((a, word))
        if cached is not None:
            return cached
        stop = 0
        while stop < len(word) and not self._before(a, word[stop]):
            stop += 1
        # resume from the longest suffix already in the cache
        for i in range(1, stop + 1):
            out = cache.get((a, word[i:]))
            if out is not None:
                break
        else:
            i, out = stop, {(a,) + word[stop:]: srat(1)}
            cache[(a, word[stop:])] = out
        while i > 0:
            i -= 1
            b, rest = word[i], word[i + 1 :]
            inner, out = out, {}
            if a != b:  # an odd square has no swap term
                sign = (
                    -1
                    if self.ab.parity(a) == 1 and self.ab.parity(b) == 1
                    else 1
                )
                for w1, v1 in inner.items():
                    for w2, v2 in self.act(b, w1).items():
                        accumulate(out, w2, v2 * v1 * sign)
            for mid, coeff in self._lower[(a, b)]:
                for w2, v2 in self.apply_word(mid, rest).items():
                    accumulate(out, w2, v2 * coeff)
            cache[(a, word[i:])] = out
        return out

    def apply_word(self, gens: Word, word: Word) -> Dict[Word, Scalar]:
        """Act with w_{gens[0]} ... w_{gens[-1]} on z_word."""
        dist: Dict[Word, Scalar] = {word: srat(1)}
        for g in reversed(gens):
            nxt: Dict[Word, Scalar] = {}
            for w, v in dist.items():
                for w2, v2 in self.act(g, w).items():
                    prev = nxt.get(w2)
                    new = v * v2 if prev is None else prev + v * v2
                    if new.is_zero():
                        nxt.pop(w2, None)
                    else:
                        nxt[w2] = new
            dist = nxt
        return dist


def serre_module_check(
    rs: RewriteSystem, max_len: int = 4
) -> Tuple[bool, Optional[Tuple[int, int, Word]]]:
    """Verify the defining relations on the module of ordered words.

    Checks w_a w_b z_N = (sign) w_b w_a z_N + (lower-order terms) z_N for
    all generator pairs and all ordered words N of length <= max_len - 2.
    Returns (True, None) or (False, (a, b, N)) on the first failure.
    """
    if not rs.admissible:
        raise ValueError("module check requires an admissible order")
    ab = rs.presentation.alphabet
    pos = rs.order.pos
    action = _ModuleAction(rs)

    words: List[Word] = [()]
    frontier: List[Word] = [()]
    for _ in range(max(0, max_len - 2)):
        nxt = []
        for w in frontier:
            for g in range(ab.size):
                if action._precedes(g, w):
                    nxt.append((g,) + w)
        words += nxt
        frontier = nxt

    pairs = [
        (a, b)
        for a in range(ab.size)
        for b in range(ab.size)
        if pos(a) > pos(b) or (a == b and ab.parity(a) == 1)
    ]
    for nword in words:
        for a, b in pairs:
            lhs = action.apply_word((a, b), nword)
            sign = -1 if ab.parity(a) == 1 and ab.parity(b) == 1 else 1
            rhs: Dict[Word, Scalar] = {}
            if a != b:
                for w, v in action.apply_word((b, a), nword).items():
                    accumulate(rhs, w, v * sign)
            # for an odd square the relation reads 2 w_a w_a z_N = (full
            # lower terms) z_N; the lower table already carries the 1/2
            # factor, so the swap contribution is dropped on both sides
            for mid, coeff in action._lower[(a, b)]:
                for w, v in action.apply_word(mid, nword).items():
                    accumulate(rhs, w, v * coeff)
            if lhs != rhs:
                return False, (a, b, nword)
    return True, None
