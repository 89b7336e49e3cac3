"""Normal ordering for enveloping algebras of quadratic graded
presentations.

A RewriteSystem pairs a presentation with an *admissible* total
generator order: every even pair in the support of the d-tensor strictly
precedes the odd pair it rewrites to.  The constructor refuses any other
order, so a system that exists is admissible.  Under its order the
ordered monomials (evens weakly increasing, odds strictly increasing)
form a basis and `normal_form` computes coordinates in it.

There is one normal-ordering engine: the action of the generators on the
free span of ordered words, run on interned word ids: one
`_ModuleAction` per system, whose caches `normal_form` and
`serre_module_check` share.  `normal_form` folds each word into the empty
ordered word through it; the check verifies the defining relations on it
(equivalently, the Jacobi identities of the presentation).
By Bergman's diamond lemma (Adv. Math. 29, 1978) a passing check
certifies that the reductions are confluent, so the normal forms
`normal_form` returns are well defined; they are defined only when the
check passes.  Words of length 3 carry every overlap of the quadratic
rules, so `max_len` must be at least 3.

The relation on (a, b, N), a b out of order and N ordered, reads w_a w_b
z_N = (sign) w_b w_a z_N + (lower terms) z_N.  One rewrite step,
`_ModuleAction._step`, forms that right side from w_a z_N, each lower
term added in place, for `_act` at each letter a sinks past and for
`_first_failure` on each relation, so no unordered word enters the
action.  Skip rule: when b N is ordered (N = () or b preceding N[0]),
w_b z_N = z_bN and the first step of `_act(a, b N)` is that right side,
so the check's stream of relations, and its budget, leave the relation
out.  At `max_len` 3, the default, the stream thus covers exactly
Bergman's overlap words a b c, with both a b and b c out of order.

The action runs in the presentation's ring (`QlsPresentation._ring`, which
the Jacobi checkers read too), odd-rescaled by z_N -> D^o(N) z_N, o
counting odd letters, and halves an odd square's terms, y y = (1/2)
{y, y}, where it applies them.  The scaled coefficient of z_w in w_a ...
w_b z_N is the unscaled one times D^(o(a ... b N) - o(w)), never 0: a
relation vanishes in both bases or in neither (same verdict and first
witness); each output word of a ring sum, taken over one common
denominator L, is mapped back by D^e / L once (DECISIONS.md "Odd
rescaling", "normal_form maps back once per output word").

Also provided: a witness of linear dependence for inadmissible orders, and
ordered-monomial counting.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ncpoly import Alphabet, AlphabetMismatch, NCPoly, Word, _ncpoly, add_term
from .presentation import Coeff, QlsPresentation, _half
from .scalars import RationalLike, Scalar, accumulate, axpy

# relations one `serre_module_check` may run: gl2(11/1) at length 3 runs
# 480,337, gl2(12/1) would run 780,248 and gl2(3/1) at length 7 798,147
MAX_RELATIONS = 500_000
# letters of the words N longer than one letter it may make, each word
# costing its length to make and apply: QlsPresentation(1, 1) runs 2
# relations per length, but its words pass this at max_len 709
MAX_LETTERS = 500_000
# terms in one `_times` or `_step` result (serre-check --n 5 reaches 326)
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
        seq = self.sequence = tuple(sequence)
        if sorted(seq) != list(range(len(seq))) or set(map(type, seq)) - {int}:
            raise ValueError("order must be a permutation of 0..size-1")
        self.position = {g: i for i, g in enumerate(seq)}

    @staticmethod
    def default(alphabet: Alphabet) -> "GeneratorOrder":
        return GeneratorOrder(range(alphabet.size))


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
    least violating d-index, and fixes the ranks `_lo`, `_hi` that every
    ordering decision reads: a b is ordered iff lo[a] < hi[b].  Its one
    `_ModuleAction`, made on first use, serves every `normal_form` and
    `serre_module_check` call; normal forms need the check to pass.
    """

    def __init__(self, pres: QlsPresentation, order: Optional[GeneratorOrder] = None):
        check_rule_count(pres.alphabet.size, pres.m_odd)
        self.presentation = pres
        self.order = order if order is not None else GeneratorOrder.default(pres.alphabet)
        admissible, witness = check_admissible(pres, self.order)
        if not admissible:
            raise ValueError(f"inadmissible order: witness d-index {witness}")
        pos, n = self.order.position, pres.n_even
        # a precedes b, or a b is an even square
        self._hi = hi = [2 * pos[g] for g in range(len(pos))]
        self._lo = lo = [h - (g < n) for g, h in enumerate(hi)]
        self._pair_is_ordered = lambda a, b: lo[a] < hi[b]

    @cached_property
    def _action(self) -> "_ModuleAction":
        return _ModuleAction(self)

    def word_is_ordered(self, word: Word) -> bool:
        return all(map(self._pair_is_ordered, word, word[1:]))

    # -- normal forms -------------------------------------------------

    def normal_form(self, elem: NCPoly) -> NCPoly:
        """Coordinates of elem in the ordered monomials: with L the lcm of the
        coefficients' denominators, the words' images times L * coeff (an int,
        or a Scalar with an indeterminate) summed in the ring per odd-letter
        count o_in, mapped back by D^(o(w) - o_in) / L once per output word."""
        ab = self.presentation.alphabet
        if elem.alphabet is not ab and elem.alphabet != ab:
            raise AlphabetMismatch(f"{elem.alphabet!r} vs {ab!r}")
        action, n = self._action, self.presentation.n_even
        den = lcm(*(c.denominator for c in elem.terms.values() if type(c) is not Scalar))
        sums: Dict[int, Dict[int, Coeff]] = {}
        for word, c in elem.terms.items():
            c = c * den if type(c) is Scalar else c.numerator * (den // c.denominator)
            axpy(sums.setdefault(sum(g >= n for g in word), {}), c, action._apply(word, 0))
        out: Dict[Word, RationalLike] = {}
        for odd_in, dist in sums.items():
            action._spell(dist, odd_in, out, den)
        return _ncpoly(ab, out)


def pbw_monomial_count(rs: RewriteSystem, degree: int) -> int:
    """Number of ordered monomials of exactly the given degree."""
    n, m = rs.presentation.n_even, rs.presentation.m_odd
    return sum(
        (1 if j == 0 else comb(n + j - 1, j)) * comb(m, degree - j)
        for j in range(degree + 1)
        if 0 <= degree - j <= m and (n > 0 or j == 0)
    )


def inadmissible_dependence_witness(
    pres: QlsPresentation, order: GeneratorOrder
) -> NCPoly:
    """Nonzero sum of monomials over the inadmissible ordered set whose degree-3
    part vanishes in the enveloping algebra (with b, a or cbar nonzero, words of
    length <= 2 remain; test_witness_normal_form_has_no_word_of_length_three):

        (1/2) d_aa^{cd} x_c x_d y_b + y_a y_b y_a - d_ab^{cd} y_a x_c x_d"""
    ok, witness = check_admissible(pres, order)
    if ok:
        raise ValueError("order is admissible; no dependence witness exists")
    assert witness is not None
    p, q, _, _ = witness
    ab = pres.alphabet
    ya, yb = ab.odd(p), ab.odd(q)
    out = NCPoly.monomial(ab, (ya, yb, ya))
    for (r, s, k, l), v in pres.d.items():
        if r == s == p:  # when p = q, the next term applies as well
            out = out + NCPoly.monomial(ab, (k, l, yb), v / 2)
        if (r, s) == (p, q):
            out = out - NCPoly.monomial(ab, (ya, k, l), v)
    return out


class _ModuleAction:
    """Serre-style action of generators on the free span of ordered words.

    Id 0 is the empty word; an ordered word a t gets the next id w, with
    `_head[w]` = a and `_tail[w]` = t, when `_act` caches `_caches[a][t]`
    = w_a z_t = {w: 1}.  The caches map ids to coefficients in the
    presentation's ring; `_spell`, for `apply_word` and `normal_form`,
    spells ids out as words and maps a sum of images back to coefficients
    in `lower`'s form in the presentation's own basis.  `max_len` is
    ignored: the action is defined on words of any length.
    """

    def __init__(self, rs: RewriteSystem, max_len: Optional[int] = None):
        self.ab = rs.presentation.alphabet
        self._lo, self._hi = rs._lo, rs._hi
        self._head, self._tail = [-1], [0]
        self._caches: List[Dict[int, Dict[int, Coeff]]] = [{} for _ in range(self.ab.size)]
        ring = rs.presentation._ring
        self._table, self._back, self._scale = ring.table, ring.back, ring.scale

    def apply_word(self, gens: Word, word: Word) -> Dict[Word, RationalLike]:
        """Act with w_{gens[0]} ... w_{gens[-1]} on z_word, word ordered."""
        odd_in = sum(g >= self.ab.n_even for g in gens + word)
        return self._spell(self._apply(gens + word, 0), odd_in, {})  # z_word = w_word z_()

    def _spell(self, dist: Dict[int, Coeff], odd_in: int, out: Dict[Word, RationalLike],
               den: int = 1) -> Dict[Word, RationalLike]:
        """Add dist, den times a sum of images of words with odd_in odd
        letters, to out in `lower`'s form: each id spelled out, its
        coefficient v mapped back once to v D^(o(w) - odd_in) / den, an int
        divided in ints or made one Fraction, zero sums dropped."""
        n, head, tail, scale = self.ab.n_even, self._head, self._tail, self._scale
        for w, v in dist.items():
            letters, e = [], -odd_in  # the word of id w, spelled out, and o(w) - odd_in
            while w:
                letters.append(g := head[w])
                e += g >= n
                w = tail[w]
            if type(v) is not int:
                v = self._back(v, e, den)
            elif (d := den * scale ** -e) != 1:  # e <= 0
                v = Fraction(v, d) if v % d else v // d
            add_term(out, tuple(letters), v)
        return out

    def _act(self, a: int, word: int) -> Dict[int, Coeff]:
        """w_a z_word, word ordered: a sinks rightwards past the letters
        word[:stop] it does not precede, and act(a, word[i:]) is the
        `_step` from act(a, word[i + 1:]), in a loop from the right resumed
        from the longest cached suffix, so the call depth does not grow."""
        cache = self._caches[a]
        out = cache.get(word)
        if out is not None:
            return out
        head, tail, hi, lo_a = self._head, self._tail, self._hi, self._lo[a]
        walked = []  # the suffixes a sinks past, above the one resumed from
        while word and lo_a >= hi[head[word]]:
            walked.append(word)
            word = tail[word]
            out = cache.get(word)
            if out is not None:
                break
        else:  # word is word[stop:] and not cached: intern a word[stop:]
            out = cache[word] = {len(head): 1}
            head.append(a)
            tail.append(word)
        for word in reversed(walked):
            out = cache[word] = self._step(a, head[word], out, tail[word])
        return out

    def _step(self, a: int, b: int, inner: Dict[int, Coeff], rest: int) -> Dict[int, Coeff]:
        """w_a w_b z_rest, a b out of order, from inner = w_a z_rest: sign
        w_b(inner) + lower z_rest as a new dict, by a b = sign b a + lower,
        each lower term c mid added in place (for mid = k l, c v w_k z_w per
        term v z_w of w_l z_rest); an odd square has no swap term and halves."""
        out = {} if a == b else self._times(b, inner, min(a, b) >= self.ab.n_even)
        caches, act = self._caches, self._act
        for mid, coeff in self._table.get((a, b), ()):
            c = _half(coeff) if a == b else coeff
            if not mid:
                accumulate(out, rest, c)
            elif len(mid) == 1:
                axpy(out, c, caches[mid[0]].get(rest) or act(mid[0], rest))
            else:
                k, l = mid
                for w, v in (caches[l].get(rest) or act(l, rest)).items():
                    axpy(out, c * v, caches[k].get(w) or act(k, w))
        if len(out) > MAX_TERMS:
            raise ValueError(f"more than {MAX_TERMS} terms in one action step")
        return out

    def _times(self, g: int, dist: Dict[int, Coeff], negate: bool = False) -> Dict[int, Coeff]:
        """w_g on dist, negated if asked, as a new dict: the one product
        step, on images read from the cache in place.  Only sums can vanish,
        so the first image is copied or scaled whole.  The budget is checked
        on each distribution where it is made, the result here and `_step`'s:
        every dist taken in is one of those or a one-term intern."""
        cache, out = self._caches[g], {}
        for w, v in dist.items():
            if negate:
                v = -v
            image = cache.get(w) or self._act(g, w)
            if not out:
                out = dict(image) if type(v) is int and v == 1 else {
                    w2: v2 * v for w2, v2 in image.items()}
                continue
            for w2, v2 in image.items():
                old = out.get(w2)
                if old is None:
                    out[w2] = v2 * v
                elif new := old + v2 * v:
                    out[w2] = new
                else:
                    del out[w2]
        if len(out) > MAX_TERMS:
            raise ValueError(f"more than {MAX_TERMS} terms in one action step")
        return out

    def _apply(self, gens: Word, word: int) -> Dict[int, Coeff]:
        """`apply_word` in the system's ring, on word ids; a one-letter
        result is a cache entry, read only.  Budgeted where it was made."""
        dist = self._act(gens[-1], word) if gens else {word: 1}
        for g in gens[-2::-1]:
            dist = self._times(g, dist)
        return dist


def _first_failure(action: _ModuleAction,
                   relations: Iterable[Tuple[Word, Tuple[int, int]]]
                   ) -> Optional[Tuple[int, int, Word]]:
    """The first relation (a, b, N) of the stream (N, (a, b)) to fail, or None."""
    caches, act = action._caches, action._act
    nid = last = None
    for nword, (a, b) in relations:
        if nword is not last:  # the id of N: w_N z_() = z_N
            (nid,), last = action._apply(nword, 0), nword
        left = action._step(a, b, caches[a].get(nid) or act(a, nid), nid)
        if left != action._times(a, caches[b].get(nid) or act(b, nid)):  # _apply((a, b), N)
            return a, b, nword
    return None


def serre_module_check(
    rs: RewriteSystem, max_len: int = 3
) -> Tuple[bool, Optional[Tuple[int, int, Word]]]:
    """Verify the defining relations on the module of ordered words.

    Checks w_a w_b z_N = (sign) w_b w_a z_N + (lower-order terms) z_N on
    one stream: nonempty ordered N of length <= max_len - 2 by length, each
    with the out-of-order pairs a b, row-major, whose b N is not ordered
    (the rest hold by construction).  Returns (True, None) or (False, (a,
    b, N)) for the first failure.  Raises ValueError for max_len < 3 (only
    N = ()), past MAX_RELATIONS relations and past MAX_LETTERS letters of
    the words N longer than one letter, each counted before any runs.
    """
    if max_len < 3:
        raise ValueError(f"max_len must be at least 3, got {max_len}: "
                         "shorter checks cover only the empty word")
    size, ordered, lo, hi = rs.presentation.alphabet.size, rs._pair_is_ordered, rs._lo, rs._hi
    pairs = [(a, b) for a in range(size) for b in range(size) if not ordered(a, b)]
    too_many = ValueError(f"max_len {max_len} gives more than {MAX_RELATIONS} relations to run")
    # the skip rule, once: runs[g] holds the pairs (a, b) with b g not ordered, the
    # relations on N = (g,), made longest first to stop soon past the budget
    runs: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
    count = 0
    for g in rs.order.sequence:
        runs[g] = [(a, b) for a, b in pairs if lo[b] >= hi[g]]
        if (count := count + len(runs[g])) > MAX_RELATIONS:
            raise too_many
    words = frontier = [(g,) for g in range(size)] if count else []  # none when none runs
    letters = 0
    for length in range(2, max_len - 1):
        frontier = [(g,) + w for w in frontier for g in range(size) if ordered(g, w[0])]
        if (count := count + sum(len(runs[w[0]]) for w in frontier)) > MAX_RELATIONS:
            raise too_many
        if (letters := letters + length * len(frontier)) > MAX_LETTERS:
            raise ValueError(f"max_len {max_len} gives more than {MAX_LETTERS} "
                             "letters of words N to make")
        words += frontier  # the first pass rebinds frontier before words grows
    first = _first_failure(rs._action, ((w, pair) for w in words for pair in runs[w[0]]))
    return first is None, first
