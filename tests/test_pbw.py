"""Normal-ordering rewrite engine and PBW spanning checks."""

import gc
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

from quadlie import pbw
from quadlie.fock import lambda3_presentation
from quadlie.gl2n1 import build
from quadlie.ncpoly import AlphabetMismatch, NCPoly
from quadlie.pbw import (
    MAX_LETTERS,
    MAX_RELATIONS,
    GeneratorOrder,
    RewriteSystem,
    _ModuleAction,
    check_admissible,
    inadmissible_dependence_witness,
    pbw_monomial_count,
    serre_module_check,
)
from quadlie.presentation import QlsPresentation, _half, _Ring
from quadlie.scalars import Scalar, accumulate, axpy, srat

from test_ncpoly import is_canonical_coeff
from test_presentation import (
    _TENSORS,
    _c_plus_u,
    _half_c_presentation,
    _mixed_ring_cases,
    _odd_square_presentation,
    _orbit_shifted,
    _random_presentation,
    _sample_presentations,
    _scaled_down,
    _unscaled_ring,
    rank_of_rows,
)


def _rs(pres, order=None):
    return RewriteSystem(pres, order)


def test_admissible_lie_superalgebra_any_order():
    pres = build(2).presentation  # d == 0
    size = pres.alphabet.size
    ok, witness = check_admissible(pres, GeneratorOrder(list(reversed(range(size)))))
    assert ok and witness is None


def test_generator_order_entries_must_be_ints():
    # [1.0, 0] sorts to a permutation of 0..1, and True == 1
    for seq in ([1.0, 0], [True, 0], [0, 1, 2.0], [0, 2]):
        with pytest.raises(ValueError, match="order must be a permutation of 0..size-1"):
            GeneratorOrder(seq)
    assert GeneratorOrder([1, 0]).position == {1: 0, 0: 1}


def test_order_of_the_wrong_size_rejected():
    pres = build(2).presentation
    for seq in ([0], list(range(pres.alphabet.size + 1))):
        with pytest.raises(ValueError) as info:
            check_admissible(pres, GeneratorOrder(seq))
        assert str(info.value) == "order size does not match the presentation"


def test_admissible_evens_first():
    pres = build(3).presentation
    ok, witness = check_admissible(pres, GeneratorOrder.default(pres.alphabet))
    assert ok and witness is None


def _qbar_first_order(pres):
    size = pres.alphabet.size
    n = pres.n_even
    seq = [n] + list(range(n)) + list(range(n + 1, size))  # Qbar1 first
    return GeneratorOrder(seq)


def test_inadmissible_qbar_first():
    pres = build(3).presentation
    ok, witness = check_admissible(pres, _qbar_first_order(pres))
    assert not ok and witness is not None


def _reference_admissible(pres, order):
    """check_admissible by brute force: the d-indices in sorted order,
    each even position against each odd one."""
    ab = pres.alphabet
    for p, q, k, l in sorted(pres.d):
        if any(order.position[ab.even(e)] >= order.position[ab.odd(o)]
               for e in (k, l) for o in (p, q)):
            return False, (p, q, k, l)
    return True, None


def test_admissibility_matches_sorted_reference():
    rng = random.Random(20261019)
    verdicts = []
    for n in (2, 3, 4):
        for c in (None, 2):
            pres = build(n, c).presentation
            for _ in range(40):
                order = _shuffled_admissible_order(pres, rng)
                seq = list(order.sequence)
                # move one odd before the last even: at most a few violators
                last_even = max(i for i, g in enumerate(seq) if g < pres.n_even)
                odd = rng.randrange(pres.n_even, len(seq))
                seq.remove(odd)
                seq.insert(rng.randrange(last_even + 1), odd)
                for candidate in (order, GeneratorOrder(seq),
                                  GeneratorOrder(rng.sample(seq, len(seq)))):
                    got = check_admissible(pres, candidate)
                    assert got == _reference_admissible(pres, candidate)
                    verdicts.append(got[0])
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_even_commutator_rewrite():
    alg = build(2)
    # E^1_2 E^1_1 = E^1_1 E^1_2 - E^1_2
    got = alg.rewrite.normal_form(alg.E(1, 2) * alg.E(1, 1))
    assert got == alg.E(1, 1) * alg.E(1, 2) - alg.E(1, 2)


def test_odd_square_rewrites_to_half_bracket():
    # synthetic Lie superalgebra: {y, y} = 2 x + 4, commuting even part
    pres = QlsPresentation(1, 1, b={(0, 0, 0): 2}, a={(0, 0): 4})
    rs = _rs(pres)
    ab = pres.alphabet
    yy = NCPoly(ab, {(1, 1): srat(1)})
    assert rs.normal_form(yy) == NCPoly(ab, {(0,): srat(1), (): srat(2)})


def test_q_qbar_rewrite_matches_defining_tensor():
    alg = build(3)
    ab = alg.alphabet
    for i in (1, 2):
        for j in (1, 3):
            p, q = alg.qbar_id(i) - 9, alg.q_id(j) - 9
            expected = NCPoly.zero(ab)
            for (p2, q2, k, l), v in alg.presentation.d.items():
                if (p2, q2) == (p, q):
                    expected = expected + NCPoly(ab, {(k, l): v})
            for (p2, q2, k), v in alg.presentation.b.items():
                if (p2, q2) == (p, q):
                    expected = expected + NCPoly.generator(ab, k).scale(v)
            aval = alg.presentation.a.get((p, q))
            if aval is not None:
                expected = expected + NCPoly.one(ab).scale(aval)
            got = alg.rewrite.normal_form(alg.Q(j) * alg.Qbar(i))
            want = alg.rewrite.normal_form(
                expected - alg.Qbar(i) * alg.Q(j)
            )
            assert got == want


def test_monomial_counts():
    even2 = _rs(QlsPresentation(2, 0))
    assert pbw_monomial_count(even2, 2) == 3
    odd3 = _rs(QlsPresentation(0, 3))
    assert pbw_monomial_count(odd3, 2) == 3
    mixed = _rs(QlsPresentation(1, 1))
    assert pbw_monomial_count(mixed, 2) == 2


def _random_words(rng, size, max_len, count):
    out = []
    for _ in range(count):
        length = rng.randint(0, max_len)
        out.append(tuple(rng.randrange(size) for _ in range(length)))
    return out


def _reference_bracket(pres, g1, g2):
    """[g1, g2} as [(word, coeff)], read straight off the structure tensors
    (independently of QlsPresentation.bracket)."""
    n = pres.alphabet.n_even
    if g1 < n and g2 < n:
        return [((k,), v) for (i, j, k), v in pres.c.items()
                if (i, j) == (g1, g2)]
    if g1 < n:
        return [((n + q,), v) for (i, p, q), v in pres.cbar.items()
                if (i, p) == (g1, g2 - n)]
    if g2 < n:
        return [((n + q,), -v) for (i, p, q), v in pres.cbar.items()
                if (i, p) == (g2, g1 - n)]
    pq = (g1 - n, g2 - n)
    out = [((k, l), v) for (p, q, k, l), v in pres.d.items() if (p, q) == pq]
    out += [((k,), v) for (p, q, k), v in pres.b.items() if (p, q) == pq]
    if pq in pres.a:
        out.append(((), pres.a[pq]))
    return out


def test_bracket_table_matches_reference():
    from test_presentation import _sample_presentations

    for pres in _sample_presentations():
        size = pres.alphabet.size
        for g1 in range(size):
            for g2 in range(size):
                want = dict(_reference_bracket(pres, g1, g2))
                assert dict(pres.bracket(g1, g2)) == want, (g1, g2)


def _reference_rules(pres, order):
    """Leftmost-inversion rewrite rules read off the structure tensors:
    unordered adjacent pair (g1, g2) -> [(replacement word, coeff)], from
    g1 g2 = (sign) g2 g1 + [g1, g2} and, for an odd square,
    y y = (1/2) {y, y}."""
    ab = pres.alphabet
    n = ab.n_even
    pos = order.position
    rules = {}
    for g1 in range(ab.size):
        for g2 in range(ab.size):
            bracket = _reference_bracket(pres, g1, g2)
            if g1 == g2 and g1 >= n:
                rules[(g1, g2)] = [(w, v * srat(1, 2)) for w, v in bracket]
            elif g1 != g2 and pos[g1] > pos[g2]:
                sign = -1 if g1 >= n and g2 >= n else 1
                rules[(g1, g2)] = [((g2, g1), srat(sign))] + bracket
    return rules


def _reference_normal_form(rules, word, memo):
    """Rewrite the leftmost inversion until the word is ordered."""
    if word in memo:
        return memo[word]
    spot = next(
        (t for t in range(len(word) - 1) if (word[t], word[t + 1]) in rules),
        None,
    )
    if spot is None:
        out = {word: srat(1)}
    else:
        out = {}
        prefix, suffix = word[:spot], word[spot + 2:]
        for middle, coeff in rules[(word[spot], word[spot + 1])]:
            for w, v in _reference_normal_form(
                rules, prefix + middle + suffix, memo
            ).items():
                out[w] = out.get(w, srat(0)) + v * coeff
        out = {w: v for w, v in out.items() if not v.is_zero()}
    memo[word] = out
    return out


def _shuffled_admissible_order(pres, rng):
    """Random order with the evens of the d-support moved to the front."""
    seq = list(range(pres.alphabet.size))
    rng.shuffle(seq)
    front = {g for (_, _, k, l) in pres.d for g in (k, l)}
    order = GeneratorOrder(
        [g for g in seq if g in front] + [g for g in seq if g not in front]
    )
    assert check_admissible(pres, order)[0]
    return order


def test_normal_form_matches_reference_rewriter():
    rng = random.Random(2010)
    systems = [(QlsPresentation(1, 1, b={(0, 0, 0): 2}, a={(0, 0): 4}), None)]
    for n in (2, 3, 4):
        for c in (None, Fraction(5, 3)):
            pres = build(n, c).presentation
            systems.append((pres, None))
            systems.append((pres, _shuffled_admissible_order(pres, rng)))
    checked = 0
    for pres, order in systems:
        rs = RewriteSystem(pres, order)
        rules = _reference_rules(pres, rs.order)
        memo = {}
        for word in _random_words(rng, pres.alphabet.size, 6, 50):
            got = rs.normal_form(NCPoly.monomial(pres.alphabet, word))
            assert got.terms == _reference_normal_form(rules, word, memo), word
            checked += 1
    assert checked >= 600


def test_long_word_does_not_hit_recursion_limit():
    alg = build(2, 1)
    rs = RewriteSystem(alg.presentation)
    e11, e22 = alg.E(1, 1), alg.E(2, 2)
    power = NCPoly.one(alg.alphabet)
    for _ in range(2999):
        power = power * e11
    assert sys.getrecursionlimit() <= 1000
    assert rs.normal_form(e22 * power) == power * e22


def test_long_word_memory_grows_linearly():
    # the action keeps each ordered word as a head letter and a tail id,
    # so E22 E11^L takes memory linear in L; a tuple per suffix would take
    # about 29 MB at L = 1,500
    alg = build(2, 1)
    rs = RewriteSystem(alg.presentation)
    (e11,), (e22,) = alg.E(1, 1).terms, alg.E(2, 2).terms
    length = 1500
    elem = NCPoly.monomial(alg.alphabet, e22 + e11 * length)
    tracemalloc.start()
    try:
        got = rs.normal_form(elem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == NCPoly.monomial(alg.alphabet, e11 * length + e22)
    assert peak < 8_000_000, peak


def _deepest_action_frame(call):
    """The most frames above this function that a `pbw` frame sits at
    while call() runs, call's own included, recorded with sys.setprofile."""
    caller, deepest = sys._getframe(), 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call" and frame.f_code.co_filename == pbw.__file__:
            depth = 0
            while frame is not caller:
                frame, depth = frame.f_back, depth + 1
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return deepest


def test_action_depth_does_not_grow_with_the_word_or_the_algebra():
    # the action resumes each sink from a cache in a loop, so its call
    # depth is one constant bound on E22 E11^1500 at gl2(2/1) and on
    # seeded 6-letter words at gl2(12/1)
    bound = 10
    alg = build(2, 1)
    rs = RewriteSystem(alg.presentation)
    (e11,), (e22,) = alg.E(1, 1).terms, alg.E(2, 2).terms
    elem = NCPoly.monomial(alg.alphabet, e22 + e11 * 1500)
    assert 0 < _deepest_action_frame(lambda: rs.normal_form(elem)) <= bound
    alg = build(12, 1)
    rs = RewriteSystem(alg.presentation)
    rng = random.Random(12)
    for _ in range(5):
        word = tuple(rng.randrange(alg.alphabet.size) for _ in range(6))
        elem = NCPoly.monomial(alg.alphabet, word)
        assert 0 < _deepest_action_frame(lambda: rs.normal_form(elem)) <= bound, word


def test_idempotence_and_multiplicativity():
    alg = build(2)
    ab = alg.alphabet
    rng = random.Random(5)
    words = _random_words(rng, ab.size, 3, 12)
    polys = [
        NCPoly(ab, {w: srat(rng.randint(-2, 2)) for w in rng.sample(words, 3)})
        for _ in range(6)
    ]
    for u in polys:
        nf = alg.rewrite.normal_form(u)
        assert alg.rewrite.normal_form(nf) == nf
    for u in polys[:3]:
        for v in polys[3:]:
            direct = alg.rewrite.normal_form(u * v)
            staged = alg.rewrite.normal_form(
                alg.rewrite.normal_form(u) * alg.rewrite.normal_form(v)
            )
            assert direct == staged


def test_normal_forms_span_pbw_dimension():
    alg = build(2, 1)
    ab = alg.alphabet
    words = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [(g,) + w for w in frontier for g in range(ab.size)]
        words += frontier
    rows = []
    for w in words:
        nf = alg.rewrite.normal_form(NCPoly(ab, {w: srat(1)}))
        rows.append({ww: Fraction(v) for ww, v in nf.terms.items()})
    expected = sum(pbw_monomial_count(alg.rewrite, k) for k in range(4))
    assert rank_of_rows(rows) == expected


def test_ordered_words_are_fixed_points():
    alg = build(3)
    ab = alg.alphabet
    ordered = [
        (0, 0, 5), (1, 2), (alg.qbar_id(1), alg.q_id(2)),
        (0, alg.qbar_id(1), alg.qbar_id(2)),
    ]
    for w in ordered:
        poly = NCPoly(ab, {w: srat(1)})
        assert alg.rewrite.normal_form(poly) == poly


def test_serre_module_check_even_only():
    rs = _rs(build(2, 0).presentation)
    ok, counter = serre_module_check(rs, max_len=4)
    assert ok and counter is None


def test_serre_module_check_gl2n1():
    for n, c in ((2, None), (3, None), (3, 2)):
        rs = build(n, c).rewrite
        ok, counter = serre_module_check(rs, max_len=4)
        assert ok, counter


def test_serre_module_check_matches_component_jacobi():
    from test_presentation import _random_presentation

    rng = random.Random(99)
    agreements = 0
    for _ in range(25):
        pres = _random_presentation(rng)
        rs = _rs(pres)  # default evens-first order is always admissible here
        ok, _ = serre_module_check(rs, max_len=4)
        assert ok == pres.check_component_jacobi().passed
        agreements += 1
    assert agreements == 25


def test_inadmissible_witness_nonzero():
    pres = build(3).presentation
    order = _qbar_first_order(pres)
    witness = inadmissible_dependence_witness(pres, order)
    assert not witness.is_zero()
    assert any(
        len(w) == 3 and w[0] == w[2] and w[0] != w[1] for w in witness.terms
    )


def test_inadmissible_witness_requires_violation():
    pres = build(2).presentation  # d == 0: every order admissible
    with pytest.raises(ValueError):
        inadmissible_dependence_witness(
            pres, GeneratorOrder.default(pres.alphabet)
        )


def test_inadmissible_witness_minimal_instance():
    pres = QlsPresentation(1, 2, d={(0, 0, 0, 0): 1})
    order = GeneratorOrder([1, 2, 0])  # both odds before the even
    ok, witness = check_admissible(pres, order)
    assert not ok
    poly = inadmissible_dependence_witness(pres, order)
    assert not poly.is_zero()


def test_witness_normal_form_has_no_word_of_length_three():
    # the witness holds in the enveloping algebra up to words of length
    # at most 2, so its normal form in an admissible order that passes the
    # Serre check has no word of length 3: a witness that drops the
    # d_aa term when p = q, or its 1/2, leaves one
    p_is_q = QlsPresentation(1, 2, d={(0, 0, 0, 0): 1})
    p_not_q = QlsPresentation(2, 2, d={(0, 0, 0, 0): 1, (0, 1, 1, 1): 1, (1, 0, 1, 1): 1})
    gl = build(3).presentation
    n, size = gl.n_even, gl.alphabet.size
    cases = [(p_is_q, [1, 2, 0], (0, 0)),  # y1 y2 x1
             (p_not_q, [0, 2, 3, 1], (0, 1)),  # x1 y1 y2 x2: d_00 admissible, d_01 not
             (gl, [*range(n, size), *range(n)], None)]  # the odds first
    for pres, sequence, pq in cases:
        order = GeneratorOrder(sequence)
        ok, index = check_admissible(pres, order)
        assert not ok and (pq is None or index[:2] == pq)
        witness = inadmissible_dependence_witness(pres, order)
        rs = _rs(pres)
        assert serre_module_check(rs, 3) == (True, None)
        assert not any(len(w) == 3 for w in rs.normal_form(witness).terms), sequence
    witness = inadmissible_dependence_witness(p_is_q, GeneratorOrder([1, 2, 0]))
    assert str(witness) == "1/2*x1*x1*y1 - y1*x1*x1 + y1*y1*y1"


def test_rewrite_refuses_inadmissible_system():
    # the order is decided once: no system exists to refuse later
    pres = build(3).presentation
    order = _qbar_first_order(pres)
    witness = check_admissible(pres, order)[1]
    with pytest.raises(ValueError) as info:
        RewriteSystem(pres, order)
    assert str(info.value) == f"inadmissible order: witness d-index {witness}"


def test_normal_form_refuses_another_alphabet():
    # an n = 3 element is neither rewritten in gl2(2/1) nor an IndexError
    rs, a3 = build(2).rewrite, build(3)
    for elem in (a3.E(1, 2) * a3.E(2, 1), a3.Q(3)):
        with pytest.raises(AlphabetMismatch):
            rs.normal_form(elem)


def test_alphabet_mismatch_names_the_differing_names():
    # same sizes, different names: the message must tell the two apart
    named = QlsPresentation(2, 1, names=["u", "v", "w"])
    with pytest.raises(AlphabetMismatch) as info:
        RewriteSystem(QlsPresentation(2, 1)).normal_form(NCPoly.generator(named.alphabet, 0))
    mine, theirs = str(info.value).split(" vs ")
    assert mine != theirs
    assert mine == "Alphabet(n_even=2, m_odd=1, names=['u', 'v', 'w'])"
    assert theirs == "Alphabet(n_even=2, m_odd=1)"


def test_serre_module_check_rejects_vacuous_lengths():
    # below length 3 only N = () is checked, where the relations hold by
    # construction: a presentation that fails at length 3 would pass
    rs = build(2).rewrite
    for max_len in (2, 1, 0, -1):
        with pytest.raises(ValueError, match="at least 3"):
            serre_module_check(rs, max_len=max_len)


def test_odd_scale_is_the_least_integral_one():
    # a symbolic c sits only in a: D comes from the plain-rational terms
    for c, scale in ((None, 2), (1, 2), (Fraction(7, 5), 10), (Fraction(5, 3), 6)):
        assert build(3, c).presentation._ring.scale == scale
    # the odd square carries 1/2, so y y -> 1/4: D = 2 already clears it
    assert QlsPresentation(1, 1, a={(0, 0): srat(1, 2)})._ring.scale == 2
    # an even-even coefficient 1/2 is untouched by any odd scale: it stays
    # a Scalar beside the ints
    half = QlsPresentation(
        2, 1, c={(0, 1, 0): srat(1, 2), (1, 0, 0): srat(-1, 2)})._ring
    assert half.scale == 1
    assert half.table[(1, 0)] == [((0,), srat(-1, 2))]
    assert type(half.table[(1, 0)][0][1]) is Scalar


def test_checkers_and_action_share_one_scaled_table():
    # the action runs in the checkers' scaled ring and halves each odd
    # square there: y y and (1/2) {y, y} have one normal form
    rng = random.Random(20261023)
    cases = _sample_presentations() + _mixed_ring_cases()
    cases += [_odd_square_presentation(), _half_c_presentation()]
    cases += [_scaled_down(_random_presentation(rng), 6) for _ in range(50)]
    for pres in cases:
        rs = RewriteSystem(pres)
        ab = pres.alphabet
        for y in range(pres.n_even, ab.size):
            half = {w: v * srat(1, 2) for w, v in pres.bracket(y, y).items()}
            assert rs.normal_form(NCPoly.monomial(ab, (y, y))) == rs.normal_form(
                NCPoly(ab, half)), y


def test_serre_length_3_matches_abstract_checker():
    from test_presentation import _random_presentation

    rng = random.Random(300)
    verdicts = []
    for _ in range(300):
        pres = _random_presentation(rng)
        rs = _rs(pres)  # evens first: admissible
        # every one runs on ints alone
        assert all(type(v) is int for terms in pres._ring.table.values() for _, v in terms)
        ok, first = serre_module_check(rs, max_len=3)
        assert ok == pres.check_abstract_jacobi().passed
        # length 3 decides (DECISIONS.md "Length 3 decides"): lengths 4
        # and 5 give the same verdict and the same first witness
        for max_len in (4, 5):
            assert serre_module_check(rs, max_len) == (ok, first), max_len
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


# first witnesses of gl2(3/1) with the first / last orbit of a tensor
# shifted, as the Scalar-only engine reported them
_SHIFTED_WITNESSES = {
    ("d", 0): (12, 9, (1,)), ("d", -1): (14, 11, (1,)),
    ("b", 0): (12, 9, (1,)), ("b", -1): (14, 11, (1,)),
    ("a", 0): (12, 10, (1,)), ("a", -1): (12, 11, (2,)),
}


@pytest.mark.parametrize("c", [1, Fraction(7, 5), None],
                         ids=["c=1", "c=7/5", "c=symbolic"])
def test_serre_witnesses_agree_across_rings(c):
    pres = build(3, c).presentation
    for (name, pick), witness in _SHIFTED_WITNESSES.items():
        rs = _rs(_orbit_shifted(pres, name, sorted(getattr(pres, name))[pick]))
        # D of the plain-rational terms; at symbolic c the a shift joins c
        scale = {1: 6, Fraction(7, 5): 30, None: 2 if name == "a" else 6}[c]
        assert rs.presentation._ring.scale == scale
        for max_len in (3, 4):
            assert serre_module_check(rs, max_len) == (False, witness), (name, pick)


def test_rational_presentation_without_integral_scale_keeps_scalar():
    c = {(0, 1, 0): srat(1, 2), (1, 0, 0): srat(-1, 2)}  # [x1, x2] = x1 / 2
    cases = [
        ({}, (True, None)),
        ({"b": {(0, 0, 0): 1}}, (False, (2, 2, (1,)))),
        ({"cbar": {(1, 0, 0): srat(1, 3)}, "b": {(0, 0, 1): 1}},
         (False, (2, 2, (0,)))),
    ]
    for extra, want in cases:
        rs = _rs(QlsPresentation(2, 1, c=c, **extra))
        assert rs.presentation._ring.scale == (2 if extra else 1)  # y y -> b / 2
        assert isinstance(rs.presentation._ring.table[(1, 0)][0][1], Scalar)
        for max_len in (3, 4):
            assert serre_module_check(rs, max_len) == want
            assert _scalar_serre(rs, max_len) == want


def test_module_action_returns_scalars_in_own_basis():
    # y y = (1/2) {y, y} = 1/4 runs as the int 1 with D = 2
    pres = QlsPresentation(1, 1, a={(0, 0): srat(1, 2)})
    rs = _rs(pres)
    action = _ModuleAction(rs)
    assert action.apply_word((1, 1), ()) == {(): srat(1, 4)}
    assert action.apply_word((1,), (0,)) == {(0, 1): srat(1)}
    assert rs.normal_form(NCPoly.monomial(pres.alphabet, (1, 0, 1))) == NCPoly(
        pres.alphabet, {(0,): srat(1, 4)})


def _ordered_words(rs, max_len):
    """The words N of the relations (a, b, N) up to max_len, in check order."""
    words, frontier = [()], [()]
    for _ in range(max_len - 2):
        frontier = [(g,) + w for w in frontier
                    for g in range(rs.presentation.alphabet.size)
                    if not w or rs._pair_is_ordered(g, w[0])]
        words += frontier
    return words


def _out_of_order_pairs(rs):
    """The generator pairs (a, b) whose word a b is not ordered, odd
    squares included, in row-major order."""
    n, size, pos = rs.presentation.n_even, rs.presentation.alphabet.size, rs.order.position
    return [(a, b) for a in range(size) for b in range(size)
            if a == b >= n or pos[a] > pos[b]]


def _explicit_rhs(rs, action, a, b, nword):
    """Right side of the relation on (a, b, N), built by hand in the
    presentation's own basis: (sign) w_b w_a z_N + (lower-order terms) z_N
    through `apply_word`, with the unscaled bracket; an odd square a = b
    has no swap term, and its bracket terms are halved: y y = (1/2) {y, y}."""
    ab = action.ab
    sign = -1 if ab.parity(a) == ab.parity(b) == 1 else 1
    rhs = {}
    if a != b:
        for w, v in action.apply_word((b, a), nword).items():
            accumulate(rhs, w, v * sign)
    for mid, coeff in _unscaled_ring(rs.presentation).table.get((a, b), ()):
        if a == b:
            coeff = _half(coeff)
        for w, v in action.apply_word(mid, nword).items():
            accumulate(rhs, w, v * coeff)
    return rhs


def _scalar_action(rs):
    """The module action on the unscaled Scalar table, D = 1: built while
    the presentation's unscaled ring stands in for its `_ring`, so
    `apply_word` returns the unscaled action."""
    with mock.patch.object(QlsPresentation, "_ring", property(_unscaled_ring)):
        return _ModuleAction(rs)


def _scalar_serre(rs, max_len):
    """Reference: every relation, skipped ones included, run once on the
    unscaled Scalar table."""
    action = _scalar_action(rs)
    for nword in _ordered_words(rs, max_len):
        for a, b in _out_of_order_pairs(rs):
            if action.apply_word((a, b), nword) != _explicit_rhs(rs, action, a, b, nword):
                return False, (a, b, nword)
    return True, None


def test_skipped_relations_hold_by_construction():
    # the check skips (a, b, N) when b N is ordered, since there both
    # sides are _act(a, b N); the explicit right side must agree on every
    # one, even for the presentations that fail the check
    from test_presentation import _random_presentation

    rng = random.Random(300)  # the presentations of the length-3 test
    skipped = 0
    for _ in range(300):
        rs = _rs(_random_presentation(rng))
        action = _ModuleAction(rs)
        for nword in _ordered_words(rs, 4):
            for a, b in _out_of_order_pairs(rs):
                if nword and not rs._pair_is_ordered(b, nword[0]):
                    continue  # checked by serre_module_check
                assert action.apply_word((a, b), nword) == _explicit_rhs(
                    rs, action, a, b, nword), (a, b, nword)
                skipped += 1
    assert skipped > 0


def _unfused_step(action, a, b, rest):
    """Reference rewrite step: the swap term through `_times`, then each
    lower term's own `_apply` dict added with axpy, halved on an odd square."""
    swap = min(a, b) >= action.ab.n_even
    out = {} if a == b else action._times(b, action._act(a, rest), swap)
    for mid, coeff in action._table.get((a, b), ()):
        axpy(out, _half(coeff) if a == b else coeff, action._apply(mid, rest))
    return out


def test_fused_step_matches_one_dict_per_lower_term():
    # _step adds each lower term in place; it must equal the sum of the
    # terms' own distributions on every out-of-order pair and every ordered
    # N up to length 2: the seeded presentations of the skipped-relations
    # test, symbolic gl2(3/1) and Lambda^3 (odd squares, D = 4)
    rng = random.Random(300)
    cases = [_random_presentation(rng) for _ in range(300)]
    cases += [build(3).presentation, lambda3_presentation()]
    assert cases[-1]._ring.scale == 4
    mids = set()
    for pres in cases:
        rs = _rs(pres)
        action = _ModuleAction(rs)
        for nword in _ordered_words(rs, 4):
            (nid,) = action._apply(nword, 0)
            for a, b in _out_of_order_pairs(rs):
                mids.update((len(mid), a == b) for mid, _ in action._table.get((a, b), ()))
                want = _unfused_step(action, a, b, nid)
                assert action._step(a, b, action._act(a, nid), nid) == want, (a, b, nword)
    assert mids >= {(0, False), (1, False), (2, False), (0, True), (1, True), (2, True)}


def test_serre_check_caches_only_ordered_words(monkeypatch):
    actions = []
    first_failure = pbw._first_failure

    def recording(action, relations):
        actions.append(action)
        return first_failure(action, relations)

    monkeypatch.setattr(pbw, "_first_failure", recording)
    pres = build(3, 1).presentation
    shifted = _orbit_shifted(pres, "d", sorted(pres.d)[0])
    systems = (build(3).rewrite, _rs(pres), _rs(shifted))
    for rs in systems:
        serre_module_check(rs, max_len=4)
    assert len(actions) == 3  # one pass per system, symbolic c included
    for rs, action in zip(systems, actions):
        words = [()]  # by id: each word's tail was interned before it
        for head, tail in zip(action._head[1:], action._tail[1:]):
            words.append((head,) + words[tail])
        assert len(words) > 1
        assert all(rs.word_is_ordered(w) for w in words)


def _symbolic_cases():
    pres3 = build(3).presentation
    cases = [(f"n={n}", build(n).presentation) for n in (2, 3, 4)]
    for name in ("d", "b", "a"):
        indices = sorted(getattr(pres3, name))
        for pick in (0, -1):
            cases.append((f"{name}[{pick}]",
                          _orbit_shifted(pres3, name, indices[pick])))
    pres2 = _c_plus_u(build(2).presentation)
    u_times_c = Scalar.var("u") * Scalar.var("c")
    cases.append(("n=2, c+u", pres2))
    cases.append(("n=2, c+u, a[0] + u c",
                  _orbit_shifted(pres2, "a", sorted(pres2.a)[0], u_times_c)))
    return cases


@pytest.mark.parametrize("label, pres", _symbolic_cases(),
                         ids=[label for label, _ in _symbolic_cases()])
def test_serre_evaluation_matches_scalar_reference(label, pres):
    rs = _rs(pres)
    # D of the plain-rational terms (build(2) has none on odd-odd pairs)
    assert rs.presentation._ring.scale == (1 if label.startswith("n=2")
                             else 6 if label[0] in "db" else 2)
    names = set().union(*(v.variables() for t in _TENSORS
                          for v in getattr(pres, t).values()
                          if isinstance(v, Scalar)))
    assert names == ({"c", "u"} if "u" in label else {"c"})
    # gl2(4/1) at length 4 takes about 12 s on the Scalar reference
    for max_len in (3,) if label == "n=4" else (3, 4):
        want = _scalar_serre(rs, max_len)
        assert serre_module_check(rs, max_len) == want, max_len
        assert want[0] is (label in ("n=2", "n=3", "n=4", "n=2, c+u"))


def test_serre_check_catches_residual_vanishing_at_two_points():
    # a[0] + c (c - 1) vanishes at c = 0 and 1, so a check that evaluated
    # c at those points only would pass it; the Scalar terms keep c
    pres = build(3).presentation
    shift = Scalar.var("c") * (Scalar.var("c") - 1)
    rs = _rs(_orbit_shifted(pres, "a", sorted(pres.a)[0], shift))
    for max_len in (3, 4):
        got = serre_module_check(rs, max_len)
        assert not got[0]
        assert got == _scalar_serre(rs, max_len)


def test_symbolic_serre_check_stays_off_scalar_multiplication(monkeypatch):
    rs = RewriteSystem(build(3).presentation)
    calls = []
    original = Scalar.__mul__

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    assert serre_module_check(rs, max_len=4) == (True, None)
    # every Scalar product has a c-carrying operand: the a terms and what
    # they reach (1,789 products; the Scalar engine made 255,899)
    assert 0 < len(calls) < 5000
    assert all("c" in Scalar.coerce(x).variables() | Scalar.coerce(y).variables()
               for x, y in calls)


def test_serre_mixed_ring_matches_scalar_ring(monkeypatch):
    # u in c, cbar or d, c + u in a, or non-integral c and cbar: ints and
    # Scalars in one table
    verdicts = []
    for pres in _mixed_ring_cases():
        rs = _rs(pres)
        assert any(isinstance(v, Scalar)
                   for terms in pres._ring.table.values() for _, v in terms)
        lengths = (3, 4) if pres.alphabet.size < 10 else (3,)
        got = [serre_module_check(rs, max_len) for max_len in lengths]
        with monkeypatch.context() as mp:
            # the reference: the unscaled Scalar table, D = 1
            mp.setattr(QlsPresentation, "_ring", property(_unscaled_ring))
            scalar_rs = _rs(pres)
            assert scalar_rs.presentation._ring is _unscaled_ring(pres)
            want = [serre_module_check(scalar_rs, max_len) for max_len in lengths]
        assert got == want
        verdicts.append(got[0][0])
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_normal_form_matches_scalar_ring_action():
    rng = random.Random(20261021)
    for pres in (build(3).presentation, _c_plus_u(build(2).presentation)):
        rs = _rs(pres)
        assert rs.presentation._ring.scale == (2 if pres.n_even == 9 else 1)
        scalar = _scalar_action(rs)
        symbolic = 0
        for word in _random_words(rng, pres.alphabet.size, 6, 60):
            want = scalar.apply_word(word, ())
            got = rs.normal_form(NCPoly.monomial(pres.alphabet, word))
            assert got.terms == want, word
            symbolic += any(type(v) is Scalar for v in want.values())
        assert symbolic


def _multi_term_elements(rs, rng, count):
    """Seeded sums of a word, a shuffle of it and an ordered word in its
    normal form, of another odd count where there is one, so words of
    different odd counts land on shared output words, with int, rational
    and symbolic coefficients; and last, the first sum that is not its own
    normal form minus that normal form, which cancels to zero."""
    ab, n = rs.presentation.alphabet, rs.presentation.n_even
    c = Scalar.var("c")
    coeffs = [3, -2, Fraction(1, 3), c, c + Scalar.var("u")]
    out = []
    for _ in range(count):
        word = tuple(rng.randrange(ab.size) for _ in range(rng.randint(2, 4)))
        shuffled = tuple(rng.sample(word, len(word)))
        odd = sum(g >= n for g in word)
        image = rs._action.apply_word(word, ())
        ordered = min(image, default=(), key=lambda w: (sum(g >= n for g in w) == odd, w))
        terms = {}
        for w in (word, shuffled, ordered):
            terms[w] = terms.get(w, Scalar()) + Scalar.coerce(rng.choice(coeffs))
        out.append(NCPoly(ab, terms))
    first = next(e for e in out if rs.normal_form(e) != e)
    return out + [first - rs.normal_form(first)]


def _common_denominator_elements(rs, rng, count):
    """Seeded sums with the coefficients 1/2, 1/3, 5/6 and 7/4 on words of
    different odd counts, each also with c/3 + 1/2 on one more word, so
    normal_form puts them over L = 12; and last, the first of them that is
    not its own normal form minus that normal form, which cancels to zero."""
    ab, n = rs.presentation.alphabet, rs.presentation.n_even
    by_odd = {}
    for _ in range(200):
        word = tuple(rng.randrange(ab.size) for _ in range(rng.randint(2, 4)))
        by_odd.setdefault(sum(g >= n for g in word), []).append(word)
    counts = sorted(by_odd)
    assert len(counts) > 2
    rationals = [Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(7, 4)]
    symbolic = Scalar.var("c") / 3 + Fraction(1, 2)
    out = []
    for _ in range(count):
        first = rng.randrange(len(counts))
        terms = {}
        for i, coeff in enumerate(rationals + [symbolic]):
            w = rng.choice(by_odd[counts[(first + i) % len(counts)]])
            terms[w] = terms.get(w, Scalar()) + Scalar.coerce(coeff)
        out.append(NCPoly(ab, terms))
    first = next(e for e in out if rs.normal_form(e) != e)
    return out + [first - rs.normal_form(first)]


def _sum_of_images(elem, image):
    """Sum of coeff * image(word) over elem's terms, in Scalars."""
    out = {}
    for word, coeff in elem.terms.items():
        for w, v in image(word).items():
            out[w] = out.get(w, srat(0)) + coeff * v
    return {w: v for w, v in out.items() if v}


@pytest.mark.parametrize("pres, scale", [
    pytest.param(build(2).presentation, 1, id="gl2(2/1)-symbolic"),
    pytest.param(build(3).presentation, 2, id="gl2(3/1)-symbolic"),
    pytest.param(build(3, Fraction(7, 5)).presentation, 10, id="gl2(3/1)-c=7/5"),
    pytest.param(lambda3_presentation(), 4, id="lambda3"),
])
def test_multi_term_normal_form_is_the_sum_over_its_words(pres, scale):
    # normal_form sums the words' images in the ring over one common
    # denominator, one sum per odd count, and maps each sum back once: it
    # must equal the per-word normal forms summed in Scalars, unscaled and
    # through apply_word, and a fresh system's result
    assert pres._ring.scale == scale
    rs = _rs(pres)
    rules = _reference_rules(pres, rs.order)
    memo = {}
    elems = _multi_term_elements(rs, random.Random(f"multi-term {scale}"), 25)
    over_l = _common_denominator_elements(rs, random.Random(f"over L {scale}"), 8)
    mixed = 0  # output words reached from input words of two odd counts
    for elem in elems + over_l:
        want = _sum_of_images(elem, lambda w: _reference_normal_form(rules, w, memo))
        got = rs.normal_form(elem)
        assert got.terms == want, elem
        assert all(map(is_canonical_coeff, got.terms.values()))
        assert _rs(pres).normal_form(elem) == got, elem
        assert _sum_of_images(elem, lambda w: rs._action.apply_word(w, ())) == want
        reached = {}
        for word in elem.terms:
            for w in _reference_normal_form(rules, word, memo):
                reached.setdefault(w, set()).add(sum(g >= pres.n_even for g in word))
        mixed += sum(len(counts) > 1 for counts in reached.values())
    assert mixed
    for zero in (elems[-1], over_l[-1]):
        assert len(zero.terms) > 1 and rs.normal_form(zero).is_zero()


def test_serre_check_refuses_past_relation_budget():
    # gl2(3/1) at length 7 runs 798,147 relations, at c = 1 and symbolic,
    # and gl2(6/1) at length 4 runs 667,534
    for rs, max_len in ((build(3, 1).rewrite, 7), (build(3).rewrite, 7),
                        (build(6, 1).rewrite, 4)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="relations"):
            serre_module_check(rs, max_len=max_len)
        assert time.perf_counter() - start < 1
    # admitted, rational or symbolic: gl2(11/1) at the default length 3
    # (480,337 relations run), gl2(5/1) at length 4 (189,855) and gl2(3/1)
    # at length 6 (211,632)
    assert MAX_RELATIONS >= max(480_337, 189_855, 211_632)


def _counting_first_failure(monkeypatch):
    """Stub _first_failure to record how many relations it is handed and
    run none; returns the list of counts."""
    counts = []

    def counting(action, relations):
        counts.append(sum(1 for _ in relations))
        return None

    monkeypatch.setattr(pbw, "_first_failure", counting)
    return counts


def test_relation_budget_counts_the_relations_that_run(monkeypatch):
    # the budget's count is the number of relations _first_failure is
    # handed: a budget of exactly that many admits the check, one fewer
    # refuses it, on seeded presentations at lengths 3, 4 and 5
    counts = _counting_first_failure(monkeypatch)
    rng = random.Random(300)  # the presentations of the length-3 test
    for _ in range(300):
        rs = _rs(_random_presentation(rng))
        for max_len in (3, 4, 5):
            assert serre_module_check(rs, max_len) == (True, None)
            ran = counts[-1]
            assert ran > 0
            monkeypatch.setattr(pbw, "MAX_RELATIONS", ran)
            assert serre_module_check(rs, max_len) == (True, None)
            assert counts[-1] == ran
            monkeypatch.setattr(pbw, "MAX_RELATIONS", ran - 1)
            with pytest.raises(ValueError, match=f"more than {ran - 1} relations to run"):
                serre_module_check(rs, max_len)
            monkeypatch.setattr(pbw, "MAX_RELATIONS", MAX_RELATIONS)


@pytest.mark.parametrize("n, max_len, ran", [
    (10, 3, 283_240), (12, 3, 780_248), (6, 4, 667_534), (3, 7, 798_147)])
def test_relations_run_on_gl2n1(monkeypatch, n, max_len, ran):
    # the relations the check runs, with _first_failure stubbed: gl2(10/1)
    # at length 3 is admitted; the others pass MAX_RELATIONS, so they are
    # counted under a larger budget
    counts = _counting_first_failure(monkeypatch)
    if ran > MAX_RELATIONS:
        monkeypatch.setattr(pbw, "MAX_RELATIONS", ran)
    assert serre_module_check(build(n, 1).rewrite, max_len) == (True, None)
    assert counts == [ran]


@pytest.mark.parametrize("n_even, m_odd, order", [
    (1000, 0, None), (1000, 0, "reversed"), (0, 999, None), (900, 100, None)])
def test_serre_check_on_many_generators_is_refused_at_once(n_even, m_odd, order):
    # within the rule budget, but the relations on one-letter N alone pass
    # MAX_RELATIONS: refused long before they are all made, in either order
    # of the generators (the pairs themselves are within the budget)
    pres = QlsPresentation(n_even, m_odd)
    size = pres.alphabet.size
    rs = _rs(pres) if order is None else RewriteSystem(
        pres, GeneratorOrder(range(size - 1, -1, -1)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="relations to run"):
        serre_module_check(rs)
    assert time.perf_counter() - start < 1


def test_serre_check_refuses_past_letter_budget():
    # one even and one odd: 2 relations per length, so the relation budget
    # admits max_len up to about 250,000, but the letters of the words N
    # grow with the square of max_len and pass MAX_LETTERS at 709
    rs = _rs(QlsPresentation(1, 1))
    assert serre_module_check(rs, 708) == (True, None)
    for max_len in (709, 4_000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {MAX_LETTERS} letters"):
            serre_module_check(rs, max_len)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n, max_len", [(11, 3), (5, 4), (4, 5), (3, 6), (2, 7)])
def test_letter_budget_admits_the_longest_gl2n1_checks(monkeypatch, n, max_len):
    # the longest length each gl2(n/1) is admitted at stays admitted, with
    # _first_failure stubbed so that no relation runs
    counts = _counting_first_failure(monkeypatch)
    assert serre_module_check(build(n, 1).rewrite, max_len) == (True, None)
    assert counts[0] > 0


def test_serre_check_with_no_relation_to_run_passes_at_any_length():
    # two commuting evens: E1 E0 is out of order, but E0 N is ordered for
    # every N, so no relation runs at any length and no word is made (the
    # ordered words of two evens up to length 300 would take tens of MB)
    for pres in (QlsPresentation(2, 0), QlsPresentation(1, 0), QlsPresentation(0, 0)):
        rs = _rs(pres)
        tracemalloc.start()
        try:
            assert serre_module_check(rs, 300) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


def test_ring_maps_back_with_no_positive_exponent(monkeypatch):
    # a result word never has more odd letters than its input, as no bracket
    # raises the odd-letter count: `_Ring.back` sees exponents <= 0 from both
    # checkers, normal_form and apply_word
    seen = []
    back = _Ring.back

    def recording(ring, value, exponent, den=1):
        seen.append((exponent, ring.scale))
        return back(ring, value, exponent, den)

    monkeypatch.setattr(_Ring, "back", recording)
    for pres in _sample_presentations() + [_odd_square_presentation(), _half_c_presentation()]:
        pres.check_component_jacobi()
        pres.check_abstract_jacobi()
        rs, size, n = RewriteSystem(pres), pres.alphabet.size, pres.n_even
        for g in range(size):
            for h in range(size):
                rs.normal_form(NCPoly.monomial(pres.alphabet, (g, h), srat(1, 3)))
        # two odd letters out of order, then the last even ahead of the first
        rs._action.apply_word((size - 1, n, n - 1, 0), (0,))
    exponents = {e for e, _ in seen}
    assert max(exponents) == 0 and min(exponents) <= -2
    assert any(e < 0 and scale > 1 for e, scale in seen)


def test_term_budget_covers_every_product_step(monkeypatch):
    # MAX_TERMS bounds each distribution the action makes, where it is
    # made: a swap step inside _act, and a step inside serre_module_check,
    # are refused with one message
    monkeypatch.setattr(pbw, "MAX_TERMS", 1)
    message = "more than 1 terms in one action step"
    rs = build(3, 1).rewrite
    action = _ModuleAction(rs)
    (word,) = action._apply((0, 1), 0)  # z_{E1_1 E1_2}, ordered: one term
    # E2_2 sinks past E1_2 into z_{E1_2 E2_2} - z_{E1_2}: the step that
    # makes those two terms refuses them
    with pytest.raises(ValueError) as info:
        action._act(4, word)
    assert str(info.value) == message
    frames = [entry.name for entry in info.traceback]
    assert frames[frames.index("_act"):] == ["_act", "_step"]
    with pytest.raises(ValueError) as info:
        serre_module_check(rs, 3)
    assert str(info.value) == message
    frames = [entry.name for entry in info.traceback]
    start = frames.index("_first_failure")
    assert frames[start:] == ["_first_failure", "_act", "_step"]


def test_check_and_normal_forms_share_one_action(monkeypatch):
    # serre_module_check runs on the system's cached action: a check and the
    # normal forms after it build one action, and the words the check
    # interned serve the normal form
    built = []
    init = _ModuleAction.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_ModuleAction, "__init__", counting)
    alg = build(3, 1)
    rs = RewriteSystem(alg.presentation)
    assert serre_module_check(rs, 4) == (True, None)
    action = rs._action
    assert built == [action]
    words = [()]  # by id: each word's tail was interned before it
    for head, tail in zip(action._head[1:], action._tail[1:]):
        words.append((head,) + words[tail])
    assert set(_ordered_words(rs, 4)) <= set(words)
    elem = NCPoly.monomial(alg.alphabet, (alg.resolve("E", [2, 1]), alg.resolve("E", [1, 2])))
    nf = rs.normal_form(elem)
    assert built == [action] and len(action._head) == len(words)  # no new word
    assert nf == RewriteSystem(alg.presentation).normal_form(elem)
    assert len(built) == 2
    # the action holds no reference back to its system, so dropping the
    # system frees both at once, without waiting for the cycle collector
    freed = weakref.ref(action)
    del action, built[:]
    gc.disable()
    try:
        del rs
        assert freed() is None
    finally:
        gc.enable()


def test_rewrite_system_refuses_past_relation_budget():
    # C(3000, 2) = 4,498,500 rules, refused before any is built
    with pytest.raises(ValueError, match="pairs"):
        RewriteSystem(QlsPresentation(3000, 0))


def test_serre_check_runs_every_out_of_order_pair(monkeypatch):
    # the relations handed to _first_failure: each nonempty ordered word N
    # by length, with those of the C(15, 2) + 6 out-of-order pairs (a, b)
    # of gl2(3/1), odd squares included, in row-major order, whose b N is
    # not ordered; the rest hold by construction
    # (test_skipped_relations_hold_by_construction)
    recorded = []
    first_failure = pbw._first_failure

    def recording(action, relations):
        recorded.append(list(relations))
        return first_failure(action, recorded[-1])

    monkeypatch.setattr(pbw, "_first_failure", recording)
    rs = build(3).rewrite
    pairs = _out_of_order_pairs(rs)
    assert len(pairs) == comb(rs.presentation.alphabet.size, 2) + 6
    for max_len in (3, 4):
        assert serre_module_check(rs, max_len) == (True, None)
        assert recorded.pop() == [(w, (a, b)) for w in _ordered_words(rs, max_len) if w
                                  for a, b in pairs if not rs._pair_is_ordered(b, w[0])]
    assert serre_module_check(rs) == (True, None)  # the default length, 3
    assert recorded.pop() == [(w, (a, b)) for w in _ordered_words(rs, 3) if w
                              for a, b in pairs if not rs._pair_is_ordered(b, w[0])]
