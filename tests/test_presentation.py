"""Structure-tensor presentations and the two Jacobi checkers."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadlie import presentation
from quadlie.exprparse import ParseError, parse_scalar
from quadlie.fock import lambda3_presentation
from quadlie.gl2n1 import build
from quadlie.ncpoly import AlphabetMismatch, NCPoly
from quadlie.pbw import GeneratorOrder, inadmissible_dependence_witness
from quadlie.presentation import (
    MAX_TRIPLES,
    BalancedData,
    QlsPresentation,
    build_from_casimirs,
)
from quadlie.scalars import Scalar, accumulate, lower, srat


def test_zero_tensors_pass_both_checkers():
    pres = QlsPresentation(2, 2)
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed


def test_symmetry_violations_rejected():
    with pytest.raises(ValueError):
        QlsPresentation(2, 0, c={(0, 1, 0): 1})  # missing antisymmetric mirror
    with pytest.raises(ValueError):
        QlsPresentation(1, 2, b={(0, 1, 0): 1})  # missing symmetric mirror
    with pytest.raises(ValueError):
        QlsPresentation(2, 2, d={(0, 1, 0, 1): 1, (1, 0, 0, 1): 1})


# each tensor's slots, n for an even index and m for an odd one, and its
# pairs (slot, slot, sign of the mirror entry), written out apart from the
# module's own table
_LAYOUT = {
    "c": ("nnn", [(0, 1, -1)]),
    "cbar": ("nmm", []),
    "d": ("mmnn", [(0, 1, 1), (2, 3, 1)]),
    "b": ("mmn", [(0, 1, 1)]),
    "a": ("mm", [(0, 1, 1)]),
}
_N, _M = 2, 3  # distinct, so that an even and an odd bound differ


@pytest.mark.parametrize("name", list(_LAYOUT))
def test_index_out_of_range_rejected(name):
    slots, _ = _LAYOUT[name]
    for slot, kind in enumerate(slots):
        for bad in (-1, _N if kind == "n" else _M):
            idx = [0] * len(slots)
            idx[slot] = bad
            with pytest.raises(ValueError, match=f"^{name} index .* out of range"):
                QlsPresentation(_N, _M, **{name: {tuple(idx): 1}})


@pytest.mark.parametrize("name", list(_LAYOUT))
def test_index_that_is_not_an_int_rejected(name):
    # a float or bool component would be written by dumps() and refused by
    # loads(), so it is refused where the tensor is made
    arity = len(_LAYOUT[name][0])
    for bad in (0.0, True):
        idx = (0, bad) + (0,) * (arity - 2)
        with pytest.raises(ValueError, match=rf"^{name} index \(0, {bad}[,)].* is not an integer"):
            QlsPresentation(_N, _M, **{name: {idx: 1}})
    pres = QlsPresentation(2, 1, cbar={(0, 0, 0): 1})
    assert QlsPresentation.loads(pres.dumps()) == pres


def test_a_str_entry_is_refused():
    # Fraction would parse "3"; entry text is read by loads(), not here
    with pytest.raises(TypeError):
        QlsPresentation(1, 2, a={(0, 1): "3", (1, 0): "3"})
    with pytest.raises(TypeError):
        QlsPresentation(2, 1, cbar={(0, 0, 0): "1/2"})


@pytest.mark.parametrize("name", list(_LAYOUT))
def test_index_of_the_wrong_arity_rejected(name):
    arity = len(_LAYOUT[name][0])
    for idx in ((0,) * (arity - 1), (0,) * (arity + 1)):
        with pytest.raises(ValueError) as info:
            QlsPresentation(_N, _M, **{name: {idx: 1}})
        assert str(info.value) == f"{name} index {idx} must have {arity} components"


def test_unknown_tensor_keyword_and_format_tag_rejected():
    with pytest.raises(TypeError) as info:
        QlsPresentation(_N, _M, e={(0, 0): 1}, cc={})
    assert str(info.value) == "unknown structure tensors ['cc', 'e']"
    doc = QlsPresentation(2, 1, cbar={(0, 0, 0): 1}).to_json_dict()
    for tag in ("qls-0", None):
        with pytest.raises(ValueError) as info:
            QlsPresentation.from_json_dict({**doc, "format": tag})
        assert str(info.value) == f"unrecognized presentation format {tag!r}"


def test_row_index_or_count_that_is_not_an_int_rejected():
    # loads refuses a row whose index holds a float, a bool or a string,
    # naming the row, before any entry is parsed; and such a generator count
    doc = QlsPresentation(2, 1, cbar={(0, 0, 0): 1}).to_json_dict()
    assert doc["cbar"] == [[0, 0, 0, "1"]]
    for bad in (0.0, True, "0"):
        doc["cbar"] = [[0, bad, 0, "1"]]
        with pytest.raises(ValueError) as info:
            QlsPresentation.from_json_dict(doc)
        assert str(info.value) == f"tensor index in row {doc['cbar'][0]} is not an integer"
    doc["cbar"] = [[0, 0, 0, "1"]]
    for bad in (1.0, True):
        with pytest.raises(ValueError, match=rf"^m_odd must be an integer, got {bad}$"):
            QlsPresentation.from_json_dict({**doc, "m_odd": bad})
    assert QlsPresentation.from_json_dict(doc).m_odd == 1


@pytest.mark.parametrize("name", [name for name in _LAYOUT if _LAYOUT[name][1]])
def test_missing_or_wrong_sign_mirror_rejected(name):
    slots, pairs = _LAYOUT[name]
    for s, t, sign in pairs:
        idx = [0] * len(slots)
        idx[t] = 1
        mirror = list(idx)
        mirror[s], mirror[t] = idx[t], idx[s]
        idx, mirror = tuple(idx), tuple(mirror)
        QlsPresentation(_N, _M, **{name: {idx: 1, mirror: sign}})
        for entries in ({idx: 1}, {idx: 1, mirror: -sign}):
            with pytest.raises(ValueError, match=f"^{name} not (anti)?symmetric"):
                QlsPresentation(_N, _M, **{name: entries})
        if sign < 0:  # an antisymmetric pair vanishes on its diagonal
            with pytest.raises(ValueError, match=f"^{name} not antisymmetric"):
                QlsPresentation(_N, _M, **{name: {(0,) * len(slots): 1}})


def test_one_entry_of_every_tensor_round_trips():
    u = Scalar.var("u")
    tensors = {
        "c": {(0, 1, 1): 1, (1, 0, 1): -1},
        "cbar": {(1, 2, 0): srat(7, 5)},
        "d": {key: u for key in ((0, 2, 0, 1), (2, 0, 0, 1), (0, 2, 1, 0), (2, 0, 1, 0))},
        "b": {(1, 1, 0): -3},
        "a": {(0, 1): srat(1, 2), (1, 0): srat(1, 2)},
    }
    pres = QlsPresentation(_N, _M, **tensors)
    text = pres.dumps()
    again = QlsPresentation.loads(text)
    assert again == pres and again.dumps() == text
    assert again.indeterminates == ("u",)
    doc = json.loads(text)
    for name, entries in tensors.items():
        assert getattr(again, name) == {k: Scalar.coerce(v) for k, v in entries.items()}
        assert doc[name] == [[*k, str(Scalar.coerce(entries[k]))] for k in sorted(entries)]
        # equality reads every tensor
        assert QlsPresentation(_N, _M, **{**tensors, name: {}}) != pres


def test_n2_family_degenerates_to_lie_superalgebra():
    pres = build(2).presentation
    assert not pres.d
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed


def test_central_charge_zero_lie_superalgebra_passes():
    # the n=2 member with zero charge: d and a both vanish identically
    pres = build(2, 0).presentation
    assert not pres.d and not pres.a
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed


def test_perturbed_d_entry_fails_both_checkers():
    pres = build(3).presentation
    d = dict(pres.d)
    for key in ((0, 1, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0)):
        d[key] = d.get(key, Scalar()) + 1
    bad = QlsPresentation(
        pres.n_even, pres.m_odd, c=pres.c, cbar=pres.cbar,
        d=d, b=pres.b, a=pres.a,
    )
    comp = bad.check_component_jacobi()
    abst = bad.check_abstract_jacobi()
    assert not comp.passed and comp.violations
    assert not abst.passed and abst.violations


@pytest.mark.parametrize("tensor, orbit, families", [
    ("d", (0, 3, 5, 7), ["J1", "J2"]),
    ("b", (0, 3, 4), ["J2"]),
    ("a", (0, 3), ["J3"]),
])
def test_orbit_shift_lands_in_its_abstract_family(tensor, orbit, families):
    """On gl2(3/1) a shifted d-orbit shows in J1, a b-orbit only in J2 and
    an a-orbit only in J3, and in the component family even-odd-odd-a."""
    pres = build(3).presentation
    fields = {name: getattr(pres, name) for name in ("c", "cbar", "d", "b", "a")}
    shifted = dict(fields[tensor])
    p, q, *rest = orbit
    for idx in {(p, q, *rest), (q, p, *rest), (p, q, *rest[::-1]), (q, p, *rest[::-1])}:
        shifted[idx] = shifted.get(idx, Scalar()) + 1
    fields[tensor] = shifted
    bad = QlsPresentation(pres.n_even, pres.m_odd, **fields)
    assert sorted({v.family for v in bad.check_abstract_jacobi().violations}) == families
    component = {v.family for v in bad.check_component_jacobi().violations}
    assert component and (tensor != "a" or component == {"even-odd-odd-a"})


def _random_presentation(rng: random.Random) -> QlsPresentation:
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)

    def val():
        return rng.choice([-2, -1, 1, 2])

    c, cbar, d, b, a = {}, {}, {}, {}, {}
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        k, v = rng.randrange(n), val()
        c[(i, j, k)] = c.get((i, j, k), 0) + v
        c[(j, i, k)] = c.get((j, i, k), 0) - v
    for _ in range(rng.randint(0, 4)):
        cbar[(rng.randrange(n), rng.randrange(m), rng.randrange(m))] = val()
    for _ in range(rng.randint(0, 3)):
        p, q = sorted((rng.randrange(m), rng.randrange(m)))
        k, l = sorted((rng.randrange(n), rng.randrange(n)))
        v = val()
        for key in ((p, q, k, l), (q, p, k, l), (p, q, l, k), (q, p, l, k)):
            d[key] = v
    for _ in range(rng.randint(0, 3)):
        p, q = sorted((rng.randrange(m), rng.randrange(m)))
        k, v = rng.randrange(n), val()
        b[(p, q, k)] = b[(q, p, k)] = v
    for _ in range(rng.randint(0, 2)):
        p, q = sorted((rng.randrange(m), rng.randrange(m)))
        v = val()
        a[(p, q)] = a[(q, p)] = v
    return QlsPresentation(n, m, c=c, cbar=cbar, d=d, b=b, a=a)


def _verdicts_agree(pres: QlsPresentation) -> bool:
    return pres.check_component_jacobi().passed == pres.check_abstract_jacobi().passed


def test_checker_equivalence_on_random_presentations():
    rng = random.Random(20260826)
    seen_fail = 0
    for _ in range(50):
        pres = _random_presentation(rng)
        assert _verdicts_agree(pres)
        if not pres.check_component_jacobi().passed:
            seen_fail += 1
    assert seen_fail >= 10  # the sweep must actually exercise failures
    # and known-consistent presentations agree on the passing side
    for pres in (QlsPresentation(2, 2), build(2).presentation,
                 build(3).presentation):
        assert _verdicts_agree(pres)
        assert pres.check_component_jacobi().passed


def _sample_presentations():
    """gl2(n/1) for n = 2, 3, 4 (symbolic and c = 5/3), the Fock Lambda^3
    presentation and 50 seeded random presentations."""
    samples = [build(n, c).presentation
               for n in (2, 3, 4) for c in (None, Fraction(5, 3))]
    samples.append(lambda3_presentation())
    rng = random.Random(20261017)
    samples += [_random_presentation(rng) for _ in range(50)]
    return samples


def _e2(pres: QlsPresentation, g1: int, g2: int) -> NCPoly:
    """Quadratic part of the ideal generator e(g1, g2), read straight off
    the structure tensors: g1 g2 - (-1)^{|g1||g2|} g2 g1 minus the d-part
    of an odd pair."""
    n = pres.n_even
    terms = {}
    accumulate(terms, (g1, g2), srat(1))
    accumulate(terms, (g2, g1), srat(1 if g1 >= n and g2 >= n else -1))
    for (p, q, k, l), v in pres.d.items():
        if (n + p, n + q) == (g1, g2):
            accumulate(terms, (k, l), -v)
    return NCPoly(pres.alphabet, terms)


def _unscaled_ring(pres: QlsPresentation):
    """The presentation's unscaled ring, `_plain`, where a test stands it
    in for `_ring`."""
    return pres._plain


def _terms(ring, pair, length):
    """The (word, coeff) terms of a pair in ring.table whose words have
    the given length."""
    return [(w, v) for w, v in ring.table.get(pair, ()) if len(w) == length]


def _overlap_reference(pres: QlsPresentation, ring):
    """Yield (indices, zL, zR) for the triples of `_overlap_elements`, in
    its order: zL lists (g, pair, coeff) for coeff . g e2(pair) and zR
    (pair, g, coeff) for coeff . e2(pair) g, unmerged and with zeros kept,
    the two expanding to the same degree-3 element of the free algebra.
    The element of (a, b, c) is the graded-cyclic sum of u e(v, w) on the
    left and of e(u, v) w on the right, plus the terms that carry the
    d-part of an odd pair (v, w) past u, with the d-part the two-letter
    words of ring.table."""
    n, size = pres.n_even, pres.alphabet.size
    evens, odds = range(n), range(n, size)
    triples = chain(
        combinations(evens, 3),
        ((i, j, y) for i, j in combinations(evens, 2) for y in odds),
        ((i, y1, y2) for y1, y2 in combinations_with_replacement(odds, 2)
         for i in evens),
        combinations_with_replacement(odds, 3),
    )
    for a, b, c in triples:
        zL, zR = [], []
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            # graded Jacobi sign (-1)^{|u||w|}, normalized to +1 on (a, b, c)
            s = -1 if (u >= n and w >= n) != (a >= n and c >= n) else 1
            zL.append((u, (v, w), s))
            zR.append(((u, v), w, s))
            # u d-part(v, w) - d-part(v, w) u, rewritten as
            # k e2(u, l) + e2(u, k) l for each d-word k l
            for (k, l), val in _terms(ring, (v, w), 2):
                zL.append((k, (u, l), s * val))
                zR.append(((u, k), l, -(s * val)))
        yield (a, b, c), zL, zR


def _expand(pres: QlsPresentation, e2, z: list, left: bool) -> NCPoly:
    """sum coeff . g e2(pair) over a zL list of (g, pair, coeff), or
    coeff . e2(pair) g over a zR list of (pair, g, coeff), each product
    multiplied out in NCPoly; e2 maps a pair to its `_e2`, memoized by the
    caller."""
    terms = {}
    for first, second, coeff in z:
        g, pair = (first, second) if left else (second, first)
        gen = NCPoly.generator(pres.alphabet, g)
        prod = gen * e2(*pair) if left else e2(*pair) * gen
        for w, v in prod.terms.items():
            accumulate(terms, w, coeff * v)
    return NCPoly(pres.alphabet, terms)


def _overlap_span_rank(pres: QlsPresentation) -> int:
    rows = []
    e2 = functools.cache(functools.partial(_e2, pres))
    for _, zL, _ in _overlap_reference(pres, _unscaled_ring(pres)):
        poly = _expand(pres, e2, zL, left=True)
        rows.append({w: Fraction(v) for w, v in poly.terms.items()})
    return rank_of_rows(rows)


def test_overlap_elements_agree_on_both_sides():
    for pres in _sample_presentations() + [_odd_square_presentation()]:
        e2 = functools.cache(functools.partial(_e2, pres))
        for indices, zL, zR in _overlap_reference(pres, _unscaled_ring(pres)):
            left = _expand(pres, e2, zL, left=True)
            right = _expand(pres, e2, zR, left=False)
            assert left == right, (indices, (left - right).render())


def test_overlap_substitution_matches_reference():
    # deg2 is zR - zL with the one-letter terms of each bracket substituted
    # for its e2: (x, g) from ((g1, g2), g), (g, x) from (g, (g1, g2)); a
    # deg2 key is the int g * size + h of the word g h
    for pres in _sample_presentations() + [_odd_square_presentation()]:
        ring, size = _unscaled_ring(pres), pres.alphabet.size
        got = list(pres._overlap_elements(ring))
        want = list(_overlap_reference(pres, ring))
        assert len(got) == len(want)
        for (indices, deg2), (ref_indices, zL, zR) in zip(got, want):
            assert indices == ref_indices
            ref = {}
            for pair, g, coeff in zR:
                for (x,), v in _terms(ring, pair, 1):
                    accumulate(ref, (x, g), coeff * v)
            for g, pair, coeff in zL:
                for (x,), v in _terms(ring, pair, 1):
                    accumulate(ref, (g, x), -(coeff * v))
            assert {divmod(w, size): v for w, v in deg2.items() if v} == ref, indices


def _clean(row):
    return {k: v for k, v in row.items() if v != 0}


class RowSpace:
    """Incrementally built row space of sparse dict rows, column key ->
    Fraction; supports rank queries."""

    def __init__(self):
        # pivot column -> reduced row with 1 at that column
        self.pivots = {}

    def reduce(self, row):
        row = dict(row)
        for col in list(row):
            if row.get(col, 0) == 0:
                continue
            piv = self.pivots.get(col)
            if piv is not None:
                factor = row[col]
                for c2, v2 in piv.items():
                    row[c2] = row.get(c2, Fraction(0)) - factor * v2
        return _clean(row)

    def add(self, row) -> bool:
        """Insert a row; returns True if it increased the rank."""
        red = self.reduce(row)
        if not red:
            return False
        # pick a deterministic pivot column
        col = min(red, key=repr)
        inv = Fraction(1) / red[col]
        red = {c: v * inv for c, v in red.items()}
        # back-substitute into existing pivot rows
        for pcol, prow in self.pivots.items():
            if col in prow:
                factor = prow[col]
                for c2, v2 in red.items():
                    prow[c2] = prow.get(c2, Fraction(0)) - factor * v2
                self.pivots[pcol] = _clean(prow)
        self.pivots[col] = red
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank_of_rows(rows) -> int:
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space.rank


def intersection_dimension(rows_a, rows_b) -> int:
    """dim(span A  ∩  span B) = rank A + rank B - rank (A ∪ B)."""
    ra = rank_of_rows(rows_a)
    rb = rank_of_rows(rows_b)
    rab = rank_of_rows(list(rows_a) + list(rows_b))
    return ra + rb - rab


def _brute_force_intersection_dim(pres: QlsPresentation) -> int:
    ab = pres.alphabet
    rows_a, rows_b = [], []
    for g in range(ab.size):
        gen = NCPoly.generator(ab, g)
        for g1 in range(ab.size):
            for g2 in range(g1, ab.size):
                e2 = _e2(pres, g1, g2)
                left = gen * e2
                right = e2 * gen
                rows_a.append({w: Fraction(v) for w, v in left.terms.items()})
                rows_b.append({w: Fraction(v) for w, v in right.terms.items()})
    return intersection_dimension(rows_b, rows_a)


def test_overlap_span_matches_brute_force_intersection():
    rng = random.Random(7)
    samples = [build(2, 1).presentation]
    for _ in range(6):
        pres = _random_presentation(rng)
        if pres.n_even + pres.m_odd <= 4:
            samples.append(pres)
    for pres in samples:
        assert _overlap_span_rank(pres) == _brute_force_intersection_dim(pres)


def alpha_beta(pres, poly):
    """Bracket value of an element of the quadratic ideal span, as
    (degree-1 part, scalar part).

    Raises ValueError when the degree-2 input is not in the span.
    """
    residual, lam = pres.normalize2(poly)
    if not residual.is_zero():
        raise ValueError(
            f"element is not in the quadratic ideal: residual {residual.render()}"
        )
    out = {}  # sum lam[(g1, g2)] * (degree <= 1 part of bracket(g1, g2))
    for (g1, g2), coeff in lam.items():
        for w, v in pres.bracket(g1, g2).items():
            if len(w) < 2:
                accumulate(out, w, coeff * v)
    scalar = out.pop((), Scalar())
    return NCPoly(pres.alphabet, out), scalar


def test_alpha_of_even_commutator_is_c_contraction():
    pres = build(3).presentation
    ab = pres.alphabet
    for (i, j, k), v in list(pres.c.items())[:10]:
        elem = NCPoly(ab, {(i, j): srat(1), (j, i): srat(-1)})
        out, scalar = alpha_beta(pres, elem)
        expected = NCPoly.zero(ab)
        for (i2, j2, k2), v2 in pres.c.items():
            if (i2, j2) == (i, j):
                expected = expected + NCPoly.generator(ab, k2).scale(v2)
        assert out == expected
        assert scalar.is_zero()


def test_beta_of_odd_ideal_generator_is_a():
    pres = build(2).presentation
    ab = pres.alphabet
    n = pres.n_even
    for (p, q), aval in pres.a.items():
        terms = {(n + p, n + q): srat(1)}
        key = (n + q, n + p)
        terms[key] = terms.get(key, Scalar()) + 1
        elem = NCPoly(ab, terms)
        for (p2, q2, k, l), v in pres.d.items():
            if (p2, q2) == (p, q):
                elem = elem - NCPoly(ab, {(k, l): v})
        out, scalar = alpha_beta(pres, elem)
        assert scalar == aval
        bpart = NCPoly.zero(ab)
        for (p2, q2, k), v in pres.b.items():
            if (p2, q2) == (p, q):
                bpart = bpart + NCPoly.generator(ab, k).scale(v)
        assert out == bpart


def test_alpha_beta_rejects_non_ideal_elements():
    pres = build(2).presentation
    ab = pres.alphabet
    with pytest.raises(ValueError):
        alpha_beta(pres, NCPoly(ab, {(0, 1): srat(1)}))


def test_serialization_round_trip():
    pres = build(3).presentation
    again = QlsPresentation.loads(pres.dumps())
    assert again == pres
    assert again.dumps() == pres.dumps()


def test_repeated_generator_name_rejected():
    doc = build(2, 1).presentation.to_json_dict()
    doc["names"][1] = doc["names"][0]
    with pytest.raises(ValueError, match="distinct"):
        QlsPresentation.from_json_dict(doc)


@functools.cache
def _gl2_2_1_dumps() -> str:
    """gl2(2/1)'s document, built on first use in a test, not at import."""
    return build(2, 1).presentation.dumps()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _value_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _value_paths(value, prefix + (key,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_loader_raises_only_value_errors(data):
    doc = json.loads(_gl2_2_1_dumps())
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    value = data.draw(_json_values)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        QlsPresentation.from_json_dict(doc)
    except ValueError:  # ParseError is a ValueError
        pass


# -- Casimir construction -------------------------------------------------


def _gl2n1_balanced(n: int):
    """pi from the family's cbar with the antisymmetric block pairing."""
    pres = build(n).presentation
    m = pres.m_odd
    pi = {key: -v for key, v in pres.cbar.items()}
    omega = [[Fraction(0)] * m for _ in range(m)]
    for t in range(n):
        omega[t][n + t] = Fraction(1)
        omega[n + t][t] = Fraction(-1)
    return pres, BalancedData(pi, omega)


def _gl_trace_tensors(n: int):
    def eid(i, j):
        return n * (i - 1) + (j - 1)

    tr2, trtr = {}, {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for key in ((eid(i, j), eid(j, i)), (eid(j, i), eid(i, j))):
                tr2[key] = tr2.get(key, Fraction(0)) + Fraction(1, 2)
            trtr[(eid(i, i), eid(j, j))] = Fraction(1)
    return tr2, trtr


def _gl_cubic_bases(n: int):
    """Invariant 3-tensor basis, symmetric in the last two slots:
    tr(EEE), tr(EE)tr(E), tr(E)tr(EE), tr(E)^3."""
    def eid(i, j):
        return n * (i - 1) + (j - 1)

    bases = [{}, {}, {}, {}]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for key in ((eid(i, j), eid(j, k), eid(k, i)),
                            (eid(i, j), eid(k, i), eid(j, k))):
                    bases[0][key] = bases[0].get(key, Fraction(0)) + Fraction(1, 2)
                for key in ((eid(i, j), eid(j, i), eid(k, k)),
                            (eid(i, j), eid(k, k), eid(j, i))):
                    bases[1][key] = bases[1].get(key, Fraction(0)) + 1
                bases[2][(eid(k, k), eid(i, j), eid(j, i))] = Fraction(1)
                bases[3][(eid(i, i), eid(j, j), eid(k, k))] = Fraction(1)
    return bases


def _combination(tensors, coefficients):
    """The nonzero entries of sum_t coefficients[t] * tensors[t]."""
    out = {}
    for tensor, lam in zip(tensors, coefficients):
        for key, v in tensor.items():
            out[key] = out.get(key, Fraction(0)) + lam * v
    return {k: v for k, v in out.items() if v}


def test_zero_cubic_invariant_gives_zero_d():
    pres, bal = _gl2n1_balanced(3)
    tr2, _ = _gl_trace_tensors(3)
    b, d = build_from_casimirs(tr2, {}, bal)
    assert d == {}
    assert b


def test_family_b_tensor_reproduced_from_quadratic_invariants():
    # frozen oracle: with the antisymmetric pairing (+1 upper, -1 lower),
    # the linear odd-odd tensor is exactly -n/2 tr(E^2) + n/2 tr(E)^2 and
    # the quadratic one -tr(E^3) + 1/2 tr(E^2)tr(E) + 1/2 tr(E)tr(E^2)
    # - 1/2 tr(E)^3 (the first slot the one pi acts by), for n = 2..5
    for n in range(2, 6):
        pres, bal = _gl2n1_balanced(n)
        c2 = _combination(_gl_trace_tensors(n), (Fraction(-n, 2), Fraction(n, 2)))
        c3 = _combination(_gl_cubic_bases(n), (Fraction(-1), Fraction(1, 2),
                                               Fraction(1, 2), Fraction(-1, 2)))
        b, d = build_from_casimirs(c2, c3, bal)
        assert b == pres.b
        assert d == pres.d


def test_sl2_doublet_with_epsilon_pairing():
    # sl(2) basis (J+, J-, J3); odd doublet with the antisymmetric pairing;
    # quadratic Casimir J+J- + J-J+ + 2 J3^2 yields a full Lie superalgebra
    c = {
        (0, 1, 2): srat(2), (1, 0, 2): srat(-2),   # [J+, J-] = 2 J3
        (2, 0, 0): srat(1), (0, 2, 0): srat(-1),   # [J3, J+] = J+
        (2, 1, 1): srat(-1), (1, 2, 1): srat(1),   # [J3, J-] = -J-
    }
    pi = {
        (0, 0, 1): srat(1),                        # J+
        (1, 1, 0): srat(1),                        # J-
        (2, 0, 0): srat(1, 2), (2, 1, 1): srat(-1, 2),  # J3
    }
    omega = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    bal = BalancedData(pi, omega)
    c2 = {(0, 1): Fraction(1), (1, 0): Fraction(1), (2, 2): Fraction(2)}
    b, d = build_from_casimirs(c2, {}, bal)
    assert d == {} and b
    cbar = {key: -v for key, v in pi.items()}
    pres = QlsPresentation(3, 2, c=c, cbar=cbar, b=b)
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed


GOVERNED = ("even-odd-odd-d", "even-odd-odd-b")


def test_random_invariants_satisfy_governed_families():
    rng = random.Random(11)
    for n in (2, 3):
        pres, bal = _gl2n1_balanced(n)
        quadratic = _gl_trace_tensors(n)
        bases = _gl_cubic_bases(n)
        for _ in range(4):
            c2 = _combination(quadratic, [Fraction(rng.randint(-3, 3)) for _ in quadratic])
            c3 = _combination(bases, [Fraction(rng.randint(-3, 3)) for _ in bases])
            b, d = build_from_casimirs(c2, c3, bal)
            cand = QlsPresentation(
                pres.n_even, pres.m_odd, c=pres.c, cbar=pres.cbar, d=d, b=b,
            )
            report = cand.check_component_jacobi()
            assert not [v for v in report.violations if v.family in GOVERNED]


def _gl2n1_pi(n: int):
    return {key: -v for key, v in build(n).presentation.cbar.items()}


def test_balanced_data_rejects_non_intertwining_pairing():
    m = 6
    omega = [[Fraction(1) if r == s else Fraction(0) for s in range(m)]
             for r in range(m)]
    with pytest.raises(ValueError, match=r"violation at \(0, 0, 0\)$"):
        BalancedData(_gl2n1_pi(3), omega)


def test_balanced_data_rejects_singular_pairing():
    omega = [[Fraction(0)] * 6 for _ in range(6)]
    omega[0][3] = omega[3][0] = Fraction(1)
    with pytest.raises(ValueError, match="singular"):
        BalancedData(_gl2n1_pi(3), omega)


def test_balanced_data_rejects_pi_index_outside_pairing():
    omega = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    for key in ((0, 0, 2), (0, 2, 0), (0, -1, 1)):
        with pytest.raises(ValueError, match="outside"):
            BalancedData({key: Fraction(1)}, omega)


# -- the checkers' ring ---------------------------------------------------

_TENSORS = ("c", "cbar", "d", "b", "a")


def _orbit_shifted(pres, name, index, shift=srat(1, 3)):
    """Copy of pres with the symmetric orbit of one d-, b- or a-index
    shifted by shift."""
    tensor = dict(getattr(pres, name))
    p, q, *rest = index
    orbit = {(p, q, *rest), (q, p, *rest)}
    if name == "d":
        k, l = rest
        orbit |= {(p, q, l, k), (q, p, l, k)}
    for idx in orbit:
        tensor[idx] = tensor.get(idx, Scalar()) + shift
    fields = {t: getattr(pres, t) for t in _TENSORS}
    fields[name] = tensor
    return QlsPresentation(pres.n_even, pres.m_odd, **fields)


def _scaled_down(pres, den):
    """Copy of pres with d, b and a divided by den."""
    fields = {t: getattr(pres, t) for t in _TENSORS}
    for t in ("d", "b", "a"):
        fields[t] = {k: v / den for k, v in fields[t].items()}
    return QlsPresentation(pres.n_even, pres.m_odd, **fields)


def _reports(pres):
    return [(rep.method, rep.violations, rep.checked)
            for rep in (pres.check_component_jacobi(), pres.check_abstract_jacobi())]


def _assert_rings_agree(pres, monkeypatch):
    """Both checkers give the same reports as on the Scalar ring."""
    assert type(pres._ring.scale) is int
    got = _reports(pres)
    with monkeypatch.context() as mp:
        mp.setattr(QlsPresentation, "_ring", property(_unscaled_ring))
        want = _reports(pres)
    assert got == want
    for _, violations, _ in got:
        assert all(type(v.residual) is Scalar for v in violations)
    return got


def _odd_square_presentation():
    """n = 1, m = 2 with cbar_{0 0}^{1} = 1: the overlap of (x, y0, y1)
    holds 2 y1 y1, which normalize2 halves to the odd value 1 before it
    multiplies the d-part of {y1, y1}; d and b are off by 1/3, and the
    odd square halves d to 1/6 and a to 5/2 (D = 6)."""
    return QlsPresentation(
        1, 2, cbar={(0, 0, 1): 1, (0, 1, 1): 2},
        d={(1, 1, 0, 0): srat(1, 3)}, b={(0, 1, 0): srat(2, 3), (1, 0, 0): srat(2, 3)},
        a={(1, 1): 5})


# SHA-256 of every violation (family, indices, str(residual), detail) that
# the loop below finds outside family even-odd-odd-a, recorded from the
# checkers before the odd rescaling moved into `odd_rescale`; and of those
# in even-odd-odd-a, recorded when the family was added
_RANDOM_VIOLATIONS_SHA256 = "25f48c14bf44461ea32d5828455dbefbf0e5efc403a18e0651583b51c20e9cf0"
_RANDOM_A_VIOLATIONS_SHA256 = "7a30922616f204e42e8e59b7fdeacbc20f5e22f5ee5bda74f6b973dc583492ab"


def test_rings_agree_on_random_presentations(monkeypatch):
    rng = random.Random(20261018)
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    for _ in range(300):
        pres = _random_presentation(rng)
        for case in (pres, _scaled_down(pres, 6)):
            for _, violations, _ in _assert_rings_agree(case, monkeypatch):
                for v in violations:
                    digests[v.family == "even-odd-odd-a"].update(repr((
                        v.family, v.indices, str(v.residual), v.detail)).encode())
    assert digests[False].hexdigest() == _RANDOM_VIOLATIONS_SHA256
    assert digests[True].hexdigest() == _RANDOM_A_VIOLATIONS_SHA256


def _abstract_pin_cases():
    """gl2(n/1) for n = 2..5 (symbolic and c = 5/3), Lambda^3, one d-, b-
    and a-orbit shift of symbolic gl2(3/1) and gl2(4/1), and the odd-square
    and half-c presentations."""
    cases = [build(n, c).presentation
             for n in range(2, 6) for c in (None, Fraction(5, 3))]
    cases.append(lambda3_presentation())
    for n in (3, 4):
        pres = build(n).presentation
        cases += [_orbit_shifted(pres, name, sorted(getattr(pres, name))[0])
                  for name in ("d", "b", "a")]
    return cases + [_odd_square_presentation(), _half_c_presentation()]


# SHA-256 of every abstract violation (family, indices, str(residual),
# detail) and of each `checked` dict over `_abstract_pin_cases`, recorded
# while the overlap elements were still dicts built with `accumulate`
_ABSTRACT_REPORTS_SHA256 = "11f78ebf33e7427ac833f7d33ccfc23119d6b72eede3657e6ea5e5d006878d4c"


# the same digest of every component report, recorded while the checker
# still filled every residual key and dropped the non-canonical ones after
_COMPONENT_REPORTS_SHA256 = "7a56fd0f5f86765282313d709f74124bca9e4890ec223a074d145302ffc6e0fa"


def _reports_digest(check, cases) -> str:
    digest = hashlib.sha256()
    for pres in cases:
        report = check(pres)
        for v in report.violations:
            digest.update(repr((v.family, v.indices, str(v.residual), v.detail)).encode())
        digest.update(repr(sorted(report.checked.items())).encode())
    return digest.hexdigest()


def test_abstract_reports_are_pinned():
    assert _reports_digest(QlsPresentation.check_abstract_jacobi,
                           _abstract_pin_cases()) == _ABSTRACT_REPORTS_SHA256


# the same digest over symbolic gl2(6/1) and a copy with one d-orbit shifted:
# 48 generators, past the 35 of `_abstract_pin_cases`' widest, so a fault in
# the checker's int word keys shows at a larger alphabet too; recorded from
# the checker while it still keyed words by tuples, before the int keys
_WIDE_ABSTRACT_REPORTS_SHA256 = "648d70ce16288536752826de10b2d718f2ad07543c5b75c246d3f0d04cc95c74"


def test_abstract_reports_past_35_generators_are_pinned():
    pres = build(6).presentation
    assert (pres.alphabet.size, pres.check_triple_budget()) == (48, 17872)
    cases = [pres, _orbit_shifted(pres, "d", sorted(pres.d)[0])]
    assert _reports_digest(QlsPresentation.check_abstract_jacobi,
                           cases) == _WIDE_ABSTRACT_REPORTS_SHA256


def test_component_reports_are_pinned():
    assert _reports_digest(QlsPresentation.check_component_jacobi,
                           _abstract_pin_cases()) == _COMPONENT_REPORTS_SHA256


def test_each_distinct_entry_text_is_parsed_once(monkeypatch):
    texts = []

    def counting(text, *args):
        texts.append(text)
        return parse_scalar(text, *args)

    monkeypatch.setattr(presentation, "parse_scalar", counting)
    for pres in _abstract_pin_cases():
        doc = pres.to_json_dict()
        distinct = {row[-1] for name in presentation.TENSORS for row in doc[name]}
        texts.clear()
        assert QlsPresentation.loads(pres.dumps()) == pres
        assert sorted(texts) == sorted(distinct)


def test_entries_may_name_only_the_declared_indeterminates():
    pres = build(2).presentation  # symbolic c, declared as ["c"]
    doc = pres.to_json_dict()
    assert doc["indeterminates"] == ["c"]
    assert QlsPresentation.from_json_dict(doc) == pres
    for row in doc["a"]:  # every a entry alike keeps a symmetric
        row[-1] = "c + u"
    assert doc["a"][0][:-1] == [0, 2]  # the first entry read names the row
    with pytest.raises(ParseError) as info:
        QlsPresentation.from_json_dict(doc)
    assert str(info.value) == "a entry [0, 2]: unknown name u"
    doc["indeterminates"] = ["c", "u"]
    assert QlsPresentation.from_json_dict(doc).indeterminates == ("c", "u")
    del doc["indeterminates"]  # an absent list declares none
    with pytest.raises(ParseError) as info:
        QlsPresentation.from_json_dict(doc)
    assert str(info.value) == "a entry [0, 2]: unknown name c"


def test_bad_entry_repeated_raises_the_parser_message():
    # the text is parsed once, so the message names the first row holding it
    doc = build(2, 1).presentation.to_json_dict()
    assert [row[:-1] for row in doc["c"][:2]] == [[0, 1, 1], [0, 2, 2]]
    doc["c"][0][-1] = doc["c"][1][-1] = "1/0"
    with pytest.raises(ParseError) as info:
        QlsPresentation.from_json_dict(doc)
    assert str(info.value) == "c entry [0, 1, 1]: division by zero"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("c", [None, Fraction(7, 5)], ids=["c=symbolic", "c=7/5"])
def test_rings_agree_on_orbit_shifted_gl2n1(monkeypatch, n, c):
    pres = build(n, c).presentation
    for name in ("d", "b", "a"):
        shifted = _orbit_shifted(pres, name, sorted(getattr(pres, name))[0])
        reports = _assert_rings_agree(shifted, monkeypatch)
        assert reports[1][1]  # the abstract checker sees every shift


def test_rings_agree_on_lambda3(monkeypatch):
    pres = lambda3_presentation()
    assert pres._ring.scale == 4
    _assert_rings_agree(pres, monkeypatch)
    _assert_rings_agree(_orbit_shifted(pres, "d", sorted(pres.d)[0], srat(1, 2)),
                        monkeypatch)


def test_half_in_c_keeps_scalar_and_indeterminate_in_d_does_not(monkeypatch):
    u = Scalar.var("u")
    in_d = QlsPresentation(1, 1, cbar={(0, 0, 0): 1}, d={(0, 0, 0, 0): u})
    assert _assert_rings_agree(in_d, monkeypatch)[1][1]
    assert in_d._ring.scale == 1 and in_d._ring.cbar == {(0, 0, 0): 1}
    assert in_d._ring.d == {(0, 0, 0, 0): u}
    half_c = _half_c_presentation()
    reports = _assert_rings_agree(half_c, monkeypatch)
    assert reports[0][1] and reports[1][1]
    # the halves stay Scalars beside the ints of the same ring
    # (b_00^1 = 3 on the odd square halves to 3/2, so D = 2)
    assert half_c._ring.scale == 2 and half_c._ring.c == half_c.c
    assert all(type(v) is Scalar for v in half_c._ring.c.values())
    assert half_c._ring.cbar == {(0, 0, 0): 1} and half_c._ring.b == {(0, 0, 1): 12}


def _half_c_presentation():
    """[x1, x2] = x1 / 2: a plain-rational c entry no odd scale clears."""
    return QlsPresentation(
        2, 1, c={(0, 1, 0): srat(1, 2), (1, 0, 0): srat(-1, 2)},
        cbar={(0, 0, 0): 1}, b={(0, 0, 1): 3})


def _c_plus_u(pres):
    """The gl2(n/1) family with c replaced by c + u: two indeterminates."""
    shift = {"c": Scalar.var("c") + Scalar.var("u")}
    fields = {t: {i: Scalar.coerce(v).substitute(shift)
                  for i, v in getattr(pres, t).items()} for t in _TENSORS}
    return QlsPresentation(pres.n_even, pres.m_odd, **fields)


def _u_shifted(pres, name, index, u=Scalar.var("u")):
    """Copy of pres with u, by default an indeterminate, added at one
    entry: a c entry and its antisymmetric partner, a cbar entry, or the
    symmetric orbit of a d, b or a entry."""
    if name not in ("c", "cbar"):
        return _orbit_shifted(pres, name, index, u)
    tensor = dict(getattr(pres, name))
    tensor[index] = tensor.get(index, Scalar()) + u
    if name == "c":
        i, j, k = index
        tensor[(j, i, k)] = tensor.get((j, i, k), Scalar()) - u
    fields = {t: getattr(pres, t) for t in _TENSORS}
    fields[name] = tensor
    return QlsPresentation(pres.n_even, pres.m_odd, **fields)


def _halved_c_cbar(pres):
    """Copy of pres with c and cbar divided by 2; every family and overlap
    residual is homogeneous in (c, cbar), so each Jacobi verdict stays."""
    fields = {t: getattr(pres, t) for t in _TENSORS}
    for t in ("c", "cbar"):
        fields[t] = {k: v / 2 for k, v in fields[t].items()}
    return QlsPresentation(pres.n_even, pres.m_odd, **fields)


def _mixed_ring_cases():
    """Presentations whose odd-rescaled tables hold ints and Scalars: u in
    an even-even c entry, in cbar or in d of symbolic gl2(3/1), 1/2 added
    to a cbar entry of it, c + u in a (two indeterminates), u at a random
    entry of seeded random presentations with d, b and a divided by 6, and
    the first ten seeded random presentations that, with d, b and a
    divided by 6 and c and cbar halved, keep a non-integral c or cbar
    entry."""
    pres = build(3).presentation
    cases = [_u_shifted(pres, "c", (0, 1, 1)),
             _u_shifted(pres, "cbar", sorted(pres.cbar)[0]),
             _u_shifted(pres, "d", sorted(pres.d)[0]),
             _u_shifted(pres, "cbar", sorted(pres.cbar)[0], srat(1, 2))]
    pres2 = _c_plus_u(build(2).presentation)
    cases += [pres2, _orbit_shifted(pres2, "a", sorted(pres2.a)[0], Scalar.var("c")),
              _c_plus_u(build(3).presentation)]
    rng = random.Random(20261020)
    for _ in range(30):
        pres = _scaled_down(_random_presentation(rng), 6)
        n, m = pres.n_even, pres.m_odd
        p, q = rng.randrange(m), rng.randrange(m)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        index = {"c": (i, j, rng.randrange(n)), "cbar": (i, p, q),
                 "d": (p, q, rng.randrange(n), rng.randrange(n)), "a": (p, q)}
        name = rng.choice(["cbar", "d", "a"] + (["c"] if n > 1 else []))
        cases.append(_u_shifted(pres, name, index[name]))
    rng = random.Random(20261022)
    halved = []
    while len(halved) < 10:
        pres = _halved_c_cbar(_scaled_down(_random_presentation(rng), 6))
        if any(v.as_rational().denominator > 1
               for t in (pres.c, pres.cbar) for v in t.values()):
            halved.append(pres)
    return cases + halved


def test_mixed_rings_agree_with_scalar_ring(monkeypatch):
    verdicts = []
    for pres in _mixed_ring_cases():
        ring = pres._ring
        held = [v for t in (ring.c, ring.cbar, ring.d, ring.b) for v in t.values()]
        held += list(ring.a.values())
        assert any(isinstance(v, Scalar) for v in held)
        reports = _assert_rings_agree(pres, monkeypatch)
        verdicts.append(not reports[0][1] and not reports[1][1])
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_ring_table_is_the_bracket_table_scaled_entry_by_entry():
    # the scaling lemma in table form, its exponent counted on the pair and
    # the word, not on tensor kinds: the ring's entry at word w of the pair
    # g1 g2 is bracket(g1, g2)[w] * D^(o(g1 g2) - o(w)), an int exactly
    # where that value is integral
    for pres in _sample_presentations() + _mixed_ring_cases():
        ring, n, size = pres._ring, pres.n_even, pres.alphabet.size
        assert set(ring.table) <= {(g1, g2) for g1 in range(size) for g2 in range(size)}
        for g1 in range(size):
            for g2 in range(size):
                terms = ring.table.get((g1, g2), [])
                got = dict(terms)
                assert len(got) == len(terms)
                want = pres.bracket(g1, g2)
                assert got.keys() == want.keys(), (g1, g2)
                for w, v in want.items():
                    odd = (g1 >= n) + (g2 >= n) - sum(g >= n for g in w)
                    value = v * ring.scale ** odd
                    if value.is_rational() and value.as_rational().denominator == 1:
                        assert type(got[w]) is int
                        assert got[w] == value.as_rational().numerator
                    else:
                        assert type(got[w]) is Scalar and got[w] == value


def test_normalize2_and_bracket_refuse_foreign_input():
    # a gl2(2/1) element is not read as gl2(3/1) generators, nor is a
    # gl2(4/1) one an IndexError; an id outside the alphabet, or not an
    # int, has no bracket
    pres = build(3).presentation
    for other in (build(2), build(4)):
        with pytest.raises(AlphabetMismatch):
            pres.normalize2(other.Q(1) * other.Qbar(1))
    size = pres.alphabet.size
    for g1, g2 in ((99, 0), (-1, 0), (0, size), (0, -1), (size, size)):
        with pytest.raises(IndexError, match="out of range"):
            pres.bracket(g1, g2)
    for g1, g2 in ((1.0, 0), (True, 0), (0, 2.5)):
        with pytest.raises(TypeError, match="is not an int"):
            pres.bracket(g1, g2)


def test_bracket_returns_a_new_dict_each_call():
    pres = build(3).presentation
    qbar1, q1 = pres.n_even, pres.n_even + 3  # {Qbar^1, Q_1}
    first = pres.bracket(qbar1, q1)
    assert any(len(w) == 2 for w in first) and () in first
    want = dict(first)
    first.clear()
    first[(0,)] = srat(5)
    assert pres.bracket(qbar1, q1) == want
    absent = pres.bracket(0, 0)
    assert absent == {}
    absent[(0,)] = srat(1)
    assert pres.bracket(0, 0) == {}


def test_plain_ring_is_built_once_per_presentation(monkeypatch):
    # bracket and normalize2 read one cached D = 1 ring; the checkers read
    # the scaled one and never build it; the dependence witness reads d
    # and builds no ring
    builds = []
    build_ring = presentation._Ring.build
    monkeypatch.setattr(presentation._Ring, "build", staticmethod(
        lambda n, tensors, scale: builds.append(scale) or build_ring(n, tensors, scale)))
    pres = build(3).presentation
    assert pres.check_component_jacobi().passed and pres.check_abstract_jacobi().passed
    assert builds == [pres._ring.scale]
    ab, n = pres.alphabet, pres.n_even
    odds_first = GeneratorOrder([*range(n, ab.size), *range(n)])
    assert not inadmissible_dependence_witness(pres, odds_first).is_zero()
    assert builds == [pres._ring.scale]
    for g1, g2 in ((n + 1, n), (n, n), (1, 0), (n, 0)):
        pres.normalize2(NCPoly.monomial(ab, (g1, g2)))
        pres.bracket(g1, g2)
    assert builds == [pres._ring.scale, 1]
    assert pres._plain.scale == 1
    assert all(type(v) is Scalar for terms in pres._plain.table.values() for _, v in terms)


def test_rings_agree_where_normalize2_halves_an_odd_square(monkeypatch):
    pres = _odd_square_presentation()
    assert pres._ring.scale == 6
    halved = []
    half = presentation._half
    monkeypatch.setattr(presentation, "_half",
                        lambda v: halved.append(v) or half(v))
    reports = _assert_rings_agree(pres, monkeypatch)
    assert 2 in [v for v in halved if type(v) is int]  # 2 y1 y1 -> y1 y1
    assert any(v.detail == "x1*x1" for v in reports[1][1])


def test_int_halving_never_rounds():
    assert presentation._half(6) == 3
    assert presentation._half(srat(3)) == srat(3, 2)
    with pytest.raises(ArithmeticError):
        presentation._half(3)


def test_symbolic_checks_stay_off_scalar_multiplication(monkeypatch):
    pres = build(3).presentation
    calls = []
    original = Scalar.__mul__

    def counting(self, other):
        calls.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    assert pres.check_component_jacobi().passed
    assert pres.check_abstract_jacobi().passed
    # only D^2 a and its dot products multiply Scalars (24 times; the
    # Scalar checkers did 6,570), and c sits only in a
    assert 0 < len(calls) < 100
    assert all("c" in x.variables() for x, _ in calls)


COMPONENT_FAMILIES = (
    "even-even-even", "even-even-odd", "even-odd-odd-d", "even-odd-odd-b",
    "odd-odd-odd-b", "odd-odd-odd-d", "even-odd-odd-a")


@pytest.mark.parametrize("make", [lambda: build(3).presentation, lambda3_presentation],
                         ids=["gl2(3/1)", "lambda3"])
def test_reports_count_every_family(make):
    pres = make()  # built in the test, so a broken build fails it
    component = pres.check_component_jacobi()
    abstract = pres.check_abstract_jacobi()
    assert sorted(component.checked) == sorted(COMPONENT_FAMILIES)
    assert sorted(abstract.checked) == ["J1", "J2", "J3"]
    assert all(count > 0 for count in component.checked.values())
    assert all(count > 0 for count in abstract.checked.values())
    assert not QlsPresentation(2, 2).check_component_jacobi().checked["odd-odd-odd-d"]
    # a alone reaches no letter: its terms at one-letter words cancel
    only_a = QlsPresentation(1, 1, a={(0, 0): 1}).check_abstract_jacobi()
    assert only_a.checked == {"J1": 0, "J2": 0, "J3": 0}


def test_every_component_family_can_fail():
    """One entry or orbit of gl2(3/1) shifted by 1 fails these families;
    together they reach all seven."""
    pres = build(3).presentation
    seen = set()
    for tensor, index, families in (
        ("c", (0, 1, 1), {"even-even-even", "even-even-odd", "even-odd-odd-d",
                          "even-odd-odd-b"}),
        ("cbar", (0, 0, 0), set(COMPONENT_FAMILIES) - {"even-even-even"}),
        ("d", (0, 3, 4, 8), {"even-odd-odd-d", "odd-odd-odd-d"}),
        ("b", (0, 3, 4), {"even-odd-odd-b", "odd-odd-odd-b"}),
        ("a", (0, 3), {"even-odd-odd-a"}),
    ):
        bad = _u_shifted(pres, tensor, index, srat(1))
        assert {v.family for v in bad.check_component_jacobi().violations} == families
        seen |= families
    assert seen == set(COMPONENT_FAMILIES)


def test_a_family_residual_maps_back_by_inverse_d_squared():
    # x . a_{y1 y1} with [x, y0] = y1: -(cbar_00^1 a_11) = -1 at (0, 0, 1)
    pres = QlsPresentation(1, 2, cbar={(0, 0, 1): 1}, a={(1, 1): 1})
    half_b = QlsPresentation(1, 2, cbar={(0, 0, 1): 1}, a={(1, 1): 1},
                             b={(0, 1, 0): srat(1, 2), (1, 0, 0): srat(1, 2)})
    # the module action halves the odd square a_11 to 1/2: D = 2 for both
    assert (pres._ring.scale, half_b._ring.scale) == (2, 2)
    for case in (pres, half_b):  # D = 2 scales a by 4; the residual is not
        got = [v for v in case.check_component_jacobi().violations
               if v.family == "even-odd-odd-a"]
        assert got == [("even-odd-odd-a", (0, 0, 1), srat(-1), "")]
    assert pres.check_component_jacobi().checked["even-odd-odd-a"] == 1


def _cyclic_reference(pres):
    """Families (5) and (6) summed over every p <= q <= r, s and l."""
    n, m = pres.n_even, pres.m_odd
    out = []
    for family, tensor, tails in (("odd-odd-odd-b", pres.b, [()]),
                                  ("odd-odd-odd-d", pres.d, [(l,) for l in range(n)])):
        for p, q, r in combinations_with_replacement(range(m), 3):
            for s in range(m):
                for tail in tails:
                    total = Scalar()
                    for u, v, w in ((p, q, r), (q, r, p), (r, p, q)):
                        for mm in range(n):
                            total = total + pres.cbar.get((mm, u, s), Scalar()) * \
                                tensor.get((v, w, mm, *tail), Scalar())
                    if total:
                        out.append((family, (p, q, r, s, *tail), total))
    return out


def test_cyclic_families_match_full_index_loops():
    rng = random.Random(20261019)
    for _ in range(100):
        pres = _random_presentation(rng)
        got = [v[:3] for v in pres.check_component_jacobi().violations
               if v.family.startswith("odd-odd-odd")]
        assert got == _cyclic_reference(pres)


def _far_rises(kinds, r):
    """The rises of kinds clear of slot r, as `invariance` reads them."""
    return [(s, t) for s, t, _ in presentation._pairs(kinds) if r not in (s, t)]


def test_no_slot_has_two_far_rises():
    # the component checker tests one far rise per slot and would skip a
    # second without any error: a tensor with three pairs must fail here
    for name, kinds in presentation.TENSORS.items():
        for r in range(len(kinds)):
            assert len(_far_rises(kinds, r)) <= 1, (name, r)
    assert [len(_far_rises("ooEE", r)) for r in range(4)] == [1, 1, 1, 1]
    assert len(_far_rises("ooEEOO", 0)) == 2


def test_odd_rescale_matches_the_fraction_products():
    # each scaled entry equals, with the same type, the product the rescale
    # took in Fractions: lower(v * factor), an int where integral and a
    # Scalar otherwise, and v * factor on an entry with an indeterminate
    rng = random.Random(20261021)
    cases = _sample_presentations() + _mixed_ring_cases()
    cases += [_scaled_down(_random_presentation(rng), den)
              for den in (2, 3, 6) for _ in range(30)]
    cases += [_odd_square_presentation(), _half_c_presentation()]
    seen = set()
    for pres in cases:
        tensors = pres._tensors()
        out, scale = presentation.odd_rescale(tensors)
        for (name, kinds, tensor), (_, _, scaled) in zip(tensors, out):
            factor = scale ** presentation.odd_exponent(kinds)
            assert scaled.keys() == tensor.keys()
            for idx, v in tensor.items():
                if v.is_rational():
                    f = lower(v.terms[()] * factor)
                    want = f if type(f) is int else srat(f)
                    den = v.as_rational().denominator
                    seen.add(("scalar" if type(want) is Scalar else "int", den > 1))
                    if kinds[:2] == "oo" and idx[0] == idx[1] and den > 1:
                        seen.add("odd square")
                else:
                    want = v * factor
                    seen.add("indeterminate")
                assert scaled[idx] == want and type(scaled[idx]) is type(want), (name, idx)
    assert seen == {("int", False), ("int", True), ("scalar", True),
                    "odd square", "indeterminate"}


def test_checker_cost_follows_the_tensors():
    # all-zero tensors over 1,000 odd generators: nothing to sum
    assert QlsPresentation(1, 1000).check_component_jacobi().passed


def test_abstract_checker_refuses_past_triple_budget():
    with pytest.raises(ValueError, match="triples"):
        QlsPresentation(100_000, 0).check_abstract_jacobi()
    for pres in (build(2).presentation, _odd_square_presentation()):
        assert pres.check_triple_budget() == sum(1 for _ in pres._overlap_elements(pres._ring))
    # gl2(5/1), the largest presentation the tests and the bench check
    assert build(5).presentation.check_triple_budget() == 6895 <= MAX_TRIPLES
