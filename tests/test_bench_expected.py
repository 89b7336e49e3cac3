"""The normal_form workload's recorded digests still come out of both
engines: `RewriteSystem.normal_form` and the module action on the empty
word, compared inside `bench/record_expected.py`."""

import importlib.util
import os
import sys

import pytest

from quadlie.ncpoly import NCPoly
from quadlie.pbw import RewriteSystem

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)
WORDS_CHECKED = 20


def _load_record_expected(monkeypatch):
    # the script imports its sibling workloads.py; monkeypatch puts the
    # original sys.path back after the test
    monkeypatch.setattr(sys, "path", [BENCH, *sys.path])
    spec = importlib.util.spec_from_file_location(
        "bench_record_expected", os.path.join(BENCH, "record_expected.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_confirmed_digests_match_recorded(monkeypatch, n):
    record = _load_record_expected(monkeypatch)
    wl = record.wl
    expected = wl.load_expected()
    length = expected["digest_len"]
    pool = wl.pool_words(n)[:WORDS_CHECKED]
    for symbolic in (True, False):
        rs = wl.build_algebra(n, symbolic).rewrite
        got = "".join(record.confirmed_digest(rs, word) for word in pool)
        want = expected["words"][wl.algebra_key(n, symbolic)]
        assert got == want[:WORDS_CHECKED * length], wl.algebra_key(n, symbolic)


def test_product_digests_match_recorded_on_a_fresh_system(monkeypatch):
    # the workload's cold path: each (Qbar_a Q_b)^k on a new RewriteSystem
    wl = _load_record_expected(monkeypatch).wl
    expected = wl.load_expected()
    size, products = wl.PRODUCT_SIZE, expected["products"]
    seen = set()
    for symbolic in (True, False):
        alg = wl.build_algebra(size, symbolic)
        specs = {spec for i in range(1, size + 1) for j in range(1, size + 1)
                 if j != i for spec in wl.product_specs(i, j, symbolic)}
        for a, b, k in sorted(specs):
            key = wl.product_key(symbolic, a, b, k)
            word = (alg.qbar_id(a), alg.q_id(b)) * k
            nf = RewriteSystem(alg.presentation).normal_form(
                NCPoly.monomial(alg.alphabet, word))
            assert wl.digest(nf.terms, expected["digest_len"]) == products[key], key
            seen.add(key)
    assert seen == set(products)
