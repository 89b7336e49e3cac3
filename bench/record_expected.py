"""Record bench/expected_nf.json, the reference digests of the normal_form
workload.

Every normal form is computed with `RewriteSystem.normal_form` and then
confirmed against the second engine in quadlie, the module action
`_ModuleAction.apply_word` on the empty word, so the reference does not
come from the engine under test alone.  Run from the repository root:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quadlie import ncpoly, pbw  # noqa: E402

import workloads as wl  # noqa: E402

DIGEST_LEN = 10


def confirmed_digest(rs, word) -> str:
    nf = rs.normal_form(ncpoly.NCPoly.monomial(rs.presentation.alphabet, word))
    action = pbw._ModuleAction(rs, len(word))
    other = action.apply_word(tuple(word), ())
    if wl.canonical(nf.terms) != wl.canonical(other):
        raise SystemExit(f"engines disagree on word {word}")
    return wl.digest(nf.terms, DIGEST_LEN)


def main() -> None:
    words = {}
    for n in wl.NF_SIZES:
        pool = wl.pool_words(n)
        for symbolic in (True, False):
            rs = wl.build_algebra(n, symbolic).rewrite
            words[wl.algebra_key(n, symbolic)] = "".join(
                confirmed_digest(rs, w) for w in pool
            )
    products = {}
    size = wl.PRODUCT_SIZE
    for symbolic in (True, False):
        alg = wl.build_algebra(size, symbolic)
        specs = {
            spec
            for i in range(1, size + 1)
            for j in range(1, size + 1) if j != i
            for spec in wl.product_specs(i, j, symbolic)
        }
        for a, b, k in sorted(specs):
            word = (alg.qbar_id(a), alg.q_id(b)) * k
            rs = pbw.RewriteSystem(alg.presentation)
            products[wl.product_key(symbolic, a, b, k)] = confirmed_digest(rs, word)
    data = {"digest_len": DIGEST_LEN, "pool_size": wl.POOL_SIZE,
            "words": words, "products": products}
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
