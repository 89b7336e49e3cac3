"""The four benchmark workloads and their known-answer gates.

Each workload mirrors one family of CLI commands through the public
library functions.  `setup(seed)` builds the inputs; `make_round(inputs)`
returns the tasks of one round.  A task's `run` produces the output whose
time is measured; its `check` compares that output with a known answer and
runs outside the timed region.

Library callables are looked up on their modules at call time, so the
tracer's wrappers (see spans.py) see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from quadlie import atypicality, exprparse, fock, gl2n1, ncpoly, pbw, presentation
from quadlie.scalars import Scalar

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_nf.json")


class Task(NamedTuple):
    name: str
    symbolic: bool
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


# -- corrupted presentations ------------------------------------------------

TENSORS = ("c", "cbar", "d", "b", "a")


def corrupt(pres, tensor_name: str, rng: random.Random):
    """Copy of `pres` with one symmetric d- or b-orbit shifted by a nonzero
    rational.  The gl2(n/1) Jacobi identities are linear in d and b, and no
    single orbit of either tensor is gl(n)-invariant, so every such copy
    violates them."""
    tensor = dict(getattr(pres, tensor_name))
    p, q, *rest = rng.choice(sorted(tensor))
    if tensor_name == "d":
        k, l = rest
        orbit = {(p, q, k, l), (q, p, k, l), (p, q, l, k), (q, p, l, k)}
    else:
        orbit = {(p, q, *rest), (q, p, *rest)}
    shift = _rational(rng)
    for idx in orbit:
        tensor[idx] = tensor.get(idx, Scalar()) + shift
    fields = {name: getattr(pres, name) for name in TENSORS}
    fields[tensor_name] = tensor
    return presentation.QlsPresentation(
        pres.n_even, pres.m_odd, names=pres.alphabet.names, **fields
    )


# -- normal-form digests ----------------------------------------------------


def canonical(terms: Dict[Tuple[int, ...], Any]) -> str:
    """Engine-independent text of a word -> coefficient map."""
    parts = []
    for word in sorted(terms):
        coeff = terms[word]
        mono = getattr(coeff, "terms", None)
        items = sorted(mono.items()) if mono is not None else [((), Fraction(coeff))]
        parts.append(
            f"{word}:" + ";".join(
                f"{m}={f.numerator}/{f.denominator}" for m, f in items
            )
        )
    return "|".join(parts)


def digest(terms, length: int) -> str:
    return hashlib.sha256(canonical(terms).encode()).hexdigest()[:length]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def gen_text(alg, g: int) -> str:
    """Parser spelling of generator g of gl2(n/1)."""
    n = alg.n
    if g < n * n:
        return f"E[{g // n + 1},{g % n + 1}]"
    if g < n * n + n:
        return f"Qbar[{g - n * n + 1}]"
    return f"Q[{g - n * n - n + 1}]"


def words_ordered(rs, nf) -> bool:
    return all(rs.word_is_ordered(w) for w in nf.terms)


def nf_gate(rs, want: str, length: int) -> Callable[[Any], bool]:
    """Gate of one normal form: recorded digest and ordered output words."""
    return lambda nf: digest(nf.terms, length) == want and words_ordered(rs, nf)


# ===========================================================================
# verify: QlsPresentation.loads + both Jacobi checkers
# ===========================================================================


class Verify:
    name = "verify"

    def setup(self, seed: int):
        rng = random.Random(f"verify:{seed}")
        items = []  # (label, symbolic, .qls text, expected verdict)
        sym3 = rat3 = None
        for n in (3, 4, 5):
            sym = gl2n1.build(n).presentation
            c = _rational(rng)
            rat = gl2n1.build(n, c).presentation
            items.append((f"gl2({n}/1) c=c", True, sym.dumps(), True))
            items.append((f"gl2({n}/1) c={c}", False, rat.dumps(), True))
            if n == 3:
                sym3, rat3 = sym, rat
            if n == 4:
                items.append(("gl2(4/1) c=c, d-orbit shifted", True,
                              corrupt(sym, "d", rng).dumps(), False))
        items.append(("lambda3", False, fock.lambda3_presentation().dumps(), True))
        items.append(("gl2(3/1) c=c, d-orbit shifted", True,
                      corrupt(sym3, "d", rng).dumps(), False))
        items.append(("gl2(3/1) rational c, b-orbit shifted", False,
                      corrupt(rat3, "b", rng).dumps(), False))
        return items

    @staticmethod
    def task(label: str, symbolic: bool, text: str, expect: bool) -> Task:
        def run():
            pres = presentation.QlsPresentation.loads(text)
            comp = pres.check_component_jacobi()
            abst = pres.check_abstract_jacobi()
            return comp.passed, abst.passed

        return Task(f"verify {label}", symbolic, run,
                    lambda out: out == (expect, expect))

    def make_round(self, inputs) -> List[Task]:
        return [self.task(*item) for item in inputs]


# ===========================================================================
# serre: fresh RewriteSystem + serre_module_check
# ===========================================================================


class Serre:
    name = "serre"

    def setup(self, seed: int):
        rng = random.Random(f"serre:{seed}")
        sym3 = gl2n1.build(3).presentation
        c3 = _rational(rng)
        rat3 = gl2n1.build(3, c3).presentation
        c2 = _rational(rng)
        return [  # (label, symbolic, presentation, max_len, expected verdict)
            ("gl2(3/1) c=c len 4", True, sym3, 4, True),
            (f"gl2(3/1) c={c3} len 4", False, rat3, 4, True),
            (f"gl2(2/1) c={c2} len 5", False, gl2n1.build(2, c2).presentation, 5, True),
            ("gl2(4/1) c=c len 3", True, gl2n1.build(4).presentation, 3, True),
            ("gl2(3/1) c=c, d-orbit shifted, len 4", True,
             corrupt(sym3, "d", rng), 4, False),
            ("gl2(3/1) rational c, b-orbit shifted, len 4", False,
             corrupt(rat3, "b", rng), 4, False),
        ]

    def make_round(self, inputs) -> List[Task]:
        tasks = []
        for label, symbolic, pres, max_len, expect in inputs:
            def run(pres=pres, max_len=max_len):
                return pbw.serre_module_check(pbw.RewriteSystem(pres), max_len)

            def check(out, expect=expect):
                ok, witness = out
                return ok is expect and (witness is None) is expect

            tasks.append(Task(f"serre {label}", symbolic, run, check))
        return tasks


# ===========================================================================
# normal_form: parse_ncpoly + RewriteSystem.normal_form
# ===========================================================================

NF_SIZES = (2, 3, 4, 5)
NF_RATIONAL_C = Fraction(5, 3)
POOL_SIZE = 200  # recorded words per algebra
STRATUM = 4      # the seed keeps 3 of every 4 pool words of similar shape
SBAR_SIZES = (3, 4)
PRODUCT_SIZE = 3


def algebra_key(n: int, symbolic: bool) -> str:
    return f"n{n}-{'sym' if symbolic else 'rat'}"


def build_algebra(n: int, symbolic: bool):
    return gl2n1.build(n, None if symbolic else NF_RATIONAL_C)


def pool_words(n: int) -> List[Tuple[int, ...]]:
    """Fixed pool of words of length 2..6 over the gl2(n/1) generators."""
    rng = random.Random(f"quadlie-nf-pool-n{n}")
    size = n * n + 2 * n
    return [
        tuple(rng.randrange(size) for _ in range(rng.randint(2, 6)))
        for _ in range(POOL_SIZE)
    ]


def product_key(symbolic: bool, i: int, j: int, k: int) -> str:
    return f"{algebra_key(PRODUCT_SIZE, symbolic)}-{i}-{j}-{k}"


def product_specs(i: int, j: int, symbolic: bool) -> List[Tuple[int, int, int]]:
    """(Qbar_i Q_i)^k for k = 5, 6, and 7 with rational c only, plus
    (Qbar_i Q_j)^7 with j != i.  The diagonal k = 7 product takes about a
    second; running it once per round keeps rounds short."""
    powers = (5, 6) if symbolic else (5, 6, 7)
    return [(i, i, k) for k in powers] + [(i, j, 7)]


def pick_words(pool: List[Tuple[int, ...]], n: int, rng: random.Random) -> List[int]:
    """Seeded stratified sample of pool indices.  Words are ranked by odd
    letters, then length; the seed drops one word of every STRATUM
    consecutive ones, so each sample has the same mix of word shapes."""
    ranked = sorted(range(len(pool)), key=lambda t: (
        sum(1 for g in pool[t] if g >= n * n), len(pool[t]), t))
    picks = []
    for start in range(0, len(ranked), STRATUM):
        group = ranked[start:start + STRATUM]
        group.pop(rng.randrange(len(group)))
        picks += group
    rng.shuffle(picks)
    return picks


def parse(alg, text: str):
    return exprparse.parse_ncpoly(
        text, alg.alphabet, alg.resolve,
        indeterminates=alg.presentation.indeterminates,
    )


class NormalForm:
    name = "normal_form"

    def __init__(self):
        self.expected = load_expected()

    def setup(self, seed: int):
        rng = random.Random(f"normal_form:{seed}")
        algebras = []
        for n in NF_SIZES:
            pool = pool_words(n)
            for symbolic in (True, False):
                alg = build_algebra(n, symbolic)
                words = [
                    (idx, " ".join(gen_text(alg, g) for g in pool[idx]))
                    for idx in pick_words(pool, n, rng)
                ]
                algebras.append((alg, symbolic, words))
        i = rng.randint(1, PRODUCT_SIZE)
        j = rng.choice([x for x in range(1, PRODUCT_SIZE + 1) if x != i])
        products = []
        for symbolic in (True, False):
            alg = build_algebra(PRODUCT_SIZE, symbolic)
            for a, b, k in product_specs(i, j, symbolic):
                text = f"(Qbar[{a}] Q[{b}])^{k}"
                products.append((alg, symbolic, product_key(symbolic, a, b, k), text))
        return algebras, products

    def make_round(self, inputs) -> List[Task]:
        algebras, products = inputs
        length = self.expected["digest_len"]
        tasks: List[Task] = []
        for alg, symbolic, words in algebras:
            # one shared system per algebra and round: warm cache
            fresh = gl2n1.Gl2n1(alg.n, alg.central, alg.presentation)
            rs = fresh.rewrite
            table = self.expected["words"][algebra_key(alg.n, symbolic)]
            for idx, text in words:
                want = table[idx * length:(idx + 1) * length]

                def run(text=text, rs=rs, alg=fresh):
                    return rs.normal_form(parse(alg, text))

                tasks.append(Task(f"normal_form {algebra_key(alg.n, symbolic)} "
                                  f"{text}", symbolic, run, nf_gate(rs, want, length)))
            if alg.n in SBAR_SIZES:
                tasks += sbar_tasks(fresh, symbolic)
        for alg, symbolic, key, text in products:
            want = self.expected["products"][key]

            def run(alg=alg, text=text):
                # a fresh system per product: cold cache, as in the CLI
                return pbw.RewriteSystem(alg.presentation).normal_form(parse(alg, text))

            tasks.append(Task(f"normal_form {key} {text}", symbolic, run,
                              nf_gate(alg.rewrite, want, length)))
        return tasks


def sbar_tasks(alg, symbolic: bool) -> List[Task]:
    """The odd-multinomial calculus of gl2(n/1): Qbar_i Sbar_K and the
    brackets [Q_i, Sbar_J} against adjoint_A / adjoint_B."""
    n = alg.n
    rng = range(1, n + 1)
    label = f"sbar n={n} {'symbolic' if symbolic else 'rational'}"
    nf = alg.rewrite.normal_form
    zero = ncpoly.NCPoly.zero(alg.alphabet)
    s: Dict[str, Any] = {}

    def prepare():
        s["full"] = alg.sbar(())
        s[1] = {j: alg.sbar((j,)) for j in rng}
        s[2] = {(j, k): alg.sbar((j, k)) for j in rng for k in rng}
        s["A"] = alg.adjoint_A()
        s["B"] = alg.adjoint_B()
        return s

    def prepared_ok(out) -> bool:
        elems = [out["full"], *out[1].values(), *out[2].values()]
        return not out["full"].is_zero() and all(
            words_ordered(alg.rewrite, e) for e in elems
        )

    tasks = [Task(f"{label} prepare", symbolic, prepare, prepared_ok)]

    def add(name, fn):
        tasks.append(Task(f"{label} {name}", symbolic, fn, lambda out: out is True))

    for i in rng:
        add(f"Qbar{i} Sbar()", lambda i=i: nf(alg.Qbar(i) * s["full"]).is_zero())
        for j in rng:
            add(f"Qbar{i} Sbar{j}", lambda i=i, j=j: nf(alg.Qbar(i) * s[1][j])
                == (s["full"] if i == j else zero))
            for k in rng:
                def qs2(i=i, j=j, k=k):
                    want = zero
                    if i == j:
                        want = want + s[1][k]
                    if i == k:
                        want = want - s[1][j]
                    return nf(alg.Qbar(i) * s[2][(j, k)]) == nf(want)

                add(f"Qbar{i} Sbar{j}{k}", qs2)

    def bracket_a(i):
        sgn = 1 if n % 2 == 0 else -1
        got = nf(alg.Q(i) * s["full"] - s["full"].scale(sgn) * alg.Q(i))
        want = zero
        for k in rng:
            want = want + s[1][k] * s["A"][k - 1][i - 1]
        return got == nf(want)

    def bracket_b(i, j):
        sgn = 1 if (n - 1) % 2 == 0 else -1
        sj = s[1][j]
        got = nf(alg.Q(i) * sj - sj.scale(sgn) * alg.Q(i))
        want = zero
        for k in rng:
            for l in range(k + 1, n + 1):
                want = want + s[2][(k, l)] * s["B"][(k, l, i, j)]
        return got == nf(want)

    for i in rng:
        add(f"[Q{i}, Sbar()}} = Sbar A", lambda i=i: bracket_a(i))
        for j in rng:
            add(f"[Q{i}, Sbar{j}}} = Sbar B", lambda i=i, j=j: bracket_b(i, j))
    return tasks


# ===========================================================================
# family: highest-weight data, atypicality and the Fock oracle
# ===========================================================================

# every (n, r, k) with (r-1)(k+n-r) = r(n-r), k >= 1, 2 <= r <= n-1, n <= 10
ZERO_STEP_TABLE = [
    (3, 2, 1), (4, 2, 2), (5, 2, 3), (5, 3, 1), (6, 2, 4), (7, 2, 5),
    (7, 3, 2), (7, 4, 1), (8, 2, 6), (9, 2, 7), (9, 3, 3), (9, 5, 1),
    (10, 2, 8), (10, 4, 2),
]
FAMILY_RATIONAL = 40
FAMILY_SYMBOLIC = 16
ONE_STEP_SIZES = (3, 4, 5)


def family_identities_hold(d: dict, c) -> bool:
    """Closed forms of the family data, written independently of gl2n1."""
    n, r = d["n"], d["r"]
    mb, nb = d["mubar"], d["nubar"]
    ok = (d["C2_prime"] - ((mb + nb - 2) * d["C1_prime"] - (mb - 1) * (nb - 1) * n)).is_zero()
    e_coeff = -(mb * (r - 1) + nb * (n - r - 1) - Scalar.coerce(r * (n - r)))
    ok = ok and (d["A_E"] - e_coeff).is_zero()
    d_coeff = (
        Scalar.coerce(c) - (n - 1)
        + (mb - 1) * (nb - 1) * Fraction(n - 2, 2)
        + d["C1_prime"] * (-e_coeff - 1) / 2
    )
    ok = ok and (d["A_delta"] - d_coeff).is_zero()
    ok = ok and (d["B_Edelta"] - (d["A_E"] + 1)).is_zero()
    ok = ok and d["B_deltaE"] == 1
    return ok and (d["B_deltadelta"] - (d["b0"] - d["p_prime"])).is_zero()


def casimirs_expected(components: Sequence[Fraction]) -> Tuple[Fraction, Fraction]:
    n = len(components)
    c1 = sum(components, Fraction(0))
    c2 = sum((lam * (lam + n + 1 - 2 * r) for r, lam in enumerate(components, 1)),
             Fraction(0))
    return c1, c2


def _level1_values(params, c) -> Dict[int, Scalar]:
    w = params.weight()
    targets = [params.r] + ([params.n] if params.r < params.n else [])
    return {s: atypicality.level1_poly(w, c, s) for s in targets}


class Family:
    name = "family"

    def setup(self, seed: int):
        rng = random.Random(f"family:{seed}")
        rational = []
        # (n, r) run through a fixed cycle, so every seed has the same mix
        for t in range(FAMILY_RATIONAL):
            n = 3 + t % 4
            r = 1 + t // 4 % n
            nu = rng.randint(-3, 3)
            mu = nu + rng.randint(1, 5)  # mu > nu: dominant, both roots retained
            rational.append((gl2n1.FamilyParams(n, r, mu, nu), _rational(rng)))
        mu, nu, c = (Scalar.var(v) for v in ("mu", "nu", "c"))
        symbolic = []
        for t in range(FAMILY_SYMBOLIC):
            n = 3 + t % 6
            symbolic.append((gl2n1.FamilyParams(n, 1 + t // 6 % n, mu, nu), c))
        rows = []
        for n, r, k in ZERO_STEP_TABLE:
            params = gl2n1.FamilyParams(n, r, k, 0)
            solved = -gl2n1.family_data(params, 0)["A_delta"].as_rational()
            rows.append((params, solved))
        # one seeded task order for every round, mixing symbolic and rational
        return rational, symbolic, rows, rng.getrandbits(32)

    @staticmethod
    def _level1_tasks(add, params, c0: Fraction, c) -> None:
        """family_data, atypicality_report, zero_step and level1_poly at the
        central charge c, which is either the rational c0 or symbolic."""
        symbolic = not isinstance(c, Fraction)
        label = f"{params} c={c}"

        def holds_at_c0(z) -> bool:
            if isinstance(z, Scalar):
                return z.substitute({"c": c0}).is_zero()
            return z is True

        add(f"family_data {label}", symbolic,
            lambda: gl2n1.family_data(params, c),
            lambda d: family_identities_hold(d, c))

        def report_ok(rep):
            values = _level1_values(params, c)
            vanish = all(v.is_zero() for v in values.values())
            return rep["a_values"] == values and (rep["zero_step"] is True) == vanish

        add(f"atypicality_report {label}", symbolic,
            lambda: atypicality.atypicality_report(params, c), report_ok)
        # zero-step at c0 <=> every retained level-1 value vanishes there
        add(f"zero_step {label}", symbolic,
            lambda: atypicality.zero_step(params, c),
            lambda z: holds_at_c0(z) == all(
                v.is_zero() for v in _level1_values(params, c0).values()))

        def level1_ok(values):
            d = gl2n1.family_data(params, c)
            roots = {params.n: d["nubar"] - 1, params.r: d["mubar"] - 1}
            return all(v == d["A_E"] * roots[s] + d["A_delta"]
                       for s, v in values.items())

        add(f"level1_poly {label}", symbolic,
            lambda: _level1_values(params, c), level1_ok)

    def make_round(self, inputs) -> List[Task]:
        rational, symbolic, rows, order = inputs
        tasks: List[Task] = []

        def add(name, is_symbolic, run, check):
            tasks.append(Task(f"family {name}", is_symbolic, run, check))

        c_sym = Scalar.var("c")
        for params, c0 in rational:
            for c in (c0, c_sym):
                self._level1_tasks(add, params, c0, c)
            label = f"{params} c={c0}"

            def weights(p=params):
                w = p.weight()
                ci = gl2n1.char_roots(gl2n1.lam_prime(w))
                projs = [gl2n1.projector(ci, s) for s, _ in ci.retained_roots()]
                return ci, projs, gl2n1.casimirs(w), w

            def weights_ok(out, p=params):
                ci, projs, cas, w = out
                roots = [root for _, root in ci.retained_roots()]
                want = [p.mubar - 1] + ([p.nubar - 1] if p.r < p.n else [])
                total = [Scalar() for _ in range(max(len(x) for x in projs))]
                for proj in projs:
                    for t, coeff in enumerate(proj):
                        total[t] = total[t] + coeff
                orth = all(
                    gl2n1.uni_mod(gl2n1.uni_mul(a, b), gl2n1.reduced_char_poly(ci)) == []
                    for x, a in enumerate(projs) for b in projs[x + 1:]
                )
                c1, c2 = casimirs_expected(w.components)
                return (roots == want and gl2n1.uni_trim(total) == [Scalar.coerce(1)]
                        and orth and cas == (c1, c2))

            add(f"char_roots/projector/casimirs {label}", False, weights, weights_ok)

        for params, c in symbolic:
            add(f"family_data {params} c=c", True,
                lambda p=params, c=c: gl2n1.family_data(p, c),
                lambda d, c=c: family_identities_hold(d, c))

        for params, solved in rows:
            w = params.weight()
            label = f"zero-step row {params}"
            add(f"{label} c={solved}", False,
                lambda p=params, c=solved: atypicality.zero_step(p, c),
                lambda z: z is True)
            add(f"{label} equivalence", False,
                lambda p=params, c=solved: atypicality.zero_step_equivalence_check(p, c),
                lambda z: z is True)
            add(f"{label} level1", False,
                lambda w=w, p=params, c=solved: [
                    atypicality.level1_poly(w, c, p.r), atypicality.level1_poly(w, c, p.n)],
                lambda vals: all(v.is_zero() for v in vals))
            add(f"{label} c={solved + 1}", False,
                lambda p=params, c=solved + 1: (
                    atypicality.zero_step(p, c),
                    atypicality.zero_step_equivalence_check(p, c)),
                lambda out: out == (False, False))
            add(f"{label} c=c", True,
                lambda p=params: atypicality.zero_step(p, Scalar.var("c")),
                lambda cond, c=solved: isinstance(cond, Scalar)
                and cond.substitute({"c": c}).is_zero())

        add("table_zero_step(10)", False,
            lambda: atypicality.table_zero_step(10),
            lambda rows: rows == ZERO_STEP_TABLE)
        for n in ONE_STEP_SIZES:
            add(f"one_step_analysis({n}, scan_bound=10)", False,
                lambda n=n: atypicality.one_step_analysis(n, scan_bound=10),
                lambda res, n=n: res["conclusion"] == "no one-step modules"
                and res["one_step_exists"] is False
                and res["branch_s_eq_b1"]["residual"] == 2 - n
                and res["scan_counterexamples"] == [])
        add("bracket_polynomial_check(4)", False,
            lambda: fock.bracket_polynomial_check(4),
            # {Q, Qbar} = -1/4 (...): exact as printed, or -3/2 times 1/6
            lambda res: res["components_checked"] == 16
            and (res["holds"] or res["overall_factor"] == Fraction(1, 6)))
        add("zero_step_demo(4)", False,
            lambda: fock.zero_step_demo(4), lambda res: res["passed"] is True)
        add("presentation_cross_check()", False,
            lambda: fock.presentation_cross_check(),
            lambda res: res["relations_hold"] is True and res["failures"] == [])
        random.Random(order).shuffle(tasks)
        return tasks


WORKLOADS = {w.name: w for w in (Verify, Serre, NormalForm, Family)}


def gate_selftest() -> List[str]:
    """Show that the known-answer gates can fail: a corrupted presentation
    labelled PASS and a normal form checked against an altered digest must
    both be rejected, while the same normal form passes against its recorded
    digest.  Returns the cases the gates got wrong (empty when none)."""
    missed = []
    wrong = corrupt(gl2n1.build(2).presentation, "b", random.Random("selftest"))
    task = Verify.task("corrupted gl2(2/1) labelled PASS", True, wrong.dumps(), True)
    if task.check(task.run()):
        missed.append(task.name)
    expected = load_expected()
    length = expected["digest_len"]
    want = expected["words"][algebra_key(2, True)][:length]
    altered = format((int(want[0], 16) + 1) % 16, "x") + want[1:]
    alg = build_algebra(2, True)
    word = " ".join(gen_text(alg, g) for g in pool_words(2)[0])
    nf = alg.rewrite.normal_form(parse(alg, word))
    if not nf_gate(alg.rewrite, want, length)(nf):
        missed.append("normal_form with its recorded digest (rejected)")
    if nf_gate(alg.rewrite, altered, length)(nf):
        missed.append("normal_form digest altered by one hex digit")
    return missed
