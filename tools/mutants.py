"""Mutation harness: each listed mutant must make a test fail.

A mutant is one exact text replacement in one file, with the test file
expected to kill it.  The old text must occur exactly once in its file,
so a refactor that moves or rewrites the line fails here loudly and
updates the list in the same change.

The repository is copied once to a temporary directory.  For each mutant
the replacement is applied there, `pytest -x` runs on the named test
file and, if that file passes, on the whole tier-1 suite; then the file
is restored.  A mutant that both runs pass survives.  A survivor is
mended by a new test, never by loosening a check.

Run from the repository root (about three minutes on two cores); it runs
every mutant and exits 1 on a survivor:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PRES = "src/quadlie/presentation.py"
PBW = "src/quadlie/pbw.py"
GL2 = "src/quadlie/gl2n1.py"
SCAL = "src/quadlie/scalars.py"
FOCK = "src/quadlie/fock.py"
T_PRES = "tests/test_presentation.py"
T_PBW = "tests/test_pbw.py"
T_GL2 = "tests/test_gl2n1.py"
T_ATYP = "tests/test_atypicality.py"
T_FOCK = "tests/test_fock.py"
T_SCAL = "tests/test_scalars.py"
T_CLI = "tests/test_cli.py"
TIMEOUT_S = 900  # per pytest run; a mutant that runs past it counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in path
    new: str
    tests: str  # the test file expected to kill it


MUTANTS = [
    # -- the odd rescaling (DECISIONS.md "Odd rescaling") -------------------
    Mutant("component family (3) exponent off", PRES,
           "emit(family, invariance(tensor, kinds), exponent)",
           "emit(family, invariance(tensor, kinds), exponent + (name == 'd'))",
           T_PRES),
    Mutant("component family (6) exponent off", PRES,
           "emit(family, odd_cyclic(tensor), exponent)",
           "emit(family, odd_cyclic(tensor), exponent + (name == 'd'))",
           T_PRES),
    Mutant("abstract exponent off by one", PRES,
           "back(part[w], sum(g >= n for g in w) - odd_abc)",
           "back(part[w], sum(g >= n for g in w) - odd_abc + 1)",
           T_PRES),
    Mutant("rescale a by D, not D^2", PRES,
           "factor = scale ** odd_exponent(kinds)",
           "factor = scale ** (odd_exponent(kinds) - (name == 'a'))",
           T_PRES),
    Mutant("rescale drops a from the scaled ring", PRES,
           "out.append((name, kinds, scaled))",
           "out.append((name, kinds, scaled if name != 'a' else {}))",
           T_PRES),
    Mutant("odd square not halved in _reduce2", PRES,
           "t = _half(coeff)",
           "t = coeff",
           T_PRES),
    Mutant("_reduce2 pushes a non-d-part word", PRES,
           "table.get((g, h), ()) if len(w) == 2]",
           "table.get((g, h), ()) if w]",
           T_PRES),
    Mutant("_act does not halve odd squares", PBW,
           "c = _half(coeff) if a == b else coeff",
           "c = coeff",
           T_PBW),
    Mutant("rescale D without the half on odd squares", PRES,
           "return f.denominator * (2 if idx[0] == idx[1] and f.numerator % 2 else 1)",
           "return f.denominator",
           T_PBW),
    Mutant("rescale exponent 1 for every tensor", PRES,
           "factor = scale ** odd_exponent(kinds)",
           "factor = scale",
           T_PRES),
    Mutant("rescale leaves the factor off a Scalar entry", PRES,
           "scaled[idx] = v * factor if factor != 1 else v",
           "scaled[idx] = v",
           T_PRES),
    Mutant("rescale's int path drops the divisibility test", PRES,
           "if f is not None and factor % f.denominator == 0:",
           "if f is not None:",
           T_PRES),
    # -- the one bracket-table builder, `_Ring.build` -------------------------
    Mutant("bracket table keeps the reverse of a mixed pair unnegated", PRES,
           "append((word, -v))",
           "append((word, v))",
           T_PBW),
    Mutant("bracket table leaves odd upper indices unshifted", PRES,
           'up = n if "O" in kinds else 0',
           "up = 0",
           T_PBW),
    # -- the overlap elements, substituted in place ---------------------------
    Mutant("overlap zR d-part sign", PRES,
           "key = x * size + l\n"
           "                                deg2[key] = deg2.get(key, 0) - s * val * t",
           "key = x * size + l\n"
           "                                deg2[key] = deg2.get(key, 0) + s * val * t",
           T_PRES),
    Mutant("overlap zL substitution added, not subtracted", PRES,
           "key = u * size + x\n"
           "                            deg2[key] = deg2.get(key, 0) - s * t",
           "key = u * size + x\n"
           "                            deg2[key] = deg2.get(key, 0) + s * t",
           T_PRES),
    Mutant("overlap zR substituted as (g, x)", PRES,
           "key = x * size + w",
           "key = w * size + x",
           T_PRES),
    Mutant("overlap graded-cyclic sign of (b, c, a) flipped", PRES,
           "(b, a, bc, ca, 1)",
           "(b, a, bc, ca, -1)",
           T_PRES),
    Mutant("reduction cache ignores the odd-square halving", PRES,
           "coeff = _half(coeff)",
           "coeff = coeff",
           T_PRES),
    Mutant("abstract checker reduces a word whose sum cancels", PRES,
           "if not coeff:\n"
           "                    continue\n"
           "                image = reduced.get(key)",
           "if False:\n"
           "                    continue\n"
           "                image = reduced.get(key)",
           T_PRES),
    Mutant("lam keys not offset by size**2", PRES,
           "(lam * lam0 + g * size + h, v)",
           "(g * size + h, v)",
           T_PRES),
    Mutant("dead-triple test reads two of the three pairs", PRES,
           "if ab is None and bc is None and ca is None:",
           "if ab is None and bc is None:",
           T_PRES),
    Mutant("overlap sign of (y2, i, y1) taken as +1", PRES,
           "for i in evens), -1),",
           "for i in evens), 1),",
           T_PRES),
    Mutant("identity fast path taken for an odd square", PRES,
           "g < h or g == h < n or (square",
           "g <= h or (square",
           T_PRES),
    # -- the forward ring ------------------------------------------------------
    Mutant("rescale D over every tensor, not the odd pairs", PRES,
           "for _, kinds, tensor in tensors if kinds[:2] == \"oo\"",
           "for _, kinds, tensor in tensors",
           T_PBW),
    Mutant("odd exponent counts upper slots only", PRES,
           "return kinds.count(\"o\") - kinds.count(\"O\")",
           "return -kinds.count(\"O\")",
           T_PRES),
    # -- the verify path: per-file parse, canonical component keys ------------
    Mutant("component pre-filter lets x_i's rise be weak", PRES,
           "if lo <= new <= hi and i < top:",
           "if lo <= new <= hi and i <= top:",
           T_PRES),
    Mutant("generator count accepts a bool", PRES,
           "if type(value) is not int:  # not a float or a bool",
           "if type(value) not in (int, bool):",
           T_PRES),
    Mutant("invariance reads the wrong slot of its far rise", PRES,
           "idx[ft] < idx[fs] + fg",
           "idx[fs] < idx[fs] + fg",
           T_PRES),
    Mutant("row index check accepts a bool", PRES,
           "if not set(map(type, row[:-1])) <= {int}:",
           "if not set(map(type, row[:-1])) <= {int, bool}:",
           T_PRES),
    Mutant("intertwiner_violation drops the pi seed", PRES,
           "residual = dict(self.pi)",
           "residual = {}",
           T_PRES),
    Mutant("parse dict keyed by tensor name, not entry text", PRES,
           "if row[-1] not in parsed:\n"
           "                    try:\n"
           "                        parsed[row[-1]] = parse_scalar(row[-1], declared)\n"
           "                    except ParseError as exc:  # say where the entry is\n"
           "                        raise ParseError(f\"{key} entry {list(idx)}: {exc}\") from None\n"
           "                out[idx] = parsed[row[-1]]",
           "if key not in parsed:\n"
           "                    try:\n"
           "                        parsed[key] = parse_scalar(row[-1], declared)\n"
           "                    except ParseError as exc:  # say where the entry is\n"
           "                        raise ParseError(f\"{key} entry {list(idx)}: {exc}\") from None\n"
           "                out[idx] = parsed[key]",
           T_PRES),
    Mutant("from_json_dict ignores the declared indeterminates", PRES,
           "parse_scalar(row[-1], declared)",
           "parse_scalar(row[-1])",
           T_PRES),
    # -- the module action (ROADMAP item 6) -----------------------------------
    Mutant("_act swap sign flipped", PBW,
           "self._times(b, inner, min(a, b) >= self.ab.n_even)",
           "self._times(b, inner, min(a, b) < self.ab.n_even)",
           T_PBW),
    Mutant("_times ignores negate", PBW,
           "if negate:\n                v = -v",
           "if False:\n                v = -v",
           T_PBW),
    Mutant("_step returns its distribution unbudgeted", PBW,
           "        if len(out) > MAX_TERMS:\n            raise ValueError(f\"more than {MAX_TERMS} "
           "terms in one action step\")\n        return out\n\n    def _times",
           "        return out\n\n    def _times",
           T_PBW),
    Mutant("fused two-letter term drops its inner coefficient v", PBW,
           "axpy(out, c * v, caches[k].get(w) or act(k, w))",
           "axpy(out, c, caches[k].get(w) or act(k, w))",
           T_PBW),
    Mutant("one-term _times ignores its coefficient", PBW,
           "out = dict(image) if type(v) is int and v == 1 else {",
           "out = dict(image) if True else {",
           T_PBW),
    Mutant("serre_module_check builds a second action", PBW,
           "_first_failure(rs._action, ((w, pair)",
           "_first_failure(_ModuleAction(rs), ((w, pair)",
           T_PBW),
    Mutant("action keeps a reference back to its system", PBW,
           "        self.ab = rs.presentation.alphabet",
           "        self.rs = rs\n        self.ab = rs.presentation.alphabet",
           T_PBW),
    Mutant("normal_form maps back by the output's odd count only", PBW,
           "e = sum(g >= n for g in letters) - odd_in",
           "e = sum(g >= n for g in letters)",
           T_PBW),
    Mutant("normal_form map-back forgets the division by L", PBW,
           "action._spell(dist, odd_in, out, den)",
           "action._spell(dist, odd_in, out)",
           T_PBW),
    Mutant("normal_form leaves a Scalar coefficient off the common denominator", PBW,
           "c = c * den if type(c) is Scalar else",
           "c = c if type(c) is Scalar else",
           T_PBW),
    Mutant("map-back memo keyed without the exponent", PBW,
           "backs.get((v, e, den))) is None:\n                c = backs[v, e, den]",
           "backs.get((v, den))) is None:\n                c = backs[v, den]",
           T_PBW),
    Mutant("normal_form sums every word in one odd count", PBW,
           "sums.setdefault(sum(g >= n for g in word), {})",
           "sums.setdefault(0, {})",
           T_PBW),
    Mutant("_first_failure swap term reads w_b(w_b z_N)", PBW,
           "action._step(a, b, caches[a].get(nid) or act(a, nid), nid)",
           "action._step(a, b, caches[b].get(nid) or act(b, nid), nid)",
           T_PBW),
    Mutant("_act suffix walk resumes one suffix too short", PBW,
           "out = cache.get(word)\n            if out is not None:\n                break",
           "out = cache.get(tail[word])\n            if out is not None:\n                break",
           T_PBW),
    Mutant("serre stream's skip rule inverted", PBW,
           "if lo[b] >= hi[g]]",
           "if lo[b] < hi[g]]",
           T_PBW),
    Mutant("serre check leaves out the odd squares", PBW,
           "for b in range(size) if not ordered(a, b)]",
           "for b in range(size) if a != b and not ordered(a, b)]",
           T_PBW),
    Mutant("serre budget counts the skipped relations too", PBW,
           "count + sum(len(runs[w[0]]) for w in frontier)",
           "count + len(frontier) * len(pairs)",
           T_PBW),
    Mutant("serre runs made in index order, not longest first", PBW,
           "for g in rs.order.sequence:",
           "for g in range(size):",
           T_PBW),
    Mutant("serre letters counted one per word", PBW,
           "letters := letters + length * len(frontier)",
           "letters := letters + len(frontier)",
           T_PBW),
    Mutant("serre_module_check defaults to length 4", PBW,
           "rs: RewriteSystem, max_len: int = 3",
           "rs: RewriteSystem, max_len: int = 4",
           T_PBW),
    Mutant("serre check builds words when none can run", PBW,
           "[(g,) for g in range(size)] if count else []",
           "[(g,) for g in range(size)]",
           T_PBW),
    Mutant("check_admissible reads the least even position", PBW,
           "max(pos[k], pos[l])",
           "min(pos[k], pos[l])",
           T_PBW),
    Mutant("witness drops the p = q term", PBW,
           "        if (r, s) == (p, q):",
           "        elif (r, s) == (p, q):",
           T_PBW),
    Mutant("witness drops the 1/2 of the d_aa term", PBW,
           "(k, l, yb), v / 2)",
           "(k, l, yb), v)",
           T_PBW),
    Mutant("pair predicate orders odd squares", PBW,
           "lambda a, b: lo[a] < hi[b]",
           "lambda a, b: lo[a] < hi[b] or a == b",
           T_PBW),
    Mutant("pair predicate leaves out even squares", PBW,
           "lambda a, b: lo[a] < hi[b]",
           "lambda a, b: lo[a] < hi[b] and a != b",
           T_PBW),
    Mutant("lo treats an even square as unordered", PBW,
           "[h - (g < n) for g, h in enumerate(hi)]",
           "[h for g, h in enumerate(hi)]",
           T_PBW),
    # -- exact arithmetic ------------------------------------------------------
    Mutant("_half rounds an odd int", PRES,
           'raise ArithmeticError(f"cannot halve the odd integer {value} exactly")',
           "return Fraction(value, 2)",
           T_ATYP),
    Mutant("Scalar._merge keeps a cancelled monomial", SCAL,
           "elif new := (prev + c if sign > 0 else prev - c):",
           "elif (new := (prev + c if sign > 0 else prev - c)) is not None:",
           T_SCAL),
    Mutant("axpy keeps a cancelled entry", SCAL,
           "elif new := old + coeff * val:",
           "elif (new := old + coeff * val) is not None:",
           T_SCAL),
    Mutant("Scalar product divides by d1 only", SCAL,
           "den = d1 * d2",
           "den = d1",
           T_SCAL),
    Mutant("_canon drops the denominator", SCAL,
           "return v.numerator if v.denominator == 1 else v",
           "return v.numerator",
           T_SCAL),
    # -- a stored coefficient is an int exactly when integral ------------------
    Mutant("from_rational keeps an integral Fraction", SCAL,
           "value = _canon(value if isinstance(value, Fraction) else Fraction(value))",
           "value = value if isinstance(value, Fraction) else Fraction(value)",
           T_SCAL),
    Mutant("the constant-factor path leaves an integral Fraction", SCAL,
           "return _wrap({m: _canon(c * f) for m, c in self._terms.items()}) if f else ZERO",
           "return _wrap({m: c * f for m, c in self._terms.items()}) if f else ZERO",
           T_SCAL),
    Mutant("__truediv__ takes a float reciprocal", SCAL,
           "return self * (1 / Fraction(other))",
           "return self * (1 / other)",
           T_SCAL),
    # -- one path per operation in the coefficient layer ---------------------
    Mutant("a plain-rational left operand moves right unlowered", SCAL,
           "self, f = f, lower(self)",
           "self, f = f, self",
           T_SCAL),
    Mutant("Scalar * NCPoly raises again", SCAL,
           "            f = lower(other)\n        except TypeError:\n            return NotImplemented\n"
           "        if isinstance(f, Scalar)",
           "            f = lower(other)\n        except TypeError:\n            raise\n"
           "        if isinstance(f, Scalar)",
           "tests/test_ncpoly.py"),
    Mutant("NCPoly merge ignores the sign", "src/quadlie/ncpoly.py",
           "accumulate(acc, w, c if sign > 0 else -c)",
           "accumulate(acc, w, c)",
           "tests/test_ncpoly.py"),
    Mutant("SparseOp merge ignores the sign", FOCK,
           "axpy(dict(self.data), sign, other.data)",
           "axpy(dict(self.data), 1, other.data)",
           T_FOCK),
    Mutant("back multiplies by D where it divides", PRES,
           "            den *= self.scale ** -exponent",
           "            value = value * self.scale ** -exponent",
           T_PRES),
    Mutant("as_rational returns the raw int", SCAL,
           "return Fraction(self._terms[_ONE_MONO])",
           "return self._terms[_ONE_MONO]",
           T_SCAL),
    Mutant("_merge leaves an integral Fraction sum", SCAL,
           "acc[m] = _canon(new)",
           "acc[m] = new",
           T_SCAL),
    Mutant("general product leaves an integral Fraction", SCAL,
           "v if den == 1 else _canon(Fraction(v, den))",
           "v if den == 1 else Fraction(v, den)",
           T_SCAL),
    Mutant("lower makes a rational Scalar a Fraction", SCAL,
           "return value._terms.get(_ONE_MONO, 0) if value.is_rational() else value",
           "return value.as_rational() if value.is_rational() else value",
           T_SCAL),
    Mutant("Scalar's hash ignores the rational rule", SCAL,
           "if self.is_rational():\n            return hash(",
           "if False:\n            return hash(",
           T_SCAL),
    Mutant("join_terms drops the minus sign", SCAL,
           'out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"',
           'out += f" + {p[1:]}" if p.startswith("-") else f" + {p}"',
           T_SCAL),
    Mutant("invert_matrix adds the pivot row", "src/quadlie/linalg.py",
           "axpy(row, -f, pivot)",
           "axpy(row, f, pivot)",
           "tests/test_linalg.py"),
    # -- gl2(n/1) and the Fock oracle -----------------------------------------
    Mutant("adjoint_B delta-delta constant c - (n - 2)", GL2,
           "self.central - 2 * (n - 2)",
           "self.central - (n - 2)",
           T_GL2),
    Mutant("gl2(n/1) k2 sign flipped", GL2,
           "(Fraction(-1), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))",
           "(Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))",
           T_GL2),
    Mutant("_wedge_frame Q-block sign flipped", GL2,
           "cbar[eid(old, new), m + t, m + tgt] = -sign",
           "cbar[eid(old, new), m + t, m + tgt] = sign",
           T_GL2),
    Mutant("Weight.retained drops the dominance test", GL2,
           "return Weight(lam[:s - 1] + (lam[s - 1] - 1,) + lam[s:]).is_dominant_integral()",
           "return True",
           T_ATYP),
    Mutant("one-step scan hoist adds c + 1", "src/quadlie/atypicality.py",
           "a0v, b0v = a0c + cv, b0c + cv",
           "a0v, b0v = a0c + cv + 1, b0c + cv + 1",
           T_ATYP),
    Mutant("zero_step_demo root 3 for 4", FOCK,
           "m4 = m - one, m - one * 4",
           "m4 = m - one, m - one * 3",
           T_FOCK),
    Mutant("cross-check uses the commutator sign on odd-odd relations", FOCK,
           'swap = 1 if kind == "oo" else -1',
           "swap = -1",
           T_FOCK),
    Mutant("cross-check drops the scale L on the left side", FOCK,
           "terms = [((g1, g2), scale), ((g2, g1), swap * scale),",
           "terms = [((g1, g2), 1), ((g2, g1), swap),",
           T_FOCK),
    Mutant("zero_step_demo tests rows for columns", FOCK,
           "for _, c in op.data)",
           "for c, _ in op.data)",
           T_FOCK),
    Mutant("_zero_step at r = n drops 2/((n-1)(n-2))", "src/quadlie/atypicality.py",
           "residual = Fraction(2, (n - 1) * (n - 2)) * value",
           "residual = value",
           T_ATYP),
    Mutant("equivalence check treats r = n like r < n", "src/quadlie/atypicality.py",
           "if params.r == n:\n        return not mb * mb",
           "if False:\n        return not mb * mb",
           T_ATYP),
    Mutant("family guard accepts mu = nu at r < n", "src/quadlie/atypicality.py",
           "type(gap) is int and gap <= 0",
           "type(gap) is int and gap < 0",
           T_ATYP),
    Mutant("one-step budget is not checked", "src/quadlie/atypicality.py",
           "(2 * scan_bound + 1) ** 2 > MAX_SCAN_CELLS",
           "(2 * scan_bound + 1) ** 2 > MAX_SCAN_CELLS and False",
           T_ATYP),
    Mutant("tensor index check accepts a float", PRES,
           "if not set(map(type, column)) <= {int}:",
           "if not set(map(type, column)) <= {int, float}:",
           T_PRES),
    Mutant("sbar drops its permutation sign", GL2,
           "pref * _perm_sign(tuple(indices) + perm)",
           "pref",
           T_GL2),
    # -- the command line --------------------------------------------------
    Mutant("parser reports truncated input as a token", "src/quadlie/exprparse.py",
           'f"unexpected token {val!r}" if kind else "unexpected end of input"',
           'f"unexpected token {val!r}"',
           "tests/test_exprparse.py"),
    Mutant("the sign binds tighter than ^", "src/quadlie/exprparse.py",
           "inner = self.parse_signed()\n"
           "        self.depth -= 1\n"
           '        return inner if val == "+" else -inner',
           'inner = self.parse_signed() if self.tokens[self.pos][1] in ("+", "-") '
           "else self.parse_atom()\n"
           "        self.depth -= 1\n"
           '        return self.parse_power(inner if val == "+" else -inner)',
           "tests/test_exprparse.py"),
    Mutant("serre-check takes --n with a file", "src/quadlie/cli.py",
           "if args.n is not None or args.c is not None:",
           "if args.c is not None:",
           T_CLI),
    Mutant("serre-check defaults to length 4", "src/quadlie/cli.py",
           'sub.add_argument("--max-len", type=int, default=3)',
           'sub.add_argument("--max-len", type=int, default=4)',
           T_CLI),
    Mutant("run exits 0 whatever passed says", "src/quadlie/cli.py",
           'return PASS if report.get("passed", True) else FAIL',
           "return PASS",
           T_CLI),
    Mutant("_power's products are not counted", "src/quadlie/exprparse.py",
           "result = self._mul(result, base)\n"
           "            exp >>= 1\n"
           "            if exp:\n"
           "                base = self._mul(base, base)",
           "result = result * base\n"
           "            exp >>= 1\n"
           "            if exp:\n"
           "                base = base * base",
           "tests/test_exprparse.py"),
    Mutant("one-term product drops the second coefficient", "src/quadlie/ncpoly.py",
           "{w1 + w2: c1 * c2}",
           "{w1 + w2: c1}",
           "tests/test_ncpoly.py"),
    Mutant("parser counts words, not (word, monomial) pairs", "src/quadlie/exprparse.py",
           "self._count(_size(a) * _size(b))",
           "self._count(len(a.terms) * len(b.terms))",
           "tests/test_exprparse.py"),
    Mutant("a run of generators does not count a letter's product", "src/quadlie/exprparse.py",
           "self._count(_size(acc))",
           "pass",
           "tests/test_exprparse.py"),
    Mutant("a run of generators takes one that a ^ follows", "src/quadlie/exprparse.py",
           'kind == "gen" and tokens[self.pos + 1][1] != "^" and',
           'kind == "gen" and',
           "tests/test_exprparse.py"),
    Mutant("an indexed generator token skips the alphabet's bounds check",
           "src/quadlie/exprparse.py",
           "self.alphabet.parity(g)  # bounds check\n",
           "",
           "tests/test_exprparse.py"),
    Mutant("a generator id need not be an int", "src/quadlie/ncpoly.py",
           "if type(g) is not int:",
           "if False:",
           "tests/test_ncpoly.py"),
    Mutant("an order entry need not be an int", PBW,
           "or set(map(type, seq)) - {int}:",
           ":",
           T_PBW),
    Mutant("error quote ignores MAX_QUOTE", "src/quadlie/exprparse.py",
           "if len(text) <= MAX_QUOTE:",
           "if True:",
           "tests/test_exprparse.py"),
    Mutant("the power bound reads the base's bits, not times the exponent",
           "src/quadlie/exprparse.py",
           "if int(val) * _bits(base) > MAX_BITS:",
           "if _bits(base) > MAX_BITS:",
           "tests/test_exprparse.py"),
    Mutant("a product's bits are not bounded", "src/quadlie/exprparse.py",
           "if _bits(a) + _bits(b) > MAX_BITS:",
           "if False:",
           "tests/test_exprparse.py"),
    Mutant("a division's bits are not bounded", "src/quadlie/exprparse.py",
           "self._check_bits(acc, divisor)  # 1/r has the bits of r",
           "pass",
           "tests/test_exprparse.py"),
    Mutant("a usage error prints argparse's usage lines", "src/quadlie/cli.py",
           'self.exit(USAGE, f"error: {message}\\n")',
           "super().error(message)",
           T_CLI),
    Mutant("the power bound leaves out the denominators", "src/quadlie/exprparse.py",
           "return log2(max(den, sum(",
           "return log2(max(1, sum(",
           "tests/test_exprparse.py"),
    Mutant("a --mu value is read as a Python Fraction", "src/quadlie/cli.py",
           "        return parse_scalar(text, ())",
           "        return Scalar.from_rational(__import__('fractions').Fraction(text))",
           T_CLI),
    Mutant("the work bound compares against 1000x the constant", "src/quadlie/exprparse.py",
           "if self.work > MAX_WORK:",
           "if self.work > 1000 * MAX_WORK:",
           "tests/test_exprparse.py"),
]


def check_list(mutants: List[Mutant]) -> None:
    """Exit with a message unless each old text occurs exactly once in its
    file and each test file exists."""
    bad = []
    for m in mutants:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            bad.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if not (ROOT / m.tests).is_file():
            bad.append(f"{m.name}: no test file {m.tests}")
    if bad:
        sys.exit("mutant list out of date:\n  " + "\n  ".join(bad))


def run_pytest(copy: Path, args: List[str]) -> Tuple[Optional[bool], str]:
    """(passed, first failing test) of one pytest run in copy; passed is
    None when the run timed out.  No bytecode is written, so a restored
    file is never shadowed by a mutant's cached bytecode."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timeout"
    if proc.returncode not in (0, 1, 2):
        sys.exit(f"pytest {' '.join(args)} exited {proc.returncode}:\n{proc.stdout}")
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else ""


def main() -> int:
    check_list(MUTANTS)
    tier1 = ["--continue-on-collection-errors"]
    with tempfile.TemporaryDirectory(prefix="quadlie-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"))
        passed, where = run_pytest(copy, tier1)
        if not passed:
            sys.exit(f"tier-1 fails without a mutant: {where}")
        survivors = []
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                passed, where = run_pytest(copy, [m.tests])
                stage = m.tests
                if passed:
                    passed, where = run_pytest(copy, tier1)
                    stage = "tier-1"
            finally:
                target.write_text(original)
            took = time.perf_counter() - start
            if passed:
                survivors.append(m.name)
                print(f"SURVIVED  {m.name}  ({took:.1f} s)", flush=True)
            else:
                print(f"killed    {m.name}  by {stage}: {where}  ({took:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
