"""Command-line front end: run verifications and print exact reports.

Subcommands map one-to-one onto library operations:

  verify-presentation  both Jacobi checkers on a presentation file
  normal-form          rewrite an expression to ordered-monomial form
  family-report        closed-form data for the rectangular family
  atypicality-report   level-1 analysis and zero-step status
  zero-step-table      integer solutions of the zero-step condition
  fock-check           fermionic-realization checks (n = 4)
  serre-check          defining relations on the module of ordered words

Exit codes: 0 on pass, 1 on verification failure, 2 on usage errors.
All numbers are exact rationals or polynomials; output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .atypicality import atypicality_report, table_zero_step
from .exprparse import ParseError, parse_ncpoly
from .fock import bracket_polynomial_check, zero_step_demo
from .gl2n1 import FamilyParams, build, family_data
from .ncpoly import word_key
from .pbw import GeneratorOrder, RewriteSystem, serre_module_check
from .presentation import JacobiReport, QlsPresentation
from .scalars import Scalar

PASS, FAIL, USAGE = 0, 1, 2


class CliError(Exception):
    """Usage-level error: bad flags, unreadable file, malformed input."""


def _parse_value(text: str, symbol: str) -> Scalar:
    """A rational like '3' or '5/2', or the word 'symbolic'."""
    if text == "symbolic":
        return Scalar.var(symbol)
    try:
        return Scalar.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad value for --{symbol}: {text!r}") from exc


def _emit(report: dict, fmt: str, lines: List[str]) -> None:
    if fmt == "structured":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _jacobi_dict(rep: JacobiReport) -> dict:
    return {
        "method": rep.method,
        "passed": rep.passed,
        "violations": [
            {
                "family": v.family,
                "indices": list(v.indices),
                "residual": str(v.residual),
                "detail": v.detail,
            }
            for v in rep.violations
        ],
    }


def _cmd_verify_presentation(args) -> int:
    try:
        pres = QlsPresentation.load(args.file)
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read presentation {args.file!r}: {exc}") from exc
    comp = pres.check_component_jacobi()
    abst = pres.check_abstract_jacobi()
    passed = comp.passed and abst.passed
    report = {
        "command": "verify-presentation",
        "file": args.file,
        "n_even": pres.n_even,
        "m_odd": pres.m_odd,
        "component": _jacobi_dict(comp),
        "abstract": _jacobi_dict(abst),
        "passed": passed,
    }
    _emit(report, args.format, [
        f"presentation: {args.file} ({pres.n_even} even, {pres.m_odd} odd)",
        comp.summary(),
        abst.summary(),
        f"result: {'PASS' if passed else 'FAIL'}",
    ])
    return PASS if passed else FAIL


def _make_algebra(args):
    if args.algebra != "gl2n1":
        raise CliError(f"unknown algebra {args.algebra!r}")
    central = _parse_value(args.c, "c") if args.c is not None else None
    try:
        return build(args.n, central)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_order(spec: str, alphabet) -> GeneratorOrder:
    names = [s.strip() for s in spec.split(",")]
    try:
        seq = [list(alphabet.names).index(nm) for nm in names]
    except ValueError as exc:
        raise CliError(f"unknown generator in --order: {exc}") from exc
    if sorted(seq) != list(range(alphabet.size)):
        raise CliError("--order must list every generator exactly once")
    return GeneratorOrder(seq)


def _cmd_normal_form(args) -> int:
    alg = _make_algebra(args)
    if args.order:
        order = _parse_order(args.order, alg.alphabet)
        rs = RewriteSystem(alg.presentation, order)
        if not rs.admissible:
            raise CliError(
                "inadmissible order: witness d-index "
                f"{rs.admissibility_witness}"
            )
    else:
        rs = alg.rewrite
    try:
        elem = parse_ncpoly(
            args.expression, alg.alphabet, alg.resolve,
            indeterminates=alg.presentation.indeterminates,
        )
    except ParseError as exc:
        raise CliError(f"malformed expression: {exc}") from exc
    nf = rs.normal_form(elem)
    report = {
        "command": "normal-form",
        "algebra": args.algebra,
        "n": args.n,
        "input": args.expression,
        "normal_form": str(nf),
        "terms": [
            {
                "word": [alg.alphabet.names[g] for g in word],
                "coefficient": str(coeff),
            }
            for word, coeff in sorted(nf.terms.items(), key=lambda t: word_key(t[0]))
        ],
    }
    _emit(report, args.format, [str(nf)])
    return PASS


def _family_params(args) -> FamilyParams:
    mu = _parse_value(args.mu, "mu")
    nu = _parse_value(args.nu, "nu")
    try:
        return FamilyParams(args.n, args.r, mu, nu)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_family_report(args) -> int:
    params = _family_params(args)
    central = _parse_value(args.c, "c")
    data = family_data(params, central)
    report = {
        "command": "family-report",
        **{k: (v if isinstance(v, int) else str(v)) for k, v in data.items()},
    }
    lines = [f"family (mu^r, nu^(n-r)) with n={data['n']}, r={data['r']}"]
    for key in sorted(data):
        if key not in ("n", "r"):
            lines.append(f"  {key} = {data[key]}")
    _emit(report, args.format, lines)
    return PASS


def _cmd_atypicality_report(args) -> int:
    params = _family_params(args)
    central = _parse_value(args.c, "c")
    try:
        rep = atypicality_report(params, central)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    zs = rep["zero_step"]
    report = {
        "command": "atypicality-report",
        "n": params.n,
        "r": params.r,
        "mu": str(params.mu),
        "nu": str(params.nu),
        "central": str(rep["central"]),
        "roots": {str(s): str(v) for s, v in sorted(rep["roots"].items())},
        "a_values": {str(s): str(v) for s, v in sorted(rep["a_values"].items())},
        "zero_step": zs if isinstance(zs, (bool, str)) else str(zs),
        "levels": {str(k): v for k, v in sorted(rep["levels"].items())},
    }
    lines = [
        f"atypicality for n={params.n}, r={params.r}, "
        f"mu={params.mu}, nu={params.nu}, c={rep['central']}"
    ]
    for s in sorted(rep["roots"]):
        lines.append(
            f"  root alpha'_{s} = {rep['roots'][s]}: a = {rep['a_values'][s]}"
        )
    lines.append(f"  zero-step: {report['zero_step']}")
    for lvl in sorted(rep["levels"]):
        lines.append(f"  level {lvl}: {rep['levels'][lvl]}")
    return _finish(report, args.format, lines)


def _finish(report: dict, fmt: str, lines: List[str]) -> int:
    _emit(report, fmt, lines)
    return PASS


def _cmd_zero_step_table(args) -> int:
    rows = table_zero_step(args.n_max)
    report = {
        "command": "zero-step-table",
        "n_max": args.n_max,
        "rows": [{"n": n, "r": r, "mu": k} for n, r, k in rows],
    }
    lines = ["  n  r  mu"]
    lines += [f"{n:3d}{r:3d}{k:4d}" for n, r, k in rows]
    lines.append(f"{len(rows)} zero-step modules V(mu^r, 0^(n-r))")
    _emit(report, args.format, lines)
    return PASS


def _cmd_fock_check(args) -> int:
    if args.n != 4:
        raise CliError("fock-check is implemented for --n 4")
    bracket = bracket_polynomial_check(args.n)
    demo = zero_step_demo(args.n)
    passed = bracket["holds"] and demo["passed"]
    report = {
        "command": "fock-check",
        "n": args.n,
        "bracket_identity": {
            "holds_as_printed": bracket["holds"],
            "components_checked": bracket["components_checked"],
        },
        "zero_step_demo": {
            k: v for k, v in demo.items() if isinstance(v, (bool, int, tuple))
        },
        "passed": passed,
    }
    lines = [f"fock-space checks, n = {args.n}"]
    lines.append(f"  bracket identity: {'exact' if bracket['holds'] else 'FAIL'}")
    for key in ("q_annihilates", "qbar_annihilates", "char_identity_holds",
                "root_1_attained", "root_4_attained", "rhs_vanishes"):
        lines.append(f"  {key}: {'pass' if demo[key] else 'FAIL'}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    _emit(report, args.format, lines)
    return PASS if passed else FAIL


def _cmd_serre_check(args) -> int:
    if args.file:
        try:
            pres = QlsPresentation.load(args.file)
        except (OSError, ValueError, KeyError) as exc:
            raise CliError(
                f"cannot read presentation {args.file!r}: {exc}"
            ) from exc
    else:
        pres = _make_algebra(args).presentation
    order = (
        _parse_order(args.order, pres.alphabet)
        if args.order else GeneratorOrder.default(pres.alphabet)
    )
    try:
        rs = RewriteSystem(pres, order)
        ok, witness = serre_module_check(rs, max_len=args.max_len)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = {
        "command": "serre-check",
        "max_len": args.max_len,
        "passed": ok,
        "witness": None if witness is None else {
            "a": pres.alphabet.names[witness[0]],
            "b": pres.alphabet.names[witness[1]],
            "word": [pres.alphabet.names[g] for g in witness[2]],
        },
    }
    lines = [f"module relation check up to length {args.max_len}"]
    if ok:
        lines.append("result: PASS")
    else:
        a, b, word = witness
        lines.append(
            "first failure: relation ("
            f"{pres.alphabet.names[a]}, {pres.alphabet.names[b]}) on word "
            + " ".join(pres.alphabet.names[g] for g in word)
        )
        lines.append("result: FAIL")
    _emit(report, args.format, lines)
    return PASS if ok else FAIL


def _add_family_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--mu", required=True,
                     help="rational or 'symbolic'")
    sub.add_argument("--nu", required=True,
                     help="rational or 'symbolic'")
    sub.add_argument("--c", required=True,
                     help="central charge: rational or 'symbolic'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadlie",
        description="Exact computer algebra for quadratic Lie superalgebras.",
    )
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify-presentation",
                          help="run both Jacobi checkers on a file")
    sub.add_argument("file")
    sub.set_defaults(func=_cmd_verify_presentation)

    sub = subs.add_parser("normal-form",
                          help="ordered-monomial form of an expression")
    sub.add_argument("--algebra", default="gl2n1")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--c", help="central charge: rational or 'symbolic'")
    sub.add_argument("--order",
                     help="comma-separated generator names")
    sub.add_argument("expression")
    sub.set_defaults(func=_cmd_normal_form)

    sub = subs.add_parser("family-report",
                          help="closed-form rectangular-family data")
    _add_family_flags(sub)
    sub.set_defaults(func=_cmd_family_report)

    sub = subs.add_parser("atypicality-report",
                          help="level-1 analysis and zero-step status")
    _add_family_flags(sub)
    sub.set_defaults(func=_cmd_atypicality_report)

    sub = subs.add_parser("zero-step-table",
                          help="integer zero-step family table")
    sub.add_argument("--n-max", type=int, required=True)
    sub.set_defaults(func=_cmd_zero_step_table)

    sub = subs.add_parser("fock-check",
                          help="fermionic-realization verification")
    sub.add_argument("--n", type=int, default=4)
    sub.set_defaults(func=_cmd_fock_check)

    sub = subs.add_parser("serre-check",
                          help="defining relations on ordered words")
    sub.add_argument("file", nargs="?",
                     help="presentation file (default: built-in algebra)")
    sub.add_argument("--algebra", default="gl2n1")
    sub.add_argument("--n", type=int, default=3)
    sub.add_argument("--c", help="central charge: rational or 'symbolic'")
    sub.add_argument("--order", help="comma-separated generator names")
    sub.add_argument("--max-len", type=int, default=4)
    sub.set_defaults(func=_cmd_serre_check)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
