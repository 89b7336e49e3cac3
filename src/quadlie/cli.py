"""Command-line front end: run verifications and print exact reports.

Subcommands map one-to-one onto library operations:

  verify-presentation  both Jacobi checkers on a presentation file
  normal-form          rewrite an expression to ordered-monomial form
  family-report        closed-form data for the rectangular family
  atypicality-report   level-1 analysis and zero-step status
  zero-step-table      integer solutions of the zero-step condition
  fock-check           fermionic-realization checks (n = 4)
  serre-check          defining relations on the module of ordered words

Each command returns its report and its text lines; `run` alone prints
one or the other and picks the exit code from the report's "passed":
0 when it is true or absent, 1 when a verification fails, and 2 on usage
errors or refused input.
All numbers are exact rationals or polynomials; output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .atypicality import atypicality_report, table_zero_step
from .exprparse import ParseError, parse_ncpoly, parse_scalar
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
    """A rational in the syntax of a .qls entry, like '3', '-5/2' or
    '2^10', or the word 'symbolic'."""
    if text == "symbolic":
        return Scalar.var(symbol)
    try:
        return parse_scalar(text, ())
    except ParseError as exc:
        raise CliError(f"bad value for --{symbol}: {text!r}") from exc


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
        "checked": rep.checked,  # identities checked per family
    }


def _load_presentation(path: str) -> QlsPresentation:
    try:
        return QlsPresentation.load(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read presentation {path!r}: {exc}") from exc


def _cmd_verify_presentation(args) -> Tuple[dict, List[str]]:
    pres = _load_presentation(args.file)
    try:
        pres.check_triple_budget()  # before either checker runs
        comp = pres.check_component_jacobi()
        abst = pres.check_abstract_jacobi()
    except ValueError as exc:
        raise CliError(f"cannot check presentation {args.file!r}: {exc}") from exc
    passed = comp.passed and abst.passed
    report = {
        "file": args.file,
        "n_even": pres.n_even,
        "m_odd": pres.m_odd,
        "component": _jacobi_dict(comp),
        "abstract": _jacobi_dict(abst),
        "passed": passed,
    }
    return report, [
        f"presentation: {args.file} ({pres.n_even} even, {pres.m_odd} odd)",
        comp.summary(),
        abst.summary(),
        f"result: {'PASS' if passed else 'FAIL'}",
    ]


def _make_algebra(args):
    central = _parse_value(args.c, "c") if args.c is not None else None
    return build(3 if args.n is None else args.n, central)  # serre-check's default


def _parse_order(spec: str, alphabet) -> GeneratorOrder:
    names = [s.strip() for s in spec.split(",")]
    for i, name in enumerate(names):
        if name not in alphabet.names:
            raise CliError(f"unknown generator in --order: {name!r}")
        if name in names[:i]:
            raise CliError(f"--order names {name} twice")
    if missing := [name for name in alphabet.names if name not in names]:
        more = ", ..." if len(missing) > 3 else ""
        raise CliError(f"--order leaves out {', '.join(missing[:3])}{more}")
    return GeneratorOrder([alphabet.names.index(name) for name in names])


def _cmd_normal_form(args) -> Tuple[dict, List[str]]:
    alg = _make_algebra(args)
    order = _parse_order(args.order, alg.alphabet) if args.order else None
    rs = RewriteSystem(alg.presentation, order)
    try:
        elem = parse_ncpoly(
            args.expression, alg.alphabet, alg.resolve,
            indeterminates=alg.presentation.indeterminates,
        )
        nf = rs.normal_form(elem)
    except ParseError as exc:
        raise CliError(f"malformed expression: {exc}") from exc
    report = {
        "algebra": "gl2n1",
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
    return report, [str(nf)]


def _family_params(args) -> FamilyParams:
    mu = _parse_value(args.mu, "mu")
    nu = _parse_value(args.nu, "nu")
    return FamilyParams(args.n, args.r, mu, nu)


def _cmd_family_report(args) -> Tuple[dict, List[str]]:
    params = _family_params(args)
    central = _parse_value(args.c, "c")
    data = family_data(params, central)
    report = {k: (v if isinstance(v, int) else str(v)) for k, v in data.items()}
    lines = [f"family (mu^r, nu^(n-r)) with n={data['n']}, r={data['r']}"]
    for key in sorted(data):
        if key not in ("n", "r"):
            lines.append(f"  {key} = {data[key]}")
    return report, lines


def _cmd_atypicality_report(args) -> Tuple[dict, List[str]]:
    params = _family_params(args)
    central = _parse_value(args.c, "c")
    rep = atypicality_report(params, central)
    zs = rep["zero_step"]
    report = {
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
    return report, lines


def _cmd_zero_step_table(args) -> Tuple[dict, List[str]]:
    rows = table_zero_step(args.n_max)
    report = {
        "n_max": args.n_max,
        "rows": [{"n": n, "r": r, "mu": k} for n, r, k in rows],
    }
    lines = ["  n  r  mu"]
    lines += [f"{n:3d}{r:3d}{k:4d}" for n, r, k in rows]
    lines.append(f"{len(rows)} zero-step modules V(mu^r, 0^(n-r))")
    return report, lines


def _cmd_fock_check(args) -> Tuple[dict, List[str]]:
    bracket = bracket_polynomial_check()
    demo = zero_step_demo()
    passed = bracket["holds"] and demo["passed"]
    report = {
        "n": 4,
        "bracket_identity": {
            "holds_as_printed": bracket["holds"],
            "components_checked": bracket["components_checked"],
        },
        "zero_step_demo": {
            k: v for k, v in demo.items() if isinstance(v, (bool, int, tuple))
        },
        "passed": passed,
    }
    lines = ["fock-space checks, n = 4"]
    lines.append(f"  bracket identity: {'exact' if bracket['holds'] else 'FAIL'}")
    for key in ("q_annihilates", "qbar_annihilates", "char_identity_holds",
                "root_1_attained", "root_4_attained", "rhs_vanishes"):
        lines.append(f"  {key}: {'pass' if demo[key] else 'FAIL'}")
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    return report, lines


def _cmd_serre_check(args) -> Tuple[dict, List[str]]:
    if args.file:
        if args.n is not None or args.c is not None:
            raise CliError("--n and --c choose the built-in algebra, not a file")
        pres = _load_presentation(args.file)
    else:
        pres = _make_algebra(args).presentation
    order = _parse_order(args.order, pres.alphabet) if args.order else None
    rs = RewriteSystem(pres, order)
    ok, witness = serre_module_check(rs, max_len=args.max_len)
    report = {
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
    return report, lines


C_HELP = "central charge: rational or 'symbolic'; a negative one as --c=-3/2"


def _add_family_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--mu", required=True,
                     help="rational or 'symbolic'; a negative one as --mu=-5/2")
    sub.add_argument("--nu", required=True,
                     help="rational or 'symbolic'; a negative one as --nu=-1")
    sub.add_argument("--c", required=True, help=C_HELP)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with a usage error on one line, as every refusal is."""

    def error(self, message):
        self.exit(USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--c", help=C_HELP)
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
    sub.set_defaults(func=_cmd_fock_check)

    sub = subs.add_parser("serre-check",
                          help="defining relations on ordered words")
    sub.add_argument("file", nargs="?",
                     help="presentation file (default: built-in algebra)")
    sub.add_argument("--n", type=int, help="default 3; not with a file")
    sub.add_argument("--c", help=f"{C_HELP}; not with a file")
    sub.add_argument("--order", help="comma-separated generator names")
    sub.add_argument("--max-len", type=int, default=3)
    sub.set_defaults(func=_cmd_serre_check)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    """Run one command and print its report (structured) or its lines."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else PASS
    try:
        report, lines = args.func(args)
        report["command"] = args.command
        if args.format == "structured":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
    except (CliError, ValueError) as exc:  # ValueError: refused input or budget
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return PASS if report.get("passed", True) else FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
