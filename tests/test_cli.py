"""Command-line interface: exit codes, determinism, structured output."""

import hashlib
import json
import os
import time

import pytest

from quadlie.atypicality import MAX_N
from quadlie.cli import run
from quadlie.exprparse import MAX_BITS, MAX_WORK
from quadlie.gl2n1 import build
from quadlie.pbw import MAX_TERMS, GeneratorOrder, check_admissible
from quadlie.presentation import MAX_TRIPLES, QlsPresentation


EXAMPLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "gl2_3_1.qls",
)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _presentation_file(tmp_path, perturb=False):
    pres = build(3, 1).presentation
    if perturb:
        d = dict(pres.d)
        # break Jacobi while keeping the required tensor symmetries
        for key in [(0, 3, 0, 1), (0, 3, 1, 0), (3, 0, 0, 1), (3, 0, 1, 0)]:
            d[key] = d.get(key, 0) + 7
        pres = QlsPresentation(
            pres.n_even, pres.m_odd, c=pres.c, cbar=pres.cbar,
            d=d, b=pres.b, a=pres.a, names=pres.alphabet.names,
        )
    path = tmp_path / ("bad.qls" if perturb else "good.qls")
    path.write_text(pres.dumps())
    return str(path), pres


def test_verify_presentation_pass(tmp_path, capsys):
    path, _ = _presentation_file(tmp_path)
    code, out, _ = _run(capsys, "verify-presentation", path)
    assert code == 0
    assert "result: PASS" in out


def test_verify_presentation_fail(tmp_path, capsys):
    path, _ = _presentation_file(tmp_path, perturb=True)
    code, out, _ = _run(capsys, "verify-presentation", path)
    assert code == 1
    assert "result: FAIL" in out


def test_saved_file_round_trips(tmp_path):
    path, pres = _presentation_file(tmp_path)
    again = QlsPresentation.load(path)
    assert again.c == pres.c
    assert again.cbar == pres.cbar
    assert again.d == pres.d
    assert again.b == pres.b
    assert again.a == pres.a
    assert again.alphabet == pres.alphabet


def test_output_is_deterministic(tmp_path, capsys):
    path, _ = _presentation_file(tmp_path)
    outputs = set()
    for _ in range(2):
        _, out, _ = _run(capsys, "--format", "structured",
                         "verify-presentation", path)
        outputs.add(out)
    assert len(outputs) == 1


def test_structured_verify_prints_checked_counts(tmp_path, capsys):
    # each checker's `checked` next to its violations; text output unchanged
    path, pres = _presentation_file(tmp_path, perturb=True)
    code, out, _ = _run(capsys, "--format", "structured", "verify-presentation", path)
    assert code == 1
    doc = json.loads(out)
    for rep in (pres.check_component_jacobi(), pres.check_abstract_jacobi()):
        assert doc[rep.method]["checked"] == rep.checked
        assert len(doc[rep.method]["violations"]) == len(rep.violations) > 0
    _, text, _ = _run(capsys, "verify-presentation", path)
    assert "checked" not in text


def test_usage_errors_exit_2(capsys):
    code, _, _ = _run(capsys, "no-such-command")
    assert code == 2
    code, _, err = _run(capsys, "fock-check", "--n", "5")
    assert code == 2 and "error:" in err
    code, _, err = _run(capsys, "family-report", "--n", "3", "--r", "2",
                        "--mu", "x", "--nu", "0", "--c", "0")
    assert code == 2 and "bad value" in err
    for argv in (("normal-form", "--algebra", "other", "--n", "2", "E[1,1]"),
                 ("serre-check", "--algebra", "other")):
        code, out, _ = _run(capsys, *argv)
        assert code == 2 and out == ""


@pytest.mark.parametrize("value", ["1e3000000", "1.5", "nan", "1/0", "x", "2 +"])
def test_bad_value_exits_2_at_once(capsys, value):
    # --mu takes the syntax of a .qls entry: no decimal, exponent or nan
    start = time.perf_counter()
    code, out, err = _run(capsys, "family-report", "--n", "3", "--r", "1",
                          "--mu", value, "--nu", "0", "--c", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: bad value for --mu: {value!r}\n"


def test_values_take_the_entry_syntax(capsys):
    # --c, --mu and --nu read "5/2", "10/4" and "(1 + 3/2)" alike
    outs = {_run(capsys, "family-report", "--n", "3", "--r", "1", "--mu", mu,
                 "--nu", nu, "--c", c)[1]
            for mu, nu, c in (("5/2", "1/2", "3"), ("10/4", "2/4", "6/2"),
                              ("(1 + 3/2)", "1/(1+1)", "1+2"))}
    assert len(outs) == 1 and "n=3, r=1" in outs.pop()


def test_negative_values_go_after_an_equals_sign(capsys):
    # a negative value after "=" runs; given as its own argument, argparse
    # reads -5/2 as an option, and the command exits 2 with one line
    code, out, err = _run(capsys, "family-report", "--n", "3", "--r", "1",
                          "--mu=-5/2", "--nu=-1", "--c=-3/2")
    assert code == 0 and err == ""
    assert "mubar = -1/2" in out and "nubar = -1" in out
    code, out, err = _run(capsys, "family-report", "--n", "3", "--r", "1",
                          "--mu", "-5/2", "--nu", "0", "--c", "1")
    assert code == 2 and out == ""
    assert err == "error: argument --mu: expected one argument\n"


def test_unreadable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.qls"
    path.write_text("not a presentation")
    code, _, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2 and "error:" in err


def test_generator_count_past_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 10**9, "m_odd": 0}))
    code, out, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_normal_form_text(capsys):
    code, out, _ = _run(capsys, "normal-form", "--n", "3",
                        "Q[1] Qbar[1]")
    assert code == 0
    line = out.strip()
    assert "Qbar1*Q1" in line and "c" in line
    assert "E2_2*E3_3" in line


def test_normal_form_structured(capsys):
    code, out, _ = _run(capsys, "--format", "structured", "normal-form",
                        "--n", "2", "--c", "5", "Qbar[1] Q[1] + Q[1] Qbar[1]")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "normal-form"
    terms = {tuple(t["word"]): t["coefficient"] for t in data["terms"]}
    assert terms == {(): "5", ("E2_2",): "-1"}


def test_normal_form_bad_expression(capsys):
    code, _, err = _run(capsys, "normal-form", "--n", "3", "E[1")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("expression", ["", "2 +", "(", "E[1,1] *", "2/"])
def test_normal_form_truncated_expression_exits_2(capsys, expression):
    code, out, err = _run(capsys, "normal-form", "--n", "2", expression)
    assert code == 2 and out == ""
    assert err == "error: malformed expression: unexpected end of input\n"


def test_normal_form_inadmissible_order_rejected(capsys):
    alg = build(3)
    names = list(alg.alphabet.names)
    reordered = ",".join(names[9:] + names[:9])  # odds before evens
    code, _, err = _run(capsys, "normal-form", "--n", "3",
                        "--order", reordered, "E[1,1]")
    assert code == 2 and "inadmissible" in err


def test_family_report_symbolic(capsys):
    code, out, _ = _run(capsys, "--format", "structured", "family-report",
                        "--n", "4", "--r", "2", "--mu", "symbolic",
                        "--nu", "0", "--c", "symbolic")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["r"] == 2
    assert "mu" in data["C1_prime"]


def test_atypicality_report_zero_step_row(capsys):
    # table row (3, 2, 1) with its solved central charge
    code, out, _ = _run(capsys, "--format", "structured",
                        "atypicality-report", "--n", "3", "--r", "2",
                        "--mu", "1", "--nu", "0", "--c", "2")
    assert code == 0
    data = json.loads(out)
    assert data["zero_step"] is True
    assert set(data["a_values"].values()) == {"0"}


@pytest.mark.parametrize("r, code", [(1, 2), (2, 2), (3, 0)])
def test_atypicality_report_refuses_an_unretained_shift(capsys, r, code):
    # Lambda = (0,0,0): at r < n, mu - nu = 0 leaves s = r unretained
    got, out, err = _run(capsys, "atypicality-report", "--n", "3", "--r", str(r),
                         "--mu", "0", "--nu", "0", "--c", "0")
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "shift s = r is not retained" in err
    else:
        assert "zero-step: True" in out and "level 1: killed" in out


def test_zero_step_table(capsys):
    code, out, _ = _run(capsys, "--format", "structured",
                        "zero-step-table", "--n-max", "10")
    assert code == 0
    data = json.loads(out)
    rows = [(r["n"], r["r"], r["mu"]) for r in data["rows"]]
    assert len(rows) == 14
    assert (3, 2, 1) in rows and (5, 3, 1) in rows and (9, 3, 3) in rows


@pytest.mark.parametrize("argv", [
    ["zero-step-table", "--n-max", str(MAX_N + 1)],
    ["atypicality-report", "--n", str(MAX_N + 1), "--r", "2", "--mu", "1",
     "--nu", "0", "--c", "2"],
], ids=["zero-step-table", "atypicality-report"])
def test_n_past_budget_exits_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"= {MAX_N + 1} is more than {MAX_N}" in err


def test_value_error_in_a_report_exits_2(capsys):
    # the closed forms at a 3000-digit mu hold integers past the
    # interpreter's digit limit for str(): refused with one line, no traceback
    code, out, err = _run(capsys, "family-report", "--n", "3", "--r", "2",
                          "--mu", "9" * 3000, "--nu", "0", "--c", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "digits" in err


def test_fock_check(capsys):
    code, out, _ = _run(capsys, "fock-check")
    assert code == 0
    assert "bracket identity: exact" in out
    assert "result: PASS" in out
    code, out, _ = _run(capsys, "--format", "structured", "fock-check")
    assert json.loads(out)["bracket_identity"]["holds_as_printed"] is True


def test_serre_check_builtin(capsys):
    code, out, _ = _run(capsys, "serre-check", "--n", "3", "--max-len", "3")
    assert code == 0
    assert "result: PASS" in out


def test_serre_check_default_length_is_3(capsys):
    # length 3 decides (DECISIONS.md): gl2(6/1) runs 16,140 relations there
    code, out, err = _run(capsys, "serre-check", "--n", "6")
    assert code == 0 and err == ""
    assert out == "module relation check up to length 3\nresult: PASS\n"


def test_serre_check_inadmissible_order_exits_2(capsys):
    pres = build(3).presentation
    names = list(pres.alphabet.names)
    odds_first = GeneratorOrder(list(range(9, 15)) + list(range(9)))
    witness = check_admissible(pres, odds_first)[1]
    code, out, err = _run(capsys, "serre-check", "--n", "3", "--max-len", "3",
                          "--order", ",".join(names[9:] + names[:9]))
    assert code == 2 and out == ""
    assert err == f"error: inadmissible order: witness d-index {witness}\n"


def test_serre_check_file(tmp_path, capsys):
    path, _ = _presentation_file(tmp_path, perturb=True)
    code, out, _ = _run(capsys, "serre-check", path, "--max-len", "3")
    assert code == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize("flags", [
    ("--n", "5", "--c", "7"), ("--n", "3"), ("--c", "1"), ("--n", "3", "--c", "symbolic"),
])
def test_serre_check_file_refuses_algebra_flags(capsys, flags):
    # --n and --c choose the built-in algebra; a file is checked as it is
    code, out, err = _run(capsys, "serre-check", EXAMPLE, *flags, "--max-len", "3")
    assert code == 2 and out == ""
    assert err == "error: --n and --c choose the built-in algebra, not a file\n"
    code, out, _ = _run(capsys, "serre-check", "--max-len", "3")
    assert code == 0 and out == _run(capsys, "serre-check", "--n", "3", "--max-len", "3")[1]


@pytest.mark.parametrize("max_len", ["2", "1", "0"])
def test_serre_check_vacuous_length_exits_2(capsys, max_len):
    code, out, err = _run(capsys, "serre-check", "--n", "2", "--max-len", max_len)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "at least 3" in err


def test_serre_check_past_relation_budget_exits_2(capsys):
    # gl2(3/1) at length 7 runs 798,147 relations; refused before any work
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", "--n", "3", "--c", "1",
                          "--max-len", "7")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "relations" in err


def test_symbolic_serre_check_past_relation_budget_exits_2(capsys):
    # symbolic gl2(3/1) at length 7: 798,147 relations, as at any c
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", "--n", "3", "--max-len", "7")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "relations" in err


def test_serre_check_file_past_relation_budget_exits_2_at_once(tmp_path, capsys):
    # 1,000 evens give 499,500 rules, within that budget, but about 166
    # million relations on one-letter N: refused before they are made
    path = tmp_path / "wide.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 1000, "m_odd": 0}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "relations" in err


def test_serre_check_file_past_letter_budget_exits_2_at_once(tmp_path, capsys):
    # one even and one odd run 2 relations per length, but the words N of
    # length up to 3,998 hold millions of letters: refused before they are made
    path = tmp_path / "small.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 1, "m_odd": 1}))
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", str(path), "--max-len", "4000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "letters" in err


def test_serre_check_file_past_rule_budget_exits_2(tmp_path, capsys):
    # 3,000 evens give C(3000, 2) = 4,498,500 rules, refused before any
    path = tmp_path / "wide.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 3000, "m_odd": 0}))
    code, out, err = _run(capsys, "serre-check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "pairs" in err


@pytest.mark.parametrize("argv", [
    ("normal-form", "--n", "1", "E[1,1]"),
    ("serre-check", "--n", "0"),
    # gl2(100/1) has 52,015,100 generator pairs; refused before its
    # tensors (about 86 M d entries) are built
    ("normal-form", "--n", "100", "E[1,1]"),
    ("serre-check", "--n", "100"),
])
def test_bad_n_exits_2(capsys, argv):
    start = time.perf_counter()
    code, _, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-presentation", "serre-check"])
def test_json_list_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "list.qls"
    path.write_text("[1, 2]")
    code, _, err = _run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("entry", [
    "1/0", 5, pytest.param("-" * 5000 + "1", id="5000-minus-signs"),
    "c^99999999", pytest.param("1" * 5000, id="5000-digits"),
])
def test_bad_tensor_entry_exits_2(tmp_path, capsys, entry):
    data = build(2, 1).presentation.to_json_dict()
    data["c"][0][-1] = entry
    path = tmp_path / "bad_entry.qls"
    path.write_text(json.dumps(data))
    code, _, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("c", 5),
    ("c", [[None, 1, 0, "1"]]),
    ("a", [[0.7, 0.2, "1"]]),
    ("n_even", None),
    ("n_even", 4.9),
    ("names", 5),
    ("indeterminates", 5),
    ("c", [[0, 1, 1, "12345"]] + build(2, 1).presentation.to_json_dict()["c"]),
    ("names", ["E1_1", "E1_1", *build(2, 1).presentation.alphabet.names[2:]]),
], ids=["section-not-list", "null-index", "float-index", "null-count",
        "float-count", "names-not-list", "indeterminates-not-list",
        "duplicate-row", "duplicate-name"])
def test_malformed_document_exits_2(tmp_path, capsys, key, value):
    data = build(2, 1).presentation.to_json_dict()
    data[key] = value
    path = tmp_path / "malformed.qls"
    path.write_text(json.dumps(data))
    for command in ("verify-presentation", "serre-check"):
        code, _, err = _run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-presentation", "serre-check"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "nested.qls"
    path.write_text("[" * 100_000)
    code, _, err = _run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_normal_form_nesting_budget(capsys):
    nested = "(" * 100 + "E[1,1]" + ")" * 100
    code, out, _ = _run(capsys, "normal-form", "--n", "2", nested)
    assert code == 0 and out.strip() == "E1_1"
    deep = "(" * 3000 + "E[1,1]" + ")" * 3000
    code, _, err = _run(capsys, "normal-form", "--n", "2", deep)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("expression", [
    "E[1,1]^99999999", pytest.param("E[1,1]^" + "9" * 5000, id="5000-digit-exponent"),
])
def test_normal_form_exponent_budget_exits_2(capsys, expression):
    code, out, err = _run(capsys, "normal-form", "--n", "2", expression)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exponent" in err


def test_normal_form_past_term_budget_exits_2(capsys):
    # {Qbar^1, Q_1} of gl2(8/1) has 84 quadratic words, so the
    # fifth power passes MAX_TERMS terms in one step of the action
    start = time.perf_counter()
    code, out, err = _run(capsys, "normal-form", "--n", "8",
                          "(Q[1] Qbar[1])^5")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"more than {MAX_TERMS} terms" in err


def test_normal_form_past_work_bound_exits_2(capsys):
    # 2^30 words: refused by the parser's work bound before they are formed
    start = time.perf_counter()
    code, out, err = _run(capsys, "normal-form", "--n", "2", "(E[1,2]+E[2,1])^30")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: malformed expression: expression takes more than "
                   f"{MAX_WORK} term products\n")


POWER_PAST_BITS = "((10^1000)^1000)^10"  # each 10^1000 alone has 3,322 bits


def test_normal_form_power_past_bit_bound_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, "normal-form", "--n", "2", f"{POWER_PAST_BITS} E[1,2]")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: malformed expression: power makes coefficients of "
                   f"more than {MAX_BITS} bits\n")


def test_normal_form_product_past_bit_bound_exits_2(capsys):
    # five factors of 3,322 bits: refused before the fifth product is
    # formed, not when str() meets the interpreter's digit limit
    start = time.perf_counter()
    code, out, err = _run(capsys, "normal-form", "--n", "2",
                          "10^1000 10^1000 10^1000 10^1000 10^1000 E[1,1]")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: malformed expression: product makes coefficients of "
                   f"more than {MAX_BITS} bits\n")


def test_verify_presentation_power_past_bit_bound_exits_2(tmp_path, capsys):
    data = build(2, 1).presentation.to_json_dict()
    data["c"][0][-1] = POWER_PAST_BITS
    path = tmp_path / "big_power.qls"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify-presentation", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"more than {MAX_BITS} bits" in err


def test_verify_presentation_entry_past_work_bound_exits_2(tmp_path, capsys):
    data = build(2, 1).presentation.to_json_dict()
    data["indeterminates"] = ["a", "b", "c", "d"]
    data["c"][0][-1] = "(a+b+c+d)^1000"  # about 1.7e8 terms
    path = tmp_path / "big_entry.qls"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify-presentation", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"more than {MAX_WORK} term products" in err


def test_entry_naming_an_undeclared_indeterminate_exits_2(tmp_path, capsys):
    # "1e-3" tokenizes as 1 e - 3: read over the file's empty list of
    # indeterminates it is refused, not taken as the polynomial e - 3
    data = build(2, 1).presentation.to_json_dict()
    assert data["indeterminates"] == []
    for row in data["a"]:
        row[-1] = "1e-3"
    path = tmp_path / "misread.qls"
    path.write_text(json.dumps(data))
    for command in ("verify-presentation", "serre-check"):
        code, out, err = _run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f": a entry {data['a'][0][:-1]}: unknown name e\n")


def test_verify_presentation_past_triple_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "wide.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 100_000, "m_odd": 0}))
    code, out, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "triples" in err


def test_triple_budget_refused_before_either_checker(tmp_path, capsys, monkeypatch):
    # C(86, 3) = 102,340 overlap triples: n_even alone decides the refusal
    def never(self):
        raise AssertionError("a checker ran on a file past the triple budget")

    monkeypatch.setattr(QlsPresentation, "check_component_jacobi", never)
    monkeypatch.setattr(QlsPresentation, "check_abstract_jacobi", never)
    path = tmp_path / "wide.qls"
    path.write_text(json.dumps({"format": "quadlie-presentation-1",
                                "n_even": 86, "m_odd": 0}))
    code, out, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: cannot check presentation {str(path)!r}: 102340 overlap "
                   f"triples to check, more than {MAX_TRIPLES}\n")


def test_readme_example_file(capsys):
    code, out, _ = _run(capsys, "verify-presentation", EXAMPLE)
    assert code == 0 and "result: PASS" in out
    code, out, _ = _run(capsys, "serre-check", EXAMPLE, "--max-len", "3")
    assert code == 0 and "result: PASS" in out


# text output on the half-c presentation of test_presentation, recorded
# while a plain-rational c of 1/2 still sent both commands to an all-Scalar
# ring; it now runs on ints with the halves kept as Scalars
_HALF_C_VERIFY = """\
presentation: {path} (2 even, 1 odd)
component: 3 violated identities
  even-even-odd at (0, 1, 0, 0): residual 1/2
  even-odd-odd-b at (0, 0, 0, 0): residual 3/2
  even-odd-odd-b at (0, 0, 0, 1): residual -6
abstract: 3 violated identities
  J2 at (0, 1, 2) [y1]: residual 1/2
  J2 at (0, 2, 2) [x1]: residual -3/2
  J2 at (0, 2, 2) [x2]: residual 6
result: FAIL
"""
_HALF_C_SERRE = """\
module relation check up to length 3
first failure: relation (y1, x2) on word x1
result: FAIL
"""


def test_half_c_presentation_output_is_pinned(tmp_path, capsys):
    from test_presentation import _half_c_presentation

    qls = tmp_path / "half_c.qls"
    qls.write_text(_half_c_presentation().dumps())
    path = str(qls)
    code, out, _ = _run(capsys, "verify-presentation", path)
    assert (code, out) == (1, _HALF_C_VERIFY.format(path=path))
    code, out, _ = _run(capsys, "serre-check", path, "--max-len", "3")
    assert (code, out) == (1, _HALF_C_SERRE)


def test_normal_form_refuses_the_x_y_aliases(capsys):
    code, out, err = _run(capsys, "normal-form", "--n", "2", "x[1]")
    assert code == 2 and out == ""
    assert err == "error: malformed expression: unknown name x[1]\n"


@pytest.mark.parametrize("text", ["$" + "E[1,1] " * 10_000, "x" * 60_000],
                         ids=["bad-character", "unknown-name"])
def test_long_malformed_expression_gives_one_short_line(capsys, text):
    code, out, err = _run(capsys, "normal-form", "--n", "2", text)
    assert code == 2 and out == ""
    assert err.startswith("error: malformed expression: ") and err.count("\n") == 1
    assert len(err) < 200


_NAMES = list(build(3).alphabet.names)


@pytest.mark.parametrize("command", [
    ["normal-form", "--n", "3", "E[1,1]"],
    ["serre-check", "--n", "3", "--max-len", "3"],
], ids=["normal-form", "serre-check"])
@pytest.mark.parametrize("order, message", [
    (_NAMES[:1] + _NAMES[:1] + _NAMES[2:], "--order names E1_1 twice"),
    (_NAMES[:-1], "--order leaves out Q3"),
    (_NAMES[1:2], "--order leaves out E1_1, E1_3, E2_1, ..."),
], ids=["duplicate", "short-prefix", "short"])
def test_order_that_is_not_a_permutation_exits_2(capsys, command, order, message):
    """A repeated name, and the names left out, are named by the CLI before
    any order is built, the first three of those left out.  Each exits 2
    with one error line."""
    code, out, err = _run(capsys, *command, "--order", ",".join(order))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["normal-form", "--n", "2", "E[1,1]"],
    ["serre-check", "--n", "2", "--max-len", "2"],
], ids=["normal-form", "serre-check"])
def test_order_with_an_unknown_generator_names_it(capsys, command):
    code, out, err = _run(capsys, *command, "--order", "E1_1, 0,1")
    assert code == 2 and out == ""
    assert err == "error: unknown generator in --order: '0'\n"


# every command in both formats, with exit-1 and exit-2 runs: the SHA-256 of
# (exit code, stdout, stderr) of each, recorded before the commands shared
# one output path; verify's structured pair re-recorded when it gained the
# `checked` counts.  Files are written to the working directory and named
# relative to it, so the printed paths do not depend on where tests run.
_ALL_COMMANDS = {
    "verify-pass": ["verify-presentation", "good.qls"],
    "verify-fail": ["verify-presentation", "shifted.qls"],
    "verify-missing-file": ["verify-presentation", "missing.qls"],
    "normal-form": ["normal-form", "--n", "2", "Q[1] Qbar[1] + 1/2 E[2,1] E[1,2]"],
    "normal-form-order": ["normal-form", "--n", "2", "--c", "3", "--order",
                          "E2_2,E1_1,E1_2,E2_1,Qbar1,Qbar2,Q1,Q2", "(E[1,2] E[2,1])^2"],
    "family-report": ["family-report", "--n", "4", "--r", "2", "--mu", "3",
                      "--nu", "0", "--c", "symbolic"],
    "atypicality-report": ["atypicality-report", "--n", "3", "--r", "2", "--mu", "1",
                           "--nu", "0", "--c", "2"],
    "zero-step-table": ["zero-step-table", "--n-max", "6"],
    "fock-check": ["fock-check"],
    "serre-pass": ["serre-check", "--n", "2", "--max-len", "3"],
    "serre-fail": ["serre-check", "shifted.qls", "--max-len", "3"],
    "serre-max-len-2": ["serre-check", "--n", "2", "--max-len", "2"],
}
_ALL_COMMANDS_SHA256 = {
    "atypicality-report-text": "6a40a2a61680ac69c5468917dffc2dd1be7c26d2c2b2d8f2dd3e03b7b7ac84fe",
    "atypicality-report-structured": "6867319c3ee8c7e7766e4808d37ae17f75210b73602c6d186f49ac3d25a924af",
    "family-report-text": "96fb8c2a6d6ebc837e2b56af1cda6d9a4229c5940d7d2e406b4e520a465dd2bf",
    "family-report-structured": "a463a35fcd0ab9b99d3b32b9c1f8c88675ec936ebef6d48684cef3d7c337d32e",
    "fock-check-text": "7bcf6f523e6dfa111212a15aa3a75f16ecb70ba73e7fa34c874b174a0c9b6744",
    "fock-check-structured": "46ae88b017d329ed0669e6f799c9d11a11e4f53188b13dbdf18d3d7c07d257f6",
    "normal-form-text": "d6885b9132c53a4a84fe2caf6c154039b245637ef34b810724aeed7c0e802be7",
    "normal-form-structured": "02f1bec05596fa2f7ab48209ae9efc6a237c27dde0b22ed42e2e569e672aa7fa",
    "normal-form-order-text": "89e9a6e0b506638fb46856a5afdf6d71983cdd2eba491eecb80af29643db9216",
    "normal-form-order-structured": "1c454d4973285468668994ccb044d92de68725c737405d420142a328577ef92e",
    "serre-fail-text": "dba5de7f4d7eccb5079e81231788f07f7eb38fc782c035704f5a1465c86cbbaf",
    "serre-fail-structured": "ef3f2e0ce062774fc665e71db5d78e5e4588e56f0bf5840c50544d20c8af28b6",
    "serre-max-len-2-text": "b99a2413fc1642b129481b2df9abc9c58ac28ea29db69d4e6944313be654d26f",
    "serre-max-len-2-structured": "b99a2413fc1642b129481b2df9abc9c58ac28ea29db69d4e6944313be654d26f",
    "serre-pass-text": "1752f0fb6d989554c23a7af950df7bbb199c82a102eb53c6b5209436d6a4bc05",
    "serre-pass-structured": "aa68f0420042bef9f5042e2da5ddef99143c696b9d34056f1ead9c9a3acd3836",
    "verify-fail-text": "8bbb2649830c6636ddadcfceb2c3dcdeec3732a7bfdfe584518437c7195b8119",
    "verify-fail-structured": "45971967daae498d70fdab80ca90feb5628d74e959b0085324667c730be04ef7",
    "verify-missing-file-text": "1357b6d8edcecca995c05adb41c5aab99fc5759a459eb06289c8af5d7150fce3",
    "verify-missing-file-structured": "1357b6d8edcecca995c05adb41c5aab99fc5759a459eb06289c8af5d7150fce3",
    "verify-pass-text": "843eb889f2c917150d1a7122bb582c62c7e7c8352b319f214f202b355b4f2827",
    "verify-pass-structured": "241bc71c783420b223da8c927f0ade5595af36b9cabf6267f88e07f8f19592af",
    "zero-step-table-text": "d3c65d191381e4f8581fc6b771b6da444335d4bab8e66f94c29497e1ba7a5d2b",
    "zero-step-table-structured": "1d6afa5899615464714d3a2cccd01b961566d8805229f2209b98240737dba803",
}


def _all_commands_digest(code, out, err):
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("case", sorted(_ALL_COMMANDS))
def test_every_command_output_is_pinned(tmp_path, monkeypatch, capsys, case, fmt):
    from test_presentation import _orbit_shifted

    pres = build(2, 1).presentation
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.qls").write_text(pres.dumps())
    (tmp_path / "shifted.qls").write_text(
        _orbit_shifted(pres, "b", sorted(pres.b)[0]).dumps())
    result = _run(capsys, "--format", fmt, *_ALL_COMMANDS[case])
    assert _all_commands_digest(*result) == _ALL_COMMANDS_SHA256[f"{case}-{fmt}"]
