"""Command-line interface: exit codes, determinism, structured output."""

import json
import os
import time

import pytest

from quadlie.atypicality import MAX_N
from quadlie.cli import run
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
    # gl2(3/1) at length 7 has 1,204,128 relations; refused before any work
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", "--n", "3", "--c", "1",
                          "--max-len", "7")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "relations" in err


def test_symbolic_serre_check_past_relation_budget_exits_2(capsys):
    # symbolic gl2(3/1) at length 7: 1,204,128 relations, as at any c
    start = time.perf_counter()
    code, out, err = _run(capsys, "serre-check", "--n", "3", "--max-len", "7")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "relations" in err


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
    assert err == "error: malformed expression: unknown generator x[1]\n"


_NAMES = list(build(3).alphabet.names)


@pytest.mark.parametrize("command", [
    ["normal-form", "--n", "3", "E[1,1]"],
    ["serre-check", "--n", "3", "--max-len", "3"],
], ids=["normal-form", "serre-check"])
@pytest.mark.parametrize("order, message", [
    (_NAMES[:1] + _NAMES[:1] + _NAMES[2:], "order must be a permutation of 0..size-1"),
    (_NAMES[:-1], "order size does not match the presentation"),
    (_NAMES[1:2], "order must be a permutation of 0..size-1"),
], ids=["duplicate", "short-prefix", "short"])
def test_order_that_is_not_a_permutation_exits_2(capsys, command, order, message):
    """A duplicated name fails in GeneratorOrder; a short list fails there,
    or in check_admissible's size check when it is a permutation of a
    prefix.  Each exits 2 with one error line."""
    code, out, err = _run(capsys, *command, "--order", ",".join(order))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
