"""Command-line interface: exit codes, determinism, structured output."""

import json
import os

import pytest

from quadlie.cli import run
from quadlie.gl2n1 import build
from quadlie.presentation import QlsPresentation


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
    pres.save(str(path))
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


def test_unreadable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.qls"
    path.write_text("not a presentation")
    code, _, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2 and "error:" in err


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


def test_fock_check(capsys):
    code, out, _ = _run(capsys, "fock-check", "--n", "4")
    assert code == 0
    assert "bracket identity: exact" in out
    assert "result: PASS" in out
    code, out, _ = _run(capsys, "--format", "structured", "fock-check", "--n", "4")
    assert json.loads(out)["bracket_identity"]["holds_as_printed"] is True


def test_serre_check_builtin(capsys):
    code, out, _ = _run(capsys, "serre-check", "--n", "3", "--max-len", "3")
    assert code == 0
    assert "result: PASS" in out


def test_serre_check_file(tmp_path, capsys):
    path, _ = _presentation_file(tmp_path, perturb=True)
    code, out, _ = _run(capsys, "serre-check", path, "--max-len", "3")
    assert code == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize("argv", [
    ("normal-form", "--n", "1", "E[1,1]"),
    ("serre-check", "--n", "0"),
])
def test_bad_n_exits_2(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-presentation", "serre-check"])
def test_json_list_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "list.qls"
    path.write_text("[1, 2]")
    code, _, err = _run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1/0", 5])
def test_bad_tensor_entry_exits_2(tmp_path, capsys, entry):
    data = build(2, 1).presentation.to_json_dict()
    data["c"][0][-1] = entry
    path = tmp_path / "bad_entry.qls"
    path.write_text(json.dumps(data))
    code, _, err = _run(capsys, "verify-presentation", str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_readme_example_file(capsys):
    code, out, _ = _run(capsys, "verify-presentation", EXAMPLE)
    assert code == 0 and "result: PASS" in out
    code, out, _ = _run(capsys, "serre-check", EXAMPLE, "--max-len", "3")
    assert code == 0 and "result: PASS" in out
