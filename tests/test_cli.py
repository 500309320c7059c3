import json
import subprocess
import sys
import time

import pytest

from qplane import fixtures, planes, scalar
from qplane.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_gl2_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "all")
    assert code == 0
    assert "0 failed" in out


def test_verify_sphere_closedness(capsys):
    code, out, _ = run(capsys, "verify", "--plane", "sphere_qm1",
                       "--suite", "closedness")
    assert code == 0
    assert "PASS closedness/d-omega-zero" in out


def test_verify_json_byte_deterministic_across_processes():
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "qplane.cli", "verify", "--plane",
           "sphere_qm1", "--suite", "gamma", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_json_byte_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "all",
                         "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "all",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["plane"] == "gl2"
    assert report["timing_s"] is None
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_verify_strict_fails_on_findings(capsys):
    code, _, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "wz",
                     "--strict")
    assert code == 1
    code, _, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "wz")
    assert code == 0


def test_verify_corrupted_matrix_exits_1(tmp_path, capsys):
    bad = [list(row) for row in fixtures.R_GL2]
    bad[1][1] = "q + 1"
    doc = {
        "name": "broken",
        "dimension": 2,
        "generators": ["x", "y"],
        "family": "A",
        "r_matrix": bad,
        "q": "generic",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--plane", str(path))
    assert code == 1
    assert "Yang-Baxter" in out


def test_verify_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--plane", str(path))
    assert code == 2
    assert "error" in err


def test_verify_loads_valid_config(tmp_path, capsys):
    doc = {
        "name": "user-gl2",
        "dimension": 2,
        "generators": ["x", "y"],
        "family": "A",
        "r_matrix": fixtures.R_GL2,
        "q": "generic",
        "gamma": "r_over_q",
    }
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--plane", str(path),
                       "--suite", "ybe")
    assert code == 0


def test_nf_command(capsys):
    code, out, _ = run(capsys, "nf", "--plane", "gl2", "y*x")
    assert code == 0
    assert out.strip() == "s^-2 * x*y"
    code, out, _ = run(capsys, "nf", "--plane", "orth3", "x+ * x-")
    assert out.strip() == "x-*x+ + (-s + s^-1) * x0*x0"
    code, out, _ = run(capsys, "nf", "--plane", "gl2", "d(x)*d(x)")
    assert out.strip() == "0"


def test_nf_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "nf", "--plane", "gl2", "y*(x")
    assert code == 2
    assert "error" in err


def test_bracket_command(capsys):
    code, out, _ = run(capsys, "bracket", "--plane", "gl2", "x", "y")
    assert code == 0
    assert out.strip() == "-s^2"
    code, out, _ = run(capsys, "bracket", "--plane", "sphere_qm1",
                       "x+", "x-")
    assert out.strip() == "i * x0"


def test_bracket_without_symplectic_exit_2(capsys):
    code, _, err = run(capsys, "bracket", "--plane", "orth3", "x+", "x-")
    assert code == 2


def test_hamvec_command(capsys):
    code, out, _ = run(capsys, "hamvec", "--plane", "gl2", "x")
    assert code == 0
    assert "status: unique" in out
    assert "X = (s^2) * D(y)" in out
    code, out, _ = run(capsys, "hamvec", "--plane", "sphere_qm1", "x0")
    assert "status: family" in out
    assert "kernel[0]" in out


def test_hamvec_no_solution_exit_1(capsys):
    code, out, _ = run(capsys, "hamvec", "--plane", "sphere_qm1",
                       "x0*x+", "--degree", "0")
    assert code == 1
    assert "no solution" in out


def test_bracket_no_solution_exit_1(capsys):
    code, out, _ = run(capsys, "bracket", "--plane", "sphere_qm1",
                       "x0*x+", "x0", "--degree", "0")
    assert code == 1
    assert "degree bound" in out


def test_eom_command(capsys):
    code, out, _ = run(capsys, "eom", "--plane", "sphere_qm1", "x0")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert lines["d/dt x+"] == "x+"
    assert lines["d/dt x-"] == "x-"
    assert lines["d/dt x0"] == "0"


def test_max_degree_applies_to_one_call_only(capsys):
    code, _, _ = run(capsys, "verify", "--plane", "gl2", "--suite", "ybe",
                     "--max-degree", "3")
    assert code == 0
    assert planes.builtin_plane("gl2").system.degree_cap == 16


@pytest.mark.parametrize("names", [["a", "b"], ["y", "x"]])
def test_gl2_tables_only_for_the_paper_names(tmp_path, capsys, names):
    # the gl2 relation tables are written in x, y: a standard-basis GL_q(2)
    # document with other names is not diffed against them
    doc = {"name": "renamed", "dimension": 2, "generators": names,
           "family": "A", "r_matrix": fixtures.R_GL2, "q": "generic"}
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "relations", "--format", "json")
    assert code == 0, err
    statuses = {c["name"]: c["status"]
                for c in json.loads(out)["checks"]}
    assert statuses == {"relations/confluence": "pass",
                        "relations/fixtures": "pass"}


def test_fixtures_verdict_says_when_no_table_applies(tmp_path, capsys,
                                                     glq3_document):
    path = tmp_path / "glq3.json"
    path.write_text(json.dumps(glq3_document), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "relations", "--format", "json")
    assert code == 0, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["relations/fixtures"] == {
        "name": "relations/fixtures", "status": "pass",
        "detail": "no transcribed relation table applies to this plane"}


def test_max_degree_applies_to_query_commands(capsys):
    code, out, err = run(capsys, "nf", "--plane", "gl2", "--max-degree", "2",
                         "x*y*x*y")
    assert code == 2, out
    assert "exceeds the cap 2" in err
    assert planes.builtin_plane("gl2").system.degree_cap == 16


def test_oversized_power_rejected_while_parsing():
    cmd = [sys.executable, "-m", "qplane.cli", "nf", "--plane", "gl2",
           "x^1000000"]
    run_ = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert run_.returncode == 2
    assert "exceeds the degree cap 16" in run_.stderr


def test_scalar_power_by_squaring(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "nf", "--plane", "gl2", "q^4000*x")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "s^8000 * x\n")


@pytest.mark.parametrize("where", ["element", "document"])
def test_power_over_the_cap_exits_2(tmp_path, where):
    big = f"q^{scalar.MAX_EXPONENT + 1}"
    if where == "element":
        args = ["nf", "--plane", "gl2", f"{big}*x"]
    else:
        r_matrix = [list(row) for row in fixtures.R_GL2]
        r_matrix[0][0] = big
        doc = {"name": "big", "dimension": 2, "generators": ["x", "y"],
               "family": "A", "r_matrix": r_matrix, "q": "generic"}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["verify", "--plane", str(path), "--suite", "ybe"]
    run_ = subprocess.run([sys.executable, "-m", "qplane.cli", *args],
                          capture_output=True, text=True, timeout=30)
    assert run_.returncode == 2
    assert run_.stdout == ""
    lines = run_.stderr.splitlines()
    assert len(lines) == 1, run_.stderr
    assert lines[0].startswith("error: ")
    assert "exceeds the cap" in lines[0]


HUGE_LITERAL = "1" + "0" * 5000  # past Python's 4300-digit int/str cap
# the cap exists from Python 3.10.7 on and can be lifted by the environment
INT_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < INT_DIGIT_CAP < 4772,
                    reason="no int/str conversion cap below 4772 digits")
@pytest.mark.parametrize("where", ["product", "element", "document",
                                   "json-number"])
def test_huge_integers_exit_2(tmp_path, where):
    if where == "product":
        # each power is within the cap; the product has 4772 digits
        args = ["nf", "--plane", "gl2", "3^5000*3^5000*x"]
    elif where == "element":
        args = ["nf", "--plane", "gl2", f"{HUGE_LITERAL}*x"]
    else:
        r_matrix = [list(row) for row in fixtures.R_GL2]
        r_matrix[0][0] = HUGE_LITERAL
        doc = {"name": "huge", "dimension": 2, "generators": ["x", "y"],
               "family": "A", "r_matrix": r_matrix, "q": "generic"}
        text = json.dumps(doc)
        if where == "json-number":
            text = text.replace(f'"{HUGE_LITERAL}"', HUGE_LITERAL)
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        args = ["verify", "--plane", str(path), "--suite", "ybe"]
    run_ = subprocess.run([sys.executable, "-m", "qplane.cli", *args],
                          capture_output=True, text=True, timeout=30)
    assert run_.returncode == 2, run_.stderr
    assert run_.stdout == ""
    assert "Traceback" not in run_.stderr
    lines = run_.stderr.splitlines()
    assert len(lines) == 1, run_.stderr
    assert lines[0].startswith("error: ")
    assert "too long" in lines[0]


@pytest.mark.parametrize("where", ["parentheses", "minus-signs",
                                   "document-entry", "document-json"])
def test_deep_nesting_exits_2(tmp_path, where):
    if where == "parentheses":
        args = ["nf", "--plane", "gl2", "(" * 400 + "x" + ")" * 400]
    elif where == "minus-signs":
        args = ["nf", "--plane", "gl2", "--", "-" * 3000 + "x"]
    else:
        r_matrix = [list(row) for row in fixtures.R_GL2]
        r_matrix[0][0] = "(" * 3000 + "q" + ")" * 3000
        doc = {"name": "deep", "dimension": 2, "generators": ["x", "y"],
               "family": "A", "r_matrix": r_matrix, "q": "generic"}
        text = json.dumps(doc)
        if where == "document-json":
            text = "[" * 3000 + "]" * 3000
        path = tmp_path / "deep.json"
        path.write_text(text, encoding="utf-8")
        args = ["verify", "--plane", str(path)]
    run_ = subprocess.run([sys.executable, "-m", "qplane.cli", *args],
                          capture_output=True, text=True, timeout=30)
    assert run_.returncode == 2, run_.stderr
    assert run_.stdout == ""
    assert "Traceback" not in run_.stderr
    lines = run_.stderr.splitlines()
    assert len(lines) == 1, run_.stderr
    assert lines[0].startswith("error: ")
    assert "nest" in lines[0]
