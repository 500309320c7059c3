import json
import os
import signal
import subprocess
import sys
import time

import pytest

from conftest import glq_plane_document, twisted_glq_document
from qplane import cli, fixtures, planes, scalar, symp
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


def test_plane_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert code == 2, out
    assert err.startswith("error: cannot read plane configuration:")


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


def _fresh(argv):
    """(exit code, stdout, stderr) of ``qplane argv`` in a new process."""
    done = subprocess.run([sys.executable, "-m", "qplane.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_max_degree_applies_to_one_call_only(capsys):
    # ybe reads no --degree and parses no input, so even the least bound
    # answers as the default call, and leaves the next call as it was
    default = ["verify", "--plane", "gl2", "--suite", "ybe", "--format",
               "json"]
    low = [*default, "--max-degree", "1"]
    before = run(capsys, *default)
    assert before[0] == 0
    assert run(capsys, *low) == before
    assert run(capsys, *default) == before
    assert _fresh(low) == before


@pytest.mark.parametrize("argv", [
    ["verify", "--plane", "gl2", "--degree", "-2", "--suite", "closedness"],
    ["hamvec", "--plane", "gl2", "--degree", "-1", "x"],
    ["nf", "--plane", "gl2", "--max-degree", "0", "x"],
    ["nf", "--plane", "gl2", "--max-degree", "-3", "x"],
])
def test_degree_flags_out_of_range_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qplane {argv[0]}")
    assert "must be at least" in err


def test_degree_flags_at_their_least_values(capsys):
    assert run(capsys, "nf", "--plane", "gl2", "--max-degree", "1", "x") \
        == (0, "x\n", "")
    code, out, _ = run(capsys, "hamvec", "--plane", "gl2", "--degree", "0",
                       "x")
    assert code == 0
    assert out.startswith("status: ")


@pytest.mark.parametrize("suite, builds", [("all", 1), ("ybe", 0)])
def test_verify_builds_the_symplectic_form_once(tmp_path, capsys,
                                               monkeypatch, suite, builds):
    # a plane read from a file is a new value on each call
    calls = []
    build = symp.build_symplectic_form

    def counted(plane):
        calls.append(plane.name)
        return build(plane)

    monkeypatch.setattr(symp, "build_symplectic_form", counted)
    path = tmp_path / "gl2.json"
    path.write_text(planes.serialize_plane(planes.builtin_plane("gl2")),
                    encoding="utf-8")
    code, _, err = run(capsys, "verify", "--plane", str(path), "--suite",
                       suite)
    assert code == 0, err
    assert calls == ["gl2"] * builds


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


def test_max_degree_does_not_read_spans_of_an_earlier_call(capsys):
    # a default call builds constraint spans past degree 4; they are the
    # solve's own words, so a call with a lower bound after it in the same
    # process answers as the default call and as a fresh process
    default = ["hamvec", "--plane", "sphere_qm1", "x0"]
    low = [*default, "--max-degree", "4"]
    before = run(capsys, *default)
    assert before[0] == 0
    assert run(capsys, *low) == before
    assert _fresh(low) == before


@pytest.mark.parametrize("suite", ["closedness", "hamiltonian", "all"])
def test_max_degree_bounds_no_word_a_suite_builds(capsys, suite):
    # the sphere's closedness and constraint spans reach degree 4; a bound
    # of 3 covers the default --degree 1 and its unknowns of degree 2
    default = ["verify", "--plane", "sphere_qm1", "--suite", suite,
               "--format", "json"]
    before = run(capsys, *default)
    assert before[0] == 0
    assert run(capsys, *default, "--max-degree", "3") == before


def test_engine_words_past_the_bound_are_not_input(capsys):
    # x^8*y^8 has degree 16, within the default bound; d f has words of
    # degree 17, which belong to the solve
    code, out, err = run(capsys, "hamvec", "--plane", "gl2", "x^8*y^8")
    assert (code, out, err) == (
        1, "no solution within coefficient degree 1\n", "")


@pytest.mark.parametrize("argv", [
    ["hamvec", "x"],
    ["bracket", "x", "y"],
    ["eom", "x"],
    ["verify", "--suite", "closedness"],
    ["verify", "--suite", "hamiltonian"],
    ["verify"],
    ["hamvec", "--max-degree", "17", "x"],
])
def test_degree_past_the_bound_exits_2_before_solving(capsys, monkeypatch,
                                                     argv):
    # an unknown's word is a coefficient word and one D letter, so
    # --degree + 1 must be within --max-degree
    built = []
    monkeypatch.setattr(symp, "_system", lambda *a: built.append(a))
    cap = "17" if "--max-degree" in argv else "16"
    code, out, err = run(capsys, argv[0], "--plane", "gl2", "--degree", cap,
                         *argv[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: --degree {cap} needs unknowns of degree "
                   f"{int(cap) + 1}, past the cap {cap} of --max-degree\n")
    assert built == []


def test_degree_at_the_bound_answers(capsys):
    assert run(capsys, "hamvec", "--plane", "gl2", "--degree", "15", "x") \
        == (0, "status: unique\nX = (s^2) * D(y)\n", "")
    code, out, err = run(capsys, "hamvec", "--plane", "gl2", "--degree", "2",
                         "--max-degree", "3", "x")
    assert (code, err) == (0, "")
    assert out == run(capsys, "hamvec", "--plane", "gl2", "--degree", "2",
                      "x")[1]


def test_max_degree_at_the_plane_cap_answers_as_uncapped(capsys):
    # a cap equal to the plane's own restricts nothing: same plane, same
    # answer
    uncapped = run(capsys, "hamvec", "--plane", "sphere_qm1", "x0")
    at_cap = run(capsys, "hamvec", "--plane", "sphere_qm1", "--max-degree",
                 "16", "x0")
    assert uncapped[0] == 0
    assert at_cap == uncapped


@pytest.mark.parametrize("argv, message", [
    (["x^1000000"], "exceeds the degree cap 16"),
    (["--max-degree", "3", "x^4"], "power 4 exceeds the degree cap 3"),
], ids=["default", "max-degree-3"])
def test_oversized_power_rejected_while_parsing(argv, message):
    cmd = [sys.executable, "-m", "qplane.cli", "nf", "--plane", "gl2", *argv]
    run_ = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    assert run_.returncode == 2
    assert message in run_.stderr


def test_scalar_power_by_squaring(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "nf", "--plane", "gl2", "q^4000*x")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, "s^8000 * x\n")


@pytest.mark.parametrize("expression", ["(x+y)^16", "(x+y+D(x)+d(y))^9"])
def test_free_expansion_over_the_cap_exits_2(capsys, expression):
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", "--plane", "gl2", expression)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: expanding the product would make "
                               f"more than {scalar.MAX_TERMS} words")


def test_free_expansion_within_the_cap_is_unchanged(capsys):
    code, out, _ = run(capsys, "nf", "--plane", "gl2", "(x+y)^3")
    assert (code, out) == (0, "x*x*x + (1 + s^-2 + s^-4) * x*x*y + "
                              "(1 + s^-2 + s^-4) * x*y*y + y*y*y\n")


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


@pytest.mark.parametrize("base, field, value", [
    ("gl2", "generators", [[1], [2]]),
    ("gl2", "eigenvalues", {"lambda1": 1, "lambda2": 2}),
    ("gl2", "quotient", {"central": 1, "symbol": 2}),
    ("gl2", "gamma", [[1]]),
    # rho is the one auxiliary symbol the grammar reads: a generator name
    # would print as the generator, and another name would not parse
    ("sphere_qm1", "quotient",
     {"central": fixtures.SPHERE_CENTRAL, "symbol": "x0"}),
    ("sphere_qm1", "quotient",
     {"central": fixtures.SPHERE_CENTRAL, "symbol": "r"}),
], ids=["generators", "eigenvalues", "quotient", "gamma",
        "sphere-symbol-x0", "sphere-symbol-r"])
def test_wrongly_typed_document_exits_2(tmp_path, capsys, base, field,
                                        value):
    if base == "gl2":
        doc = {"name": "typed", "dimension": 2, "generators": ["x", "y"],
               "family": "A", "r_matrix": fixtures.R_GL2, "q": "generic"}
    else:
        doc = json.loads(planes.serialize_plane(planes.builtin_plane(base)))
    doc[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path),
                         "--suite", "ybe")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert field in lines[0]


def _with_cell(grid, cells, text):
    rows = [list(row) for row in grid]
    for r, c in cells:
        rows[r][c] = text
    return rows


@pytest.mark.parametrize("field, value, where", [
    # "q^" twice and another bad text after it: the first in row-major
    # order is named, though the repeated text is parsed once
    ("r_matrix", _with_cell(_with_cell(fixtures.R_GL2, [(1, 1), (2, 2)],
                                       "q^"), [(3, 0)], "x"),
     "r_matrix[1][1]"),
    ("eigenvalues", {"lambda1": "-q^-1", "lambda2": "q^"},
     "eigenvalues.lambda2"),
    ("gamma", _with_cell(fixtures.R_GL2, [(0, 1)], "q^"), "gamma[0][1]"),
], ids=["r_matrix", "eigenvalues", "gamma"])
def test_document_parse_error_names_the_entry(tmp_path, capsys, field,
                                              value, where):
    doc = {"name": "typo", "dimension": 2, "generators": ["x", "y"],
           "family": "A", "r_matrix": fixtures.R_GL2, "q": "generic",
           field: value}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {where}: expected integer (at position 2)\n"


def test_integer_matrix_entries_still_load(tmp_path, capsys):
    r_matrix = [[int(v) if v.isdecimal() else v for v in row]
                for row in fixtures.R_GL2]
    assert any(type(v) is int for row in r_matrix for v in row)
    doc = {"name": "ints", "dimension": 2, "generators": ["x", "y"],
           "family": "A", "r_matrix": r_matrix, "q": "generic"}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run(capsys, "verify", "--plane", str(path), "--suite", "ybe")
    assert code == 0


def test_classical_limit_is_the_documents_own(tmp_path, capsys):
    # a twisted GL_q(2) braid matrix under the built-in's name: its own
    # q = 1 plane has y*x = 1/2 * x*y, so the limit is not commutative
    doc = {"name": "gl2", "dimension": 2, "generators": ["x", "y"],
           "family": "A", "q": "generic",
           "r_matrix": [["q", "0", "0", "0"], ["0", "q - q^-1", "2", "0"],
                        ["0", "1/2", "0", "0"], ["0", "0", "0", "q"]]}
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "relations")
    assert code == 1, err
    # the detail names the first pair of generators that do not commute
    assert "FAIL relations/classical-limit: x and y do not commute at q=1" \
        in out
    assert planes.specialize(planes.load_plane(json.dumps(doc)), 1).nf(
        planes.builtin_plane("gl2").parse("y*x - 1/2*x*y")).is_zero()


def test_twisted_gl2_document_verifies(tmp_path, capsys):
    # the twisted matrix of the test above under its own name: no classical
    # limit is asked for, and its calculus is confluent
    doc = {"name": "gl2-twisted", "dimension": 2, "generators": ["x", "y"],
           "family": "A", "q": "generic",
           "r_matrix": [["q", "0", "0", "0"], ["0", "q - q^-1", "2", "0"],
                        ["0", "1/2", "0", "0"], ["0", "0", "0", "q"]]}
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert code == 0, err
    assert "PASS relations/confluence: certified: 32 critical pairs among " \
           "216 overlap words resolve" in out


def _sphere_with(**changes):
    doc = json.loads(planes.serialize_plane(
        planes.builtin_plane("sphere_qm1")))
    doc.update(changes)
    return doc


def _gl2_with(**changes):
    doc = json.loads(planes.serialize_plane(planes.builtin_plane("gl2")))
    doc.update(changes)
    return doc


def test_renamed_gl2_generators_verify(tmp_path, capsys):
    # the paper's tables are written in x, y: a plane named gl2 with other
    # generator names and its own form is not diffed against them
    doc = _gl2_with(generators=["a", "b"],
                    symplectic={"form": "d(a)*d(b)", "scale": "1"})
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert code == 0, out + err
    assert "hamiltonian/field-fixtures" not in out


@pytest.mark.parametrize("first", ["r", "rh"])
def test_generator_prefix_of_rho_does_not_shadow_it(tmp_path, capsys, first):
    doc = _gl2_with(generators=[first, "y"],
                    symplectic={"form": f"d({first})*d(y)", "scale": "1"})
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "nf", "--plane", str(path), "rho*y")
    assert (code, out.strip()) == (0, "rho * y"), err
    code, out, err = run(capsys, "nf", "--plane", str(path), f"y*{first}")
    assert (code, out.strip()) == (0, f"s^-2 * {first}*y"), err


def test_generator_names_the_grammar_reads_first_are_refused(tmp_path,
                                                              capsys):
    # a leading digit or operator is read as a number or an operator
    # wherever a token starts, so such a name could not be read back
    for generators in (["x", "2"], ["x", "+a"]):
        path = tmp_path / "plane.json"
        doc = _gl2_with(generators=generators)
        del doc["symplectic"]  # its form names y
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "nf", "--plane", str(path), "x")
        assert code == 2, out + err
        assert f"generator name {generators[1]!r}" in err
    # names that start with a letter still load, "+" and "-" inside them
    docs = [json.loads(planes.serialize_plane(planes.builtin_plane(name)))
            for name in ("gl2", "orth3", "sphere_qm1")]
    docs += [glq_plane_document(n) for n in (2, 3, 4)]
    docs += [twisted_glq_document(3, reverse=True)]
    docs += [_gl2_with(generators=[first, "y"],
                       symplectic={"form": f"d({first})*d(y)", "scale": "1"})
             for first in ("r", "rh")]
    for doc in docs:
        plane = planes.derive_plane(doc)
        assert plane.generator_names == tuple(doc["generators"])


@pytest.mark.parametrize("doc,applies", [
    (_gl2_with(name="renamed"), True),
    (_gl2_with(symplectic={"form": "d(x) * d(y)", "scale": "2/2"}), True),
    (_gl2_with(symplectic={"form": "2*d(x)*d(y)", "scale": "1"}), False),
    (_sphere_with(name="renamed"), True),
    (_sphere_with(quotient={"central": "2*(" + fixtures.SPHERE_CENTRAL + ")",
                            "symbol": "rho"}), False),
], ids=["gl2-renamed", "gl2-same-form", "gl2-scaled-form", "sphere-renamed",
        "sphere-scaled-radius"])
def test_hamiltonian_tables_follow_the_plane_not_its_name(tmp_path, capsys,
                                                          doc, applies):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "hamiltonian", "--format", "json")
    assert code == 0, err
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    tables = {"hamiltonian/field-fixtures", "hamiltonian/bracket-fixtures"}
    if applies:
        assert {statuses[name] for name in tables} == {"pass"}
    else:
        assert not tables & set(statuses)


def test_symplectic_form_without_braiding_is_reported(tmp_path):
    doc = json.loads(planes.serialize_plane(planes.builtin_plane("orth3")))
    doc["symplectic"] = {"form": "d(x+)*d(x-)", "scale": "1"}
    path = tmp_path / "orth3_omega.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run_ = subprocess.run([sys.executable, "-m", "qplane.cli", "verify",
                           "--plane", str(path), "--suite", "all"],
                          capture_output=True, text=True, timeout=60)
    assert run_.returncode == 1
    assert "error:" not in run_.stdout + run_.stderr
    lines = run_.stdout.splitlines()
    for name in ("closedness", "hamiltonian"):
        assert f"FAIL {name}/symplectic-form: plane orth3 has no braiding " \
               "that satisfies the wedge condition; tensor representation " \
               "unavailable" in lines
    assert "FAIL gamma/resolution: d_matrix: fail; r_inverse: fail" in lines
    assert "PASS relations/classical-limit: all coordinate commutators " \
           "vanish at q=1" in lines
    assert lines[-1].startswith("16 checks, 3 failed, 1 findings")


def test_d_braiding_policy_is_reported_on_gl2(tmp_path, capsys):
    # the document's policy "d" offers D alone, which gl2's wedge product
    # does not satisfy
    path = tmp_path / "gl2_d.json"
    path.write_text(json.dumps(_gl2_with(gamma="d")), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--plane", str(path), "--suite",
                       "gamma")
    assert code == 1
    assert "FAIL gamma/resolution: d_matrix: fail" in out.splitlines()


def test_symplectic_form_that_is_not_a_2_form_is_reported(tmp_path, capsys):
    # as with a zero scale, verify reports the form it cannot build, and a
    # command that needs the form exits 2 with the same message
    doc = _gl2_with(symplectic={"form": "x*d(y)", "scale": "1"})
    path = tmp_path / "gl2_one_form.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = ("plane gl2: the symplectic form is not a 2-form: word x*d(y) "
               "is not a degree-2 differential word")
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    for name in ("closedness", "hamiltonian"):
        assert f"FAIL {name}/symplectic-form: {message}" in lines
    code, out, err = run(capsys, "hamvec", "--plane", str(path), "x")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("form", ["d(x)*d(y) - d(x)*d(y)", "d(x)*d(y)*d(x)"])
def test_symplectic_form_that_is_zero_is_reported(tmp_path, capsys, form):
    # both forms have normal form zero (d(x)*d(x) = 0): verify names the
    # form it cannot build, and a command that needs it exits 2
    doc = _gl2_with(symplectic={"form": form, "scale": "1"})
    path = tmp_path / "gl2_zero_form.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = "plane gl2: the symplectic form is zero"
    code, out, err = run(capsys, "verify", "--plane", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    for name in ("closedness", "hamiltonian"):
        assert f"FAIL {name}/symplectic-form: {message}" in lines
    assert lines[-1].startswith("14 checks, 2 failed, 1 findings")
    for argv in (["hamvec", "x"], ["bracket", "x", "y"], ["eom", "x"]):
        code, out, err = run(capsys, argv[0], "--plane", str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_main_is_reentrant(capsys):
    # one process runs the calls in turn, an invalid one among them, on
    # one parser; each answers as it does in a fresh process
    first = ["verify", "--plane", "gl2", "--suite", "all", "--format", "json"]
    calls = [first,
             ["nf", "--plane", "sphere_qm1", "x0*x+"],
             ["verify", "--plane", "gl2", "--suite", "bogus"],
             ["verify", "--plane", "orth3", "--seed", "3", "--format", "json"],
             ["hamvec", "--plane", "gl2", "x"],
             first]
    fresh = {}
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        key = tuple(argv)
        if key not in fresh:
            fresh[key] = subprocess.run(
                [sys.executable, "-m", "qplane.cli", *argv],
                capture_output=True, text=True, timeout=120)
        assert (code, out) == (fresh[key].returncode, fresh[key].stdout), argv
    assert fresh[tuple(calls[2])].returncode == 2
    assert cli.build_parser() is cli.build_parser()


def test_failed_symplectic_checks_name_the_witness(tmp_path, capsys,
                                                  glq3_document):
    # d(a)*d(b) on GL_q(3) leaves the c direction out: D(c) contracts to
    # zero, and no field has -d(c) for its contraction
    doc = dict(glq3_document,
               symplectic={"form": "d(a)*d(b)", "scale": "1"})
    path = tmp_path / "glq3_omega.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "all")
    assert code == 1, err
    lines = out.splitlines()
    assert "FAIL closedness/nondegenerate: kernel field (1) * D(c) within " \
           "coefficient degree 1" in lines
    assert "FAIL hamiltonian/solve-c: no field within coefficient " \
           "degree 1" in lines
    assert "PASS hamiltonian/solve-a: status family: (s^2) * D(b)" in lines


def test_unsolved_fixture_field_fails_the_bracket_check(capsys):
    # the sphere's fields have degree-1 coefficients, so none is found
    # within degree 0, and the sphere's field and bracket tables apply
    code, out, err = run(capsys, "verify", "--plane", "sphere_qm1",
                         "--suite", "hamiltonian", "--degree", "0",
                         "--format", "json")
    assert code == 1, err
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hamiltonian/solve-x+"]["status"] == "fail"
    assert checks["hamiltonian/field-fixtures"]["status"] == "fail"
    bracket = checks["hamiltonian/bracket-fixtures"]
    assert bracket["status"] == "fail"
    assert "[x+,x-]: no field for x+" in bracket["detail"]


def test_query_commands_repeated_in_process_answer_as_fresh(capsys):
    # the form is built on the first call and kept on the plane; each
    # later call prints what a fresh process prints
    calls = [["hamvec", "--plane", "sphere_qm1", "x0"],
             ["bracket", "--plane", "sphere_qm1", "x+", "x-"],
             ["eom", "--plane", "sphere_qm1", "x0*x0 + x+*x-"],
             ["hamvec", "--plane", "sphere_qm1", "x0", "--degree", "2"],
             ["hamvec", "--plane", "gl2", "x*y"],
             ["bracket", "--plane", "gl2", "x", "y"],
             ["eom", "--plane", "gl2", "x*y"]]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "qplane.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        for _ in range(3):
            assert run(capsys, *argv) == (fresh.returncode, fresh.stdout,
                                          fresh.stderr), argv


def test_closed_stdout_ends_quietly():
    # the read end is closed before the child starts, so its first write
    # meets a pipe with no reader
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run_ = subprocess.run(
            [sys.executable, "-m", "qplane.cli", "nf", "--plane", "gl2",
             "y*x"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert run_.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert run_.stderr == ""


def test_interrupt_exits_130_with_one_line():
    # (1+s)^8000 takes far longer than the wait, on any host
    proc = subprocess.Popen(
        [sys.executable, "-m", "qplane.cli", "nf", "--plane", "gl2",
         "(1+s)^8000*x"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(1.2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == cli.EXIT_INTERRUPTED == 130
    assert (out, err) == ("", "interrupted\n")


def _gl2_with_symplectic(key, text):
    doc = _gl2_with()
    doc["symplectic"] = {**doc["symplectic"], key: text}
    return doc


@pytest.mark.parametrize("doc, message", [
    (_gl2_with_symplectic("scale", "x"),
     "symplectic.scale: unexpected token 'x' (at position 1)"),
    (_gl2_with_symplectic("form", "d(x)*"),
     "symplectic.form: unexpected end of input (at position 5)"),
    (_gl2_with_symplectic("form", "d(z)*d(y)"),
     "symplectic.form: unknown generator name at position 2"),
    ({**_gl2_with_symplectic("scale", "1/(q-1)"), "q": "1"},
     "symplectic.scale: pole at s = 1: 1/(s^2 - 1)"),
], ids=["scale-x", "form-truncated", "form-unknown-name", "scale-pole-at-q"])
@pytest.mark.parametrize("argv", [["verify", "--suite", "ybe"], ["nf", "x"]],
                         ids=["verify-ybe", "nf"])
def test_unreadable_symplectic_declaration_fails_at_load(tmp_path, capsys,
                                                         doc, message, argv):
    # loading reads the declared form and scale in the plane's field, so
    # every command refuses the document, naming the key, before any suite
    # or query runs
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, argv[0], "--plane", str(path), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unreadable_quotient_element_names_its_key(tmp_path, capsys):
    doc = _sphere_with(quotient={"central": "x0*", "symbol": "rho"})
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "nf", "--plane", str(path), "x0")
    assert (code, out) == (2, "")
    assert err.startswith("error: quotient.central: ")


def _gl2_r_with(row, col, text):
    doc = _gl2_with()
    doc["r_matrix"][row][col] = text
    return doc


@pytest.mark.parametrize("doc, message", [
    (_gl2_r_with(1, 2, "2"),
     "plane gl2: braid Yang-Baxter equation fails for the given r_matrix"),
    (_gl2_with(eigenvalues={"lambda1": "-q", "lambda2": "q"}),
     "plane gl2: minimal polynomial with the declared eigenvalues does not "
     "annihilate the r_matrix"),
    ({"name": "jordanian", "dimension": 2, "generators": ["x", "y"],
      "family": "A", "eigenvalues": {"lambda1": "-1", "lambda2": "1"},
      "r_matrix": [[1, -1, 1, 1], [0, 0, 1, 1], [0, 1, 0, -1], [0, 0, 0, 1]]},
     "plane jordanian: consistency conditions failed: "
     "['wz1_xx_xi_compat', 'wz4_ff_xi_compat']"),
    (_gl2_with(quotient={"central": "x", "symbol": "rho"}),
     "plane gl2: declared central element x is not central: it does not "
     "commute with y"),
    # R = qE with eigenvalues 0 and q satisfies the braid relation and its
    # minimal polynomial (it used to fail the word count)
    (_gl2_with(r_matrix=[["q" if r == c else "0" for c in range(4)]
                         for r in range(4)],
               eigenvalues={"lambda1": "0", "lambda2": "q"}),
     "plane gl2: eigenvalue lambda1 is 0, but a braid matrix is "
     "invertible"),
    # a singular diagonal R with eigenvalues q and 0 (it used to fail
    # with "C = qR is singular")
    (_gl2_with(r_matrix=[["q", "0", "0", "0"], ["0", "0", "0", "0"],
                         ["0", "0", "0", "0"], ["0", "0", "0", "q"]],
               eigenvalues={"lambda1": "q", "lambda2": "0"}),
     "plane gl2: eigenvalue lambda2 is 0, but a braid matrix is "
     "invertible"),
], ids=["braid-relation", "minimal-polynomial", "jordanian-wz",
        "central-element", "zero-eigenvalue-scalar-r",
        "zero-eigenvalue-singular-r"])
def test_failed_derivation_check_is_one_line(tmp_path, capsys, doc, message):
    # a plane exists only when every derivation check holds: verify prints
    # the one failed check and exits 1, and a query has no plane to ask
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "all")
    assert (code, out, err) == (1, f"FAIL load/derivation: {message}\n", "")
    code, out, err = run(capsys, "nf", "--plane", str(path), "x")
    assert (code, out, err) == (2, "", f"error: {message}\n")


SPHERE_GENERIC_CONFLUENCE = (
    "FAIL relations/confluence: 200 random words, 729 overlap words, "
    "16 mismatches; first d(x+)*x+*x-: leftmost redex first gives "
    "((-s^-1 + s^-3)*rho) * d(x+) + x-*x+*d(x+), last redex first "
    "gives ((-s^3 + s)*rho) * d(x+) + x-*x+*d(x+)")


def test_failed_confluence_names_its_first_witness(tmp_path, capsys):
    # the sphere's document at generic q: its rules and the quotient rule
    # do not resolve every overlap there
    path = tmp_path / "sphere_generic.json"
    path.write_text(json.dumps(_sphere_with(q="generic")), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "relations")
    assert (code, err) == (1, "")
    assert SPHERE_GENERIC_CONFLUENCE in out.splitlines()


@pytest.mark.parametrize("cap", ["3", "4"])
def test_confluence_words_are_not_capped(tmp_path, capsys, cap):
    # the overlap and sample words belong to the check, not to the call:
    # a lower cap reports the same failure
    path = tmp_path / "sphere_generic.json"
    path.write_text(json.dumps(_sphere_with(q="generic")), encoding="utf-8")
    code, out, err = run(capsys, "verify", "--plane", str(path), "--suite",
                         "relations", "--max-degree", cap)
    assert (code, err) == (1, "")
    assert SPHERE_GENERIC_CONFLUENCE in out.splitlines()


def test_confluence_is_certified_under_a_low_cap(capsys):
    code, out, err = run(capsys, "verify", "--plane", "gl2", "--suite",
                         "relations", "--max-degree", "2")
    assert (code, err) == (0, "")
    assert "PASS relations/confluence: certified: 32 critical pairs among " \
           "216 overlap words resolve" in out.splitlines()


def test_nf_takes_no_degree_bound(capsys):
    # nf solves nothing, so it has no --degree to ignore
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--plane", "gl2", "--degree", "7", "y*x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qplane ")
    assert "unrecognized arguments: --degree" in err
