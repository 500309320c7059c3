"""Byte-for-byte regression of the reports, query outputs and documents.

`tests/golden/verify_<plane>_seed<k>.json` is the stdout of

    qplane verify --plane <plane> --suite all --format json --seed <k>

in a fresh process, and `tests/golden/verify_<document>_seed0.json` the
same report for a plane document of `DOCUMENTS` given as `--plane <file>`.
`tests/golden/query_<command>_<plane>.txt` is a
transcript of the query commands in `QUERIES` (one `$ qplane ...` line, the
stdout and the exit code per call), and `tests/golden/serialize_<plane>.json`
is `planes.serialize_plane` of a built-in plane.  A change that only makes
the engine faster or smaller must leave these bytes alone; regenerate the
files with

    PYTHONPATH=src python tests/test_golden.py

only when a change means to alter the output, and say why in the change.
"""

import contextlib
import io
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile

import pytest

from conftest import glq_plane_document, twisted_glq_document

GOLDEN = pathlib.Path(__file__).parent / "golden"
BUILTINS = ["gl2", "orth3", "sphere_qm1"]

# golden name -> plane document: the generated GL_q(4) plane, and a
# multiparameter GL_q(3) plane in the reversed basis
DOCUMENTS = {
    "glq4": glq_plane_document(4),
    "twisted3_reversed": twisted_glq_document(3, reverse=True),
}

# (command, plane) -> argument lists after `--plane <plane>`
QUERIES = {
    ("nf", "gl2"): [["y*x"], ["d(y)*x*D(x)"], ["(x+q*y)^3"], ["D(y)*y*y"]],
    ("nf", "sphere_qm1"): [["x+*x-"], ["x0*x0*x+"], ["d(x-)*x+*D(x0)"],
                           ["D(x0)*x0"]],
    ("bracket", "gl2"): [["x", "y"], ["x*y", "x"],
                         ["y", "x*x", "--degree", "2"]],
    ("bracket", "sphere_qm1"): [["x+", "x-"], ["x0", "x+"], ["x-", "x0"],
                                ["x0*x+", "x0", "--degree", "0"]],
    ("hamvec", "gl2"): [["x"], ["y"], ["x*y", "--degree", "2"]],
    ("hamvec", "sphere_qm1"): [["x0"], ["x+*x-", "--degree", "2"],
                               ["x0*x+", "--degree", "0"]],
    ("eom", "gl2"): [["x*y"], ["x*x + y*y", "--degree", "2"]],
    ("eom", "sphere_qm1"): [["x0"], ["x+*x- + x0*x0", "--degree", "2"]],
}


def verify_report(plane, seed=0):
    """stdout of `qplane verify --suite all --format json` in a fresh
    process; `plane` is a built-in name or a path."""
    cmd = [sys.executable, "-m", "qplane.cli", "verify", "--plane", plane,
           "--suite", "all", "--format", "json", "--seed", str(seed)]
    run = subprocess.run(cmd, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def document_report(name):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(DOCUMENTS[name]))
        return verify_report(str(path))


def query_transcript(command, plane):
    from qplane.cli import main
    out = []
    for args in QUERIES[command, plane]:
        argv = [command, "--plane", plane] + args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out.append(f"$ qplane {shlex.join(argv)}\n{buf.getvalue()}"
                   f"exit {code}\n")
    return "".join(out)


def serialized(plane):
    from qplane import planes
    return planes.serialize_plane(planes.builtin_plane(plane)) + "\n"


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("plane", BUILTINS)
def test_verify_report_matches_golden(plane, seed):
    want = (GOLDEN / f"verify_{plane}_seed{seed}.json").read_bytes()
    assert verify_report(plane, seed) == want


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_report_matches_golden(name):
    want = (GOLDEN / f"verify_{name}_seed0.json").read_bytes()
    assert document_report(name) == want


@pytest.mark.parametrize("command,plane", sorted(QUERIES))
def test_query_transcript_matches_golden(command, plane):
    want = (GOLDEN / f"query_{command}_{plane}.txt").read_bytes()
    assert query_transcript(command, plane).encode() == want


@pytest.mark.parametrize("plane", BUILTINS)
def test_serialized_plane_matches_golden(plane):
    want = (GOLDEN / f"serialize_{plane}.json").read_bytes()
    assert serialized(plane).encode() == want


def _regenerate():
    for command, plane in sorted(QUERIES):
        (GOLDEN / f"query_{command}_{plane}.txt").write_bytes(
            query_transcript(command, plane).encode())
    for plane in BUILTINS:
        (GOLDEN / f"serialize_{plane}.json").write_bytes(
            serialized(plane).encode())
    for plane in BUILTINS:
        for seed in (0, 3):
            (GOLDEN / f"verify_{plane}_seed{seed}.json").write_bytes(
                verify_report(plane, seed))
    for name in DOCUMENTS:
        (GOLDEN / f"verify_{name}_seed0.json").write_bytes(
            document_report(name))


if __name__ == "__main__":
    _regenerate()
