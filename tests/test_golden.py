"""Byte-for-byte regression of the verification reports.

`tests/golden/verify_<plane>_seed<k>.json` is the stdout of

    qplane verify --plane <plane> --suite all --format json --seed <k>

in a fresh process.  A change that only makes the engine faster must leave
these bytes alone; regenerate a file with the command above only when a
change means to alter the report, and say why in the change.
"""

import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("plane", ["gl2", "orth3", "sphere_qm1"])
def test_verify_report_matches_golden(plane, seed):
    cmd = [sys.executable, "-m", "qplane.cli", "verify", "--plane", plane,
           "--suite", "all", "--format", "json", "--seed", str(seed)]
    run = subprocess.run(cmd, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    want = (GOLDEN / f"verify_{plane}_seed{seed}.json").read_bytes()
    assert run.stdout == want
