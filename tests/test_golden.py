"""Golden command line output: every case's stdout and stderr must match the
recorded bytes exactly, except the timing field of verify reports.  Each
case but verify runs twice in the process, the second time with any model
file it reads parsed already, from the model cache.

The cases run in process with ``tests/golden`` as the working directory,
so model and config paths in ``cases.json`` are relative to it.
``PYTHONPATH=src python tests/test_golden.py`` records the cases that have
no ``.stdout`` file yet and leaves every recorded case alone, so adding
cases cannot silently re-record the others.  To record a case again after
a deliberate output change, delete its ``.stdout`` and ``.stderr`` files
first.
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ohmcov.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue().encode()


def without_seconds(stdout: bytes):
    """verify output with the per-suite timing dropped; the rest as recorded."""
    text = stdout.decode()
    if not text.startswith("{"):  # csv, with seconds as the last column
        return [row[:-1] for row in csv.reader(io.StringIO(text))]
    doc = json.loads(text)
    for suite in doc["suites"]:
        suite.pop("seconds")
    return doc


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    case = CASES[name]
    code, stdout, stderr = run_case(case["argv"])
    assert code == case["exit"]
    want = (GOLDEN / f"{name}.stdout").read_bytes()
    if case["argv"][0] == "verify":
        assert without_seconds(stdout) == without_seconds(want)
    else:
        assert stdout == want
        assert run_case(case["argv"]) == (code, stdout, stderr)  # again, with the model from the model cache
    assert stderr == (GOLDEN / f"{name}.stderr").read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in CASES if (GOLDEN / f"{name}.stdout").read_text()[:1] == "{"))
def test_golden_json_is_the_standard_librarys_bytes(name):
    """Every recorded JSON document is json.dumps(doc, indent=2)'s text of itself, whatever route rendered it."""
    text = (GOLDEN / f"{name}.stdout").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


if __name__ == "__main__":
    for name, case in sorted(CASES.items()):
        if (GOLDEN / f"{name}.stdout").exists():
            continue
        code, stdout, stderr = run_case(case["argv"])
        if code != case["exit"]:
            sys.exit(f"{name}: exit code {code}, expected {case['exit']}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
