"""Golden command line output: every case's stdout and stderr must match the
recorded bytes exactly, except the timing field of verify reports.  Each
case but verify runs twice in the process, the second time with any model
file it reads parsed already, from the model cache.

The cases run in process with ``tests/golden`` as the working directory,
so model and config paths in ``cases.json`` are relative to it.
``PYTHONPATH=src python tests/test_golden.py`` records the cases that have
no ``.stdout`` file yet and leaves every recorded case alone, so adding
cases cannot silently re-record the others.  For each recorded case whose
output now differs it prints the drift: the largest relative change over
the numbers in its stdout and stderr, and whether any other text changed.
To record a case again after a deliberate output change, delete its
``.stdout`` and ``.stderr`` files first.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
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


def recorded_json(name) -> bool:
    """Whether the case's recorded stdout is a JSON document; a case not recorded yet has none."""
    path = GOLDEN / f"{name}.stdout"
    return path.exists() and path.read_text()[:1] == "{"


@pytest.mark.parametrize("name", sorted(filter(recorded_json, CASES)))
def test_golden_json_is_the_standard_librarys_bytes(name):
    """Every recorded JSON document is json.dumps(doc, indent=2)'s text of itself, whatever route rendered it."""
    text = (GOLDEN / f"{name}.stdout").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf(?:inity)?|nan))", re.IGNORECASE)


def drift(old: str, new: str) -> tuple[float, bool]:
    """The largest relative change between the numbers of old and new, taken in turn, and whether the text between
    them, or how many there are, changed."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if old_parts[::2] != new_parts[::2]:
        return math.nan, True
    largest = 0.0
    for a, b in zip(map(float, old_parts[1::2]), map(float, new_parts[1::2])):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            change = abs(a - b) / max(abs(a), abs(b))
            largest = max(largest, math.inf if math.isnan(change) else change)  # to or from inf or NaN
    return largest, False


def comparable(argv, stdout: bytes) -> str:
    """stdout as test_golden_output compares it: verify's without its timing."""
    return repr(without_seconds(stdout)) if argv[0] == "verify" else stdout.decode()


if __name__ == "__main__":
    for name, case in sorted(CASES.items()):
        code, stdout, stderr = run_case(case["argv"])
        if (GOLDEN / f"{name}.stdout").exists():
            old = comparable(case["argv"], (GOLDEN / f"{name}.stdout").read_bytes())
            old += (GOLDEN / f"{name}.stderr").read_text()
            new = comparable(case["argv"], stdout) + stderr.decode()
            if new != old or code != case["exit"]:
                largest, text = drift(old, new)
                other = "other text or the exit code" if text or code != case["exit"] else "no other text"
                print(f"{name}: largest relative change {largest:.3g}; {other} changed")
            continue
        if code != case["exit"]:
            sys.exit(f"{name}: exit code {code}, expected {case['exit']}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN / f"{name}.stderr").write_bytes(stderr)
