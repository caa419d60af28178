"""Stored reports of the exact commands on the built-in examples.

``validate``, ``barycenter``, ``ke-verdict``, ``df`` and ``lift`` use only
pure-Python integer and Fraction arithmetic, float documents too, which
are measured on the exact value of their binary input and rounded once.
So their reports need no numpy, do not depend on the platform or the
interpreter, and must not change apart from ``wall_time_s``; CI runs this
module without numpy on the oldest and newest Python it supports.  Each
stored entry keeps the exit code, the report without ``wall_time_s``, and
the stderr line of a command that exits non-zero.  Float solver reports
depend on numpy and BLAS and are not stored.

Regenerate the file only when a report is meant to change::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from torifano.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
COMMANDS = ("validate", "barycenter", "ke-verdict", "df", "lift")
EXAMPLES = (
    "p2",
    "p1xp1",
    "blowup-p2-1pt",
    "hexagon-dP6-t",
    "hexagon-dP6-t:1/7",
    "pE-4fold-c",
    "pE-4fold-c:1/3",
    "p1-fubini",
)


def _entry(command, example):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--example", example])
    entry = {"code": code}
    if out.getvalue():
        report = json.loads(out.getvalue())
        del report["wall_time_s"]
        entry["report"] = report
    if code:
        entry["stderr"] = err.getvalue()
    return entry


def _key(command, example):
    return f"{command} {example}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(c, e) for c in COMMANDS for e in EXAMPLES)


@pytest.mark.parametrize("example", EXAMPLES)
@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_the_stored_one(golden, command, example):
    assert _entry(command, example) == golden[_key(command, example)]


if __name__ == "__main__":
    stored = {_key(c, e): _entry(c, e) for c in COMMANDS for e in EXAMPLES}
    GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
