"""List the ``raise`` statements of ``src/torifano`` that a test run never executes.

    python tests/unreached_raises.py [pytest args]

Runs pytest in this process (by default over the whole suite, quietly)
under a ``sys.settrace`` line collector that follows only code of the
package, then prints one ``path:line: source`` line for each ``raise``
statement none of whose lines ran, and their count.  A raise is found by
parsing each module, so one that spans several lines counts as reached
when any of its lines ran.  Code that the tests run in a child process
(``subprocess`` calls of the command line) is not traced, so a raise
reached only there is listed too.  The exit status is pytest's.

The collector is a tool for auditing the tests, not a test: pytest does
not collect this file.  Tracing slows the suite down about twofold.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "torifano"


def raise_spans(path):
    """(first line, last line) of every raise statement in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree) if isinstance(node, ast.Raise))


class LineCollector:
    """Lines executed in files under one directory, by real path."""

    def __init__(self, root):
        self.root = str(root) + os.sep
        self.lines = {}
        self._known = {}

    def _local(self, filename):
        # One realpath per distinct code filename; None for files outside the root.
        try:
            return self._known[filename]
        except KeyError:
            pass
        real = os.path.realpath(filename)
        local = None
        if real.startswith(self.root):
            lines = self.lines.setdefault(real, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

        self._known[filename] = local
        return local

    def trace(self, frame, event, arg):
        return self._local(frame.f_code.co_filename)

    def __enter__(self):
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def main(argv):
    import pytest

    with LineCollector(PACKAGE) as collector:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = collector.lines.get(os.path.realpath(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in raise_spans(path):
            if ran.isdisjoint(range(first, last + 1)):
                unreached.append(f"{path.relative_to(PACKAGE.parent.parent)}:{first}: {source[first - 1].strip()}")
    print()
    print("\n".join(unreached))
    print(f"{len(unreached)} raise statements in {PACKAGE.relative_to(PACKAGE.parent.parent)} never ran"
          " (child processes are not traced)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
