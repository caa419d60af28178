"""Compare the reports of two git revisions, operation by operation.

    python tests/compare_reports.py REV_A REV_B [--seeds 1-5]

Makes a ``git archive`` copy of each revision in a temporary directory.
Each copy then runs, in its own process with ``OPENBLAS_NUM_THREADS=1``,
every operation of its ``perfbench/workloads.py`` at the given seeds and
every built-in example below under every command, through its own
``torifano.cli.main``.  Each copy writes the workload documents to the same
relative path in its own working directory, so the two runs read the same
command lines.  The script prints each operation whose exit code, stderr,
or stdout without the ``wall_time_s`` line differs, or that only one
revision has, and then the count; the exit status is 0 when none differ.

``--seeds`` takes a range ``1-5`` or a list ``1,3,7``.  To compare
uncommitted work, stage it and pass ``$(git stash create)`` as a revision.
Float reports of ``ma-solve`` change with the BLAS thread count, hence the
one thread.  Stdlib only; pytest does not collect this file, and nothing is
written under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.M)
# The registry's examples, and parameters that take other code paths.
BUILTINS = (
    "p2", "p1xp1", "blowup-p2-1pt", "p1-fubini",
    "hexagon-dP6-t", "hexagon-dP6-t:0", "hexagon-dP6-t:1/7", "hexagon-dP6-t:-1/5",
    "pE-4fold-c", "pE-4fold-c:1/3",
)


def parse_seeds(text):
    first, dash, last = text.partition("-")
    if dash:
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_operations(checkout, seeds):
    """{key: [exit code, stderr, stdout without wall_time_s]} for every operation, run in this process."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from torifano import cli

    import workloads

    operations = []
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            ops = workloads.write_documents(workloads.build(workload, seed), f"docs/{workload}-{seed}")
            operations += [(f"{workload}:{seed}:{i}:{op.name}", op.argv) for i, op in enumerate(ops)]
    operations += [(f"builtin:{spec}:{command}", [command, "--example", spec]) for spec in BUILTINS for command in cli.COMMANDS]
    results = {}
    for key, argv in operations:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an escaped exception is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        results[key] = [code, err.getvalue(), WALL_TIME.sub("", out.getvalue())]
    return results


def checkout_reports(revision, seeds, directory):
    """Run every operation on a ``git archive`` copy of ``revision`` in a child process."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", revision], capture_output=True, check=True).stdout
    checkout = directory / "checkout"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(checkout, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    out = directory / "reports.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    work = directory / "work"
    work.mkdir()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run", str(checkout), "--out", str(out), "--seeds", seeds],
        cwd=work, env=env, check=True,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def differences(old, new):
    """One line per operation whose outcome differs, in the order ``old`` ran them."""
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new or key not in old:
            lines.append(f"{key}: only in {'the first' if key in old else 'the second'} revision")
            continue
        parts = [name for name, a, b in zip(("exit code", "stderr", "stdout"), old[key], new[key]) if a != b]
        if parts:
            lines.append(f"{key}: {', '.join(parts)} differ{'s' if len(parts) == 1 else ''}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs="*", metavar="REV", help="the two git revisions to compare")
    parser.add_argument("--seeds", default="1-5", help="workload seeds, as 1-5 or 1,3,7 (default 1-5)")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.run:
        results = run_operations(Path(args.run), seeds)
        Path(args.out).write_text(json.dumps(results), encoding="utf-8")
        return 0
    if len(args.revisions) != 2:
        parser.error("give two revisions")
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, revision in enumerate(args.revisions):
            directory = Path(tmp) / str(i)
            directory.mkdir()
            reports.append(checkout_reports(revision, args.seeds, directory))
    lines = differences(*reports)
    print("\n".join(lines + [f"{len(lines)} of {len(reports[0].keys() | reports[1].keys())} operations differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
