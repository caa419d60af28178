"""Benchmark of the torifano command line and its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-cold, exact-fan,
raw-halfspace and soliton (see README.md).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A summary goes to standard error.

The harness fixes hash seed, BLAS threads and a bytecode cache of its own
for itself and every process it starts, compiles the bytecode, times
``SETUP_REPEATS`` fresh set-up processes, each after a reference process
(reference.py), then starts the worker that runs the operations, and
checks every report against the oracle.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKER = os.path.join(HERE, "worker.py")

FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": os.path.join(BUILD, "pycache"),
    "PYTHONPATH": SRC,
}
# Set-up processes timed per run, besides the worker's own set-up.
SETUP_REPEATS = 8
# Whole runs end well inside the 180 s a run may take.
DEADLINE_S = 170

sys.path.insert(0, HERE)
import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


class RunError(Exception):
    pass


def _env_is_fixed():
    return all(os.environ.get(k) == v for k, v in FIXED_ENV.items()) and "PYTHONDONTWRITEBYTECODE" not in os.environ


def _fixed_env():
    env = dict(os.environ)
    env.update(FIXED_ENV)
    # Bytecode goes to the benchmark's own cache, and must be written there.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker_cmd(args, *extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out, *extra]
    return cmd + (["--quick"] if args.quick else [])


def _start_and_wait_ready(cmd):
    """Start a worker; returns (process, CPU s it used until it was ready)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().split()
    if len(ready) != 2 or ready[0] != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"set-up did not finish: printed {ready!r}")
    return proc, float(ready[1])


def _finish(proc, deadline):
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")


def _quantile(ordered, p):
    """The p-th percentile of sorted values, interpolating between them."""
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _problems(ops, result):
    """Check the first report of every operation; later rounds must repeat it.

    Only the operations marked ``fails_today`` may fail, and then in every
    round; once they stop failing, their reports are checked like the rest.
    """
    problems = []
    if [op.name for op in ops] != [o["name"] for o in result["ops"]]:
        return ["the worker ran another operation list"]
    rounds = len(result["rounds"])
    failures = collections.Counter(s[0] for r in result["rounds"] for s in r["samples"] if s[3])
    for i, (op, seen) in enumerate(zip(ops, result["ops"])):
        if failures[i] and not (op.fails_today and failures[i] == rounds):
            problems.append(f"{op.name}: failed in {failures[i]} of {rounds} rounds: {seen['error']}")
        if seen["first"] is None:
            continue
        for p in checks.check(op, json.loads(seen["first"])):
            problems.append(f"{op.name}: {p}")
        if seen["mismatches"]:
            problems.append(f"{op.name}: report changed in {seen['mismatches']} later rounds")
    return problems


def tail_percentile(ops):
    """The percentile op_tail_s reports: the highest whole one with at least
    ten successful samples beyond it in a run of the fewest rounds."""
    samples = workloads.MIN_ROUNDS * sum(not op.fails_today for op in ops)
    return math.floor(100 * (1 - 10 / samples))


def _end_to_end(workload, ops, result, setups, starts):
    """The end-to-end metrics, from CPU seconds of the process doing the work.

    Other tenants of the machine slow every process down, in bursts of
    seconds and in phases of minutes, so each time is scaled to a reference
    speed (reference.py): the set-ups by the median of the reference
    processes taken between them, the operations by the mean of the
    references taken among them in the timed rounds.
    """
    rounds = result["rounds"]
    samples = [s for r in rounds for s in r["samples"]]
    refs = [t for r in rounds for t in r["refs"]]
    setup_speed = statistics.median(starts) / reference.PROCESS_S
    op_speed = statistics.mean(refs) / (reference.PROCESS_S if workload == "cli-cold" else reference.KERNEL_S)
    ok = sorted(cpu / op_speed for _, _, cpu, failed in samples if not failed)
    p = tail_percentile(ops)
    print(f"perfbench: {len(rounds)} timed rounds, {len(ok)} successful samples, "
          f"{len(ok) * (100 - p) / 100:.1f} of them beyond the tail p{p}; mean round "
          f"{statistics.mean(r['wall'] for r in rounds):.3f} s of wall time", file=sys.stderr)
    print(f"perfbench: speed factors (reference time over its reference value): set-up {setup_speed:.3f}, "
          f"operations {op_speed:.3f}", file=sys.stderr)
    figures = {
        "setup_s": (statistics.median(setups) / setup_speed, "s"),
        "ops_per_s": (len(ok) * op_speed / sum(cpu for _, _, cpu, _ in samples), "1/s"),
        "op_p50_s": (statistics.median(ok), "s"),
        "op_tail_s": (_quantile(ok, p), "s"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}


def _trace_summary(result):
    info = result["trace_info"]
    plain = statistics.mean(info["untraced_round_s"])
    traced = statistics.mean(info["traced_round_s"])
    print(f"perfbench: traced round {traced:.3f} s, untraced {plain:.3f} s, "
          f"overhead {traced / plain - 1:+.1%}, self times cover {info['coverage']:.1%} of operation time",
          file=sys.stderr)
    for name, value in sorted(info["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"perfbench:   {name:28s} {value:.4f} s/round ({value / info['op_s_per_round']:.1%})",
              file=sys.stderr)


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "torifano", "__init__.py")):
        raise RunError(f"no torifano source under {SRC}; run from the root of a checkout")
    shutil.rmtree(args.out, ignore_errors=True)
    os.makedirs(args.out)
    for path in (os.path.join(SRC, "torifano"), HERE):
        if not compileall.compile_dir(path, quiet=1):
            raise RunError(f"cannot compile {path}")
    # An untimed set-up first writes the bytecode of everything torifano
    # imports into the cache and warms the file cache.
    _finish(_start_and_wait_ready(_worker_cmd(args, "--setup-only"))[0], deadline)
    setups, starts = [], []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        starts.append(reference.process_s())
        proc, cpu = _start_and_wait_ready(_worker_cmd(args, "--setup-only"))
        _finish(proc, deadline)
        setups.append(cpu)
    starts.append(reference.process_s())
    proc, cpu = _start_and_wait_ready(_worker_cmd(args))
    setups.append(cpu)
    _finish(proc, deadline)
    with open(os.path.join(args.out, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)

    ops = workloads.build(args.workload, args.seed, args.quick)
    problems = _problems(ops, result)
    for p in problems[:20]:
        print(f"perfbench: WRONG {p}", file=sys.stderr)
    samples = [s for r in result["rounds"] for s in r["samples"]]
    failed = sum(1 for *_, f in samples if f)
    for op, seen in zip(ops, result["ops"]):
        if seen["error"] is not None:
            print(f"perfbench: FAILED {op.name}: {seen['error']}", file=sys.stderr)
    if args.trace:
        _trace_summary(result)
        metrics = result["trace"]
    else:
        metrics = _end_to_end(args.workload, ops, result, setups, starts)
    return {"correct": not problems, "attempted": len(samples), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny operation lists, for testing the benchmark")
    args = parser.parse_args(argv)
    if not _env_is_fixed():
        # Hash seed and thread counts only take effect at interpreter start.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], _fixed_env())
    args.out = os.path.join(BUILD, f"{args.workload}-{args.seed}-{args.trace}{'-quick' if args.quick else ''}")
    try:
        summary = run(args)
    except (RunError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
