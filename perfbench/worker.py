"""The process that sets up one workload and runs its operations.

Started by run.py.  It imports torifano, builds and writes the workload's
documents and prints ``ready`` with the CPU time it used: that is the
set-up that ``setup_s`` measures.
With ``--setup-only`` it stops there.  Otherwise it runs one untimed
warm-up round, then whole timed rounds until ``--seconds`` have passed,
and writes what it saw to ``<out>/result.json`` for run.py to check.

In-process workloads call ``torifano.cli.main``; cli-cold starts one
``python -m torifano`` process per operation.  With ``--trace 1`` untraced
and traced rounds alternate, and the traced ones yield the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.M)
CHILD_TIMEOUT_S = 60
IMPORT_PROBES = 3


def own_cpu():
    """CPU seconds this process has used since it started."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def parse_importtime(stderr):
    """Cumulative import time in seconds of top-level torifano and of numpy."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].strip()
        if name in ("torifano", "numpy") and name not in out:
            out[name] = int(parts[1]) / 1e6
    return out


class Record:
    """First report of each operation, and whether later ones differ."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.error = [None] * len(ops)
        self.mismatches = [0] * len(ops)

    def add(self, i, code, stdout, error):
        """Store one outcome; returns True when the operation failed."""
        if error is None and code not in (0, 3):
            error = f"exit code {code}"
        if error is None and not stdout.strip():
            error = "empty report"
        if error is not None:
            if self.error[i] is None:
                self.error[i] = error
            return True
        if self.first[i] is None:
            self.first[i] = stdout
        elif WALL_TIME.sub("", stdout) != WALL_TIME.sub("", self.first[i]):
            self.mismatches[i] += 1
        return False

    def to_json(self):
        return [{"name": op.name, "first": f, "error": e, "mismatches": m}
                for op, f, e, m in zip(self.ops, self.first, self.error, self.mismatches)]


class InProcess:
    """Runs operations through torifano.cli.main in this process."""

    def __init__(self):
        from torifano import cli

        self.cli = cli

    def run(self, op, traced=False):
        out, err = io.StringIO(), io.StringIO()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
            error = None
        except Exception as exc:  # an escaped exception is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - cpu
        elapsed = time.perf_counter() - start
        return (elapsed, cpu), code, out.getvalue(), error, {"numpy_loaded": "numpy" in sys.modules}

    reference_every = 1

    def reference(self):
        import reference

        return reference.kernel_s()

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cold:
    """Runs each operation as a fresh ``python -m torifano`` process.

    Traced operations run under ``-X importtime`` through cold_child.py,
    which installs the tracer after ``import torifano`` and writes spans.
    """

    def __init__(self, out):
        self.spans_dir = os.path.join(out, "cold-spans")
        self.count = 0
        self.peak_kib = 0
        self.out_path = os.path.join(out, "child-stdout")
        self.err_path = os.path.join(out, "child-stderr")

    def run(self, op, traced=False):
        extra = {}
        if traced:
            os.makedirs(self.spans_dir, exist_ok=True)
            path = os.path.join(self.spans_dir, f"{self.count:05d}.json")
            self.count += 1
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "cold_child.py"), path, *op.argv]
            extra["spans"] = path
        else:
            cmd = [sys.executable, "-m", "torifano", *op.argv]
        code, stdout, stderr, cpu, elapsed = self._child(cmd)
        error = None
        if code not in (0, 3):
            tail = stderr.strip().splitlines()[-1:] or [""]
            error = f"exit code {code}: {tail[0]}"
        if traced:
            extra["imports"] = parse_importtime(stderr)
            extra["numpy_loaded"] = "numpy" in extra["imports"]
        return (elapsed, cpu), code, stdout, error, extra

    def _child(self, cmd):
        """Run one child to its end: exit code, output, error output, CPU s
        and wall s.  The child is reaped here, so that its own resource use,
        and not that of the reference processes, sets the peak RSS."""
        with open(self.out_path, "w+") as out, open(self.err_path, "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, text=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read(), usage.ru_utime + usage.ru_stime, elapsed

    # One reference process per round: each costs most of a cold operation.
    reference_every = 10**9

    def reference(self):
        import reference

        return reference.process_s()

    def peak_rss_kib(self):
        return self.peak_kib


def run_round(runner, ops, record, traced=False):
    """One pass over every operation, with the runner's reference before
    every ``reference_every``-th one.

    Returns the round as a dict (wall time, the references' CPU s, and a sample
    (op index, wall s, CPU s, failed) per operation) and what the runner
    reported besides.
    """
    samples, extras, refs = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i % runner.reference_every == 0:
            refs.append(runner.reference())
        (elapsed, cpu), code, stdout, error, extra = runner.run(op, traced)
        failed = record.add(i, code, stdout, error)
        samples.append((i, elapsed, cpu, failed))
        extras.append(extra)
    return {"wall": time.perf_counter() - start, "refs": refs, "samples": samples}, extras


def import_probes():
    """Import times of torifano and numpy in fresh processes."""
    found = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import torifano"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        found.append(parse_importtime(proc.stderr))
    return found


def src_lines():
    import torifano

    pkg = os.path.dirname(torifano.__file__)
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def traced_rounds(runner, ops, record, seconds, cold):
    """Alternate untraced and traced rounds; per-layer metrics per round."""
    import spans

    tracer = spans.Tracer()
    rounds, plain_walls, traced_walls, op_time, imports, numpy_exact = [], [], [], 0.0, [], 0
    start = time.perf_counter()
    while True:
        plain, _ = run_round(runner, ops, record)
        plain_walls.append(plain["wall"])
        rounds.append(plain)
        if not cold:
            tracer.install()
        try:
            traced, extras = run_round(runner, ops, record, traced=True)
        finally:
            tracer.uninstall()
        traced_walls.append(traced["wall"])
        rounds.append(traced)
        op_time += sum(dt for _, dt, _, _ in traced["samples"])
        for op, extra in zip(ops, extras):
            numpy_exact += op.exact_only and extra["numpy_loaded"]
            if cold and os.path.exists(extra["spans"]):
                imports.append(extra["imports"])
                with open(extra["spans"], encoding="utf-8") as handle:
                    child = json.load(handle)
                base = len(tracer.spans)
                tracer.spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                                    for s in child["spans"])
                tracer.counts.update(child["counts"])
        if time.perf_counter() - start >= seconds:
            break
    ntraced = len(traced_walls)
    if not cold:
        imports = import_probes()
    metrics = spans.layer_metrics(tracer.spans, tracer.counts, ntraced)
    torifano_s = [x["torifano"] for x in imports if "torifano" in x]
    numpy_s = [x["numpy"] for x in imports if "numpy" in x]
    metrics["cli.import_torifano_s"] = {"value": statistics.median(torifano_s), "unit": "s"}
    metrics["cli.import_numpy_s"] = {"value": statistics.median(numpy_s) if numpy_s else 0.0, "unit": "s"}
    metrics["cli.numpy_loaded_exact_ops"] = {"value": numpy_exact / ntraced, "unit": "count"}
    metrics["repo.src_lines"] = {"value": src_lines(), "unit": "count"}
    covered = sum(spans.self_times(tracer.spans))
    if cold:
        covered += sum(torifano_s)
    info = {
        "untraced_round_s": plain_walls,
        "traced_round_s": traced_walls,
        "coverage": covered / op_time,
        "layer_self_s": {k: v["value"] for k, v in metrics.items() if k.startswith("layer.")},
        "op_s_per_round": op_time / ntraced,
    }
    return tracer, metrics, info, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import torifano  # noqa: F401  (part of the set-up that setup_s times)
    import workloads

    ops = workloads.write_documents(workloads.build(args.workload, args.seed, args.quick),
                                    os.path.join(args.out, "docs"))
    print(f"ready {own_cpu()!r}", flush=True)
    if args.setup_only:
        return 0

    cold = args.workload == "cli-cold"
    runner = Cold(args.out) if cold else InProcess()
    record = Record(ops)
    run_round(runner, ops, record)  # warm-up, untimed

    result = {"rounds": [], "trace": None}
    if args.trace:
        tracer, metrics, info, rounds = traced_rounds(runner, ops, record, args.seconds, cold)
        tracer.dump(os.path.join(args.out, "spans.json"))
        result.update(trace=metrics, trace_info=info, rounds=rounds)
    else:
        start = time.perf_counter()
        while True:
            result["rounds"].append(run_round(runner, ops, record)[0])
            if time.perf_counter() - start >= args.seconds and len(result["rounds"]) >= workloads.MIN_ROUNDS:
                break
        result["peak_rss_kib"] = runner.peak_rss_kib()
    result["ops"] = record.to_json()
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
