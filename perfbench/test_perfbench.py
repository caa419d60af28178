"""Tests of the benchmark itself, on the quick (tiny) operation lists.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_checks_pass(workload):
    result = last_json(run_bench(workload, 0))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    fails_today = sum(op.fails_today for op in workloads.build(workload, 3, quick=True))
    assert result["failed"] * len(workloads.build(workload, 3, quick=True)) == fails_today * result["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_reports_every_layer_metric(workload):
    result = last_json(run_bench(workload, 1))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # Metrics that show the work each workload exists for; a zero would
    # mean the tracer missed the calls.
    used = {
        "cli-cold": ["cli.import_torifano_s", "cli.main_self_s", "problems.builtin_example_s"],
        "exact-fan": ["problems.load_problem_s", "geometry.validate_fan_s", "geometry.polytope_from_support_s",
                      "geometry.triangulate_calls", "moments.barycenter_calls", "layer.stability.self_s"],
        "raw-halfspace": ["geometry.polytope_from_halfspaces.bounded_s",
                          "geometry.polytope_from_halfspaces.infeasible_s",
                          "geometry.polytope_from_halfspaces.unbounded_s"],
        "soliton": ["moments.weighted_barycenter_calls", "stability.newton_iterations", "masolver.sweeps"],
    }[workload]
    for name in used:
        assert result["metrics"][name]["value"] > 0, name


def test_tracer_follows_from_import_bindings(tmp_path):
    """stability and cli bind geometry and moments functions by name."""
    from torifano import cli, stability

    ops = workloads.write_documents(workloads.build("exact-fan", 3, quick=True), str(tmp_path))
    op = next(o for o in ops if o.command == "barycenter")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    parent = {i: tracer.spans[s[3]][0] for i, s in enumerate(tracer.spans) if s[3] >= 0}
    assert "cli.main" in names
    # triangulate reached through stability's "from .geometry import triangulate"
    assert any(n == "geometry.triangulate" and parent.get(i) in ("cli.run", "stability.sum_barycenter")
               for i, n in enumerate(names))
    # barycenter reached through cli's "from .moments import barycenter"
    assert any(n == "moments.barycenter" and parent.get(i) == "cli.run" for i, n in enumerate(names))
    assert tracer.counts["linalg.det"] > 0
    assert stability.triangulate.__module__ == "torifano.geometry"
    assert not hasattr(stability.triangulate, "__wrapped__")


def _report(op, tmp_path):
    from torifano import cli

    workloads.write_documents([op], str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv) == 0
    return json.loads(out.getvalue())


def test_perturbed_sum_of_barycenters_is_wrong(tmp_path):
    op = next(o for o in workloads.build("exact-fan", 3, quick=True) if o.command == "ke-verdict")
    report = _report(op, tmp_path)
    assert checks.check(op, report) == []
    sb = report["results"]["sum_barycenter"]
    sb[0] = str(Fraction(sb[0]) + Fraction(1, 1000))
    assert checks.check(op, report)


def test_perturbed_weighted_barycenter_is_wrong(tmp_path):
    op = next(o for o in workloads.build("soliton", 3, quick=True) if o.command == "soliton-check")
    report = _report(op, tmp_path)
    assert checks.check(op, report) == []
    a = report["results"]["per_polytope"][0]
    a[0] = repr(float(a[0]) + 1e-7)
    assert checks.check(op, report)


def test_perturbed_vertex_count_is_wrong(tmp_path):
    op = next(o for o in workloads.build("raw-halfspace", 3, quick=True) if o.name.startswith("validate:known"))
    report = _report(op, tmp_path)
    assert checks.check(op, report) == []
    report["results"]["parts"][0]["nvertices"] += 1
    assert checks.check(op, report)


def test_unexpected_failures_are_wrong():
    """Only operations marked fails_today may fail, and then in every round."""
    import run

    ops = workloads.build("soliton", 3, quick=True)
    marked = next(i for i, op in enumerate(ops) if op.fails_today)
    other = next(i for i, op in enumerate(ops) if not op.fails_today)

    def result(failing):
        rounds = [{"samples": [(i, 0.1, 0.1, (i, r) in failing) for i in range(len(ops))]} for r in range(2)]
        return {"rounds": rounds, "ops": [{"name": op.name, "first": None, "error": "OverflowError", "mismatches": 0}
                                          for op in ops]}

    assert run._problems(ops, result({(marked, 0), (marked, 1)})) == []
    assert run._problems(ops, result({(marked, 0)}))
    assert run._problems(ops, result({(marked, 0), (marked, 1), (other, 1)}))


def test_oracle_weighted_barycenter_routes_agree():
    # P^2 with V = (400, 0): the x-marginal density is (2 - x) e^{400 x} on
    # [-1, 2], whose mean has the closed form 2 - 2/400 + O(e^{-1200}); the
    # section at x is [-1, 1 - x], so y averages -x/2.
    verts, _ = oracle.polygon_vertices(workloads.FANS_2D["p2"][0], [1, 1, 1])
    _, (ax, ay) = oracle.polygon_weighted([tuple(map(float, v)) for v in verts], (400.0, 0.0))
    assert ax == pytest.approx(2 - 2 / 400, abs=1e-12)
    assert ay == pytest.approx(-ax / 2, abs=1e-12)
    # A square is a product of intervals.
    square = [(-1.0, -1.0), (2.0, -1.0), (2.0, 1.0), (-1.0, 1.0)]
    _, a = oracle.polygon_weighted(square, (0.7, -1.3))
    assert a[0] == pytest.approx(oracle.interval_mean(-1, 2, 0.7), abs=1e-13)
    assert a[1] == pytest.approx(oracle.interval_mean(-1, 1, -1.3), abs=1e-13)


def test_oracle_gl_rule_and_shoelace():
    rays = workloads.FANS_2D["blowup-p2-1pt"][0]
    area, b = oracle.shoelace(oracle.polygon_vertices(rays, [1, 1, 1, 1])[0])
    # the triangle (-1,-1), (2,-1), (-1,2) minus its corner at (-1,-1)
    assert area == Fraction(9, 2) - Fraction(1, 2)
    assert b == (Fraction(1, 12), Fraction(1, 12))
    # rays d -> U d send the polytope, and so its barycenter, to U^{-T}
    u, u_inv = oracle.unimodular_pair(random.Random(1), 2)
    moved = [oracle.mat_vec(u, d) for d in rays]
    area2, b2 = oracle.shoelace(oracle.polygon_vertices(moved, [1, 1, 1, 1])[0])
    assert area2 == area
    assert b2 == oracle.mat_vec(oracle.transpose(u_inv), b)


def test_benchmark_files_import_nothing_from_torifano():
    for name in ("oracle.py", "checks.py", "workloads.py", "run.py", "reference.py"):
        with open(os.path.join(HERE, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("torifano") for a in node.names), name
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("torifano"), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("exact-fan", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
