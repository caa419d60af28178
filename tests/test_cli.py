"""Command-line interface: reports, exit codes, determinism."""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torifano
from torifano import cli, geometry, linalg, moments, stability
from torifano.cli import main
from torifano.problems import (
    builtin_example,
    critical_bundle_parameter,
    document_from_dict,
    document_to_dict,
)
from reference_moments import dd_simplices_by_rows

PAIR_DOC = {
    "name": "interval-pair",
    "dimension": 1,
    "halfspaces": [
        [[[1], "3/4"], [[-1], "1/4"]],
        [[[1], "1/4"], [[-1], "3/4"]],
    ],
    "vector_fields": [["2"], ["0"]],
}

# x >= 0, y >= 0: a vertex and two recession rays.
ORTHANT_DOC = {"name": "orthant", "dimension": 2, "halfspaces": [[[[1, 0], "0"], [[0, 1], "0"]]]}

REPORT_KEYS = {
    "command",
    "diagnostics",
    "document",
    "options_used",
    "results",
    "version",
    "wall_time_s",
}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_no_bare_floats(node):
    assert not isinstance(node, float)
    if isinstance(node, dict):
        for v in node.values():
            assert_no_bare_floats(v)
    elif isinstance(node, list):
        for v in node:
            assert_no_bare_floats(v)


def run_cli_process(*args):
    """Run the CLI in a fresh process on the same source as this process.

    Uses the ``torifano`` console script when it is on PATH, else
    ``python -m torifano``, which needs no install.
    """
    script = shutil.which("torifano")
    launcher = [script] if script else [sys.executable, "-m", "torifano"]
    return subprocess.run(
        [*launcher, *args], capture_output=True, text=True, env=_child_env(), timeout=120
    )


def _child_env():
    """This environment with the package under test first on PYTHONPATH."""
    package_root = str(Path(torifano.__file__).resolve().parent.parent)
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))


def test_console_script_deterministic_output():
    cmd = ["ke-verdict", "--example", "hexagon-dP6-t:1/10"]
    runs = [run_cli_process(*cmd) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr
    outs = [
        "\n".join(l for l in r.stdout.splitlines() if "wall_time_s" not in l)
        for r in runs
    ]
    assert outs[0] == outs[1]
    report = json.loads(runs[0].stdout)
    assert report["results"]["verdict"] == "NotExists"
    assert report["results"]["sum_barycenter"] == ["148/66303", "148/66303"]


def test_console_script_missing_command_exits_one():
    r = run_cli_process()
    assert r.returncode == 1, r.stderr
    assert r.stdout == ""
    assert "missing command" in r.stderr


def test_report_envelope_and_float_encoding(capsys):
    code, report, _ = run_cli(capsys, "ke-verdict", "--example", "p2")
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["version"] == "torifano 0.1.0"
    assert report["command"] == "ke-verdict"
    assert report["options_used"]["tol"] == "1e-10"
    float(report["wall_time_s"])
    assert_no_bare_floats(report)
    assert report["results"]["verdict"] == "Exists"


def test_usage_errors_exit_one(capsys):
    for args in (
        [],
        ["ke-verdict"],
        ["ke-verdict", "--example", "no-such-example"],
        ["ke-verdict", "--example", "hexagon-dP6"],
        ["ke-verdict", "--example", "p2", "--input", "x.json"],
        ["frobnicate", "--example", "p2"],
        ["ma-solve", "--example", "p1-fubini", "--grid", "R=6"],
    ):
        code = main(args)
        capsys.readouterr()
        assert code == 1, args


def test_unknown_example_lists_registry(capsys):
    code, _, err = run_cli(capsys, "ke-verdict", "--example", "nope")
    assert code == 1
    assert "hexagon-dP6-t" in err and "p2" in err


def test_invalid_input_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ke-verdict", "--input", str(tmp_path / "missing.json"))
    assert code == 2

    bad = {
        "name": "bad",
        "dimension": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
        "decomposition": [["1/0", 1, 1]],
    }
    code, _, err = run_cli(capsys, "ke-verdict", "--input", write_doc(tmp_path, bad))
    assert code == 2
    assert "decomposition[0][0]" in err

    twosrc = dict(bad, decomposition=[[1, 1, 1]], halfspaces=[[[1, 0], 1]])
    code, _, err = run_cli(capsys, "ke-verdict", "--input", write_doc(tmp_path, twosrc))
    assert code == 2
    assert "geometry source" in err

    code, _, err = run_cli(capsys, "soliton-check", "--example", "p2")
    assert code == 2
    assert "vector_fields" in err

    code, _, err = run_cli(capsys, "ma-solve", "--example", "p2")
    assert code == 2


# Both parts lie in x >= 1/2, so every weighted barycenter does too and the
# soliton residual sum_i A_i(V) stays above 1 for every field V.
UNREACHABLE_DOC = {
    "name": "right-of-a-half",
    "dimension": 1,
    "halfspaces": [
        [[[1], "-1/2"], [[-1], "1"]],
        [[[1], "-1/2"], [[-1], "2"]],
    ],
}


def test_nonconvergence_exits_three(tmp_path, capsys):
    code, report, _ = run_cli(capsys, "soliton-solve", "--input", write_doc(tmp_path, UNREACHABLE_DOC))
    assert code == 3
    assert report["results"]["converged"] is False
    assert float(report["results"]["residual_norm"]) > 0.5


def test_solve_cut_short_exits_three(capsys, monkeypatch):
    # The hexagon solve needs two Newton iterations; one cannot converge.
    real = stability.solve_soliton
    monkeypatch.setattr(cli, "solve_soliton", lambda dec, tol: real(dec, tol=tol, max_iter=1))
    code, report, _ = run_cli(capsys, "soliton-solve", "--example", "hexagon-dP6-t:1/10")
    assert code == 3
    assert report["results"]["converged"] is False
    assert report["results"]["iterations"] == 1


def test_builtin_documents_roundtrip():
    names = (
        "p2",
        "p1xp1",
        "blowup-p2-1pt",
        "hexagon-dP6-t",
        "hexagon-dP6-t:1/10",
        "pE-4fold-c:1/2",
        "pE-4fold-c",
        "p1-fubini",
    )
    for name in names:
        doc = builtin_example(name)
        again = document_from_dict(json.loads(json.dumps(document_to_dict(doc), indent=2, sort_keys=True)), doc.name)
        assert again == doc, name


def test_builtin_frozen_content():
    p2 = builtin_example("p2")
    assert p2.rays == ((1, 0), (0, 1), (-1, -1))
    assert p2.decomposition == ((1, 1, 1),)

    from fractions import Fraction

    hexagon = builtin_example("hexagon-dP6-t:0")
    assert len(hexagon.rays) == 6
    assert hexagon.decomposition[0] == hexagon.decomposition[1]
    assert all(x == Fraction(1, 2) for x in hexagon.decomposition[0])

    pe = builtin_example("pE-4fold-c:1/2")
    assert len(pe.halfspaces) == 2
    part = pe.halfspaces[0]
    assert part == pe.halfspaces[1]
    assert part[0] == ((1, 1, 0, 2), Fraction(1, 2))
    assert part[3] == ((0, 0, 1, -3), Fraction(1, 2))
    assert any("leq" in note for note in pe.notes)

    crit = builtin_example("pE-4fold-c")
    offsets = {offset for _, offset in crit.halfspaces[0]}
    assert critical_bundle_parameter() in offsets
    assert not crit.exact


def test_barycenter_bundle_frozen(capsys):
    code, report, _ = run_cli(capsys, "barycenter", "--example", "pE-4fold-c:1/2")
    assert code == 0
    parts = report["results"]["parts"]
    assert [p["volume"] for p in parts] == ["25/144", "25/144"]
    assert parts[0]["barycenter"] == ["0", "0", "0", "1/250"]
    assert report["results"]["sum_barycenter"] == ["0", "0", "0", "1/125"]


def test_ke_verdict_critical_parameter(capsys):
    code, report, _ = run_cli(capsys, "ke-verdict", "--example", "pE-4fold-c")
    assert code == 0
    res = report["results"]
    assert res["verdict"] == "Exists"
    assert res["exact"] is False
    assert abs(float(res["sum_barycenter"][3])) < 1e-10


def test_df_hexagon_frozen(capsys):
    code, report, _ = run_cli(capsys, "df", "--example", "hexagon-dP6-t:1/10")
    assert code == 0
    assert report["results"]["value"] == "-43808/4396087809"
    assert report["results"]["vfield"] == ["-148/66303", "-148/66303"]

    code, report, _ = run_cli(
        capsys, "df", "--example", "hexagon-dP6-t:1/10", "--vfield", "1,1"
    )
    assert code == 0
    assert report["results"]["value"] == "296/66303"


def test_lift_identity_holds(capsys):
    code, report, _ = run_cli(
        capsys, "lift", "--example", "blowup-p2-1pt", "--vfield", "1,1", "--cap", "1"
    )
    assert code == 0
    part = report["results"]["parts"][0]
    assert part["identity_holds"] is True
    assert part["volume_lifted"] == part["volume_product"] == "14/3"


def test_soliton_solve_blowup(capsys):
    code, report, _ = run_cli(capsys, "soliton-solve", "--example", "blowup-p2-1pt")
    assert code == 0
    res = report["results"]
    assert res["converged"] is True
    assert res["iterations"] <= 25
    v = [float(x) for x in res["vfield"]]
    assert abs(v[0] - v[1]) < 1e-10
    assert float(res["residual_norm"]) < 1e-10
    assert float(report["diagnostics"]["hessian_condition"]) >= 1.0


def test_soliton_check_raw_documents(tmp_path, capsys):
    code, report, _ = run_cli(
        capsys, "soliton-check", "--input", write_doc(tmp_path, PAIR_DOC)
    )
    assert code == 0
    assert report["results"]["is_soliton"] is False
    assert float(report["results"]["norm"]) == pytest.approx(0.156518, abs=1e-6)

    balanced = dict(PAIR_DOC, vector_fields=[["0"], ["0"]])
    code, report, _ = run_cli(
        capsys, "soliton-check", "--input", write_doc(tmp_path, balanced, "b.json")
    )
    assert code == 0
    assert report["results"]["is_soliton"] is True
    assert report["results"]["per_polytope"] == [["-0.25"], ["0.25"]]
    assert report["results"]["norm"] == "0"


@pytest.mark.parametrize("field", [400, 900])
def test_soliton_check_large_field_on_p2(tmp_path, capsys, field):
    doc = document_to_dict(builtin_example("p2"))
    doc["vector_fields"] = [[str(field), "0"]]
    code, report, err = run_cli(capsys, "soliton-check", "--input", write_doc(tmp_path, doc))
    assert code == 0, err
    # u = 2 - x has density u e^{-field u} on [0, 3], so E[x] = 2 - 2/field
    # up to e^{-3 field}, and y given x is centred at -x/2.
    got = [float(x) for x in report["results"]["per_polytope"][0]]
    assert got == pytest.approx([2 - 2 / field, -1 + 1 / field], rel=1e-13)


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    def overflow(nodes, order):
        raise OverflowError("exponent out of range")

    monkeypatch.setattr(moments, "_dd_simplices", overflow)
    code, report, err = run_cli(capsys, "soliton-check", "--input", write_doc(tmp_path, PAIR_DOC))
    assert code == 3
    assert report is None
    assert err == "torifano: numerical failure: exponent out of range\n"


def _bl3_document():
    """blowup-p2-1pt x (P^1)^3 in two parts, a weighted pass over many simplices per part."""
    doc = document_to_dict(builtin_example("blowup-p2-1pt"))
    rays = [r + [0, 0, 0] for r in doc["rays"]]
    cones = doc["max_cones"]
    for axis in range(2, 5):
        e = [int(i == axis) for i in range(5)]
        cones = [c + [len(rays) + side] for c in cones for side in (0, 1)]
        rays += [e, [-x for x in e]]
    rows = [
        ["13/30", "1/2", "17/30", "13/30", "1/5", "9/10", "1/5", "3/5", "1/10", "9/10"],
        ["17/30", "1/2", "13/30", "17/30", "4/5", "1/10", "4/5", "2/5", "9/10", "1/10"],
    ]
    return {"name": "bl3", "dimension": 5, "rays": rays, "max_cones": cones, "decomposition": rows}


@pytest.mark.parametrize("command", ["soliton-solve", "barycenter"])
def test_bl3_reports_are_those_of_the_row_kernel(tmp_path, capsys, monkeypatch, command):
    # The shared-column pass against the row kernel it replaced, through
    # Newton's order-2 and order-0 passes and the order-1 weighted barycenter,
    # whose fields square the simplices of the pass in part.
    doc = _bl3_document()
    if command == "barycenter":
        doc["vector_fields"] = [[(-1) ** (i + a) * (a + 1) / 8 for a in range(5)] for i in range(2)]
    path = write_doc(tmp_path, doc)
    reports = []
    for kernel in (moments._dd_simplices, dd_simplices_by_rows):
        monkeypatch.setattr(moments, "_dd_simplices", kernel)
        code, report, err = run_cli(capsys, command, "--input", path)
        assert (code, err) == (0, "")
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_newton_on_a_numerically_singular_hessian_exits_three(tmp_path, capsys):
    # Two rows cut the first pE part down to a simplex; Newton then runs off
    # until the summed covariance is singular to working precision: its
    # least eigenvalue falls from 1e-18 to a rounding error below 0.
    doc = document_to_dict(builtin_example("pE-4fold-c:1/3"))
    doc["halfspaces"][0] += [[[0, 1, 0, 2], 0.5], [[-2, 0, 1, -3], "-7/3"]]
    code, report, err = run_cli(capsys, "soliton-solve", "--input", write_doc(tmp_path, doc))
    assert code == 3 and report is None
    assert err == "torifano: numerical failure: weighted covariance lost positive definiteness\n"


def test_ma_solve_obstructed_document(tmp_path, capsys):
    code, report, _ = run_cli(
        capsys,
        "ma-solve",
        "--input",
        write_doc(tmp_path, PAIR_DOC),
        "--grid",
        "R=8,h=0.008",
    )
    assert code == 0
    assert report["results"]["status"] == "Obstructed"
    diag = report["diagnostics"]
    assert diag["heuristic_detection"] is True
    assert "reason" in diag
    assert float(diag["barycenter_residual"]) == pytest.approx(
        0.15651764274966562, abs=1e-14
    )


@pytest.mark.parametrize("field", ["800", "-800"])
def test_ma_solve_large_field_exits_zero(tmp_path, capsys, field):
    doc = {"name": "p1-field", "dimension": 1, "halfspaces": [[[[1], "1"], [[-1], "1"]]],
           "vector_fields": [[field]]}
    code, report, err = run_cli(capsys, "ma-solve", "--input", write_doc(tmp_path, doc), "--grid", "R=8,h=0.008")
    assert code == 0, err
    assert report["results"]["status"] == "Obstructed"
    # The mean of [-1, 1] under e^{800 s} is 1 - 1/800 up to e^{-1600}.
    want = math.copysign(1.0 - 1.0 / 800.0, float(field))
    assert float(report["diagnostics"]["barycenter_residual"]) == pytest.approx(want, abs=1e-15)


def test_ma_solve_small_field_residual_matches_soliton_check(tmp_path, capsys):
    doc = {"name": "p1-pair", "dimension": 1,
           "halfspaces": [[[[1], "5/8"], [[-1], "3/8"]], [[[1], "3/8"], [[-1], "5/8"]]],
           "vector_fields": [["1e-8"], ["0"]]}
    path = write_doc(tmp_path, doc)
    code, report, _ = run_cli(capsys, "ma-solve", "--input", path, "--grid", "R=8,h=0.008")
    assert code == 0
    residual = float(report["diagnostics"]["barycenter_residual"])
    code, check, _ = run_cli(capsys, "soliton-check", "--input", path)
    assert code == 0
    assert report["diagnostics"]["barycenter_residual"] == check["results"]["residual"][0]
    assert residual == pytest.approx(1e-8 / 12.0, rel=1e-6)


def test_ma_solve_witness_is_the_soliton_check_residual_string_for_string(tmp_path, capsys):
    # The parts {3x >= -1, x <= 4/5} and [-3/5, 2/5] have end points no
    # float holds: the witness is soliton-check's sum on the document's own
    # parts, not on their rounded intervals.
    doc = {"name": "thirds", "dimension": 1,
           "halfspaces": [[[[3], "1"], [[-1], "4/5"]], [[[1], "3/5"], [[-1], "2/5"]]],
           "vector_fields": [["-9/10"], ["2/3"]]}
    path = write_doc(tmp_path, doc)
    code, report, err = run_cli(capsys, "ma-solve", "--input", path, "--grid", "R=8,h=0.008")
    assert (code, err) == (0, "")
    code, check, err = run_cli(capsys, "soliton-check", "--input", path)
    assert (code, err) == (0, "")
    assert report["diagnostics"]["barycenter_residual"] == check["results"]["residual"][0]


_P1_PAIR_FAN = {"name": "p1-pair", "dimension": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]],
                "decomposition": [["3/8", "5/8"], ["5/8", "3/8"]], "vector_fields": [["1/2"], ["-1/2"]]}


@pytest.mark.parametrize("source", [["--example", "p1-fubini"], ["--input", _P1_PAIR_FAN]], ids=["p1-fubini", "p1-pair"])
def test_ma_solve_on_a_fan_document_builds_no_polytope_from_halfspaces(tmp_path, capsys, monkeypatch, source):
    # The path and its witness read the parts the fan route built.
    calls = []
    real = geometry.polytope_from_halfspaces

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "polytope_from_halfspaces", counted)
    monkeypatch.setattr(cli, "polytope_from_halfspaces", counted)
    flag, value = source
    if flag == "--input":
        value = write_doc(tmp_path, value)
    code, report, err = run_cli(capsys, "ma-solve", flag, value, "--grid", "R=8,h=0.008")
    assert (code, err) == (0, "")
    assert "barycenter_residual" in report["diagnostics"]
    assert calls == []


def test_ma_solve_failing_witness_writes_no_snapshots(tmp_path, capsys):
    # The path on [-1, 1] at V = 1e308 runs, but the witness's vertex
    # exponents leave the float range: the command fails before the
    # snapshots are written.
    doc = _FLOAT_OVERFLOWS["field-interval"]
    snap_path = tmp_path / "stages.jsonl"
    code, report, err = run_cli(capsys, "ma-solve", "--input", write_doc(tmp_path, doc),
                                "--grid", "R=8,h=0.008", "--snapshots", str(snap_path))
    assert (code, report, err) == (3, None, "torifano: numerical failure: vertex exponents outside the float range\n")
    assert not snap_path.exists()


def test_ma_solve_snapshots_jsonl(tmp_path, capsys):
    snap_path = tmp_path / "stages.jsonl"
    code, report, _ = run_cli(
        capsys,
        "ma-solve",
        "--example",
        "p1-fubini",
        "--snapshots",
        str(snap_path),
    )
    assert code == 0
    assert report["results"]["status"] == "Converged"
    assert float(report["results"]["f_at_zero"][0]) == pytest.approx(
        math.log(4.0), abs=1e-4
    )
    lines = snap_path.read_text().splitlines()
    assert len(lines) == 6
    for line, stage in zip(lines, report["results"]["stages"]):
        snap = json.loads(line)
        assert snap["t"] == stage["t"]
        assert len(snap["grid"]) == len(snap["rho"])
        assert len(snap["f"]) == 1
        assert_no_bare_floats(snap)
    assert "grid" not in report["results"]["stages"][0]


def test_ma_solve_options_echo(capsys):
    code, report, _ = run_cli(
        capsys,
        "ma-solve",
        "--example",
        "p1-fubini",
        "--grid",
        "R=6,h=0.01",
        "--t-schedule",
        "0,0.5,1",
    )
    assert code == 0
    assert report["options_used"]["grid"] == {"R": "6", "h": "0.01"}
    assert report["options_used"]["t_schedule"] == ["0", "0.5", "1"]


def test_validate_reports_redundancy(capsys):
    code, report, _ = run_cli(capsys, "validate", "--example", "pE-4fold-c:1/5")
    assert code == 0
    parts = report["results"]["parts"]
    assert parts[0]["redundant_halfspaces"] == [5]
    assert parts[0]["nvertices"] == 9
    assert parts[1]["redundant_halfspaces"] == []
    assert parts[1]["nvertices"] == 12

    code, report, _ = run_cli(capsys, "validate", "--example", "pE-4fold-c:1/2")
    assert code == 0
    assert all(p["redundant_halfspaces"] == [] for p in report["results"]["parts"])

    code, report, _ = run_cli(capsys, "validate", "--example", "hexagon-dP6-t:1/10")
    assert code == 0
    assert report["results"]["ok"] is True
    assert report["results"]["fan"]["smooth"] is True
    assert report["results"]["decomposition"]["row_ampleness"] == ["Ample", "Ample"]


def test_nonconvex_support_row_exits_two(tmp_path, capsys):
    doc = {
        "name": "hexagon-nonconvex",
        "dimension": 2,
        "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
        "decomposition": [["8/3", "3", "3", "8", "2", "1/4"]],
    }
    path = write_doc(tmp_path, doc)
    for command in ("ke-verdict", "barycenter"):
        code, report, err = run_cli(capsys, command, "--input", path)
        assert code == 2 and report is None
        assert "not convex" in err
    code, report, _ = run_cli(capsys, "validate", "--input", path)
    assert code == 0
    assert report["results"]["decomposition"]["row_ampleness"] == ["NotConvex"]


def test_validate_flags_zero_normal_row(tmp_path, capsys):
    square = [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1]]
    doc = {"name": "square", "dimension": 2, "halfspaces": [square + [[[0, 0], 0]]]}
    code, report, _ = run_cli(capsys, "validate", "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert report["results"]["parts"] == [
        {"nvertices": 4, "redundant_halfspaces": [4], "degenerate": False}
    ]


def test_validate_ranks_float_equalities_on_their_binary_values(tmp_path, capsys):
    # (0.5, 0.25) and its negation are exactly parallel in binary: the two
    # rows are the line x/2 + y/4 = -1, which -2 <= x <= 0 cuts to a segment.
    line = [[[0.5, 0.25], 1.0], [[-0.5, -0.25], -1.0]]
    doc = {"name": "segment", "dimension": 2, "halfspaces": [line + [[[1.0, 0.0], 2.0], [[-1.0, 0.0], 0.0]]]}
    code, report, _ = run_cli(capsys, "validate", "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert report["results"]["parts"] == [
        {"nvertices": 2, "redundant_halfspaces": [2, 3], "degenerate": True}
    ]


def test_out_flag_mirrors_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "df", "--example", "p2", "--vfield", "1,0", "--out", str(out)
    )
    assert code == 0
    written = json.loads(out.read_text())
    assert written["command"] == "df"
    assert written["results"]["value"] == "0"


@pytest.mark.parametrize(
    "target, message",
    [(".", "is a directory"), ("missing/report.json", "does not exist")],
    ids=["directory", "missing-directory"],
)
def test_unwritable_out_exits_one_before_any_work(tmp_path, capsys, monkeypatch, target, message):
    monkeypatch.setattr(cli, "run", lambda *a: pytest.fail("the command ran"))
    code, report, err = run_cli(capsys, "validate", "--example", "p2", "--out", str(tmp_path / target))
    assert code == 1 and report is None
    assert err.startswith("torifano: --out: ") and message in err
    monkeypatch.undo()
    r = run_cli_process("ke-verdict", "--example", "p2", "--out", str(tmp_path / target))
    assert r.returncode == 1 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1 and message in r.stderr, r.stderr


def test_out_that_fails_to_open_exits_one_without_a_report(tmp_path, capsys):
    # Its directory exists, so the parser passes it; the name is too long.
    code, report, err = run_cli(capsys, "validate", "--example", "p2", "--out", str(tmp_path / ("x" * 300)))
    assert code == 1 and report is None
    assert err.startswith("torifano: --out: cannot write ") and len(err.splitlines()) == 1


def test_snapshots_into_a_missing_directory_exits_one(tmp_path, capsys):
    path = tmp_path / "missing" / "stages.jsonl"
    code, report, err = run_cli(capsys, "ma-solve", "--example", "p1-fubini", "--snapshots", str(path))
    assert code == 1 and report is None
    assert err.startswith("torifano: --snapshots: ") and "does not exist" in err


def test_rationals_past_the_int_digit_limit_are_written_in_full(tmp_path):
    # With N = 10^2200 every input has at most 2,201 digits, but results
    # have 4,401-digit denominators, past the default int-to-str limit.
    n = 10**2200
    big = "1" + "0" * 2199 + "4" + "0" * 2199 + "3"  # (N + 1)(N + 3)
    # The interval [-1/(N+1), 1/(N+3)] has barycenter -1/((N+1)(N+3)).
    doc = {"name": "tiny", "dimension": 1, "halfspaces": [[[[1], f"1/{n + 1}"], [[-1], f"1/{n + 3}"]]]}
    r = run_cli_process("barycenter", "--input", write_doc(tmp_path, doc))
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    report = json.loads(r.stdout)
    assert report["results"]["parts"][0]["barycenter"] == report["results"]["sum_barycenter"] == [f"-1/{big}"]
    # Rows that differ from P^1's by 1/(N+1) and -1/(N+3) in column 1,
    # which then sums to 1 + 2/((N+1)(N+3)).
    doc = dict(document_to_dict(builtin_example("p1-fubini")),
               decomposition=[["1", "1"], [0, f"1/{n + 1}"], [0, f"-1/{n + 3}"]])
    path = write_doc(tmp_path, doc, "rows.json")
    r = run_cli_process("validate", "--input", path)
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    failures = json.loads(r.stdout)["results"]["decomposition"]["failures"]
    assert ["column-sum", 1, f"{big[:-1]}5/{big}"] in failures
    r = run_cli_process("ke-verdict", "--input", path)
    assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr, r.stderr
    assert len(r.stderr.splitlines()) == 1


def test_serialization_restores_the_int_digit_limit(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    assert run_cli(capsys, "barycenter", "--example", "p2")[0] == 0
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize("option", ["--vfield", "--cap"])
def test_option_scalars_are_parsed_under_the_int_digit_limit(capsys, option):
    # Like document scalars: the limit is lifted only once the command runs.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    value = "1/" + "7" * 5000 + (",0" if option == "--vfield" else "")
    code, report, err = run_cli(capsys, "lift", "--example", "p2", option, value)
    assert code == 2 and report is None
    assert err.startswith(f"torifano: invalid input: {option}: invalid rational")


@pytest.mark.parametrize("digits", [3000, 120_000])
def test_malformed_option_scalars_are_quoted_short(capsys, digits):
    # The message quotes the start of the token and its length, not all of it.
    value = "1/" + "7" * digits + "x,0"
    code, report, err = run_cli(capsys, "df", "--example", "p2", "--vfield", value)
    assert code == 2 and report is None
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("torifano: invalid input: --vfield: invalid rational '1/777")
    assert f"({digits + 3} characters)" in err


@pytest.mark.parametrize("command, option", [("df", "--vfield"), ("lift", "--vfield"), ("lift", "--cap")])
@pytest.mark.parametrize("value", ["", " "])
def test_empty_option_scalars_exit_two(capsys, command, option, value):
    # A given value is parsed, however empty: it never falls back to the
    # default.  --vfield strips each entry, --cap does not.
    code, report, err = run_cli(capsys, command, "--example", "p2", option, value)
    assert code == 2 and report is None
    token = value.strip() if option == "--vfield" else value
    assert err == f"torifano: invalid input: {option}: invalid rational {token!r} (not an integer, decimal or p/q)\n"


def test_document_echo_matches_input(tmp_path, capsys):
    path = write_doc(tmp_path, PAIR_DOC)
    code, report, _ = run_cli(capsys, "soliton-check", "--input", path)
    assert code == 0
    echoed = document_from_dict(report["document"], "echo")
    direct = document_from_dict(json.loads(open(path).read()), "echo")
    assert echoed.halfspaces == direct.halfspaces
    assert echoed.vector_fields == direct.vector_fields


# x <= 1, -x <= 0, y <= 2, -y <= 0, x + y <= 5/2 in leq form, and its geq twin.
_LEQ_ROWS = [[[1, 0], "1"], [[-1, 0], "0"], [[0, 1], "2"], [[0, -1], "0"], [[1, 1], "5/2"]]
_LEQ_DOC = {"name": "cut-box", "dimension": 2, "halfspace_form": "leq", "halfspaces": [_LEQ_ROWS]}
_GEQ_DOC = {"name": "cut-box", "dimension": 2,
            "halfspaces": [[[[-x for x in normal], offset] for normal, offset in _LEQ_ROWS]]}


@pytest.mark.parametrize("command", ["validate", "barycenter", "ke-verdict", "df", "lift"])
def test_leq_document_reports_the_results_of_its_geq_twin(tmp_path, capsys, command):
    code, leq, err = run_cli(capsys, command, "--input", write_doc(tmp_path, _LEQ_DOC, "leq.json"))
    assert code == 0, err
    code, geq, err = run_cli(capsys, command, "--input", write_doc(tmp_path, _GEQ_DOC, "geq.json"))
    assert code == 0, err
    assert leq["results"] == geq["results"]
    assert leq["document"]["notes"] == ["halfspaces converted from leq form (normals negated) at ingestion"]
    assert "notes" not in geq["document"]
    assert leq["document"]["halfspaces"] == geq["document"]["halfspaces"]
    if command == "barycenter":
        assert leq["results"]["parts"] == [{"volume": "15/8", "barycenter": ["43/90", "17/18"]}]


def test_unknown_halfspace_form_exits_two(tmp_path, capsys):
    code, report, err = run_cli(capsys, "validate", "--input", write_doc(tmp_path, dict(_LEQ_DOC, halfspace_form="lt")))
    assert code == 2 and report is None
    assert err == "torifano: invalid input: halfspace_form: expected 'geq' or 'leq', got 'lt'\n"


@pytest.mark.parametrize("command", ["barycenter", "soliton-check", "ma-solve"])
def test_document_options_are_echoed_and_change_no_result(tmp_path, capsys, command):
    options = {"tol": 0.5, "label": "x", "depth": 3, "nested": {"h": 0.25}}
    code, bare, err = run_cli(capsys, command, "--input", write_doc(tmp_path, PAIR_DOC, "bare.json"))
    assert code == 0, err
    code, report, err = run_cli(capsys, command, "--input", write_doc(tmp_path, dict(PAIR_DOC, options=options)))
    assert code == 0, err
    assert report["document"]["options"] == {"tol": "0.5", "label": "x", "depth": 3, "nested": {"h": "0.25"}}
    assert "options" not in bare["document"]
    assert report["results"] == bare["results"]
    assert report["options_used"] == bare["options_used"]


def _count_cone_sums(monkeypatch):
    """A list that collects each polytope whose cones are summed."""
    summed = []
    real_sums = geometry._cone_sums
    monkeypatch.setattr(geometry, "_cone_sums", lambda p: summed.append(p) or real_sums(p))
    return summed


def test_barycenter_sums_each_part_once(capsys, monkeypatch):
    # The volume and the barycenter of a part both read its one cone-sum pass.
    summed = _count_cone_sums(monkeypatch)
    code, report, _ = run_cli(capsys, "barycenter", "--example", "hexagon-dP6-t")
    assert code == 0
    assert not hasattr(geometry.SimplexMesh, "barycenter")
    assert len(summed) == len(report["results"]["parts"]) == 2


@pytest.mark.parametrize("command", ["barycenter", "df", "soliton-check", "soliton-solve"])
def test_exact_commands_compute_each_part_barycenter_once(tmp_path, capsys, monkeypatch, command):
    # A part's volume, its barycenter and the centre of every weighted pass
    # on it read its one cone-sum pass, and no mesh barycenter is taken.
    summed = _count_cone_sums(monkeypatch)
    doc = document_to_dict(builtin_example("hexagon-dP6-t"))
    doc["vector_fields"] = [["1/10", "0"], ["0", "-1/3"]]
    code, report, err = run_cli(capsys, command, "--input", write_doc(tmp_path, doc))
    assert code == 0, err
    assert not hasattr(geometry.SimplexMesh, "barycenter")
    assert len(summed) == len(set(map(id, summed))) == 2
    if command == "barycenter":
        assert all("weighted_barycenter" in part for part in report["results"]["parts"])
    if command in ("barycenter", "df"):
        assert report["results"]["sum_barycenter"] == ["148/66303", "148/66303"]


EXACT_EXAMPLES = (
    "p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t", "hexagon-dP6-t:1/7", "pE-4fold-c:1/3", "p1-fubini",
)


@pytest.mark.parametrize("example", EXACT_EXAMPLES)
@pytest.mark.parametrize("command", ["validate", "barycenter", "ke-verdict", "df", "lift"])
def test_exact_commands_never_triangulate(capsys, monkeypatch, command, example):
    # Exact volumes and barycenters, lifted ones too, are vertex-cone sums;
    # Polytope.mesh, the one caller of triangulate, serves the weighted pass.
    def refuse(polytope):
        raise AssertionError("triangulated")

    monkeypatch.setattr(geometry, "triangulate", refuse)
    summed = _count_cone_sums(monkeypatch)
    real_moments = geometry._first_moments
    moments_of = []
    monkeypatch.setattr(geometry, "_first_moments", lambda n, *terms: moments_of.append(n) or real_moments(n, *terms))
    code, report, _ = run_cli(capsys, command, "--example", example)
    assert code == 0
    assert (report["results"] | report["diagnostics"])["exact"] is True
    if command == "lift":
        # Each part and each lifted polytope is summed once, and only the
        # parts' barycenters are read: the lifted ones form no first moments.
        k, n = len(report["results"]["parts"]), len(report["results"]["vfield"])
        assert sorted(p.dim for p in summed) == [n] * k + [n + 1] * k
        assert len(set(map(id, summed))) == 2 * k
        assert moments_of == [n] * k
        assert all(part["identity_holds"] for part in report["results"]["parts"])


def _cube_fan_document(n):
    """(P^1)^n with the anticanonical class split into two rows of 1/2."""
    rays = [[sign * int(i == axis) for i in range(n)] for axis in range(n) for sign in (1, -1)]
    cones = [[2 * axis + side for axis, side in enumerate(sides)] for sides in itertools.product((0, 1), repeat=n)]
    half = ["1/2"] * (2 * n)
    return {"name": f"p1^{n}", "dimension": n, "rays": rays, "max_cones": cones, "decomposition": [half, half]}


def test_ke_verdict_on_a_seven_dimensional_cube_fan(tmp_path, capsys, monkeypatch):
    # 128 vertices per part: a guard on the count of triangulations (none)
    # and on the verdict, not a timing gate.
    monkeypatch.setattr(geometry, "triangulate", lambda polytope: pytest.fail("triangulated"))
    code, report, _ = run_cli(capsys, "ke-verdict", "--input", write_doc(tmp_path, _cube_fan_document(7)))
    assert code == 0
    assert report["results"]["verdict"] == "Exists"
    assert report["results"]["sum_barycenter"] == ["0"] * 7


def test_lift_on_a_five_dimensional_cube_fan(tmp_path, capsys, monkeypatch):
    # Each lifted part is a prism over a 5-cube.  Its 64 vertices are simple,
    # and their cones' inverses are written down from the fan's, so no row
    # of the lifted polytope is eliminated and nothing is triangulated.  A
    # guard on the identity and the counts, not a timing gate.
    eliminated = []
    real_inverse, real_det = linalg.integer_inverse, linalg.integer_det
    monkeypatch.setattr(geometry, "triangulate", lambda polytope: pytest.fail("triangulated"))
    monkeypatch.setattr(linalg, "integer_inverse", lambda rows: eliminated.append(rows) or real_inverse(rows))
    monkeypatch.setattr(linalg, "integer_det", lambda rows: eliminated.append(rows) or real_det(rows))
    summed = _count_cone_sums(monkeypatch)
    code, report, _ = run_cli(capsys, "lift", "--input", write_doc(tmp_path, _cube_fan_document(5)))
    assert code == 0
    assert [part["identity_holds"] for part in report["results"]["parts"]] == [True, True]
    assert [p.nvertices for p in summed if p.dim == 6] == [64, 64]
    assert eliminated and all(len(rows[0]) == 5 for rows in eliminated)


def _sheared(doc):
    """``doc`` with every ray d mapped to U d, U the unimodular shear x_i += x_{i+1}."""
    n = doc["dimension"]
    rays = [[int(x) + (int(ray[i + 1]) if i + 1 < n else 0) for i, x in enumerate(ray)] for ray in doc["rays"]]
    return dict(doc, name=doc["name"] + "-sheared", rays=rays)


_FAN_EXAMPLES = ("p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t:1/7", "p1-fubini")


@pytest.mark.parametrize("command", ["barycenter", "ke-verdict", "df"])
def test_fan_documents_take_no_integer_det(tmp_path, capsys, monkeypatch, command):
    # Every vertex cone of these parts is a fan cone's: its generators are
    # the columns of the fan's inverse, and its weight comes from them.
    docs = [document_to_dict(builtin_example(name)) for name in _FAN_EXAMPLES]
    docs += [_cube_fan_document(n) for n in (3, 5)] + [_sheared(_cube_fan_document(4))]
    monkeypatch.setattr(linalg, "integer_det", lambda rows: pytest.fail("integer_det"))
    for doc in docs:
        code, _, err = run_cli(capsys, command, "--input", write_doc(tmp_path, doc))
        assert code == 0, (doc["name"], err)


ROUTE_COMMANDS = ("barycenter", "ke-verdict", "df", "lift", "soliton-check", "soliton-solve")


@pytest.mark.parametrize("example", EXACT_EXAMPLES)
def test_exact_builtins_take_no_fraction_det(tmp_path, capsys, monkeypatch, example):
    # Exact meshes, lifted or read by the weighted pass, take integer dets,
    # and so does validate_fan: there is no float determinant left.
    assert not hasattr(linalg, "det")
    doc = document_to_dict(builtin_example(example))
    parts = doc.get("decomposition") or doc["halfspaces"]
    doc["vector_fields"] = [["1/10"] + ["0"] * (doc["dimension"] - 1)] * len(parts)
    path = write_doc(tmp_path, doc)
    for command in ROUTE_COMMANDS:
        code, _, err = run_cli(capsys, command, "--input", path)
        assert code == 0, (command, err)

def test_validate_float_rows_sum_within_tolerance(tmp_path, capsys):
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999 in float.
    hexagon = document_to_dict(builtin_example("hexagon-dP6-t"))
    doc = dict(hexagon, decomposition=[[x] * 6 for x in (0.7, 0.2, 0.1)])
    code, report, _ = run_cli(capsys, "validate", "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert report["results"]["decomposition"]["failures"] == []
    assert report["results"]["ok"] is True
    assert report["diagnostics"]["exact"] is False


@pytest.mark.parametrize("spec", ["p1xp1", "hexagon-dP6-t:0"])
def test_soliton_check_zero_field_on_ke_examples(tmp_path, capsys, spec):
    # Both are Kahler-Einstein, so V = 0 is a soliton; the float residual is
    # rounding noise far below --tol.
    doc = document_to_dict(builtin_example(spec))
    doc["vector_fields"] = [[0, 0]] * len(doc["decomposition"])
    code, report, _ = run_cli(capsys, "soliton-check", "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert float(report["results"]["norm"]) < 1e-15
    assert report["results"]["is_soliton"] is True


def test_raw_part_tolerance_ignores_other_parts(tmp_path, capsys):
    # x >= -1/10^12 is redundant next to x >= 0 when compared exactly, next
    # to a float part as much as next to an exact one.
    exact = [[[1], 0], [[-1], 1], [[1], "1/1000000000000"]]
    for name, other in (("float", [[[1], 0.5], [[-1], 0.5]]), ("exact", [[[1], "1/2"], [[-1], "1/2"]])):
        doc = {"name": "pair", "dimension": 1, "halfspaces": [exact, other]}
        code, report, _ = run_cli(capsys, "validate", "--input", write_doc(tmp_path, doc, f"{name}.json"))
        assert code == 0
        assert report["results"]["parts"][0]["redundant_halfspaces"] == [2], name


_P2_DOC = document_to_dict(builtin_example("p2"))
_INTERVAL = {"name": "interval", "dimension": 1}


@pytest.mark.parametrize(
    "doc",
    [
        dict(_P2_DOC, rays=5),
        dict(_P2_DOC, max_cones=[5]),
        dict(_P2_DOC, decomposition=[5]),
        dict(_P2_DOC, vector_fields=5),
        dict(_P2_DOC, vector_fields=[5]),
        dict(_P2_DOC, notes=5),
        dict(_P2_DOC, decomposition=[[math.nan, 1, 1]]),
        dict(_INTERVAL, halfspaces=[[[[1], math.nan], [[-1], 1]]]),
        dict(_INTERVAL, halfspaces=[[[[1], math.inf], [[-1], 1]]]),
    ],
    ids=["rays", "cone", "row", "fields", "field", "notes", "nan-support", "nan-offset", "inf-offset"],
)
def test_malformed_documents_exit_two_without_traceback(tmp_path, doc):
    r = run_cli_process("validate", "--input", write_doc(tmp_path, doc))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("torifano: invalid input:"), r.stderr


_FLAT_SQUARE = {"name": "flat", "dimension": 2, "halfspaces": [[[[1, 0], 0], [[-1, 0], 0], [[0, 1], 1], [[0, -1], 1]]]}


@pytest.mark.parametrize(
    "command, source, options, message",
    [
        ("validate", [1], (), "document: expected a JSON object"),
        ("validate", "", (), "@path: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("validate", dict(_P2_DOC, colour="red"), (), "document: unknown field 'colour'"),
        ("validate", dict(_P2_DOC, dimension=0), (), "dimension: expected a positive integer"),
        ("validate", dict(_INTERVAL), (),
         "document: exactly one geometry source (rays+max_cones+decomposition or halfspaces)"),
        ("validate", dict(_P2_DOC, notes=[1]), (), "notes: expected a list of strings"),
        ("validate", dict(_P2_DOC, options=[]), (), "options: expected an object"),
        ("validate", dict(_P2_DOC, rays=5), (), "rays: expected a list of rays"),
        ("validate", dict(_P2_DOC, rays=[[1, "0"], [0, 1], [-1, -1]]), (), "rays[0][1]: expected an integer"),
        ("validate", dict(_P2_DOC, max_cones=[[0, 3], [1, 2], [2, 0]]), (), "max_cones[0]: ray index 3 out of range"),
        ("validate", dict(_P2_DOC, decomposition=[]), (), "decomposition: expected a non-empty matrix"),
        ("validate", dict(_P2_DOC, decomposition=[[math.nan, 1, 1]]), (),
         "decomposition[0][0]: expected a finite number, got nan"),
        ("validate", dict(_P2_DOC, decomposition=[[[1], 1, 1]]), (),
         "decomposition[0][0]: expected a number or 'p/q' string, got list"),
        ("validate", dict(_INTERVAL, halfspaces=[[[[1], math.nan], [[-1], 1]]]), (),
         "halfspaces[0][0]: expected a finite number, got nan"),
        ("validate", dict(_INTERVAL, halfspaces=[[[[1], math.inf], [[-1], 1]]]), (),
         "halfspaces[0][0]: expected a finite number, got inf"),
        ("validate", dict(_INTERVAL, halfspaces=[]), (), "halfspaces: expected a non-empty list"),
        ("validate", dict(_INTERVAL, halfspaces=[[[1], 1], [[-1], 1]]), (),
         "halfspaces: expected one non-empty list of [normal, offset] pairs per decomposition part"),
        ("validate", dict(_INTERVAL, halfspaces=[[[[1, 0], 1], [[-1], 1]]]), (),
         "halfspaces[0][0]: normal has length 2, expected 1"),
        ("ke-verdict", dict(_P2_DOC, rays=[], max_cones=[], decomposition=[[]]), (), "fan needs at least one ray"),
        ("ke-verdict", dict(_P2_DOC, max_cones=[[0], [1, 2], [2, 0]]), (), "maximal cone (0,) must have 2 rays"),
        ("ke-verdict", dict(_P2_DOC, decomposition=[[1e308, 1e308, 1e308]]), (),
         "the vertex of cone [1, 2] overflows the float range"),
        ("ke-verdict", _FLAT_SQUARE, (), "part 0 is degenerate (empty interior)"),
        ("ke-verdict", None, ("--example", "hexagon-dP6-t:1/2"), "hexagon-dP6-t: parameter 1/2 outside (-1/2, 1/2)"),
        ("df", None, ("--example", "p2", "--vfield", "1"), "vector field has wrong dimension"),
        ("lift", None, ("--example", "p2", "--vfield", "1"), "vector field has wrong dimension"),
    ],
    ids=[
        "not-an-object", "not-json", "unknown-field", "bad-dimension", "no-source", "non-string-notes",
        "non-object-options", "rays-not-a-list", "non-integer-ray", "ray-out-of-range", "empty-decomposition",
        "nan-scalar", "list-scalar", "nan-offset", "inf-offset", "empty-halfspaces", "flat-halfspaces", "normal-length", "no-ray",
        "short-cone", "overflowing-vertex", "degenerate-part", "hexagon-parameter", "df-vfield-dimension",
        "lift-vfield-dimension",
    ],
)
def test_invalid_input_exits_two_in_one_line(tmp_path, capsys, command, source, options, message):
    # In this process, so that the raise collector sees each guard run.
    path = str(tmp_path / "doc.json")
    if source is not None:
        Path(path).write_text(source if isinstance(source, str) else json.dumps(source))
        options = ("--input", path)
    code, report, err = run_cli(capsys, command, *options)
    assert code == 2 and report is None
    assert err == f"torifano: invalid input: {message.replace('@path', path)}\n"


def _square(centre, half):
    """The raw rows of the square of half-side ``half`` about ``centre``."""
    return [[[1, 0], half - centre[0]], [[-1, 0], half + centre[0]], [[0, 1], half - centre[1]], [[0, -1], half + centre[1]]]


def _finite_strings(node):
    """Every string in a report, with a "nan" or "inf" one failing the assertion."""
    if isinstance(node, dict):
        for v in node.values():
            _finite_strings(v)
    elif isinstance(node, list):
        for v in node:
            _finite_strings(v)
    else:
        assert node not in ("nan", "inf", "-inf"), node


# Float parts whose volume, barycenter, barycenter sum or DF value leaves the
# float range: the first two once reported "nan" with exit 0.  Their exact
# barycenters are 0, so only the volume of the wide ones overflows.
_FLOAT_OVERFLOWS = {
    "wide-interval": dict(_INTERVAL, halfspaces=[[[[1], 1e308], [[-1], 1e308]]]),
    "wide-square": {"name": "squares", "dimension": 2, "halfspaces": [_square((0, 0), 1e200), _square((0, 0), 1.0)]},
    "far-interval": dict(_INTERVAL, halfspaces=[[[[-1], 1e308], [[1], 4.0]]]),
    "far-pair": dict(_INTERVAL, halfspaces=[[[[-1], 1e308], [[1], -1e307]]] * 2, vector_fields=[[0.0], [0.0]]),
    # Fields whose vertex exponents, or their spread, leave the float range.
    "field-interval": dict(_INTERVAL, halfspaces=[[[[1], 1.0], [[-1], 1.0]]], vector_fields=[[1e308]]),
    "field-p2": dict(_P2_DOC, vector_fields=[[1e308, 0.0]]),
}


@pytest.mark.parametrize("command", ["barycenter", "ke-verdict", "df", "soliton-check", "soliton-solve", "ma-solve"])
@pytest.mark.parametrize("name", _FLOAT_OVERFLOWS)
def test_float_overflow_exits_three_or_reports_finite_values(tmp_path, capsys, name, command):
    doc = _FLOAT_OVERFLOWS[name]
    code, report, err = run_cli(capsys, command, "--input", write_doc(tmp_path, doc))
    if name.startswith("wide") and command == "barycenter":
        assert code == 3 and report is None
        assert err.startswith("torifano: numerical failure: float ") and "overflows" in err, err
    elif name.startswith("wide") and command in ("ke-verdict", "df"):
        assert code == 0, err
        results = report["results"]
        assert results["sum_barycenter"] == ["0"] * doc["dimension"]
        assert results.get("verdict", "Exists") == "Exists" and results.get("value", "0") == "0"
    elif code == 0:
        _finite_strings(report)
    elif command == "soliton-solve" and report is not None:
        # The far pair holds no field: the interval certificate's report.
        assert (code, err, report["results"]["converged"]) == (3, "", False)
        _finite_strings(report)
    else:
        assert code in (2, 3) and report is None, err
    if code == 3 and report is None:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("torifano: "), err


# x in [-1/2, 1/2], y in [0, 1], in floats: the barycenter sum (0, 1/2) has a
# float 0.0 that the destabilizer and the DF field negate.
_FLOAT_RECTANGLE = dict(_INTERVAL, dimension=2, halfspaces=[[[[1, 0], 0.5], [[-1, 0], 0.5], [[0, 1], 0.0], [[0, -1], 1.0]]])


@pytest.mark.parametrize("command", ["barycenter", "ke-verdict", "df"])
def test_float_reports_print_no_negative_zero(tmp_path, capsys, command):
    code, report, err = run_cli(capsys, command, "--input", write_doc(tmp_path, _FLOAT_RECTANGLE))
    assert code == 0, err
    assert '"-0"' not in json.dumps(report)
    if command == "ke-verdict":
        assert report["results"]["destabilizer"] == ["0", "-0.5"]
    if command == "df":
        assert report["results"]["vfield"] == ["0", "-0.5"]


def test_merged_float_vertices_report_the_moments_of_the_binary_polytope(tmp_path, capsys):
    # In binary 0.1 + 0.2 > 0.3: the row x + y <= 0.3 cuts the corner
    # (0.1, 0.2) into two vertices 5e-17 apart, which validate merges within
    # tol.  The moments are those of the five exact vertices, rounded once;
    # summed over the merged four, the volume would read 0.019999999999999993.
    doc = dict(_INTERVAL, dimension=2, halfspaces=[[[[1, 0], 0.0], [[0, 1], 0.0], [[-1, -1], 0.3], [[-1, 0], 0.1], [[0, -1], 0.2]]])
    path = write_doc(tmp_path, doc)
    code, report, err = run_cli(capsys, "validate", "--input", path)
    assert code == 0, err
    assert report["results"]["parts"] == [{"nvertices": 4, "redundant_halfspaces": [2], "degenerate": False}]
    code, report, err = run_cli(capsys, "barycenter", "--input", path)
    assert code == 0, err
    assert report["results"]["parts"] == [{"volume": "0.020000000000000004", "barycenter": ["0.050000000000000003", "0.10000000000000001"]}]


def _polygon(points):
    """The raw rows of the polygon through ``points``, taken anticlockwise."""
    rows = []
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        normal = (y0 - y1, x1 - x0)
        rows.append([[str(x) for x in normal], str(-(normal[0] * x0 + normal[1] * y0))])
    return rows


_WIDE = 17 * 10**307
# The hexagon's largest simplex mass is 4 _SIDE^2, just below the float range.
_SIDE = math.isqrt(_WIDE // 4)
# Weighted passes that leave the float range where the quantity itself need
# not: the mass of p2 at V = (1e200, 0) is positive, but its sum scaled by
# e^-shift underflows to 0; the hexagon's four simplex masses are floats
# and their sum is not.
_WEIGHTED_PASS_FAILURES = {
    "mass-underflow": ("soliton-check", dict(_P2_DOC, vector_fields=[[1e200, 0.0]]), "weighted mass underflows"),
    "mass-overflow": (
        "barycenter",
        {"name": "hexagon", "dimension": 2, "vector_fields": [["0", "0"]], "halfspaces": [_polygon(
            [(x * _SIDE, y * _SIDE) for x, y in [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2), (-1, 1)]]
        )]},
        "weighted mass overflows",
    ),
}


@pytest.mark.parametrize("name", sorted(_WEIGHTED_PASS_FAILURES))
def test_weighted_pass_outside_the_float_range_prints_one_line(tmp_path, capsys, name):
    # A numpy warning would be an error here, as it is in every test.
    command, doc, message = _WEIGHTED_PASS_FAILURES[name]
    code, report, err = run_cli(capsys, command, "--input", write_doc(tmp_path, doc))
    assert (code, report, err) == (3, None, f"torifano: numerical failure: {message}\n")


def test_soliton_check_prints_the_centroid_of_a_triangle_wider_than_the_float_range(tmp_path, capsys):
    # The vertex (1.7e308, 0) lies farther from the centroid than any float,
    # but the weighted barycenter at V = 0, the centroid, is a float.
    doc = {"name": "triangle", "dimension": 2, "vector_fields": [["0", "0"]],
           "halfspaces": [_polygon([(-_WIDE, 0), (_WIDE, 0), (-_WIDE, Fraction(1, 2))])]}
    code, report, err = run_cli(capsys, "soliton-check", "--input", write_doc(tmp_path, doc))
    assert code == 0, err
    centroid = [float(Fraction(-_WIDE, 3)), 1 / 6]
    residual = [float(x) for x in report["results"]["residual"]]
    assert residual == pytest.approx(centroid, rel=1e-15)
    assert float(report["results"]["norm"]) == pytest.approx(-centroid[0], rel=1e-15)


def test_a_soliton_norm_whose_squares_overflow_is_reported(tmp_path, capsys):
    # The residual of the far pair is 1.1e308: its square is past the float
    # range, its norm is not.
    code, report, err = run_cli(capsys, "soliton-check", "--input", write_doc(tmp_path, _FLOAT_OVERFLOWS["far-pair"]))
    assert code == 0, err
    assert report["results"]["residual"] == ["1.1e+308"] and report["results"]["norm"] == "1.1e+308"


def test_overflowing_soliton_norm_prints_one_line(tmp_path):
    # The exact triangle (X, X), (X + 1, X), (X, X + 1) has the float
    # barycenter (1.3e308, 1.3e308), whose norm is past the float range; no
    # warning may precede the one line of exit 3.
    x = 13 * 10**307
    doc = {"name": "corner", "dimension": 2, "vector_fields": [["0", "0"]],
           "halfspaces": [_polygon([(x, x), (x + 1, x), (x, x + 1)])]}
    r = run_cli_process("soliton-check", "--input", write_doc(tmp_path, doc))
    assert r.returncode == 3 and r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("torifano: numerical failure:"), r.stderr


def test_a_representable_float_barycenter_near_the_top_of_the_range_is_reported(tmp_path, capsys):
    # The coordinates sum past the float range, the barycenter does not.
    doc = dict(_INTERVAL, halfspaces=[[[[1], -1e307], [[-1], 1.7e308]]])
    code, report, err = run_cli(capsys, "barycenter", "--input", write_doc(tmp_path, doc))
    assert code == 0, err
    assert float(report["results"]["parts"][0]["barycenter"][0]) == 1e307 / 2 + 1.7e308 / 2


@pytest.mark.parametrize("command", ["validate", "ke-verdict"])
def test_overflowing_float_row_exits_two(tmp_path, command):
    # Finite supports whose cone vertices overflow: the vertex (2e308, -1e308)
    # of cone [1, 2] leaves the float range, that of cone [0, 1] does not.
    doc = dict(_P2_DOC, decomposition=[[1e308, 1e308, 1e308]])
    r = run_cli_process(command, "--input", write_doc(tmp_path, doc))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("torifano: invalid input:"), r.stderr
    assert "cone [1, 2]" in lines[0]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_overflowing_raw_float_vertex_is_invalid_input(tmp_path, capsys, command):
    # As on the fan route: finite rows whose vertex (1.7e308, -3.4e308), on
    # rows 1 and 2, leaves the float range.  validate reports it as it does
    # an empty or unbounded system.
    rows = [[[1, 0], 1.7e308], [[-1, 0], 1.7e308], [[1, 1], 1.7e308], [[0, -1], 1.0]]
    path = write_doc(tmp_path, {"name": "wide", "dimension": 2, "halfspaces": [rows]})
    code, report, err = run_cli(capsys, command, "--input", path)
    reason = "the vertex on rows [1, 2] overflows the float range"
    if command == "validate":
        assert (code, report["results"], err) == (0, {"ok": False, "reason": reason}, "")
    else:
        assert (code, report, err) == (2, None, f"torifano: invalid input: {reason}\n")


def test_ma_solve_names_an_end_point_past_the_float_range(tmp_path, capsys):
    # The exact interval [0, 10^400] has an end point no float holds.
    doc = {"name": "far", "dimension": 1, "halfspaces": [[[[1], "0"], [[-1], "1" + "0" * 400]]]}
    code, report, err = run_cli(capsys, "ma-solve", "--input", write_doc(tmp_path, doc))
    assert (code, report, err) == (3, None, "torifano: numerical failure: float vertex overflows\n")


def _intervals_doc(*intervals):
    return {"name": "intervals", "dimension": 1, "halfspaces": [[[[1], f"-{a}"], [[-1], b]] for a, b in intervals]}


@pytest.mark.parametrize(
    "intervals, sums, witness",
    [
        ((("0", "1"),), "[0, 1]", "0.5"),
        ((("0", "1"), ("0", "1")), "[0, 2]", "1"),
        ((("1/2", "1"), ("1/2", "2")), "[1, 3]", "2"),
        ((("100", "200"),), "[100, 200]", "150"),
        ((("88", "200"),), "[88, 200]", "144"),
    ],
    ids=["unit", "unit-pair", "half-pair", "far-100", "far-88"],
)
def test_ma_solve_reads_the_interval_certificate_before_any_sweep(tmp_path, capsys, monkeypatch, intervals, sums, witness):
    # 0 is not inside the sum of the intervals, so e^{-w} is integrable at
    # no t: the report says so exactly, with no sweep and no heuristic.
    # On [100, 200] and [88, 200] a path would leave the float range.
    from torifano import masolver

    path = write_doc(tmp_path, _intervals_doc(*intervals))
    monkeypatch.setattr(masolver, "ma_step_1d", None)
    start = time.perf_counter()
    code, report, err = run_cli(capsys, "ma-solve", "--input", path)
    assert time.perf_counter() - start < 0.1
    assert (code, err) == (0, "")
    assert report["results"] == {"status": "Obstructed", "f_at_zero": None, "stages": []}
    assert report["diagnostics"] == {
        "reason": f"interval certificate: the parts sum to {sums}, which does not hold 0 in its interior",
        "barycenter_residual": witness,
        "tol": "1e-10",
    }


def test_ma_solve_takes_the_witness_after_the_certificate(tmp_path, capsys):
    # On [100, 200] at V = 1e307 the certificate obstructs the path, and the
    # witness's vertex exponents leave the float range.
    doc = dict(_intervals_doc(("100", "200")), vector_fields=[[1e307]])
    code, report, err = run_cli(capsys, "ma-solve", "--input", write_doc(tmp_path, doc))
    assert (code, report, err) == (3, None, "torifano: numerical failure: vertex exponents outside the float range\n")


@pytest.mark.parametrize(
    "intervals, sums, residual, per_part",
    [
        ((("0", "1"), ("0", "1")), "[0, 2]", "1", [["0.5"], ["0.5"]]),
        ((("1/2", "1"), ("1/2", "2")), "[1, 3]", "2", [["0.75"], ["1.25"]]),
    ],
    ids=["unit-pair", "half-pair"],
)
def test_soliton_solve_reads_the_interval_certificate_before_newton(
    tmp_path, capsys, monkeypatch, intervals, sums, residual, per_part
):
    # No common field exists. On [0, 1] + [0, 1] Newton would run off
    # towards V = -inf, where the residual falls below tol; on [1/2, 1] +
    # [1/2, 2] it would run to its iteration cap.
    monkeypatch.setattr(cli, "solve_soliton", None)
    path = write_doc(tmp_path, _intervals_doc(*intervals))
    start = time.perf_counter()
    code, report, err = run_cli(capsys, "soliton-solve", "--input", path)
    assert time.perf_counter() - start < 0.1
    assert (code, err) == (3, "")
    assert report["results"] == {
        "converged": False,
        "iterations": 0,
        "per_polytope_A": per_part,
        "residual_norm": residual,
        "vfield": ["0"],
    }
    assert report["diagnostics"] == {
        "reason": f"interval certificate: the parts sum to {sums}, which does not hold 0 in its interior",
        "tol": "1e-10",
    }


_BLOWUP_DOC = document_to_dict(builtin_example("blowup-p2-1pt"))
# Valid documents whose decompositions are not ample splittings of c_1.
_INVALID_DECOMPOSITIONS = {
    # 2 c_1(P^2): both rows ample, every column sums to 2
    "p2-twice": dict(
        _P2_DOC, decomposition=[[1, 1, 1], [1, 1, 1]], vector_fields=[[0, 0], [0, 0]]
    ),
    # columns sum to one, but the first row is nef and not ample
    "blowup-nef-row": dict(
        _BLOWUP_DOC,
        decomposition=[["1/2", "1/2", "1/2", "1"], ["1/2", "1/2", "1/2", "0"]],
        vector_fields=[[0, 0], [0, 0]],
    ),
    "p1-twice": {
        "name": "p1-twice",
        "dimension": 1,
        "rays": [[1], [-1]],
        "max_cones": [[0], [1]],
        "decomposition": [[1, 1], [1, 1]],
    },
}


@pytest.mark.parametrize(
    "command, name",
    [
        (command, name)
        for command in ("barycenter", "ke-verdict", "soliton-check", "soliton-solve", "df", "lift")
        for name in ("p2-twice", "blowup-nef-row")
    ]
    + [("ma-solve", "p1-twice")],
)
def test_commands_reject_what_validate_rejects(tmp_path, capsys, command, name):
    path = write_doc(tmp_path, _INVALID_DECOMPOSITIONS[name])
    code, report, err = run_cli(capsys, command, "--input", path)
    assert code == 2 and report is None
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("torifano: invalid input:"), err


@pytest.mark.parametrize(
    "name, failures",
    [
        ("p2-twice", [["column-sum", j, "2"] for j in range(3)]),
        ("blowup-nef-row", [["row-not-ample", 0, "NefOnly", [0, 1]]]),
        ("p1-twice", [["column-sum", j, "2"] for j in range(2)]),
    ],
)
def test_validate_reports_invalid_decompositions(tmp_path, capsys, name, failures):
    path = write_doc(tmp_path, _INVALID_DECOMPOSITIONS[name])
    code, report, _ = run_cli(capsys, "validate", "--input", path)
    assert code == 0
    assert report["results"]["ok"] is False
    assert report["results"]["decomposition"]["failures"] == failures


def _count_cone_passes(monkeypatch):
    calls = []
    real = geometry._cone_vertices

    def counted(fan, c, tol):
        calls.append(c)
        return real(fan, c, tol)

    monkeypatch.setattr(geometry, "_cone_vertices", counted)
    monkeypatch.setattr(stability, "_cone_vertices", counted)
    return calls


@pytest.mark.parametrize("command", ["validate", "ke-verdict"])
def test_fan_documents_solve_each_row_once(capsys, monkeypatch, command):
    # One cone pass per decomposition row: exact Ample rows whose columns
    # sum to one prove the Fano condition, so the all-ones support is not
    # solved.
    calls = _count_cone_passes(monkeypatch)
    code, _, _ = run_cli(capsys, command, "--example", "hexagon-dP6-t")
    assert code == 0
    assert calls == [tuple(map(Fraction, row)) for row in builtin_example("hexagon-dP6-t").decomposition]


_HEXAGON_DOC = document_to_dict(builtin_example("hexagon-dP6-t"))
# Documents whose rows prove nothing about the fan.
_UNPROVEN_FANS = {
    **_INVALID_DECOMPOSITIONS,
    # columns sum to one within the float rows' tolerance, not exactly
    "hexagon-float-rows": dict(
        _HEXAGON_DOC, decomposition=[[0.5, 0.6, 0.5, 0.5, 0.5, 0.5], [0.5, 0.4, 0.5, 0.5, 0.5, 0.5]]
    ),
    # the Hirzebruch surface F_2, whose anticanonical support is nef only
    "f2": {
        "name": "f2",
        "dimension": 2,
        "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "decomposition": [[1, 1, 1, 1]],
    },
}


@pytest.mark.parametrize("name", sorted(_UNPROVEN_FANS))
def test_unproven_fans_solve_the_all_ones_support(tmp_path, capsys, monkeypatch, name):
    # Rows that are not all exact and Ample with columns summing to one
    # leave the Fano condition to the all-ones support's own pass, and the
    # fan block is what validate_fan reports on its own.  That pass reuses
    # the structural checks already made.
    doc = _UNPROVEN_FANS[name]
    fan = geometry.Fan(doc["rays"], doc["max_cones"])
    alone = geometry.validate_fan(fan)
    calls = _count_cone_passes(monkeypatch)
    structures = []
    real_structure = geometry._fan_structure

    def counted_structure(fan):
        structures.append(fan)
        return real_structure(fan)

    monkeypatch.setattr(geometry, "_fan_structure", counted_structure)
    monkeypatch.setattr(stability, "_fan_structure", counted_structure)
    code, report, err = run_cli(capsys, "validate", "--input", write_doc(tmp_path, doc))
    assert (code, err) == (0, "")
    assert len(structures) == 1
    assert len(calls) == len(doc["decomposition"]) + 1
    assert calls[-1] == (1,) * fan.nrays
    assert report["results"]["fan"] == {
        "smooth": alone.smooth,
        "complete": alone.complete,
        "fano": alone.fano,
        "witnesses": json.loads(json.dumps([list(w) for w in alone.witnesses])),
    }
    assert report["results"]["ok"] is (name == "hexagon-float-rows")
    assert ("decomposition" in report["results"]) is alone.ok


@pytest.mark.parametrize("command", ["validate", "ke-verdict"])
def test_fan_documents_invert_each_cone_once(capsys, monkeypatch, command):
    # One Fan per document, whose cone inverses serve the smoothness check
    # and every row, whose passes prove the Fano condition: one elimination
    # per connected part of its dual graph (the hexagon's is connected) and
    # one wall crossing into each other cone; building the polytopes and
    # summing their cones invert nothing.
    fans, inverses, crossings, built = [], [], [], []
    real_init, real_build = geometry.Fan.__post_init__, geometry.polytope_from_support

    def counted(name, calls):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args: calls.append(args) or real(*args))

    def counted_init(fan):
        fans.append(fan)
        real_init(fan)

    def build(*args):
        before = len(inverses)
        polytope = real_build(*args)
        built.append(len(inverses) - before)
        return polytope

    counted("integer_inverse", inverses)
    counted("exchange", crossings)
    monkeypatch.setattr(geometry.Fan, "__post_init__", counted_init)
    monkeypatch.setattr(stability, "polytope_from_support", build)
    code, _, _ = run_cli(capsys, command, "--example", "hexagon-dP6-t")
    assert code == 0
    assert len(fans) == 1
    assert len(inverses) == 1
    assert len(crossings) == len(fans[0].max_cones) - 1 == 5
    assert built == ([0, 0] if command == "ke-verdict" else [])


def test_lift_works_in_dimension_six(tmp_path, capsys):
    # P^6 lifts to dimension 7, past the raw halfspace regime.
    rays = [[int(i == j) for j in range(6)] for i in range(6)] + [[-1] * 6]
    cones = [[j for j in range(7) if j != i] for i in range(7)]
    doc = {"name": "p6", "dimension": 6, "rays": rays, "max_cones": cones, "decomposition": [[1] * 7]}
    code, report, _ = run_cli(capsys, "lift", "--input", write_doc(tmp_path, doc))
    assert code == 0
    assert [part["identity_holds"] for part in report["results"]["parts"]] == [True]


def test_ma_solve_default_schedule_echo(capsys):
    code, report, _ = run_cli(capsys, "ma-solve", "--example", "p1-fubini", "--grid", "R=2,h=0.05")
    assert code == 0
    assert report["options_used"]["t_schedule"] == ["0", "0.25", "0.5", "0.75", "0.90000000000000002", "1"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0", "abc"])
def test_tol_must_be_finite_and_positive(capsys, tol):
    code, report, err = run_cli(capsys, "ke-verdict", "--example", "hexagon-dP6-t", f"--tol={tol}")
    assert code == 1 and report is None
    assert err.startswith("torifano: --tol"), err


@pytest.mark.parametrize(
    "grid, message",
    [
        # h = 2^-5 and R = 1024 give 2 * 32768 + 1 nodes, one pair past the cap.
        ("R=1024,h=0.03125", "grid R=1024.0, h=0.03125 has more than 65536 nodes per part"),
        ("R=0.01,h=0.004", "grid radius is below four spacings"),
    ],
    ids=["node-cap", "below-four-spacings"],
)
def test_grid_outside_the_documented_range_exits_two(capsys, grid, message):
    code, report, err = run_cli(capsys, "ma-solve", "--example", "p1-fubini", "--grid", grid)
    assert code == 2 and report is None
    assert err == f"torifano: invalid input: {message}\n"


@pytest.mark.parametrize("schedule", ["-1,1", "nan,1", "-inf,1", "-1e300,1", "0,2,1"])
def test_t_schedule_outside_the_unit_interval_exits_two(capsys, schedule):
    code, report, err = run_cli(capsys, "ma-solve", "--example", "p1-fubini", f"--t-schedule={schedule}")
    assert code == 2 and report is None
    assert err == "torifano: invalid input: t schedule must lie in [0, 1]\n"


@pytest.mark.parametrize(
    "option, message",
    [
        ("--grid=R=8,x=1", "--grid expects R=<radius>,h=<spacing>, got 'R=8,x=1'"),
        ("--grid=R=8,h=abc", "--grid: 'abc' is not a number"),
        ("--grid=R=8,h=0.004,R=4", "--grid gives R twice, got 'R=8,h=0.004,R=4'"),
        ("--t-schedule=0,a,1", "--t-schedule: '0,a,1' is not a comma-separated float list"),
    ],
)
def test_unparsable_ma_solve_options_exit_one(capsys, option, message):
    code, report, err = run_cli(capsys, "ma-solve", "--example", "p1-fubini", option)
    assert code == 1 and report is None
    assert err == f"torifano: {message}\n"


@pytest.mark.parametrize(
    "tiny, grid",
    [pytest.param(tiny, "R=2,h=0.05", id=tiny) for tiny in ("1e-300", "1e-200", "1e-100", "1e-20", "1e-5", "1e-3")]
    + [pytest.param(tiny, "R=8,h=0.004", id=f"{tiny}-default-grid") for tiny in ("1e-100", "1e-20", "1e-5", "1e-3")],
)
def test_tiny_positive_t_is_a_numerical_failure(tiny, grid):
    # The unit-mass shift log(mass) / (t k) is near 1/t: either the mixing
    # products of the residual histories leave the float range, or the next
    # stage starts from a density e^{-w} that underflows on the whole grid.
    proc = run_cli_process("ma-solve", "--example", "p1-fubini", "--grid", grid, f"--t-schedule=0,{tiny},1")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("torifano: numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr


_EMPTY_FAN_DOC = dict(_P2_DOC, max_cones=[])
# P^2 without its cone [2, 0]: the walls [0] and [2] lie in one cone each.
_INCOMPLETE_P2_DOC = dict(_P2_DOC, max_cones=[[0, 1], [1, 2]])


def test_empty_fan_has_a_witness(tmp_path, capsys):
    path = write_doc(tmp_path, _EMPTY_FAN_DOC)
    code, report, _ = run_cli(capsys, "validate", "--input", path)
    assert code == 0 and report["results"]["ok"] is False
    assert report["results"]["fan"]["complete"] is False
    assert report["results"]["fan"]["witnesses"] == [["complete", {"max_cones": 0}]]
    code, report, err = run_cli(capsys, "ke-verdict", "--input", path)
    assert code == 2 and report is None
    assert err == "torifano: invalid input: fan is not a smooth complete Fano fan: the fan has no maximal cones\n"


def test_incomplete_fan_reason_names_the_walls(tmp_path, capsys):
    code, report, err = run_cli(capsys, "ke-verdict", "--input", write_doc(tmp_path, _INCOMPLETE_P2_DOC))
    assert code == 2 and report is None
    assert err == (
        "torifano: invalid input: fan is not a smooth complete Fano fan: "
        "wall [0] has incidence 1, not 2; wall [2] has incidence 1, not 2\n"
    )


# One child interpreter runs every command line it is given through
# cli.main and prints the exit codes and whether numpy got imported.
_NUMPY_PROBE = """
import contextlib, io, json, sys
from torifano import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def _numpy_probe(runs):
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=_child_env(), timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_exact_commands_on_fan_documents_never_import_numpy(tmp_path):
    rational = write_doc(tmp_path, document_to_dict(builtin_example("hexagon-dP6-t:1/7")))
    sources = [["--example", name] for name in ("p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t", "p1-fubini")]
    sources.append(["--input", rational])
    runs = [[command, *source] for command in ("validate", "barycenter", "ke-verdict", "df", "lift")
            for source in sources]
    probe = _numpy_probe(runs)
    assert probe["codes"] == [0] * len(runs)
    assert probe["numpy"] is False


def test_exact_commands_on_raw_documents_never_import_numpy(tmp_path):
    # Vertex enumeration is integer arithmetic, whatever the document's outcome.
    orthant = write_doc(tmp_path, ORTHANT_DOC)
    runs = [[command, "--example", "pE-4fold-c:3/5"] for command in ("validate", "barycenter")]
    runs.append(["validate", "--input", orthant])
    assert _numpy_probe(runs) == {"codes": [0, 0, 0], "numpy": False}


def test_unbounded_reason_names_an_integer_recession_ray(tmp_path, capsys):
    orthant = write_doc(tmp_path, ORTHANT_DOC)
    code, report, _ = run_cli(capsys, "validate", "--input", orthant)
    assert code == 0
    assert report["results"] == {"ok": False, "reason": "unbounded along [0, 1]"}


def test_parser_is_built_once_and_parses_fresh_defaults():
    assert cli.build_parser() is cli.build_parser()
    first, second = (cli.build_parser().parse_args(["ma-solve", "--example", "p1-fubini"]) for _ in range(2))
    assert first.grid == second.grid == {"R": 8.0, "h": 0.004}
    assert first.grid is not second.grid


def test_numpy_probe_sees_a_float_command():
    probe = _numpy_probe([["soliton-solve", "--example", "blowup-p2-1pt"]])
    assert probe == {"codes": [0], "numpy": True}


# ---------------------------------------------------------------------------
# fuzzing the console entry point

_FUZZ_SCALARS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from(["1/2", "-7/3", "0", "1/10"]),
    st.sampled_from([0.5, -1e-300, 1e-12, 1e308, -1e308, 1.7976931348623157e308, 1e200, -1e154, 5e-324]),
    st.sampled_from([10**30, -(10**300), f"1/{10**2200 + 1}", f"-1/{10**2200 + 3}"]),
)


@st.composite
def _fuzz_documents(draw):
    """A built-in document, a mutated one, or a raw system of dimension 0-3."""
    kind = draw(st.sampled_from(["builtin", "mutated", "raw"]))
    if kind == "raw":
        dim = draw(st.integers(0, 3))
        row = st.tuples(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), _FUZZ_SCALARS)
        parts = draw(st.lists(st.lists(row, max_size=6), max_size=2))
        return {"name": "fuzz", "dimension": dim, "halfspaces": parts}
    doc = json.loads(json.dumps(document_to_dict(builtin_example(draw(st.sampled_from(_FUZZ_EXAMPLES))))))
    if kind == "builtin":
        return doc
    for edit in draw(st.lists(st.sampled_from(["scalar", "ray", "row", "fields", "empty"]), min_size=1, max_size=3)):
        if "halfspaces" in doc:
            rows = draw(st.sampled_from(doc["halfspaces"]))
            if edit == "empty":
                doc["halfspaces"].append([])
            elif rows and edit == "scalar":
                draw(st.sampled_from(rows))[1] = draw(_FUZZ_SCALARS)
            elif rows and edit in ("ray", "row"):
                normal = list(draw(st.sampled_from(rows))[0])
                normal[draw(st.integers(0, len(normal) - 1))] = draw(st.integers(-3, 3))
                rows.append([normal, draw(_FUZZ_SCALARS)])
        else:
            rays, rows = doc["rays"], doc["decomposition"]
            if edit == "scalar" and rows:
                row = draw(st.sampled_from(rows))
                row[draw(st.integers(0, len(row) - 1))] = draw(_FUZZ_SCALARS)
            elif edit == "ray":
                ray = draw(st.sampled_from(rays))
                ray[draw(st.integers(0, len(ray) - 1))] = draw(st.integers(-3, 3))
            elif edit == "row":
                rows.append(draw(st.lists(_FUZZ_SCALARS, min_size=len(rays), max_size=len(rays))))
            elif edit == "empty":
                doc["decomposition"] = []
        if edit == "fields":
            k, dim = len(doc.get("decomposition", doc.get("halfspaces"))), doc["dimension"]
            doc["vector_fields"] = draw(st.lists(st.lists(_FUZZ_SCALARS, min_size=dim, max_size=dim),
                                                 min_size=k, max_size=k))
    return doc


_FUZZ_EXAMPLES = ("p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t:1/7", "pE-4fold-c:1/3", "p1-fubini")


@settings(max_examples=20, deadline=None)
@given(
    command=st.sampled_from(cli.COMMANDS),
    doc=_fuzz_documents(),
    out=st.sampled_from([None, None, "report.json", ".", "missing/report.json"]),
)
@example(command="soliton-check", doc=_FLOAT_OVERFLOWS["field-p2"], out=None)
@example(command="barycenter", doc=_FLOAT_OVERFLOWS["field-interval"], out=None)
@example(command="ma-solve", doc=_FLOAT_OVERFLOWS["field-interval"], out=None)
def test_console_fuzz_exits_with_a_documented_code(tmp_path_factory, command, doc, out):
    where = tmp_path_factory.mktemp("fuzz")
    args = [command, "--input", write_doc(where, doc)]
    if out is not None:
        args += ["--out", str(where / out)]
    r = run_cli_process(*args)
    assert r.returncode in (0, 1, 2, 3), r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr, r.stderr
    if r.returncode == 0:
        assert r.stderr == ""
        _finite_strings(json.loads(r.stdout))
    elif r.stdout:
        # A soliton solve that does not converge reports, with exit 3.
        assert command == "soliton-solve" and r.returncode == 3 and r.stderr == "", r.stderr
    else:
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("torifano: "), r.stderr
