"""Existence criteria, solitons, DF pairing, and lifted configurations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from torifano import geometry, moments, stability
from torifano.errors import DegenerateLiftError, InputError
from torifano.geometry import (
    Fan,
    polytope_from_halfspaces,
    polytope_from_support,
    validate_fan,
)
from torifano.moments import weighted_barycenter, weighted_moments
from torifano.problems import builtin_example
from torifano.stability import (
    Decomposition,
    coupled_ke_verdict,
    destabilizer,
    df_invariant,
    lifted_config,
    solve_soliton,
    soliton_residual,
    sum_barycenter,
    validate_decomposition,
)

from reference_geometry import translate

HEXAGON = Fan(
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
)
BLOWUP = Fan(
    ((1, 0), (0, 1), (-1, -1), (1, 1)),
    ((0, 3), (3, 1), (1, 2), (2, 0)),
)
P2 = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))


def hexagon_rows(t):
    half = Fraction(1, 2)
    row = [half] * 6
    row[1] = half + t
    other = [half] * 6
    other[1] = half - t
    return (tuple(row), tuple(other))


def shoelace(vertices):
    """Area and centroid of a convex polygon, exact; independent of the
    triangulation code under test."""
    cx = sum(float(v[0]) for v in vertices) / len(vertices)
    cy = sum(float(v[1]) for v in vertices) / len(vertices)
    order = sorted(
        vertices, key=lambda v: math.atan2(float(v[1]) - cy, float(v[0]) - cx)
    )
    twice_area = Fraction(0)
    sx = Fraction(0)
    sy = Fraction(0)
    for i, (x0, y0) in enumerate(order):
        x1, y1 = order[(i + 1) % len(order)]
        cross = x0 * y1 - x1 * y0
        twice_area += cross
        sx += (x0 + x1) * cross
        sy += (y0 + y1) * cross
    area = twice_area / 2
    return area, (sx / (6 * area), sy / (6 * area))


def interval(a, b):
    return polytope_from_halfspaces((((1,), -Fraction(a)), ((-1,), Fraction(b))))


def pe_parts(c):
    doc = builtin_example(f"pE-4fold-c:{c}" if c != "critical" else "pE-4fold-c")
    return [polytope_from_halfspaces(part) for part in doc.halfspaces]


def test_hexagon_symmetric_pair_admits_ke():
    dec = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(0)))
    verdict = coupled_ke_verdict(dec)
    assert verdict.exists and verdict.exact
    assert verdict.sum_barycenter == (0, 0)
    assert verdict.destabilizer is None
    assert destabilizer(dec) is None


def test_hexagon_perturbed_sum_matches_shoelace_oracle():
    dec = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(1, 10)))
    want = [Fraction(0), Fraction(0)]
    for row in hexagon_rows(Fraction(1, 10)):
        _, centroid = shoelace(polytope_from_support(HEXAGON, row).vertices)
        want[0] += centroid[0]
        want[1] += centroid[1]
    got = sum_barycenter(dec)
    assert got == tuple(want)
    assert got == (Fraction(148, 66303), Fraction(148, 66303))


def test_hexagon_perturbed_verdict_and_rows():
    rows = hexagon_rows(Fraction(1, 10))
    report = validate_decomposition(HEXAGON, rows)
    assert report.ok
    assert report.row_ampleness == ("Ample", "Ample")
    assert report.column_sums == (1, 1, 1, 1, 1, 1)
    verdict = coupled_ke_verdict(Decomposition.from_fan(HEXAGON, rows))
    assert not verdict.exists
    assert verdict.exact
    assert verdict.destabilizer == (Fraction(-148, 66303), Fraction(-148, 66303))


def test_hexagon_df_at_destabilizer_is_negative_frozen():
    dec = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(1, 10)))
    v = destabilizer(dec)
    report = df_invariant(dec, v)
    assert report.value == Fraction(-43808, 4396087809)
    s = report.sum_barycenter
    assert report.value == -(s[0] ** 2 + s[1] ** 2)
    assert report.value < 0


def test_df_linearity():
    dec = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(1, 10)))
    assert df_invariant(dec, (0, 0)).value == 0
    v = (Fraction(2), Fraction(-3))
    w = (Fraction(1, 2), Fraction(5))
    dv = df_invariant(dec, v).value
    dw = df_invariant(dec, w).value
    assert df_invariant(dec, tuple(2 * x for x in v)).value == 2 * dv
    assert df_invariant(dec, tuple(a + b for a, b in zip(v, w))).value == dv + dw


def test_blowup_df_frozen():
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    assert df_invariant(dec, (1, 1)).value == Fraction(1, 6)


def test_p2_has_no_destabilizer():
    dec = Decomposition.from_fan(P2, ((1, 1, 1),))
    assert destabilizer(dec) is None
    assert coupled_ke_verdict(dec).exists


def test_blowup_soliton_diagonal_and_frozen():
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    sol = solve_soliton(dec)
    assert sol.converged
    assert sol.iterations <= 25
    assert sol.residual_norm < 1e-10
    assert abs(sol.vfield[0] - sol.vfield[1]) < 1e-10
    assert sol.vfield[0] == pytest.approx(-0.52761951989696, abs=1e-9)
    assert sol.hessian_condition >= 1.0

    again = solve_soliton(dec, start=(0.3, -0.2))
    assert again.converged
    assert max(abs(a - b) for a, b in zip(sol.vfield, again.vfield)) < 1e-8


def test_blowup_soliton_matches_diagonal_bisection():
    # By symmetry the soliton field lies on the diagonal, so its scale
    # solves a one-variable equation we can bracket and bisect.
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    part = dec.polytopes[0]

    def g(a):
        ax, ay = weighted_barycenter(part, (a, a))
        return ax + ay

    lo, hi = -1.0, 0.0
    assert g(lo) < 0 < g(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    sol = solve_soliton(dec)
    assert abs(sol.vfield[0] - 0.5 * (lo + hi)) < 1e-8


def test_hexagon_soliton_is_zero_field():
    dec = Decomposition.from_fan(HEXAGON, ((1, 1, 1, 1, 1, 1),))
    sol = solve_soliton(dec)
    assert sol.converged
    assert sol.iterations <= 1
    assert max(abs(x) for x in sol.vfield) < 1e-12


def test_interval_pair_residual_frozen():
    dec = Decomposition(
        (interval(-1, Fraction(1, 4)), interval(0, Fraction(3, 4)))
    )
    res = soliton_residual(dec, ((1,), (0,)))

    def mean(a, b, v):
        if v == 0:
            return 0.5 * (a + b)
        return (b * math.exp(v * b) - a * math.exp(v * a)) / (
            math.exp(v * b) - math.exp(v * a)
        ) - 1.0 / v

    assert res.per_polytope[0][0] == pytest.approx(mean(-1, 0.25, 1.0), abs=1e-14)
    assert res.per_polytope[1][0] == pytest.approx(0.375, abs=1e-15)
    assert res.total[0] == pytest.approx(0.126938, abs=1e-6)
    assert res.norm == pytest.approx(abs(res.total[0]), abs=1e-15)


def test_interval_pair_soliton_matches_bisection():
    p1 = interval(-1, Fraction(1, 4))
    p2 = interval(0, Fraction(3, 4))
    dec = Decomposition((p1, p2))
    sol = solve_soliton(dec)
    assert sol.converged and sol.residual_norm < 1e-11

    def total(v):
        return soliton_residual(dec, ((v,), (v,))).total[0]

    lo, hi = -5.0, 5.0
    assert total(lo) < 0 < total(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if total(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(sol.vfield[0] - 0.5 * (lo + hi)) < 1e-8


def test_bundle_pair_ke_at_critical_parameter():
    dec = Decomposition(pe_parts("critical"))
    verdict = coupled_ke_verdict(dec)
    assert verdict.exists
    assert not verdict.exact
    assert max(abs(float(x)) for x in verdict.sum_barycenter) < 1e-10


def test_bundle_pair_sum_changes_sign_across_critical():
    below = sum_barycenter(Decomposition(pe_parts(Fraction(7, 10))))
    above = sum_barycenter(Decomposition(pe_parts(Fraction(18, 25))))
    assert below[:3] == (0, 0, 0) and above[:3] == (0, 0, 0)
    assert below[3] * above[3] < 0
    for s in (below, above):
        verdict = coupled_ke_verdict(
            Decomposition(pe_parts(Fraction(7, 10)))
        )
        assert not verdict.exists and verdict.exact


def test_lift_frozen_volumes():
    seg = lifted_config(interval(-1, 1), (1,), cap=2)
    assert seg.identity_holds
    assert seg.volume_lifted == 4
    assert seg.polytope.dim == 2

    p2 = polytope_from_support(P2, (Fraction(1),) * 3)
    cfg = lifted_config(p2, (1, 1), cap=3)
    assert cfg.identity_holds
    assert cfg.volume_lifted == Fraction(27, 2)

    bl = polytope_from_support(BLOWUP, (Fraction(1),) * 4)
    cfg = lifted_config(bl, (1, 1), cap=1)
    assert cfg.identity_holds
    assert cfg.volume_lifted == Fraction(14, 3)


def test_lift_default_cap_and_rejections():
    p2 = polytope_from_support(P2, (Fraction(1),) * 3)
    cfg = lifted_config(p2, (1, 1))
    assert cfg.cap == 3 and cfg.identity_holds
    with pytest.raises(InputError):
        lifted_config(p2, (1.5, 0.0), cap=3)
    with pytest.raises(DegenerateLiftError):
        lifted_config(p2, (1, 1), cap=1)


@pytest.mark.parametrize(
    "polytope, vfield, cap",
    [
        (polytope_from_support(P2, (1, 1, 1)), (1, 1), 3),
        # cap at the graph maximum: the top and bottom vertices there merge
        (polytope_from_support(P2, (1, 1, 1)), (1, 1), 2),
        (polytope_from_support(BLOWUP, (1, 1, 1, 1)), (1, 1), 1),
        (polytope_from_support(HEXAGON, (1,) * 6), (0, 0), Fraction(1, 3)),
        (interval(-1, 1), (1,), 1),
    ],
)
def test_lift_matches_vertex_enumeration(polytope, vfield, cap):
    # The lift writes its vertices down; enumerating them from the lifted
    # halfspaces finds the same vertices, tight sets and redundant rows.
    lifted = lifted_config(polytope, vfield, cap=cap).polytope
    enumerated = polytope_from_halfspaces(lifted.halfspaces)

    def faces(p):
        return [frozenset(p.vertices[i] for i in t) for t in p.tight_sets]

    assert set(lifted.vertices) == set(enumerated.vertices)
    assert len(lifted.vertices) == len(enumerated.vertices)
    assert faces(lifted) == faces(enumerated)
    assert lifted.redundant == enumerated.redundant
    assert not lifted.degenerate


def test_flat_lift_is_degenerate():
    # v = 0 and cap 0: every top vertex merges with its bottom one.
    p2 = polytope_from_support(P2, (1, 1, 1))
    with pytest.raises(DegenerateLiftError, match="degenerate"):
        lifted_config(p2, (0, 0), cap=0)


@pytest.mark.parametrize(
    "fan, rows, message",
    [
        # 2 c_1(P^2): both rows ample, every column sums to 2
        (P2, ((1, 1, 1), (1, 1, 1)), "column 0 sums to 2"),
        (
            BLOWUP,
            ((Fraction(1, 2),) * 3 + (1,), (Fraction(1, 2),) * 3 + (0,)),
            "row 0 support is nef, not ample",
        ),
    ],
)
def test_from_fan_rejects_what_validate_rejects(fan, rows, message):
    assert not validate_decomposition(fan, rows).ok
    with pytest.raises(InputError, match=message):
        Decomposition.from_fan(fan, rows)


def test_zero_sum_translations_preserve_invariants():
    rows = hexagon_rows(Fraction(1, 10))
    base = Decomposition.from_fan(HEXAGON, rows)
    shift = (Fraction(2, 3), Fraction(-1, 5))
    moved = Decomposition(
        (
            translate(polytope_from_support(HEXAGON, rows[0]), shift),
            translate(
                polytope_from_support(HEXAGON, rows[1]),
                tuple(-x for x in shift),
            ),
        )
    )
    assert sum_barycenter(moved) == sum_barycenter(base)
    v = (Fraction(3), Fraction(-4))
    assert df_invariant(moved, v).value == df_invariant(base, v).value

    pair = Decomposition(
        (interval(-1, Fraction(1, 4)), interval(0, Fraction(3, 4)))
    )
    pair_moved = Decomposition(
        (
            translate(interval(-1, Fraction(1, 4)), (Fraction(1, 3),)),
            translate(interval(0, Fraction(3, 4)), (Fraction(-1, 3),)),
        )
    )
    v0 = solve_soliton(pair).vfield[0]
    v1 = solve_soliton(pair_moved).vfield[0]
    assert abs(v0 - v1) < 1e-10


def test_validate_decomposition_reports_failures():
    half = Fraction(1, 2)
    bad_rows = (
        (half, half + Fraction(7, 10), half, half, half, half),
        (half, half - Fraction(7, 10), half, half, half, half),
    )
    # Columns still sum to one, but the first row is far enough from the
    # symmetric point that its support vector is no longer convex.
    report = validate_decomposition(HEXAGON, bad_rows)
    assert not report.ok
    assert any(f[0] == "row-not-ample" for f in report.failures)

    bad_sum = (
        (half, half, half, half, half, half),
        (half, half, half, half, half, Fraction(1, 3)),
    )
    report = validate_decomposition(HEXAGON, bad_sum)
    assert any(f[0] == "column-sum" for f in report.failures)
    assert report.k == 2


def test_soliton_hessian_is_positive_definite():
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    for v in ((0.0, 0.0), (-0.5, -0.5), (1.0, -2.0)):
        hess = sum(weighted_moments(p, v).covariance for p in dec.polytopes)
        assert np.linalg.eigvalsh(np.array(hess, dtype=float)).min() > 0


def test_part_barycenters_computed_once(monkeypatch):
    # Each part keeps its one cone-sum pass, however often it is read.
    calls = []
    real = geometry._cone_sums
    monkeypatch.setattr(geometry, "_cone_sums", lambda p: calls.append(p) or real(p))
    dec = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(1, 10)))
    report = df_invariant(dec, destabilizer(dec))
    assert coupled_ke_verdict(dec).sum_barycenter == report.sum_barycenter == sum_barycenter(dec)
    assert calls == list(dec.polytopes)
    assert sum_barycenter(dec) == tuple(sum(moments.barycenter(p)[i] for p in dec.polytopes) for i in range(2))


def test_newton_converges_on_the_blowup_from_an_offset_start():
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    sol = solve_soliton(dec, start=(1.5, -2.0))
    assert sol.converged
    assert abs(sol.vfield[0] - sol.vfield[1]) < 1e-10


# LU meets an exactly zero second pivot on this summed covariance, while
# eigvalsh reads its least eigenvalue as about 3e-17, rounding noise above 0.
_FLOAT_SINGULAR_COVARIANCE = ((5.257290334370137, -1.122377914975665), (-1.122377914975665, 0.23961624789665464))


def test_newton_on_a_float_singular_hessian_read_as_positive_raises_one_error(monkeypatch):
    cov = np.array(_FLOAT_SINGULAR_COVARIANCE)
    assert np.linalg.eigvalsh(cov)[0] > 0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(cov, np.ones(2))
    passes = moments.WeightedMoments(0.0, 1.0, (1.0, 0.0), cov)
    monkeypatch.setattr(moments, "weighted_moments", lambda polytope, vfield, order=2: passes)
    square = polytope_from_halfspaces([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    with pytest.raises(ArithmeticError) as info:
        solve_soliton(Decomposition([square]))
    assert str(info.value) == "weighted covariance is numerically singular"


@pytest.mark.parametrize(
    "fan, reason",
    [
        (Fan(P2.rays, ((0, 1), (1, 2))), "wall [0] has incidence 1, not 2; wall [2] has incidence 1, not 2"),
        (Fan(P2.rays, ()), "the fan has no maximal cones"),
        # det((1, 0), (1, 2)) = 2
        (Fan(((1, 0), (1, 2), (-1, -1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))),
         "cone [0, 1] has det 2, not 1 or -1"),
        # the Hirzebruch surface F_2: -K is nef, not ample
        (Fan(((1, 0), (0, 1), (-1, 2), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))),
         "the anticanonical support is nef, not ample: the vertex of cone [0, 1] is tight on ray 2"),
    ],
)
def test_fan_rejection_names_each_witness(fan, reason):
    with pytest.raises(InputError) as info:
        Decomposition.from_fan(fan, ((1,) * fan.nrays,))
    assert str(info.value) == f"fan is not a smooth complete Fano fan: {reason}"


F2 = Fan(((1, 0), (0, 1), (-1, 2), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
F2_REASON = (
    "fan is not a smooth complete Fano fan: the anticanonical support is nef, not ample: "
    "the vertex of cone [0, 1] is tight on ray 2"
)


# Guards that document ingest makes unreachable from the command line, which
# checks the same shapes first.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Decomposition(()), "decomposition needs at least one polytope"),
        (
            lambda: Decomposition((interval(0, 1), polytope_from_support(P2, (1, 1, 1)))),
            "decomposition parts must share one dimension",
        ),
        (lambda: validate_decomposition(P2, ()), "decomposition needs at least one row"),
        (lambda: validate_decomposition(P2, ((1, 1, 1), (0, 0))), "row 1 length 2 != ray count 3"),
        (lambda: Decomposition.from_fan(P2, ()), "decomposition needs at least one row"),
        (lambda: Decomposition.from_fan(BLOWUP, ((1, 1, 1),)), "row 0 length 3 != ray count 4"),
        (
            lambda: soliton_residual(Decomposition((interval(-1, 1), interval(-1, 1))), [(0,)]),
            "need one vector field per part",
        ),
        # The fan is checked before the rows, whatever they are.
        (lambda: Decomposition.from_fan(F2, ((1, 1, 1),)), F2_REASON),
        (lambda: Decomposition.from_fan(F2, ()), F2_REASON),
        (lambda: Decomposition.from_fan(F2, ((1.0, 1.0, 1.0, 1e308),)), F2_REASON),
    ],
)
def test_library_only_guards(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fan, rows",
    [
        (P2, ((1, 1, 1),)),
        (P2, ((Fraction(1, 3),) * 3, (Fraction(2, 3),) * 3)),
        (P2, ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))),
        (P2, ((1, 1, 1), (1, 1, 1))),
        (BLOWUP, ((Fraction(1, 2),) * 3 + (1,), (Fraction(1, 2),) * 3 + (0,))),
        (F2, ((1, 1, 1, 1),)),
        (F2, ((Fraction(1, 2),) * 4, (Fraction(1, 2),) * 4)),
        (Fan(P2.rays, ((0, 1), (1, 2))), ((1, 1, 1),)),
    ],
)
def test_validated_reports_what_validate_fan_then_validate_decomposition_report(fan, rows):
    # The shared check skips the all-ones pass only where the rows prove
    # the Fano condition; its reports are the two functions' own.
    fan_report, report = stability._validated(fan, rows)
    assert fan_report == validate_fan(fan)
    assert report == (validate_decomposition(fan, rows) if fan_report.ok else None)
