"""Acceptance battery: one pass/fail line per criterion (run with -s).

Each test exercises one numbered criterion end to end at its stated
tolerance and prints a single summary line; thresholds here are contractual
and must not be loosened.
"""

import functools
import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from torifano.geometry import (
    Ampleness,
    Fan,
    ampleness_class,
    polytope_from_halfspaces,
    polytope_from_support,
    triangulate,
)
from torifano.masolver import solve_continuity_1d
from torifano.moments import (
    barycenter,
    volume,
    weighted_barycenter,
    weighted_moments,
)
from torifano.problems import builtin_example
from torifano.stability import (
    Decomposition,
    coupled_ke_verdict,
    destabilizer,
    df_invariant,
    lifted_config,
    solve_soliton,
    sum_barycenter,
    validate_decomposition,
)

from reference_geometry import translate
from reference_moments import exp_moments_simplex, interval_weighted_mean, mesh_moments, simplex_polytope

P2 = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
HEXAGON = Fan(
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
)
BLOWUP = Fan(((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (3, 1), (1, 2), (2, 0)))
FANS = (P2, HEXAGON, BLOWUP)

PAIR = ((-0.75, 0.25), (-0.25, 0.75))


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {label}")
                raise
            print(f"criterion {number:2d} PASS  {label}")

        return wrapper

    return deco


def pe_parts(param):
    doc = builtin_example(f"pE-4fold-c:{param}" if param is not None else "pE-4fold-c")
    return [polytope_from_halfspaces(part) for part in doc.halfspaces]


def hexagon_rows(t):
    half = Fraction(1, 2)
    row = [half] * 6
    row[1] = half + t
    return (tuple(row), tuple(half * 2 - x for x in row))


def random_fraction(rng, lo_num, hi_num, max_den):
    return Fraction(rng.randint(lo_num, hi_num), rng.randint(1, max_den))


def random_ample_pair(rng, fan):
    while True:
        row = tuple(Fraction(rng.randint(30, 70), 100) for _ in range(fan.nrays))
        other = tuple(1 - x for x in row)
        if validate_decomposition(fan, (row, other)).ok:
            return row, other


def random_ample_row(rng, fan):
    while True:
        row = tuple(Fraction(rng.randint(2, 12), rng.randint(1, 6)) for _ in range(fan.nrays))
        if ampleness_class(fan, row).kind is Ampleness.AMPLE:
            return row


@criterion(1, "bundle example moments match the closed forms exactly")
def test_criterion_1_bundle_exact_moments():
    for c in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        started = time.perf_counter()
        doc = builtin_example(f"pE-4fold-c:{c}")
        part = polytope_from_halfspaces(doc.halfspaces[0])
        vol = volume(part)
        bary = barycenter(part)
        assert mesh_moments(triangulate(part).simplices)[1:] == (vol, bary)
        assert vol == (56 * c - 3) / 144
        assert vol * bary[3] == (5 * c - 2) / 720
        assert bary[:3] == (0, 0, 0)
        assert time.perf_counter() - started < 2.0


@criterion(2, "bundle barycenter sum vanishes at the critical parameter")
def test_criterion_2_bundle_root():
    verdict = coupled_ke_verdict(Decomposition(pe_parts(None)))
    assert not verdict.exact
    assert max(abs(float(x)) for x in verdict.sum_barycenter) < 1e-10
    assert verdict.exists

    below = sum_barycenter(
        Decomposition(pe_parts(Fraction(70, 100)))
    )
    above = sum_barycenter(
        Decomposition(pe_parts(Fraction(72, 100)))
    )
    assert below[3] * above[3] < 0


@criterion(3, "bundle halfspace redundancy appears exactly off the ample range")
def test_criterion_3_bundle_redundancy():
    for c in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        for part in pe_parts(c):
            assert not any(part.redundant)
            assert len(part.halfspaces) == 7
    for c in (Fraction(2, 10), Fraction(8, 10)):
        flagged = sum(
            sum(1 for r in part.redundant if r) for part in pe_parts(c)
        )
        assert flagged >= 1


@criterion(4, "hexagon pair: symmetric sum vanishes, perturbed sum destabilizes")
def test_criterion_4_hexagon():
    sym = Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(0)))
    assert sum_barycenter(sym) == (0, 0)

    rows = hexagon_rows(Fraction(1, 10))
    report = validate_decomposition(HEXAGON, rows)
    assert report.ok and report.row_ampleness == ("Ample", "Ample")
    dec = Decomposition.from_fan(HEXAGON, rows)
    s = sum_barycenter(dec)
    assert s != (0, 0)
    assert all(isinstance(x, Fraction) for x in s)
    v = destabilizer(dec)
    assert df_invariant(dec, v).value < 0


@criterion(5, "soliton Newton on the blowup converges and matches bisection")
def test_criterion_5_soliton_newton():
    dec = Decomposition.from_fan(BLOWUP, ((1, 1, 1, 1),))
    sol = solve_soliton(dec)
    assert sol.converged
    assert sol.residual_norm < 1e-10
    assert sol.iterations <= 25
    assert abs(sol.vfield[0] - sol.vfield[1]) < 1e-10

    part = dec.polytopes[0]

    def g(a):
        ax, ay = weighted_barycenter(part, (a, a))
        return ax + ay

    lo, hi = -1.0, 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(sol.vfield[0] - 0.5 * (lo + hi)) < 1e-8

    other = solve_soliton(dec, start=(0.4, -0.3))
    assert other.converged
    assert max(abs(a - b) for a, b in zip(sol.vfield, other.vfield)) < 1e-8


@criterion(6, "zero-sum translations leave sum-barycenter, V, and df unchanged")
def test_criterion_6_translation_invariance():
    rng = Random(20260814)
    for trial in range(20):
        fan = P2 if trial % 2 == 0 else HEXAGON
        rows = random_ample_pair(rng, fan)
        parts = [polytope_from_support(fan, row) for row in rows]
        shift = tuple(random_fraction(rng, -4, 4, 5) for _ in range(2))
        moved = [
            translate(parts[0], shift),
            translate(parts[1], tuple(-x for x in shift)),
        ]
        base = Decomposition(parts)
        after = Decomposition(moved)

        assert sum_barycenter(after) == sum_barycenter(base)
        v = tuple(random_fraction(rng, -3, 3, 4) for _ in range(2))
        assert df_invariant(after, v).value == df_invariant(base, v).value
        v0 = solve_soliton(base).vfield
        v1 = solve_soliton(after).vfield
        assert max(abs(a - b) for a, b in zip(v0, v1)) < 1e-10


@criterion(7, "lifted-polytope volume identity holds exactly on random data")
def test_criterion_7_lift_identity():
    rng = Random(7)
    for trial in range(20):
        fan = FANS[trial % len(FANS)]
        row = random_ample_row(rng, fan)
        polytope = polytope_from_support(fan, row)
        v = tuple(random_fraction(rng, -5, 5, 4) for _ in range(2))
        top = max(
            -sum(a * b for a, b in zip(v, vert)) for vert in polytope.vertices
        )
        cap = top + Fraction(rng.randint(0, 6), rng.randint(1, 3))
        cfg = lifted_config(polytope, v, cap=cap)
        assert cfg.identity_holds
        assert cfg.volume_lifted == cfg.volume_product
        assert cfg.polytope.dim == 3


@criterion(8, "weighted-moment kernel: two routes agree, Jacobian matches covariance")
def test_criterion_8_kernel_cross_validation():
    rng = np.random.RandomState(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        simplex = rng.uniform(-1.5, 1.5, size=(n + 1, n))
        while abs(np.linalg.det(simplex[1:] - simplex[0])) < 1e-3:
            simplex = rng.uniform(-1.5, 1.5, size=(n + 1, n))
        vfield = rng.uniform(-10.0, 10.0, size=n)
        dd = weighted_moments(simplex_polytope(simplex.tolist()), tuple(vfield), order=0).mass
        quad, _, _ = exp_moments_simplex(
            simplex.tolist(), vfield.tolist(), rtol=1e-13
        )
        assert abs(dd - quad) / abs(quad) < 1e-9

    p2 = polytope_from_support(P2, (Fraction(1),) * 3)
    for v in ((0.4, -0.7), (2.0, 0.0)):
        cov = np.array(weighted_moments(p2, v).covariance)
        step = 1e-5
        jac = np.zeros((2, 2))
        for j in range(2):
            vp, vm = list(v), list(v)
            vp[j] += step
            vm[j] -= step
            jac[:, j] = (
                np.array(weighted_barycenter(p2, tuple(vp)))
                - np.array(weighted_barycenter(p2, tuple(vm)))
            ) / (2 * step)
        assert np.max(np.abs(jac - cov)) < 1e-6


@criterion(9, "1-D continuity path: accuracy, symmetry, obstruction reporting")
def test_criterion_9_monge_ampere():
    fs = solve_continuity_1d([(-1.0, 1.0)], spacing=1.0 / 250.0)
    assert fs.status == "Converged"
    exact = 2.0 * np.log(np.cosh(fs.state.xs / 2.0)) + math.log(4.0)
    assert np.max(np.abs(fs.state.f[0] - exact)) < 1e-4

    mirror = solve_continuity_1d(((-1.0, 0.25), (-0.25, 1.0)))
    assert mirror.status == "Converged"
    f1, f2 = mirror.state.f
    assert np.max(np.abs(f2 - f1[::-1])) < 1e-6

    blocked = solve_continuity_1d(PAIR, vfields=(2.0, 0.0))
    assert blocked.status == "Obstructed"
    assert blocked.diagnostics["barycenter_residual"] == pytest.approx(
        0.156518, abs=1e-6
    )
    assert blocked.diagnostics["heuristic_detection"] is True

    a1 = interval_weighted_mean(-0.75, 0.25, 2.0)
    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if interval_weighted_mean(-0.25, 0.75, mid) + a1 < 0:
            lo = mid
        else:
            hi = mid
    balanced = solve_continuity_1d(PAIR, vfields=(2.0, 0.5 * (lo + hi)))
    assert balanced.status == "Converged"
    for result in (fs, mirror, balanced):
        assert abs(result.diagnostics["obstruction_residual"]) < 1e-6


@criterion(10, "existence criterion co-occurs with solver behavior")
def test_criterion_10_criterion_solver_cooccurrence():
    # The complex-geometric existence statements are not desk-checkable;
    # the accepted substitute ties the exact criterion to solver behavior
    # in 1-D and evaluates the criterion exactly in higher dimensions.
    a1 = interval_weighted_mean(-0.75, 0.25, 2.0)
    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if interval_weighted_mean(-0.25, 0.75, mid) + a1 < 0:
            lo = mid
        else:
            hi = mid
    v2 = 0.5 * (lo + hi)
    cases = [
        ((0.0, 0.0), PAIR),
        ((2.0, 0.0), PAIR),
        ((0.0, 2.0), PAIR),
        ((-1.0, -1.0), PAIR),
        ((2.0, v2), PAIR),
        ((1.5,), ((-1.0, 1.0),)),
        ((0.0,), ((-1.0, 1.0),)),
    ]
    for vfields, intervals in cases:
        total = sum(
            interval_weighted_mean(a, b, v)
            for (a, b), v in zip(intervals, vfields)
        )
        result = solve_continuity_1d(intervals, vfields=vfields, spacing=0.008)
        assert (result.status == "Obstructed") == (abs(total) > 1e-9)

    assert coupled_ke_verdict(
        Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(0)))
    ).exists
    assert not coupled_ke_verdict(
        Decomposition.from_fan(HEXAGON, hexagon_rows(Fraction(1, 10)))
    ).exists
    assert coupled_ke_verdict(Decomposition(pe_parts(None))).exists
