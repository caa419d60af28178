"""Continuity-path solver for the 1-D coupled Monge-Ampere system."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from torifano import masolver
from torifano._record import Record
from torifano.errors import ConfigurationError, InputError
from torifano.geometry import polytope_from_halfspaces
from torifano.masolver import (
    DEFAULT_T_SCHEDULE,
    initial_state,
    ma_step_1d,
    make_grid,
    obstruction_residual,
    solve_continuity_1d,
)
from torifano.moments import weighted_barycenter
from torifano.stability import Decomposition, soliton_residual

from reference_moments import interval_weighted_mean

PAIR = ((-0.75, 0.25), (-0.25, 0.75))
MIRROR = ((-1.0, 0.25), (-0.25, 1.0))


def barycenter_witness(intervals, vfields):
    """The sum of weighted barycenters of the interval parts, as soliton-check forms it.

    ``ma-solve`` reports this beside the path as ``barycenter_residual``.
    """
    parts = Decomposition(polytope_from_halfspaces([((1.0,), -a), ((-1.0,), b)]) for a, b in intervals)
    return soliton_residual(parts, [(v,) for v in vfields]).total[0]


def fs_exact(xs):
    return 2.0 * np.log(np.cosh(xs / 2.0)) + math.log(4.0)


def bisect(fn, lo, hi, steps=80):
    flo = fn(lo)
    assert flo * fn(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_fubini_study_sup_error():
    result = solve_continuity_1d([(-1.0, 1.0)])
    assert result.status == "Converged"
    err = np.max(np.abs(result.state.f[0] - fs_exact(result.state.xs)))
    assert err < 1e-4
    assert abs(result.state.mass - 1.0) <= 5e-4
    assert abs(result.diagnostics["obstruction_residual"]) < 1e-6


def _swept_state(state):
    """The state one sweep moves to, with the sup change of its potentials."""
    swept = ma_step_1d(state)
    k = len(state.f)
    assert swept.shape == (2 * k, len(state.xs))
    update_norm = float(np.max(np.abs(swept[:k] - state.f)))
    return state.replace(f=swept[:k], slopes=swept[k:], update_norm=update_norm)


def test_exact_solution_is_near_fixed_point():
    state = initial_state([(-1.0, 1.0)], t=1.0)
    exact_f = fs_exact(state.xs)
    exact_slope = np.tanh(state.xs / 2.0)
    state = state.replace(f=exact_f[None, :], slopes=exact_slope[None, :])
    assert _swept_state(state).update_norm < 1e-5


def test_mirror_pair_symmetry():
    result = solve_continuity_1d(MIRROR)
    assert result.status == "Converged"
    f1, f2 = result.state.f
    assert np.max(np.abs(f2 - f1[::-1])) < 1e-6
    assert abs(result.state.mass - 1.0) <= 5e-4
    assert abs(result.diagnostics["obstruction_residual"]) < 1e-6


def test_unbalanced_fields_are_obstructed():
    result = solve_continuity_1d(PAIR, vfields=(2.0, 0.0))
    assert result.status == "Obstructed"
    diag = result.diagnostics
    assert diag["heuristic_detection"] is True
    assert "reason" in diag and diag["t"] <= 1.0
    want = interval_weighted_mean(-0.75, 0.25, 2.0) + 0.25
    witness = barycenter_witness(PAIR, (2.0, 0.0))
    assert witness == pytest.approx(want, abs=1e-13)
    assert witness == pytest.approx(0.156518, abs=1e-6)


def test_balanced_fields_converge():
    a1 = interval_weighted_mean(-0.75, 0.25, 2.0)

    def h(v):
        return interval_weighted_mean(-0.25, 0.75, v) + a1

    v2 = bisect(h, -20.0, 20.0)
    result = solve_continuity_1d(PAIR, vfields=(2.0, v2))
    assert result.status == "Converged"
    assert abs(result.diagnostics["obstruction_residual"]) < 1e-6
    assert abs(barycenter_witness(PAIR, (2.0, v2))) < 1e-12


SMALL_AND_LARGE_FIELDS = [1e-11, -1e-11, 1e-8, -1e-8, 1e-4, -1e-4, 2.0, -2.0, 800.0, -800.0]


def _decimal_mass(a, p, v):
    """integral_a^p e^{vs} ds in 50-digit decimal arithmetic."""
    a, p, v = Decimal(a), Decimal(p), Decimal(v)
    return ((v * p).exp() - (v * a).exp()) / v


@pytest.mark.parametrize("v", SMALL_AND_LARGE_FIELDS)
def test_interval_weighted_mean_matches_decimal_reference(v):
    # ma-solve's witness is the weighted pass on the interval; the
    # closed form the tests bisect with cancels below |v L| ~ 1 and
    # overflows past e^709.  The reference is that closed form, carried to
    # 50 digits.
    a, b = -0.375, 0.625
    with localcontext() as ctx:
        ctx.prec = 50
        da, db, dv = Decimal(a), Decimal(b), Decimal(v)
        ea, eb = (dv * da).exp(), (dv * db).exp()
        want = float(((db - 1 / dv) * eb - (da - 1 / dv) * ea) / (eb - ea))
    interval = polytope_from_halfspaces([((1.0,), -a), ((-1.0,), b)])
    assert weighted_barycenter(interval, (v,))[0] == pytest.approx(want, abs=1e-15)
    assert interval_weighted_mean(a, b, v) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("v", SMALL_AND_LARGE_FIELDS)
def test_transport_slope_inverts_the_mass_fraction(v):
    a, b = -0.375, 0.625
    phis = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    slopes = masolver._transport_slope(phis, a, b, v)
    assert slopes[0] == a and slopes[-1] == b
    with localcontext() as ctx:
        ctx.prec = 50
        total = _decimal_mass(a, b, v)
        for phi, slope in zip(phis[1:-1], slopes[1:-1]):
            assert float(_decimal_mass(a, float(slope), v) / total) == pytest.approx(phi, abs=1e-12)


def test_obstruction_cooccurs_with_nonzero_residual():
    a1 = interval_weighted_mean(-0.75, 0.25, 2.0)
    v2 = bisect(lambda v: interval_weighted_mean(-0.25, 0.75, v) + a1, -20.0, 20.0)
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
            interval_weighted_mean(a, b, v) for (a, b), v in zip(intervals, vfields)
        )
        result = solve_continuity_1d(intervals, vfields=vfields, spacing=0.008)
        assert (result.status == "Obstructed") == (abs(total) > 1e-9), (
            vfields,
            total,
            result.status,
        )
        assert barycenter_witness(intervals, vfields) == pytest.approx(total, abs=1e-12)
        if result.status == "Obstructed":
            assert result.diagnostics["heuristic_detection"] is True


def test_per_step_transport_identity_on_wide_grid():
    # integral of f'' e^{V f'} equals G(f') at the right edge minus the left
    # edge; on a window wide enough that the tail mass is below 1e-8 this
    # must equal the weighted volume to the same accuracy after every sweep.
    def gfun(p, a, v):
        if v == 0.0:
            return p - a
        return (math.exp(v * p) - math.exp(v * a)) / v

    for t in (0.0, 0.5):
        state = initial_state(PAIR, vfields=(0.3, -0.2), R=21.0, spacing=0.02)
        state = state.replace(t=t)
        for _ in range(5):
            state = _swept_state(state)
            for (a, b), v, slope in zip(state.intervals, state.vfields, state.slopes):
                vol = gfun(b, a, v)
                swept = gfun(float(slope[-1]), a, v) - gfun(float(slope[0]), a, v)
                assert abs(swept / vol - 1.0) <= 1e-8


def test_stage_zero_is_a_one_step_fixed_point():
    state = initial_state([(-1.0, 1.0), (-0.5, 0.5)])
    first = _swept_state(state)
    second = _swept_state(first)
    assert second.update_norm == 0.0


def test_sweeps_preserve_convexity_and_slope_range():
    state = initial_state(PAIR, vfields=(0.5, -0.5)).replace(t=0.75)
    zero_idx = len(state.xs) // 2
    for _ in range(30):
        state = _swept_state(state)
        for (a, b), f, slope in zip(state.intervals, state.f, state.slopes):
            assert np.min(np.diff(f, n=2)) >= -1e-10
            assert slope.min() >= a - 1e-12 and slope.max() <= b + 1e-12
        assert abs(state.f[0][zero_idx] - state.f[1][zero_idx]) < 1e-12


def test_tails_add_the_parts_end_slopes_one_after_another():
    # As a numpy sum over the parts does: a compensated sum, such as the
    # built-in sum() of floats from Python 3.12 on, would give w' = 1 here.
    state = initial_state([(-1.0, 1.0)] * 3, t=1.0)
    ends = np.array([1e16, 1.0, -1e16])
    slopes = state.slopes.copy()
    slopes[:, 0], slopes[:, -1] = -ends, ends
    state = state.replace(slopes=slopes)
    assert np.sum(ends) == 0.0
    rho = state.rho
    decay = masolver.MIN_EDGE_DECAY
    assert _bits(state.tails) == _bits((rho[0] / decay, rho[-1] / decay))


def test_the_returned_state_keeps_no_workspace_of_the_path():
    # A sweep of the returned state builds its own scratch rows, so calls on
    # it share nothing.
    result = solve_continuity_1d(PAIR, (0.5, -0.5))
    assert result.state._work is None
    first, second = ma_step_1d(result.state), ma_step_1d(result.state)
    assert first is not second and _bits(first) == _bits(second)


def test_reference_potential_closed_forms():
    # h = log((e^{ax} + e^{bx}) / 2) = (a + b) x / 2 + log cosh((b - a) x / 2).
    xs = np.array([-40.0, -2.0, -0.3, 0.0, 0.7, 5.0, 40.0])
    values, _ = masolver._ref_values_1d(-1.0, 1.0, xs)
    assert values == pytest.approx([math.log(math.cosh(x)) for x in xs], abs=1e-12)
    for a, b in ((-0.75, 0.25), (0.5, 3.0), (-2.0, -1.5)):
        values, _ = masolver._ref_values_1d(a, b, xs)
        want = [(a + b) * x / 2 + math.log(math.cosh((b - a) * x / 2)) for x in xs]
        assert values == pytest.approx(want, rel=1e-14, abs=1e-14)
    # Far out the mean of two exponentials is the larger one over 2.
    far = np.array([-1e4, 1e4])
    values, _ = masolver._ref_values_1d(-0.75, 0.25, far)
    assert values == pytest.approx([7500.0 - math.log(2.0), 2500.0 - math.log(2.0)], rel=1e-15)


def test_reference_gradient_saturates_inside_polytope():
    delta = 1e-5
    xs = np.linspace(-30.0, 30.0, 121)
    for a, b in ((-1.0, 1.0), (-0.75, 0.25), (0.5, 3.0)):
        _, slopes = masolver._ref_values_1d(a, b, xs)
        hi, _ = masolver._ref_values_1d(a, b, xs + delta)
        lo, _ = masolver._ref_values_1d(a, b, xs - delta)
        assert np.max(np.abs(slopes - (hi - lo) / (2 * delta))) < 1e-7
        assert slopes.min() >= a and slopes.max() <= b
        assert np.all(np.diff(slopes) >= 0)
        _, ends = masolver._ref_values_1d(a, b, np.array([-1e3, 0.0, 1e3]))
        assert ends == pytest.approx([a, (a + b) / 2, b], abs=1e-15)


# The discrete Legendre transform, which no command runs: the converged
# potentials of the continuity path are checked through it.


class DomainMismatchError(InputError):
    """Legendre transform requested outside the slope range of the data."""


class DualPotential(Record):
    p: np.ndarray
    u: np.ndarray


def legendre_dual(xs, fvals, p_grid):
    """Discrete Legendre transform u(p) = max_x (p x - f(x)).

    The transform is only meaningful where the slope range of the data
    covers the requested momenta; anything outside raises DomainMismatch.
    """
    xs = np.asarray(xs, dtype=float)
    fvals = np.asarray(fvals, dtype=float)
    p_grid = np.asarray(p_grid, dtype=float)
    slopes = np.diff(fvals) / np.diff(xs)
    tol = max(float(np.max(np.diff(xs))), 1e-9)
    if p_grid.min() < slopes.min() - tol or p_grid.max() > slopes.max() + tol:
        raise DomainMismatchError(
            f"momenta [{p_grid.min()}, {p_grid.max()}] outside slope range "
            f"[{slopes.min()}, {slopes.max()}]"
        )
    u = np.max(p_grid[:, None] * xs[None, :] - fvals[None, :], axis=1)
    return DualPotential(p=p_grid, u=u)


def test_legendre_quadratic_is_self_dual():
    xs = np.arange(-1500, 1501, dtype=float) * 0.002
    f = xs * xs / 2.0
    p = np.arange(-500, 501, dtype=float) * 0.002
    dual = legendre_dual(xs, f, p)
    assert np.max(np.abs(dual.u - p * p / 2.0)) < 1e-6


def test_legendre_log_cosh_frozen_value():
    xs = np.arange(-4000, 4001, dtype=float) * 0.002
    f = np.log(np.cosh(xs))
    dual = legendre_dual(xs, f, np.array([0.5]))
    want = 0.5 * math.atanh(0.5) + 0.5 * math.log(0.75)
    assert dual.u[0] == pytest.approx(want, abs=1e-6)
    assert want == pytest.approx(0.130812, abs=5e-7)


def test_legendre_domain_mismatch():
    xs = np.arange(-1000, 1001, dtype=float) * 0.004
    with pytest.raises(DomainMismatchError):
        legendre_dual(xs, np.log(np.cosh(xs)), np.array([1.5]))


def test_legendre_sup_identity_for_converged_potential():
    result = solve_continuity_1d([(-1.0, 1.0)])
    xs = result.state.xs
    f = result.state.f[0]
    h = result.state.h_ref[0]
    p = np.linspace(-0.999, 0.999, 999)
    u = legendre_dual(xs, f, p).u
    hstar = legendre_dual(xs, h, p).u
    lhs = float(np.max(np.abs(u - hstar)))
    rhs = float(np.max(np.abs(f - h)))
    assert abs(lhs - rhs) <= 2 * result.state.spacing + 1e-6
    assert rhs == pytest.approx(math.log(4.0), abs=1e-4)
    assert legendre_dual(xs, f, np.array([0.0])).u[0] == pytest.approx(
        -math.log(4.0), abs=1e-4
    )


def test_w_diagnostics_reference_and_converged():
    state = initial_state([(-1.0, 1.0)])
    assert state.x_w == 0.0
    assert state.w_min == 0.0
    assert state.growth_eps > 0
    assert state.mass == pytest.approx(math.pi, abs=1e-3)

    # The final diagnostics are the last stage's snapshot without its
    # sweep count, and the grid residual; the barycenter witness is the
    # command line's, 0 on [-1, 1] at V = 0.
    result = solve_continuity_1d([(-1.0, 1.0)])
    diag = result.diagnostics
    last = dict(result.snapshots[-1])
    del last["iterations"]
    assert diag == {**last, "obstruction_residual": diag["obstruction_residual"]}
    assert barycenter_witness([(-1.0, 1.0)], (0.0,)) == 0.0
    assert diag["obstruction_residual"] == obstruction_residual(result.state)
    assert diag["t"] == 1.0 and diag["mass"] == result.state.mass
    assert diag["w_min"] == pytest.approx(math.log(4.0), abs=1e-4)
    assert abs(diag["x_w"]) <= result.state.spacing
    assert diag["growth_eps"] > 0


def test_obstruction_residual_vanishes_by_symmetry():
    state = initial_state([(-1.0, 1.0)], t=1.0)
    assert abs(obstruction_residual(state)) < 1e-12


def test_grid_refinement_is_second_order():
    coarse = solve_continuity_1d([(-1.0, 1.0)], spacing=0.04)
    fine = solve_continuity_1d([(-1.0, 1.0)], spacing=0.02)
    assert coarse.status == fine.status == "Converged"
    diff = np.max(np.abs(coarse.state.f[0] - fine.state.f[0][::2]))
    assert diff <= 4 * 0.04**2


def test_snapshots_follow_schedule():
    result = solve_continuity_1d([(-1.0, 1.0)], include_arrays=True)
    assert len(result.snapshots) == len(DEFAULT_T_SCHEDULE)
    for snap, t in zip(result.snapshots, DEFAULT_T_SCHEDULE):
        assert snap["t"] == t
        assert snap["iterations"] >= 1
        assert len(snap["grid"]) == len(result.state.xs)
        assert len(snap["f"]) == 1 and len(snap["rho"]) == len(snap["grid"])
    lean = solve_continuity_1d([(-1.0, 1.0)])
    assert "grid" not in lean.snapshots[0]


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        make_grid(spacing=0.06)
    with pytest.raises(ConfigurationError):
        make_grid(spacing=0.0)
    with pytest.raises(ConfigurationError):
        make_grid(R=-1.0)
    with pytest.raises(ConfigurationError):
        solve_continuity_1d([(-1.0, 1.0)], t_schedule=(0.0, 0.5))
    with pytest.raises(ConfigurationError):
        solve_continuity_1d([(-1.0, 1.0)], t_schedule=(0.5, 0.25, 1.0))
    for start in (-1.0, -1e300, -math.inf, math.nan):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            solve_continuity_1d([(-1.0, 1.0)], t_schedule=(start, 1.0))
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        solve_continuity_1d([(-1.0, 1.0)], t_schedule=(0.0, 2.0, 1.0))
    with pytest.raises(InputError):
        initial_state([(1.0, -1.0)])
    with pytest.raises(InputError):
        initial_state([(-1.0, 1.0)], vfields=(1.0, 2.0))


def test_grid_node_cap():
    # h = 2^-5 keeps R / h exact: 32767 half-steps fit, 32768 do not.
    assert len(make_grid(R=1023.96875, spacing=2**-5)) == 65535 <= masolver.MAX_GRID_NODES
    with pytest.raises(ConfigurationError, match="nodes per part"):
        make_grid(R=1024.0, spacing=2**-5)
    with pytest.raises(ConfigurationError, match="positive radius"):
        make_grid(R=math.nan)


@pytest.mark.parametrize("R, spacing", [(1024.0, 2**-5), (1e9, 0.001), (math.inf, 0.01), (1e300, 1e-300)])
def test_grid_above_the_cap_allocates_nothing(R, spacing):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            initial_state([(-1.0, 1.0)], R=R, spacing=spacing)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_non_monotone_transport_slope_raises(monkeypatch):
    # A typed error, not an assert, so the check survives python -O.
    state = initial_state(PAIR, t=0.5)
    monkeypatch.setattr(masolver, "_transport_slope", lambda phi, a, b, v: -np.asarray(phi))
    with pytest.raises(ArithmeticError, match="transport slope not monotone"):
        ma_step_1d(state)


def test_density_underflowing_on_the_whole_grid_raises():
    # As after a warm start from a stage at tiny t: e^{-w} is 0 at every node.
    state = initial_state(PAIR, t=1.0)
    state = state.replace(f=state.f + 1e3)
    with pytest.raises(ArithmeticError, match="underflows on the whole grid at t=1.0"):
        ma_step_1d(state)


@pytest.mark.parametrize(
    "intervals, R",
    [
        (((-1e308, 1e308),), 8.0),
        (((-4.0, 1e308),), 8.0),
        (((-1.0, 1.0),) + ((-1e307, 1e307),) * 2, 8.0),
        (((-1e308, 1.0),), 2.0),
    ],
)
def test_reference_potentials_past_the_float_range_raise(intervals, R):
    with pytest.raises(OverflowError, match=r"takes w past the float range on the window R="):
        initial_state(intervals, R=R, spacing=0.05)


def test_reference_potentials_at_the_edge_of_the_float_range_are_built():
    # The slope of this part turns over a width 1.6e308; two such parts
    # would take w to 3.2e308.
    state = initial_state(((-1e307, 1e307),), R=8.0, spacing=0.05)
    assert np.isfinite(state.h_sum).all()


# ---------------------------------------------------------------------------
# the stacked sweep against the per-part sweep it replaced, bit for bit


def _ref_cumtrapz(y, dx):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (dx / 2.0), out=out[1:])
    return out


def _ref_edge_tails(rho, wprime_left, wprime_right):
    decay_l = max(-wprime_left, masolver.MIN_EDGE_DECAY)
    decay_r = max(wprime_right, masolver.MIN_EDGE_DECAY)
    return float(rho[0]) / decay_l, float(rho[-1]) / decay_r


def _ref_diagnose(t, xs, spacing, intervals, vfields, f, slopes, h_ref, h_slopes, update_norm):
    w = t * sum(f) + (1.0 - t) * sum(h_ref)
    rho = np.exp(-w)
    wprime_l = t * sum(s[0] for s in slopes) + (1.0 - t) * sum(s[0] for s in h_slopes)
    wprime_r = t * sum(s[-1] for s in slopes) + (1.0 - t) * sum(s[-1] for s in h_slopes)
    tail_l, tail_r = _ref_edge_tails(rho, wprime_l, wprime_r)
    mass = float(tail_l + np.trapezoid(rho, dx=spacing) + tail_r)
    idx = int(np.argmin(w))
    w_min = float(w[idx])
    x_w = float(xs[idx])
    away = np.abs(xs - x_w) > 0.5 * spacing
    growth = (w[away] - w_min + 0.1) / np.abs(xs[away] - x_w)
    growth_eps = float(growth.min()) if growth.size else 0.0
    return SimpleNamespace(
        t=t, xs=xs, spacing=spacing, intervals=intervals, vfields=vfields,
        f=f, slopes=slopes, h_ref=h_ref, h_slopes=h_slopes, rho=rho, mass=mass,
        w_min=w_min, x_w=x_w, growth_eps=growth_eps, update_norm=update_norm,
    )


def _ref_step(state, relaxation):
    xs, dx, t = state.xs, state.spacing, state.t
    k = len(state.intervals)
    zero_idx = len(xs) // 2
    cum = _ref_cumtrapz(state.rho, dx)
    wprime_l = t * sum(s[0] for s in state.slopes) + (1 - t) * sum(s[0] for s in state.h_slopes)
    wprime_r = t * sum(s[-1] for s in state.slopes) + (1 - t) * sum(s[-1] for s in state.h_slopes)
    tail_l, tail_r = _ref_edge_tails(state.rho, wprime_l, wprime_r)
    total = tail_l + float(cum[-1]) + tail_r
    phi = (tail_l + cum) / total
    cand_slopes, cand_f = [], []
    for (a, b), v in zip(state.intervals, state.vfields):
        slope = masolver._transport_slope(phi, a, b, v)
        ftilde = _ref_cumtrapz(slope, dx)
        ftilde -= ftilde[zero_idx]
        cand_slopes.append(slope)
        cand_f.append(ftilde)
    if t > 0.0:
        w_cand = t * sum(cand_f) + (1.0 - t) * sum(state.h_ref)
        rho_cand = np.exp(-w_cand)
        sl = t * sum(s[0] for s in cand_slopes) + (1 - t) * sum(s[0] for s in state.h_slopes)
        sr = t * sum(s[-1] for s in cand_slopes) + (1 - t) * sum(s[-1] for s in state.h_slopes)
        tl, tr = _ref_edge_tails(rho_cand, sl, sr)
        total_cand = tl + float(np.trapezoid(rho_cand, dx=dx)) + tr
        kappa = math.log(total_cand) / (t * k)
        cand_f = [ft + kappa for ft in cand_f]
    lam = relaxation
    new_f = tuple((1 - lam) * f + lam * c for f, c in zip(state.f, cand_f))
    new_slopes = tuple((1 - lam) * s + lam * c for s, c in zip(state.slopes, cand_slopes))
    update_norm = max(float(np.max(np.abs(nf - f))) for nf, f in zip(new_f, state.f))
    return _ref_diagnose(
        t, xs, dx, state.intervals, state.vfields,
        new_f, new_slopes, state.h_ref, state.h_slopes, update_norm,
    )


def _relaxed_step(state, relaxation):
    """The sweep mixed with the current state, as the Picard loop mixed it."""
    swept = _swept_state(state)
    new_f = (1 - relaxation) * state.f + relaxation * swept.f
    new_slopes = (1 - relaxation) * state.slopes + relaxation * swept.slopes
    return swept.replace(f=new_f, slopes=new_slopes, update_norm=float(np.max(np.abs(new_f - state.f))))


def _assert_same_bits(stacked, ref):
    for name in ("f", "slopes", "rho", "mass", "update_norm", "x_w", "w_min", "growth_eps"):
        want = np.asarray(getattr(ref, name), dtype=float)
        got = np.asarray(getattr(stacked, name), dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


TRIPLE = ((-1.0, 0.5), (-0.5, 0.5), (-0.5, 1.0))
P1_PAIR = ((-0.375, 0.625), (-0.625, 0.375))


@pytest.mark.parametrize("relaxation", [0.5, 1.0])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "intervals, vfields",
    [
        (((-1.0, 1.0),), (0.0,)),  # cancelling
        (((-1.0, 1.0),), (1.5,)),  # obstructed
        (PAIR, (0.0, 0.0)),  # cancelling
        (PAIR, (2.0, 0.0)),  # obstructed
        (TRIPLE, (0.0, 0.0, 0.0)),  # cancelling
        (TRIPLE, (1.0, 1.0, 1.0)),  # obstructed
    ],
)
def test_stacked_sweep_matches_per_part_sweep(intervals, vfields, t, relaxation):
    state = initial_state(intervals, vfields, R=6.0, spacing=0.02).replace(t=t)
    ref = _ref_diagnose(
        state.t, state.xs, state.spacing, state.intervals, state.vfields,
        tuple(state.f), tuple(state.slopes), tuple(state.h_ref), tuple(state.h_slopes),
        state.update_norm,
    )
    _assert_same_bits(state, ref)
    for _ in range(6):
        state = _relaxed_step(state, relaxation)
        ref = _ref_step(ref, relaxation)
        _assert_same_bits(state, ref)


# ---------------------------------------------------------------------------
# the whole path against a loop of per-part sweeps and unfused mixing, bit
# for bit: every stage's snapshot and the final potentials and slopes


class _UnfusedAnderson:
    """The type-II Anderson step with a temporary for every product."""

    def __init__(self, size):
        self.dr = np.empty((masolver.ANDERSON_MEMORY, size))
        self.dmix = np.empty((masolver.ANDERSON_MEMORY, size))
        self.gram = np.empty((masolver.ANDERSON_MEMORY, masolver.ANDERSON_MEMORY))
        self.count, self.last = 0, None

    def step(self, x, r):
        memory, mixing = masolver.ANDERSON_MEMORY, masolver.ANDERSON_MIXING
        m = 0
        if self.last is not None:
            slot = self.count % memory
            dr, dmix = self.dr[slot], self.dmix[slot]
            np.subtract(r, self.last[1], out=dr)
            np.subtract(x, self.last[0], out=dmix)
            dmix += mixing * dr
            self.count += 1
            m = min(self.count, memory)
            row = self.dr[:m] @ dr
            self.gram[slot, :m] = row
            self.gram[:m, slot] = row
        self.last = (x, r)
        new = x + mixing * r
        if m:
            scale = np.sqrt(np.diag(self.gram)[:m])
            scale[scale == 0.0] = 1.0
            gram = self.gram[:m, :m] / np.outer(scale, scale)
            fit = (self.dr[:m] @ r) / scale
            gamma = np.linalg.lstsq(gram, fit, rcond=masolver.GRAM_RCOND)[0] / scale
            new -= gamma @ self.dmix[:m]
        return new


def _ref_snapshot(state, iterations, include_arrays):
    snap = {name: getattr(state, name) for name in ("t", "mass", "update_norm", "w_min", "x_w", "growth_eps")}
    snap["iterations"] = iterations
    if include_arrays:
        snap.update(grid=state.xs.tolist(), f=np.array(state.f).tolist(), rho=state.rho.tolist())
    return snap


def _ref_path(intervals, vfields, R, spacing, tol, include_arrays=False, max_iter=2500):
    """Snapshots and final state of the continuity path, one part at a time."""
    start = initial_state(intervals, vfields, R=R, spacing=spacing)
    k = len(start.intervals)
    state = _ref_diagnose(
        0.0, start.xs, spacing, start.intervals, start.vfields,
        tuple(start.f), tuple(start.slopes), tuple(start.h_ref), tuple(start.h_slopes), math.inf,
    )
    mixer = _UnfusedAnderson(2 * start.f.size)
    snapshots = []
    for t in DEFAULT_T_SCHEDULE:
        state = _ref_diagnose(
            t, state.xs, spacing, state.intervals, state.vfields,
            state.f, state.slopes, state.h_ref, state.h_slopes, state.update_norm,
        )
        mixer.count, mixer.last = 0, None
        x = np.array(state.f + state.slopes)
        history, obstructed = [], False
        for it in range(1, max_iter + 1):
            swept = _ref_step(state, 1.0)
            residual = np.array(swept.f + swept.slopes) - x
            new = mixer.step(x.ravel(), residual.ravel()).reshape(x.shape)
            update_norm = float(np.max(np.abs(new[:k] - x[:k])))
            state = _ref_diagnose(
                t, state.xs, spacing, state.intervals, state.vfields,
                tuple(new[:k]), tuple(new[k:]), state.h_ref, state.h_slopes, update_norm,
            )
            x = new
            history.append(update_norm)
            obstructed = abs(state.x_w) > R / 2.0 or (len(history) > 50 and history[-1] > 0.99 * history[-51])
            if obstructed or update_norm < tol:
                break
        else:
            obstructed = True
        snapshots.append(_ref_snapshot(state, it, include_arrays))
        if obstructed:
            break
    return snapshots, state


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize(
    "intervals, vfields, include_arrays, max_iter, status",
    [
        (P1_PAIR, (1.25, -1.25), False, 2500, "Converged"),
        (P1_PAIR, (0.5, 0.5), False, 2500, "w-minimizer drifted"),
        (P1_PAIR, (0.05, 0.05), False, 2500, "updates stalled"),
        (TRIPLE, (1.0, 0.0, -1.0), False, 2500, "Converged"),
        (((-1.0, 1.0),), (0.0,), True, 2500, "Converged"),
        # Stages t = 0.25 and 0.5 converge on their sixth sweep; t = 0.75
        # needs a seventh.
        (P1_PAIR, (1.25, -1.25), False, 6, "no convergence in 6 sweeps at t=0.75"),
    ],
    ids=["cancelling", "drift", "stall", "three-parts", "arrays", "max-iter"],
)
def test_path_matches_per_part_reference_bit_for_bit(intervals, vfields, include_arrays, max_iter, status):
    R, spacing, tol = 6.0, 0.04, 1e-9
    result = solve_continuity_1d(
        intervals, vfields, R=R, spacing=spacing, tol=tol, max_iter=max_iter, include_arrays=include_arrays
    )
    assert result.status == status or result.diagnostics["reason"].startswith(status)
    snapshots, state = _ref_path(intervals, vfields, R, spacing, tol, include_arrays, max_iter)
    assert [sorted(snap) for snap in result.snapshots] == [sorted(snap) for snap in snapshots]
    for got, want in zip(result.snapshots, snapshots):
        assert {name: _bits(value) for name, value in got.items()} == {
            name: _bits(value) for name, value in want.items()
        }
    assert _bits(result.state.f) == _bits(state.f)
    assert _bits(result.state.slopes) == _bits(state.slopes)


# ---------------------------------------------------------------------------
# the t = 1 endpoint in closed form
#
# At t = 1 every part is carried by one cumulative mass y = Phi(x).  With Q_i
# the quantile of e^{V_i p} dp / Vol_i on [a_i, b_i], f_i' = Q_i(y); and
# rho = e^{-sum f_i} obeys d rho / dy = -sum_i Q_i(y), so rho(y) is minus the
# integral of sum Q_i from 0 to y, and dy/dx = rho(y).  Solutions are unique
# up to translation; the path's translate is pinned where sum f_i' = 0.


def _quantile(y, a, b, v):
    if v == 0.0:
        return a + y * (b - a)
    ea, eb = math.exp(v * a), math.exp(v * b)
    return math.log(ea + y * (eb - ea)) / v


def _quantile_integral(y, a, b, v):
    """The integral of Q from 0 to y; at y = 1 it is the weighted mean."""
    if v == 0.0:
        return a * y + 0.5 * (b - a) * y * y
    ea, eb = math.exp(v * a), math.exp(v * b)
    d = eb - ea
    w = ea + y * d
    return (w * math.log(w) - ea * math.log(ea) - y * d) / (d * v)


def _endpoint_slopes(intervals, vfields, x0, nodes):
    """Q_i(y(x)) at ``nodes``, with y(x0) the mass where sum Q_i vanishes."""

    def rho(y):
        return -sum(_quantile_integral(y, a, b, v) for (a, b), v in zip(intervals, vfields))

    def rk4(y, h):
        k1 = rho(y)
        k2 = rho(y + 0.5 * h * k1)
        k3 = rho(y + 0.5 * h * k2)
        k4 = rho(y + h * k3)
        return y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6

    y_star = bisect(
        lambda y: sum(_quantile(y, a, b, v) for (a, b), v in zip(intervals, vfields)), 0.0, 1.0
    )
    ys = {}
    for side in (nodes[nodes >= x0], nodes[nodes < x0][::-1]):
        x, y = x0, y_star
        for node in side:
            y = rk4(y, node - x)
            x = node
            ys[node] = y
    return np.array([
        [_quantile(ys[node], a, b, v) for node in nodes] for (a, b), v in zip(intervals, vfields)
    ])


def _balancing_field(a1, b1, v1, a2, b2):
    """v2 with the two weighted means cancelling, from the oracle's own forms."""
    m1 = _quantile_integral(1.0, a1, b1, v1)
    return bisect(lambda v: _quantile_integral(1.0, a2, b2, v) + m1, -20.0, 20.0)


@pytest.mark.parametrize(
    "intervals, vfields",
    [
        (((-1.0, 1.0),), (0.0,)),
        (MIRROR, (0.0, 0.0)),
        (PAIR, (2.0, _balancing_field(-0.75, 0.25, 2.0, -0.25, 0.75))),
        (TRIPLE, (1.0, 0.0, -1.0)),
    ],
    ids=["k1-fubini-study", "k2-mirror", "k2-balanced-fields", "k3-cancelling-fields"],
)
def test_converged_slopes_match_closed_form_endpoint(intervals, vfields):
    result = solve_continuity_1d(intervals, vfields=vfields)
    assert result.status == "Converged"
    xs, h = result.state.xs, result.state.spacing
    total = result.state.slopes.sum(axis=0)
    j = int(np.flatnonzero(total >= 0.0)[0])
    x0 = xs[j - 1] - total[j - 1] * h / (total[j] - total[j - 1])
    near = np.abs(xs - x0) < 5.0
    want = _endpoint_slopes(intervals, vfields, x0, xs[near])
    err = float(np.max(np.abs(result.state.slopes[:, near] - want)))
    # The grid's O(h^2) error: at most 2e-6 at the default h = 0.004.
    assert err <= 0.15 * h * h, err


# ---------------------------------------------------------------------------
# Anderson-mixed sweeps against the relaxed Picard loop they replaced


def _picard_mean(a, b, v):
    if abs(v) < 1e-12:
        return 0.5 * (a + b)
    ea, eb = math.exp(v * a), math.exp(v * b)
    return ((b - 1.0 / v) * eb - (a - 1.0 / v) * ea) / (eb - ea)


def _picard_continuity(intervals, vfields, tol, R=8.0, max_iter=2500, relaxation=0.5):
    """Status, final state and barycenter residual of the Picard loop."""
    state = initial_state(intervals, vfields, R=R)
    residual = sum(_picard_mean(a, b, v) for (a, b), v in zip(intervals, vfields))
    for t in DEFAULT_T_SCHEDULE:
        state = state.replace(t=t)
        history = []
        for _ in range(max_iter):
            state = _relaxed_step(state, relaxation)
            history.append(state.update_norm)
            if abs(state.x_w) > R / 2.0:
                return "Obstructed", state, residual
            if state.update_norm < tol:
                break
            if len(history) > 50 and history[-1] > 0.99 * history[-51]:
                return "Obstructed", state, residual
        else:
            return "Obstructed", state, residual
    return "Converged", state, residual



@pytest.mark.parametrize(
    "intervals, vfields",
    [
        (((-1.0, 1.0),), (0.0,)),  # p1-fubini
        (MIRROR, (0.0, 0.0)),
        (P1_PAIR, (0.0, 0.0)),  # cancelling
        (P1_PAIR, (1.25, -1.25)),  # cancelling
        (P1_PAIR, (0.5, 0.5)),  # obstructed
        (P1_PAIR, (-1.0, -1.0)),  # obstructed
    ],
)
def test_anderson_matches_picard_reference(intervals, vfields):
    tol = 1e-10
    status, state, residual = _picard_continuity(intervals, vfields, tol)
    result = solve_continuity_1d(intervals, vfields=vfields, tol=tol)
    assert result.status == status
    assert barycenter_witness(intervals, vfields) == pytest.approx(residual, abs=1e-13)
    if status == "Converged":
        zero_idx = len(state.xs) // 2
        assert np.max(np.abs(result.state.f[:, zero_idx] - state.f[:, zero_idx])) <= 10 * tol
        assert abs(result.state.mass - state.mass) <= 10 * tol


@pytest.mark.parametrize(
    "intervals, vfields, budget",
    [(((-1.0, 1.0),), (0.0,), 60), (P1_PAIR, (0.5, 0.5), 100)],
    ids=["p1-fubini", "obstructed-pair"],
)
def test_anderson_sweep_budget(intervals, vfields, budget):
    # The relaxed Picard loop took 236 and 1,081 sweeps on these.
    result = solve_continuity_1d(intervals, vfields=vfields, tol=1e-10)
    assert sum(snap["iterations"] for snap in result.snapshots) <= budget
