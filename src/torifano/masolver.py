"""Continuity path for the coupled real Monge-Ampere system on the line.

The stage-t system for convex potentials f_i with slope images P_i = [a_i, b_i]
is

    f_i'' e^{V_i f_i'} / Vol_{V_i}(P_i) = e^{-t sum f - (1-t) sum h},

driven from the reference potentials h_i (vertex log-sum-exp) at t=0 to the
soliton-type equation at t=1.  A sweep replaces the slope of f_i by the
cumulative-mass transport map G_i^{-1}(Vol_i * Phi).  The cumulative
distribution Phi carries an exponential tail estimate beyond both grid ends;
without it the truncation error of the box is O(e^{-R}), which dominates the
discretization error at the default window.  At each t the path iterates the
sweep to its fixed point with type-II Anderson mixing of the last few sweeps,
which converges in a fraction of the sweeps damped Picard iteration needs.

The state holds the k potentials and their slopes as one (k, N) array each,
so a sweep is array arithmetic over all parts at once; the grid diagnostics
derived from them (w, rho, tails, mass, minimizer) are computed on first use.
The sums of the reference potentials and of their end slopes are formed once
per path and carried on the state.  A sweep writes its candidate potentials
and slopes into one (2k, N) array, laid out like the iterate the Anderson
step mixes, and the mixing updates its history in preallocated scratch
arrays.

Solutions exist along the whole path exactly when the weighted barycenters
cancel; otherwise the minimizer of w = sum(t f_i + (1-t) h_i) drifts or the
updates stall, which is reported as an obstruction rather than an error.
The barycenter witness sums the weighted moment pass over each interval,
so it is the number soliton-check reports for the same parts and fields.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import geometry, moments
from ._record import Record
from .errors import ConfigurationError, InputError

DEFAULT_T_SCHEDULE = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
MAX_SPACING = 0.05
# Nodes per part; the default grid (R = 8, h = 0.004) has 4,001.
MAX_GRID_NODES = 2**16
# Decay-rate floor for the tail estimate; a flatter density than this at the
# window edge means mass is escaping and shows up in the drift detector.
MIN_EDGE_DECAY = 0.05
# Past sweeps the Anderson step combines; the history restarts at each t.
ANDERSON_MEMORY = 5
# Weight of the new residual in each Anderson step.
ANDERSON_MIXING = 0.5
# Relative singular-value cut of the scaled Gram matrix of the history.
GRAM_RCOND = 1e-10


def _ref_values_1d(a, b, xs):
    # h(x) = log((e^{ax} + e^{bx})/2), slope a + (b-a)*sigmoid((b-a)x)
    values = np.logaddexp(a * xs, b * xs) - math.log(2.0)
    u = (b - a) * xs
    sig = np.empty_like(xs)
    pos = u >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    sig[~pos] = np.exp(u[~pos]) / (1.0 + np.exp(u[~pos]))
    slopes = a + (b - a) * sig
    return values, slopes


def _fraction_quantile(phi, z):
    """u in [0, 1] with (e^{zu} - 1) / (e^z - 1) = phi, for z >= 0."""
    if z < 1e-8:
        # u = phi + z phi (1 - phi) / 2 + O(z^2); also exact at z = 0.
        return phi + 0.5 * z * phi * (1.0 - phi)
    if z <= 1.0:
        return np.log1p(phi * math.expm1(z)) / z
    # e^{zu} = e^z (phi + (1 - phi) e^{-z}) forms no overflowing exponential;
    # phi = 0 with e^{-z} below the float range gives u = -inf, clipped to 0.
    with np.errstate(divide="ignore"):
        return 1.0 + np.log(phi + (1.0 - phi) * math.exp(-z)) / z


def _transport_slope(phi, a, b, v):
    """Slope p in [a, b] with the mass fraction phi of e^{vs} ds on [a, p]."""
    length = b - a
    z = v * length
    if z >= 0.0:
        slope = a + length * _fraction_quantile(phi, z)
    else:
        slope = b - length * _fraction_quantile(1.0 - phi, -z)
    return np.clip(slope, a, b)


def _cumtrapz(y, dx, out):
    """Cumulative trapezoid rule along the last axis, starting from 0, into ``out``."""
    out[..., 0] = 0.0
    np.cumsum((y[..., 1:] + y[..., :-1]) * (dx / 2.0), axis=-1, out=out[..., 1:])
    return out


def _tails(state):
    """Masses of rho beyond both grid ends, from the end slopes of w."""
    t, cols = state.t, [0, -1]
    ends = t * state.slopes[:, cols].sum(axis=0) + (1.0 - t) * state.h_slope_ends
    decay_l = max(-ends[0], MIN_EDGE_DECAY)
    decay_r = max(ends[1], MIN_EDGE_DECAY)
    return float(state.rho[0]) / decay_l, float(state.rho[-1]) / decay_r


class MAState(Record):
    """One point on the continuity path.

    ``f``, ``slopes``, ``h_ref`` and ``h_slopes`` are (k, N) arrays, one row
    per part over the grid ``xs``; ``h_sum`` is the sum of the rows of
    ``h_ref`` and ``h_slope_ends`` that of the end columns of ``h_slopes``,
    both formed once by ``initial_state``.  The grid diagnostics are
    computed on first use: w = sum(t f_i + (1-t) h_i) and rho = e^{-w};
    ``tails``, the masses of rho beyond both grid ends; ``mass``, the
    tail-corrected integral of rho; ``w_min``/``x_w``, the minimum of w and
    where it is; and ``growth_eps``, the largest linear growth rate w admits
    away from that minimum.
    """

    t: float
    xs: np.ndarray
    spacing: float
    intervals: tuple
    vfields: tuple
    f: np.ndarray
    slopes: np.ndarray
    h_ref: np.ndarray
    h_slopes: np.ndarray
    h_sum: np.ndarray
    h_slope_ends: np.ndarray
    update_norm: float

    @cached_property
    def w(self):
        return self.t * self.f.sum(axis=0) + (1.0 - self.t) * self.h_sum

    @cached_property
    def rho(self):
        return np.exp(-self.w)

    tails = cached_property(_tails)

    @cached_property
    def mass(self):
        tail_l, tail_r = self.tails
        return float(tail_l + np.trapezoid(self.rho, dx=self.spacing) + tail_r)

    @cached_property
    def w_min(self):
        return float(np.min(self.w))

    @cached_property
    def x_w(self):
        return float(self.xs[np.argmin(self.w)])

    @cached_property
    def growth_eps(self):
        xs, x_w = self.xs, self.x_w
        away = np.abs(xs - x_w) > 0.5 * self.spacing
        growth = (self.w[away] - self.w_min + 0.1) / np.abs(xs[away] - x_w)
        return float(growth.min()) if growth.size else 0.0


def make_grid(R=8.0, spacing=0.004):
    """Nodes -R..R at ``spacing``, checked before anything is allocated."""
    if spacing > MAX_SPACING:
        raise ConfigurationError(f"grid spacing {spacing} is above {MAX_SPACING}")
    if not (spacing > 0 and R > 0):
        raise ConfigurationError("grid needs positive radius and spacing")
    # 2 * round(R / h) + 1 <= MAX_GRID_NODES exactly when this holds.
    if not R / spacing < (MAX_GRID_NODES - 1) / 2:
        raise ConfigurationError(
            f"grid R={R}, h={spacing} has more than {MAX_GRID_NODES} nodes per part")
    half = int(round(R / spacing))
    if half < 4:
        raise ConfigurationError("grid radius is below four spacings")
    # Symmetric integer grid: x=0 is always a node, so the normalization
    # f_i(0) is well defined.
    return np.arange(-half, half + 1, dtype=float) * spacing


def initial_state(intervals, vfields=None, R=8.0, spacing=0.004, t=0.0):
    intervals = tuple((float(a), float(b)) for a, b in intervals)
    for a, b in intervals:
        if not a < b:
            raise InputError(f"interval [{a}, {b}] has empty interior")
    if vfields is None:
        vfields = tuple(0.0 for _ in intervals)
    vfields = tuple(float(v) for v in vfields)
    if len(vfields) != len(intervals):
        raise InputError("need one field value per interval")
    xs = make_grid(R, spacing)
    # w sums the reference potentials, each up to max(|a|, |b|) R on the
    # window, and a potential's slope turns over a width (b - a) R.
    reach = 0.0
    for a, b in intervals:
        reach += max(abs(a), abs(b), b - a) * R
        if not math.isfinite(reach):
            raise OverflowError(f"interval [{a}, {b}] takes w past the float range on the window R={R}")
    h_ref, h_slopes = map(np.array, zip(*(_ref_values_1d(a, b, xs) for a, b in intervals)))
    return MAState(
        t=float(t), xs=xs, spacing=float(spacing), intervals=intervals, vfields=vfields,
        f=h_ref.copy(), slopes=h_slopes.copy(), h_ref=h_ref, h_slopes=h_slopes,
        h_sum=h_ref.sum(axis=0), h_slope_ends=h_slopes[:, [0, -1]].sum(axis=0),
        update_norm=float("inf"),
    )


def ma_step_1d(state):
    """One transport sweep at fixed t: the map whose fixed point the path solves for.

    Candidate slopes come from inverting the cumulative mass through each
    G_i; candidate potentials are their integrals anchored at x=0, with the
    common constant pinned so the updated density has unit mass (for t>0).
    Returns a new (2k, N) array: the k candidate potentials, then the k
    candidate slopes.
    """
    dx, t = state.spacing, state.t
    k, n = state.f.shape

    # Where 0 lies outside the sum of the intervals, w falls without bound
    # towards one end of the window, and e^{-w} or its mass can leave the
    # float range there: that fails the step, with no numpy warning first.
    with np.errstate(over="ignore"):
        cum = _cumtrapz(state.rho, dx, np.empty(n))
    tail_l, tail_r = state.tails
    total = tail_l + float(cum[-1]) + tail_r
    if total == math.inf:
        raise ArithmeticError(f"density e^-w overflows on the grid at t={t}")
    # A warm start from a stage at tiny t carries its unit-mass shift, near
    # 1/t, into w: e^{-w} can underflow on the whole grid.
    if not total > 0.0:
        raise ArithmeticError(f"density e^-w underflows on the whole grid at t={t}")
    phi = (tail_l + cum) / total
    swept = np.empty((2 * k, n))
    cand_f, cand_slopes = swept[:k], swept[k:]
    for row, (a, b), v in zip(cand_slopes, state.intervals, state.vfields):
        row[:] = _transport_slope(phi, a, b, v)
    # G is strictly increasing for finite V, so the inverted slopes must
    # inherit the monotonicity of the cumulative mass.
    if not (cand_slopes[:, 1:] - cand_slopes[:, :-1] >= -1e-12).all():
        raise ArithmeticError("transport slope not monotone")
    _cumtrapz(cand_slopes, dx, cand_f)
    cand_f -= cand_f[:, n // 2, None]
    if t > 0.0:
        candidate = state.replace(f=cand_f, slopes=cand_slopes)
        cand_f += math.log(candidate.mass) / (t * k)
    return swept


class _Anderson:
    """Type-II Anderson mixing of the sweep (Anderson 1965; Walker-Ni 2011).

    For the iterate x and its residual r = g(x) - x, the next iterate is
    x + beta r - (dX + beta dR) gamma, with beta = ANDERSON_MIXING, gamma
    the least-squares fit of r by the last ANDERSON_MEMORY residual
    differences dR and dX the matching iterate differences.  dR and
    dX + beta dR live in preallocated ring buffers, and the Gram matrix of
    dR gains one row per step, so a step costs one small least-squares
    solve and a few passes over the iterate.  Without history the step is
    x + beta r, the damped sweep.
    """

    def __init__(self, size):
        self.dr = np.empty((ANDERSON_MEMORY, size))
        self.dmix = np.empty((ANDERSON_MEMORY, size))
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.scratch = np.empty(size)
        self.restart()

    def restart(self):
        self.count = 0
        self.last = None

    def step(self, x, r):
        """The next iterate from the flat iterate x and its residual r.

        The next iterate is a fresh array: the history keeps x and r by
        reference.
        """
        m, scratch = 0, self.scratch
        if self.last is not None:
            slot = self.count % ANDERSON_MEMORY
            dr, dmix = self.dr[slot], self.dmix[slot]
            np.subtract(r, self.last[1], out=dr)
            np.subtract(x, self.last[0], out=dmix)
            dmix += np.multiply(dr, ANDERSON_MIXING, out=scratch)
            self.count += 1
            m = min(self.count, ANDERSON_MEMORY)
            row = self.dr[:m] @ dr
            self.gram[slot, :m] = row
            self.gram[:m, slot] = row
        self.last = (x, r)
        new = np.multiply(r, ANDERSON_MIXING)
        new += x
        if m:
            # Unit-diagonal scaling, so the rank cut below judges the
            # angles between residual differences, not their sizes.
            scale = np.sqrt(self.gram.diagonal()[:m])
            scale[scale == 0.0] = 1.0
            gram = self.gram[:m, :m] / (scale[:, None] * scale)
            fit = (self.dr[:m] @ r) / scale
            gamma = np.linalg.lstsq(gram, fit, rcond=GRAM_RCOND)[0] / scale
            new -= np.matmul(gamma, self.dmix[:m], out=scratch)
        return new


def obstruction_residual(state):
    """Grid quadrature of (sum f_i') e^{-sum f_i}.

    At an exact solution of the t=1 system this equals the sum of the
    weighted barycenters, which vanishes precisely when the path can close.
    """
    slope_sum = state.slopes.sum(axis=0)
    # Like e^{-w} in a sweep, e^{-sum f_i} can leave the float range on an
    # interval far from 0.
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.exp(-state.f.sum(axis=0))
        residual = float(np.trapezoid(slope_sum * density, dx=state.spacing))
    if not math.isfinite(residual):
        raise ArithmeticError("obstruction residual leaves the float range")
    return residual


class ContinuityResult(Record):
    status: str  # "Converged" | "Obstructed"
    state: MAState
    diagnostics: dict
    snapshots: tuple


def _snapshot(state, iterations, include_arrays):
    snap = {
        "t": state.t,
        "iterations": iterations,
        "mass": state.mass,
        "update_norm": state.update_norm,
        "w_min": state.w_min,
        "x_w": state.x_w,
        "growth_eps": state.growth_eps,
    }
    if include_arrays:
        snap["grid"] = state.xs.tolist()
        snap["f"] = state.f.tolist()
        snap["rho"] = state.rho.tolist()
    return snap


def solve_continuity_1d(
    intervals,
    vfields=None,
    t_schedule=DEFAULT_T_SCHEDULE,
    R=8.0,
    spacing=0.004,
    tol=1e-9,
    max_iter=2500,
    include_arrays=False,
):
    """Sweep the continuity path, warm-starting every stage.

    At each t the sweep is iterated with Anderson mixing (memory
    ANDERSON_MEMORY, mixing ANDERSON_MIXING), restarted at every stage.
    Returns Converged with the final t=1 state, or Obstructed as soon as
    the w-minimizer drifts past R/2 or the updates stall above ``tol``
    (less than one percent progress across a 50-sweep window).  Both are
    computed outcomes, not errors.
    """
    t_schedule = tuple(float(t) for t in t_schedule)
    if not t_schedule or t_schedule[-1] != 1.0:
        raise ConfigurationError("t schedule must end at t = 1")
    if not all(0.0 <= t <= 1.0 for t in t_schedule):
        raise ConfigurationError("t schedule must lie in [0, 1]")
    if any(t1 >= t2 for t1, t2 in zip(t_schedule, t_schedule[1:])):
        raise ConfigurationError("t schedule must increase")

    state = initial_state(intervals, vfields, R=R, spacing=spacing, t=t_schedule[0])
    # Obstruction witness, independent of the grid: the path can close only
    # when the weighted barycenters cancel.
    witness = sum(
        moments.weighted_barycenter(geometry.polytope_from_halfspaces([((1.0,), -a), ((-1.0,), b)]), (v,))[0]
        for (a, b), v in zip(state.intervals, state.vfields)
    )
    k = len(state.intervals)
    mixer = _Anderson(2 * state.f.size)
    snapshots = []
    for t in t_schedule:
        # Warm start: the same potentials at the next path parameter.
        state = state.replace(t=t)
        mixer.restart()
        x = np.concatenate((state.f, state.slopes))
        history = []
        obstructed = None
        for it in range(1, max_iter + 1):
            residual = ma_step_1d(state)
            residual -= x
            # Near t = 0 the unit-mass shift log(mass) / (t k) can push the
            # residual products past the float range: that is a numerical
            # failure, not inf or nan handed to the least-squares fit.
            with np.errstate(over="raise", invalid="raise"):
                new = mixer.step(x.ravel(), residual.ravel()).reshape(x.shape)
            update_norm = float(np.max(np.abs(new[:k] - x[:k])))
            state = state.replace(f=new[:k], slopes=new[k:], update_norm=update_norm)
            x = new
            history.append(state.update_norm)
            if abs(state.x_w) > R / 2.0:
                obstructed = f"w-minimizer drifted to {state.x_w:.3f}"
                break
            if state.update_norm < tol:
                break
            if len(history) > 50 and history[-1] > 0.99 * history[-51]:
                obstructed = (
                    f"updates stalled near {state.update_norm:.3e} at t={t}"
                )
                break
        else:
            it = max_iter
            obstructed = f"no convergence in {max_iter} sweeps at t={t}"
        snapshots.append(_snapshot(state, it, include_arrays))
        if obstructed:
            break
    diagnostics = _snapshot(state, it, False)
    del diagnostics["iterations"]
    diagnostics.update(obstruction_residual=obstruction_residual(state), barycenter_residual=witness)
    if obstructed:
        # The exact theory ties obstruction to a nonzero barycenter
        # residual; the detection thresholds above are numerical judgment
        # calls.
        diagnostics.update(reason=obstructed, heuristic_detection=True)
    return ContinuityResult(
        status="Obstructed" if obstructed else "Converged",
        state=state,
        diagnostics=diagnostics,
        snapshots=tuple(snapshots),
    )
