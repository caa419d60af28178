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

Solutions exist along the whole path exactly when the weighted barycenters
cancel; otherwise the minimizer of w = sum(t f_i + (1-t) h_i) drifts or the
updates stall, which is reported as an obstruction rather than an error.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import ConfigurationError, InputError

DEFAULT_T_SCHEDULE = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
MAX_SPACING = 0.05
# Nodes per part; the default grid (R = 8, h = 0.004) has 4,001.
MAX_GRID_NODES = 2**16
# Decay-rate floor for the tail estimate; a flatter density than this at the
# window edge means mass is escaping and shows up in the drift detector.
MIN_EDGE_DECAY = 0.05
# Below this |field x length| the closed-form mean cancels, and its series
# is summed instead: the first omitted term is below 1.3e-16 there.
SERIES_BELOW = 0.25
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


def _mean_fraction(z):
    """Mean of u on [0, 1] under the density e^{zu}, for z >= 0.

    g(z) = 1/(1 - e^{-z}) - 1/z.  Its two terms cancel for small z, so
    there the Bernoulli series 1/2 + z/12 - z^3/720 + ... is summed instead.
    """
    if z < SERIES_BELOW:
        z2 = z * z
        return 0.5 + z * (1 / 12 + z2 * (-1 / 720 + z2 * (1 / 30240 + z2 * (
            -1 / 1209600 + z2 / 47900160))))
    return -1.0 / math.expm1(-z) - 1.0 / z


def interval_weighted_mean(a, b, v):
    """Mean of the interval under the density e^{v s}, in closed form.

    a + L g(vL) with L = b - a, evaluated through g(-z) = 1 - g(z) so that
    no exponential of a large field is ever formed.
    """
    length = b - a
    z = v * length
    if z >= 0.0:
        return a + length * _mean_fraction(z)
    return b - length * _mean_fraction(-z)


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


def _cumtrapz(y, dx):
    """Cumulative trapezoid rule along the last axis, starting from 0."""
    out = np.zeros_like(y)
    np.cumsum((y[..., 1:] + y[..., :-1]) * (dx / 2.0), axis=-1, out=out[..., 1:])
    return out


def _tails(state):
    """Masses of rho beyond both grid ends, from the end slopes of w."""
    t, cols = state.t, [0, -1]
    ends = t * state.slopes[:, cols].sum(axis=0) + (1.0 - t) * state.h_slopes[:, cols].sum(axis=0)
    decay_l = max(-ends[0], MIN_EDGE_DECAY)
    decay_r = max(ends[1], MIN_EDGE_DECAY)
    return float(state.rho[0]) / decay_l, float(state.rho[-1]) / decay_r


class MAState(Record):
    """One point on the continuity path.

    ``f``, ``slopes``, ``h_ref`` and ``h_slopes`` are (k, N) arrays, one row
    per part over the grid ``xs``.  The grid diagnostics are computed on
    first use: w = sum(t f_i + (1-t) h_i) and rho = e^{-w}; ``tails``, the
    masses of rho beyond both grid ends; ``mass``, the tail-corrected
    integral of rho; ``w_min``/``x_w``, the minimum of w and where it is;
    and ``growth_eps``, the largest linear growth rate w admits away from
    that minimum.
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
    update_norm: float

    @cached_property
    def w(self):
        return self.t * self.f.sum(axis=0) + (1.0 - self.t) * self.h_ref.sum(axis=0)

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
    h_ref, h_slopes = map(np.array, zip(*(_ref_values_1d(a, b, xs) for a, b in intervals)))
    return MAState(
        t=float(t), xs=xs, spacing=float(spacing), intervals=intervals, vfields=vfields,
        f=h_ref.copy(), slopes=h_slopes.copy(), h_ref=h_ref, h_slopes=h_slopes,
        update_norm=float("inf"),
    )


def ma_step_1d(state):
    """One transport sweep at fixed t: the map whose fixed point the path solves for.

    Candidate slopes come from inverting the cumulative mass through each
    G_i; candidate potentials are their integrals anchored at x=0, with the
    common constant pinned so the updated density has unit mass (for t>0).
    """
    dx, t = state.spacing, state.t
    zero_idx = len(state.xs) // 2

    cum = _cumtrapz(state.rho, dx)
    tail_l, tail_r = state.tails
    phi = (tail_l + cum) / (tail_l + float(cum[-1]) + tail_r)
    cand_slopes = np.array([
        _transport_slope(phi, a, b, v)
        for (a, b), v in zip(state.intervals, state.vfields)
    ])
    # G is strictly increasing for finite V, so the inverted slopes must
    # inherit the monotonicity of the cumulative mass.
    if not np.all(np.diff(cand_slopes, axis=-1) >= -1e-12):
        raise ArithmeticError("transport slope not monotone")
    cand_f = _cumtrapz(cand_slopes, dx)
    cand_f -= cand_f[:, zero_idx, None]
    if t > 0.0:
        candidate = state.replace(f=cand_f, slopes=cand_slopes)
        cand_f = cand_f + math.log(candidate.mass) / (t * len(cand_f))
    update_norm = float(np.max(np.abs(cand_f - state.f)))
    return state.replace(f=cand_f, slopes=cand_slopes, update_norm=update_norm)


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
        self.restart()

    def restart(self):
        self.count = 0
        self.last = None

    def step(self, x, r):
        """The next iterate from the flat iterate x and its residual r."""
        m = 0
        if self.last is not None:
            slot = self.count % ANDERSON_MEMORY
            dr, dmix = self.dr[slot], self.dmix[slot]
            np.subtract(r, self.last[1], out=dr)
            np.subtract(x, self.last[0], out=dmix)
            dmix += ANDERSON_MIXING * dr
            self.count += 1
            m = min(self.count, ANDERSON_MEMORY)
            row = self.dr[:m] @ dr
            self.gram[slot, :m] = row
            self.gram[:m, slot] = row
        self.last = (x, r)
        new = x + ANDERSON_MIXING * r
        if m:
            # Unit-diagonal scaling, so the rank cut below judges the
            # angles between residual differences, not their sizes.
            scale = np.sqrt(np.diag(self.gram)[:m])
            scale[scale == 0.0] = 1.0
            gram = self.gram[:m, :m] / np.outer(scale, scale)
            fit = (self.dr[:m] @ r) / scale
            gamma = np.linalg.lstsq(gram, fit, rcond=GRAM_RCOND)[0] / scale
            new -= gamma @ self.dmix[:m]
        return new


def obstruction_residual(state):
    """Grid quadrature of (sum f_i') e^{-sum f_i}.

    At an exact solution of the t=1 system this equals the sum of the
    weighted barycenters, which vanishes precisely when the path can close.
    """
    slope_sum = state.slopes.sum(axis=0)
    density = np.exp(-state.f.sum(axis=0))
    return float(np.trapezoid(slope_sum * density, dx=state.spacing))


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
    if any(t1 >= t2 for t1, t2 in zip(t_schedule, t_schedule[1:])):
        raise ConfigurationError("t schedule must increase")

    state = initial_state(intervals, vfields, R=R, spacing=spacing, t=t_schedule[0])
    # Exact obstruction witness, independent of the grid: the path can close
    # only when the weighted interval means cancel.
    residual_exact = sum(
        interval_weighted_mean(a, b, v)
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
            swept = ma_step_1d(state)
            residual = np.concatenate((swept.f, swept.slopes)) - x
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
    diagnostics.update(obstruction_residual=obstruction_residual(state), barycenter_residual=residual_exact)
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
