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
derived from them (w, rho, tails, mass, minimizer) are computed on first use,
by the helpers the sweep calls for its candidate too, so each quantity has
one formula.  Once per path: the sums of the reference potentials and of
their end slopes, carried on the state; the Anderson history; and a
workspace of scratch rows that the path's states carry, left off the state
the path returns.  Once per sweep: (1-t) times those two sums, which the
iterate's w and the candidate's share; w and e^{-w} of the iterate, its
cumulative mass, and the candidate slopes and potentials, written into one
new (2k, N) array laid out like the iterate the Anderson step mixes; the
tails at both grid ends are Python floats.  The workspace helpers
(``_cumtrapz``, ``_mass``, ``_w``, ``_rho``), the sweep's slope differences
and update, and the transport quantiles work in place, as each measurably
shortens a path: a grid row is below numpy's temporary-elision threshold.
An in-place helper applies its formula's operations to the same operands
in the same order as the formula reads, so it rounds as the formula's
temporaries would.

Where 0 lies outside the sum of the intervals, w falls without bound
towards one end of the window.  There e^{-w} can overflow, and its
cumulative sum can overflow where e^{-w} is still finite, so a sweep first
reads e^{-w} and sums it inside one errstate(over="ignore") scope: either
overflow reaches the sweep's check as inf and fails the step with one named
error instead of a numpy warning.

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
    """u in [0, 1] with (e^{zu} - 1) / (e^z - 1) = phi, for z >= 0.

    ``phi`` is an array; each form works in place on its first temporary.
    """
    if z < 1e-8:
        # u = phi + z phi (1 - phi) / 2 + O(z^2); also exact at z = 0.
        u = np.multiply(phi, 0.5 * z)
        u *= 1.0 - phi
        u += phi
        return u
    if z <= 1.0:
        # u = log1p(phi (e^z - 1)) / z
        u = np.multiply(phi, math.expm1(z))
        np.log1p(u, out=u)
        u /= z
        return u
    # u = 1 + log(phi + (1 - phi) e^{-z}) / z, from e^{zu} = e^z (phi +
    # (1 - phi) e^{-z}), forms no overflowing exponential; phi = 0 with
    # e^{-z} below the float range gives u = -inf, clipped to 0.
    u = np.subtract(1.0, phi)
    u *= math.exp(-z)
    u += phi
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u /= z
    u += 1.0
    return u


def _transport_slope(phi, a, b, v):
    """Slope p in [a, b] with the mass fraction phi of e^{vs} ds on [a, p]."""
    length = b - a
    z = v * length
    if z >= 0.0:
        # p = a + (b - a) u(phi, z)
        slope = _fraction_quantile(phi, z)
        slope *= length
        slope += a
    else:
        # p = b - (b - a) u(1 - phi, -z)
        slope = _fraction_quantile(1.0 - phi, -z)
        slope *= length
        np.subtract(b, slope, out=slope)
    return np.clip(slope, a, b, out=slope)


def _cumtrapz(y, dx, out, pairs):
    """Cumulative trapezoid rule along the last axis, starting from 0, into ``out``.

    ``pairs`` takes the summed neighbours, one entry shorter than ``y``.
    """
    out[..., 0] = 0.0
    np.add(y[..., 1:], y[..., :-1], out=pairs)
    pairs *= dx / 2.0
    np.add.accumulate(pairs, axis=-1, out=out[..., 1:])
    return out


def _stage_terms(t, h_sum, h_slope_ends):
    """(1-t) sum h, and (1-t) times both end slopes of sum h."""
    lo, hi = h_slope_ends.tolist()
    return (1.0 - t) * h_sum, ((1.0 - t) * lo, (1.0 - t) * hi)


def _w(t, f, h_part, out):
    """w = t sum f + (1-t) sum h into ``out``; ``h_part`` is (1-t) sum h."""
    if len(f) == 1:
        np.multiply(f[0], t, out=out)
    else:
        np.add(f[0], f[1], out=out)
        for row in f[2:]:
            out += row
        out *= t
    out += h_part
    return out


def _rho(w, out):
    """The density e^{-w} into ``out``."""
    np.negative(w, out=out)
    return np.exp(out, out=out)


def _tails(t, slopes, h_ends, rho):
    """Masses of rho beyond both grid ends, from the end slopes of w.

    ``h_ends`` is (1-t) times the end slopes of sum h; the sums over the
    parts are Python floats.
    """
    decay_l = max(-(t * _ordered_sum(slopes[:, 0].tolist()) + h_ends[0]), MIN_EDGE_DECAY)
    decay_r = max(t * _ordered_sum(slopes[:, -1].tolist()) + h_ends[1], MIN_EDGE_DECAY)
    return float(rho[0]) / decay_l, float(rho[-1]) / decay_r


def _ordered_sum(values):
    """values[0] + values[1] + ..., left to right, as a numpy sum over parts adds.

    Not the built-in sum(), which compensates the rounding of floats from
    Python 3.12 on and so can differ in the last bit.
    """
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _mass(tails, rho, dx, pairs):
    """The tail-corrected trapezoid integral of rho, as numpy.trapezoid sums it."""
    np.add(rho[1:], rho[:-1], out=pairs)
    pairs *= dx
    pairs /= 2.0
    return float(tails[0] + pairs.sum() + tails[1])


class _Workspace:
    """Scratch rows that every sweep of one continuity path overwrites.

    The path builds one and its states carry it: the candidate's w and
    e^{-w}, the cumulative mass (then the mass fraction), the trapezoid
    pairs or slope differences of each part, and the update of the
    potentials.
    """

    def __init__(self, k, n):
        self.w = np.empty(n)
        self.rho = np.empty(n)
        self.cum = np.empty(n)
        self.pairs = np.empty((k, n - 1))
        self.update = np.empty((k, n))


class MAState(Record, hidden=("_work",)):
    """One point on the continuity path.

    ``f``, ``slopes``, ``h_ref`` and ``h_slopes`` are (k, N) arrays, one row
    per part over the grid ``xs``; ``h_sum`` is the sum of the rows of
    ``h_ref`` and ``h_slope_ends`` that of the end columns of ``h_slopes``,
    both formed once by ``initial_state``.  ``_work`` is the workspace the
    states of one path share, None on the state the path returns and on
    one made outside a path.  The grid diagnostics are computed on first
    use: w = sum(t f_i + (1-t) h_i) and rho = e^{-w}; ``tails``, the masses
    of rho beyond both grid ends; ``mass``, the tail-corrected integral of
    rho; ``w_min``/``x_w``, the minimum of w and where it is; and
    ``growth_eps``, the largest linear growth rate w admits away from that
    minimum.
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
    _work: _Workspace = None

    @cached_property
    def _stage(self):
        return _stage_terms(self.t, self.h_sum, self.h_slope_ends)

    @cached_property
    def w(self):
        return _w(self.t, self.f, self._stage[0], np.empty_like(self.h_sum))

    @cached_property
    def rho(self):
        return _rho(self.w, np.empty_like(self.w))

    @cached_property
    def tails(self):
        return _tails(self.t, self.slopes, self._stage[1], self.rho)

    @cached_property
    def mass(self):
        return _mass(self.tails, self.rho, self.spacing, np.empty(len(self.rho) - 1))

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
    work = state._work if state._work is not None else _Workspace(k, n)

    # On a path e^{-w} is first read here: it and its cumulative sum can
    # overflow on an interval far from 0, which the check below names.
    with np.errstate(over="ignore"):
        cum = _cumtrapz(state.rho, dx, work.cum, work.pairs[0])
    tail_l, tail_r = state.tails
    total = tail_l + float(cum[-1]) + tail_r
    if total == math.inf:
        raise ArithmeticError(f"density e^-w overflows on the grid at t={t}")
    # A warm start from a stage at tiny t carries its unit-mass shift, near
    # 1/t, into w: e^{-w} can underflow on the whole grid.
    if not total > 0.0:
        raise ArithmeticError(f"density e^-w underflows on the whole grid at t={t}")
    phi = np.add(cum, tail_l, out=cum)
    phi /= total
    swept = np.empty((2 * k, n))
    cand_f, cand_slopes = swept[:k], swept[k:]
    for row, (a, b), v in zip(cand_slopes, state.intervals, state.vfields):
        row[:] = _transport_slope(phi, a, b, v)
    # G is strictly increasing for finite V, so the inverted slopes must
    # inherit the monotonicity of the cumulative mass.
    steps = np.subtract(cand_slopes[:, 1:], cand_slopes[:, :-1], out=work.pairs)
    if not steps.min() >= -1e-12:
        raise ArithmeticError("transport slope not monotone")
    _cumtrapz(cand_slopes, dx, cand_f, work.pairs)
    for row in cand_f:
        row -= row[n // 2]
    if t > 0.0:
        h_part, h_ends = state._stage
        rho = _rho(_w(t, cand_f, h_part, work.w), work.rho)
        mass = _mass(_tails(t, cand_slopes, h_ends, rho), rho, dx, work.pairs[0])
        cand_f += math.log(mass) / (t * k)
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
    k = len(state.intervals)
    work = _Workspace(k, len(state.xs))
    mixer = _Anderson(2 * state.f.size)
    snapshots = []
    for t in t_schedule:
        # Warm start: the same potentials at the next path parameter.
        state = state.replace(t=t, _work=work)
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
            update = np.subtract(new[:k], x[:k], out=work.update)
            update_norm = float(np.abs(update, out=update).max())
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
    diagnostics["obstruction_residual"] = obstruction_residual(state)
    if obstructed:
        # The exact theory ties obstruction to a nonzero barycenter
        # residual; the detection thresholds above are numerical judgment
        # calls.
        diagnostics.update(reason=obstructed, heuristic_detection=True)
    return ContinuityResult(
        status="Obstructed" if obstructed else "Converged",
        # The workspace stays inside the path: a sweep of the returned state
        # builds its own.
        state=state.replace(_work=None),
        diagnostics=diagnostics,
        snapshots=tuple(snapshots),
    )
