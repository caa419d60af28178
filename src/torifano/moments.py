"""Exact moments by vertex-cone sums, and exponentially weighted moments of polytopes.

:func:`volume` and :func:`barycenter` are the unweighted entry points.
Both read ``Polytope.cone_sums``, the Lawrence-Brion sums over its
vertices' tangent cones with no triangulation of the polytope, computed
once per polytope: exact on rational data, and on float data exact for
the binary value of its floats, then rounded once.  The weighted
functionals Vol_V(P) = integral of e^{<V,p>}, its normalized first moment
A_P(V) and the covariance all come from one numpy pass over the simplices
of ``Polytope.mesh``, an exact mesh rounded once to floats:
:func:`weighted_moments`, the weighted entry point; its result carries
the mass, the log mass, A_P(V) and the covariance.  On a simplex with
vertex exponents a_i = <V, v_i> the integral of e^{<V,p>} is dim! vol [a]
exp, the divided difference of exp over the a_i; its derivatives
[a, a_i] and [a, a_i, a_j] (doubled when i = j) give the first and second
moments (Baldoni, Berline, De Loera, Koppe and Vergne, Math. Comp. 2011).
All are row 0 of one matrix exponential per row of nodes, whose columns
the rows of a simplex share: :func:`_dd_simplices` runs each distinct
column once, and squares full matrices a block of simplices at a time, so
the pass's memory is bounded whatever the mesh.  First moments are taken
about :func:`barycenter`, the cone-sum one, and second moments about
A_P(V) itself, so the covariance is a sum of squares and loses no digits
to cancellation.  This pass is the one weighted route:
Newton, the weighted barycenters of soliton-check and barycenter, and
ma-solve's barycenter witness all read it.  The tests hold
a quadrature route and the closed-form mean of an interval that
cross-check it.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._record import Record
from .geometry import _rounded

# Taylor terms beyond the node count; after scaling every node lies within
# 1/2 of the expansion point, so the truncation is below 1e-18 relative.
_TAYLOR_EXTRA = 16
# Rows of full matrices squared at once: the simplices of a block hold about
# this many, which bounds the memory of the pass.
_BLOCK_ROWS = 2048


def volume(polytope):
    """Total volume by vertex-cone sums: exact, or rounded once on a float polytope."""
    vol = polytope.cone_sums[0]
    return _rounded(vol, "volume") if polytope.tol else vol


def barycenter(polytope):
    """Volume-weighted centroid by vertex-cone sums: exact, or rounded once on a float polytope."""
    b = polytope.cone_sums[1]
    return tuple(_rounded(x, "barycenter") for x in b) if polytope.tol else b


# ---------------------------------------------------------------------------
# divided differences of exp


@functools.lru_cache(maxsize=None)
def _dd_tables(k, order):
    """Index tables of the pass over k vertex nodes and ``order`` repeats, built once.

    Row p of a simplex holds its k nodes followed by those of ``pairs[p]``,
    the p-th index tuple i <= j; ``rows[p]`` are those node indices.  Its
    column c depends only on the first c + 1 nodes, so the rows share their
    columns below k, and column k with every row of the same i: ``cols[p,
    c]`` numbers the distinct columns, ``diag[r, col]`` is the node on row r
    of column col (0 below its last row), and ``eye`` holds the 1 of the
    identity on that last row.
    """
    import numpy as np

    pairs = list(itertools.combinations_with_replacement(range(k), order))
    rows = [tuple(range(k)) + pair for pair in pairs]
    distinct = {}
    cols = [[distinct.setdefault(row[: c + 1], len(distinct)) for c in range(k + order)] for row in rows]
    diag = np.zeros((k + order, len(distinct)), dtype=int)
    eye = np.zeros(diag.shape + (1,))
    for prefix, col in distinct.items():
        diag[: len(prefix), col] = prefix
        eye[len(prefix) - 1, col] = 1.0
    return pairs, np.array(rows), np.array(cols), diag, eye


def _dd_simplices(nodes, order):
    """Entry c of row p of simplex s is the divided difference of exp over
    the first c + 1 nodes of that row, ``nodes[s]`` then those of the p-th
    pair of :func:`_dd_tables`.

    These are row 0 of exp(diag(a) + N), N the unit superdiagonal (Opitz).
    A simplex's nodes are shifted by their largest and scaled by 2^-s to a
    spread below 1, a Taylor polynomial gives the exponential, and s
    squarings undo the scaling; the diagonal is reset to exact exponentials
    after each squaring, so rounding errors add up instead of doubling
    (McCurdy, Ng and Parlett, Math. Comp. 1984).  The matrix is bidiagonal,
    so each Horner step on a column is d_r e_r + e_{r+1} row by row, run
    once per distinct column with the simplices on the last axis; only the
    rows of simplices that square are assembled into full matrices, a block
    of simplices at a time.  The result is C-contiguous, (simplices, pairs,
    k + order): the sums over simplices of :func:`weighted_moments` read it
    in that layout, whose strides fix their order of summation.
    """
    import numpy as np

    count, k = nodes.shape
    m = k + order
    pairs, rows, cols, diag, eye = _dd_tables(k, order)
    dd = np.empty((count, len(pairs), m))
    block = max(1, _BLOCK_ROWS // len(pairs))
    full = (slice(None), range(m), range(m))
    scale = np.ldexp(1.0, np.subtract.outer(range(m), range(m)))  # 2^(i-j)
    for start in range(0, count, block):
        a = nodes[start : start + block]
        top = a.max(axis=1)
        steps = np.maximum(np.frexp(top - a.min(axis=1))[1], 0)
        x = np.ldexp(a - top[:, None], -steps[:, None])
        mid = x.min(axis=1) / 2
        d = (x - mid[:, None]).T[diag]
        e, nxt = np.empty_like(d), np.empty_like(d)
        e[...] = eye
        for j in range(m + _TAYLOR_EXTRA, 0, -1):
            np.multiply(d, e, out=nxt)
            nxt[:-1] += e[1:]
            nxt /= j
            nxt += eye
            e, nxt = nxt, e
        e *= np.exp(mid)
        out = dd[start : start + block]
        out[...] = (e[0][cols] * np.exp(top)).transpose(2, 0, 1)
        squared = np.flatnonzero(steps)
        if squared.size:
            # f[s, p, r, c] is row r, column c of pair p's matrix on simplex s.
            f = np.ascontiguousarray(e[:, :, squared][:, cols].transpose(3, 1, 0, 2)).reshape(-1, m, m)
            xs = x[squared][:, rows].reshape(-1, m)
            rep = np.repeat(steps[squared], len(pairs))
            for t in range(int(rep.max())):
                sq = f @ f * scale
                sq[full] = np.exp(np.ldexp(xs, t + 1))
                f = np.where((rep > t)[:, None, None], sq, f)
            out[squared] = (f[:, 0, :] * np.repeat(np.exp(top[squared]), len(pairs))[:, None]).reshape(-1, len(pairs), m)
    return dd


# ---------------------------------------------------------------------------
# the weighted moment pass


class WeightedMoments(Record):
    """Moments of the measure e^{<V,p>} dp on a polytope.

    The mass Vol_V(P) is e^shift * scaled_mass, with shift the largest
    vertex exponent; ``log_mass`` stays finite where the mass would overflow
    a float.  ``barycenter`` is A_P(V) and ``covariance`` both the Jacobian
    dA_P/dV and the Hessian of log Vol_V(P), each None when the pass stopped
    at a lower order.
    """

    shift: float
    scaled_mass: float
    barycenter: tuple = None
    covariance: object = None

    @property
    def mass(self):
        return math.exp(self.shift) * self.scaled_mass

    @property
    def log_mass(self):
        return self.shift + math.log(self.scaled_mass)


def weighted_moments(polytope, vfield, order=2):
    """Mass, and up to ``order`` 2 the barycenter and covariance, of e^{<V,p>}.

    One pass of divided differences, :func:`_dd_simplices`, covers every
    simplex of the polytope's mesh: for each vertex pair i <= j the nodes
    (a, a_i, a_j) give [a], [a, a_i] and [a, a_i, a_j] at once.  The sums
    over simplices run over the whole mesh at once, in one order.  Nodes
    are shifted by the largest vertex exponent, so all are <= 0; exponents,
    or a spread of them, past the float range raise OverflowError.  First moments are taken about
    :func:`barycenter` and second moments about A_P(V), so the covariance
    needs no subtraction of the squared mean.
    """
    import numpy as np

    points, weights = map(np.array, polytope.mesh.floats)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = points @ np.array([float(x) for x in vfield])
    # The spread, a Python float, bounds every shifted node below; past the
    # float range it is inf, with no warning before the one failure.
    if not (np.isfinite(expo).all() and math.isfinite(float(expo.max()) - float(expo.min()))):
        raise OverflowError("vertex exponents outside the float range")
    shift = float(expo.max())
    count, k = expo.shape
    pairs = _dd_tables(k, order)[0]
    dd = _dd_simplices(expo - shift, order)
    # The weights and the mass are taken over the power of two of the
    # largest weight, which is exact, so that a weight times an offset
    # (squared) overflows only where the moment would.
    power = math.frexp(weights.max())[1]
    weights = np.ldexp(weights, -power)
    total = float(weights @ dd[:, 0, k - 1])
    # The mass is positive: a sum of 0 is one that underflowed.
    if total <= 0:
        raise ArithmeticError("weighted mass underflows")
    if not (math.isfinite(total) and math.frexp(total)[1] + power <= 1024):
        raise OverflowError("weighted mass overflows")
    mass = math.ldexp(total, power)
    if order == 0:
        return WeightedMoments(shift, mass)
    centre = np.array([float(x) for x in barycenter(polytope)])
    # Each coordinate's offsets are taken over the power of two of its
    # largest value, which is exact, so that an offset across a polytope
    # wider than the float range stays finite; a moment that overflows when
    # scaled back reaches the finiteness checks with no numpy warning before.
    scale = np.frexp(np.abs(points).max(axis=(0, 1)))[1]
    with np.errstate(over="ignore"):
        y = np.ldexp(points, -scale) - np.ldexp(centre, -scale)
        first = dd[:, [pairs.index((i,) * order) for i in range(k)], k]
        offset = np.einsum("s,si,sia->a", weights, first, y) / total
        bary = tuple(float(x) for x in centre + np.ldexp(offset, scale))
        if not np.isfinite(bary).all():
            raise OverflowError("weighted barycenter overflows")
        if order == 1:
            return WeightedMoments(shift, mass, bary)
        i, j = np.array(pairs).T
        hess = np.zeros((count, k, k))
        hess[:, i, j] = hess[:, j, i] = dd[:, :, k + 1] * np.where(i == j, 2.0, 1.0)
        y = y - offset
        cov = np.ldexp(np.einsum("s,sij,sia,sjb->ab", weights, hess, y, y) / total, scale[:, None] + scale)
        if not np.isfinite(cov).all():
            raise OverflowError("weighted covariance overflows")
        return WeightedMoments(shift, mass, bary, (cov + cov.T) / 2.0)


def weighted_barycenter(polytope, vfield):
    """A_P(V): the e^{<V,p>}-weighted barycenter."""
    return weighted_moments(polytope, vfield, order=1).barycenter
