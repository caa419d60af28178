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
First moments are taken about :func:`barycenter`, the cone-sum one, and
second moments about A_P(V) itself, so the covariance is a sum of squares
and loses no digits to cancellation.  This pass is the one weighted route:
Newton, the weighted barycenters of soliton-check and barycenter, and
ma-solve's barycenter witness all read it.  The tests hold
a quadrature route and the closed-form mean of an interval that
cross-check it.
"""

from __future__ import annotations

import itertools
import math

from ._record import Record
from .geometry import _rounded

# Taylor terms beyond the node count; after scaling every node lies within
# 1/2 of the expansion point, so the truncation is below 1e-18 relative.
_TAYLOR_EXTRA = 16


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


def _dd_rows(nodes):
    """Entry k of row r is the divided difference [nodes[r, :k+1]] exp.

    These are row 0 of exp(diag(a) + N), N the unit superdiagonal (Opitz).
    Each row is shifted by its largest node and scaled by 2^-s to a spread
    below 1, a Taylor polynomial gives the exponential, and s squarings
    undo the scaling; the diagonal is reset to exact exponentials after
    each squaring, so rounding errors add up instead of doubling
    (McCurdy, Ng and Parlett, Math. Comp. 1984).
    """
    import numpy as np

    count, k = nodes.shape
    top = nodes.max(axis=1)
    steps = np.maximum(np.frexp(top - nodes.min(axis=1))[1], 0)
    x = np.ldexp(nodes - top[:, None], -steps[:, None])
    mid = x.min(axis=1) / 2
    diag = (slice(None), range(k), range(k))
    a = np.zeros((count, k, k))
    a[diag] = x - mid[:, None]
    a[:, range(k - 1), range(1, k)] = 1.0
    eye = np.eye(k)
    e = eye
    for j in range(k + _TAYLOR_EXTRA, 0, -1):
        e = eye + a @ e / j
    e = e * np.exp(mid)[:, None, None]
    scale = np.ldexp(1.0, np.subtract.outer(range(k), range(k)))  # 2^(i-j)
    for t in range(int(steps.max())):
        sq = e @ e * scale
        sq[diag] = np.exp(np.ldexp(x, t + 1))
        e = np.where((steps > t)[:, None, None], sq, e)
    return e[:, 0, :] * np.exp(top)[:, None]


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

    One batch of divided differences covers every simplex of the polytope's
    mesh: for each vertex pair i <= j the nodes (a, a_i, a_j) give [a],
    [a, a_i] and [a, a_i, a_j] at once.  Nodes are shifted by the largest
    vertex exponent, so all are <= 0; exponents, or a spread of them, past
    the float range raise OverflowError.  First moments are taken about
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
    pairs = list(itertools.combinations_with_replacement(range(k), order))
    rows = np.array([tuple(range(k)) + pair for pair in pairs])
    dd = _dd_rows((expo[:, rows] - shift).reshape(-1, k + order)).reshape(count, len(pairs), k + order)
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
