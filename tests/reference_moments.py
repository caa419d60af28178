"""Test-side reference routes to the exponential moments of a polytope.

The package computes every weighted moment by one divided-difference pass,
:func:`torifano.moments.weighted_moments`.  This module holds the routes the
tests check it against, and no command runs:

- Grundmann-Moller simplex quadrature with adaptive refinement: fixed-degree
  polynomial rules on subdivided simplices, escalating the degree until the
  mass stabilizes.  The divided-difference kernel never feeds into these
  numbers, so the two routes cross-validate each other.
- :func:`divided_difference_exp`, the one-row view of the batched kernel
  ``moments._dd_rows``.
- :func:`moment_report`, which bundles the exact and weighted moments of a
  polytope with the relative disagreement of the two weighted-mass routes.
- :func:`volume_factor` and :func:`mesh_moments`, the unweighted moments of
  a mesh summed simplex by simplex in the scalar type of its coordinates,
  with one Fraction reference determinant per simplex, against which the
  integer volumes of ``SimplexMesh`` and the cone sums of polytopes, exact
  or at the binary value of their floats, are checked.
- :func:`simplex_polytope`, the polytope of a simplex given by its
  vertices, on which the weighted pass runs over that one simplex.
- :func:`interval_weighted_mean`, the closed-form weighted mean of an
  interval, against which ``ma-solve``'s barycenter witness and the
  bisections for cancelling fields are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from torifano.errors import InputError
from torifano import moments
from torifano.geometry import polytope_from_halfspaces
from torifano.linalg import dot

import reference_linalg

# Exponent spread per cell; cells wider than this are bisected before the
# polynomial rule is trusted.  At spread 1 the degree-9 rule is already
# within ~3e-10 relative, so escalation converges before the alternating
# weights' cancellation floor is reached.
SPREAD_MAX = 1.0
_DEGREES = (4, 6, 8, 11, 15, 20)
_MAX_SPLITS = 64
# Below this |field x length| the closed-form mean cancels, and its series
# is summed instead: the first omitted term is below 1.3e-16 there.
SERIES_BELOW = 0.25


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def grundmann_moller_rule(n, s):
    """Weights and barycentric points, exact for degree 2s+1 on the
    standard n-simplex (reference volume 1/n!).

    Weights are assembled in exact arithmetic and converted to float once,
    since the alternating-sign formula is itself cancellation-prone.
    """
    gamma = 2 * s + 1
    weights = []
    lambdas = []
    for i in range(s + 1):
        coef = Fraction((-1) ** i * (gamma + n - 2 * i) ** gamma,
                        4**s * factorial(i) * factorial(gamma + n - i))
        for beta in _compositions(s - i, n + 1):
            weights.append(float(coef))
            lambdas.append([Fraction(2 * b + 1, gamma + n - 2 * i) for b in beta])
    return (
        np.array(weights, dtype=float),
        np.array([[float(x) for x in lam] for lam in lambdas], dtype=float),
    )


def _eval_rule(vmat, scale, vfield, shift, s):
    """(m0, m1, m2) of e^{<V,p>-shift} over one simplex with the degree-s rule."""
    n = vmat.shape[1]
    weights, lambdas = grundmann_moller_rule(n, s)
    pts = lambdas @ vmat
    g = weights * np.exp(pts @ vfield - shift)
    m0 = scale * float(g.sum())
    m1 = scale * (g @ pts)
    m2 = scale * ((pts.T * g) @ pts)
    return m0, m1, m2


def _cell_moments(vmat, scale, vfield, shift, rtol):
    # Escalate the degree until consecutive masses agree to rtol.  The
    # alternating-sign weights grow with s, so past some degree roundoff
    # dominates and the masses drift apart again; once the gap widens well
    # beyond the best one seen, stop and return the tightest pair's result
    # rather than the noisiest high-degree value.
    best = None
    best_gap = None
    prev = None
    for s in _DEGREES:
        cur = _eval_rule(vmat, scale, vfield, shift, s)
        if prev is not None:
            gap = abs(cur[0] - prev[0])
            if best_gap is None or gap < best_gap:
                best_gap = gap
                best = cur
            if gap <= rtol * abs(cur[0]) + 1e-300:
                return cur
            if gap > 100.0 * (best_gap + 1e-300):
                break
        prev = cur
    return best if best is not None else cur


def exp_moments_simplex(vertices, vfield, shift=0.0, rtol=1e-12):
    """Order-0/1/2 moments of e^{<V,p>-shift} over a simplex.

    Returns ``(m0, m1, m2)`` with ``m1`` an n-vector and ``m2`` the raw
    second-moment matrix.  Wide exponent ranges are handled by bisecting
    the edge with the largest exponent difference, then the degree of the
    polynomial rule is raised until the cell mass is stable to ``rtol``.
    """
    vmat0 = np.array([[float(x) for x in v] for v in vertices], dtype=float)
    vfield = np.array([float(x) for x in vfield], dtype=float)
    n = vmat0.shape[1]

    m0_total = 0.0
    m1_total = np.zeros(n)
    m2_total = np.zeros((n, n))
    stack = [(vmat0, 0)]
    while stack:
        vmat, depth = stack.pop()
        nodes = vmat @ vfield - shift
        spread = float(nodes.max() - nodes.min())
        if spread > SPREAD_MAX and depth < _MAX_SPLITS:
            diffs = np.abs(nodes[:, None] - nodes[None, :])
            i, j = np.unravel_index(int(diffs.argmax()), diffs.shape)
            mid = (vmat[i] + vmat[j]) / 2.0
            for replaced in (i, j):
                child = vmat.copy()
                child[replaced] = mid
                stack.append((child, depth + 1))
            continue
        edges = vmat[1:] - vmat[0]
        scale = abs(float(np.linalg.det(edges)))  # = n! * volume
        if scale == 0.0:
            continue
        m0, m1, m2 = _cell_moments(vmat, scale, vfield, shift, rtol)
        m0_total += m0
        m1_total += m1
        m2_total += m2
    return m0_total, m1_total, m2_total


def divided_difference_exp(nodes):
    """[a_0, ..., a_m] exp, stable across clustered and separated nodes."""
    xs = [float(x) for x in nodes]
    if not xs:
        raise InputError("divided difference needs at least one node")
    top = max(xs)
    return math.exp(top) * float(moments._dd_rows(np.array([xs]) - top)[0, -1])


@dataclass(frozen=True)
class MomentReport:
    volume: object
    barycenter: tuple
    vfield: tuple
    weighted_volume: float
    weighted_barycenter: tuple
    covariance: object
    err_estimate: float


def moment_report(polytope, vfield=None):
    """Bundle exact and weighted moments of one polytope.

    ``err_estimate`` is the relative disagreement of the two independent
    weighted-mass routes (divided differences vs quadrature).
    """
    if vfield is None:
        vfield = tuple(0.0 for _ in range(polytope.dim))
    vfield = tuple(float(x) for x in vfield)
    wm = moments.weighted_moments(polytope, vfield)
    quad_mass = sum(exp_moments_simplex(s, vfield, wm.shift)[0] for s in polytope.mesh.simplices)
    return MomentReport(
        volume=moments.volume(polytope),
        barycenter=moments.barycenter(polytope),
        vfield=vfield,
        weighted_volume=wm.mass,
        weighted_barycenter=wm.barycenter,
        covariance=wm.covariance,
        err_estimate=abs(wm.scaled_mass - quad_mass) / wm.scaled_mass,
    )


def volume_factor(simplex):
    """|det| of the edge matrix, i.e. dim! times the simplex volume."""
    edges = [[a - b for a, b in zip(p, simplex[0])] for p in simplex[1:]]
    return abs(reference_linalg.det(edges))


def mesh_moments(simplices, factors=None):
    """``(factors, volume, barycenter)`` of the simplices, one det per simplex.

    Each centroid is divided by ``Fraction(n + 1)``, so a mesh with int
    coordinates stays exact and a float one rounds as ``x / (n + 1)`` does.
    ``factors`` given take the place of the dets, for meshes too large for
    one Fraction elimination per simplex.
    """
    n = len(simplices[0]) - 1 if simplices else 0
    factors = tuple(map(volume_factor, simplices)) if factors is None else tuple(factors)
    total = sum(factors)
    if total == 0:
        raise InputError("zero-volume mesh has no barycenter")
    moment = [0] * n
    for simplex, w in zip(simplices, factors):
        moment = [m + w * (sum(v[i] for v in simplex) / Fraction(n + 1)) for i, m in enumerate(moment)]
    return factors, sum(factors, Fraction(0)) / factorial(n), tuple(m / total for m in moment)


def simplex_polytope(vertices):
    """The exact polytope of the full-dimensional simplex with these vertices.

    Each facet row is the normal, by cofactors in Fractions, of the
    hyperplane through all vertices but one, facing that one.  Float
    coordinates enter by their exact binary value, so the polytope's
    vertices are the given points as Fractions, and its mesh is the one
    simplex.
    """
    points = [tuple(map(Fraction, v)) for v in vertices]
    n = len(points) - 1
    rows = []
    for i, apex in enumerate(points):
        base = points[:i] + points[i + 1 :]
        edges = [[a - b for a, b in zip(p, base[0])] for p in base[1:]]
        normal = [(-1) ** k * reference_linalg.det([e[:k] + e[k + 1 :] for e in edges]) for k in range(n)]
        if dot(normal, apex) < dot(normal, base[0]):
            normal = [-x for x in normal]
        rows.append((tuple(normal), -dot(normal, base[0])))
    return polytope_from_halfspaces(rows)


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
    """Mean of the interval [a, b] under the density e^{v s}, in closed form.

    a + L g(vL) with L = b - a, evaluated through g(-z) = 1 - g(z) so that
    no exponential of a large field is ever formed.
    """
    length = b - a
    z = v * length
    if z >= 0.0:
        return a + length * _mean_fraction(z)
    return b - length * _mean_fraction(-z)
