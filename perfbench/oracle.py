"""Independent reference computations for checking torifano's reports.

Nothing here imports torifano.  Exact quantities use closed forms that the
program does not use: the shoelace formula for polygons, factorisation over
products of polytopes, known volumes and barycenters of simplices, boxes and
cross-polytopes, and the GL(n, Z) transformation rule.  Weighted moments use
closed forms on intervals and tensor Gauss-Legendre rules on the vertical
slabs of a polygon, a route that shares nothing with the program's
divided-difference kernel or its Grundmann-Moller simplex rules.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# small exact linear algebra


def mat_vec(mat, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in mat)


def transpose(mat):
    return tuple(zip(*mat))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(n)) for r in range(n))


def unimodular_pair(rng, n):
    """A seeded unimodular U with its inverse, both integer.

    U = P B Q with P, Q seeded signed permutations and B the fixed shear
    x_i += x_{i+1}, so every seed gives entries of the same sizes; the
    inverse of B has entries (-1)^(j-i) above the diagonal.
    """
    b = tuple(tuple(int(c in (r, r + 1)) for c in range(n)) for r in range(n))
    b_inv = tuple(tuple((-1) ** (c - r) if c >= r else 0 for c in range(n)) for r in range(n))
    p, q = signed_permutation(rng, n), signed_permutation(rng, n)
    u = mat_mul(mat_mul(p, b), q)
    u_inv = mat_mul(mat_mul(transpose(q), b_inv), transpose(p))
    if mat_mul(u, u_inv) != identity(n):
        raise ArithmeticError("unimodular map and its inverse disagree")
    return u, u_inv


# ---------------------------------------------------------------------------
# exact polygons from fan support numbers


def polygon_vertices(rays, support):
    """Vertices, in boundary order, of {x : <d_j, x> >= -c_j} for a complete
    two-dimensional fan whose consecutive rays (by angle) span its cones."""
    order = sorted(range(len(rays)), key=lambda j: math.atan2(rays[j][1], rays[j][0]))
    verts = []
    for a, b in zip(order, order[1:] + order[:1]):
        (p, q), (r, s) = rays[a], rays[b]
        ca, cb = -Fraction(support[a]), -Fraction(support[b])
        det = p * s - q * r
        verts.append(((ca * s - q * cb) / det, (p * cb - ca * r) / det))
    return verts, order


def polygon_is_ample(rays, support):
    """Every vertex lies strictly inside the halfspaces of the other rays."""
    verts, order = polygon_vertices(rays, support)
    n = len(order)
    for k, v in enumerate(verts):
        on = {order[k], order[(k + 1) % n]}
        for j, d in enumerate(rays):
            if j not in on and d[0] * v[0] + d[1] * v[1] + Fraction(support[j]) <= 0:
                return False
    return True


def shoelace(verts):
    """(area, centroid) of a polygon from its boundary-ordered vertices."""
    twice = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        cross = x0 * y1 - x1 * y0
        twice += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    area = twice / 2
    return abs(area), (cx / (6 * area), cy / (6 * area))


# ---------------------------------------------------------------------------
# product polytopes: each factor is a polygon or an interval


class Factor:
    """One factor of a product polytope: exact and weighted moments."""

    def __init__(self, vertices, volume, barycenter, interval=None):
        self.vertices = [tuple(v) for v in vertices]
        self.volume = volume
        self.barycenter = tuple(barycenter)
        self.interval = interval
        self.dim = len(self.barycenter)

    @classmethod
    def polygon(cls, rays, support):
        verts, _ = polygon_vertices(rays, support)
        area, cen = shoelace(verts)
        return cls(verts, area, cen)

    @classmethod
    def segment(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        return cls([(lo,), (hi,)], hi - lo, ((lo + hi) / 2,), interval=(lo, hi))

    def weighted(self, vfield):
        """(log mass, weighted barycenter) under e^{<V, p>}."""
        if self.interval is not None:
            lo, hi = (float(x) for x in self.interval)
            return interval_log_mass(lo, hi, vfield[0]), (interval_mean(lo, hi, vfield[0]),)
        return polygon_weighted([tuple(float(x) for x in v) for v in self.vertices], vfield)


def product_vertices(factors):
    out = [()]
    for f in factors:
        out = [v + w for v in out for w in f.vertices]
    return out


def product_volume(factors):
    vol = Fraction(1)
    for f in factors:
        vol *= f.volume
    return vol


def product_barycenter(factors):
    return tuple(x for f in factors for x in f.barycenter)


def product_weighted_barycenter(factors, vfield):
    out = []
    pos = 0
    for f in factors:
        out.extend(f.weighted(vfield[pos : pos + f.dim])[1])
        pos += f.dim
    return tuple(out)


# ---------------------------------------------------------------------------
# weighted moments


def interval_mean(a, b, v):
    """Mean of [a, b] under the density e^{v s}, stable for every v."""
    length = b - a
    z = v * length
    if abs(z) < 1e-4:
        g = 0.5 + z / 12.0 - z**3 / 720.0
    else:
        g = 1.0 / (-math.expm1(-z)) - 1.0 / z
    return a + length * g


def interval_log_mass(a, b, v):
    """log of the integral of e^{v s} over [a, b]."""
    length = b - a
    z = v * length
    if abs(z) < 1e-8:
        return v * a + math.log(length)
    if z > 0:
        # e^{vb} (1 - e^{-z}) / v
        return v * b + math.log(-math.expm1(-z) / v)
    return v * a + math.log(math.expm1(z) / v)


def gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-16:
                break
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        nodes.append((1.0 - x) / 2.0)
        weights.append(1.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


_GL = gauss_legendre(16)
# Largest exponent variation across one cell; at 8 the 16-point rule is
# exact to rounding for e^z.
_CELL_SPREAD = 8.0


def _slabs(verts):
    """Vertical trapezoids (x0, x1, lo0, lo1, hi0, hi1) covering a convex polygon."""
    xs = sorted({v[0] for v in verts})
    edges = list(zip(verts, verts[1:] + verts[:1]))
    out = []
    for x0, x1 in zip(xs, xs[1:]):
        ends = []
        for (ax, ay), (bx, by) in edges:
            if min(ax, bx) <= x0 and max(ax, bx) >= x1 and ax != bx:
                t0 = (x0 - ax) / (bx - ax)
                t1 = (x1 - ax) / (bx - ax)
                ends.append((ay + t0 * (by - ay), ay + t1 * (by - ay)))
        ends.sort(key=lambda e: e[0] + e[1])
        out.append((x0, x1, ends[0][0], ends[0][1], ends[-1][0], ends[-1][1]))
    return out


def polygon_moments(verts, vfield):
    """(mass, mx, my, shift) of e^{<V,p> - shift} over a convex polygon.

    Each vertical slab is mapped to the unit square and integrated with a
    tensor Gauss-Legendre rule, split into cells so that the exponent varies
    by at most _CELL_SPREAD across each.
    """
    a, b = float(vfield[0]), float(vfield[1])
    shift = max(a * x + b * y for x, y in verts)
    nodes, weights = _GL
    mass = mx = my = 0.0
    for x0, x1, lo0, lo1, hi0, hi1 in _slabs(verts):
        width = x1 - x0
        height = max(hi0 - lo0, hi1 - lo1)
        var_t = abs(b) * height
        var_s = abs(a) * width + abs(b) * max(abs(lo1 - lo0), abs(hi1 - hi0))
        ns = max(1, math.ceil(var_s / _CELL_SPREAD))
        nt = max(1, math.ceil(var_t / _CELL_SPREAD))
        for cs in range(ns):
            for xs_node, ws in zip(nodes, weights):
                s = (cs + xs_node) / ns
                x = x0 + s * width
                lo = lo0 + s * (lo1 - lo0)
                hi = hi0 + s * (hi1 - hi0)
                jac = width * (hi - lo) * ws / (ns * nt)
                for ct in range(nt):
                    for xt_node, wt in zip(nodes, weights):
                        y = lo + (ct + xt_node) / nt * (hi - lo)
                        w = jac * wt * math.exp(a * x + b * y - shift)
                        mass += w
                        mx += w * x
                        my += w * y
    return mass, mx, my, shift


def polygon_weighted(verts, vfield):
    mass, mx, my, shift = polygon_moments(verts, vfield)
    return shift + math.log(mass), (mx / mass, my / mass)


# ---------------------------------------------------------------------------
# the pE-4fold bundle polytope, by its fibration over the last coordinate
#
# In >= form the rows are -d . x >= -offset for the leq rows d below; the
# part with parameter c is {x4 in [-1/12, 1/12], (x1, x2) in T(1/2 + 2 x4),
# x3 in [3 x4 - c, c - 3 x4]}, T(r) the triangle x1 <= r, x2 <= r,
# x1 + x2 >= -r with area 9 r^2 / 2 and centroid 0.

PE_LEQ_NORMALS = (
    (-1, -1, 0, -2),
    (1, 0, 0, -2),
    (0, 1, 0, -2),
    (0, 0, -1, 3),
    (0, 0, 1, 3),
    (0, 0, 0, 6),
    (0, 0, 0, -6),
)


def pe_offsets(c):
    half = Fraction(1, 2)
    return tuple(c if j in (3, 4) else half for j in range(len(PE_LEQ_NORMALS)))


def pe_critical_c():
    return 0.5 + math.sqrt(5.0 / 7.0) / 4.0


def _poly_integral(coeffs, lo, hi):
    """Integral of sum coeffs[k] s^k over [lo, hi]; exact on Fractions."""
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


def pe_moments(c):
    """(volume, barycenter) of the bundle part with parameter c."""
    one = Fraction(1) if isinstance(c, Fraction) else 1.0
    lo, hi = -one / 12, one / 12
    # area(s) * length(s) = (9/2)(1/2 + 2s)^2 (2c - 6s), a cubic in s
    r0, r1 = one / 2, 2 * one
    l0, l1 = 2 * c, -6 * one
    sq = (r0 * r0, 2 * r0 * r1, r1 * r1)
    dens = [0 * one] * 4
    for i, a in enumerate(sq):
        dens[i] += a * l0 * 9 / 2
        dens[i + 1] += a * l1 * 9 / 2
    vol = _poly_integral(dens, lo, hi)
    first = _poly_integral([0 * one] + dens, lo, hi)
    zero = 0 * one
    return vol, (zero, zero, zero, first / vol)


def pe_weighted_barycenter(c, vfield):
    """A_P(V) of the bundle part, by Gauss-Legendre over the fibre coordinate."""
    c = float(c)
    v1, v2, v3, v4 = (float(x) for x in vfield)
    nodes, weights = _GL
    lo, hi = -1.0 / 12.0, 1.0 / 12.0
    logs = []
    for node in nodes:
        s = lo + (hi - lo) * node
        r = 0.5 + 2.0 * s
        tri = [(r, r), (r, -2.0 * r), (-2.0 * r, r)]
        tmass, tx, ty, tshift = polygon_moments(tri, (v1, v2))
        a3, b3 = 3.0 * s - c, c - 3.0 * s
        logs.append((tshift + math.log(tmass) + interval_log_mass(a3, b3, v3) + v4 * s,
                     tx / tmass, ty / tmass, interval_mean(a3, b3, v3), s))
    top = max(entry[0] for entry in logs)
    mass = 0.0
    moment = [0.0, 0.0, 0.0, 0.0]
    for w, (lg, x1, x2, x3, s) in zip(weights, logs):
        m = w * math.exp(lg - top)
        mass += m
        for i, x in enumerate((x1, x2, x3, s)):
            moment[i] += m * x
    return tuple(x / mass for x in moment)


# ---------------------------------------------------------------------------
# raw halfspace polytopes with known vertices, volume and barycenter


class KnownPolytope:
    """Rows <d, x> >= -c with known vertex count, volume and barycenter."""

    def __init__(self, rows, nvertices, volume, barycenter):
        self.rows = [(tuple(d), Fraction(c)) for d, c in rows]
        self.nvertices = nvertices
        self.volume = Fraction(volume)
        self.barycenter = tuple(Fraction(x) for x in barycenter)
        self.dim = len(self.barycenter)

    @classmethod
    def simplex(cls, n, a):
        rows = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
        rows.append((tuple(-1 for _ in range(n)), a))
        return cls(rows, n + 1, Fraction(a) ** n / math.factorial(n),
                   [Fraction(a, n + 1)] * n)

    @classmethod
    def box(cls, lows, highs):
        n = len(lows)
        rows = []
        for i in range(n):
            e = tuple(int(i == j) for j in range(n))
            rows.append((e, -lows[i]))
            rows.append((tuple(-x for x in e), highs[i]))
        vol = Fraction(1)
        for lo, hi in zip(lows, highs):
            vol *= Fraction(hi) - Fraction(lo)
        return cls(rows, 2**n, vol, [(Fraction(lo) + Fraction(hi)) / 2 for lo, hi in zip(lows, highs)])

    @classmethod
    def cross(cls, n, r):
        rows = []
        for k in range(2**n):
            signs = tuple(1 if (k >> i) & 1 else -1 for i in range(n))
            rows.append((signs, r))
        return cls(rows, 2 * n, Fraction(2 * r) ** n / math.factorial(n), [0] * n)

    def times(self, other):
        pad_a = (0,) * other.dim
        pad_b = (0,) * self.dim
        rows = [(d + pad_a, c) for d, c in self.rows] + [(pad_b + d, c) for d, c in other.rows]
        return KnownPolytope(rows, self.nvertices * other.nvertices,
                             self.volume * other.volume, self.barycenter + other.barycenter)


def affine_image(rows, u, u_inv, shift):
    """Rows of {U x + t : x in P} from the rows of P.

    <d, x> >= -c with x = U^{-1}(y - t) becomes <U^{-T} d, y> >= -c + <U^{-T} d, t>.
    """
    u_inv_t = transpose(u_inv)
    out = []
    for d, c in rows:
        dn = mat_vec(u_inv_t, d)
        out.append((dn, Fraction(c) - sum(a * b for a, b in zip(dn, shift))))
    return out


def affine_point(u, point, shift):
    return tuple(a + b for a, b in zip(mat_vec(u, point), shift))
