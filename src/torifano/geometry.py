"""Fans, support vectors, polytopes, their tangent cones, and triangulation.

Every polytope is exact: its vertices are ints and Fractions, a float in
its data entering by its exact binary value, so vertex positions, volumes
and barycenters are those of rational data.  Float data, for the few
workflows that need irrational parameters, takes the same code paths,
and a small absolute tolerance decides only what a report shows:
tightness and the nef test, ampleness, vertex merging and redundancy.
:func:`tolerance` makes that choice once per polytope, from its own
data, and the polytope carries it.  A float polytope's exact values are
rounded to floats once each, by :func:`_rounded`.

A fan knows each maximal cone's ray matrix inverse, ``Fan.cone_columns``,
as integer columns over one scale, found by wall crossing
(:func:`linalg.exchange`) from one seed cone per connected part of its
dual graph.  Each polytope's derived data is read off one incidence
record per vertex, an int bitmask of the halfspaces tight there: the fan
route reads it off a cone's integer slack row, the one place where a
tolerance decides tightness, and double description off a ray's exact
zero set.  ``Polytope.cones`` are the vertices' tangent cones and
``Polytope.cone_sums`` the exact volume and barycenter summed over them
(Lawrence-Brion), the one exact volume route; the triangulation
``Polytope.mesh`` serves only the weighted pass.  Double description, the
cone data and meshes run in integers, so nothing needs numpy.

Conventions: a ray is a primitive integer column vector; a support vector
``c`` over a fan with rays ``d_j`` cuts out ``P = {x : <d_j, x> >= -c_j}``.
Raw halfspace input uses the same lower-bound form.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, gcd, lcm, prod
from operator import and_

from . import linalg
from ._record import Record
from .linalg import _primitive, dot
from .errors import EmptyPolytopeError, InputError, UnboundedPolytopeError

DEFAULT_FLOAT_TOL = 1e-9

# The raw route's regime: at this cap, a 6-cube cut by 20 integer rows has
# several hundred vertices, which double description finds in under a second.
MAX_RAW_DIM = 6
MAX_RAW_HALFSPACES = 32


def _coerce(x):
    """Floats and Fractions as they are, everything else (bool too) as a Fraction."""
    return x if isinstance(x, (float, Fraction)) else Fraction(x)


def _vec(xs):
    return tuple(_coerce(x) for x in xs)


def _exact(xs):
    """Floats in ``xs`` as Fractions of their exact binary value, ints and Fractions as they are."""
    return [Fraction(x) if isinstance(x, float) else x for x in xs]


def _over_lcm(xs):
    """``(scale, ints)``: rationals ``xs`` as ints over the lcm of their denominators."""
    scale = lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


# The least magnitude that rounds to an infinite float, half an ulp above the largest.
_FLOAT_EDGE = 2**1024 - 2**970


def _rounded(x, what, d=1):
    """The float nearest ``x / d``, an int over an int d > 0, or an int or Fraction x alone.

    Int true division rounds correctly, as ``float`` of a Fraction does; a
    result past the float range raises OverflowError naming ``what``.
    """
    try:
        return x / d if d > 1 else float(x)
    except OverflowError:
        raise OverflowError(f"float {what} overflows") from None


def tolerance(scalars):
    """0 when every scalar is an int or Fraction, DEFAULT_FLOAT_TOL otherwise.

    This is the one place where the type of the data decides between exact
    and float comparison.  A polytope carries the value as ``tol`` and every
    comparison made on it, or on anything derived from it, reads that.
    """
    return 0 if all(isinstance(x, (Fraction, int)) for x in scalars) else DEFAULT_FLOAT_TOL


# ---------------------------------------------------------------------------
# fans


class Fan(Record):
    """A simplicial fan given by primitive rays and maximal cones.

    ``max_cones`` lists index tuples into ``rays``; each maximal cone of a
    smooth complete fan has exactly ``dim`` rays.
    """

    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        if not rays:
            raise InputError("fan needs at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise InputError("rays must share one dimension")
        cones = tuple(tuple(sorted(int(i) for i in cone)) for cone in self.max_cones)
        for cone in cones:
            if len(cone) != n:
                raise InputError(f"maximal cone {cone} must have {n} rays")
            if any(i < 0 or i >= len(rays) for i in cone):
                raise InputError(f"cone index out of range in {cone}")
            if len(set(cone)) != n:
                raise InputError(f"repeated ray in cone {cone}")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)

    @property
    def dim(self):
        return len(self.rays[0])

    @property
    def nrays(self):
        return len(self.rays)

    @cached_property
    def walls(self):
        """Each wall, dim - 1 rays of a maximal cone, mapped to the indices of the maximal cones that hold it."""
        walls = {}
        for ci, cone in enumerate(self.max_cones):
            for k in range(self.dim):
                walls.setdefault(cone[:k] + cone[k + 1 :], []).append(ci)
        return walls

    @cached_property
    def cone_columns(self):
        """Each maximal cone's ray matrix inverse as ``(columns, scale, det)``, or None when singular.

        This is the inverse that :func:`linalg.integer_inverse` gives: column
        k is the integer column X_k of ray ``cone[k]`` over the least
        positive scale s, which is 1 exactly when the cone is smooth, and det
        is |det| of the ray matrix.  Cones are neighbours when they share a
        wall.  One seed cone per connected part of this dual graph is
        eliminated, and every other cone sigma' = sigma - a + b is reached
        across a wall and takes its inverse from sigma's by the rank-one step
        :func:`linalg.exchange`, with <d_b, X_a> / s the coefficient of d_a in
        d_b: on a smooth complete fan, -1 in the wall relation (Cox, Little
        and Schenck, Toric Varieties, section 6.1).  A singular cone is None,
        and nothing is reached through it: a cone reached only through
        singular ones is a seed of its own.
        """
        cones = self.max_cones
        found, reached = [None] * len(cones), set()
        for seed in range(len(cones)):
            if seed in reached:
                continue
            reached.add(seed)
            found[seed] = linalg.integer_inverse([self.rays[j] for j in cones[seed]])[1]
            queue = [seed] if found[seed] else []
            for ci in queue:
                cone = cones[ci]
                for k in range(len(cone)):
                    for cj in self.walls[cone[:k] + cone[k + 1 :]]:
                        if cj not in reached:
                            reached.add(cj)
                            found[cj] = self._cross(found[ci], cone, k, cones[cj])
                            if found[cj]:
                                queue.append(cj)
        return tuple(found)

    def _cross(self, inverse, cone, k, other):
        """The inverse of ``other``, which has every ray of ``cone`` but ``cone[k]``, from ``cone``'s."""
        b = next((j for j in other if j not in cone), None)
        if b is None:  # the same cone listed twice
            return inverse
        step = linalg.exchange(inverse, k, self.rays[b])
        if step is None:
            return None
        # Column k now belongs to b, and moves to b's place in the sorted cone.
        columns = step[0][:k] + step[0][k + 1 :]
        columns.insert(other.index(b), step[0][k])
        return columns, *step[1:]


class FanReport(Record):
    smooth: bool
    complete: bool
    fano: bool
    witnesses: tuple = ()

    @property
    def ok(self):
        return self.smooth and self.complete and self.fano


def validate_fan(fan):
    """Check primitivity, smoothness, completeness and the Fano condition.

    Duplicate or non-primitive rays are hard input errors; the three named
    properties come back as booleans with witnesses for any failure.
    """
    for i, ray in enumerate(fan.rays):
        if gcd(*(abs(x) for x in ray)) != 1:
            raise InputError(f"ray {i} not primitive: {ray}")
    seen = {}
    for i, ray in enumerate(fan.rays):
        if ray in seen:
            raise InputError(f"ray {i} duplicates ray {seen[ray]}")
        seen[ray] = i

    witnesses = []
    smooth = True
    for cone, inverse in zip(fan.max_cones, fan.cone_columns):
        # An integer matrix has det +-1 exactly when its inverse is integral.
        if inverse is None or inverse[1] != 1:
            smooth = False
            det = linalg.integer_det([fan.rays[i] for i in cone])
            witnesses.append(("smooth", {"cone": cone, "det": str(det)}))

    # A complete simplicial fan is characterized by every wall (codimension-1
    # cone) lying in exactly two maximal cones.
    complete = bool(fan.max_cones)
    if not complete:
        witnesses.append(("complete", {"max_cones": 0}))
    for wall, cones in sorted(fan.walls.items()):
        if len(cones) != 2:
            complete = False
            witnesses.append(("complete", {"wall": wall, "incidence": len(cones)}))

    fano = False
    if smooth and complete:
        ones = tuple(Fraction(1) for _ in fan.rays)
        amp = ampleness_class(fan, ones)
        fano = amp.kind is Ampleness.AMPLE
        if not fano:
            witnesses.append(("fano", {"ampleness": amp.kind.value, "witness": amp.witness}))
    return FanReport(smooth=smooth, complete=complete, fano=fano, witnesses=tuple(witnesses))


class Ampleness(enum.Enum):
    AMPLE = "Ample"
    NEF_ONLY = "NefOnly"
    NOT_CONVEX = "NotConvex"


class AmplenessReport(Record):
    kind: Ampleness
    witness: tuple = None  # (cone index, ray index) where convexity fails/ties


def _cone_vertices(fan, c, tol):
    """The vertex of each maximal cone, its tight-set mask, and the class of ``c``.

    A cone's vertex v is where its rays' halfspaces are tight, v = -D^-1 c over
    the cone, and its slack row holds <d_j, v> + c_j for every ray j, the
    cone's own included.  ``c`` is scaled by the lcm u of its denominators to
    integers C, floats by their exact binary value; a cone whose inverse is
    R / s, R the rows of its ``Fan.cone_columns``, then has the integer
    vertex -R C and slack row <d_j, -R C> + s C_j over s u, so every sign
    is read off ints and only the vertices become Fractions, at the end.
    The tolerance p / q compares in ints too: the row holds q times the
    slacks, each within tol where at most p s u in magnitude.  A ray
    outside the cone with slack below -tol breaks convexity, and the
    vertices and masks found up to there come back; a slack within tol is
    the nef boundary.  The cone's mask has bit j set where ray j's slack is
    within tol of 0, the one place where a tolerance decides tightness.  A
    float support's vertex that rounds past the float range is an input
    error, since its polytope is rounded.
    """
    unit, ints = _over_lcm(_exact(c))
    p, q = tol.as_integer_ratio()
    found, nef_witness, amp = [], None, None
    for ci, (cone, inverse) in enumerate(zip(fan.max_cones, fan.cone_columns)):
        if inverse is None:
            raise InputError(f"cone {cone} is not simplicial of full rank")
        columns, scale, _ = inverse
        offsets = [ints[j] for j in cone]
        v = [-dot(row, offsets) for row in zip(*columns)]
        row = [q * (dot(ray, v) + scale * cj) for ray, cj in zip(fan.rays, ints)]
        scale *= unit
        if tol and any(abs(x) >= _FLOAT_EDGE * scale for x in v):
            raise InputError(f"the vertex of cone {list(cone)} overflows the float range")
        bound = p * scale
        found.append((v, sum(1 << j for j, x in enumerate(row) if abs(x) <= bound), scale))
        witness = next((j for j, slack in enumerate(row) if j not in cone and slack < -bound), None)
        if witness is not None:
            amp = AmplenessReport(Ampleness.NOT_CONVEX, (ci, witness))
            break
        if nef_witness is None:
            nef_witness = next(((ci, j) for j, slack in enumerate(row) if j not in cone and slack <= bound), None)
    if amp is None:
        amp = AmplenessReport(Ampleness.AMPLE if nef_witness is None else Ampleness.NEF_ONLY, nef_witness)
    vertices = [tuple(Fraction(x, d) for x in v) for v, _, d in found]
    return vertices, [mask for _, mask, _ in found], amp


def _support(fan, c):
    c = _vec(c)
    if len(c) != fan.nrays:
        raise InputError("support vector length must match ray count")
    return c


def ampleness_class(fan, c):
    """Classify a support vector as Ample, NefOnly, or NotConvex.

    For each maximal cone the candidate vertex is solved, exactly on
    rational input; strictness of all non-defining halfspaces at every
    candidate is ampleness, an equality somewhere (without violation) is the
    nef boundary.  Float supports compare within their tolerance.
    """
    c = _support(fan, c)
    return _cone_vertices(fan, c, tolerance(c))[2]


# ---------------------------------------------------------------------------
# polytopes


class Polytope(Record, hidden=("inverses", "binary")):
    """Bounded intersection of halfspaces with enumerated vertices.

    ``halfspaces[j]`` is a ``(normal, offset)`` pair for
    ``<normal, x> >= -offset``; ``tight_sets[j]`` lists the vertex indices on
    its boundary and ``redundant[j]`` flags halfspaces whose tight set spans
    less than a facet.  Vertices are exact.  ``tol`` is the
    :func:`tolerance` of the halfspace data, 0 when it is exact: tight sets,
    vertex merging and every verdict on the polytope compare within it, and
    ``tol == 0`` is what "exact" means downstream.  ``degenerate`` marks
    empty or lower-dimensional intersections, which carry no mesh and no
    cones; ``mesh`` is the :func:`triangulate` mesh of any other polytope,
    ``cones`` its vertices' tangent cones, ``cone_volume`` its exact volume
    alone, for a reader that needs no barycenter, and ``cone_sums`` its
    exact volume and barycenter, each by its own cone-sum pass and kept once
    computed, and ``binary``'s mesh and cone sums where that is set: the
    polytope of the same exact vertices with tol 0, where the tolerance
    merged or tightened some.  ``inverses`` maps a tuple of integer rows to
    the ``(columns, scale, det)`` inverse of their matrix that
    :func:`linalg.integer_inverse` gives, where the route that built the
    polytope has it already.
    """

    dim: int
    halfspaces: tuple
    vertices: tuple
    tight_sets: tuple
    redundant: tuple
    tol: float
    degenerate: bool = False
    inverses: dict = None
    binary: object = None

    @property
    def nvertices(self):
        return len(self.vertices)

    @cached_property
    def mesh(self):
        """The :func:`triangulate` mesh, ``binary``'s where it is set, computed on first use."""
        return self.binary.mesh if self.binary else triangulate(self)

    @cached_property
    def cones(self):
        """Each vertex's tangent cone as simplicial ``(weight, generators)`` pieces.

        The pieces of vertex v cover {v + y : <d_j, y> >= 0 for the facet
        rows d_j tight at v}, which is the cone of P - v, and meet only on
        their boundaries; redundant rows add nothing to it.  Generators are
        primitive integer vectors and the weight is the |det| of their
        matrix.  A vertex on exactly dim distinct facet normals has one
        piece, :func:`_simple_piece` of their inverse, taken from
        ``inverses`` or from :func:`linalg.integer_inverse`; any other
        vertex's cone is split by :func:`_pulling` over its
        :func:`_extreme_rays`, whose facets are the rows' zero sets, and
        each piece's weight is an :func:`linalg.integer_det`.  Float
        normals enter by their exact binary value.
        """
        if self.degenerate:
            raise InputError("tangent cones need a full-dimensional polytope")
        return tuple(_split_cone(rows, self.inverses or {}) for rows in self.vertex_rows)

    @cached_property
    def vertex_rows(self):
        """Each vertex's facet rows: the :func:`_row` of every non-redundant halfspace tight there, in order."""
        tight = [{} for _ in self.vertices]
        for (d, _), members, redundant in zip(self.halfspaces, self.tight_sets, self.redundant):
            if not redundant:
                row = _row(d)
                for i in members:
                    tight[i][row] = None
        return tuple(map(tuple, tight))

    @cached_property
    def cone_volume(self):
        """Vol(P), exact, by one :func:`_cone_sums` pass, ``binary``'s where it is set.

        Only for a polytope whose barycenter nothing reads (the lifted one):
        ``cone_sums`` makes a pass of its own.
        """
        return self.binary.cone_volume if self.binary else _cone_sums(self)[0]

    @cached_property
    def cone_sums(self):
        """``(Vol(P), b(P))``, exact: one :func:`_cone_sums` pass, then :func:`_first_moments`."""
        if self.binary:
            return self.binary.cone_sums
        volume, groups = _cone_sums(self)
        return volume, _first_moments(self.dim, volume, groups)


def _row(normal):
    """A halfspace normal as a primitive integer row, floats by their exact binary value."""
    return _primitive(_over_lcm(_exact(normal))[1])


def _piece(generators):
    generators = tuple(_primitive(w) for w in generators)
    return abs(linalg.integer_det(generators)), generators


def _simple_piece(columns, scale, absdet):
    """The one piece of the cone where n integer rows B are >= 0, from B^-1 = X / scale.

    Its generators are the columns X_k over g_k, the gcd of each, and its
    weight |det| (X / g) = scale^n / (|det B| prod g_k), with no elimination.
    """
    divisors = [gcd(*column) for column in columns]
    generators = tuple(column if g == 1 else tuple(x // g for x in column) for column, g in zip(columns, divisors))
    return scale ** len(columns) // (absdet * prod(divisors)), generators


def _split_cone(rows, inverses):
    """The cone where every integer row is >= 0, as simplicial pieces."""
    size = len(rows[0])
    if len(rows) == size:
        return (_simple_piece(*(inverses.get(rows) or linalg.integer_inverse(rows)[1])),)
    rays = _extreme_rays(rows)
    facets = [frozenset(i for i, (_, zeros) in enumerate(rays) if zeros >> j & 1) for j in range(len(rows))]
    points = [r for r, _ in rays]
    return tuple(_piece(points[i] for i in simplex) for simplex in _pulling(points, facets, size - 1))


def _cone_sums(polytope):
    """Vol(P) by vertex-cone sums (Lawrence, Math. Comp. 1991; Brion 1988), and the terms of b(P).

    A simplicial piece of the cone at v, with weight c = |det W| over
    generators w, contributes c <xi,v>^(n+k) / ((n+k)! prod_w -<xi,w>) to
    the integral of <xi,x>^k / k! over P, for every xi that no generator is
    orthogonal to: k = 0 is the volume, and the xi-gradient of k = 1 is the
    first moment.  xi is the first (1, t, t^2, ...) at t = 1, 2, ... that no
    generator is orthogonal to; each <xi, w> is a nonzero polynomial in t of
    degree below n, so few t fail.  A vertex v = V / D, V integer over the
    lcm D of its denominators, and a piece of weight c there give the ints
    h = <xi, V>, e_w = -<xi, w> and P = prod_w e_w, and the piece adds
    c h^n / (D^n n! P) to the volume.  The vertices that share a D are
    summed in ints over D and the lcm of their pieces' P, and each such
    group adds one Fraction, so a polytope whose vertices have many
    denominators never forms their lcm to a high power.  The groups, one
    (c h^n, h, V, P, generators, e) per piece, are returned with the volume
    for :func:`_first_moments`, which a volume alone does not need.
    """
    n = polytope.dim
    cones = polytope.cones
    generators = {w for pieces in cones for _, gens in pieces for w in gens}
    curve = ([t**k for k in range(n)] for t in itertools.count(1))
    xi = next(xi for xi in curve if all(dot(xi, w) for w in generators))
    groups = {}
    for v, pieces in zip(polytope.vertices, cones):
        denominator, big = _over_lcm(v)
        height = dot(xi, big)
        terms = groups.setdefault(denominator, [])
        for weight, gens in pieces:
            slopes = [-dot(xi, w) for w in gens]
            terms.append((weight * height**n, height, big, prod(slopes), gens, slopes))
    # mass is n! Vol(P).
    mass = Fraction(0)
    for denominator, terms in groups.items():
        q = lcm(*(p for _, _, _, p, _, _ in terms))
        mass += Fraction(sum(c * (q // p) for c, _, _, p, _, _ in terms), q * denominator**n)
    return mass / factorial(n), groups


def _first_moments(n, volume, groups):
    """b(P) from the volume and the grouped cone terms of :func:`_cone_sums`.

    A piece's first moment term is the xi-gradient of
    c <xi,v>^(n+1) / ((n+1)! P): c h^n ((n+1) V P + h S) / (D^(n+1) (n+1)! P^2),
    with S = sum_w w P / e_w, summed in ints over D and the lcm of the
    group's P^2.
    """
    moment = [Fraction(0)] * n
    for denominator, terms in groups.items():
        q = lcm(*(p * p for _, _, _, p, _, _ in terms))
        sums = [0] * n
        for c, height, big, p, gens, slopes in terms:
            c *= q // (p * p)
            quotients = [p // e for e in slopes]
            s = [dot(axis, quotients) for axis in zip(*gens)]
            sums = [m + c * ((n + 1) * x * p + height * y) for m, x, y in zip(sums, big, s)]
        moment = [m + Fraction(x, q * denominator ** (n + 1)) for m, x in zip(moment, sums)]
    # (n+1)! Vol(P) b(P) is the moment.
    mass = volume * factorial(n + 1)
    return tuple(m / mass for m in moment)


def _polytope(dim, halfspaces, candidates, tight, tol, inverses=None, exact=None):
    """The polytope of valid ``halfspaces`` whose vertices are ``candidates``.

    ``tight[i]`` is the incidence record of candidate i, an int bitmask of
    the halfspaces tight there, as the vertex route found it.  Equal
    candidates merge with the union of their masks, and on a float polytope
    so does a new one whose rounded floats lie within tol of a kept one's;
    a vertex that rounds past the float range is an input error, named by
    its tight rows, as a fan support's is by its cone.  Tight sets are the
    masks' transpose.  The rows tight at every vertex are the implicit
    equalities, which cut out the affine hull, so its rank is dim minus
    the rank of their normals (Schrijver, Theory of Linear and
    Integer Programming, section 8.2), and -1 without vertices.  The normals are ranked as
    integer rows, floats by their exact binary value, the values on which
    double description decides tightness too.  Facets of a full-dimensional polytope are its
    inclusion-maximal proper faces, and each is the tight set of some
    halfspace, so a halfspace supports a facet exactly when its tight set is
    proper and lies in no larger proper tight set (Kaibel-Pfetsch, Comput.
    Geom. 2002).  A polytope of hull rank dim-1 has one facet set, all of
    its vertices, and a lower one none.  A row with a zero normal cuts
    nothing, so it is redundant even where it is tight at every vertex.
    ``inverses`` are the route's known inverses, kept for ``Polytope.cones``.
    ``exact`` are the candidates' exact masks where ``tight`` are not; with
    them, or where distinct candidates merged, ``binary`` is the polytope
    of the candidates with their exact masks and tol 0.
    """
    keys, masks, rounded, split = {}, [], [], False
    for v, mask in zip(candidates, tight):
        # One hash of v: a tuple of Fractions hashes at a modular inverse each.
        k = keys.setdefault(v, len(masks))
        if tol and k == len(masks):
            try:
                point = tuple(_rounded(x, "vertex") for x in v)
            except OverflowError:
                rows = [j for j in range(len(halfspaces)) if mask >> j & 1]
                raise InputError(f"the vertex on rows {rows} overflows the float range") from None
            k = next((i for w, i in rounded if all(abs(a - b) <= tol for a, b in zip(point, w))), k)
            if k < len(masks):
                del keys[v]
                split = True
            else:
                rounded.append((point, k))
        if k < len(masks):
            masks[k] |= mask
        else:
            masks.append(mask)
    everywhere = reduce(and_, masks, -1)
    equalities = [_over_lcm(_exact(d))[1] for j, (d, _) in enumerate(halfspaces) if everywhere >> j & 1]
    hull_rank = dim - linalg.rank(equalities) if masks else -1
    tight_sets = tuple(
        tuple(i for i, mask in enumerate(masks) if mask >> j & 1) for j in range(len(halfspaces))
    )
    sets = [frozenset(t) for t in tight_sets]
    everything = frozenset(range(len(masks)))
    # A tight set is redundant when it lies strictly inside one of these.
    larger = {s for s in sets if s != everything} if hull_rank == dim else {everything}
    redundant = tuple(
        hull_rank < dim - 1 or not any(normal) or any(s < t for t in larger)
        for (normal, _), s in zip(halfspaces, sets)
    )
    return Polytope(
        dim=dim,
        halfspaces=halfspaces,
        vertices=tuple(keys),
        tight_sets=tight_sets,
        redundant=redundant,
        tol=tol,
        degenerate=hull_rank < dim,
        inverses=inverses,
        binary=_polytope(dim, halfspaces, candidates, exact or tight, 0, inverses) if split or exact else None,
    )


def polytope_from_support(fan, c, cones=None):
    """Polytope of a support vector over a smooth complete fan.

    One candidate vertex per maximal cone, duplicates merged.  A candidate
    that violates some halfspace means the support is not convex, and the
    candidates would not be the vertices of the halfspace system, so that
    raises InputError.  Empty interior comes back as a degenerate polytope
    rather than an error.  ``cones`` is the :func:`_cone_vertices` result of
    ``c`` when the caller has solved the cones already.  The polytope keeps
    the fan's cone inverses by columns, so the tangent cone of a vertex
    tight on exactly one maximal cone's rays is read off that cone's
    inverse, and no fan cone is inverted again.  An Ample support's masks
    are exact: its cone rays have slack 0, the others more than tol.  A
    float support NefOnly within tol may leave a ray that is tight within
    tol slack at its binary value, or violate it, so its cones are solved
    again with tol 0, for the exact masks of ``Polytope.binary`` and for
    convexity at that value.
    """
    c = _support(fan, c)
    tol = tolerance(c)
    vertices, tight, amp = cones or _cone_vertices(fan, c, tol)
    exact = None
    if tol and amp.kind is Ampleness.NEF_ONLY:
        _, exact, amp = _cone_vertices(fan, c, 0)
    if amp.kind is Ampleness.NOT_CONVEX:
        ci, j = amp.witness
        raise InputError(
            f"support is not convex: the vertex of cone {list(fan.max_cones[ci])} violates ray {j}"
        )
    inverses = {
        tuple(fan.rays[j] for j in cone): inverse
        for cone, inverse in zip(fan.max_cones, fan.cone_columns)
        if inverse
    }
    return _polytope(fan.dim, tuple(zip(fan.rays, c)), vertices, tight, tol, inverses, exact)


def _extreme_rays(rows):
    """Extreme rays of the cone where every row is >= 0, with their zero sets.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996).  The starting cone is that of the first rows B that
    span, from :func:`linalg.integer_inverse`: column k of B^-1 is its ray
    that leaves kept row k.  Each other row then keeps the rays on its
    nonnegative side and joins every adjacent pair across it: pairs whose
    common zero set, an int bitmask of the rows added so far that are
    tight at both, has dim - 2 rows or more and lies in no third ray's zero
    set.  Each ray comes back as a primitive integer tuple and its zero set
    over all rows; None when the rows do not span.
    """
    size = len(rows[0])
    basis, inverse = linalg.integer_inverse(rows)
    if inverse is None:
        return None
    cone = [(_primitive(column), sum(1 << i for i in basis if i != j)) for column, j in zip(inverse[0], basis)]
    for j, row in enumerate(rows):
        if j in basis:
            continue
        values = [dot(row, r) for r, _ in cone]
        zeros = [z for _, z in cone]
        negative = [q for q, y in enumerate(values) if y < 0]
        # The ray between an adjacent positive p and negative q is tight on row j.
        joined = [
            (_primitive([x * b - values[q] * a for a, b in zip(cone[p][0], cone[q][0])]), z | 1 << j)
            for p, x in enumerate(values) if x > 0
            for q in negative
            if (z := zeros[p] & zeros[q]).bit_count() >= size - 2 and sum(z & w == z for w in zeros) == 2
        ]
        cone = [(r, z | (1 << j if x == 0 else 0)) for (r, z), x in zip(cone, values) if x >= 0] + joined
    return cone


def polytope_from_halfspaces(halfspaces):
    """Vertex enumeration for an explicit halfspace list, by double description.

    Row j times the least integer s_j > 0 that clears its denominators
    (floats enter by their exact binary value) is the integer row a_j of the
    cone C = {(x, t) : s_j (<d_j, x> + c_j t) >= 0, t >= 0}.  The extreme
    rays y of C with t > 0 are the vertices, sorted, so that the polytope
    does not depend on row order, and each one's zero set is its exact
    incidence record.  On float rows they merge within the tolerance, the
    :func:`tolerance` of these rows alone, and a merged vertex is tight on
    every row that one of its parts was tight on.
    A ray with t = 0 is reported as unbounded.  Without vertices the system
    is empty, as one LP on the integer rows a_j certifies (Farkas), or its
    normals do not span and it has lines, along a primitive integer kernel
    vector of the integer rows' normal parts.  The regime is dimension <= 6
    and at most 32 halfspaces.
    """
    hs = [(_vec(d), _coerce(c)) for d, c in halfspaces]
    if not hs:
        raise InputError("need at least one halfspace")
    n = len(hs[0][0])
    if any(len(d) != n for d, _ in hs):
        raise InputError("halfspace normals must share one dimension")
    if n > MAX_RAW_DIM or len(hs) > MAX_RAW_HALFSPACES:
        raise InputError(f"raw halfspace regime is dim <= {MAX_RAW_DIM}, m <= {MAX_RAW_HALFSPACES}")
    tol = tolerance([x for d, c in hs for x in (*d, c)])

    scaled = [_over_lcm(_exact((*d, c))) for d, c in hs]
    rows = [tuple(row) for _, row in scaled]
    rays = _extreme_rays([(0,) * n + (1,), *rows]) or ()
    # Bit 0 of a zero set is the row t >= 0, tight at no vertex.
    bounded = sorted((tuple(Fraction(x, r[n]) for x in r[:n]), z >> 1) for r, z in rays if r[n] > 0)
    if not bounded:
        # Farkas: empty iff some y >= 0 has sum y_j d_j = 0, sum y_j c_j = -1,
        # which is s_j y_j for the y that the integer rows s_j (d_j, c_j) give.
        y, _, denominator = linalg.farkas(list(zip(*rows)), [0] * n + [-1])
        if y is not None:
            certificate = tuple(Fraction(s * x, denominator) for (s, _), x in zip(scaled, y))
            raise EmptyPolytopeError("halfspace system is infeasible", certificate=certificate)
        lineality = linalg.kernel_vector([r[:n] for r in rows])
        raise UnboundedPolytopeError("feasible but has no vertex", direction=lineality)
    direction = min((r[:n] for r, _ in rays if r[n] == 0), default=None)
    if direction is not None:
        raise UnboundedPolytopeError(f"unbounded along {list(direction)}", direction=direction)

    return _polytope(n, tuple(hs), [v for v, _ in bounded], [z for _, z in bounded], tol)


# ---------------------------------------------------------------------------
# triangulation


class SimplexMesh(Record):
    """Disjoint simplices covering a polytope, as coordinate tuples.

    One exact code path, floats at their binary value, in integers: each
    distinct vertex is cleared of its denominators once, a simplex whose
    vertices' denominators have the lcm d is taken over d, and its volume
    factor (dim! times its volume) is the Bareiss :func:`linalg.integer_det`
    of its integer edge rows over d^n.  ``floats``, for the weighted pass,
    rounds each once.  Both are computed on first use and kept.
    """

    simplices: tuple

    @property
    def dim(self):
        return len(self.simplices[0]) - 1 if self.simplices else 0

    @cached_property
    def _dets(self):
        """Per simplex, ``(det, d)``: its vertices over d in ints, its factor det / d^n.

        Vertices are cleared once each, keyed by identity, since a
        triangulation shares its vertex tuples among its simplices, which
        keep them alive.
        """
        cleared, dets = {}, []
        for simplex in self.simplices:
            found = [cleared.get(id(v)) or cleared.setdefault(id(v), _over_lcm(_exact(v))) for v in simplex]
            d = lcm(*(scale for scale, _ in found))
            rows = [ints if scale == d else [x * (d // scale) for x in ints] for scale, ints in found]
            dets.append((abs(linalg.integer_det([[a - b for a, b in zip(p, rows[0])] for p in rows[1:]])), d))
        return dets

    @cached_property
    def floats(self):
        """Float vertices, nested as (simplex, vertex, axis), each distinct one rounded once, and float factors."""
        seen = {}
        points = tuple(
            tuple(seen.get(id(v)) or seen.setdefault(id(v), tuple(_rounded(x, "vertex") for x in v)) for v in s)
            for s in self.simplices
        )
        return points, tuple(_rounded(det, "simplex mass", d**self.dim) for det, d in self._dets)


def _pulling(points, facets, dim):
    """Index tuples of the simplices of a deterministic pulling triangulation.

    ``points`` span a polytope of dimension ``dim`` (or a pointed cone of
    dimension dim + 1, over its rays) whose facets are among ``facets``,
    sets of point indices.  Every face is coned from its lexicographically
    least point over the triangulations of the facets that miss it, so the
    scheme depends only on the points.  The facets of a face F are the
    inclusion-maximal proper sets F n T over the sets T: each facet G of F
    lies in a facet T that misses part of F, so G = F n T, and a proper
    F n T lies in some facet of F (Kaibel-Pfetsch, Comput. Geom. 2002).  No
    rank test is needed, and sets that are no facet drop out as non-maximal.
    """
    facets = dict.fromkeys(facets)
    cache = {}

    def tri_face(face, d):
        if face in cache:
            return cache[face]
        if d == 0 or len(face) == d + 1:
            result = [face]
        else:
            apex = min(face, key=points.__getitem__)
            subs = dict.fromkeys(tuple(i for i in face if i in tight) for tight in facets)
            proper = {sub: set(sub) for sub in subs if len(sub) < len(face)}
            result = []
            for sub, members in proper.items():
                if apex in members or any(members < s for s in proper.values()):
                    continue
                for simplex in tri_face(sub, d - 1):
                    result.append((apex,) + simplex)
        cache[face] = result
        return result

    return tri_face(tuple(range(len(points))), dim)


def triangulate(polytope):
    """Deterministic boundary-cone triangulation, by :func:`_pulling` over the facets."""
    if polytope.degenerate:
        raise InputError("cannot triangulate a degenerate polytope")
    verts = polytope.vertices
    facets = (frozenset(tight) for tight, red in zip(polytope.tight_sets, polytope.redundant) if not red)
    simplices = tuple(tuple(verts[i] for i in idx) for idx in _pulling(verts, facets, polytope.dim))
    mesh = SimplexMesh(simplices=simplices)
    if not all(det for det, _ in mesh._dets):
        raise ArithmeticError("degenerate simplex in triangulation")
    return mesh
