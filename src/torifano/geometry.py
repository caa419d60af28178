"""Fans, support vectors, polytopes, and exact triangulation.

The combinatorial layer works over ``fractions.Fraction`` whenever the input
data is rational, so smoothness, completeness, ampleness, vertex positions,
volumes and barycenters are exact.  Float offsets are accepted for the few
workflows that genuinely need irrational parameters; those go through the
same code paths with a small absolute tolerance.  :func:`tolerance` makes
that choice once per polytope, from its own data, and the polytope carries
it.

A fan inverts each maximal cone's ray matrix once, in ``Fan.cone_inverses``:
smoothness is read off it, and a cone's vertex is one product with it.

Each polytope's derived data is computed in one place, from one incidence
record per vertex: an int bitmask of the halfspaces tight there.  Each
vertex route hands over the record it has.  Per maximal cone from support
numbers, the cone's slack row is compared with the tolerance, the one place
where a tolerance decides tightness; by double description from raw
halfspaces, a vertex's record is its ray's exact zero set.  The polytope's
tight sets, redundancy flags and dimension are read off the records, and
its triangulation is ``Polytope.mesh``, computed on first use.  Double
description runs in integers, so nothing needs numpy.

Conventions: a ray is a primitive integer column vector; a support vector
``c`` over a fan with rays ``d_j`` cuts out ``P = {x : <d_j, x> >= -c_j}``.
Raw halfspace input uses the same lower-bound form.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, isfinite, lcm
from operator import and_

from . import linalg
from .linalg import _primitive, dot
from .errors import EmptyPolytopeError, InputError, UnboundedPolytopeError

DEFAULT_FLOAT_TOL = 1e-9

# The raw route's regime: at this cap, a 6-cube cut by 20 integer rows has
# several hundred vertices, which double description finds in under a second.
MAX_RAW_DIM = 6
MAX_RAW_HALFSPACES = 32


def _coerce(x):
    if isinstance(x, float):
        return x
    return Fraction(x)


def _vec(xs):
    return tuple(_coerce(x) for x in xs)


def tolerance(scalars):
    """0 when every scalar is an int or Fraction, DEFAULT_FLOAT_TOL otherwise.

    This is the one place where the type of the data decides between exact
    and float comparison.  A polytope carries the value as ``tol`` and every
    comparison made on it, or on anything derived from it, reads that.
    """
    return 0 if all(isinstance(x, (Fraction, int)) for x in scalars) else DEFAULT_FLOAT_TOL


# ---------------------------------------------------------------------------
# fans


@dataclass(frozen=True)
class Fan:
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
    def cone_inverses(self):
        """Each maximal cone's ray matrix inverse as rows, or None when singular.

        The entries are ints exactly when the inverse is integral, that is
        when the cone is smooth, and Fractions otherwise.
        """
        inverses = []
        for cone in self.max_cones:
            found = linalg.integer_inverse([self.rays[j] for j in cone])
            inverse, scale = found[1:] if found else (None, 1)
            inverses.append(inverse if scale == 1 else [tuple(Fraction(x, scale) for x in row) for row in inverse])
        return tuple(inverses)


@dataclass(frozen=True)
class FanReport:
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
    for cone, inverse in zip(fan.max_cones, fan.cone_inverses):
        # An integer matrix has det +-1 exactly when its inverse is integral.
        if inverse is None or any(x.denominator != 1 for row in inverse for x in row):
            smooth = False
            witnesses.append(("smooth", {"cone": cone, "det": str(linalg.det([fan.rays[i] for i in cone]))}))

    # A complete simplicial fan is characterized by every wall (codimension-1
    # cone) lying in exactly two maximal cones.
    wall_count = {}
    for cone in fan.max_cones:
        for wall in itertools.combinations(cone, fan.dim - 1):
            wall_count[wall] = wall_count.get(wall, 0) + 1
    complete = bool(fan.max_cones)
    if not complete:
        witnesses.append(("complete", {"max_cones": 0}))
    for wall, count in sorted(wall_count.items()):
        if count != 2:
            complete = False
            witnesses.append(("complete", {"wall": wall, "incidence": count}))

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


@dataclass(frozen=True)
class AmplenessReport:
    kind: Ampleness
    witness: tuple = None  # (cone index, ray index) where convexity fails/ties


def _cone_vertices(fan, c, tol):
    """The vertex of each maximal cone, its slack rows, and the class of ``c``.

    A cone's vertex v is where its rays' halfspaces are tight, v = -D^-1 c
    over the cone for exact and float ``c`` alike, and its slack row holds
    <d_j, v> + c_j for every ray j, the cone's own included, so a polytope
    reads its tight sets off the rows.  A ray outside the cone with slack
    below -tol breaks convexity, and the vertices and rows found up to
    there come back; a slack within tol is the nef boundary.  A float
    vertex or slack that overflowed is an input error, since it would
    compare false against both bounds.
    """
    vertices, slacks, nef_witness = [], [], None
    for ci, (cone, inverse) in enumerate(zip(fan.max_cones, fan.cone_inverses)):
        if inverse is None:
            raise InputError(f"cone {cone} is not simplicial of full rank")
        offsets = [c[j] for j in cone]
        v = tuple(-dot(row, offsets) for row in inverse)
        row = [dot(ray, v) + cj for ray, cj in zip(fan.rays, c)]
        # Fractions cannot overflow; only float entries are checked.
        if tol and not all(isfinite(x) for x in (*v, *row) if isinstance(x, float)):
            raise InputError(f"the vertex of cone {list(cone)} overflows the float range")
        vertices.append(v)
        slacks.append(row)
        for j, slack in enumerate(row):
            if j in cone:
                continue
            if slack < -tol:
                return vertices, slacks, AmplenessReport(Ampleness.NOT_CONVEX, (ci, j))
            if slack <= tol and nef_witness is None:
                nef_witness = (ci, j)
    if nef_witness is not None:
        return vertices, slacks, AmplenessReport(Ampleness.NEF_ONLY, nef_witness)
    return vertices, slacks, AmplenessReport(Ampleness.AMPLE)


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


@dataclass(frozen=True)
class Polytope:
    """Bounded intersection of halfspaces with enumerated vertices.

    ``halfspaces[j]`` is a ``(normal, offset)`` pair for
    ``<normal, x> >= -offset``; ``tight_sets[j]`` lists the vertex indices on
    its boundary and ``redundant[j]`` flags halfspaces whose tight set spans
    less than a facet.  ``tol`` is the :func:`tolerance` of the halfspace
    data, 0 when it is exact: tight sets, vertex merging, the triangulation
    and every verdict on the polytope compare within it, and ``tol == 0`` is
    what "exact" means downstream.  ``degenerate`` marks empty or
    lower-dimensional intersections, which carry no mesh; ``mesh`` is the
    :func:`triangulate` mesh of any other polytope, kept once computed.
    """

    dim: int
    halfspaces: tuple
    vertices: tuple
    tight_sets: tuple
    redundant: tuple
    tol: float
    degenerate: bool = False

    @property
    def nvertices(self):
        return len(self.vertices)

    @cached_property
    def mesh(self):
        """The :func:`triangulate` mesh, computed on first use."""
        return triangulate(self)


def _polytope(dim, halfspaces, candidates, tight, tol):
    """The polytope of valid ``halfspaces`` whose vertices are ``candidates``.

    ``tight[i]`` is the incidence record of candidate i, an int bitmask of
    the halfspaces tight there, as the vertex route found it.  Candidates
    within tol of an earlier kept one merge into it with the union of their
    masks, and everything else is read off the masks.  Tight sets are their
    transpose.  The rows tight at every vertex are the implicit equalities,
    which cut out the affine hull, so its rank is dim minus the rank of
    their normals (Schrijver, Theory of Linear and Integer Programming,
    section 8.2), and -1 without vertices.  Facets of a full-dimensional polytope are its
    inclusion-maximal proper faces, and each is the tight set of some
    halfspace, so a halfspace supports a facet exactly when its tight set is
    proper and lies in no larger proper tight set (Kaibel-Pfetsch, Comput.
    Geom. 2002).  A polytope of hull rank dim-1 has one facet set, all of
    its vertices, and a lower one none.  A row with a zero normal cuts
    nothing, so it is redundant even where it is tight at every vertex.
    """
    merged = {}
    for v, mask in zip(candidates, tight):
        if tol:
            v = next((w for w in merged if all(abs(a - b) <= tol for a, b in zip(v, w))), v)
        merged[v] = merged.get(v, 0) | mask
    masks = list(merged.values())
    everywhere = reduce(and_, masks, -1)
    equalities = [d for j, (d, _) in enumerate(halfspaces) if everywhere >> j & 1]
    hull_rank = dim - linalg.rank(equalities, tol) if masks else -1
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
        vertices=tuple(merged),
        tight_sets=tight_sets,
        redundant=redundant,
        tol=tol,
        degenerate=hull_rank < dim,
    )


def polytope_from_support(fan, c, cones=None):
    """Polytope of a support vector over a smooth complete fan.

    One candidate vertex per maximal cone, duplicates merged.  A candidate
    that violates some halfspace means the support is not convex, and the
    candidates would not be the vertices of the halfspace system, so that
    raises InputError.  Empty interior comes back as a degenerate polytope
    rather than an error.  ``cones`` is the :func:`_cone_vertices` result of
    ``c`` when the caller has solved the cones already.
    """
    c = _support(fan, c)
    tol = tolerance(c)
    vertices, slacks, amp = cones or _cone_vertices(fan, c, tol)
    if amp.kind is Ampleness.NOT_CONVEX:
        ci, j = amp.witness
        raise InputError(
            f"support is not convex: the vertex of cone {list(fan.max_cones[ci])} violates ray {j}"
        )
    # The one place where a tolerance decides that a halfspace is tight.
    tight = [sum(1 << j for j, s in enumerate(row) if abs(s) <= tol) for row in slacks]
    return _polytope(fan.dim, tuple(zip(fan.rays, c)), vertices, tight, tol)


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
    found = linalg.integer_inverse(rows)
    if found is None:
        return None
    basis, inverse, _ = found
    cone = [(_primitive(column), sum(1 << i for i in basis if i != j)) for column, j in zip(zip(*inverse), basis)]
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
    incidence record.  Float rows round the vertices, which then merge
    within the tolerance, the :func:`tolerance` of these rows alone, and a
    merged vertex is tight on every row that one of its parts was tight on.
    A ray with t = 0 is reported as unbounded.  Without vertices the system
    is empty, as one exact LP certifies (Farkas), or its normals do not span
    and it has lines.  The regime is dimension <= 6 and at most 32
    halfspaces.
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

    exact = [[Fraction(x) for x in (*d, c)] for d, c in hs]
    scales = [lcm(*(x.denominator for x in row)) for row in exact]
    rows = [tuple(x.numerator * (s // x.denominator) for x in row) for row, s in zip(exact, scales)]
    rays = _extreme_rays([(0,) * n + (1,), *rows]) or ()
    # Bit 0 of a zero set is the row t >= 0, tight at no vertex.
    bounded = sorted((tuple(Fraction(x, r[n]) for x in r[:n]), z >> 1) for r, z in rays if r[n] > 0)
    if not bounded:
        # Farkas: empty iff some y >= 0 has sum y_j d_j = 0, sum y_j c_j = -1.
        normals = [d for d, _ in hs]
        certificate, _ = linalg.farkas([*zip(*normals), [c for _, c in hs]], [0] * n + [-1])
        if certificate is not None:
            raise EmptyPolytopeError("halfspace system is infeasible", certificate=certificate)
        raise UnboundedPolytopeError("feasible but has no vertex", direction=linalg.kernel_vector(normals, tol))
    direction = min((r[:n] for r, _ in rays if r[n] == 0), default=None)
    if direction is not None:
        raise UnboundedPolytopeError(f"unbounded along {list(direction)}", direction=direction)

    vertices = [tuple(map(float, v)) if tol else v for v, _ in bounded]
    return _polytope(n, tuple(hs), vertices, [z for _, z in bounded], tol)


def support_function(polytope, u):
    """max_{p in P} <u, p>, evaluated on the vertex set."""
    u = _vec(u)
    if len(u) != polytope.dim:
        raise InputError("direction has wrong dimension")
    if not polytope.vertices:
        raise InputError("support function of an empty polytope")
    return max(dot(u, v) for v in polytope.vertices)


def translate(polytope, t):
    """Translate a polytope; offsets shift by <d_j, t>."""
    t = _vec(t)
    if len(t) != polytope.dim:
        raise InputError("translation has wrong dimension")
    if all(x == 0 for x in t):
        return polytope
    return replace(
        polytope,
        halfspaces=tuple((d, c + dot(d, t)) for d, c in polytope.halfspaces),
        vertices=tuple(tuple(a + b for a, b in zip(v, t)) for v in polytope.vertices),
        tol=max(polytope.tol, tolerance(t)),
    )


def minkowski_sum(fan, parts):
    """Sum support vectors over one fan and rebuild the polytope.

    All parts must be Ample or NefOnly.  The construction is linear per
    maximal cone, which is checked, along with support-number additivity
    on every ray direction, both within the parts' tolerance; a failed check
    raises ``ArithmeticError``.  Each support vector's cone vertices are
    solved once and give its class, its vertices and its slack rows.
    """
    parts = [_support(fan, c) for c in parts]
    if not parts:
        raise InputError("need at least one summand")
    total = tuple(sum(c[j] for c in parts) for j in range(fan.nrays))
    cones = [_cone_vertices(fan, c, tolerance(c)) for c in (total, *parts)]
    if any(amp.kind is Ampleness.NOT_CONVEX for _, _, amp in cones[1:]):
        raise InputError("Minkowski summands must be Ample or NefOnly")
    tol = tolerance([x for c in parts for x in c])

    for vsum, *pieces in zip(*(vertices for vertices, _, _ in cones)):
        combined = tuple(sum(p[i] for p in pieces) for i in range(fan.dim))
        if any(abs(a - b) > tol for a, b in zip(vsum, combined)):
            raise ArithmeticError("per-cone vertices must add")
    # A part's smallest slack of ray j is its support number on d_j plus c_j,
    # so the support numbers add up to -total_j when these minima sum to 0.
    for j in range(fan.nrays):
        if abs(sum(min(row[j] for row in slacks) for _, slacks, _ in cones[1:])) > tol:
            raise ArithmeticError("support numbers must add on rays")
    return total, polytope_from_support(fan, total, cones[0])


# ---------------------------------------------------------------------------
# triangulation


def _volume_factor(simplex):
    """|det| of the edge matrix, i.e. dim! times the simplex volume."""
    edges = [[a - b for a, b in zip(p, simplex[0])] for p in simplex[1:]]
    return abs(linalg.det(edges))


@dataclass(frozen=True)
class SimplexMesh:
    """Disjoint simplices covering a polytope, as coordinate tuples.

    The volume factor of each simplex (dim! times its volume), the
    barycenter, both exact on rational meshes, and the floats that the
    weighted moment pass turns into arrays are computed on first use and
    kept here.
    """

    simplices: tuple

    @property
    def dim(self):
        return len(self.simplices[0]) - 1 if self.simplices else 0

    @cached_property
    def factors(self):
        return tuple(map(_volume_factor, self.simplices))

    @cached_property
    def barycenter(self):
        """Volume-weighted centroid."""
        n = self.dim
        total = sum(self.factors)
        if total == 0:
            raise InputError("zero-volume mesh has no barycenter")
        moment = [0] * n
        for simplex, w in zip(self.simplices, self.factors):
            moment = [m + w * (sum(v[i] for v in simplex) / (n + 1)) for i, m in enumerate(moment)]
        return tuple(m / total for m in moment)

    @cached_property
    def floats(self):
        """Float vertices, nested as (simplex, vertex, axis), and float factors."""
        points = tuple(tuple(tuple(map(float, v)) for v in s) for s in self.simplices)
        return points, tuple(map(float, self.factors))


def triangulate(polytope):
    """Deterministic boundary-cone triangulation.

    Every face is coned from its lexicographically least vertex over the
    triangulations of the facets that miss it.  The scheme depends only on
    vertex coordinates, so it is independent of input ordering.

    The facets of a face F are the inclusion-maximal proper sets F n T over
    the facets T of the polytope: each facet G of F lies in a facet T that
    misses part of F, so G = F n T, and a proper F n T lies in some facet
    of F (Kaibel-Pfetsch, Comput. Geom. 2002).  No rank test is needed.
    """
    if polytope.degenerate:
        raise InputError("cannot triangulate a degenerate polytope")
    verts = polytope.vertices
    n = polytope.dim
    tol = polytope.tol

    facet_sets = dict.fromkeys(
        frozenset(tight) for tight, red in zip(polytope.tight_sets, polytope.redundant) if not red
    )

    cache = {}

    def tri_face(face, d):
        if face in cache:
            return cache[face]
        if d == 0:
            result = [face]
        elif len(face) == d + 1:
            result = [face]
        else:
            apex = min(face, key=lambda i: verts[i])
            subs = dict.fromkeys(tuple(i for i in face if i in tight) for tight in facet_sets)
            proper = {sub: set(sub) for sub in subs if len(sub) < len(face)}
            result = []
            for sub, members in proper.items():
                if apex in members or any(members < s for s in proper.values()):
                    continue
                for simplex in tri_face(sub, d - 1):
                    result.append((apex,) + simplex)
        cache[face] = result
        return result

    top = tuple(range(len(verts)))
    simplices = tuple(tuple(verts[i] for i in idx) for idx in tri_face(top, n))
    mesh = SimplexMesh(simplices=simplices)
    if any(w <= tol for w in mesh.factors):
        raise ArithmeticError("degenerate simplex in triangulation")
    return mesh
