"""Fans, support vectors, polytopes, their tangent cones, and triangulation.

The combinatorial layer works over ``fractions.Fraction`` whenever the input
data is rational, so smoothness, completeness, ampleness, vertex positions,
volumes and barycenters are exact.  Float offsets are accepted for the few
workflows that genuinely need irrational parameters; those go through the
same code paths with a small absolute tolerance.  :func:`tolerance` makes
that choice once per polytope, from its own data, and the polytope carries
it.

A fan knows each maximal cone's ray matrix inverse, ``Fan.cone_columns``,
as integer columns over one scale: smoothness is read off the scale, and a
cone's vertex is one integer product with the rows, over the lcm of the
support's denominators.  It eliminates one seed cone per connected part
of its dual graph and reaches every other cone across a wall, by the
rank-one step :func:`linalg.exchange`.

Each polytope's derived data is computed in one place, from one incidence
record per vertex: an int bitmask of the halfspaces tight there.  Each
vertex route hands over the record it has.  Per maximal cone from support
numbers, the record is read off the cone's integer slack row beside the
nef test, where a float row is compared with the tolerance, the one place
where a tolerance decides tightness; by double description from raw
halfspaces, a vertex's record is its ray's exact zero set.  The polytope's
tight sets, redundancy flags and dimension are read off the records.  An
exact polytope reads its vertices' tangent cones, ``Polytope.cones``, off
its tight facet rows, a fan part reusing the fan's cone inverses; a
simple vertex's cone is weighed from its inverse, with no determinant, and
a non-simple vertex's cone is split by the pulling recursion that also
triangulates; its exact volume and barycenter,
``Polytope.cone_sums``, are Lawrence-Brion sums over those cones.  The
triangulation itself, ``Polytope.mesh``, is computed on first use for the
weighted pass and for float polytopes, and the lift check triangulates its
lifted polytope for an exact volume independent of the cone sums.  An
exact mesh's volume factors are Bareiss determinants of integer edge rows,
and its volume is summed in integers, so it builds Fractions only for the
value it returns.  Double description, the cone data and exact meshes run
in integers, so nothing needs numpy.

Conventions: a ray is a primitive integer column vector; a support vector
``c`` over a fan with rays ``d_j`` cuts out ``P = {x : <d_j, x> >= -c_j}``.
Raw halfspace input uses the same lower-bound form.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, frexp, gcd, isfinite, lcm, prod
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
    cone's own included.  Exact ``c`` is scaled by the lcm u of its
    denominators to integers C; a cone whose inverse is R / s, R the rows of
    its ``Fan.cone_columns``, then has the integer vertex -R C and slack row
    <d_j, -R C> + s C_j over the positive denominator s u, so every sign is
    read off ints and only the vertices become Fractions, at the end.  Float
    ``c`` runs the same lines with u = 1.  A ray outside the cone with slack
    below -tol breaks convexity, and the vertices and masks found up to there
    come back; a slack within tol is the nef boundary.  The same row gives the
    cone's mask, an int with bit j set where ray j is tight: where the exact
    slack is 0, or the float slack over its denominator is within tol in
    magnitude, the one place where a tolerance decides that a halfspace is
    tight.  A float vertex or slack that overflowed is an input error, since it
    would compare false against both bounds.
    """
    unit, ints = (1, c) if tol else _over_lcm(c)
    found, nef_witness, amp = [], None, None
    for ci, (cone, inverse) in enumerate(zip(fan.max_cones, fan.cone_columns)):
        if inverse is None:
            raise InputError(f"cone {cone} is not simplicial of full rank")
        columns, scale, _ = inverse
        offsets = [ints[j] for j in cone]
        v = [-dot(row, offsets) for row in zip(*columns)]
        row = [dot(ray, v) + scale * cj for ray, cj in zip(fan.rays, ints)]
        scale *= unit
        # Ints and Fractions cannot overflow; only float entries are checked.
        if tol and not all(isfinite(x) for x in (*v, *row) if isinstance(x, float)):
            raise InputError(f"the vertex of cone {list(cone)} overflows the float range")
        tight = (abs(x / scale) <= tol for x in row) if tol else (not x for x in row)
        found.append((v, sum(1 << j for j, t in enumerate(tight) if t), scale))
        bound = tol * scale
        witness = next((j for j, slack in enumerate(row) if j not in cone and slack < -bound), None)
        if witness is not None:
            amp = AmplenessReport(Ampleness.NOT_CONVEX, (ci, witness))
            break
        if nef_witness is None:
            nef_witness = next(((ci, j) for j, slack in enumerate(row) if j not in cone and slack <= bound), None)
    if amp is None:
        amp = AmplenessReport(Ampleness.AMPLE if nef_witness is None else Ampleness.NEF_ONLY, nef_witness)
    build = (lambda x, d: x / d) if tol else Fraction
    vertices = [tuple(build(x, d) for x in v) for v, _, d in found]
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


class Polytope(Record, hidden=("inverses",)):
    """Bounded intersection of halfspaces with enumerated vertices.

    ``halfspaces[j]`` is a ``(normal, offset)`` pair for
    ``<normal, x> >= -offset``; ``tight_sets[j]`` lists the vertex indices on
    its boundary and ``redundant[j]`` flags halfspaces whose tight set spans
    less than a facet.  ``tol`` is the :func:`tolerance` of the halfspace
    data, 0 when it is exact: tight sets, vertex merging, the triangulation
    and every verdict on the polytope compare within it, and ``tol == 0`` is
    what "exact" means downstream.  ``degenerate`` marks empty or
    lower-dimensional intersections, which carry no mesh and no cones;
    ``mesh`` is the :func:`triangulate` mesh of any other polytope,
    ``cones`` its vertices' tangent cones and ``cone_sums`` its exact volume
    and barycenter, each kept once computed.  ``inverses`` maps a tuple of
    integer rows to the ``(columns, scale, det)`` inverse of their matrix
    that :func:`linalg.integer_inverse` gives, where the route that built
    the polytope has it already.
    """

    dim: int
    halfspaces: tuple
    vertices: tuple
    tight_sets: tuple
    redundant: tuple
    tol: float
    degenerate: bool = False
    inverses: dict = None

    @property
    def nvertices(self):
        return len(self.vertices)

    @cached_property
    def mesh(self):
        """The :func:`triangulate` mesh, computed on first use."""
        return triangulate(self)

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
        each piece's weight is an :func:`linalg.integer_det`.  Exact
        polytopes only.
        """
        if self.degenerate or self.tol:
            raise InputError("tangent cones need an exact full-dimensional polytope")
        tight = [{} for _ in self.vertices]
        for (d, _), members, redundant in zip(self.halfspaces, self.tight_sets, self.redundant):
            if not redundant:
                row = _primitive(_over_lcm(d)[1])
                for i in members:
                    tight[i][row] = None
        return tuple(_split_cone(tuple(rows), self.inverses or {}) for rows in tight)

    @cached_property
    def cone_sums(self):
        """``(Vol(P), b(P))``, exact, by :func:`_cone_sums` over ``cones``."""
        return _cone_sums(self)


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
    """Vol(P) and b(P) by vertex-cone sums (Lawrence, Math. Comp. 1991; Brion 1988).

    A simplicial piece of the cone at v, with weight c = |det W| over
    generators w, contributes c <xi,v>^(n+k) / ((n+k)! prod_w -<xi,w>) to
    the integral of <xi,x>^k / k! over P, for every xi that no generator is
    orthogonal to: k = 0 is the volume, and the xi-gradient of k = 1 is the
    first moment.  xi is the first (1, t, t^2, ...) at t = 1, 2, ... that no
    generator is orthogonal to; each <xi, w> is a nonzero polynomial in t of
    degree below n, so few t fail.  A vertex v = V / D, V integer over the
    lcm D of its denominators, and a piece of weight c there give the ints
    h = <xi, V>, e_w = -<xi, w> and P = prod_w e_w, and the piece adds
    c h^n / (D^n n! P) to the volume.  Its first moment term is the
    xi-gradient of c <xi,v>^(n+1) / ((n+1)! P):
    c h^n ((n+1) V P + h S) / (D^(n+1) (n+1)! P^2), with S = sum_w w P / e_w.
    The vertices that share a D are summed in ints over D and the lcm of
    their pieces' P^2, and each such group adds one Fraction per sum, so a
    polytope whose vertices have many denominators never forms their lcm to
    a high power.
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
    # mass is n! Vol(P), and moment (n+1)! times the first moments.
    mass, moment = Fraction(0), [Fraction(0)] * n
    for denominator, terms in groups.items():
        q = lcm(*(p * p for _, _, _, p, _, _ in terms))
        mass += Fraction(sum(c * p * (q // (p * p)) for c, _, _, p, _, _ in terms), q * denominator**n)
        sums = [0] * n
        for c, height, big, p, gens, slopes in terms:
            c *= q // (p * p)
            quotients = [p // e for e in slopes]
            s = [dot(axis, quotients) for axis in zip(*gens)]
            sums = [m + c * ((n + 1) * x * p + height * y) for m, x, y in zip(sums, big, s)]
        moment = [m + Fraction(x, q * denominator ** (n + 1)) for m, x in zip(moment, sums)]
    return mass / factorial(n), tuple(m / ((n + 1) * mass) for m in moment)


def _polytope(dim, halfspaces, candidates, tight, tol, inverses=None):
    """The polytope of valid ``halfspaces`` whose vertices are ``candidates``.

    ``tight[i]`` is the incidence record of candidate i, an int bitmask of
    the halfspaces tight there, as the vertex route found it.  Candidates
    within tol of an earlier kept one merge into it with the union of their
    masks, and everything else is read off the masks.  Tight sets are their
    transpose.  The rows tight at every vertex are the implicit equalities,
    which cut out the affine hull, so its rank is dim minus the rank of
    their normals (Schrijver, Theory of Linear and Integer Programming,
    section 8.2), and -1 without vertices.  The normals are ranked as
    integer rows, floats by their exact binary value, the values on which
    double description decides tightness too.  Facets of a full-dimensional polytope are its
    inclusion-maximal proper faces, and each is the tight set of some
    halfspace, so a halfspace supports a facet exactly when its tight set is
    proper and lies in no larger proper tight set (Kaibel-Pfetsch, Comput.
    Geom. 2002).  A polytope of hull rank dim-1 has one facet set, all of
    its vertices, and a lower one none.  A row with a zero normal cuts
    nothing, so it is redundant even where it is tight at every vertex.
    ``inverses`` are the route's known inverses, kept for ``Polytope.cones``.
    """
    merged, masks = {}, []
    for v, mask in zip(candidates, tight):
        if tol:
            v = next((w for w in merged if all(abs(a - b) <= tol for a, b in zip(v, w))), v)
        # One hash of v: a tuple of Fractions hashes at a modular inverse each.
        k = merged.setdefault(v, len(masks))
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
        vertices=tuple(merged),
        tight_sets=tight_sets,
        redundant=redundant,
        tol=tol,
        degenerate=hull_rank < dim,
        inverses=inverses,
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
    inverse, and no fan cone is inverted again.
    """
    c = _support(fan, c)
    tol = tolerance(c)
    vertices, tight, amp = cones or _cone_vertices(fan, c, tol)
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
    return _polytope(fan.dim, tuple(zip(fan.rays, c)), vertices, tight, tol, inverses)


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
    incidence record.  Float rows round the vertices, which then merge
    within the tolerance, the :func:`tolerance` of these rows alone, and a
    merged vertex is tight on every row that one of its parts was tight on.
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
    return polytope.replace(
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
    solved once and give its class, its vertices and its tight-set masks.
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
    # A part's support number on d_j is min_v <d_j, v>, which plus c_j is
    # its smallest slack of ray j, so the support numbers add up to -total_j
    # when these minima sum to 0.
    for j, ray in enumerate(fan.rays):
        slack = sum(min(dot(ray, v) for v in vertices) + c[j] for (vertices, _, _), c in zip(cones[1:], parts))
        if abs(slack) > tol:
            raise ArithmeticError("support numbers must add on rays")
    return total, polytope_from_support(fan, total, cones[0])


# ---------------------------------------------------------------------------
# triangulation


class SimplexMesh(Record):
    """Disjoint simplices covering a polytope, as coordinate tuples.

    The volume and the floats that the weighted moment pass turns into
    arrays are computed on first use and kept here.  An exact mesh, one
    whose coordinates have :func:`tolerance` 0, works in integers: each
    distinct vertex is cleared of its denominators once, a simplex whose
    vertices' denominators have the lcm d is taken over d, and its volume
    factor (dim! times its volume) is the Bareiss
    :func:`linalg.integer_det` of its integer edge rows over d^n.  The
    exact volume sums those ints over each d and builds one Fraction per
    d, so a mesh whose vertices have many denominators never forms their
    lcm; its factors, as Fractions, and its exact barycenter are built only
    when read, and an exact polytope's barycenter is its cone sums'.  A
    float mesh's factor is the :func:`linalg.det` of its edge rows; its
    volume or barycenter raises OverflowError where it is not finite.
    """

    simplices: tuple

    @property
    def dim(self):
        return len(self.simplices[0]) - 1 if self.simplices else 0

    @cached_property
    def _cleared(self):
        """Each distinct vertex of an exact mesh as ``(denominator, ints)``, or None.

        Vertices are keyed by identity, since a triangulation shares its
        vertex tuples among its simplices, which keep them alive.  None
        for a float mesh.
        """
        points = {id(v): v for simplex in self.simplices for v in simplex}
        if tolerance(x for v in points.values() for x in v):
            return None
        return {key: _over_lcm(v) for key, v in points.items()}

    @cached_property
    def _dets(self):
        """Per simplex of an exact mesh, ``(det, d)``: its vertices over d in ints, its factor det / d^n."""
        dets = []
        for simplex in self.simplices:
            found = [self._cleared[id(v)] for v in simplex]
            d = lcm(*(scale for scale, _ in found))
            rows = [ints if scale == d else [x * (d // scale) for x in ints] for scale, ints in found]
            dets.append((abs(linalg.integer_det([[a - b for a, b in zip(p, rows[0])] for p in rows[1:]])), d))
        return dets

    @cached_property
    def factors(self):
        """Each simplex's volume times dim!, the |det| of its edge rows: Fractions on an exact mesh."""
        if self._cleared is None:
            return tuple(abs(linalg.det([[a - b for a, b in zip(p, s[0])] for p in s[1:]])) for s in self.simplices)
        return tuple(Fraction(det, d**self.dim) for det, d in self._dets)

    @cached_property
    def volume(self):
        n = self.dim
        if self._cleared is None:
            volume = sum(self.factors, Fraction(0)) / factorial(n)
            if not isfinite(volume):
                raise OverflowError("float volume overflows")
            return volume
        masses = {}
        for det, d in self._dets:
            masses[d] = masses.get(d, 0) + det
        return sum((Fraction(mass, d**n) for d, mass in masses.items()), Fraction(0)) / factorial(n)

    @cached_property
    def barycenter(self):
        """Volume-weighted centroid, exact on an exact mesh."""
        n = self.dim
        factors, simplices, scale = self.factors, self.simplices, 1
        if not any(factors):
            raise InputError("zero-volume mesh has no barycenter")
        exact = self._cleared is not None
        if not exact:
            # Over a power of two near the largest factor, which is exact, no
            # weight times a centroid overflows where the barycenter would not.
            unit = Fraction(2) ** (frexp(max(factors))[1] - 1)
            factors = [w / unit for w in factors]
            # Coordinates from 2^1000 up are divided by 2^24 first, exactly
            # but for subnormals, so that no centroid's coordinate sum
            # overflows; every other mesh keeps every bit.
            if max(abs(x) for simplex in simplices for v in simplex for x in v) >= 2.0**1000:
                scale = 2.0**24
                simplices = [[[x / scale for x in v] for v in simplex] for simplex in simplices]
        # A float over Fraction(n + 1) is the float over float(n + 1).  A
        # Fraction start keeps float sums plain left to right: from Python
        # 3.12 on, sum() compensates a float sum, which moves the last bits.
        moment, start = [0] * n, Fraction(0)
        for simplex, w in zip(simplices, factors):
            moment = [m + w * (sum((v[i] for v in simplex), start) / Fraction(n + 1)) for i, m in enumerate(moment)]
        total = sum(factors, start)
        barycenter = tuple(m / total * scale for m in moment)
        if not exact and not all(map(isfinite, barycenter)):
            raise OverflowError("float barycenter overflows")
        return barycenter

    @cached_property
    def floats(self):
        """Float vertices, nested as (simplex, vertex, axis), and float factors."""
        points = tuple(tuple(tuple(map(float, v)) for v in s) for s in self.simplices)
        if self._cleared is None:
            return points, tuple(map(float, self.factors))
        # Int true division rounds correctly, as float() of the Fraction does.
        return points, tuple(det / d**self.dim for det, d in self._dets)


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
    sizes = mesh.factors if mesh._cleared is None else (det for det, _ in mesh._dets)
    if any(w <= polytope.tol for w in sizes):
        raise ArithmeticError("degenerate simplex in triangulation")
    return mesh
