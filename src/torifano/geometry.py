"""Fans, support vectors, polytopes, and exact triangulation.

The combinatorial layer works over ``fractions.Fraction`` whenever the input
data is rational, so smoothness, completeness, ampleness, vertex positions,
volumes and barycenters are exact.  Float offsets are accepted for the few
workflows that genuinely need irrational parameters; those go through the
same code paths with a small absolute tolerance.  :func:`tolerance` makes
that choice once per polytope, from its own data, and the polytope carries
it.

Each polytope's derived data is computed in one place.  Both vertex routes,
per maximal cone from support numbers and by enumeration from raw
halfspaces, compute the slack <d_j, v> + c_j of every halfspace at every
candidate vertex; the polytope's tight sets and redundancy flags are read
off those slack rows, and its triangulation is ``Polytope.mesh``, computed
on first use.

Conventions: a ray is a primitive integer column vector; a support vector
``c`` over a fan with rays ``d_j`` cuts out ``P = {x : <d_j, x> >= -c_j}``.
Raw halfspace input uses the same lower-bound form.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, isfinite, lcm

from . import linalg
from .linalg import dot
from .errors import EmptyPolytopeError, InputError, UnboundedPolytopeError

DEFAULT_FLOAT_TOL = 1e-9

# Raw vertex enumeration screens all C(m, n) row subsets in float, 906,192 at
# this cap, and solves exactly only those it cannot rule out.
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
    for ci, cone in enumerate(fan.max_cones):
        d = linalg.det([fan.rays[i] for i in cone])
        if abs(d) != 1:
            smooth = False
            witnesses.append(("smooth", {"cone": cone, "det": str(d)}))

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


def vertex_from_equalities(normals, offsets):
    """Solve <d_j, v> = -c_j for the listed normals; None when singular."""
    rhs = [-_coerce(c) for c in offsets]
    mat = [_vec(d) for d in normals]
    return linalg.solve(mat, rhs, tol=tolerance([*rhs, *(x for row in mat for x in row)]))


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

    A cone's vertex v is where its rays' halfspaces are tight, and its slack
    row holds <d_j, v> + c_j for every ray j, the cone's own included, so a
    polytope reads its tight sets off the rows.  A ray outside the cone with
    slack below -tol breaks convexity, and the vertices and rows found up to
    there come back; a slack within tol is the nef boundary.  A float vertex
    or slack that overflowed is an input error, since it would compare false
    against both bounds.
    """
    vertices, slacks, nef_witness = [], [], None
    for ci, cone in enumerate(fan.max_cones):
        v = vertex_from_equalities([fan.rays[j] for j in cone], [c[j] for j in cone])
        if v is None:
            raise InputError(f"cone {cone} is not simplicial of full rank")
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


def _distinct(points, tol):
    """Indices of the points not within tol of an earlier kept point."""

    def same(v, w):
        return v == w if tol == 0 else all(abs(a - b) <= tol for a, b in zip(v, w))

    kept = []
    for i, v in enumerate(points):
        if not any(same(v, points[k]) for k in kept):
            kept.append(i)
    return kept


def _polytope(dim, halfspaces, candidates, slacks, tol):
    """The polytope of valid ``halfspaces`` whose vertices are ``candidates``.

    ``slacks[i][j]`` is <d_j, v_i> + c_j at candidate i, as the vertex
    enumeration computed it.  Candidates within tol of an earlier one are
    merged into it, and the tight sets are read off the kept rows.
    """
    kept = _distinct(candidates, tol)
    vertices = tuple(candidates[i] for i in kept)
    hull_rank = linalg.affine_rank(vertices, tol)
    tight_sets, redundant = _tight_and_redundant(
        dim, halfspaces, [slacks[i] for i in kept], hull_rank, tol
    )
    return Polytope(
        dim=dim,
        halfspaces=halfspaces,
        vertices=vertices,
        tight_sets=tight_sets,
        redundant=redundant,
        tol=tol,
        degenerate=hull_rank < dim,
    )


def _tight_and_redundant(dim, halfspaces, slacks, hull_rank, tol):
    """Tight vertex sets of the halfspaces, and which ones support no facet.

    Halfspace j is tight at vertex i when ``slacks[i][j]`` is within tol.
    Facets of a full-dimensional polytope are its inclusion-maximal proper
    faces, and each is the tight set of some halfspace of the description,
    so a halfspace supports a facet exactly when its tight set is proper and
    lies in no larger proper tight set (Kaibel-Pfetsch, Comput. Geom. 2002).
    A polytope of hull rank dim-1 has one facet set, all of its vertices, and
    a lower one none.  This is the rule "affine rank of the tight set is
    dim-1", read off the incidences instead of a rank per halfspace.  A row
    with a zero normal cuts nothing, so it is redundant even where it is
    tight at every vertex.
    """
    tight_sets = tuple(
        tuple(i for i, row in enumerate(slacks) if abs(row[j]) <= tol)
        for j in range(len(halfspaces))
    )
    sets = [frozenset(t) for t in tight_sets]
    everything = frozenset(range(len(slacks)))
    # A tight set is redundant when it lies strictly inside one of these.
    larger = {s for s in sets if s != everything} if hull_rank == dim else {everything}
    redundant = tuple(
        hull_rank < dim - 1 or not any(normal) or any(s < t for t in larger)
        for (normal, _), s in zip(halfspaces, sets)
    )
    return tight_sets, redundant


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
    vertices, slacks, amp = cones or _cone_vertices(fan, c, tolerance(c))
    if amp.kind is Ampleness.NOT_CONVEX:
        ci, j = amp.witness
        raise InputError(
            f"support is not convex: the vertex of cone {list(fan.max_cones[ci])} violates ray {j}"
        )
    return _polytope(fan.dim, tuple(zip(fan.rays, c)), vertices, slacks, tolerance(c))


def _vertex_subsets(hs, tol):
    """Row n-subsets, in lexicographic order, that a float screen cannot rule out.

    Rows are scaled to integers as G = [normals | offsets].  For a subset S
    and a row k the cofactors z of row k in det G[S + k] give z . G[k] =
    det A_S * slack_k (Schur complement), with z_n = det A_S.  Laplace
    expansion along the rows of G[S] keeps every partial sum within P, the
    product of the rows' l1 norms, so det A_S is exact while the normals' P
    is below 2**52, and then nonzero means |det A_S| >= 1.  z . G[k] is off
    by at most (n + 2)**2 eps |G[k]|_1 P (Higham's gamma bounds).  S is
    dropped when det A_S = 0, or when some slack is negative beyond twice
    that error times the growth 2**n of the exact path's own pivoting on
    float offsets.  Rows with float normals, or with a scale or entry of
    2**52 or more, prove nothing.
    """
    import numpy as np

    m, n = len(hs), len(hs[0][0])
    # A float has no denominator: its row is unsafe or scaled by the others.
    scales = [lcm(1, *(getattr(x, "denominator", 1) for x in (*d, c))) for d, c in hs]
    rows = [[Fraction(x) * s for x in (*d, c)] for (d, c), s in zip(hs, scales)]
    unsafe = [tolerance(d) > 0 or max(s, *map(abs, row)) >= 2**52
              for (d, _), row, s in zip(hs, rows, scales)]
    G = np.array([[0.0 if bad else float(x) for x in row] for row, bad in zip(rows, unsafe)])
    norms, norms_a = np.abs(G).sum(axis=1), np.abs(G[:, :n]).sum(axis=1)
    proof = ~np.array(unsafe)
    tols = np.array([0.0 if bad else tol * s for s, bad in zip(scales, unsafe)])
    margin = 2.0**n * 2 * (n + 2) ** 2 * 2.0**-52  # 2.0**-52 is float64's eps
    levels, position = [], {(): 0}
    for k in range(n):
        cols = list(itertools.combinations(range(n + 1), k + 1))
        minor = [[position[c[:i] + c[i + 1:]] for i in range(k + 1)] for c in cols]
        sign = np.array([(-1.0) ** (k + i) for i in range(k + 1)])
        levels.append((np.array(minor), np.array(cols), sign))
        position = {c: i for i, c in enumerate(cols)}
    # the minor without column j is at position n - j
    cofactor_sign = np.array([(-1.0) ** (n + j) for j in range(n + 1)])
    subsets = itertools.combinations(range(m), n)
    while block := list(itertools.islice(subsets, 256)):
        idx = np.array(block)
        z, parent = np.ones((1, 1)), np.zeros(len(block), dtype=int)
        for k, (minor, cols, sign) in enumerate(levels):
            # Equal row prefixes are adjacent; their minors are computed once.
            first = np.diff(idx[:, : k + 1], axis=0, prepend=-1).any(axis=1)
            z = (z[parent[first]][:, minor] * G[idx[first, k, None, None], cols] * sign).sum(axis=2)
            parent = np.cumsum(first) - 1
        z = z[:, ::-1] * cofactor_sign
        det = z[:, n, None]
        # det A_S**2 * slack_k against the bound times |det A_S|
        slack = (z[:, None, :] * G).sum(axis=2) * det
        bound = (margin * norms[idx].prod(axis=1)[:, None] * norms + np.abs(det) * tols) * np.abs(det)
        exact_det = proof[idx].all(axis=1) & (norms_a[idx].prod(axis=1) < 2.0**52)
        drop = exact_det & ((det[:, 0] == 0) | (proof & (slack < -bound)).any(axis=1))
        yield from itertools.compress(block, ~drop)


def polytope_from_halfspaces(halfspaces):
    """Vertex enumeration for an explicit halfspace list.

    Row n-subsets that a float screen cannot rule out are solved exactly, in
    lexicographic order, keeping solutions that satisfy every row.  One exact
    LP then certifies an empty system (Farkas) or finds a recession direction
    (Stiemke).  The tolerance is the :func:`tolerance` of these rows alone,
    0 when they are exact, whatever other polytopes they are used with.  The
    regime is dimension <= 6 and at most 32 halfspaces; larger input is an
    error.
    """
    hs = [(_vec(d), _coerce(c)) for d, c in halfspaces]
    if not hs:
        raise InputError("need at least one halfspace")
    n = len(hs[0][0])
    m = len(hs)
    if any(len(d) != n for d, _ in hs):
        raise InputError("halfspace normals must share one dimension")
    if n > MAX_RAW_DIM or m > MAX_RAW_HALFSPACES:
        raise InputError(
            f"raw halfspace regime is dim <= {MAX_RAW_DIM}, m <= {MAX_RAW_HALFSPACES}"
        )
    tol = tolerance([x for d, c in hs for x in (*d, c)])

    normals = [d for d, _ in hs]
    candidates, slack_rows, tight = [], [], []
    for subset in _vertex_subsets(hs, tol):
        # Exact rows tight at a known vertex meet in it or are singular.
        if tol == 0 and any(t.issuperset(subset) for t in tight):
            continue
        v = linalg.solve([normals[j] for j in subset], [-hs[j][1] for j in subset], tol)
        if v is None:
            continue
        slacks = [dot(d, v) + c for d, c in hs]
        if all(s >= -tol for s in slacks):
            candidates.append(v)
            slack_rows.append(slacks)
            tight.append({j for j, s in enumerate(slacks) if s == 0})

    columns = list(zip(*normals))
    if not candidates:
        # Farkas: empty iff some y >= 0 has sum y_j d_j = 0, sum y_j c_j = -1.
        certificate, _ = linalg.farkas(columns + [[c for _, c in hs]], [0] * n + [-1])
        if certificate is not None:
            raise EmptyPolytopeError("halfspace system is infeasible", certificate=certificate)
        raise UnboundedPolytopeError(
            "feasible but has no vertex", direction=linalg.kernel_vector(normals, tol)
        )
    # Stiemke: with rank A = n, P is bounded iff A^T (1 + y) = 0 for some
    # y >= 0; otherwise the ray has A d >= 0 and 1^T A d > 0.
    _, direction = linalg.farkas(columns, [-sum(col) for col in columns])
    if direction is not None:
        raise UnboundedPolytopeError(f"unbounded along {direction}", direction=direction)

    return _polytope(n, tuple(hs), candidates, slack_rows, tol)


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
    barycenter, both exact on rational meshes, and the float arrays of the
    weighted moment pass are computed on first use and kept here.
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
    def arrays(self):
        """Float vertices, shaped (simplex, vertex, axis), and float factors."""
        import numpy as np

        return np.array(self.simplices, dtype=float), np.array(self.factors, dtype=float)


def triangulate(polytope, apex="lexmin"):
    """Deterministic boundary-cone triangulation.

    Every face is coned from its lexicographically extreme vertex over the
    triangulations of the facets that miss it.  The scheme depends only on
    vertex coordinates, so it is independent of input ordering.

    The facets of a face F are the inclusion-maximal proper sets F n T over
    the facets T of the polytope: each facet G of F lies in a facet T that
    misses part of F, so G = F n T, and a proper F n T lies in some facet
    of F (Kaibel-Pfetsch, Comput. Geom. 2002).  No rank test is needed.
    """
    if polytope.degenerate:
        raise InputError("cannot triangulate a degenerate polytope")
    if apex not in ("lexmin", "lexmax"):
        raise InputError("apex rule must be 'lexmin' or 'lexmax'")
    verts = polytope.vertices
    n = polytope.dim
    tol = polytope.tol
    pick = min if apex == "lexmin" else max

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
            apex_idx = pick(face, key=lambda i: verts[i])
            subs = dict.fromkeys(tuple(i for i in face if i in tight) for tight in facet_sets)
            proper = {sub: set(sub) for sub in subs if len(sub) < len(face)}
            result = []
            for sub, members in proper.items():
                if apex_idx in members or any(members < s for s in proper.values()):
                    continue
                for simplex in tri_face(sub, d - 1):
                    result.append((apex_idx,) + simplex)
        cache[face] = result
        return result

    top = tuple(range(len(verts)))
    simplices = tuple(tuple(verts[i] for i in idx) for idx in tri_face(top, n))
    mesh = SimplexMesh(simplices=simplices)
    if any(w <= tol for w in mesh.factors):
        raise ArithmeticError("degenerate simplex in triangulation")
    return mesh
