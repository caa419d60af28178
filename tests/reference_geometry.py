"""Test-side polytope operations that no command runs.

The tests use these to build and check polytopes, and the package keeps
none of them:

- :func:`support_function`, max <u, p> over the vertex set;
- :func:`translate`, a polytope moved by a vector, its ``binary`` twin along
  with it, used as a metamorphic transformation;
- :func:`minkowski_sum`, the sum of support vectors over one fan rebuilt as
  a polytope, with the per-cone and per-ray additivity it rests on checked,
  so the property test sum P_i = P_{-K} behind every decomposition can run.
"""

from torifano import geometry
from torifano.errors import InputError
from torifano.geometry import Ampleness, polytope_from_support, tolerance
from torifano.linalg import dot


def support_function(polytope, u):
    """max_{p in P} <u, p>, evaluated on the vertex set."""
    u = geometry._vec(u)
    if len(u) != polytope.dim:
        raise InputError("direction has wrong dimension")
    if not polytope.vertices:
        raise InputError("support function of an empty polytope")
    return max(dot(u, v) for v in polytope.vertices)


def translate(polytope, t):
    """Translate a polytope; offsets shift by <d_j, t>, vertices exactly by t's exact value."""
    t = geometry._vec(t)
    if len(t) != polytope.dim:
        raise InputError("translation has wrong dimension")
    if all(x == 0 for x in t):
        return polytope
    shift = geometry._exact(t)
    return polytope.replace(
        halfspaces=tuple((d, c + dot(d, t)) for d, c in polytope.halfspaces),
        vertices=tuple(tuple(a + b for a, b in zip(v, shift)) for v in polytope.vertices),
        tol=max(polytope.tol, tolerance(t)),
        binary=polytope.binary and translate(polytope.binary, t),
    )


def minkowski_sum(fan, parts):
    """Sum support vectors over one fan and rebuild the polytope.

    All parts must be Ample or NefOnly.  The construction is linear per
    maximal cone, which is checked, along with support-number additivity
    on every ray direction, both within the parts' tolerance; a failed check
    raises ``ArithmeticError``.  Each support vector's cone vertices are
    solved once, by ``geometry._cone_vertices`` (which tests may patch), and
    give its class, its vertices and its tight-set masks.
    """
    parts = [geometry._support(fan, c) for c in parts]
    if not parts:
        raise InputError("need at least one summand")
    total = tuple(sum(c[j] for c in parts) for j in range(fan.nrays))
    cones = [geometry._cone_vertices(fan, c, tolerance(c)) for c in (total, *parts)]
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
