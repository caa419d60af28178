"""Fans, support polytopes, raw halfspace intersection, triangulation."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torifano import geometry, linalg
from torifano.errors import (
    EmptyPolytopeError,
    InputError,
    UnboundedPolytopeError,
)
from torifano.geometry import (
    Ampleness,
    Fan,
    ampleness_class,
    polytope_from_halfspaces,
    polytope_from_support,
    triangulate,
    validate_fan,
)
from torifano.moments import barycenter, volume
from torifano.problems import builtin_example, registry_names
from torifano.stability import Decomposition, coupled_ke_verdict, sum_barycenter

import reference_linalg as ref
from reference_geometry import mesh_volume, minkowski_sum, support_function, translate
from reference_moments import mesh_moments

P2 = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
P1XP1 = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)))
HEXAGON = Fan(
    ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
)
ONES6 = tuple(Fraction(1) for _ in range(6))


def test_p2_fan_is_smooth_complete_fano():
    report = validate_fan(P2)
    assert report.smooth and report.complete and report.fano
    assert report.ok
    assert report.witnesses == ()


def test_fan_rejects_nonprimitive_ray():
    fan = Fan(((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(InputError):
        validate_fan(fan)


def test_fan_rejects_duplicate_rays():
    fan = Fan(((1, 0), (1, 0), (0, 1)), ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(InputError):
        validate_fan(fan)


def test_incomplete_fan_reported():
    fan = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    report = validate_fan(fan)
    assert not report.complete
    assert any(tag == "complete" for tag, _ in report.witnesses)


def test_nonsmooth_cone_reported():
    # det((1,0),(1,2)) = 2: a singular cone.
    fan = Fan(((1, 0), (1, 2), (-1, -1), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)))
    report = validate_fan(fan)
    assert not report.smooth
    assert any(tag == "smooth" for tag, _ in report.witnesses)


# Guards that document ingest makes unreachable from the command line, which
# checks the same shapes first.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Fan(P2.rays, ((0, 1), (1, 3))), "cone index out of range in (1, 3)"),
        (lambda: Fan(P2.rays, ((-1, 0),)), "cone index out of range in (-1, 0)"),
        (lambda: polytope_from_support(P2, (1, 1)), "support vector length must match ray count"),
        (lambda: ampleness_class(P2, (1, 1, 1, 1)), "support vector length must match ray count"),
        (lambda: polytope_from_halfspaces([]), "need at least one halfspace"),
        (lambda: polytope_from_halfspaces([((1, 0), 0), ((1,), 1)]), "halfspace normals must share one dimension"),
        # The command line checks smoothness before any cone pass.
        (lambda: ampleness_class(Fan(((1, 0), (-1, 0), (0, 1)), ((0, 1), (0, 2), (1, 2))), (1, 1, 1)),
         "cone (0, 1) is not simplicial of full rank"),
        # A decomposition rejects a degenerate part before any moment.
        (lambda: triangulate(polytope_from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])),
         "cannot triangulate a degenerate polytope"),
    ],
)
def test_library_only_guards(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message


def test_p2_anticanonical_vertices():
    p = polytope_from_support(P2, (Fraction(1), Fraction(1), Fraction(1)))
    assert set(p.vertices) == {(-1, -1), (2, -1), (-1, 2)}


def test_cone_vertices_exact():
    # Two axis halfspaces at level 1/2 meet at the negated offsets.
    half = Fraction(1, 2)
    vertices, _, _ = geometry._cone_vertices(P2, (half, half, half), 0)
    assert vertices == [(-half, -half), (1, -half), (-half, 1)]
    assert all(type(x) is Fraction for v in vertices for x in v)


def test_cone_inverses_are_integral_exactly_on_smooth_cones():
    rng = random.Random(15)
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 2)]
        fan = Fan(rays, [rng.sample(range(n + 2), n) for _ in range(3)])
        for cone, inverse in zip(fan.max_cones, fan.cone_columns):
            matrix = [fan.rays[j] for j in cone]
            d = ref.det(matrix)
            if d == 0:
                assert inverse is None
                kinds.add("singular")
                continue
            columns, scale, _ = inverse
            rows = list(zip(*columns))
            assert all(type(x) is int for row in rows for x in row)
            integral = scale == 1
            assert integral == (abs(d) == 1)
            kinds.add("smooth" if integral else "not smooth")
            identity = [[scale * int(i == k) for k in range(n)] for i in range(n)]
            assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*matrix)] for row in rows] == identity
            # The scale is the least common denominator of the inverse.
            assert math.gcd(scale, *(x for row in rows for x in row)) == 1
    assert kinds == {"singular", "smooth", "not smooth"}


def test_simple_cone_weights_come_from_the_inverse():
    # Seeded simple cones {y : B y >= 0} with |det B| > 1, n <= 6: the
    # generators are the primitive columns of B^-1, and the weight
    # scale^n / (|det B| prod g_k) is the integer det of those generators.
    rng = random.Random("simple-cone-weights")
    checked = set()
    while len(checked) < 300:
        n = rng.randint(1, 6)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if abs(ref.det(rows)) < 2:
            continue
        columns = [ref.solve(rows, [int(i == k) for i in range(n)]) for k in range(n)]
        want = tuple(geometry._primitive(geometry._over_lcm(column)[1]) for column in columns)
        pieces = geometry._split_cone(rows, {})
        assert pieces == ((abs(linalg.integer_det(want)), want),)
        assert pieces == (geometry._piece(want),)
        checked.add(rows)


def _cone_vertices_reference(fan, c, tol):
    """``geometry._cone_vertices`` as it ran in Fractions: v = -D^-1 c with D^-1 over Q.

    Floats in ``c`` enter by their exact binary value.  A cone's mask has bit
    j set where the exact slack of ray j is within tol of 0.
    """
    c = [Fraction(x) for x in c]
    vertices, masks, nef_witness = [], [], None
    for ci, cone in enumerate(fan.max_cones):
        columns, scale, _ = linalg.integer_inverse([fan.rays[j] for j in cone])[1]
        inverse = [tuple(x if scale == 1 else Fraction(x, scale) for x in row) for row in zip(*columns)]
        offsets = [c[j] for j in cone]
        v = tuple(-linalg.dot(row, offsets) for row in inverse)
        row = [linalg.dot(ray, v) + cj for ray, cj in zip(fan.rays, c)]
        vertices.append(v)
        masks.append(sum(1 << j for j, slack in enumerate(row) if abs(slack) <= tol))
        for j, slack in enumerate(row):
            if j in cone:
                continue
            if slack < -tol:
                return vertices, masks, geometry.AmplenessReport(Ampleness.NOT_CONVEX, (ci, j))
            if slack <= tol and nef_witness is None:
                nef_witness = (ci, j)
    if nef_witness is not None:
        return vertices, masks, geometry.AmplenessReport(Ampleness.NEF_ONLY, nef_witness)
    return vertices, masks, geometry.AmplenessReport(Ampleness.AMPLE)


CUBE3 = Fan(
    [tuple(sign * int(i == axis) for i in range(3)) for axis in range(3) for sign in (1, -1)],
    [tuple(2 * axis + side for axis, side in enumerate(sides)) for sides in itertools.product((0, 1), repeat=3)],
)
# Cones of determinant 2 and 3: their inverses are not integral.
NONSMOOTH = (
    Fan(((1, 0), (1, 2), (-1, -1), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0))),
    Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -3)), ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
)


def _per_cone_inverses(fan):
    """``Fan.cone_columns`` by one elimination per maximal cone: the reference for wall crossing."""
    return tuple(linalg.integer_inverse([fan.rays[j] for j in cone])[1] for cone in fan.max_cones)


def _cube(n):
    """(P^1)^n: rays +-e_i, one cone per choice of signs."""
    rays = [tuple(sign * int(i == axis) for i in range(n)) for axis in range(n) for sign in (1, -1)]
    return Fan(rays, [tuple(2 * axis + side for axis, side in enumerate(sides)) for sides in itertools.product((0, 1), repeat=n)])


def _sheared(fan, rng):
    """The image of ``fan`` under a seeded product of eight shears, a GL(n, Z) map."""
    n = fan.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((1, -1)) * b for a, b in zip(u[i], u[j])]
    return Fan([tuple(linalg.dot(row, ray) for row in u) for ray in fan.rays], fan.max_cones)


def _wall_crossing_fans():
    """Built-in, cube, sheared, non-smooth and oddly connected fans, by name."""
    fans = {}
    for name in registry_names():
        doc = builtin_example(name)
        if doc.halfspaces is None:
            fans[name] = Fan(doc.rays, doc.max_cones)
    rng = random.Random("wall-crossing")
    for n in range(1, 7):
        fans[f"cube{n}"] = _cube(n)
        for k in range(2):
            fans[f"cube{n}-sheared{k}"] = _sheared(_cube(n), rng)
    fans["hexagon"], fans["det2"], fans["det3"] = HEXAGON, *NONSMOOTH
    fans["det3-sheared"] = _sheared(NONSMOOTH[1], rng)
    # The cone (1, 3) is singular and the only way from (0, 1) to (2, 3).
    rays = ((1, 0), (0, 1), (-1, 0), (0, -1))
    fans["singular-between"] = Fan(rays, ((0, 1), (1, 3), (2, 3)))
    fans["singular-first"] = Fan(rays, ((1, 3), (0, 1), (2, 3)))
    # No wall in common, and one wall (ray 0) in three cones.
    fans["no-common-wall"] = Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], ((0, 1, 2), (3, 4, 5)))
    fans["three-cone-wall"] = Fan(((1, 0), (0, 1), (-1, 1), (0, -1), (1, 2)), ((0, 1), (0, 2), (0, 3), (2, 4)))
    return fans


# Eliminations per fan where it is not 1: a singular seed is one that finds
# no inverse and reaches nothing.
_SEEDS = {"singular-between": 2, "singular-first": 3, "no-common-wall": 2}


@pytest.mark.parametrize("name", _wall_crossing_fans())
def test_wall_crossing_equals_the_per_cone_inverses(monkeypatch, name):
    # The same columns, scales, |det|s, types and None entries as one
    # elimination per cone, from one elimination per connected part of the
    # dual graph that a nonsingular cone starts.
    fan = _wall_crossing_fans()[name]
    seeds = []
    real = linalg.integer_inverse
    monkeypatch.setattr(linalg, "integer_inverse", lambda rows: seeds.append(rows) or real(rows))
    got = fan.cone_columns
    assert len(seeds) == _SEEDS.get(name, 1)
    monkeypatch.setattr(linalg, "integer_inverse", real)
    want = _per_cone_inverses(fan)
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if w is not None:
            assert type(g[0]) is list and all(type(column) is tuple for column in g[0])
            assert all(type(x) is int for column in g[0] for x in column) and type(g[1]) is int
    for cone, found in zip(fan.max_cones, got):
        if found is not None:
            assert found[2] == abs(linalg.integer_det([fan.rays[j] for j in cone]))
    if name.startswith("singular"):
        assert sum(found is None for found in got) == 1


def test_wall_crossing_through_a_non_smooth_cone():
    # From a det-2 cone into a det-1 and a det-3 one, and on, with the
    # scale reduced at each step.
    rays = ((1, 0), (1, 2), (-1, 1), (-1, -2), (2, -1))
    fan = Fan(rays, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert fan.cone_columns == _per_cone_inverses(fan)
    assert [found[2] for found in fan.cone_columns] == [2, 3, 3, 5, 1]


@pytest.mark.parametrize("kind", ["exact", "nonsmooth", "float", "mixed"])
def test_integer_cone_vertices_match_the_fraction_version(kind):
    # Same vertices (values and types), tight-set masks, class and witness,
    # the partial lists of NotConvex supports included.
    rng = random.Random(f"cone-vertices:{kind}")
    fans = NONSMOOTH if kind == "nonsmooth" else (P2, P1XP1, HEXAGON, CUBE3)
    seen = set()
    for _ in range(300):
        fan = rng.choice(fans)
        c = [Fraction(rng.choice((-1, 0, 1, 1, 2, 2, 3)), rng.choice((1, 1, 2, 3))) for _ in fan.rays]
        if kind == "float":
            c = [float(x) + rng.choice((0.0, 1e-12, 0.25)) for x in c]
        elif kind == "mixed":
            c[rng.randrange(len(c))] = rng.choice((0.5, 1.0, 1.0 / 3.0))
        c = geometry._vec(c)
        tol = geometry.tolerance(c)
        got = geometry._cone_vertices(fan, c, tol)
        want = _cone_vertices_reference(fan, c, tol)
        assert got == want
        assert [[type(x) for x in v] for v in got[0]] == [[type(x) for x in v] for v in want[0]]
        seen.add(got[2].kind)
        if got[2].kind is Ampleness.NOT_CONVEX and len(got[0]) < len(fan.max_cones):
            seen.add("partial")
    assert seen == {*Ampleness, "partial"}


def test_float_masks_compare_the_slack_over_its_denominator():
    # Cone (0, 1) has det 2, so its integer slack row is twice the slack:
    # ray 3's slack 6e-10 is within the tolerance, twice it is not.
    c = (1.0, 1.0, 1.0, 6e-10)
    _, masks, amp = geometry._cone_vertices(NONSMOOTH[0], c, geometry.tolerance(c))
    assert amp == geometry.AmplenessReport(Ampleness.NEF_ONLY, (0, 3))
    assert masks[0] == 0b1011

def test_exact_cone_vertices_build_fractions_only_for_the_vertices(monkeypatch):
    # Signs and tight sets are read off the integer slack rows, so the only
    # Fractions built are the vertex coordinates.
    c = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 4), Fraction(1, 5), Fraction(1, 6))
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    vertices, masks, amp = geometry._cone_vertices(CUBE3, c, 0)
    assert amp.kind is Ampleness.AMPLE
    assert len(built) == len(CUBE3.max_cones) * CUBE3.dim
    assert masks == [sum(1 << j for j in cone) for cone in CUBE3.max_cones]

def test_hexagon_vertices_triangulation_volume():
    p = polytope_from_support(HEXAGON, ONES6)
    assert p.nvertices == 6
    assert set(p.vertices) == {
        (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
    }
    mesh = triangulate(p)
    assert len(mesh.simplices) == 4
    assert mesh_volume(mesh) == volume(p) == 3
    assert mesh_moments(mesh.simplices)[2] == barycenter(p) == (0, 0)


def test_cube_triangulates_into_six_tetrahedra():
    halfspaces = []
    for axis in range(3):
        for sign in (1, -1):
            normal = [0, 0, 0]
            normal[axis] = sign
            halfspaces.append((tuple(normal), Fraction(1)))
    cube = polytope_from_halfspaces(halfspaces)
    assert cube.nvertices == 8
    mesh = triangulate(cube)
    assert len(mesh.simplices) == 6
    assert mesh_volume(mesh) == volume(cube) == 8


def test_redundant_halfspace_flagged():
    # x >= -1, x <= 1, and a slack copy of the upper bound.
    p = polytope_from_halfspaces(
        (((1,), Fraction(1)), ((-1,), Fraction(1)), ((-1,), Fraction(5)))
    )
    assert p.redundant == (False, False, True)
    assert set(p.vertices) == {(-1,), (1,)}


def test_zero_normal_row_is_redundant():
    # |x|, |y| <= 1 and 0 >= 0, a row tight at every vertex that cuts nothing.
    square = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    p = polytope_from_halfspaces(square + [((0, 0), 0)])
    assert p.tight_sets[4] == (0, 1, 2, 3)
    assert p.redundant == (False, False, False, False, True)


def test_nonconvex_support_raises():
    # A NotConvex hexagon row: its cone vertices miss (5, -3), a vertex of
    # the halfspace system, so they do not describe the polygon.
    row = tuple(Fraction(x) for x in ("8/3", "3", "3", "8", "2", "1/4"))
    assert ampleness_class(HEXAGON, row).kind is Ampleness.NOT_CONVEX
    with pytest.raises(InputError, match="not convex"):
        polytope_from_support(HEXAGON, row)
    raw = polytope_from_halfspaces(list(zip(HEXAGON.rays, row)))
    assert raw.nvertices == 5 and (5, -3) in raw.vertices


def _assert_farkas_certificate(rows, y):
    assert all(isinstance(x, Fraction) and x >= 0 for x in y)
    n = len(rows[0][0])
    assert all(sum(yj * d[i] for yj, (d, _) in zip(y, rows)) == 0 for i in range(n))
    assert sum(yj * c for yj, (_, c) in zip(y, rows)) < 0
    # The integer tableau pivots as the Fraction simplex does.
    assert y == ref.farkas([*zip(*(d for d, _ in rows)), [c for _, c in rows]], [0] * n + [-1])[0]


def test_empty_system_certificate():
    rows = (((1,), Fraction(-1)), ((-1,), Fraction(-1)))
    with pytest.raises(EmptyPolytopeError) as err:
        polytope_from_halfspaces(rows)
    _assert_farkas_certificate(rows, err.value.certificate)


def test_unbounded_system_direction():
    with pytest.raises(UnboundedPolytopeError) as err:
        polytope_from_halfspaces(
            (((1, 0), Fraction(0)), ((0, 1), Fraction(0)))
        )
    direction = err.value.direction
    assert direction is not None
    assert all(x >= 0 for x in direction) and any(x != 0 for x in direction)


def test_raw_route_dimension_guard():
    halfspaces = [((1,) * 7, Fraction(1))]
    with pytest.raises(InputError):
        polytope_from_halfspaces(halfspaces)


def test_support_function_hexagon():
    p = polytope_from_support(HEXAGON, ONES6)
    assert support_function(p, (1, 0)) == 1
    assert support_function(p, (1, 1)) == 1
    assert support_function(p, (-2, 0)) == 2


def test_translate_identity_and_shift():
    p = polytope_from_support(HEXAGON, ONES6)
    assert translate(p, (Fraction(0), Fraction(0))) == p
    q = translate(p, (Fraction(1, 3), Fraction(-2)))
    assert set(q.vertices) == {
        (x + Fraction(1, 3), y - 2) for x, y in p.vertices
    }


def test_minkowski_sum_recovers_anticanonical():
    t = Fraction(1, 10)
    half = Fraction(1, 2)
    row_plus = (half, half + t, half, half, half, half)
    row_minus = (half, half - t, half, half, half, half)
    total, poly = minkowski_sum(HEXAGON, (row_plus, row_minus))
    assert total == ONES6
    reference = polytope_from_support(HEXAGON, ONES6)
    assert set(poly.vertices) == set(reference.vertices)


def test_hexagon_row_ampleness_classes():
    half = Fraction(1, 2)

    def row(t):
        return (half, half + t, half, half, half, half)

    assert ampleness_class(HEXAGON, row(Fraction(1, 10))).kind is Ampleness.AMPLE
    assert ampleness_class(HEXAGON, row(Fraction(1, 2))).kind is Ampleness.NEF_ONLY
    assert ampleness_class(HEXAGON, row(Fraction(7, 10))).kind is Ampleness.NOT_CONVEX


def _mirror(polytope):
    """-P.  Lexmax pulling on P is lexmin pulling on -P, negated."""
    return polytope_from_halfspaces([(tuple(-x for x in d), c) for d, c in polytope.halfspaces])


def _cells(simplices, sign=1):
    """The simplices as a sorted list of sorted vertex tuples, scaled by sign."""
    return sorted(tuple(sorted(tuple(sign * x for x in v) for v in s)) for s in simplices)


def test_triangulation_apex_choices_agree_exactly():
    p = polytope_from_support(HEXAGON, ONES6)
    lo = triangulate(p)
    hi = triangulate(_mirror(p))
    assert _cells(lo.simplices) != _cells(hi.simplices, -1)
    assert mesh_volume(lo) == mesh_volume(hi)
    assert mesh_moments(lo.simplices)[2] == tuple(-x for x in mesh_moments(hi.simplices)[2])


@st.composite
def p2_supports(draw):
    # Positive supports keep the class ample on the projective plane.
    return tuple(
        Fraction(draw(st.integers(min_value=1, max_value=9)), draw(st.integers(min_value=1, max_value=4)))
        for _ in range(3)
    )


@settings(max_examples=40, deadline=None)
@given(p2_supports(), p2_supports())
def test_support_additivity_under_minkowski_sum(c1, c2):
    _, total = minkowski_sum(P2, (c1, c2))
    p1 = polytope_from_support(P2, c1)
    p2 = polytope_from_support(P2, c2)
    for u in ((1, 0), (0, 1), (-1, -1), (2, -3), (-1, 4)):
        assert support_function(total, u) == support_function(p1, u) + support_function(p2, u)


@settings(max_examples=40, deadline=None)
@given(
    p2_supports(),
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
    ),
)
def test_translate_equivariance_of_moments(c, shift):
    p = polytope_from_support(P2, c)
    mesh = triangulate(p)
    moved = translate(p, shift)
    moved_mesh = triangulate(moved)
    assert volume(moved) == mesh_volume(moved_mesh) == mesh_volume(mesh) == volume(p)
    want = tuple(b + s for b, s in zip(barycenter(p), shift))
    assert barycenter(moved) == mesh_moments(moved_mesh.simplices)[2] == want


# ---------------------------------------------------------------------------
# raw route: double description against solving every subset


def _all_subsets_reference(halfspaces, tol):
    """Vertices, tight sets and redundancy flags from solving every n-subset.

    The enumeration loop the raw route used before it screened subsets in
    float; kept here as the reference for content.  The vertices come back
    sorted, the order of the raw route, and the tight sets index them.
    """
    n = len(halfspaces[0][0])
    candidates = []
    for subset in itertools.combinations(range(len(halfspaces)), n):
        v = ref.solve(
            [halfspaces[j][0] for j in subset], [-halfspaces[j][1] for j in subset], tol=tol
        )
        if v is not None and all(linalg.dot(d, v) + c >= -tol for d, c in halfspaces):
            if not any(all(abs(a - b) <= tol for a, b in zip(v, w)) for w in candidates):
                candidates.append(v)
    tight_sets = tuple(
        tuple(i for i, v in enumerate(candidates) if abs(linalg.dot(d, v) + c) <= tol)
        for d, c in halfspaces
    )
    redundant = tuple(
        _affine_rank([candidates[i] for i in tight], tol) < n - 1 for tight in tight_sets
    )
    order = sorted(range(len(candidates)), key=candidates.__getitem__)
    position = {old: new for new, old in enumerate(order)}
    tight_sets = tuple(tuple(sorted(position[i] for i in tight)) for tight in tight_sets)
    return tuple(candidates[i] for i in order), tight_sets, redundant


def _shear(rng, rows, shears=5):
    """Rows of the image of the polytope under a seeded product of +-1 shears."""
    n = len(rows[0][0])
    out = [list(d) for d, _ in rows]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        for d in out:
            d[i] += sign * d[j]
    return [(tuple(Fraction(x) for x in d), Fraction(c)) for d, (_, c) in zip(out, rows)]


def _unit(n, i, sign=1):
    return tuple(sign * int(i == j) for j in range(n))


def _affine_rank(points, tol=0):
    """Dimension of the affine hull of a point collection, -1 when it is empty."""
    points = list(points)
    if not points:
        return -1
    return ref.rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]], tol)


def _box(n, r=1):
    return [(_unit(n, i, s), Fraction(r)) for i in range(n) for s in (1, -1)]


def _cross(n, r=1):
    return [(signs, Fraction(r)) for signs in itertools.product((1, -1), repeat=n)]


def _simplex(n, a):
    return [(_unit(n, i), Fraction(0)) for i in range(n)] + [((-1,) * n, Fraction(a))]


def _padded(rng, facets, extra):
    """Facets plus implied rows: loosened copies and sums of two facets.

    A sum of two facets meeting in a face is tight on that face, so it is
    implied yet touches vertices.
    """
    rows = list(facets)
    while len(rows) < len(facets) + extra:
        if len(rows) % 2:
            d, c = rng.choice(facets)
            rows.append((d, c + Fraction(rng.randint(1, 4), 3)))
        else:
            (d1, c1), (d2, c2) = rng.sample(facets, 2)
            d = tuple(a + b for a, b in zip(d1, d2))
            if any(d):
                rows.append((d, c1 + c2))
    rng.shuffle(rows)
    return rows


def _exact(rows):
    return [(tuple(Fraction(x) for x in d), Fraction(c)) for d, c in rows]


def _screened_systems():
    rng = random.Random(20)
    prism = [(d + (0,), c) for d, c in _simplex(2, 2)] + [((0, 0, 1), 1), ((0, 0, -1), 2)]
    shapes = [
        (_box(3, Fraction(3, 2)), 9),
        (_cross(3, 2), 4),  # every vertex lies on four facets
        (_simplex(4, 3), 6),
        (_exact(prism), 5),
        (_box(2), 6),
    ]
    for seed, (facets, extra) in enumerate(shapes):
        rows = _shear(random.Random(seed), _padded(rng, facets, extra))
        yield pytest.param(rows, 0, id=f"padded-{seed}")
    # Nearly parallel rows: slopes 1/50 apart, tight at the square's corners.
    rows = _box(2) + [((50, 1), 51), ((50, -1), 51), ((-1, 49), 50)]
    yield pytest.param(_exact(rows), 0, id="nearly-parallel")
    # A unimodular square whose normals are too large for an exact float
    # determinant (2**60 - (2**60 - 1) rounds to 0): the screen must keep it.
    # The last row's offset has a denominator no float can hold.
    a, b = (2**30, 2**30 + 1), (2**30 - 1, 2**30)
    rows = [(a, 0), ((-a[0], -a[1]), 1), (b, 0), ((-b[0], -b[1]), 1), (a, Fraction(1, 10**400))]
    yield pytest.param(_exact(rows), 0, id="huge-entries")
    # Float offsets go through the same screen with the float tolerance.
    rows = _shear(random.Random(7), _padded(rng, _cross(3, 1), 5))
    rows = [(d, float(c) + 0.1) for d, c in rows]
    yield pytest.param(rows, geometry.DEFAULT_FLOAT_TOL, id="float-offsets")


@pytest.mark.parametrize("rows,tol", _screened_systems())
def test_screened_enumeration_matches_all_subsets(rows, tol):
    polytope = polytope_from_halfspaces(rows)
    vertices, tight_sets, redundant = _all_subsets_reference(rows, tol)
    assert polytope.vertices == vertices
    assert polytope.tight_sets == tight_sets
    assert polytope.redundant == redundant
    assert any(redundant) and not all(redundant)


def _assert_matches_reference(rows, tol):
    """The raw route agrees with solving every subset: vertices within tol,
    tight sets through those vertices, redundancy flags; or both find none."""
    vertices, tight_sets, redundant = _all_subsets_reference(rows, tol)
    if not vertices:
        with pytest.raises(EmptyPolytopeError):
            polytope_from_halfspaces(rows)
        return
    polytope = polytope_from_halfspaces(rows)
    match = [
        next((i for i, w in enumerate(vertices) if all(abs(a - b) <= tol for a, b in zip(v, w))), None)
        for v in polytope.vertices
    ]
    assert None not in match and sorted(match) == list(range(len(vertices)))
    assert [{match[i] for i in t} for t in polytope.tight_sets] == [set(t) for t in tight_sets]
    assert polytope.redundant == redundant


def _small_system(rng, n, kind):
    """A box, a cross-polytope (a degenerate vertex on every axis) or a simplex,
    with up to 12 rows in all: random integer rows, optionally one coordinate
    pinned to 0 (a flat system), and optionally float offsets.  Zero normals,
    which the reference does not flag, have a test of their own."""
    facets = {"box": _box(n, 2), "cross": _cross(n, 2), "simplex": _simplex(n, 3)}[kind]
    rows = list(facets)
    while len(rows) < min(12, len(facets) + 4):
        d = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(d):
            rows.append((d, Fraction(rng.randint(-1, 4))))
    pinned = n > 1 and rng.random() < 0.3
    if pinned:
        rows[-2:] = [(_unit(n, 0), 0), (_unit(n, 0, -1), 0)]
    if rng.random() < 0.3:
        shift = 0.0 if pinned else 0.1
        return [(d, float(c) + shift) for d, c in rows], geometry.DEFAULT_FLOAT_TOL
    return _exact(rows), 0


# The 4-D cross-polytope has 16 facets, more than the 12 rows allowed here.
@pytest.mark.parametrize("kind,n", [(k, n) for k in ("box", "cross", "simplex") for n in (2, 3, 4) if (k, n) != ("cross", 4)])
@pytest.mark.parametrize("seed", range(4))
def test_double_description_matches_all_subsets_on_seeded_systems(kind, n, seed):
    rows, tol = _small_system(random.Random(f"{kind}:{n}:{seed}"), n, kind)
    _assert_matches_reference(_shear(random.Random(seed), rows) if tol == 0 else rows, tol)


@st.composite
def small_systems(draw):
    """A box of dimension <= 4 and further rows with small integer entries, at most 12 in all."""
    n = draw(st.integers(1, 4))
    rows = _box(n, draw(st.integers(1, 3)))
    normals = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    rows += draw(st.lists(st.tuples(normals, st.integers(-1, 4).map(Fraction)), max_size=12 - 2 * n))
    if n > 1 and draw(st.booleans()):
        rows[:2] = [(_unit(n, 0), Fraction(0)), (_unit(n, 0, -1), Fraction(0))]
    if draw(st.booleans()):
        return [(d, float(c) + draw(st.sampled_from((0.0, 0.1)))) for d, c in rows], geometry.DEFAULT_FLOAT_TOL
    return rows, 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_systems())
def test_double_description_matches_all_subsets(system):
    _assert_matches_reference(*system)


@pytest.mark.parametrize("seed", range(5))
def test_cut_cross_polytope_is_empty_in_every_basis(seed):
    # The 4-D cross-polytope with one row reversed past its facet; elimination
    # by Fourier-Motzkin took 0.5-50 s on these, depending on the basis.
    facets = _cross(4)
    (d, c), cut = facets[0], Fraction(1, 2)
    rows = _shear(random.Random(seed), facets + [(tuple(-x for x in d), -c - cut)])
    with pytest.raises(EmptyPolytopeError, match="infeasible") as err:
        polytope_from_halfspaces(rows)
    _assert_farkas_certificate(rows, err.value.certificate)


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_direction_is_a_recession_ray(seed):
    rows = _box(4, 2)
    del rows[random.Random(seed).randrange(len(rows))]
    rows = _shear(random.Random(seed), rows)
    with pytest.raises(UnboundedPolytopeError, match="unbounded along") as err:
        polytope_from_halfspaces(rows)
    direction = err.value.direction
    assert any(x != 0 for x in direction)
    assert all(linalg.dot(d, direction) >= 0 for d, _ in rows)


@pytest.mark.parametrize("seed", range(3))
def test_unbounded_direction_is_a_primitive_integer_ray_that_leaves_some_row(seed):
    rows = _box(4, 2)
    del rows[random.Random(seed).randrange(len(rows))]
    rows = _shear(random.Random(seed), rows)
    with pytest.raises(UnboundedPolytopeError) as err:
        polytope_from_halfspaces(rows)
    direction = err.value.direction
    assert all(type(x) is int for x in direction) and math.gcd(*direction) == 1
    assert any(linalg.dot(d, direction) > 0 for d, _ in rows)
    assert str(err.value) == f"unbounded along {list(direction)}"


def test_lines_without_vertex_reported_with_lineality():
    rows = [(d, c) for d, c in _box(3) if d[0] == 0]
    with pytest.raises(UnboundedPolytopeError, match="feasible but has no vertex") as err:
        polytope_from_halfspaces(rows)
    assert all(linalg.dot(d, err.value.direction) == 0 for d, _ in rows)
    assert err.value.direction == (1, 0, 0)


def test_lineality_is_a_primitive_integer_kernel_vector():
    # A prism along (1, 1, 1) in sheared coordinates, with float normals
    # taken at their exact binary value: the direction is the same.
    normals = [(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1)]
    rows = _shear(random.Random(4), [(d, 1) for d in normals])
    directions = []
    for scalar in (Fraction, float):
        with pytest.raises(UnboundedPolytopeError, match="feasible but has no vertex") as err:
            polytope_from_halfspaces([(tuple(scalar(x) / 4 for x in d), scalar(c)) for d, c in rows])
        directions.append(err.value.direction)
    direction = directions[0]
    assert directions[1] == direction == (1, 2, 1)
    assert all(type(x) is int for x in direction) and math.gcd(*direction) == 1
    assert all(linalg.dot(d, direction) == 0 for d, _ in rows)


def test_six_cube_at_the_regime_cap():
    rng = random.Random(6)
    facets = _box(6, Fraction(1, 2))
    rows = _padded(rng, facets, 20)
    implied = [(d, c) not in facets for d, c in rows]
    rows = _shear(random.Random(6), rows)
    assert (len(rows[0][0]), len(rows)) == (geometry.MAX_RAW_DIM, geometry.MAX_RAW_HALFSPACES)
    polytope = polytope_from_halfspaces(rows)
    assert polytope.nvertices == 64
    assert polytope.redundant == tuple(implied)
    assert len(set(polytope.vertices)) == 64


def _move_cone_vertices(monkeypatch, move):
    """Make every cone vertex v of support c be ``move(v, c on the cone)``.

    The tight-set masks follow the moved vertices; the class stays the real one.
    """
    real = geometry._cone_vertices

    def moved(fan, c, tol):
        vertices, _, amp = real(fan, c, tol)
        vertices = [move(v, [c[j] for j in cone]) for v, cone in zip(vertices, fan.max_cones)]
        masks = [
            sum(1 << j for j, (ray, cj) in enumerate(zip(fan.rays, c)) if abs(linalg.dot(ray, v) + cj) <= tol)
            for v in vertices
        ]
        return vertices, masks, amp

    monkeypatch.setattr(geometry, "_cone_vertices", moved)


def test_minkowski_sum_raises_when_cone_vertices_do_not_add(monkeypatch):
    # An affine map of every cone vertex keeps each part convex but breaks
    # additivity: the sum picks up the shift once, the parts once each.
    shift = (Fraction(1, 10), 0)
    _move_cone_vertices(monkeypatch, lambda v, offsets: tuple(x / 2 + s for x, s in zip(v, shift)))
    half = Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="per-cone vertices must add"):
        minkowski_sum(P2, ((half, half, half), (half, half, half)))


def test_minkowski_sum_raises_when_support_numbers_do_not_add(monkeypatch):
    # Shifting each cone vertex by a linear function of the cone's support
    # numbers keeps the per-cone vertices additive and every part convex,
    # but the halfspaces of rays 0 and 2 are no longer tight at any vertex.
    _move_cone_vertices(monkeypatch, lambda v, offsets: tuple(x + s for x, s in zip(v, (sum(offsets) / 10, 0))))
    half = Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="support numbers must add on rays"):
        minkowski_sum(P2, ((half, half, half), (half, half, half)))


# ---------------------------------------------------------------------------
# facets read off vertex-halfspace incidences against the affine-rank rule


def _flat_systems():
    # Besides the pinning rows: rows tight at one vertex, on an edge, nowhere.
    square = [(d + (0,), c) for d, c in _box(2) + [((1, 1), 2)]] + [((1, 0, 1), 1)]
    segment = [(d + (0, 0), c) for d, c in _box(1)] + [((1, 1, 0), 1), ((0, 1, 1), 0)]
    point = [((1, 1), 1)]
    systems = [
        ("square-R3", square, (2,), 2),
        ("segment-R3", segment, (1, 2), 1),
        ("point-R2", point, (0, 1), 0),
    ]
    for name, rows, pinned, hull_rank in systems:
        n = len(rows[0][0])
        rows = rows + [(_unit(n, i, s), 0) for i in pinned for s in (1, -1)]
        yield pytest.param(_exact(rows), 0, hull_rank, id=f"{name}-exact")
        floats = [(d, float(c)) for d, c in rows]
        yield pytest.param(floats, geometry.DEFAULT_FLOAT_TOL, hull_rank, id=f"{name}-float")


@pytest.mark.parametrize("rows,tol,hull_rank", _flat_systems())
def test_flat_polytope_facets_match_the_affine_rank_rule(rows, tol, hull_rank):
    polytope = polytope_from_halfspaces(rows)
    vertices, tight_sets, redundant = _all_subsets_reference(rows, tol)
    assert polytope.degenerate
    assert _affine_rank(polytope.vertices, tol) == hull_rank
    assert polytope.vertices == vertices
    assert polytope.tight_sets == tight_sets
    assert polytope.redundant == redundant
    # At hull rank n-1 only rows tight at every vertex support a facet; below it none do.
    everything = tuple(range(len(vertices)))
    assert redundant == tuple(hull_rank < polytope.dim - 1 or t != everything for t in tight_sets)


@pytest.mark.parametrize(
    "fan,c,hull_rank,redundant",
    [
        (P1XP1, (1, 0, 1, 0), 1, (True, False, True, False)),
        (P2, (0, 0, 0), 0, (True, True, True)),
        (HEXAGON, (1, 1, 0, 0, 0, 0), 1, (True, True, False, True, True, False)),
        (Fan(P2.rays, ()), (1, 1, 1), -1, (True, True, True)),
    ],
    ids=["p1xp1-segment", "p2-point", "hexagon-segment", "no-cones-empty"],
)
def test_flat_fan_polytopes_read_their_rank_off_the_implicit_equalities(fan, c, hull_rank, redundant):
    for row in (tuple(map(Fraction, c)), tuple(map(float, c))):
        polytope = polytope_from_support(fan, row)
        assert polytope.degenerate
        assert _affine_rank(polytope.vertices, polytope.tol) == hull_rank
        assert polytope.redundant == redundant
        assert polytope.tight_sets == tuple(
            tuple(i for i, v in enumerate(polytope.vertices) if abs(linalg.dot(d, v) + cj) <= polytope.tol)
            for d, cj in polytope.halfspaces
        )


def test_float_vertices_split_within_tol_merge_like_their_exact_twin():
    # In binary 0.1 + 0.2 > 0.3, so the float row x + y <= 0.3 cuts the
    # corner (0.1, 0.2) into two vertices within tol of each other; merged,
    # the corner is tight on every row either of them was tight on.
    assert 0.1 + 0.2 > 0.3
    rows = [((1, 0), 0.0), ((0, 1), 0.0), ((-1, -1), 0.3), ((-1, 0), 0.1), ((0, -1), 0.2)]
    floats = polytope_from_halfspaces(rows)
    exact = polytope_from_halfspaces([(d, Fraction(str(c))) for d, c in rows])
    assert floats.tol == geometry.DEFAULT_FLOAT_TOL
    for p in (floats, exact):
        assert (p.nvertices, p.redundant, p.degenerate) == (4, (False, False, True, False, False), False)
    twin = [
        next(k for k, w in enumerate(exact.vertices) if all(abs(a - b) <= floats.tol for a, b in zip(v, w)))
        for v in floats.vertices
    ]
    assert sorted(twin) == list(range(4))
    assert [tuple(sorted(twin[i] for i in t)) for t in floats.tight_sets] == list(exact.tight_sets)
    assert exact.tight_sets[2] == (exact.vertices.index((Fraction(1, 10), Fraction(1, 5))),)
    # The moments are those of the five binary vertices, rounded once: the
    # merged four would give the volume 0.019999999999999993.
    binary = polytope_from_halfspaces([(d, Fraction(c)) for d, c in rows])
    assert floats.binary.nvertices == binary.nvertices == 5
    assert floats.cone_sums == binary.cone_sums
    assert (volume(floats), barycenter(floats)) == (0.020000000000000004, (0.05, 0.1))


def _triangulate_reference(polytope, apex):
    """Boundary-cone simplices, each facet found by an affine-rank test.

    The loop triangulate ran before it read the facets of a face off the
    facet incidences; kept here as the reference for order and content.
    """
    verts, n = polytope.vertices, polytope.dim
    tol = 0 if all(isinstance(x, Fraction) for v in verts for x in v) else geometry.DEFAULT_FLOAT_TOL
    pick = min if apex == "lexmin" else max
    facet_sets = []
    for tight in polytope.tight_sets:
        if _affine_rank([verts[i] for i in tight], tol) >= n - 1 and tight not in facet_sets:
            facet_sets.append(tight)

    def tri_face(face, d):
        if d == 0 or len(face) == d + 1:
            return [face]
        apex_idx = pick(face, key=lambda i: verts[i])
        result, seen = [], []
        for tight in facet_sets:
            sub = tuple(i for i in face if i in tight)
            if apex_idx in sub or sub in seen:
                continue
            if _affine_rank([verts[i] for i in sub], tol) != d - 1:
                continue
            seen.append(sub)
            result += [(apex_idx,) + simplex for simplex in tri_face(sub, d - 1)]
        return result

    return tuple(tuple(verts[i] for i in idx) for idx in tri_face(tuple(range(len(verts))), n))


def _product(p, q):
    a, b = len(p[0][0]), len(q[0][0])
    return [(d + (0,) * b, c) for d, c in p] + [((0,) * a + e, c) for e, c in q]


def _triangulated_systems():
    hexagon = list(zip(HEXAGON.rays, ONES6))
    triangle = _simplex(2, 2)
    shapes = {
        "cube-3": _box(3),
        "cube-4": _box(4, Fraction(1, 2)),
        "cross-3": _cross(3),
        "prism": _product(triangle, _box(1)),
        "hexagon-x-interval": _product(hexagon, _box(1, 2)),
        "triangle-x-triangle": _product(triangle, _simplex(2, 1)),
        "hexagon-x-square": _product(hexagon, _box(2)),
    }
    for seed, (name, rows) in enumerate(shapes.items()):
        yield pytest.param(_exact(rows), id=name)
        yield pytest.param(_shear(random.Random(seed), _padded(random.Random(seed), _exact(rows), 3)),
                           id=f"{name}-sheared")
    for c in ("critical", "1/2"):
        for i, part in enumerate(builtin_example(f"pE-4fold-c:{c}").halfspaces):
            yield pytest.param(part, id=f"pE-4fold-c:{c}-part{i}")


@pytest.mark.parametrize("rows", _triangulated_systems())
@pytest.mark.parametrize("apex", ["lexmin", "lexmax"])
def test_triangulation_matches_the_affine_rank_facet_test(rows, apex):
    polytope = polytope_from_halfspaces(rows)
    if apex == "lexmin":
        assert triangulate(polytope).simplices == _triangulate_reference(polytope, apex)
    else:
        assert _cells(triangulate(_mirror(polytope)).simplices, -1) == _cells(_triangulate_reference(polytope, apex))


def test_one_rank_call_per_polytope_build(monkeypatch):
    # A build ranks the normals of its implicit equalities, the rows tight at
    # every vertex, and triangulation ranks nothing.
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda *a: calls.append(list(a[0])) or real(*a))
    cube = polytope_from_halfspaces(_shear(random.Random(3), _padded(random.Random(3), _box(3), 4)))
    hexagon = polytope_from_support(HEXAGON, ONES6)
    polytope_from_support(P1XP1, (1, 0, 1, 0))
    assert calls == [[], [], [[0, 1], [0, -1]]]
    assert not hasattr(linalg, "affine_rank")
    triangulate(cube)
    triangulate(hexagon)
    assert len(calls) == 3


def _unimodular(rng, n, shears=6):
    """A seeded product of elementary +-1 shears, as integer rows."""
    u = [list(_unit(n, i)) for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return u


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["p2", "blowup-p2-1pt", "hexagon-dP6-t:1/10"])
def test_lattice_change_of_basis_maps_the_barycenter_sum(name, seed):
    # Rays U d cut out {x : <d, U^T x> >= -c} = U^{-T} P, so U^T maps the
    # new barycenter sum back to the old one and the verdict is unchanged.
    doc = builtin_example(name)
    n = doc.dimension
    u = _unimodular(random.Random(seed), n)
    assert u != [list(_unit(n, i)) for i in range(n)]
    rays = [tuple(linalg.dot(row, d) for row in u) for d in doc.rays]
    fan = Fan(rays, doc.max_cones)
    assert validate_fan(fan).ok
    before = Decomposition.from_fan(Fan(doc.rays, doc.max_cones), doc.decomposition)
    after = Decomposition.from_fan(fan, doc.decomposition)
    moved = sum_barycenter(after)
    assert tuple(sum(u[k][i] * moved[k] for k in range(n)) for i in range(n)) == sum_barycenter(before)
    assert coupled_ke_verdict(after).exists == coupled_ke_verdict(before).exists


def test_float_support_is_classified_within_its_tolerance():
    # The vertex of cone 0 lies on ray 2's line, one rounding error away in
    # float: the float row is NefOnly like its exact twin, and ray 1's facet
    # shrinks to a point in both.
    row = (0.1, 0.3, 0.2, 1.0, 1.0, 1.0)
    twin = tuple(Fraction(str(x)) for x in row)
    assert ampleness_class(HEXAGON, twin) == geometry.AmplenessReport(Ampleness.NEF_ONLY, (0, 2))
    assert ampleness_class(HEXAGON, row) == ampleness_class(HEXAGON, twin)
    polys = [polytope_from_support(HEXAGON, c) for c in (row, twin)]
    assert [(p.nvertices, p.redundant) for p in polys] == [(5, (False, True, False, False, False, False))] * 2
    assert [p.tol for p in polys] == [geometry.DEFAULT_FLOAT_TOL, 0]


def test_float_support_nef_within_tol_is_measured_or_refused_at_its_binary_value():
    # In binary 0.1 + 0.2 > 0.3, so the vertex of cone 0 is 3e-17 inside
    # ray 2's halfspace: within tol the row is NefOnly with 5 vertices, and
    # its moments are those of the 6 vertices of its binary value.  With
    # 0.30000000000000004 that vertex is 3e-17 outside instead: NefOnly
    # within tol, not convex at the binary value, and refused.
    row = (0.1, 0.3, 0.2, 1.0, 1.0, 1.0)
    polytope = polytope_from_support(HEXAGON, row)
    binary = polytope_from_support(HEXAGON, [Fraction(x) for x in row])
    assert (polytope.nvertices, polytope.binary.nvertices, binary.nvertices) == (5, 6, 6)
    assert polytope.cone_sums == binary.cone_sums
    assert volume(polytope) == float(volume(binary))
    beyond = (0.1, 0.30000000000000004, 0.2, 1.0, 1.0, 1.0)
    assert ampleness_class(HEXAGON, beyond) == geometry.AmplenessReport(Ampleness.NEF_ONLY, (0, 2))
    assert ampleness_class(HEXAGON, [Fraction(x) for x in beyond]).kind is Ampleness.NOT_CONVEX
    with pytest.raises(InputError, match=r"not convex: the vertex of cone \[0, 1\] violates ray 2"):
        polytope_from_support(HEXAGON, beyond)


def test_float_minkowski_sum_adds_within_tolerance():
    parts = [(0.1, 0.3, 0.2, 0.4, 0.4, 0.4), (0.9, 0.7, 0.8, 0.6, 0.6, 0.6)]
    total, poly = minkowski_sum(HEXAGON, parts)
    assert total == (1.0,) * 6
    assert poly.nvertices == 6


def test_float_translation_keeps_vertices_exact():
    # Vertices move by the binary value of t, so the moments of the moved
    # polytope are its exact ones, rounded once.
    p = polytope_from_support(P2, (1, 1, 1))
    moved = translate(p, (0.1, 0))
    assert moved.vertices == tuple((x + Fraction(0.1), y) for x, y in p.vertices)
    assert moved.cone_sums == (p.cone_sums[0], (Fraction(0.1), Fraction(0)))
    assert barycenter(moved) == (0.1, 0.0) and volume(moved) == 4.5
    # A merged float polytope moves its binary twin along.
    rows = [((1, 0), 0.0), ((0, 1), 0.0), ((-1, -1), 0.3), ((-1, 0), 0.1), ((0, -1), 0.2)]
    floats = translate(polytope_from_halfspaces(rows), (Fraction(1, 3), 0))
    assert floats.binary.nvertices == 5
    assert floats.cone_sums[1][0] == polytope_from_halfspaces(rows).cone_sums[1][0] + Fraction(1, 3)


def test_tolerance_is_zero_exactly_on_rational_scalars():
    assert geometry.tolerance([1, Fraction(1, 3)]) == 0
    assert geometry.tolerance([]) == 0
    assert geometry.tolerance([1, 0.5]) == geometry.DEFAULT_FLOAT_TOL
    moved = translate(polytope_from_support(P2, (1, 1, 1)), (0.5, 0))
    assert moved.tol == geometry.DEFAULT_FLOAT_TOL
