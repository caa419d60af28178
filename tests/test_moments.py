"""Exact moments and the two weighted-integration routes."""

import contextlib
import decimal
import io
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torifano.geometry import (
    Fan,
    SimplexMesh,
    polytope_from_halfspaces,
    polytope_from_support,
    triangulate,
)
from torifano import cli, geometry, moments
from torifano.errors import InputError
from torifano.stability import lifted_config
from torifano.problems import builtin_example, document_to_dict, registry_names
from torifano.moments import (
    barycenter,
    volume,
    weighted_barycenter,
    weighted_moments,
)

import reference_linalg as ref
from reference_geometry import mesh_volume, translate
from reference_moments import divided_difference_exp, exp_moments_simplex, mesh_moments, moment_report, simplex_polytope

P2 = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))

PE_NORMALS_LEQ = (
    (-1, -1, 0, -2),
    (1, 0, 0, -2),
    (0, 1, 0, -2),
    (0, 0, -1, 3),
    (0, 0, 1, 3),
    (0, 0, 0, 6),
    (0, 0, 0, -6),
)


def pe_polytope(c):
    halfspaces = []
    for j, d in enumerate(PE_NORMALS_LEQ):
        offset = c if j in (3, 4) else Fraction(1, 2)
        halfspaces.append((tuple(-x for x in d), offset))
    return polytope_from_halfspaces(halfspaces)


def interval(a, b):
    """[a, b] from its two halfspaces; float endpoints are its vertices bit for bit."""
    return polytope_from_halfspaces([((1,), -a), ((-1,), b)])


def simplex_mass(simplex, vfield):
    """Integral of e^{<V,p>} over one simplex."""
    return weighted_moments(simplex_polytope(simplex), vfield, order=0).mass


def closed_form_mean(a, b, v):
    if v == 0:
        return 0.5 * (a + b)
    return (b * math.exp(v * b) - a * math.exp(v * a)) / (
        math.exp(v * b) - math.exp(v * a)
    ) - 1.0 / v


def test_p2_volume_and_barycenter():
    p = polytope_from_support(P2, (Fraction(1),) * 3)
    _, vol, bary = mesh_moments(triangulate(p).simplices)
    assert volume(p) == vol == Fraction(9, 2)
    assert barycenter(p) == bary == (0, 0)


def test_blowup_quad_barycenter():
    # Quadrilateral (-1,0),(0,-1),(2,-1),(-1,2): hand triangulation gives
    # areas 1 and 3 with centroids (1/3,-2/3) and (0,1/3).
    halfspaces = (
        ((1, 0), Fraction(1)),
        ((0, 1), Fraction(1)),
        ((-1, -1), Fraction(1)),
        ((1, 1), Fraction(1)),
    )
    p = polytope_from_halfspaces(halfspaces)
    _, vol, bary = mesh_moments(triangulate(p).simplices)
    assert volume(p) == vol == 4
    assert barycenter(p) == bary == (Fraction(1, 12), Fraction(1, 12))


def test_bundle_moments_match_closed_forms():
    for c in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        p = pe_polytope(c)
        vol = volume(p)
        bary = barycenter(p)
        assert mesh_moments(triangulate(p).simplices)[1:] == (vol, bary)
        assert vol == (56 * c - 3) / 144
        assert vol * bary[3] == (5 * c - 2) / 720
        assert bary[:3] == (0, 0, 0)


def test_bundle_fourth_coordinate_at_half():
    p = pe_polytope(Fraction(1, 2))
    assert barycenter(p)[3] == mesh_moments(triangulate(p).simplices)[2][3] == Fraction(1, 250)


# ---------------------------------------------------------------------------
# vertex-cone sums against the triangulation


def mesh_factors(mesh):
    """Each simplex's volume times dim!, the mesh's integer det over d^n, as a Fraction."""
    return tuple(Fraction(det, d**mesh.dim) for det, d in mesh._dets)


def assert_mesh_matches_the_reference(mesh):
    """The volume, factors and float factors equal the reference's, exact meshes too.

    Values and types match, floats bit for bit.  The volume is read first,
    so it does not lean on the factors.
    """
    factors, vol, _ = mesh_moments(mesh.simplices)
    got = (mesh_volume(mesh), *mesh_factors(mesh))
    want = (vol, *factors)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert [x.hex() for x in got if type(x) is float] == [x.hex() for x in want if type(x) is float]
    assert mesh.floats[1] == tuple(map(float, factors))


def assert_cone_sums_match_the_mesh(polytope, rounded=False):
    """Exact Vol and b by cone sums equal the one-det-per-simplex sums over the triangulation, as Fractions.

    The integer mesh volume matches the reference too.  A float polytope
    reports those Fractions ``rounded`` to floats.
    """
    mesh = triangulate(polytope)
    assert_mesh_matches_the_reference(mesh)
    _, vol, bary = mesh_moments(mesh.simplices)
    assert polytope.cone_sums == (mesh_volume(mesh), bary) and mesh_volume(mesh) == vol
    kind = float if rounded else Fraction
    assert (volume(polytope), barycenter(polytope)) == (kind(vol), tuple(map(kind, bary)))
    assert all(type(x) is kind for x in (volume(polytope), *barycenter(polytope)))


@pytest.mark.parametrize("spec", [*registry_names(), "hexagon-dP6-t:1/7", "hexagon-dP6-t:-1/5", "pE-4fold-c:1/3"])
def test_cone_sums_equal_the_triangulation_on_the_builtins(spec):
    doc = builtin_example(spec)
    for polytope in cli._decomposition(doc).polytopes:
        if not doc.exact:
            # Float parts are exact polytopes of the binary value of their
            # floats, and report their cone sums rounded once.
            assert_cone_sums_match_the_mesh(polytope, rounded=True)
            continue
        # Lifted meshes are exact and integer-computed too.
        n = polytope.dim
        for v in ((0,) * n, tuple(Fraction((-1) ** k * (k + 1), 3) for k in range(n))):
            assert_mesh_matches_the_reference(triangulate(lifted_config(polytope, v).polytope))
        # A fan part's cones reuse its fan's inverses and equal those of its facet rows alone.
        assert (polytope.inverses is not None) == (doc.halfspaces is None)
        assert polytope.cones == polytope.replace(inverses=None).cones
        assert_cone_sums_match_the_mesh(polytope)


def _random_simplex(rng, n):
    """A simplex of n + 1 random integer normals with sum_j a_j d_j = 0, a_j > 0, around 0."""
    while True:
        normals = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if ref.det(normals) != 0:
            break
    weights = [rng.randint(1, 3) for _ in normals]
    last = [-sum(a * d[i] for a, d in zip(weights, normals)) for i in range(n)]
    return [(tuple(d), Fraction(rng.randint(1, 9), rng.randint(1, 4))) for d in [*normals, last]]


def _random_cut_box(rng, n):
    """A box with generic rational offsets and two random integer cuts through it."""
    rows = [
        (tuple(sign * int(i == axis) for i in range(n)), Fraction(rng.randint(2, 9), rng.randint(1, 3)))
        for axis in range(n) for sign in (1, -1)
    ]
    for _ in range(2):
        rows.append((tuple(rng.randint(-3, 3) or 1 for _ in range(n)), Fraction(rng.randint(5, 40), 7)))
    return rows


@pytest.mark.parametrize("shape", [_random_simplex, _random_cut_box])
def test_cone_sums_equal_the_triangulation_on_simple_raw_parts(shape):
    rng = random.Random(shape.__name__)
    weights = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        polytope = polytope_from_halfspaces(shape(rng, n))
        if any(len(pieces) > 1 for pieces in polytope.cones):
            assert_mesh_matches_the_reference(triangulate(polytope))
            continue
        weights.update(weight for (weight, _), in polytope.cones)
        assert_cone_sums_match_the_mesh(polytope)
    # Unimodular and non-unimodular vertices both occur.
    assert 1 in weights and max(weights) > 1


def _cross_polytope(n):
    return [(signs, 1) for signs in itertools.product((1, -1), repeat=n)]


# A pyramid over the square [-1, 1]^2 with apex (0, 0, 1): the apex is on four facets.
SQUARE_PYRAMID = [((0, 0, 1), 0), ((1, 0, -1), 1), ((-1, 0, -1), 1), ((0, 1, -1), 1), ((0, -1, -1), 1)]


@pytest.mark.parametrize(
    "rows", [_cross_polytope(3), _cross_polytope(4), SQUARE_PYRAMID], ids=["cross-3", "cross-4", "pyramid"]
)
def test_cone_sums_equal_the_triangulation_on_non_simple_raw_parts(rows):
    polytope = polytope_from_halfspaces(rows)
    assert any(len(pieces) > 1 for pieces in polytope.cones)
    assert_cone_sums_match_the_mesh(polytope)


def test_cone_sums_of_a_six_cube_fan_match_the_product():
    # (P^1)^6: x_i in [-c_(2i), c_(2i+1)], so Vol is the product of the
    # widths and b_i the midpoint of each side.
    n = 6
    rng = random.Random(6)
    corners = itertools.product((0, 1), repeat=n)
    fan = Fan(
        [tuple(sign * int(i == axis) for i in range(n)) for axis in range(n) for sign in (1, -1)],
        [tuple(2 * axis + side for axis, side in enumerate(sides)) for sides in corners],
    )
    c = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(2 * n)]
    polytope = polytope_from_support(fan, c)
    assert volume(polytope) == math.prod(c[2 * i] + c[2 * i + 1] for i in range(n))
    assert barycenter(polytope) == tuple((c[2 * i + 1] - c[2 * i]) / 2 for i in range(n))


def _float_offset(rng, kind):
    """A positive float offset: a short decimal, which binary rounds, or a dyadic rational, which it keeps."""
    if kind == "decimal":
        return float(f"{rng.randint(0, 2)}.{rng.randint(1, 99):02d}")
    return rng.randint(1, 160) / 2 ** rng.randint(0, 6)


def _float_raw_part(rng, n, kind):
    """A box around 0 cut by two integer rows that keep 0 inside, with float offsets."""
    rows = [(tuple(sign * int(i == axis) for i in range(n)), _float_offset(rng, kind)) for axis in range(n) for sign in (1, -1)]
    for _ in range(2):
        normal = [rng.randint(-2, 2) for _ in range(n)]
        normal[rng.randrange(n)] = rng.choice((-1, 1))
        rows.append((tuple(normal), _float_offset(rng, kind)))
    return rows


def _assert_reported_as_rounded_cone_sums(tmp_path, doc, twins):
    """Each part's reported volume and barycenter are float() of the cone sums of its exact twin."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["barycenter", "--input", str(path)]) == 0
    parts = json.loads(out.getvalue())["results"]["parts"]
    assert len(parts) == len(twins)
    for part, twin in zip(parts, twins):
        assert twin.tol == 0
        vol, bary = twin.cone_sums
        assert float(part["volume"]) == float(vol)
        assert [float(x) for x in part["barycenter"]] == [float(x) for x in bary]


@pytest.mark.parametrize("kind", ["decimal", "dyadic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_float_moments_are_the_rounded_moments_of_the_binary_input(tmp_path, n, kind):
    # Float raw parts report Vol and b of the polytope of the exact binary
    # value of their rows, summed by cones and rounded once.
    rng = random.Random(f"float-moments:{n}:{kind}")
    for _ in range(3):
        parts = [_float_raw_part(rng, n, kind) for _ in range(2)]
        doc = {"name": "floats", "dimension": n, "halfspaces": [[[list(d), c] for d, c in rows] for rows in parts]}
        twins = [polytope_from_halfspaces([(d, Fraction(c)) for d, c in rows]) for rows in parts]
        _assert_reported_as_rounded_cone_sums(tmp_path, doc, twins)


def test_float_moments_of_the_builtin_bundle_and_a_float_hexagon_support(tmp_path):
    # The raw route at the critical bundle parameter, and the fan route on
    # a float support.
    bundle = builtin_example("pE-4fold-c:critical")
    twins = [polytope_from_halfspaces([(d, Fraction(c)) for d, c in rows]) for rows in bundle.halfspaces]
    _assert_reported_as_rounded_cone_sums(tmp_path, document_to_dict(bundle), twins)
    hexagon = document_to_dict(builtin_example("hexagon-dP6-t"))
    rows = [[0.5, 0.6, 0.5, 0.5, 0.5, 0.5], [0.5, 0.4, 0.5, 0.5, 0.5, 0.5]]
    fan = Fan(hexagon["rays"], hexagon["max_cones"])
    twins = [polytope_from_support(fan, [Fraction(x) for x in row]) for row in rows]
    _assert_reported_as_rounded_cone_sums(tmp_path, dict(hexagon, decomposition=rows), twins)


def test_degenerate_polytopes_have_no_exact_moments():
    flat = polytope_from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])
    assert flat.degenerate
    with pytest.raises(InputError):
        volume(flat)
    with pytest.raises(InputError):
        barycenter(flat)


# ---------------------------------------------------------------------------
# integer meshes against the one-det-per-simplex reference


def test_integer_meshes_equal_the_reference_on_hand_built_meshes():
    # Int coordinates give a Fraction volume; mixed denominators put the
    # simplices over different lcms, and the vertices of one simplex over
    # different denominators.
    square = (((0, 0), (2, 0), (0, 3)), ((2, 3), (0, 3), (2, 0)))
    mixed = (
        ((Fraction(1, 2), 0), (Fraction(1, 3), 1), (1, Fraction(2, 7))),
        ((Fraction(-1, 5), Fraction(1, 5)), (Fraction(3, 5), 0), (0, Fraction(4, 5))),
        ((1, 1), (2, 1), (1, 2)),
    )
    rng = random.Random("mesh:hand-built")
    scattered = tuple(
        tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)) for _ in range(4))
        for _ in range(20)
    )
    for simplices in (square, mixed, scattered):
        mesh = SimplexMesh(simplices=simplices)
        assert_mesh_matches_the_reference(mesh)
        assert all(type(x) is Fraction for x in (mesh_volume(mesh), *mesh_factors(mesh)))
    mesh = SimplexMesh(simplices=square)
    assert (mesh_volume(mesh), mesh_factors(mesh)) == (6, (6, 6))
    assert mesh_moments(square)[1:] == (6, (1, Fraction(3, 2)))


def test_float_meshes_are_measured_at_their_binary_value():
    # One exact code path: float coordinates are Fractions of their binary
    # value, and only ``floats`` rounds.
    simplices = (((0.0, 0.0), (0.1, 0.0), (0.0, 0.3)), ((0.1, 0.3), (0.0, 0.3), (0.1, 0.0)))
    mesh = SimplexMesh(simplices=simplices)
    exact = SimplexMesh(simplices=tuple(tuple(tuple(map(Fraction, v)) for v in s) for s in simplices))
    assert (mesh_volume(mesh), mesh_factors(mesh)) == (mesh_volume(exact), mesh_factors(exact))
    assert mesh_volume(mesh) == Fraction(0.1) * Fraction(0.3)
    assert all(type(x) is Fraction for x in (mesh_volume(mesh), *mesh_factors(mesh)))
    assert mesh.floats == (simplices, tuple(float(f) for f in mesh_factors(exact)))


def test_zero_volume_meshes_have_no_barycenter_on_either_route():
    for flat in ((((0, 0), (1, 1), (2, 2)),), (((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)),), ()):
        mesh = SimplexMesh(simplices=flat)
        assert mesh_volume(mesh) == 0
        assert not hasattr(mesh, "barycenter")
        with pytest.raises(InputError, match="zero-volume"):
            mesh_moments(flat)


def test_exact_meshes_build_fractions_only_for_their_outputs(monkeypatch):
    # Fractions are built per lcm and for the volume, none per simplex:
    # the lifted (P^1)^4 part is a 5-cube of 5! simplices.  Fraction
    # arithmetic builds its results through __new__ too, so the sums over
    # each lcm and the final division count.
    n = 4
    fan = Fan(
        [tuple(sign * int(i == axis) for i in range(n)) for axis in range(n) for sign in (1, -1)],
        [tuple(2 * axis + side for axis, side in enumerate(sides)) for sides in itertools.product((0, 1), repeat=n)],
    )
    polytope = polytope_from_support(fan, [Fraction(1, 2), Fraction(1, 3)] * n)
    simplices = triangulate(lifted_config(polytope, (1, 0, 0, -1)).polytope).simplices
    assert len(simplices) == 120
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    mesh = SimplexMesh(simplices=simplices)
    mesh_volume(mesh)
    lcms = {d for _, d in mesh._dets}
    assert len(built) <= 2 * len(lcms) + 2 < len(simplices)

def test_exp_integral_unit_interval():
    value = simplex_mass(((0,), (1,)), (1,))
    assert abs(value - (math.e - 1)) < 1e-14


def test_exp_integral_standard_2simplex_is_one():
    # Iterated integral of e^{x+y} over {x,y>=0, x+y<=1} is exactly 1.
    value = simplex_mass(((0, 0), (1, 0), (0, 1)), (1, 1))
    assert abs(value - 1.0) < 1e-14


def test_exp_integral_zero_field_is_volume():
    value = simplex_mass(((0, 0), (2, 0), (0, 2)), (0, 0))
    assert value == 2


def test_weighted_volume_interval_closed_forms():
    centred = interval(-1, 1)
    assert abs(weighted_moments(centred, (1,), order=0).mass - 2 * math.sinh(1)) < 1e-14
    assert abs(weighted_moments(centred, (0,), order=0).mass - 2) < 1e-15
    shifted = interval(0, 2)
    ratio = weighted_moments(shifted, (1,), order=0).mass / weighted_moments(centred, (1,), order=0).mass
    assert abs(ratio - math.e) < 1e-13


def test_weighted_barycenter_interval_closed_forms():
    assert abs(
        weighted_barycenter(interval(0, 1), (1,))[0] - 1 / (math.e - 1)
    ) < 1e-14
    want = 1 / math.tanh(1) - 1
    assert abs(weighted_barycenter(interval(-1, 1), (1,))[0] - want) < 1e-14


def test_weighted_barycenter_zero_field_is_exact_barycenter():
    p = polytope_from_support(P2, (Fraction(1),) * 3)
    assert weighted_barycenter(p, (Fraction(0), Fraction(0))) == (0, 0)


def test_covariance_frozen_values():
    assert abs(weighted_moments(interval(-1, 1), (0,)).covariance[0][0] - 1 / 3) < 1e-12
    square = polytope_from_halfspaces(
        (
            ((1, 0), Fraction(1)),
            ((-1, 0), Fraction(1)),
            ((0, 1), Fraction(1)),
            ((0, -1), Fraction(1)),
        ),
    )
    cov = weighted_moments(square, (0, 0)).covariance
    assert abs(cov[0][0] - 1 / 3) < 1e-12
    assert abs(cov[1][1] - 1 / 3) < 1e-12
    assert abs(cov[0][1]) < 1e-12


def test_hexagon_covariance_positive_definite_vs_quadrature():
    fan = Fan(
        ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
    )
    p = polytope_from_support(fan, (Fraction(1),) * 6)
    cov = np.array(weighted_moments(p, (2, 0)).covariance)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > 0
    # Independent route: raw moment accumulation over the mesh cells.
    m0 = m1 = None
    m2 = np.zeros((2, 2))
    m1 = np.zeros(2)
    m0 = 0.0
    for simplex in p.mesh.simplices:
        z0, z1, z2 = exp_moments_simplex(
            [[float(x) for x in v] for v in simplex], [2.0, 0.0], rtol=1e-13
        )
        m0 += z0
        m1 += np.asarray(z1)
        m2 += np.asarray(z2)
    mean = m1 / m0
    brute = m2 / m0 - np.outer(mean, mean)
    assert np.max(np.abs(brute - cov)) / np.max(np.abs(cov)) < 1e-9


def test_divided_difference_clustered_nodes():
    for n in (2, 5, 9):
        nodes = [0.3] * (n + 1)
        want = math.exp(0.3) / math.factorial(n)
        assert abs(divided_difference_exp(nodes) - want) < 1e-14 * want
    spread = [0.1, 0.1 + 1e-9, 0.1 + 2e-9]
    assert divided_difference_exp(spread) == pytest.approx(
        math.exp(0.1 + 1e-9) / 2, rel=1e-12
    )


def test_divided_difference_wide_nodes_match_direct_formula():
    nodes = [-3.0, 0.5, 4.0]
    direct = 0.0
    for i, a in enumerate(nodes):
        denom = 1.0
        for j, b in enumerate(nodes):
            if i != j:
                denom *= a - b
        direct += math.exp(a) / denom
    assert divided_difference_exp(nodes) == pytest.approx(direct, rel=1e-13)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        simplex_mass(((0,), (1000,)), (1,))


@pytest.mark.parametrize(
    "simplex, what",
    [
        (((-1e308,), (1e308,)), "mass"),  # the length, 2e308, overflows
        (((1e307,), (1e308,)), "covariance"),  # the variance, 6.75e614, overflows
    ],
)
def test_moments_that_overflow_raise(simplex, what):
    # A nan would pass silently into soliton-check reports and break Newton's eigvalsh.
    with pytest.raises(OverflowError, match=what):
        weighted_moments(interval(*(x for x, in simplex)), (0.0,))


@pytest.mark.parametrize(
    "simplex, order, want",
    [
        (((1e307,), (1e308,)), 1, 5.5e307),  # length times offset overflows
        (((0.0,), (1e110,)), 2, 1e220 / 12),  # length times offset squared overflows
    ],
    ids=["barycenter", "covariance"],
)
def test_moments_whose_products_overflow_are_computed(simplex, order, want):
    # The weights are taken over a power of two, so only the moment itself
    # has to be a float; at V = 0 the interval's mean and variance are exact.
    p = interval(*(x for x, in simplex))
    assert p.mesh.simplices == (simplex,)
    found = weighted_moments(p, (0.0,), order)
    got = found.barycenter[0] if order == 1 else found.covariance[0][0]
    assert got == pytest.approx(want, rel=1e-15)
    assert found.scaled_mass == simplex[1][0] - simplex[0][0]
    assert barycenter(p) == pytest.approx(((simplex[0][0] + simplex[1][0]) / 2,), rel=1e-15)


def test_dd_vs_quadrature_random_simplices():
    rng = np.random.RandomState(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        simplex = rng.uniform(-1.5, 1.5, size=(n + 1, n))
        while abs(np.linalg.det(simplex[1:] - simplex[0])) < 1e-3:
            simplex = rng.uniform(-1.5, 1.5, size=(n + 1, n))
        vfield = rng.uniform(-10, 10, size=n)
        dd = simplex_mass(
            tuple(map(tuple, simplex)), tuple(vfield)
        )
        quad, _, _ = exp_moments_simplex(simplex.tolist(), vfield.tolist(), rtol=1e-13)
        assert abs(dd - quad) / abs(quad) < 1e-9


def test_finite_difference_jacobian_matches_covariance():
    p = polytope_from_support(P2, (Fraction(1),) * 3)
    v = (0.4, -0.7)
    cov = np.array(weighted_moments(p, v).covariance)
    step = 1e-5
    jac = np.zeros((2, 2))
    for j in range(2):
        vp = list(v)
        vm = list(v)
        vp[j] += step
        vm[j] -= step
        ap = np.array(weighted_barycenter(p, tuple(vp)))
        am = np.array(weighted_barycenter(p, tuple(vm)))
        jac[:, j] = (ap - am) / (2 * step)
    assert np.max(np.abs(jac - cov)) < 1e-6


def test_weighted_barycenter_interior():
    p = polytope_from_support(P2, (Fraction(1),) * 3)
    for v in ((0.0, 0.0), (3.0, -2.0), (-8.0, 1.0)):
        a = weighted_barycenter(p, v)
        for (d, c), red in zip(p.halfspaces, p.redundant):
            if not red:
                assert sum(float(di) * ai for di, ai in zip(d, a)) > -float(c)


def test_mesh_independence_of_moments():
    # Lexmin pulling on the mirror image -P is lexmax pulling on P, negated.
    p = pe_polytope(Fraction(1, 2))
    mirror = polytope_from_halfspaces([(tuple(-x for x in d), c) for d, c in p.halfspaces])
    _, vlo, blo = mesh_moments(p.mesh.simplices)
    _, vhi, bhi = mesh_moments(mirror.mesh.simplices)
    assert mesh_volume(p.mesh) == vlo == vhi == mesh_volume(mirror.mesh)
    assert blo == tuple(-x for x in bhi)
    wlo = weighted_moments(p, (0.3, -0.2, 0.1, 1.0), order=0).mass
    whi = weighted_moments(mirror, (-0.3, 0.2, -0.1, -1.0), order=0).mass
    assert abs(wlo - whi) / abs(wlo) < 1e-12


def test_moment_report_cross_validates():
    report = moment_report(polytope_from_support(P2, (Fraction(1),) * 3), (1.0, 0.5))
    assert report.err_estimate < 1e-11
    assert report.volume == Fraction(9, 2)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    )
)
def test_weighted_barycenter_translation_equivariance(shift):
    p = polytope_from_support(P2, (Fraction(1),) * 3)
    moved = translate(p, shift)
    v = (0.8, -1.3)
    base = weighted_barycenter(p, v)
    out = weighted_barycenter(moved, v)
    for got, want, s in zip(out, base, shift):
        assert abs(got - (want + float(s))) < 1e-10


def decimal_divided_difference(nodes, digits=60):
    """[nodes] exp to ``digits`` digits by the mean-shifted series
    e^c sum_k h_k(a - c) / (m + k)!, h_k the complete homogeneous polynomial.
    The terms grow to about e^{spread/2} before they cancel, so the working
    precision grows with the spread."""
    spread = max(nodes) - min(nodes)
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 20 + int(spread / 4)
        xs = [decimal.Decimal(float(x)) for x in nodes]
        m = len(xs) - 1
        c = sum(xs) / len(xs)
        terms = int(1.5 * spread) + digits + 40
        h = [decimal.Decimal(1)] + [decimal.Decimal(0)] * terms
        for b in (x - c for x in xs):
            for k in range(1, terms + 1):
                h[k] += b * h[k - 1]
        total, fact = decimal.Decimal(0), decimal.Decimal(math.factorial(m))
        for k in range(terms + 1):
            total += h[k] / fact
            fact *= m + k + 1
        return c.exp() * total


def oracle_node_sets(low=-20, high=30, sizes=range(2, 10), reps=4):
    """Spread, clustered and repeated (multiplicity up to 3) node sets."""
    rng = random.Random(20261018)
    sets = []
    for size in sizes:
        for _ in range(reps):
            sets.append([rng.uniform(low, high) for _ in range(size)])
            centre = rng.uniform(low, high)
            sets.append([centre + rng.uniform(-1e-3, 1e-3) for _ in range(size)])
            base = [rng.uniform(low, high) for _ in range(size)]
            sets.append([base[i // 3] for i in range(size)])
    return sets


@pytest.mark.parametrize(
    "sets",
    [
        oracle_node_sets(),
        [[x - max(s) for x in s] for s in oracle_node_sets(-2700, 0, sizes=(3, 6, 9), reps=1)],
    ],
    ids=["nodes-in-[-20,30]", "spread-to-2700"],
)
def test_divided_difference_matches_decimal_oracle(sets):
    # The weighted pass shifts the largest node to 0, and P^2 with the field
    # (900, 0) spreads the nodes over 2700.
    for nodes in sets:
        want = decimal_divided_difference(nodes)
        got = decimal.Decimal(divided_difference_exp(nodes))
        assert abs(got - want) <= decimal.Decimal("1e-13") * want, nodes


def test_batched_divided_differences_match_decimal_oracle():
    # One batch mixes spreads, so rows take different numbers of squarings;
    # entry k of a row is the divided difference over its first k+1 nodes.
    rows = oracle_node_sets(sizes=(6,))
    top = max(max(r) for r in rows)
    got = moments._dd_rows(np.array(rows) - top)
    for row, out in zip(rows, got):
        for k in range(len(row)):
            want = decimal_divided_difference(row[: k + 1]) * decimal.Decimal(-top).exp()
            assert abs(decimal.Decimal(out[k]) - want) <= decimal.Decimal("1e-13") * want


@pytest.mark.parametrize("field", [400, 900])
def test_p2_large_field_matches_closed_form(field):
    # On the triangle (-1,-1), (2,-1), (-1,2) with V = (t, 0), u = 2 - x has
    # density u e^{-t u} on [0, 3] and y given x is uniform on [-1, 1 - x]:
    # E[x] = 2 - I2/I1, E[y] = -E[x]/2, Var x = I3/I1 - (I2/I1)^2 with
    # I_k = int_0^3 u^k e^{-t u} du; Var y = E[u^2]/12 + Var(x)/4, and the
    # mass is e^{2t} I1.
    t = float(field)
    tail = math.exp(-3 * t)

    def moment(k):
        partial = sum(3.0**j * t ** (k - j) * math.factorial(k) / math.factorial(j) for j in range(k + 1))
        return (math.factorial(k) - tail * partial) / t ** (k + 1)

    mean_u = moment(2) / moment(1)
    var_x = moment(3) / moment(1) - mean_u**2
    wm = weighted_moments(polytope_from_support(P2, (Fraction(1),) * 3), (field, 0))
    assert wm.barycenter == pytest.approx((2 - mean_u, (mean_u - 2) / 2), rel=1e-13)
    want = [[var_x, -var_x / 2], [-var_x / 2, moment(3) / moment(1) / 12 + var_x / 4]]
    assert np.max(np.abs(wm.covariance - want)) < 1e-9 * var_x
    assert wm.log_mass == pytest.approx(2 * t + math.log(moment(1)), rel=1e-14)


@pytest.mark.parametrize("field", [1e3, 1e4, 1e5])
def test_covariance_keeps_its_digits_far_from_the_barycenter(field):
    # Under V = (t, 0) the x-marginal on {x, y >= -1, x + y <= 1} is
    # (2 - x) e^{tx} on [-1, 2], so u = 2 - x is Gamma(2, t) cut at 3 and
    # Var x = 2 / t^2 up to a relative e^{-3t}.  The measure sits about 3
    # away from the barycenter, so taking the second moment there and
    # subtracting the squared mean would cancel most digits.
    cov = weighted_moments(polytope_from_support(P2, (Fraction(1),) * 3), (field, 0)).covariance
    assert cov[0][0] == pytest.approx(2 / field**2, rel=1e-12, abs=0)


def test_covariance_is_jacobian_and_matches_quadrature_in_four_dimensions():
    p = pe_polytope(Fraction(3, 5))
    for v in ((0.3, -0.2, 0.1, 1.0), (-1.5, 0.8, 2.0, -3.0)):
        wm = weighted_moments(p, v)
        step = 1e-5
        jac = np.zeros((4, 4))
        for j in range(4):
            vp, vm = list(v), list(v)
            vp[j] += step
            vm[j] -= step
            jac[:, j] = (np.array(weighted_barycenter(p, vp)) - np.array(weighted_barycenter(p, vm))) / (2 * step)
        assert np.max(np.abs(jac - wm.covariance)) < 1e-7
        m0, m1, m2 = 0.0, np.zeros(4), np.zeros((4, 4))
        for simplex in p.mesh.simplices:
            z0, z1, z2 = exp_moments_simplex([[float(x) for x in q] for q in simplex], v, wm.shift, rtol=1e-13)
            m0, m1, m2 = m0 + z0, m1 + z1, m2 + z2
        quad = m2 / m0 - np.outer(m1 / m0, m1 / m0)
        assert np.max(np.abs(quad - wm.covariance)) < 1e-9 * np.max(np.abs(wm.covariance))
        assert abs(m0 - wm.scaled_mass) < 1e-11 * m0
        assert np.max(np.abs(m1 / m0 - wm.barycenter)) < 1e-11


def _unimodular(rng, n):
    m = np.eye(n, dtype=int)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        m[i] += rng.choice((-1, 1)) * m[j]
    return m


@pytest.mark.parametrize("seed", range(4))
def test_weighted_moments_follow_unimodular_maps(seed):
    # For p -> M p: A_{MP}(M^{-T} V) = M A_P(V), the covariance becomes
    # M C M^T and the mass is unchanged, whatever triangulation MP gets.
    rng = random.Random(seed)
    p = pe_polytope(Fraction(3, 5))
    m = _unimodular(rng, 4)
    m_inv = np.rint(np.linalg.inv(m)).astype(int)
    image = polytope_from_halfspaces(
        [(tuple(int(x) for x in m_inv.T @ np.array(d)), c) for d, c in p.halfspaces]
    )
    v = np.array([rng.uniform(-2, 2) for _ in range(4)])
    base = weighted_moments(p, v)
    moved = weighted_moments(image, m_inv.T @ v)
    assert np.allclose(moved.barycenter, m @ base.barycenter, rtol=0, atol=1e-12)
    assert np.allclose(moved.covariance, m @ base.covariance @ m.T, rtol=0, atol=1e-11)
    assert moved.log_mass == pytest.approx(base.log_mass, rel=1e-13)


def test_mass_only_pass_agrees_with_full_pass():
    p = pe_polytope(Fraction(1, 2))
    v = (0.7, -0.4, 1.2, 2.5)
    full = weighted_moments(p, v)
    assert weighted_moments(p, v, order=0).log_mass == pytest.approx(full.log_mass, rel=1e-15)
    assert weighted_moments(p, v, order=1).barycenter == pytest.approx(full.barycenter, rel=1e-14)
    assert np.array_equal(weighted_moments(p, v).covariance, full.covariance)
    mass_only = weighted_moments(p, v, order=0)
    assert mass_only.log_mass == pytest.approx(math.log(mass_only.mass), rel=1e-14)
