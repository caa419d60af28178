"""The lifted volume against the exact triangulated volume of the lifted polytope.

``lifted_config`` sums the lifted polytope's vertex cones, whose inverses
it takes from the part's; these tests triangulate the same polytope
instead, the independent route, and check every inverse it takes against
an elimination of its rows.  Nothing here needs numpy.
"""

import itertools
from fractions import Fraction

import pytest

from torifano import linalg
from torifano.geometry import Fan, polytope_from_halfspaces, triangulate
from torifano.problems import builtin_example
from torifano.stability import Decomposition, destabilizer, lifted_config

from reference_geometry import mesh_volume

EXACT_EXAMPLES = (
    "p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t", "hexagon-dP6-t:1/7", "pE-4fold-c:1/3", "p1-fubini",
)


def _parts(doc):
    if doc.halfspaces is not None:
        return [polytope_from_halfspaces(part) for part in doc.halfspaces]
    return list(Decomposition.from_fan(Fan(doc.rays, doc.max_cones), doc.decomposition).polytopes)


def _cube_fan(n, u=None):
    """(P^1)^n, its rays mapped to U d when a unimodular ``u`` is given."""
    rays = [tuple(sign * int(i == axis) for i in range(n)) for axis in range(n) for sign in (1, -1)]
    if u is not None:
        rays = [tuple(sum(a * b for a, b in zip(row, ray)) for row in u) for ray in rays]
    cones = [tuple(2 * axis + side for axis, side in enumerate(sides)) for sides in itertools.product((0, 1), repeat=n)]
    return Fan(rays, cones)


def _cube_parts(n, u=None):
    rows = [[Fraction(1, 2), Fraction(1, 3)] * n, [Fraction(1, 2), Fraction(2, 3)] * n]
    return list(Decomposition.from_fan(_cube_fan(n, u), rows).polytopes)


def _fields(n):
    return [(0,) * n, (1,) * n, tuple(Fraction((-1) ** i * (i + 1), 3) for i in range(n))]


def check_lift(polytope, vfield, cap=None):
    """The lift's volume is the mesh volume, and every inverse it wrote down is the eliminated one."""
    cfg = lifted_config(polytope, vfield, cap=cap)
    lifted = cfg.polytope
    assert cfg.volume_lifted == mesh_volume(triangulate(lifted)) == cfg.volume_product
    assert cfg.identity_holds
    for rows, (columns, scale, det) in lifted.inverses.items():
        assert linalg.integer_inverse(rows) == (list(range(len(rows))), (list(columns), scale, det))
    return cfg


@pytest.mark.parametrize("example", EXACT_EXAMPLES)
def test_builtin_lifts_match_their_meshes(example):
    parts = _parts(builtin_example(example))
    n = parts[0].dim
    fields = _fields(n) + [destabilizer(Decomposition(parts)) or (0,) * n]
    for part, vfield in itertools.product(parts, fields):
        for cap in (None, Fraction(7, 2)):
            check_lift(part, vfield, cap)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_fan_lifts_write_down_every_vertex_inverse(n):
    # Every vertex of a fan part is simple, so each lifts to two simple
    # vertices whose cones read their inverses and eliminate nothing.
    for part in _cube_parts(n):
        for vfield in _fields(n):
            lifted = check_lift(part, vfield).polytope
            assert len(lifted.inverses) == lifted.nvertices == 2 * part.nvertices == 2 ** (n + 1)
            assert all(rows in lifted.inverses for rows in lifted.vertex_rows)


def test_a_change_of_lattice_basis_keeps_the_lifted_volume():
    # Rays U d give the parts U^-T P; the field U v pairs with them as v
    # with P, so the lifted polytope moves by a unimodular map.
    u = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    vfield = (1, Fraction(-2, 3), 2)
    moved = tuple(sum(a * b for a, b in zip(row, vfield)) for row in u)
    for part, image in zip(_cube_parts(3), _cube_parts(3, u)):
        for cap in (None, Fraction(9, 4)):
            assert check_lift(image, moved, cap).volume_lifted == check_lift(part, vfield, cap).volume_lifted


@pytest.mark.parametrize("example", ["blowup-p2-1pt", "hexagon-dP6-t:1/7", "pE-4fold-c:1/3"])
def test_a_cap_at_the_graph_maximum_splits_the_merged_cones(example):
    # Where the cap meets the graph the two lifts merge, tight on both new
    # rows: those cones are not simple, and the rest still read inverses.
    for part in _parts(builtin_example(example)):
        n = part.dim
        vfield = tuple(Fraction(1, i + 1) for i in range(n))
        top = max(-sum(a * b for a, b in zip(vfield, vertex)) for vertex in part.vertices)
        lifted = check_lift(part, vfield, cap=top).polytope
        merged = [rows for rows in lifted.vertex_rows if len(rows) > n + 1]
        assert merged and not any(rows in lifted.inverses for rows in merged)
        assert lifted.nvertices < 2 * part.nvertices
        if part.inverses:
            assert all(rows in lifted.inverses for rows in lifted.vertex_rows if len(rows) == n + 1)


def test_a_raw_part_eliminates_its_lifted_cones():
    # A halfspace part knows no inverses, so its lifted cones are eliminated.
    box = polytope_from_halfspaces([((1, 0), 0), ((-1, 0), 2), ((0, 1), 0), ((0, -1), 1), ((-1, -1), Fraction(5, 2))])
    for vfield in _fields(2):
        lifted = check_lift(box, vfield).polytope
        assert lifted.inverses == {}
