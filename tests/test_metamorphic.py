"""Exact metamorphic rules: reorderings, translations and lattice changes.

Each rule maps a problem to an equivalent one and says how the answer moves,
so it checks the pipeline without a frozen number.  Examples are drawn by
hypothesis with a fixed seed.  The rules run on the plane fans of the
registry, on raw halfspace documents (pE-4fold-c, dimension 4), on a
fan document of (P^1)^3, on a raw system at the size cap, and on seeded
integer matrices for linalg's rank and kernel vector.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torifano import cli, linalg, moments
from torifano.geometry import MAX_RAW_DIM, MAX_RAW_HALFSPACES, polytope_from_halfspaces, triangulate
from torifano.problems import ProblemDocument, builtin_example
from torifano.stability import (
    Decomposition,
    coupled_ke_verdict,
    solve_soliton,
    sum_barycenter,
)

from reference_geometry import translate
from reference_moments import mesh_moments

RULES = settings(max_examples=12, deadline=None, derandomize=True)

FAN_SPECS = ("p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t:0", "hexagon-dP6-t:1/10")

small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def _outcome(command, doc):
    """The report of ``command`` on ``doc`` without the document echo and the wall time."""
    args = cli.build_parser().parse_args([command])
    report, code = cli.run(command, doc, args)
    return cli.jsonable({"results": report["results"], "diagnostics": report["diagnostics"], "code": code})


@st.composite
def decompositions(draw, docs=st.sampled_from(FAN_SPECS).map(builtin_example)):
    """A fan document whose first row is split into translated multiples.

    Piece i of the first row c is a_i c + (<d_j, t_i>)_j: the polytope a_i P
    translated by t_i.  The a_i are positive and sum to one and the t_i sum
    to zero, so the columns still sum to the all-ones vector.
    """
    doc = draw(docs)
    first, *rest = doc.decomposition
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    shifts = draw(st.lists(st.tuples(*[small] * doc.dimension), min_size=k - 1, max_size=k - 1))
    shifts.append(tuple(-sum(t[i] for t in shifts) for i in range(doc.dimension)))
    pieces = tuple(
        tuple(Fraction(w, sum(weights)) * c + sum(a * b for a, b in zip(d, t)) for c, d in zip(first, doc.rays))
        for w, t in zip(weights, shifts)
    )
    return doc.replace(decomposition=pieces + tuple(rest))


P1_CUBED = ProblemDocument(
    name="p1^3",
    dimension=3,
    rays=tuple(tuple(sign * int(i == axis) for i in range(3)) for axis in range(3) for sign in (1, -1)),
    max_cones=tuple(
        tuple(2 * axis + side for axis, side in enumerate(sides))
        for sides in itertools.product((0, 1), repeat=3)
    ),
    decomposition=(tuple(Fraction(1) for _ in range(6)),),
)


@st.composite
def raw_documents(draw):
    """pE-4fold-c:1/2 with its two equal parts translated apart, by shifts summing to zero."""
    doc = builtin_example("pE-4fold-c:1/2")
    shift = draw(st.tuples(*[small] * doc.dimension))
    parts = tuple(
        tuple((d, c + sign * sum(a * b for a, b in zip(d, shift))) for d, c in part)
        for part, sign in zip(doc.halfspaces, (1, -1))
    )
    return doc.replace(halfspaces=parts)


higher = st.one_of(raw_documents(), decompositions(st.just(P1_CUBED)))


def _permute_rows(doc, draw):
    """The same problem with its halfspace rows (a fan's rays) reordered."""
    if doc.halfspaces is not None:
        return doc.replace(halfspaces=tuple(tuple(draw(st.permutations(part))) for part in doc.halfspaces))
    perm = draw(st.permutations(range(len(doc.rays))))
    new_index = {old: new for new, old in enumerate(perm)}
    return doc.replace(
        rays=tuple(doc.rays[old] for old in perm),
        max_cones=tuple(tuple(new_index[i] for i in cone) for cone in doc.max_cones),
        decomposition=tuple(tuple(row[old] for old in perm) for row in doc.decomposition),
    )


def _rows_keep_the_reports(doc, draw):
    moved = _permute_rows(doc, draw)
    for command in ("ke-verdict", "barycenter"):
        assert _outcome(command, moved) == _outcome(command, doc)


def _parts_permute_the_part_entries(doc, draw):
    perm = draw(st.permutations(range(doc.k)))
    if doc.halfspaces is not None:
        moved = doc.replace(halfspaces=tuple(doc.halfspaces[i] for i in perm))
    else:
        moved = doc.replace(decomposition=tuple(doc.decomposition[i] for i in perm))
    before, after = _outcome("barycenter", doc), _outcome("barycenter", moved)
    assert after["results"]["parts"] == [before["results"]["parts"][i] for i in perm]
    assert after["results"]["sum_barycenter"] == before["results"]["sum_barycenter"]
    assert _outcome("ke-verdict", moved) == _outcome("ke-verdict", doc)


@RULES
@given(doc=st.sampled_from(FAN_SPECS).map(builtin_example), data=st.data())
def test_permuting_rays_keeps_the_reports(doc, data):
    _rows_keep_the_reports(doc, data.draw)


@RULES
@given(doc=higher, data=st.data())
def test_permuting_halfspace_rows_keeps_the_reports_in_higher_dimension(doc, data):
    _rows_keep_the_reports(doc, data.draw)


@RULES
@given(doc=decompositions(), data=st.data())
def test_permuting_parts_permutes_the_part_entries(doc, data):
    _parts_permute_the_part_entries(doc, data.draw)


@RULES
@given(doc=higher, data=st.data())
def test_permuting_parts_permutes_the_part_entries_in_higher_dimension(doc, data):
    _parts_permute_the_part_entries(doc, data.draw)


@RULES
@given(spec=st.sampled_from(("hexagon-dP6-t:0", "hexagon-dP6-t:1/10", "hexagon-dP6-t:-1/5")), data=st.data())
def test_translations_summing_to_zero_keep_the_verdict(spec, data):
    dec = cli._decomposition(builtin_example(spec))
    shifts = data.draw(st.lists(st.tuples(small, small), min_size=dec.k - 1, max_size=dec.k - 1))
    shifts.append(tuple(-sum(t[i] for t in shifts) for i in range(dec.dim)))
    moved = Decomposition(translate(p, t) for p, t in zip(dec.polytopes, shifts))
    assert all(p.tol == 0 for p in moved.polytopes)
    assert sum_barycenter(moved) == sum_barycenter(dec)
    assert coupled_ke_verdict(moved) == coupled_ke_verdict(dec)


# Products of elementary +-1 shears of the plane, as (row, sign) pairs.
shears = st.lists(st.tuples(st.sampled_from((0, 1)), st.sampled_from((1, -1))), min_size=1, max_size=4)


@RULES
@given(spec=st.sampled_from(("p2", "blowup-p2-1pt", "hexagon-dP6-t:1/10")), steps=shears)
def test_lattice_change_maps_the_soliton_field(spec, steps):
    # Rays U d cut out U^{-T} P, and A_{MP}(W) = M A_P(M^T W), so the
    # common zero W of the moved problem satisfies U^{-1} W = V.
    u = np.eye(2, dtype=int)
    for row, sign in steps:
        u[row] += sign * u[1 - row]
    doc = builtin_example(spec)
    moved = doc.replace(rays=tuple(tuple(int(x) for x in u @ d) for d in doc.rays))
    v = solve_soliton(cli._decomposition(doc))
    w = solve_soliton(cli._decomposition(moved))
    assert v.converged and w.converged
    assert np.allclose(w.vfield, u @ np.array(v.vfield), rtol=0, atol=1e-9)


@RULES
@given(doc=higher, data=st.data())
def test_lattice_change_maps_the_barycenters_in_higher_dimension(doc, data):
    # Normals U d cut out {x : <d, U^T x> >= -c} = U^{-T} P, so U^T maps
    # each moved barycenter, and their sum, back to the old one.
    n = doc.dimension
    u = np.eye(n, dtype=int)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.sampled_from((1, -1)))
    for i, j, sign in data.draw(st.lists(pairs, min_size=1, max_size=6)):
        u[i] += sign * u[j + (j >= i)]

    def move(d):
        return tuple(int(x) for x in u @ np.array(d))

    if doc.halfspaces is not None:
        moved = doc.replace(halfspaces=tuple(tuple((move(d), c) for d, c in part) for part in doc.halfspaces))
    else:
        moved = doc.replace(rays=tuple(move(d) for d in doc.rays))
    before, after = cli._decomposition(doc), cli._decomposition(moved)

    def back(b):
        return tuple(sum(int(u[k][i]) * b[k] for k in range(n)) for i in range(n))

    assert [back(moments.barycenter(p)) for p in after.polytopes] == list(map(moments.barycenter, before.polytopes))
    assert back(sum_barycenter(after)) == sum_barycenter(before)
    assert coupled_ke_verdict(after).exists == coupled_ke_verdict(before).exists


def _cut_box(rng):
    """The box [-2, 2]^6 and random integer rows that cut it, up to the size cap."""
    n = MAX_RAW_DIM
    rows = [(tuple(sign * int(i == axis) for i in range(n)), 2) for axis in range(n) for sign in (1, -1)]
    while len(rows) < MAX_RAW_HALFSPACES:
        d = tuple(rng.randint(-3, 3) for _ in range(n))
        width = sum(map(abs, d))
        if width >= 3:
            # <d, x> >= -c cuts off the box corner where <d, x> = -2 width.
            rows.append((d, rng.randint(2, 2 * width - 1)))
    return rows


@pytest.mark.parametrize("seed", [1, 2])
def test_vertices_at_the_size_cap_are_feasible_and_independent_of_basis_and_order(seed):
    rng = random.Random(seed)
    rows = _cut_box(rng)
    n = MAX_RAW_DIM
    polytope = polytope_from_halfspaces(rows)
    assert polytope.nvertices > 2**n
    assert not polytope.degenerate
    tight = [[] for _ in rows]
    for i, v in enumerate(polytope.vertices):
        slacks = [linalg.dot(d, v) + c for d, c in rows]
        assert min(slacks) >= 0
        assert linalg.rank([d for (d, _), s in zip(rows, slacks) if s == 0]) == n
        for j, s in enumerate(slacks):
            if s == 0:
                tight[j].append(i)
    assert polytope.tight_sets == tuple(map(tuple, tight))
    # Kaibel-Pfetsch: a row of a full-dimensional polytope supports a facet
    # exactly when its tight set lies in no larger proper tight set.
    sets = [set(t) for t in tight]
    proper = [t for t in sets if len(t) < polytope.nvertices]
    assert polytope.redundant == tuple(any(s < t for t in proper) for s in sets)
    order = list(range(len(rows)))
    rng.shuffle(order)
    shuffled = polytope_from_halfspaces([rows[k] for k in order])
    assert shuffled.vertices == polytope.vertices
    assert shuffled.tight_sets == tuple(polytope.tight_sets[k] for k in order)
    assert shuffled.redundant == tuple(polytope.redundant[k] for k in order)
    # Normals U d cut out U^{-T} P, so U^T maps the new vertices back.
    u = _unimodular(rng, n)
    assert abs(linalg.integer_det(u)) == 1
    moved = polytope_from_halfspaces([(tuple(linalg.dot(row, d) for row in u), c) for d, c in rows])
    back = {tuple(sum(u[k][i] * w[k] for k in range(n)) for i in range(n)) for w in moved.vertices}
    assert back == set(polytope.vertices)


def test_cone_sums_equal_the_triangulation_at_the_size_cap():
    # Several vertices of the cut box are on more than six rows, so their
    # tangent cones are split.
    polytope = polytope_from_halfspaces(_cut_box(random.Random(1)))
    assert any(len(pieces) > 1 for pieces in polytope.cones)
    mesh = triangulate(polytope)
    assert moments.volume(polytope) == mesh.volume
    # Its 15,859 simplices would take one Fraction elimination each; their
    # integer factors are the ones whose sum the volume just matched.
    factors = [Fraction(det, d**polytope.dim) for det, d in mesh._dets]
    assert moments.barycenter(polytope) == mesh_moments(mesh.simplices, factors)[2]


def _unimodular(rng, n):
    """A product of eight elementary shears: row i += sign * row j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return u


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rank_and_kernel_vector_under_row_orders_and_lattice_changes(seed):
    # Reordering integer rows M keeps their row space, so the rank and the
    # kernel vector.  M U has the same rank for U unimodular, and M U x = 0
    # exactly when M (U x) = 0, so U maps the kernel vector of M U into the
    # kernel of M, primitive still, and onto +-the kernel vector of M when
    # the kernel is a line.
    rng = random.Random(seed)
    nullities = set()
    for _ in range(150):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append([x - 2 * y for x, y in zip(a, b)])
        rank, vector = linalg.rank(rows), linalg.kernel_vector(rows)
        shuffled = rng.sample(rows, len(rows))
        assert linalg.rank(shuffled) == rank and linalg.kernel_vector(shuffled) == vector
        u = _unimodular(rng, n)
        moved = [[linalg.dot(row, column) for column in zip(*u)] for row in rows]
        assert linalg.rank(moved) == rank
        image = linalg.kernel_vector(moved)
        nullities.add(n - rank)
        if vector is None:
            assert image is None
            continue
        back = tuple(linalg.dot(row, image) for row in u)
        for v, m in ((vector, rows), (image, moved), (back, rows)):
            assert math.gcd(*v) == 1 and all(linalg.dot(row, v) == 0 for row in m)
        if n - rank == 1:
            assert back in (vector, tuple(-x for x in vector))
    assert {0, 1, 2} <= nullities


CROSS_3 = ProblemDocument(
    name="cross-3",
    dimension=3,
    halfspaces=(tuple((signs, Fraction(1)) for signs in itertools.product((1, -1), repeat=3)),),
)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "doc", [builtin_example("pE-4fold-c:1/2"), P1_CUBED, CROSS_3, builtin_example("hexagon-dP6-t:1/7")],
    ids=["pE-4fold", "p1^3", "cross-3", "hexagon"],
)
def test_cone_sums_equal_the_triangulation_under_lattice_changes(seed, doc):
    # Normals U d cut out U^{-T} P: the volume is kept, U^T maps the
    # barycenter back, and on the image cone sums equal the triangulation.
    n = doc.dimension
    u = _unimodular(random.Random(f"{doc.name}:{seed}"), n)
    assert abs(linalg.integer_det(u)) == 1

    def move(d):
        return tuple(linalg.dot(row, d) for row in u)

    if doc.halfspaces is not None:
        moved = doc.replace(halfspaces=tuple(tuple((move(d), c) for d, c in part) for part in doc.halfspaces))
    else:
        moved = doc.replace(rays=tuple(move(d) for d in doc.rays))
    for before, after in zip(cli._decomposition(doc).polytopes, cli._decomposition(moved).polytopes):
        mesh = triangulate(after)
        assert moments.volume(after) == mesh.volume == moments.volume(before)
        b = moments.barycenter(after)
        assert b == mesh_moments(mesh.simplices)[2]
        assert tuple(sum(u[k][i] * b[k] for k in range(n)) for i in range(n)) == moments.barycenter(before)
