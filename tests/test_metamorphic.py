"""Exact metamorphic rules: reorderings, translations and lattice changes.

Each rule maps a problem to an equivalent one and says how the answer moves,
so it checks the pipeline without a frozen number.  Examples are drawn by
hypothesis with a fixed seed.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torifano import cli
from torifano.geometry import translate
from torifano.problems import builtin_example
from torifano.stability import (
    Decomposition,
    coupled_ke_verdict,
    solve_soliton,
    sum_barycenter,
)

RULES = settings(max_examples=12, deadline=None, derandomize=True)

FAN_SPECS = ("p2", "p1xp1", "blowup-p2-1pt", "hexagon-dP6-t:0", "hexagon-dP6-t:1/10")

small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def _outcome(command, doc):
    """The report of ``command`` on ``doc`` without the document echo and the wall time."""
    args = cli.build_parser().parse_args([command])
    report, code = cli.run(command, doc, args)
    return cli.jsonable({"results": report["results"], "diagnostics": report["diagnostics"], "code": code})


@st.composite
def decompositions(draw):
    """A built-in fan document whose first row is split into translated multiples.

    Piece i of the first row c is a_i c + (<d_j, t_i>)_j: the polytope a_i P
    translated by t_i.  The a_i are positive and sum to one and the t_i sum
    to zero, so the columns still sum to the all-ones vector.
    """
    doc = builtin_example(draw(st.sampled_from(FAN_SPECS)))
    first, *rest = doc.decomposition
    k = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    shifts = draw(st.lists(st.tuples(*[small] * doc.dimension), min_size=k - 1, max_size=k - 1))
    shifts.append(tuple(-sum(t[i] for t in shifts) for i in range(doc.dimension)))
    pieces = tuple(
        tuple(Fraction(w, sum(weights)) * c + sum(a * b for a, b in zip(d, t)) for c, d in zip(first, doc.rays))
        for w, t in zip(weights, shifts)
    )
    return replace(doc, decomposition=pieces + tuple(rest))


@RULES
@given(doc=st.sampled_from(FAN_SPECS).map(builtin_example), data=st.data())
def test_permuting_rays_keeps_the_reports(doc, data):
    perm = data.draw(st.permutations(range(len(doc.rays))))
    new_index = {old: new for new, old in enumerate(perm)}
    moved = replace(
        doc,
        rays=tuple(doc.rays[old] for old in perm),
        max_cones=tuple(tuple(new_index[i] for i in cone) for cone in doc.max_cones),
        decomposition=tuple(tuple(row[old] for old in perm) for row in doc.decomposition),
    )
    for command in ("ke-verdict", "barycenter"):
        assert _outcome(command, moved) == _outcome(command, doc)


@RULES
@given(doc=decompositions(), data=st.data())
def test_permuting_parts_permutes_the_part_entries(doc, data):
    perm = data.draw(st.permutations(range(doc.k)))
    moved = replace(doc, decomposition=tuple(doc.decomposition[i] for i in perm))
    before, after = _outcome("barycenter", doc), _outcome("barycenter", moved)
    assert after["results"]["parts"] == [before["results"]["parts"][i] for i in perm]
    assert after["results"]["sum_barycenter"] == before["results"]["sum_barycenter"]
    assert _outcome("ke-verdict", moved) == _outcome("ke-verdict", doc)


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
    moved = replace(doc, rays=tuple(tuple(int(x) for x in u @ d) for d in doc.rays))
    v = solve_soliton(cli._decomposition(doc))
    w = solve_soliton(cli._decomposition(moved))
    assert v.converged and w.converged
    assert np.allclose(w.vfield, u @ np.array(v.vfield), rtol=0, atol=1e-9)
