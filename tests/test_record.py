"""The frozen record base: fields, equality, immutability and ``replace``."""

from fractions import Fraction

import pytest

from torifano import moments
from torifano._record import Record
from torifano.errors import InputError
from torifano.geometry import Fan, polytope_from_support
from torifano.problems import ProblemDocument
from torifano.stability import KEVerdict

from reference_geometry import translate
from reference_moments import mesh_moments

P2 = Fan(rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (1, 2), (2, 0)))
ONES = (Fraction(1), Fraction(1), Fraction(1))


class Pair(Record):
    x: int
    y: int = 0


class OtherPair(Record):
    x: int
    y: int = 0


def test_fields_by_position_or_keyword_with_defaults():
    assert Pair(1, 2) == Pair(x=1, y=2) == Pair(1, y=2)
    assert Pair(3).y == 0
    assert repr(Pair(1, 2)) == "Pair(x=1, y=2)"
    assert Fan(((0, 1), (1, 0), (-1, -1)), ((1, 0), (2, 1), (0, 2))) == P2.replace(rays=((0, 1), (1, 0), (-1, -1)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pair(),
        lambda: Pair(1, 2, 3),
        lambda: Pair(1, z=2),
        lambda: Pair(1, x=2),
        lambda: Fan(rays=P2.rays),
        lambda: KEVerdict(True, (), None, True),
        lambda: P2.replace(ray=()),
    ],
)
def test_missing_unknown_or_repeated_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_fields_can_be_neither_assigned_nor_deleted():
    p = polytope_from_support(P2, ONES)
    for record, name in ((P2, "rays"), (p, "vertices"), (p, "inverses"), (Pair(1), "y"), (Pair(1), "z")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert p.vertices and P2.rays == ((1, 0), (0, 1), (-1, -1))


def test_inverses_take_no_part_in_equality_hash_or_repr():
    p = polytope_from_support(P2, ONES)
    assert p.inverses
    bare = p.replace(inverses=None)
    assert bare == p and hash(bare) == hash(p)
    assert repr(bare) == repr(p) and "inverses" not in repr(p)
    assert p.replace(tol=1e-9) != p


def test_a_record_never_equals_another_class_with_the_same_values():
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert len({Pair(1, 2), Pair(1, 2), OtherPair(1, 2)}) == 2


def test_replace_checks_the_fields_again():
    assert P2.replace(max_cones=((1, 0), (2, 1), (0, 2))).max_cones == P2.max_cones
    with pytest.raises(InputError):
        P2.replace(max_cones=((0, 0), (1, 2), (2, 0)))
    with pytest.raises(InputError):
        P2.replace(rays=((1, 0), (0, 1, 0), (-1, -1)))


def test_replace_carries_no_cached_property():
    p = polytope_from_support(P2, ONES)
    assert p.cone_sums[1] == (0, 0) and mesh_moments(p.mesh.simplices)[2] == (0, 0)
    moved = translate(p, (Fraction(1, 3), Fraction(-2)))
    assert moments.barycenter(moved) == (Fraction(1, 3), Fraction(-2))
    assert moved.mesh is not p.mesh and mesh_moments(moved.mesh.simplices)[2] == (Fraction(1, 3), Fraction(-2))
    assert moments.volume(moved) == moments.volume(p)


def test_documents_without_options_do_not_share_a_dict():
    first, second = ProblemDocument("a", 1), ProblemDocument("b", 1)
    assert first.options == second.options == {}
    assert first.options is not second.options
    assert first.replace(name="c").options == {}
