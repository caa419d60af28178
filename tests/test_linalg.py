"""The elimination routines of linalg against plain Fraction references.

The references are the separate Gaussian elimination loops of
``reference_linalg``.  The float ``det`` runs the same arithmetic as the
det loop, so its results must be bitwise equal, signed zeros included.
The integer routines are one fraction-free pass, checked on integer rows
and on Fraction and float rows cleared to integers, floats by their exact
binary value: ``rank`` must equal the Fraction rank, ``kernel_vector`` be
a positive multiple of the Fraction kernel vector, ``integer_inverse``
match the Fraction solve and rank loops, and ``integer_det`` the det loop.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from torifano import linalg


def assert_same(got, want):
    """Equal values of equal type; floats equal bit for bit, signed zeros included."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, float):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (got, want)
    else:
        assert got == want


SCALARS = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-4, max_value=4, max_denominator=6),
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(-8, 8, allow_nan=False, allow_infinity=False),
    ),
}


@st.composite
def matrices(draw, kind, square=False):
    """1-7 x 1-8 matrices; some rows are combinations of others, so many are singular."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 8))
    free = draw(st.integers(1, nrows))
    rows = [draw(st.lists(SCALARS[kind], min_size=ncols, max_size=ncols)) for _ in range(free)]
    for _ in range(nrows - free):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.integers(-2, 2))
        rows.append([x + k * y for x, y in zip(a, b)])
    return [rows[i] for i in draw(st.permutations(range(nrows)))]


def _exact(matrix):
    """Rows as Fractions, floats by their exact binary value."""
    return [[Fraction(x) for x in row] for row in matrix]


def _integer_rows(matrix):
    """Each row times the lcm of its denominators."""
    rows = []
    for row in _exact(matrix):
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    return rows


@pytest.mark.parametrize("kind", sorted(SCALARS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_and_kernel_vector_match_the_separate_loops(kind, data):
    matrix = data.draw(matrices(kind))
    rows = _integer_rows(matrix)
    assert_same(linalg.rank(rows), ref.rank(_exact(matrix)))
    got, want = linalg.kernel_vector(rows), ref.kernel_vector(_exact(matrix))
    if want is None:
        assert got is None
        return
    # The reference vector is 1 at the first free column: got is got[f] times it.
    f = want.index(1)
    assert got[f] > 0 and tuple(got[f] * x for x in want) == got
    assert all(type(x) is int for x in got) and math.gcd(*got) == 1


# Exact determinants are integer_det's, checked below; det serves float meshes.
@pytest.mark.parametrize("kind", ["float"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_det_matches_the_separate_loop(kind, data):
    matrix = data.draw(matrices(kind, square=True))
    assert_same(linalg.det(matrix), ref.det(matrix))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_det_matches_the_fraction_reference(data):
    matrix = data.draw(matrices("int", square=True))
    got = linalg.integer_det(matrix)
    assert type(got) is int and got == ref.det(matrix)


@pytest.mark.parametrize("square", [True, False], ids=["square", "any-shape"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_inverse_matches_the_fraction_reference(square, data):
    matrix = data.draw(matrices("int", square=square))
    size = len(matrix[0])
    basis = []
    for j, row in enumerate(matrix):
        if len(basis) < size and ref.rank([matrix[i] for i in basis] + [row]) > len(basis):
            basis.append(j)
    found = linalg.integer_inverse(matrix)
    if len(basis) < size:
        assert found is None
        return
    kept, inverse, scale = found
    assert kept == basis
    b = [matrix[i] for i in basis]
    assert type(scale) is int and scale > 0
    assert all(type(x) is int for row in inverse for x in row)
    # inverse / scale times B is the identity ...
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in inverse] == [
        [scale * (i == k) for k in range(size)] for i in range(size)
    ]
    # ... column by column the Fraction solution of B x = e_k ...
    for k, column in enumerate(zip(*inverse)):
        want = ref.solve(b, [int(i == k) for i in range(size)])
        assert tuple(Fraction(x, scale) for x in column) == want
    # ... and integral exactly when det B is +-1.
    assert (scale == 1) == (abs(ref.det(b)) == 1)


def test_empty_and_zero_matrices():
    assert linalg.det([]) == 1
    assert linalg.rank([]) == 0 and linalg.kernel_vector([]) is None
    assert_same(linalg.det([[0.0, 0.0], [0.0, -0.0]]), 0.0)
    assert linalg.rank([[0, 0]]) == 0 and linalg.kernel_vector([[0, 0]]) == (1, 0)
    assert linalg.kernel_vector([[0, -2, 4]]) == (1, 0, 0) and linalg.kernel_vector([[3, -2]]) == (2, 3)
    assert linalg.integer_inverse([[0, 1], [0, 2]]) is None
    assert linalg.integer_inverse([[1, 2, 3]]) is None
    assert linalg.integer_det([]) == 1 and linalg.integer_det([[0, 1], [0, 2]]) == 0
