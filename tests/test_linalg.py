"""The elimination routines of linalg against plain Fraction references.

The references are the separate Gaussian elimination loops of
``reference_linalg``.  The float ``det`` runs the same arithmetic as the
det loop, so its results must be bitwise equal, signed zeros included.
The integer routines are one fraction-free pass, checked on integer rows
and on Fraction and float rows cleared to integers, floats by their exact
binary value: ``rank`` must equal the Fraction rank, ``kernel_vector`` be
a positive multiple of the Fraction kernel vector, ``integer_inverse``
match the Fraction solve and rank loops, and ``integer_det`` the det loop.
``inverse_columns`` is ``integer_inverse`` by columns with |det| from its
pivot, and ``exchange``, the rank-one row exchange, must give exactly what
``inverse_columns`` gives on the exchanged matrix.  The integer ``farkas``
must give the Fraction simplex's y and u on every halfspace system, and
the raw route its certificate.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from torifano import linalg
from torifano.errors import EmptyPolytopeError
from torifano.geometry import polytope_from_halfspaces


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_inverse_columns_are_the_inverse_by_columns_with_its_det(data):
    matrix = data.draw(matrices("int", square=True))
    found, want = linalg.inverse_columns(matrix), linalg.integer_inverse(matrix)
    if want is None:
        assert found is None and ref.det(matrix) == 0
        return
    columns, scale, det = found
    assert (columns, scale) == (list(zip(*want[1])), want[2])
    assert type(det) is int and det == abs(ref.det(matrix)) > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_exchange_equals_the_inverse_of_the_exchanged_matrix(data):
    # Same columns, scale and |det| as eliminating B' afresh, or None exactly
    # when B' is singular, from any nonsingular B.
    matrix = data.draw(matrices("int", square=True))
    inverse = linalg.inverse_columns(matrix)
    if inverse is None:
        return
    n = len(matrix)
    k = data.draw(st.integers(0, n - 1))
    row = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    exchanged = [row if i == k else r for i, r in enumerate(matrix)]
    assert linalg.exchange(inverse, k, row) == linalg.inverse_columns(exchanged)


def test_dot_keeps_the_summation_order():
    # sum(map(mul, ...)) adds the products left to right from 0, as the
    # generator did, so floats round alike; ints and Fractions stay exact.
    u, v = (1e16, 1.0, -1e16, 1.0), (1.0, 1.0, 1.0, 1.0)
    assert_same(linalg.dot(u, v), ((0 + 1e16) + 1.0 - 1e16) + 1.0)
    assert_same(linalg.dot((Fraction(1, 3), 2), (3, Fraction(1, 2))), Fraction(2))
    assert_same(linalg.dot((2, 3), (4, 5, 6)), 23)
    assert_same(linalg.dot((), ()), 0)


def test_empty_and_zero_matrices():
    assert linalg.det([]) == 1
    assert linalg.rank([]) == 0 and linalg.kernel_vector([]) is None
    assert_same(linalg.det([[0.0, 0.0], [0.0, -0.0]]), 0.0)
    assert linalg.rank([[0, 0]]) == 0 and linalg.kernel_vector([[0, 0]]) == (1, 0)
    assert linalg.kernel_vector([[0, -2, 4]]) == (1, 0, 0) and linalg.kernel_vector([[3, -2]]) == (2, 3)
    assert linalg.integer_inverse([[0, 1], [0, 2]]) is None
    assert linalg.integer_inverse([[1, 2, 3]]) is None
    assert linalg.integer_det([]) == 1 and linalg.integer_det([[0, 1], [0, 2]]) == 0


def _scalar(rng, wild):
    """An int, a Fraction with its own denominator, a dyadic float, or in a wild system any float."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.uniform(-4, 4) if wild and rng.random() < 0.3 else rng.randint(-8, 8) / 4


def _halfspace_system(rng):
    """1-10 rows <d, x> >= -c in dimension 1-6: about half with x = 0
    feasible, and the rest, given two rows or more, with an exact last row
    that a nonnegative combination of the others turns into 0 >= r > 0."""
    n, m = rng.randint(1, 6), rng.randint(1, 10)
    wild = rng.random() < 0.1
    rows = [([_scalar(rng, wild) for _ in range(n)], _scalar(rng, wild)) for _ in range(m)]
    if rng.random() < 0.5:
        return [(d, abs(c)) for d, c in rows]
    if m > 1:
        y = [rng.randint(0, 3) for _ in range(m - 1)]
        d = [-sum(w * Fraction(r[0][i]) for w, r in zip(y, rows)) for i in range(n)]
        c = -sum(w * Fraction(r[1]) for w, r in zip(y, rows)) - Fraction(rng.randint(1, 3), rng.randint(1, 3))
        rows[-1] = (d, c)
    return rows


def test_farkas_matches_the_fraction_simplex():
    # The route's integer rows are row j times s_j > 0, the same columns
    # scaled, so the pivots, u and y = s y' are the Fraction simplex's.
    rng = random.Random(0)
    outcomes = {True: 0, False: 0}
    for _ in range(2000):
        rows = _halfspace_system(rng)
        n = len(rows[0][0])
        rhs = [0] * n + [-1]
        want_y, want_u = ref.farkas([*zip(*(d for d, _ in rows)), [c for _, c in rows]], rhs)
        ints = _integer_rows([(*d, c) for d, c in rows])
        y, u, denominator = linalg.farkas(list(zip(*ints)), rhs)
        assert denominator > 0
        outcomes[want_y is not None] += 1
        if want_y is None:
            assert y is None and tuple(Fraction(x, denominator) for x in u) == want_u
            continue
        assert u is None
        scales = [math.lcm(*(x.denominator for x in row)) for row in _exact([(*d, c) for d, c in rows])]
        assert tuple(Fraction(s * x, denominator) for s, x in zip(scales, y)) == want_y
        with pytest.raises(EmptyPolytopeError) as err:
            polytope_from_halfspaces(rows)
        assert err.value.certificate == want_y
    assert min(outcomes.values()) >= 800, outcomes
