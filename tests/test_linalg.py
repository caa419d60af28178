"""The elimination routines of linalg against plain Fraction references.

The reference functions below are the separate loops that ``det``, ``rank``
and ``kernel_vector`` ran before they shared one echelon routine, and the
solve loop they shared it with.  The arithmetic is unchanged, so exact
results must be equal and float results bitwise equal, signed zeros
included.  The fraction-free ``integer_inverse`` is checked against the
Fraction solve and rank loops.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torifano import linalg


def _lift(x):
    return Fraction(x) if isinstance(x, int) else x


def _lift_rows(matrix):
    return [[_lift(x) for x in row] for row in matrix]


def _pivot_row(rows, col, start, tol):
    best, best_mag = None, tol
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if mag > best_mag:
            best, best_mag = r, mag
    return best


def _solve_reference(matrix, rhs, tol=0):
    n = len(matrix)
    rows = [[_lift(x) for x in row] + [_lift(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = _pivot_row(rows, col, col, tol)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    sol = [None] * n
    for col in range(n - 1, -1, -1):
        acc = rows[col][n] - sum(rows[col][j] * sol[j] for j in range(col + 1, n))
        sol[col] = acc / rows[col][col]
    return tuple(sol)


def _det_reference(matrix):
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = _lift_rows(matrix)
    sign = 1
    result = rows[0][0] - rows[0][0]
    one = result + 1
    acc = one
    for col in range(n):
        piv = _pivot_row(rows, col, col, 0)
        if piv is None:
            return result
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        acc = acc * pivot
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return sign * acc


def _rank_reference(matrix, tol=0):
    rows = _lift_rows(matrix)
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = _pivot_row(rows, col, r, tol)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        for k in range(r + 1, len(rows)):
            factor = rows[k][col] / pivot
            if factor:
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _kernel_vector_reference(matrix, tol=0):
    rows = _lift_rows(matrix)
    if not rows:
        return None
    ncols = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    pivots = []
    r = 0
    for col in range(ncols):
        piv = _pivot_row(rows, col, r, tol)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r][col]
        for k in range(r + 1, len(rows)):
            factor = rows[k][col] / pivot
            if factor:
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == len(rows):
            break
    pivot_cols = {col for _, col in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    if not free:
        return None
    f = free[0]
    vec = [zero] * ncols
    vec[f] = one
    for row_idx, col in reversed(pivots):
        acc = sum(rows[row_idx][j] * vec[j] for j in range(col + 1, ncols))
        vec[col] = -acc / rows[row_idx][col]
    return tuple(vec)


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


def _tol(data, kind):
    return data.draw(st.sampled_from([0, 1e-9])) if kind == "float" else 0


KINDS = sorted(SCALARS)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_rank_and_kernel_vector_match_the_separate_loops(kind, data):
    matrix = data.draw(matrices(kind))
    tol = _tol(data, kind)
    assert_same(linalg.rank(matrix, tol), _rank_reference(matrix, tol))
    assert_same(linalg.kernel_vector(matrix, tol), _kernel_vector_reference(matrix, tol))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_det_matches_the_separate_loop(kind, data):
    matrix = data.draw(matrices(kind, square=True))
    assert_same(linalg.det(matrix), _det_reference(matrix))


@pytest.mark.parametrize("square", [True, False], ids=["square", "any-shape"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_inverse_matches_the_fraction_reference(square, data):
    matrix = data.draw(matrices("int", square=square))
    size = len(matrix[0])
    basis = []
    for j, row in enumerate(matrix):
        if len(basis) < size and _rank_reference([matrix[i] for i in basis] + [row]) > len(basis):
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
        want = _solve_reference(b, [int(i == k) for i in range(size)])
        assert tuple(Fraction(x, scale) for x in column) == want
    # ... and integral exactly when det B is +-1.
    assert (scale == 1) == (abs(_det_reference(b)) == 1)


def test_empty_and_zero_matrices():
    assert_same(linalg.det([]), _det_reference([]))
    assert linalg.rank([]) == 0 and linalg.kernel_vector([]) is None
    assert_same(linalg.det([[0.0, 0.0], [0.0, -0.0]]), 0.0)
    assert_same(linalg.kernel_vector([[-0.0, 0.0]]), _kernel_vector_reference([[-0.0, 0.0]]))
    assert linalg.integer_inverse([[0, 1], [0, 2]]) is None
    assert linalg.integer_inverse([[1, 2, 3]]) is None
