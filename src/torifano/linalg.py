"""Dense linear algebra on small matrices, generic over the scalar type.

Everything operates on plain Python sequences so a single code path serves
both ``fractions.Fraction`` (exact, ``tol == 0``) and ``float`` (tolerance
based) inputs.  Matrices are sequences of row sequences.  One echelon
routine, Gaussian elimination with partial pivoting, reduces the rows;
``det``, ``rank`` and ``kernel_vector`` read its result; the package takes
``det`` only of float meshes' simplices.  Integer matrices have two
fraction-free routines, ``integer_inverse`` and ``integer_det``, and the
exact routes use them: fan cones, tangent cones and exact simplices.
Sizes stay below eight in this package, so asymptotics are irrelevant;
clarity and exactness are not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lift_rows(matrix):
    # Plain ints would hit true division below; keep them exact.
    return [[Fraction(x) if isinstance(x, int) else x for x in row] for row in matrix]


def _pivot_row(rows, col, start, tol):
    """Index of the row with the largest pivot magnitude, or None."""
    best, best_mag = None, tol
    for r in range(start, len(rows)):
        mag = abs(rows[r][col])
        if mag > best_mag:
            best, best_mag = r, mag
    return best


def _echelon(rows, ncols, tol):
    """Reduce ``rows`` in place to row echelon form over the first ``ncols`` columns.

    Row operations act on whole rows, so columns past ``ncols`` (a right-hand
    side) are carried along.  A column whose candidate pivots are all at most
    ``tol`` in magnitude is skipped.  Returns the pivot columns, pivot i
    sitting in row i, and the sign of the row permutation.
    """
    pivots, sign = [], 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = _pivot_row(rows, col, r, tol)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pivot = rows[r][col]
        for k in range(r + 1, len(rows)):
            factor = rows[k][col] / pivot
            if factor:
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
    return pivots, sign


def det(matrix):
    """Determinant by fraction-preserving Gaussian elimination."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = _lift_rows(matrix)
    zero = rows[0][0] - rows[0][0]  # of the scalar type in play
    pivots, sign = _echelon(rows, n, 0)
    if len(pivots) < n:
        return zero
    acc = zero + 1
    for i in range(n):
        acc = acc * rows[i][i]
    return sign * acc


def rank(matrix, tol=0):
    rows = _lift_rows(matrix)
    return len(_echelon(rows, len(rows[0]) if rows else 0, tol)[0])


def kernel_vector(matrix, tol=0):
    """Some nonzero vector in the kernel, or None when the kernel is trivial.

    Row-reduces to echelon form, picks the first free column, and
    back-substitutes.  The scalar type of the input is preserved.
    """
    rows = _lift_rows(matrix)
    if not rows:
        return None
    ncols = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    pivots, _ = _echelon(rows, ncols, tol)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    vec = [zero] * ncols
    vec[free[0]] = zero + 1
    for row_idx in range(len(pivots) - 1, -1, -1):
        col = pivots[row_idx]
        acc = sum(rows[row_idx][j] * vec[j] for j in range(col + 1, ncols))
        vec[col] = -acc / rows[row_idx][col]
    return tuple(vec)


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def integer_inverse(rows):
    """``(basis, inverse, scale)``: the first integer rows B that span, B^-1 = inverse / scale.

    A fraction-free Gauss-Jordan pass over [row | unit] keeps each row
    independent of those kept before, as primitive reduced rows (E | W)
    with E = W B.  Once they span, E has one nonzero e_p per row, in column
    p, and row p of B^-1 is W / e_p.  The scale is positive, and 1 exactly
    when B^-1 is integral.  None when the rows do not span.
    """
    size = len(rows[0])
    basis, reduced = [], []
    for j, row in enumerate(rows):
        v = [*row, *(int(k == len(basis)) for k in range(size))]
        for p, e in reduced:
            v = [e[p] * x - v[p] * y for x, y in zip(v, e)]
        pivot = next((col for col in range(size) if v[col]), None)
        if pivot is not None:
            v = _primitive(v)
            reduced = [(p, _primitive([v[pivot] * y - e[pivot] * x for x, y in zip(v, e)])) for p, e in reduced]
            reduced.append((pivot, v))
            basis.append(j)
        if len(basis) == size:
            break
    else:
        return None
    scale = lcm(*(e[p] for p, e in reduced))
    return basis, [tuple(x * (scale // e[p]) for x in e[size:]) for p, e in sorted(reduced)], scale


def integer_det(rows):
    """Determinant of a square integer matrix, by Bareiss' fraction-free elimination.

    Every entry after step k is a k+1 by k+1 minor, so each division by the
    previous pivot is exact (Bareiss, Math. Comp. 1968).
    """
    m = [list(row) for row in rows]
    sign, previous = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot = m[k][k]
        for i in range(k + 1, len(m)):
            head = m[i][k]
            m[i][k + 1 :] = [(pivot * x - head * y) // previous for x, y in zip(m[i][k + 1 :], m[k][k + 1 :])]
        previous = pivot
    return sign * m[-1][-1] if m else 1


def farkas(matrix, rhs):
    """Exact y >= 0 with ``matrix y = rhs``, or a Farkas ray refuting one.

    Phase 1 of the simplex method over Fractions, from one artificial
    variable per row, pivoting by Bland's smallest-index rule, which cannot
    cycle (Bland, Math. Oper. Res. 1977).  Returns ``(y, None)``, or
    ``(None, u)`` with ``u^T matrix >= 0`` and ``u^T rhs < 0``.  Floats
    enter by their exact binary value.  It serves only the emptiness
    certificate of a raw halfspace system without vertices.
    """
    p, q = len(matrix), len(matrix[0])
    signs = [-1 if b < 0 else 1 for b in rhs]
    rows = [
        [s * Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(p)] + [s * Fraction(b)]
        for i, (row, b, s) in enumerate(zip(matrix, rhs, signs))
    ]
    # Reduced costs of the sum of artificials: the last entry is minus its
    # value, and entry q + i is 1 minus the dual of row i.
    reduced = [-sum(col) for col in zip(*rows)]
    reduced[q : q + p] = [Fraction(0)] * p
    basis = list(range(q, q + p))
    while (enter := next((j for j in range(q + p) if reduced[j] < 0), None)) is not None:
        ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > 0]
        leave = min(ratios)[2]
        pivot = rows[leave] = [x / rows[leave][enter] for x in rows[leave]]
        for i, row in enumerate(rows):
            if i != leave and row[enter]:
                rows[i] = [a - row[enter] * b for a, b in zip(row, pivot)]
        reduced = [a - reduced[enter] * b for a, b in zip(reduced, pivot)]
        basis[leave] = enter
    if reduced[-1] == 0:
        value = {j: row[-1] for j, row in zip(basis, rows)}
        return tuple(value.get(j, Fraction(0)) for j in range(q)), None
    return None, tuple(-s * (1 - reduced[q + i]) for i, s in enumerate(signs))

