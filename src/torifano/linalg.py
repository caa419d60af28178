"""Dense linear algebra on small matrices (at most seven columns), given as sequences of rows.

Exact matrices are integer rows.  One fraction-free Gauss-Jordan pass,
:func:`_reduce`, is behind ``rank``, ``kernel_vector`` and
``integer_inverse``; the column-wise Bareiss ``integer_det`` is cheaper
where only a determinant is wanted.  ``det`` serves float meshes only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det(matrix):
    """Determinant of float rows, Fractions at exact vertices, by elimination with partial pivoting."""
    if not matrix:
        return 1
    rows = [list(row) for row in matrix]
    zero = rows[0][0] - rows[0][0]  # nan when the corner is not finite
    sign, acc = 1, zero + 1
    for col in range(len(rows)):
        piv, mag = None, 0
        for r in range(col, len(rows)):
            if abs(rows[r][col]) > mag:
                piv, mag = r, abs(rows[r][col])
        if piv is None:
            return zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for k in range(col + 1, len(rows)):
            factor = rows[k][col] / pivot
            if factor:
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[col])]
        acc = acc * pivot
    return sign * acc


def _reduce(rows, size):
    """``(basis, kept)``: a fraction-free Gauss-Jordan pass over integer rows of ``size`` columns.

    Each row, with the unit vector of its kept position appended, is
    reduced by the kept rows.  If a nonzero is left in its first ``size``
    columns, the first is its pivot, and the row clears that column in
    the kept rows; every division by the previous pivot is exact, since
    the entries are minors (Bareiss, Math. Comp. 1968).  ``kept`` lists
    ``(p, row)``: zeros in the other pivot columns, one common pivot, +-det
    of the kept rows B at the pivot columns, and the appended part W has
    E = W B for the first part E.  ``basis`` indexes B; at most ``size``.
    """
    basis, kept, pivot = [], [], 1
    for j, row in enumerate(rows):
        v = [*row, *(int(k == len(kept)) for k in range(size))]
        w = [pivot * x for x in v]
        for p, e in kept:
            if v[p]:
                w = [a - v[p] * b for a, b in zip(w, e)]
        p = next((col for col in range(size) if w[col]), None)
        if p is None:
            continue
        kept = [(q, [(w[p] * a - e[p] * b) // pivot for a, b in zip(e, w)]) for q, e in kept] + [(p, w)]
        basis.append(j)
        pivot = w[p]
        if len(kept) == size:
            break
    return basis, kept


def rank(rows):
    """Rank of integer rows."""
    return len(_reduce(rows, len(rows[0]) if rows else 0)[0])


def kernel_vector(rows):
    """A primitive integer kernel vector of integer rows, or None when the kernel is trivial.

    At the first column f without a pivot it is the pivot, at each pivot
    column p minus kept row p's entry in f, and 0 elsewhere, signed to be
    positive at f.
    """
    if not rows:
        return None
    size = len(rows[0])
    _, kept = _reduce(rows, size)
    pivots = dict(kept)
    free = next((col for col in range(size) if col not in pivots), None)
    if free is None:
        return None
    pivot = kept[0][1][kept[0][0]] if kept else 1
    vec = [pivot if col == free else -pivots[col][free] if col in pivots else 0 for col in range(size)]
    return _primitive(vec if pivot > 0 else [-x for x in vec])


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def integer_inverse(rows):
    """``(basis, inverse, scale)``: the first integer rows B that span, B^-1 = inverse / scale.

    Once the kept rows span, row p of B^-1 is W / D for the kept row with
    pivot D in column p; one gcd gives the least positive scale, 1 exactly
    when B^-1 is integral.  None when the rows do not span.
    """
    size = len(rows[0])
    basis, kept = _reduce(rows, size)
    if len(basis) < size:
        return None
    pivot = kept[0][1][kept[0][0]]
    g = gcd(pivot, *(x for _, e in kept for x in e[size:])) * (1 if pivot > 0 else -1)
    return basis, [tuple(x // g for x in e[size:]) for _, e in sorted(kept)], pivot // g


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

