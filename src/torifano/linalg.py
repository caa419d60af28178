"""Dense linear algebra on small matrices (at most seven columns), given as sequences of rows.

Exact matrices are integer rows.  One fraction-free Gauss-Jordan pass,
:func:`_reduce`, is behind ``rank``, ``kernel_vector``, ``integer_inverse``
and ``inverse_columns``, which also reads |det B| off its common pivot;
:func:`exchange` updates a known inverse when one row of B is replaced, by
a rank-one step with no elimination; the column-wise Bareiss
``integer_det`` is cheaper where only a determinant is wanted; the phase-1
simplex :func:`farkas` keeps its tableau in integers over one common
denominator too.  ``det`` serves float meshes only, and nothing here builds
a Fraction.
"""

from __future__ import annotations

from math import gcd
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


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
    found = _inverse(rows)
    return found and found[:3]


def inverse_columns(rows):
    """``(columns, scale, det)`` of a square integer matrix B, or None when it is singular.

    Column k of B^-1 is the integer column ``columns[k]`` over the scale
    of :func:`integer_inverse`, and det is |det B|, the kept rows' common
    pivot, so no determinant is eliminated for it.  :func:`exchange` takes
    and returns the same triple.
    """
    found = _inverse(rows)
    return found and (list(zip(*found[1])), *found[2:])


def _inverse(rows):
    """:func:`integer_inverse`'s triple and |det B| as a fourth entry."""
    size = len(rows[0])
    basis, kept = _reduce(rows, size)
    if len(basis) < size:
        return None
    pivot = kept[0][1][kept[0][0]]
    g = gcd(pivot, *(x for _, e in kept for x in e[size:])) * (1 if pivot > 0 else -1)
    return basis, [tuple(x // g for x in e[size:]) for _, e in sorted(kept)], pivot // g, abs(pivot)


def exchange(inverse, k, row):
    """The inverse of B once its row k is replaced by ``row``, or None when that is singular.

    ``inverse`` is the :func:`inverse_columns` triple ``(columns, scale,
    det)``: column i of B^-1 is the integer column X_i over the positive
    scale s, and det is |det B|.  With t = <row, X_k>, the new matrix has
    determinant det B t / s, and its inverse the columns t X_i - <row, X_i>
    X_k for i != k and s X_k over s t, the rank-one update of Sherman and
    Morrison (Ann. Math. Statist. 1950) in integers.  Every column is taken
    times the sign of t, so the scale s |t| is positive, and one gcd, none
    when s |t| is 1, brings it to the least positive scale, as
    :func:`integer_inverse` gives it.
    """
    columns, scale, absdet = inverse
    pivot = columns[k]
    t = dot(row, pivot)
    if not t:
        return None
    sign, t = (1, t) if t > 0 else (-1, -t)
    new = []
    for i, column in enumerate(columns):
        if i == k:
            new.append(tuple(sign * scale * y for y in pivot))
        else:
            c = sign * dot(row, column)
            new.append(tuple(t * x - c * y for x, y in zip(column, pivot)))
    g = gcd(scale * t, *(x for column in new for x in column)) if scale * t > 1 else 1
    if g > 1:
        new = [tuple(x // g for x in column) for column in new]
    return new, scale * t // g, absdet * t // scale


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
    """Integer y >= 0 with ``matrix y = rhs``, or a Farkas ray refuting one.

    Phase 1 of the simplex method on integer rows and an integer rhs, from
    one artificial variable per row, pivoting by Bland's smallest-index
    rule, which cannot cycle (Bland, Math. Oper. Res. 1977).  The tableau
    and its reduced-cost row are integers over one common denominator D,
    the last pivot, which is the determinant of the basis, so it stays
    positive and reduced costs keep their signs: a pivot p at (r, e) keeps
    row r and replaces every other row, with entry h in column e, by
    (p a - h b) // D, an exact division (Edmonds, J. Res. NBS 1967), and D
    becomes p.  Ratios are compared by integer cross-products.  Returns
    ``(y, None, D)``, or ``(None, u, D)`` with ``u^T matrix >= 0`` and
    ``u^T rhs < 0``, y and u integer tuples over D.  It serves only the
    emptiness certificate of a raw halfspace system without vertices.
    """
    p, q = len(matrix), len(matrix[0])
    signs = [-1 if b < 0 else 1 for b in rhs]
    rows = [
        [s * x for x in row] + [int(i == k) for k in range(p)] + [s * b]
        for i, (row, b, s) in enumerate(zip(matrix, rhs, signs))
    ]
    # Reduced costs of the sum of artificials: the last entry is minus its
    # value, and entry q + i is D minus D times the dual of row i.
    reduced = [-sum(col) for col in zip(*rows)]
    reduced[q : q + p] = [0] * p
    basis = list(range(q, q + p))
    denominator = 1
    while (enter := next((j for j in range(q + p) if reduced[j] < 0), None)) is not None:
        leave = None
        for i, row in enumerate(rows):
            entry = row[enter]
            if entry > 0:
                if leave is None:
                    leave, top, bottom = i, row[-1], entry
                    continue
                # The least rhs / entry, then the least basis index.
                side = row[-1] * bottom - top * entry
                if side < 0 or side == 0 and basis[i] < basis[leave]:
                    leave, top, bottom = i, row[-1], entry
        pivot = rows[leave]
        value = pivot[enter]
        for i, row in enumerate(rows):
            if i != leave:
                h = row[enter]
                rows[i] = [(value * a - h * b) // denominator for a, b in zip(row, pivot)]
        h = reduced[enter]
        reduced = [(value * a - h * b) // denominator for a, b in zip(reduced, pivot)]
        basis[leave], denominator = enter, value
    if reduced[-1] == 0:
        level = {j: row[-1] for j, row in zip(basis, rows)}
        return tuple(level.get(j, 0) for j in range(q)), None, denominator
    return None, tuple(-s * (denominator - reduced[q + i]) for i, s in enumerate(signs)), denominator
