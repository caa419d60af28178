"""Plain Fraction reference loops for the elimination routines of linalg.

These are the separate Gaussian elimination loops that solve, det, rank
and kernel_vector ran before they shared one routine.  They take ints,
``Fraction``s and floats alike: ints are lifted to Fractions, so exact
input stays exact, and floats are eliminated with partial pivoting;
solve and rank take a ``tol`` below which a float pivot counts as zero.
``farkas`` is the Fraction simplex the emptiness certificate ran before
its tableau was kept in integers.  The tests check the package's integer
routines and its float ``det`` against them, and use them wherever a test
needs an independent rank or determinant.
"""

from fractions import Fraction


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


def solve(matrix, rhs, tol=0):
    """The solution of a square system, or None when a pivot is missing."""
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


def det(matrix):
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


def rank(matrix, tol=0):
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


def kernel_vector(matrix):
    """The kernel vector that is 1 at the first free column and 0 at the others, or None."""
    rows = _lift_rows(matrix)
    if not rows:
        return None
    ncols = len(rows[0])
    zero = rows[0][0] - rows[0][0]
    one = zero + 1
    pivots = []
    r = 0
    for col in range(ncols):
        piv = _pivot_row(rows, col, r, 0)
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


def farkas(matrix, rhs):
    """Exact y >= 0 with ``matrix y = rhs``, or a Farkas ray refuting one.

    Phase 1 of the simplex method over Fractions, from one artificial
    variable per row, pivoting by Bland's smallest-index rule.  Returns
    ``(y, None)``, or ``(None, u)`` with ``u^T matrix >= 0`` and
    ``u^T rhs < 0``.  Floats enter by their exact binary value.
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
