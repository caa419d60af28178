"""Existence criteria for coupled Kahler-Einstein metrics and solitons.

A decomposition of the anticanonical class is a k-row support matrix whose
rows are ample and whose columns sum to the all-ones vector, so that the
row polytopes Minkowski-sum to the anticanonical polytope; on the fan
route :func:`validate_decomposition` alone decides this.  The coupled
Kahler-Einstein verdict is the vanishing of the barycenter sum; the coupled
soliton verdict replaces barycenters by e^{<V,p>}-weighted ones, and the
common soliton field is the minimizer of the strictly convex log-mass sum.
"""

from __future__ import annotations

from fractions import Fraction

from . import moments
from ._record import Record
from .errors import DegenerateLiftError, InputError
from .geometry import (
    Ampleness,
    _cone_vertices,
    _fan_structure,
    _polytope,
    _row,
    _vec,
    _with_fano,
    polytope_from_support,
    tolerance,
)
from .linalg import dot, exchange

KE_FLOAT_TOL = 1e-10


class Decomposition:
    """A tuple of polytopes decomposing the anticanonical polytope.

    Built by :meth:`from_fan`, which checks the support matrix, or from
    halfspace data, which has no support numbers to check.
    """

    def __init__(self, polytopes):
        polytopes = tuple(polytopes)
        if not polytopes:
            raise InputError("decomposition needs at least one polytope")
        dim = polytopes[0].dim
        if any(p.dim != dim for p in polytopes):
            raise InputError("decomposition parts must share one dimension")
        for i, p in enumerate(polytopes):
            if p.degenerate:
                raise InputError(f"part {i} is degenerate (empty interior)")
        self.polytopes = polytopes

    @classmethod
    def from_fan(cls, fan, rows):
        """The parts of the support ``rows`` over ``fan``, checked first.

        InputError names the first failure of :func:`_validated`; the parts
        reuse validation's cone pass.
        """
        fan_report, report = _validated(fan, rows)
        if not fan_report.ok:
            witnesses = "; ".join(_fan_witness_message(fan, w) for w in fan_report.witnesses)
            raise InputError(f"fan is not a smooth complete Fano fan: {witnesses}")
        if not report.ok:
            raise InputError(_failure_message(fan, report.failures[0]))
        return cls(polytope_from_support(fan, r, c) for r, c in zip(report.rows, report.cones))

    @property
    def k(self):
        return len(self.polytopes)

    @property
    def dim(self):
        return self.polytopes[0].dim

    @property
    def exact(self):
        return all(p.tol == 0 for p in self.polytopes)


class DecompositionReport(Record):
    k: int
    row_ampleness: tuple
    column_sums: tuple
    failures: tuple
    rows: tuple
    cones: tuple  # each row's _cone_vertices result, for building its part

    @property
    def ok(self):
        return not self.failures


def _support_fault(fan, kind, witness):
    ci, j = witness
    cone = list(fan.max_cones[ci])
    if kind == Ampleness.NOT_CONVEX.value:
        return f"not convex: the vertex of cone {cone} violates ray {j}"
    return f"nef, not ample: the vertex of cone {cone} is tight on ray {j}"


def _fan_witness_message(fan, witness):
    kind, data = witness
    if kind == "smooth":
        return f"cone {list(data['cone'])} has det {data['det']}, not 1 or -1"
    if kind == "fano":
        return f"the anticanonical support is {_support_fault(fan, data['ampleness'], data['witness'])}"
    if "wall" not in data:
        return "the fan has no maximal cones"
    return f"wall {list(data['wall'])} has incidence {data['incidence']}, not 2"


def _failure_message(fan, failure):
    if failure[0] == "column-sum":
        return "decomposition column {1} sums to {2}, not 1".format(*failure)
    _, i, kind, witness = failure
    return f"row {i} support is {_support_fault(fan, kind, witness)}"


def validate_decomposition(fan, matrix):
    """Check each row is Ample and the columns sum to the all-ones vector.

    Each row's cones are solved once and kept on the report.  Float rows
    compare their column sums within the rows' tolerance.
    """
    rows = tuple(_vec(row) for row in matrix)
    if not rows:
        raise InputError("decomposition needs at least one row")
    failures = []
    cones = []
    for i, row in enumerate(rows):
        if len(row) != fan.nrays:
            raise InputError(f"row {i} length {len(row)} != ray count {fan.nrays}")
        cones.append(_cone_vertices(fan, row, tolerance(row)))
        amp = cones[i][2]
        if amp.kind is not Ampleness.AMPLE:
            failures.append(("row-not-ample", i, amp.kind.value, amp.witness))
    tol = tolerance([x for row in rows for x in row])
    sums = tuple(sum(row[j] for row in rows) for j in range(fan.nrays))
    for j, s in enumerate(sums):
        if abs(s - 1) > tol:
            failures.append(("column-sum", j, str(s)))
    return DecompositionReport(
        k=len(rows),
        row_ampleness=tuple(amp.kind.value for _, _, amp in cones),
        column_sums=sums,
        failures=tuple(failures),
        rows=rows,
        cones=tuple(cones),
    )


def _validated(fan, matrix):
    """:func:`validate_fan`, then :func:`validate_decomposition` on a fan that passes.

    Both reports, the second None on a failing fan, and the errors of the two
    calls in turn.  Exact Ample rows whose columns sum to one prove Fano: a
    cone's slack row is linear in the support, so the all-ones slacks sum the
    rows' positive ones (Cox-Little-Schenck 6.1).  Other rows, or a row-shape
    error, make the all-ones pass on the structure report already made.
    """
    fan_report = _fan_structure(fan)
    if not (fan_report.smooth and fan_report.complete):
        return fan_report, None
    try:
        report = validate_decomposition(fan, matrix)
    except Exception:
        fan_report = _with_fano(fan, fan_report)
        if fan_report.ok:  # else the fan's failure comes first
            raise
        return fan_report, None
    if report.ok and tolerance([x for row in report.rows for x in row]) == 0:
        return fan_report.replace(fano=True), report
    fan_report = _with_fano(fan, fan_report)
    return fan_report, report if fan_report.ok else None


def sum_barycenter(decomposition):
    """Sum of the part barycenters; exact on rational input."""
    total = None
    for b in map(moments.barycenter, decomposition.polytopes):
        total = b if total is None else tuple(x + y for x, y in zip(total, b))
    return total


def destabilizer(decomposition):
    """-sum of barycenters, or None when the sum vanishes."""
    s = sum_barycenter(decomposition)
    if all(x == 0 for x in s):
        return None
    return tuple(0 - x for x in s)  # a float 0.0 stays 0.0, where -x is -0.0


class KEVerdict(Record):
    exists: bool
    sum_barycenter: tuple
    destabilizer: tuple
    exact: bool
    tol: float


def coupled_ke_verdict(decomposition, tol=KE_FLOAT_TOL):
    """Coupled Kahler-Einstein existence: barycenter sum equal to zero.

    Exact polytopes are decided exactly; float ones (irrational parameters)
    compare against ``tol`` in the sup norm.
    """
    s = sum_barycenter(decomposition)
    exact = decomposition.exact
    if exact:
        exists = all(x == 0 for x in s)
    else:
        exists = max(abs(float(x)) for x in s) < tol
    dest = None if exists else tuple(0 - x for x in s)
    return KEVerdict(
        exists=exists, sum_barycenter=s, destabilizer=dest, exact=exact, tol=tol
    )


class SolitonResidual(Record):
    total: tuple
    per_polytope: tuple

    @property
    def norm(self):
        import numpy as np

        # Taken over the power of two of the largest entry, which is exact,
        # so that only a norm past the float range is inf, which the report
        # refuses with exit 3; numpy's warning must not precede that line.
        total = np.array(self.total)
        scale = np.frexp(np.abs(total).max())[1]
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(np.ldexp(total, -scale)), scale))


def soliton_residual(decomposition, vfields):
    """Sum of weighted barycenters A_{P_i}(V_i) for per-part fields."""
    vfields = [tuple(float(x) for x in v) for v in vfields]
    if len(vfields) != decomposition.k:
        raise InputError("need one vector field per part")
    per = tuple(
        moments.weighted_barycenter(p, v)
        for p, v in zip(decomposition.polytopes, vfields)
    )
    total = tuple(sum(a[i] for a in per) for i in range(decomposition.dim))
    return SolitonResidual(total=total, per_polytope=per)


class SolitonSolution(Record):
    vfield: tuple
    residual_norm: float
    iterations: int
    converged: bool
    hessian_condition: float
    per_polytope_A: tuple


def solve_soliton(decomposition, tol=1e-11, max_iter=50, start=None):
    """Common soliton field via damped Newton on V -> sum_i log Vol_V(P_i).

    The objective is strictly convex and proper, so the minimizer is the
    unique zero of the gradient sum_i A_{P_i}(V).  Objective, gradient and
    Hessian (the sum of weighted covariances) come from one weighted moment
    pass per part, and the pass at an accepted trial serves the next
    iterate.  Steps are halved until the objective decreases; the Hessian
    is checked positive definite at every iterate.  Non-convergence returns
    the best iterate with ``converged=False`` instead of raising.
    """
    import numpy as np

    n = decomposition.dim
    polytopes = decomposition.polytopes
    v = np.zeros(n) if start is None else np.array([float(x) for x in start])

    def moments_at(vv, order=2):
        return [moments.weighted_moments(p, tuple(vv), order) for p in polytopes]

    def objective(passes):
        return sum(p.log_mass for p in passes)

    def solution(iterations, residual):
        return SolitonSolution(
            vfield=tuple(float(x) for x in v),
            residual_norm=residual,
            iterations=iterations,
            converged=residual <= tol,
            hessian_condition=float(np.linalg.cond(hess)),
            per_polytope_A=tuple(p.barycenter for p in current),
        )

    hess = np.eye(n)
    current = moments_at(v)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = sum(np.array(p.barycenter) for p in current)
        residual = float(np.linalg.norm(grad))
        if residual <= tol:
            return solution(iterations - 1, residual)
        hess = sum(p.covariance for p in current)
        eigs = np.linalg.eigvalsh(hess)
        if eigs[0] <= 0:
            raise ArithmeticError("weighted covariance lost positive definiteness")
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise ArithmeticError("weighted covariance is numerically singular") from None
        scale = 1.0
        trial = moments_at(v + step)
        if residual > 1e-6:
            # Damped phase: halve the step until the objective decreases.
            # Near the optimum the decrease drops below float resolution,
            # so small residuals take the full Newton step instead.  Halved
            # trials ask for the mass only.
            base = objective(current)
            for _ in range(60):
                if objective(trial) < base:
                    break
                scale /= 2.0
                trial = moments_at(v + scale * step, order=0)
            if trial[0].barycenter is None:
                trial = moments_at(v + scale * step)
        v = v + scale * step
        current = trial
    return solution(iterations, float(np.linalg.norm(sum(np.array(p.barycenter) for p in current))))


class DFReport(Record):
    value: object
    vfield: tuple
    sum_barycenter: tuple


def df_invariant(decomposition, vfield):
    """Donaldson-Futaki pairing <v, sum of barycenters>; exact on rationals."""
    s = sum_barycenter(decomposition)
    v = _vec(vfield)
    if len(v) != len(s):
        raise InputError("vector field has wrong dimension")
    value = dot(v, s)
    return DFReport(value=value, vfield=v, sum_barycenter=s)


class LiftedConfig(Record):
    polytope: object
    cap: object
    vfield: tuple
    volume_lifted: object
    volume_product: object

    @property
    def identity_holds(self):
        return self.volume_lifted == self.volume_product


def _lifted_inverses(polytope, graph):
    """Inverses of the lifted vertex cones, from the part's.

    A part vertex on exactly n facet rows D, whose inverse X / s the part
    knows, lifts to two simple vertices.  The top one has the rows
    [[D, 0], [0, -1]] and the inverse with columns (X_k, 0) and (0, -s)
    over s, already least, and |det| |det D|.  The bottom one has the cap
    row replaced by ``graph``, the primitive row of s >= -<v,p>: across
    that wall its inverse is one :func:`linalg.exchange` step from the top
    one.  Keys are the rows as ``Polytope.vertex_rows`` gives them.  Where
    the cap meets the graph the two lifts merge, tight on both new rows,
    and that cone is split as any vertex without a known inverse is.
    """
    n = polytope.dim
    cap_row = (0,) * n + (-1,)
    known = polytope.inverses or {}
    inverses = {}
    for rows in polytope.vertex_rows:
        inverse = known.get(rows) if len(rows) == n else None
        if inverse is None:
            continue
        columns, scale, det = inverse
        lifted = tuple((*r, 0) for r in rows)
        top = ([(*x, 0) for x in columns] + [(0,) * n + (-scale,)], scale, det)
        inverses[lifted + (cap_row,)] = top
        inverses[lifted + (graph,)] = exchange(top, n, graph)
    return inverses


def lifted_config(polytope, vfield, cap=None):
    """Lift P to {(p, s) : p in P, -<v,p> <= s <= cap} and check volumes.

    The prism volume factors exactly as Vol(P) * (cap + <v, b(P)>).  The
    identity compares two vertex-cone sums in different dimensions, both
    recorded: the lifted polytope's on the left, with the cone inverses
    that :func:`_lifted_inverses` writes down from P's, and P's on the
    right.  Nothing is triangulated; triangulation serves only the weighted
    mesh.  The lifted vertices are (p, -<v,p>) and (p, cap) over the
    vertices p of P, so any dimension works.  Rational data only.
    """
    v = _vec(vfield)
    if polytope.tol or tolerance(v):
        raise InputError("lifted configurations are exact-rational only")
    if len(v) != polytope.dim:
        raise InputError("vector field has wrong dimension")
    heights = [-dot(v, vert) for vert in polytope.vertices]
    top = max(heights)
    if cap is None:
        cap = top + 1
    cap = Fraction(cap)
    if cap < top:
        raise DegenerateLiftError(
            f"cap {cap} cuts below the graph maximum {top}"
        )
    n = polytope.dim
    halfspaces = [((*d, 0), c) for d, c in polytope.halfspaces]
    halfspaces += [((*v, 1), Fraction(0)), ((0,) * n + (-1,), cap)]
    # Rows: P's halfspaces, then s >= -<v,p> and s <= cap.  Where cap is the
    # height the two lifts of p coincide and merge, tight on both new rows.
    k = len(polytope.halfspaces)
    points, tight = [], []
    for i, (p, h) in enumerate(zip(polytope.vertices, heights)):
        mask = sum(1 << j for j, t in enumerate(polytope.tight_sets) if i in t)
        points += [(*p, h), (*p, cap)]
        tight += [mask | 1 << k, mask | 1 << k + 1]
    inverses = _lifted_inverses(polytope, _row((*v, 1)))
    lifted = _polytope(n + 1, tuple(halfspaces), points, tight, 0, inverses)
    if lifted.degenerate:
        raise DegenerateLiftError("lifted polytope is degenerate")
    vol_product = moments.volume(polytope) * (cap + dot(v, moments.barycenter(polytope)))
    return LiftedConfig(
        polytope=lifted,
        cap=cap,
        vfield=v,
        volume_lifted=lifted.cone_volume,
        volume_product=vol_product,
    )
