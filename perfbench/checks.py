"""Check each report against the oracle or a property the method must have.

``check(op, report)`` returns a list of problems, empty when the report is
right.  Exact quantities must match exactly; weighted moments and solver
outputs must match the oracle to the tolerances below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracle

# Weighted barycenters: the program's float kernels against the oracle's
# Gauss-Legendre route, both accurate to ~1e-12 on these inputs.
WEIGHTED_TOL = 1e-9
# The program's default soliton tolerance on the residual norm.
SOLVE_TOL = 1e-10
# The sum of oracle weighted barycenters at the program's soliton field.
SOLVE_ORACLE_TOL = 1e-8


def _frac(values):
    return [Fraction(v) for v in values]


def _floats(values):
    return [float(v) for v in values]


def _close(got, want, tol, what, problems):
    if len(got) != len(want) or any(not abs(g - w) <= tol for g, w in zip(got, want)):
        problems.append(f"{what}: got {list(got)}, expected {list(want)} within {tol:g}")


def _equal(got, want, what, problems):
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


class FanTruth:
    """Oracle values for the parts of a (possibly transformed) product fan."""

    def __init__(self, prob):
        self.factors = prob.factor_moments()
        self.map = oracle.transpose(prob.u_inv) if prob.u is not None else None
        self.volumes = [oracle.product_volume(f) for f in self.factors]
        self.barycenters = [self._point(oracle.product_barycenter(f)) for f in self.factors]
        self.sum_b = tuple(sum(xs) for xs in zip(*self.barycenters))

    def _point(self, p):
        return oracle.mat_vec(self.map, p) if self.map is not None else tuple(p)

    def vertices(self, i):
        return [self._point(v) for v in oracle.product_vertices(self.factors[i])]

    def weighted(self, i, vfield):
        """A_{P_i}(V): the product route in untransformed coordinates."""
        if self.map is not None:
            raise ValueError("weighted checks use untransformed fans")
        return oracle.product_weighted_barycenter(self.factors[i], [float(x) for x in vfield])

    def default_vfield(self):
        if all(x == 0 for x in self.sum_b):
            return tuple(Fraction(0) for _ in self.sum_b)
        return tuple(-x for x in self.sum_b)


def _check_fan(op, res, vfield, problems):
    truth = FanTruth(op.check[1])
    cmd = op.command
    k = len(truth.volumes)
    if cmd == "validate":
        fan = res["fan"]
        _equal((fan["smooth"], fan["complete"], fan["fano"], fan["witnesses"]), (True, True, True, []),
               "fan validity", problems)
        dec = res["decomposition"]
        _equal(dec["k"], k, "k", problems)
        _equal(dec["row_ampleness"], ["Ample"] * k, "row ampleness", problems)
        _equal(_frac(dec["column_sums"]), [1] * len(dec["column_sums"]), "column sums", problems)
        _equal((dec["failures"], res["ok"]), ([], True), "decomposition failures", problems)
    elif cmd == "ke-verdict":
        exists = all(x == 0 for x in truth.sum_b)
        _equal(tuple(_frac(res["sum_barycenter"])), truth.sum_b, "sum of barycenters", problems)
        _equal((res["verdict"], res["exists"], res["exact"]), ("Exists" if exists else "NotExists", exists, True),
               "verdict", problems)
        dest = None if exists else [-x for x in truth.sum_b]
        _equal(None if res["destabilizer"] is None else _frac(res["destabilizer"]), dest, "destabilizer", problems)
    elif cmd == "barycenter":
        for i, part in enumerate(res["parts"]):
            _equal(Fraction(part["volume"]), truth.volumes[i], f"volume of part {i}", problems)
            _equal(tuple(_frac(part["barycenter"])), truth.barycenters[i], f"barycenter of part {i}", problems)
        _equal(len(res["parts"]), k, "number of parts", problems)
        _equal(tuple(_frac(res["sum_barycenter"])), truth.sum_b, "sum of barycenters", problems)
    elif cmd == "df":
        v = tuple(Fraction(x) for x in vfield) if vfield is not None else truth.default_vfield()
        _equal(tuple(_frac(res["vfield"])), v, "df field", problems)
        _equal(Fraction(res["value"]), sum(a * b for a, b in zip(v, truth.sum_b)), "DF value", problems)
        _equal(tuple(_frac(res["sum_barycenter"])), truth.sum_b, "sum of barycenters", problems)
    elif cmd == "lift":
        v = tuple(Fraction(x) for x in vfield) if vfield is not None else truth.default_vfield()
        _equal(tuple(_frac(res["vfield"])), v, "lift field", problems)
        _equal(len(res["parts"]), k, "number of lifted parts", problems)
        for i, part in enumerate(res["parts"]):
            cap = max(-sum(a * b for a, b in zip(v, p)) for p in truth.vertices(i)) + 1
            product = truth.volumes[i] * (cap + sum(a * b for a, b in zip(v, truth.barycenters[i])))
            got = (Fraction(part["cap"]), Fraction(part["volume_product"]), Fraction(part["volume_lifted"]),
                   part["identity_holds"])
            _equal(got, (cap, product, product, True), f"lift of part {i}", problems)
    else:
        problems.append(f"no exact check for {cmd}")


def _check_solve(res, problems, weighted):
    v = _floats(res["vfield"])
    if res["converged"] is not True or float(res["residual_norm"]) > SOLVE_TOL:
        problems.append(f"soliton solve did not converge: residual {res['residual_norm']}")
    total = [0.0] * len(v)
    for i, got in enumerate(res["per_polytope_A"]):
        want = weighted(i, v)
        _close(_floats(got), want, WEIGHTED_TOL, f"A of part {i} at the soliton field", problems)
        total = [a + b for a, b in zip(total, want)]
    _close(total, [0.0] * len(v), SOLVE_ORACLE_TOL, "oracle sum of A at the soliton field", problems)


def _check_fields(op, res, problems):
    prob = op.check[1]
    truth = FanTruth(prob)
    fields = prob.vector_fields
    want = [truth.weighted(i, fields[i]) for i in range(len(fields))]
    if op.command == "soliton-check":
        total = [sum(xs) for xs in zip(*want)]
        for i, got in enumerate(res["per_polytope"]):
            _close(_floats(got), want[i], WEIGHTED_TOL, f"A of part {i}", problems)
        _close(_floats(res["residual"]), total, 2 * WEIGHTED_TOL, "residual", problems)
        _close([float(res["norm"])], [math.hypot(*total)], 2 * WEIGHTED_TOL, "residual norm", problems)
        _equal(res["is_soliton"], math.hypot(*total) < SOLVE_TOL, "soliton verdict", problems)
    else:
        for i, part in enumerate(res["parts"]):
            _equal(Fraction(part["volume"]), truth.volumes[i], f"volume of part {i}", problems)
            _equal(tuple(_frac(part["barycenter"])), truth.barycenters[i], f"barycenter of part {i}", problems)
            _close(_floats(part["weighted_barycenter"]), want[i], WEIGHTED_TOL, f"A of part {i}", problems)
        _equal(tuple(_frac(res["sum_barycenter"])), truth.sum_b, "sum of barycenters", problems)


def _check_ma(op, res, diag, problems):
    _, intervals, fields, cancels = op.check
    means = sum(oracle.interval_mean(float(a), float(b), w) for (a, b), w in zip(intervals, fields))
    _equal(res["status"], "Converged" if cancels else "Obstructed", "continuity path status", problems)
    _close([float(diag["barycenter_residual"])], [means], WEIGHTED_TOL, "barycenter residual", problems)
    if cancels != (abs(means) < WEIGHTED_TOL):
        problems.append(f"the oracle's weighted means sum to {means}, against the workload's premise")
    if cancels and not abs(float(diag["obstruction_residual"])) < 1e-3:
        problems.append(f"converged path has obstruction residual {diag['obstruction_residual']}")


def _check_known(op, res, problems):
    _, known, implied, u, shift = op.check
    if op.command == "validate":
        part = res["parts"][0]
        _equal((res["ok"], len(res["parts"])), (True, 1), "validity", problems)
        _equal(part["nvertices"], known.nvertices, "vertex count", problems)
        _equal(part["redundant_halfspaces"], implied, "redundant rows", problems)
        _equal(part["degenerate"], False, "degenerate flag", problems)
    else:
        b = oracle.affine_point(u, known.barycenter, shift)
        part = res["parts"][0]
        _equal(Fraction(part["volume"]), known.volume, "volume", problems)
        _equal(tuple(_frac(part["barycenter"])), b, "barycenter", problems)
        _equal(tuple(_frac(res["sum_barycenter"])), b, "sum of barycenters", problems)


def _check_pe_float(op, res, problems):
    c = op.check[1]
    params = (c, 1.0 - c)
    if op.command == "validate":
        _equal(res["ok"], True, "validity", problems)
        for part in res["parts"]:
            _equal((part["nvertices"], part["redundant_halfspaces"], part["degenerate"]), (12, [], False),
                   "bundle polytope shape", problems)
    else:
        for part, cc in zip(res["parts"], params):
            vol, bary = oracle.pe_moments(cc)
            _close([float(part["volume"])], [vol], 1e-9 * vol, "bundle volume", problems)
            _close(_floats(part["barycenter"]), bary, 1e-9, "bundle barycenter", problems)
        _close(_floats(res["sum_barycenter"]), [0.0] * 4, 1e-9, "sum at the critical parameter", problems)


def _check_reject(op, res, problems):
    reason = op.check[1]
    if res.get("ok") is not False or not str(res.get("reason", "")).startswith(reason):
        problems.append(f"expected rejection {reason!r}, got ok={res.get('ok')} reason={res.get('reason')!r}")


def check(op, report):
    """Problems found in one report, or an empty list."""
    problems = []
    res = report["results"]
    kind = op.check[0]
    try:
        if kind == "fan":
            _check_fan(op, res, op.check[2], problems)
        elif kind == "solve":
            truth = FanTruth(op.check[1])
            _check_solve(res, problems, truth.weighted)
        elif kind == "solve-pe":
            c = op.check[1]
            _check_solve(res, problems, lambda i, v: oracle.pe_weighted_barycenter((c, 1 - c)[i], v))
        elif kind == "fields":
            _check_fields(op, res, problems)
        elif kind == "ma":
            _check_ma(op, res, report["diagnostics"], problems)
        elif kind == "known":
            _check_known(op, res, problems)
        elif kind == "pe-float":
            _check_pe_float(op, res, problems)
        elif kind == "reject":
            _check_reject(op, res, problems)
        else:
            problems.append(f"unknown check {kind!r}")
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
