"""Seeded inputs of the four workloads.

Every workload is a fixed list of operations, built from ``--seed`` alone.
An operation is one ``torifano`` command line together with the problem
document it reads, and the facts the checks need: which product of
polygons and intervals each part is, the lattice change of basis applied to
it, or the known polytope a raw halfspace system was made from.  Nothing
here imports torifano, and nothing here computes a reference answer; the
checks do that after the timed rounds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

WORKLOADS = ("cli-cold", "exact-fan", "raw-halfspace", "soliton")

# Timed rounds a run makes at least, however long they take; op_tail_s
# takes its percentile from this.
MIN_ROUNDS = 6

# Commands that need no floating point; a lazy numpy import shows on them.
EXACT_COMMANDS = ("validate", "ke-verdict", "barycenter", "df", "lift")

FANS_2D = {
    "p2": (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0))),
    "p1xp1": (((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0))),
    "blowup-p2-1pt": (((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 3), (3, 1), (1, 2), (2, 0))),
    "hexagon-dP6-t": (
        ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
    ),
}
P1 = (((1,), (-1,)), ((0,), (1,)))


@dataclass
class Op:
    """One operation: a command line and what its report must show.

    ``argv`` may hold the token ``@doc``, replaced by the path of ``doc``
    once it is written.  ``check`` names the check and carries its data.
    """

    name: str
    argv: list
    doc: dict = None
    check: tuple = ()
    fails_today: bool = False

    @property
    def command(self):
        return self.argv[0]

    @property
    def exact_only(self):
        return self.command in EXACT_COMMANDS and not (self.doc or {}).get("vector_fields")


@dataclass
class FanProblem:
    """A product fan, a decomposition of it, and an optional basis change.

    ``supports[i][f]`` are the support numbers of part i on factor f, so part
    i is a product of polygons and intervals; with ``u`` set, the document's
    rays are U d and part i is U^{-T} applied to that product.
    """

    label: str
    factors: list  # (rays, cones) per factor
    supports: list
    u: tuple = None
    u_inv: tuple = None
    vector_fields: list = None

    @property
    def dim(self):
        return sum(len(rays[0]) for rays, _ in self.factors)

    def rays_and_cones(self):
        rays, cones = [], [()]
        offset = 0
        dim = self.dim
        pos = 0
        for frays, fcones in self.factors:
            n = len(frays[0])
            for r in frays:
                rays.append(tuple([0] * pos + list(r) + [0] * (dim - pos - n)))
            cones = [c + tuple(offset + j for j in fc) for c in cones for fc in fcones]
            offset += len(frays)
            pos += n
        if self.u is not None:
            rays = [oracle.mat_vec(self.u, r) for r in rays]
        return [list(r) for r in rays], [list(c) for c in cones]

    def document(self):
        rays, cones = self.rays_and_cones()
        rows = [[str(x) for sup in part for x in sup] for part in self.supports]
        doc = {
            "name": self.label,
            "dimension": self.dim,
            "rays": rays,
            "max_cones": cones,
            "decomposition": rows,
        }
        if self.vector_fields is not None:
            doc["vector_fields"] = [[str(x) for x in v] for v in self.vector_fields]
        return doc

    def factor_moments(self):
        """Per part, the oracle factors (polygon or interval) in order."""
        out = []
        for part in self.supports:
            facs = []
            for (frays, _), sup in zip(self.factors, part):
                if len(frays[0]) == 1:
                    facs.append(oracle.Factor.segment(-sup[0], sup[1]))
                else:
                    facs.append(oracle.Factor.polygon(frays, sup))
            out.append(facs)
        return out


def _small_rational(rng, lo, hi, den=12):
    """A rational in the open interval (lo, hi) with denominator dividing den."""
    lo_n = int(Fraction(lo) * den) + 1
    hi_n = int(-(-Fraction(hi) * den // 1)) - 1
    return Fraction(rng.randint(lo_n, hi_n), den)


def _polygon_split(rng, name, k):
    """k ample supports over a 2-D fan whose columns sum to one."""
    rays = FANS_2D[name][0]
    ones = [Fraction(1)] * len(rays)
    if k == 1:
        return [ones]
    while True:
        s = rng.choice((Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 5)))
        first = [s + Fraction(rng.choice((-1, 0, 1)), 15) for _ in rays]
        second = [1 - x for x in first]
        if oracle.polygon_is_ample(rays, first) and oracle.polygon_is_ample(rays, second):
            return [first, second]


def _interval_split(rng, k):
    if k == 1:
        return [[Fraction(1), Fraction(1)]]
    u = _small_rational(rng, 0, 1, 10)
    v = _small_rational(rng, 0, 1, 10)
    return [[u, v], [1 - u, 1 - v]]


def fan_problem(rng, base, m, k, gl=False):
    """base x (P^1)^m with a seeded k-part decomposition."""
    factors, splits = [], []
    if base is not None:
        factors.append(FANS_2D[base])
        splits.append(_polygon_split(rng, base, k))
    for _ in range(m):
        factors.append(P1)
        splits.append(_interval_split(rng, k))
    supports = [[split[i] for split in splits] for i in range(k)]
    prob = FanProblem(f"{base}x(P1)^{m}" if base else f"(P1)^{m}", factors, supports)
    if gl:
        prob.u, prob.u_inv = oracle.unimodular_pair(rng, prob.dim)
        prob.label += "/GL"
    return prob


def hexagon_problem(t):
    """The registry's hexagon-dP6-t:t decomposition, rows 1/2 +- t on ray 1."""
    half = Fraction(1, 2)
    rows = [[half] * 6, [half] * 6]
    rows[0][1] += t
    rows[1][1] -= t
    return FanProblem(f"hexagon-dP6-t:{t}", [FANS_2D["hexagon-dP6-t"]], [[rows[0]], [rows[1]]])


def registry_problem(spec):
    """The fan problems behind the built-in examples used by cli-cold."""
    name, _, param = spec.partition(":")
    if name == "hexagon-dP6-t":
        return hexagon_problem(Fraction(param) if param else Fraction(1, 10))
    if name == "p1-fubini":
        return FanProblem(name, [P1], [[[Fraction(1), Fraction(1)]]])
    rays = FANS_2D[name][0]
    return FanProblem(name, [FANS_2D[name]], [[[Fraction(1)] * len(rays)]])


# ---------------------------------------------------------------------------
# cli-cold


def cli_cold(rng, quick):
    # Start and import dominate every cold operation, so two commands per
    # example (every command at least once) keep the round short.
    t = _small_rational(rng, Fraction(-1, 2), Fraction(1, 2), 20)
    examples = ["p2", "p1xp1", "blowup-p2-1pt", f"hexagon-dP6-t:{t}"]
    commands = list(EXACT_COMMANDS) + rng.sample(EXACT_COMMANDS, 3)
    rng.shuffle(commands)
    pairs = [(ex, commands[2 * i + j]) for i, ex in enumerate(examples) for j in range(2)]
    if quick:
        pairs = [("blowup-p2-1pt", "ke-verdict")]
    ops = []
    for ex, cmd in pairs:
        ops.append(Op(f"{cmd}:{ex}", [cmd, "--example", ex], check=("fan", registry_problem(ex), None)))
    ops.append(Op("soliton-solve:blowup-p2-1pt", ["soliton-solve", "--example", "blowup-p2-1pt"],
                  check=("solve", registry_problem("blowup-p2-1pt"))))
    if not quick:
        ops.append(Op("ma-solve:p1-fubini", ["ma-solve", "--example", "p1-fubini"],
                      check=("ma", [(-1, 1)], [0.0], True)))
    return ops


# ---------------------------------------------------------------------------
# exact-fan

# (base, number of P^1 factors): dimension 2 + m, or m for the cube fans.
EXACT_FANS = (
    ("blowup-p2-1pt", 0), ("blowup-p2-1pt", 1), ("blowup-p2-1pt", 2),
    ("hexagon-dP6-t", 0), ("hexagon-dP6-t", 1),
    (None, 2), (None, 3), (None, 5),
)


def _commands(dim, gl):
    """The commands run on one fan; a lift adds a dimension and enumerates
    raw halfspaces, and in dimension 5 ke-verdict and df would repeat the
    barycenter work, so the round stays short."""
    if dim >= 5:
        return ("validate", "barycenter")
    if dim <= 2 or not gl:
        return EXACT_COMMANDS
    return EXACT_COMMANDS[:-1]


def exact_fan(rng, quick):
    fans = (EXACT_FANS[0], EXACT_FANS[1], EXACT_FANS[5]) if quick else EXACT_FANS
    ops = []
    for base, m in fans:
        for gl in (False, True):
            prob = fan_problem(rng, base, m, 2, gl=gl)
            doc = prob.document()
            for cmd in _commands(prob.dim, gl):
                argv = [cmd, "--input", "@doc"]
                vfield = None
                if cmd in ("df", "lift") and gl:
                    vfield = [rng.randint(-2, 2) for _ in range(prob.dim)]
                    # "=" keeps argparse from reading a leading minus as an option
                    argv.append("--vfield=" + ",".join(str(x) for x in vfield))
                ops.append(Op(f"{cmd}:{prob.label}", argv, doc, ("fan", prob, vfield)))
    return ops


# ---------------------------------------------------------------------------
# raw-halfspace


def _pad(rng, facets, extra):
    """``facets`` plus ``extra`` implied rows, shuffled.

    Implied rows alternate between a loosened facet row and the sum of two
    facet rows with non-opposite normals; either way the contact set is
    below a facet.
    Returns (rows, indices of the implied rows).
    """
    rows = [(d, c, False) for d, c in facets]
    while len(rows) < len(facets) + extra:
        if (len(rows) - len(facets)) % 2 == 0:
            d, c = rng.choice(facets)
            rows.append((d, c + Fraction(rng.randint(1, 5), 4), True))
        else:
            (d1, c1), (d2, c2) = rng.sample(facets, 2)
            d = tuple(a + b for a, b in zip(d1, d2))
            if any(d):
                rows.append((d, c1 + c2, True))
    rng.shuffle(rows)
    return [(d, c) for d, c, _ in rows], [j for j, (_, _, r) in enumerate(rows) if r]


def _place(rng, rows, dim, shear=True):
    """A seeded lattice map and rational translation applied to rows.

    The map is a product of shears, or with ``shear=False`` a signed
    permutation of the axes, which keeps the sign pattern of the rows and so
    the cost of Fourier-Motzkin elimination the same for every seed.
    """
    if shear:
        u, u_inv = oracle.unimodular_pair(rng, dim)
    else:
        u = oracle.signed_permutation(rng, dim)
        u_inv = oracle.transpose(u)
    shift = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(dim))
    return oracle.affine_image(rows, u, u_inv, shift), u, shift


def _halfspace_doc(name, dim, parts):
    return {
        "name": name,
        "dimension": dim,
        "halfspaces": [[[[str(x) for x in d], str(c)] for d, c in rows] for rows in parts],
    }


def _known_shapes(rng):
    K = oracle.KnownPolytope

    # Sizes are halves, so the Fractions, and the cost, stay alike across seeds.
    def r(lo, hi):
        return Fraction(rng.randint(2 * lo, 2 * hi), 2)

    def box(n):
        return K.box([-r(1, 4) for _ in range(n)], [r(1, 4) for _ in range(n)])

    return [
        # (shape, implied rows added): m = 18, 16, 12 and 11 rows in
        # dimensions 3, 3, 4 and 5
        (box(3), 12),
        (K.cross(3, r(1, 3)), 8),
        (K.simplex(2, r(1, 3)).times(K.box([0], [r(1, 3)])), 11),
        (box(4), 4),
        (K.simplex(2, r(1, 3)).times(K.simplex(2, r(1, 3))), 6),
        (K.simplex(4, r(1, 3)), 7),
        (box(5), 1),
    ]


def raw_halfspace(rng, quick):
    ops = []
    shapes = _known_shapes(rng)
    if quick:
        shapes = [(shapes[0][0], 2), (shapes[5][0], 2)]
    for i, (known, extra) in enumerate(shapes):
        rows, implied = _pad(rng, known.rows, extra)
        rows, u, shift = _place(rng, rows, known.dim)
        doc = _halfspace_doc(f"known-{i}", known.dim, [rows])
        for cmd in ("validate", "barycenter"):
            ops.append(Op(f"{cmd}:known-{i}:d{known.dim}m{len(rows)}", [cmd, "--input", "@doc"], doc,
                          ("known", known, implied, u, shift)))

    # The bundle polytope at its irrational critical parameter: float input.
    c = oracle.pe_critical_c()
    pe_doc = {
        "name": "pE-4fold-c:critical",
        "dimension": 4,
        "halfspaces": [
            [[[-x for x in d], off if isinstance(off, float) else str(off)]
             for d, off in zip(oracle.PE_LEQ_NORMALS, oracle.pe_offsets(cc))]
            for cc in (c, 1.0 - c)
        ],
    }
    for cmd in ("validate", "barycenter"):
        ops.append(Op(f"{cmd}:pE-4fold-c:critical", [cmd, "--input", "@doc"], pe_doc, ("pe-float", c)))

    # Rejections: a known polytope cut off by one row, a known polytope with
    # a facet row removed (a vertex remains), or with every row along one
    # axis removed (no vertex).  Signed permutations keep the elimination
    # cost the same for every seed.
    K = oracle.KnownPolytope
    rejects = [
        ("infeasible", K.cross(3, 2)),
        ("infeasible", K.cross(3, 2).times(K.box([0], [1]))),
        ("infeasible", K.cross(4, 1)),
        ("infeasible", K.box([0] * 5, [1] * 5)),
        ("unbounded", K.box([0] * 4, [2] * 4)),
        ("unbounded", K.simplex(3, 2).times(K.box([0], [1]))),
        ("no-vertex", K.box([0] * 3, [1] * 3)),
    ]
    if quick:
        rejects = [rejects[0], rejects[4], rejects[6]]
    for i, (kind, known) in enumerate(rejects):
        rows = list(known.rows)
        if kind == "infeasible":
            d, c = rng.choice(rows)
            rows.append((tuple(-x for x in d), -c - Fraction(1, 2)))
            reason = "halfspace system is infeasible"
        elif kind == "unbounded":
            rows.remove(rng.choice(rows))
            reason = "unbounded along"
        else:
            rows = [(d, c) for d, c in rows if d[0] == 0]
            reason = "feasible but has no vertex"
        rng.shuffle(rows)
        rows, _, _ = _place(rng, rows, known.dim, shear=False)
        doc = _halfspace_doc(f"{kind}-{i}", known.dim, [rows])
        ops.append(Op(f"validate:{kind}-{i}:d{known.dim}m{len(rows)}", ["validate", "--input", "@doc"], doc,
                      ("reject", reason)))
    return ops


# ---------------------------------------------------------------------------
# soliton


def _fields(rng, k, dim):
    return [[Fraction(rng.randint(-12, 12), 8) for _ in range(dim)] for _ in range(k)]


def soliton(rng, quick):
    ops = []
    t = _small_rational(rng, Fraction(-1, 2), Fraction(1, 2), 20) or Fraction(1, 10)
    # The product solves dominate the round, so their decompositions do not
    # depend on the seed: the Newton paths, and so their costs, stay put.
    fixed = random.Random(0)
    solves = [
        fan_problem(rng, "blowup-p2-1pt", 0, 1),
        hexagon_problem(t),
        fan_problem(fixed, "blowup-p2-1pt", 1, 2),
        fan_problem(fixed, "hexagon-dP6-t", 1, 2),
        fan_problem(fixed, "blowup-p2-1pt", 2, 2),
    ]
    if quick:
        solves = solves[:1]
    for prob in solves:
        ops.append(Op(f"soliton-solve:{prob.label}", ["soliton-solve", "--input", "@doc"], prob.document(),
                      ("solve", prob)))
    if not quick:
        c = Fraction(3, 5)
        parts = [[(tuple(-x for x in d), off) for d, off in zip(oracle.PE_LEQ_NORMALS, oracle.pe_offsets(cc))]
                 for cc in (c, 1 - c)]
        ops.append(Op("soliton-solve:pE-4fold-c:3/5", ["soliton-solve", "--input", "@doc"],
                      _halfspace_doc("pE-4fold-c:3/5", 4, parts), ("solve-pe", c)))

    checks = [
        fan_problem(rng, "blowup-p2-1pt", 0, 2),
        fan_problem(rng, "hexagon-dP6-t", 0, 2),
        fan_problem(rng, "p1xp1", 1, 2),
        fan_problem(rng, "blowup-p2-1pt", 1, 2),
    ]
    if quick:
        checks = checks[:1]
    for prob in checks:
        prob.vector_fields = _fields(rng, 2, prob.dim)
        doc = prob.document()
        for cmd in ("soliton-check", "barycenter"):
            ops.append(Op(f"{cmd}:{prob.label}", [cmd, "--input", "@doc"], doc, ("fields", prob)))

    # Two-part decompositions of P^1: [-u, 1-u] and [u-1, u] are mirror
    # images, so fields (w, -w) cancel and fields (w, w) do not.  How long
    # an obstruction takes to show depends on |w|, so those stay fixed.
    w = _small_rational(rng, Fraction(1, 2), 2, 4)
    sign = rng.choice((-1, 1))
    pairs = [(0, 0, True), (w, -w, True), (sign * Fraction(1, 2),) * 2 + (False,), (-sign, -sign, False)]
    if quick:
        pairs = pairs[1:3]
    for i, (w1, w2, cancels) in enumerate(pairs):
        u = _small_rational(rng, 0, 1, 8)
        prob = FanProblem(f"P1-pair-{i}", [P1], [[[u, 1 - u]], [[1 - u, u]]])
        prob.vector_fields = [[Fraction(w1)], [Fraction(w2)]]
        intervals = [(-u, 1 - u), (u - 1, u)]
        ops.append(Op(f"ma-solve:{prob.label}", ["ma-solve", "--input", "@doc"], prob.document(),
                      ("ma", intervals, [float(w1), float(w2)], cancels)))

    # Large fields on P^2: the weighted barycenter is well defined, but the
    # program's exponent shift leaves its +-700 guard and raises.
    for big in (400, 900):
        prob = registry_problem("p2")
        prob.label = f"p2-field-{big}"
        prob.vector_fields = [[Fraction(big), Fraction(0)]]
        ops.append(Op(f"soliton-check:{prob.label}", ["soliton-check", "--input", "@doc"], prob.document(),
                      ("fields", prob), fails_today=True))
    return ops


BUILDERS = {
    "cli-cold": cli_cold,
    "exact-fan": exact_fan,
    "raw-halfspace": raw_halfspace,
    "soliton": soliton,
}


def build(workload, seed, quick=False):
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, quick)


def write_documents(ops, directory):
    """Write each distinct document once and point the ops at it."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        if op.doc is None:
            continue
        key = id(op.doc)
        if key not in paths:
            path = os.path.join(directory, f"doc{len(paths):03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(op.doc, handle)
            paths[key] = path
        op.argv = [paths[key] if a == "@doc" else a for a in op.argv]
    return ops
