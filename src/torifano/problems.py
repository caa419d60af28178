"""Problem documents: the JSON exchange format and the built-in registry.

A document carries either fan data (rays, max_cones, decomposition matrix)
or raw halfspace lists, one list per decomposition part.  Rationals travel
as "p/q" strings and stay exact; any float anywhere switches the geometry
pipeline to float tolerances.  Raw halfspaces may arrive in the dual
"leq" convention, in which case normals are negated at ingestion and the
conversion is recorded in the document notes.  Each distinct string or int
token is parsed once per document: scalars repeat within a document, and
parsing a "p/q" string costs far more than a dictionary lookup.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from ._record import Record
from .errors import InputError, UnknownExampleError
from .geometry import tolerance

HEXAGON_DEFAULT_T = Fraction(1, 10)


def _quoted(token, limit=40):
    """A token as a message quotes it: whole when short, else its start and length."""
    return repr(token) if len(token) <= limit else f"{token[:limit]!r}... ({len(token)} characters)"


def parse_scalar(value, where):
    """int and "p/q" strings parse exactly; finite floats stay floats."""
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"{where}: expected a finite number, got {value}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            reason = "zero denominator"
        except ValueError as exc:
            # Fraction's message quotes the whole token, which is quoted once below.
            reason = "not an integer, decimal or p/q" if value in str(exc) else str(exc)
        raise InputError(f"{where}: invalid rational {_quoted(value)} ({reason})")
    raise InputError(f"{where}: expected a number or 'p/q' string, got {type(value).__name__}")


def format_scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _list(value, where, what, length=None):
    """``value`` as a tuple, when it is a JSON list of the given length."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise InputError(f"{where}: expected {what}")
    return tuple(value)


def _int_vector(value, length, where):
    value = _list(value, where, f"an integer vector of length {length}", length)
    for i, entry in enumerate(value):
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise InputError(f"{where}[{i}]: expected an integer")
    return value


class ProblemDocument(Record):
    name: str
    dimension: int
    rays: tuple | None = None
    max_cones: tuple | None = None
    decomposition: tuple | None = None
    halfspaces: tuple | None = None
    vector_fields: tuple | None = None
    options: dict = None  # None builds a fresh {}
    notes: tuple = ()

    def __post_init__(self):
        if self.options is None:
            object.__setattr__(self, "options", {})

    @property
    def k(self):
        if self.decomposition is not None:
            return len(self.decomposition)
        return len(self.halfspaces)

    @property
    def exact(self):
        """True when no float contaminates the geometry data: halfspaces or decomposition."""
        rows = [(*d, c) for part in self.halfspaces or () for d, c in part]
        return tolerance([x for row in (*rows, *(self.decomposition or ())) for x in row]) == 0


def _is_halfspace_pair(entry):
    return (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and isinstance(entry[0], (list, tuple))
        and isinstance(entry[1], (int, float, str))
    )


def _parse_halfspaces(raw, dim, form, notes, scalar):
    if not isinstance(raw, (list, tuple)) or not raw:
        raise InputError("halfspaces: expected a non-empty list")
    if not all(isinstance(p, (list, tuple)) and p and all(_is_halfspace_pair(e) for e in p) for p in raw):
        raise InputError("halfspaces: expected one non-empty list of [normal, offset] pairs per decomposition part")
    negate = form == "leq"
    if negate:
        notes.append("halfspaces converted from leq form (normals negated) at ingestion")
    elif form != "geq":
        raise InputError(f"halfspace_form: expected 'geq' or 'leq', got {form!r}")
    out = []
    for i, part in enumerate(raw):
        rows = []
        for j, (normal, offset) in enumerate(part):
            where = f"halfspaces[{i}][{j}]"
            if len(normal) != dim:
                raise InputError(f"{where}: normal has length {len(normal)}, expected {dim}")
            d = tuple(scalar(x, where) for x in normal)
            rows.append((tuple(-x for x in d) if negate else d, scalar(offset, where)))
        out.append(tuple(rows))
    return tuple(out)


def document_from_dict(data, default_name="unnamed"):
    if not isinstance(data, dict):
        raise InputError("document: expected a JSON object")
    known = {
        "name", "dimension", "rays", "max_cones", "decomposition",
        "halfspaces", "halfspace_form", "vector_fields", "options", "notes",
    }
    for key in data:
        if key not in known:
            raise InputError(f"document: unknown field {key!r}")
    name = data.get("name", default_name)
    dim = data.get("dimension")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError("dimension: expected a positive integer")

    fan_keys = [k for k in ("rays", "max_cones", "decomposition") if data.get(k) is not None]
    has_raw = data.get("halfspaces") is not None
    if has_raw and fan_keys:
        raise InputError("document: exactly one geometry source (rays+max_cones+decomposition or halfspaces)")
    if not has_raw and len(fan_keys) != 3:
        raise InputError("document: exactly one geometry source (rays+max_cones+decomposition or halfspaces)")

    memo = {}

    def scalar(value, where):
        """``parse_scalar``, run once per distinct string or int token of this
        document.  Bools (True equals 1) and floats (0.0 equals -0.0) skip
        the memo; only a token that parsed enters it."""
        kind = type(value)
        if kind is not str and kind is not int:
            return parse_scalar(value, where)
        parsed = memo.get(value)
        if parsed is None:
            parsed = memo[value] = parse_scalar(value, where)
        return parsed

    notes = list(_list(data.get("notes", ()), "notes", "a list of strings"))
    if not all(isinstance(note, str) for note in notes):
        raise InputError("notes: expected a list of strings")
    rays = max_cones = decomposition = halfspaces = None
    if has_raw:
        halfspaces = _parse_halfspaces(
            data["halfspaces"], dim, data.get("halfspace_form", "geq"), notes, scalar
        )
        k = len(halfspaces)
    else:
        rays = tuple(
            _int_vector(r, dim, f"rays[{i}]")
            for i, r in enumerate(_list(data["rays"], "rays", "a list of rays"))
        )
        max_cones = []
        for i, cone in enumerate(_list(data["max_cones"], "max_cones", "a list of cones")):
            cone = _list(cone, f"max_cones[{i}]", "a list of ray indices")
            for idx in cone:
                if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < len(rays):
                    raise InputError(f"max_cones[{i}]: ray index {idx!r} out of range")
            max_cones.append(cone)
        max_cones = tuple(max_cones)
        matrix = data["decomposition"]
        if not isinstance(matrix, (list, tuple)) or not matrix:
            raise InputError("decomposition: expected a non-empty matrix")
        decomposition = []
        for i, row in enumerate(matrix):
            row = _list(row, f"decomposition[{i}]", f"{len(rays)} entries", len(rays))
            decomposition.append(
                tuple(scalar(x, f"decomposition[{i}][{j}]") for j, x in enumerate(row))
            )
        decomposition = tuple(decomposition)
        k = len(decomposition)

    vector_fields = None
    if data.get("vector_fields") is not None:
        vf = _list(data["vector_fields"], "vector_fields", f"{k} vectors, one per part", k)
        vector_fields = tuple(
            tuple(
                scalar(x, f"vector_fields[{i}]")
                for x in _list(row, f"vector_fields[{i}]", f"a vector of length {dim}", dim)
            )
            for i, row in enumerate(vf)
        )

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options: expected an object")
    return ProblemDocument(
        name=str(name),
        dimension=dim,
        rays=rays,
        max_cones=max_cones,
        decomposition=decomposition,
        halfspaces=halfspaces,
        vector_fields=vector_fields,
        options=dict(options),
        notes=tuple(notes),
    )


def document_to_dict(doc):
    out = {"name": doc.name, "dimension": doc.dimension}
    if doc.halfspaces is not None:
        out["halfspaces"] = [
            [[list(map(format_scalar, normal)), format_scalar(offset)] for normal, offset in part]
            for part in doc.halfspaces
        ]
        out["halfspace_form"] = "geq"
    else:
        out["rays"] = [list(r) for r in doc.rays]
        out["max_cones"] = [list(c) for c in doc.max_cones]
        out["decomposition"] = [[format_scalar(x) for x in row] for row in doc.decomposition]
    if doc.vector_fields is not None:
        out["vector_fields"] = [[format_scalar(x) for x in row] for row in doc.vector_fields]
    if doc.options:
        out["options"] = doc.options
    if doc.notes:
        out["notes"] = list(doc.notes)
    return out


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    return document_from_dict(data, default_name=str(path))


# Built-in registry.  Fan data is standard; the 4-fold bundle example ships
# as raw halfspaces because its fan's maximal cones are never needed.

_PE_NORMALS_LEQ = (
    (-1, -1, 0, -2),
    (1, 0, 0, -2),
    (0, 1, 0, -2),
    (0, 0, -1, 3),
    (0, 0, 1, 3),
    (0, 0, 0, 6),
    (0, 0, 0, -6),
)


def critical_bundle_parameter():
    """Larger root of 112 c^2 - 112 c + 23, where the barycenter sum vanishes."""
    return 0.5 + math.sqrt(5.0 / 7.0) / 4.0


def _pe_part(c):
    rows = []
    for j, d in enumerate(_PE_NORMALS_LEQ):
        offset = c if j in (3, 4) else Fraction(1, 2)
        rows.append((tuple(-x for x in d), offset))
    return tuple(rows)


def _pe_document(param):
    if param in (None, "", "critical"):
        c = critical_bundle_parameter()
        label = "critical"
    else:
        # No range gate: outside (1/4, 3/4) the class stops being ample and
        # halfspaces go redundant, which the geometry layer reports.
        c = parse_scalar(param, "pE-4fold-c parameter")
        label = str(param)
    return ProblemDocument(
        name=f"pE-4fold-c:{label}",
        dimension=4,
        halfspaces=(_pe_part(c), _pe_part(1 - c)),
        notes=("halfspace normals are the negated leq-form bundle rays",),
    )


def _hexagon_document(param):
    t = HEXAGON_DEFAULT_T if param in (None, "") else parse_scalar(param, "hexagon-dP6-t parameter")
    half = Fraction(1, 2)
    if not -half < t < half:
        raise InputError(f"hexagon-dP6-t: parameter {t} outside (-1/2, 1/2)")
    row_plus = [half, half + t, half, half, half, half]
    row_minus = [half, half - t, half, half, half, half]
    return ProblemDocument(
        name=f"hexagon-dP6-t:{t}",
        dimension=2,
        rays=((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        max_cones=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
        decomposition=(tuple(row_plus), tuple(row_minus)),
    )


def _simple_fan_document(name, dim, rays, max_cones):
    ones = tuple(Fraction(1) for _ in rays)
    return ProblemDocument(
        name=name,
        dimension=dim,
        rays=rays,
        max_cones=max_cones,
        decomposition=(ones,),
    )


def _registry():
    return {
        "p2": lambda p: _simple_fan_document(
            "p2", 2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0))
        ),
        "p1xp1": lambda p: _simple_fan_document(
            "p1xp1", 2,
            ((1, 0), (0, 1), (-1, 0), (0, -1)),
            ((0, 1), (1, 2), (2, 3), (3, 0)),
        ),
        "blowup-p2-1pt": lambda p: _simple_fan_document(
            "blowup-p2-1pt", 2,
            ((1, 0), (0, 1), (-1, -1), (1, 1)),
            ((0, 3), (3, 1), (1, 2), (2, 0)),
        ),
        "hexagon-dP6-t": _hexagon_document,
        "pE-4fold-c": _pe_document,
        "p1-fubini": lambda p: _simple_fan_document(
            "p1-fubini", 1, ((1,), (-1,)), ((0,), (1,))
        ),
    }


def registry_names():
    return tuple(sorted(_registry()))


def builtin_example(spec):
    """Look up "name" or "name:param" in the registry."""
    name, _, param = spec.partition(":")
    registry = _registry()
    if name not in registry:
        raise UnknownExampleError(
            f"unknown example {name!r}; registry: {', '.join(registry_names())}"
        )
    return registry[name](param or None)
