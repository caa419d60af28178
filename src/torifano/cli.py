"""Command line front end: ingest a problem document, run one command,
emit a deterministic JSON report.

Exit codes separate operational failure from mathematical outcome: 0 covers
every computed verdict (including NotExists and Obstructed), 1 is a usage
mistake (an ``--out`` path that cannot be written included), 2 invalid
input, 3 non-convergence of a requested solve or a numerical failure (an
``ArithmeticError``, overflow included).  Floats are serialized as strings
with 17 significant digits and rationals as "p/q", in full however many
digits they have, so identical inputs byte-reproduce the report apart from
wall time; a float result that is not finite is a numerical failure, so no
report carries "nan" or "inf".
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .errors import InputError, UnknownExampleError
from .geometry import Fan, _rounded, polytope_from_halfspaces
from .moments import barycenter, volume, weighted_barycenter
from .problems import (
    builtin_example,
    document_to_dict,
    load_problem,
    parse_scalar,
)
from .stability import (
    Decomposition,
    _validated,
    coupled_ke_verdict,
    destabilizer,
    df_invariant,
    lifted_config,
    soliton_residual,
    solve_soliton,
    sum_barycenter,
)

DEFAULT_TOL = 1e-10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_text(value):
    text = "%.17g" % value
    # "inf", "-inf" and "nan" end in a letter: a result that left the float
    # range fails the command (exit 3).
    if text[-1] in "fn":
        raise OverflowError(f"a float result is {value}")
    return f'"{text}"'


# Lists whose items all have one of these types are written in one join.
_SCALAR_TEXT = {str: _quote, int: int.__repr__, Fraction: '"%s"'.__mod__, float: _float_text}
# A subclass, numpy's float64 say, is written as the first of these it derives from.
_BASES = (Fraction, int, float, dict, list, tuple, str)


def _dumps(value, newline=None):
    """The JSON text of a report value, in one pass.

    Fractions are written as "p/q" strings and finite floats as %.17g
    strings, dict keys as their ``str`` in sorted order, tuples as lists.
    From a ``newline`` of "\\n" the text is indented by two spaces a level;
    with None it is one line.  Either way it is byte for byte what
    ``json.dumps(..., sort_keys=True)`` writes for that form, with
    ``indent=2`` or without.
    """
    out = []
    _write_json(value, newline, out)
    return "".join(out)


def _write_json(value, newline, out):
    """Append the text of ``value`` to ``out``; ``newline`` opens its line."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is Fraction:
        out.append('"%s"' % value)
    elif kind is float:
        out.append(_float_text(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        if newline is None:
            inner, sep, close = None, ", ", "]"
            out.append("[")
        else:
            inner = newline + "  "
            sep, close = "," + inner, newline + "]"
            out.append("[" + inner)
        item = type(value[0])
        text = _SCALAR_TEXT.get(item)
        if text is not None:
            for v in value:
                if type(v) is not item:
                    break
            else:
                out.append(sep.join(map(text, value)))
                out.append(close)
                return
        for v in value:
            _write_json(v, inner, out)
            out.append(sep)
        out[-1] = close
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        if newline is None:
            inner, sep, close = None, ", ", "}"
            out.append("{")
        else:
            inner = newline + "  "
            sep, close = "," + inner, newline + "}"
            out.append("{" + inner)
        if not all(type(k) is str for k in value):
            value = {str(k): v for k, v in value.items()}
        for k, v in sorted(value.items()):
            out.append(_quote(k) + ": ")
            _write_json(v, inner, out)
            out.append(sep)
        out[-1] = close
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        for base in _BASES:
            if isinstance(value, base):
                _write_json(base(value), newline, out)
                return
        raise TypeError(f"cannot serialize {kind.__name__}")


def _raw_parts(doc):
    return [polytope_from_halfspaces(part) for part in doc.halfspaces]


def _decomposition(doc):
    if doc.halfspaces is not None:
        return Decomposition(_raw_parts(doc))
    return Decomposition.from_fan(Fan(doc.rays, doc.max_cones), doc.decomposition)


def _parse_scalar_options(args):
    """--vfield and --cap as numbers, parsed like document scalars: before
    the command runs, under the int-to-str digit limit."""
    if getattr(args, "vfield", None) is not None:
        args.vfield = tuple(parse_scalar(tok.strip(), "--vfield") for tok in args.vfield.split(","))
    if getattr(args, "cap", None) is not None:
        args.cap = parse_scalar(args.cap, "--cap")


def _single_vfield(args, dec):
    if args.vfield is not None:
        return args.vfield
    v = destabilizer(dec)
    if v is None:
        return tuple(Fraction(0) for _ in range(dec.dim))
    return v


def _part_ends(polytope):
    xs = sorted(v[0] for v in polytope.vertices)
    return xs[0], xs[-1]


def _interval_obstruction(ends):
    """Why 0 is not inside the sum of the intervals [a_i, b_i], or None when it is.

    Outside, no common soliton field exists: at every t of the MA path, w'
    tends to the sums of the end points at the two ends of the line, so
    e^{-w} is integrable at none.
    """
    low, high = sum(a for a, _ in ends), sum(b for _, b in ends)
    if low < 0 < high:
        return None
    return f"interval certificate: the parts sum to [{low}, {high}], which does not hold 0 in its interior"


# Command handlers return (results, diagnostics, exit_code).

def _cmd_validate(doc, args):
    diagnostics = {"exact": doc.exact}
    if doc.halfspaces is not None:
        try:
            polytopes = _raw_parts(doc)
        except InputError as exc:
            return {"ok": False, "reason": str(exc)}, diagnostics, 0
        parts = [
            {
                "nvertices": p.nvertices,
                "redundant_halfspaces": [j for j, r in enumerate(p.redundant) if r],
                "degenerate": p.degenerate,
            }
            for p in polytopes
        ]
        results = {"ok": not any(p.degenerate for p in polytopes), "parts": parts}
        diagnostics["note"] = "raw halfspace route: no fan, ampleness and column sums not checked"
        return results, diagnostics, 0

    fan_report, dec_report = _validated(Fan(doc.rays, doc.max_cones), doc.decomposition)
    results = {"fan": vars(fan_report), "ok": False}  # smooth, complete, fano and witnesses
    if dec_report is not None:
        results["decomposition"] = {
            "k": dec_report.k,
            "row_ampleness": list(dec_report.row_ampleness),
            "column_sums": list(dec_report.column_sums),
            "failures": [list(f) for f in dec_report.failures],
        }
        results["ok"] = dec_report.ok
    return results, diagnostics, 0


def _cmd_barycenter(doc, args):
    dec = _decomposition(doc)
    vfields = doc.vector_fields
    parts = []
    for i, polytope in enumerate(dec.polytopes):
        entry = {
            "volume": volume(polytope),
            "barycenter": list(barycenter(polytope)),
        }
        if vfields is not None:
            entry["weighted_barycenter"] = list(weighted_barycenter(polytope, vfields[i]))
        parts.append(entry)
    results = {
        "parts": parts,
        "sum_barycenter": list(sum_barycenter(dec)),
    }
    return results, {"exact": dec.exact}, 0


def _cmd_ke_verdict(doc, args):
    dec = _decomposition(doc)
    verdict = coupled_ke_verdict(dec, tol=args.tol)
    results = {
        "verdict": "Exists" if verdict.exists else "NotExists",
        "exists": verdict.exists,
        "sum_barycenter": list(verdict.sum_barycenter),
        "destabilizer": None if verdict.destabilizer is None else list(verdict.destabilizer),
        "exact": verdict.exact,
    }
    return results, {"tol": verdict.tol}, 0


def _cmd_soliton_check(doc, args):
    dec = _decomposition(doc)
    if doc.vector_fields is None:
        raise InputError("soliton-check needs vector_fields in the document")
    residual = soliton_residual(dec, doc.vector_fields)
    results = {
        "residual": list(residual.total),
        "per_polytope": [list(r) for r in residual.per_polytope],
        "norm": residual.norm,
        "is_soliton": residual.norm < args.tol,
    }
    return results, {"tol": args.tol}, 0


def _cmd_soliton_solve(doc, args):
    dec = _decomposition(doc)
    reason = _interval_obstruction([_part_ends(p) for p in dec.polytopes]) if dec.dim == 1 else None
    if reason is not None:
        # No Newton: the report is V = 0, where A_{P_i} is the barycenter b_i.
        bary = [barycenter(p)[0] for p in dec.polytopes]
        results = {
            "vfield": [0.0],
            "residual_norm": abs(_rounded(sum(bary), "barycenter")),
            "iterations": 0,
            "converged": False,
            "per_polytope_A": [[_rounded(b, "barycenter")] for b in bary],
        }
        return results, {"tol": args.tol, "reason": reason}, 3
    solution = solve_soliton(dec, tol=args.tol)
    results = {
        "vfield": list(solution.vfield),
        "residual_norm": solution.residual_norm,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "per_polytope_A": [list(r) for r in solution.per_polytope_A],
    }
    diagnostics = {
        "tol": args.tol,
        "hessian_condition": solution.hessian_condition,
    }
    return results, diagnostics, 0 if solution.converged else 3


def _cmd_df(doc, args):
    dec = _decomposition(doc)
    vfield = _single_vfield(args, dec)
    report = df_invariant(dec, vfield)
    results = {
        "value": report.value,
        "vfield": list(report.vfield),
        "sum_barycenter": list(report.sum_barycenter),
    }
    return results, {"exact": dec.exact}, 0


def _cmd_lift(doc, args):
    dec = _decomposition(doc)
    vfield = _single_vfield(args, dec)
    parts = []
    for polytope in dec.polytopes:
        lifted = lifted_config(polytope, vfield, cap=args.cap)
        parts.append(
            {
                "cap": lifted.cap,
                "volume_lifted": lifted.volume_lifted,
                "volume_product": lifted.volume_product,
                "identity_holds": lifted.identity_holds,
            }
        )
    results = {"vfield": list(vfield), "parts": parts}
    return results, {"exact": dec.exact}, 0


def _cmd_ma_solve(doc, args):
    # Imported here: the MA solver is the one module every other command
    # can do without, and it loads numpy.
    from . import masolver

    if args.t_schedule is None:
        args.t_schedule = masolver.DEFAULT_T_SCHEDULE
    dec = _decomposition(doc)
    if dec.dim != 1:
        raise InputError("ma-solve supports one-dimensional decompositions only")
    ends = [_part_ends(p) for p in dec.polytopes]
    intervals = [(_rounded(a, "vertex"), _rounded(b, "vertex")) for a, b in ends]
    vfields = doc.vector_fields
    scalars = [0.0] * dec.k if vfields is None else [float(v[0]) for v in vfields]
    reason = _interval_obstruction(ends)
    if reason is None:
        result = masolver.solve_continuity_1d(
            intervals,
            scalars,
            t_schedule=args.t_schedule,
            R=args.grid["R"],
            spacing=args.grid["h"],
            tol=args.tol,
            include_arrays=args.snapshots is not None,
        )
        state = result.state
        mid = len(state.u) // 2
        status, stages, f_at_zero = result.status, result.snapshots, [float(state.u[mid]) / dec.k] * dec.k
        diagnostics = dict(result.diagnostics)
    else:
        status, stages, f_at_zero, diagnostics = "Obstructed", (), None, {"reason": reason}
    # The obstruction witness is soliton-check's sum on the same parts.
    witness = soliton_residual(dec, [(v,) for v in scalars]).total[0]
    if args.snapshots:
        _write("--snapshots", args.snapshots, "".join(_dumps(snap) + "\n" for snap in stages))
    results = {
        "status": status,
        "f_at_zero": f_at_zero,
        "stages": [{k: v for k, v in snap.items() if k not in ("grid", "f", "rho")} for snap in stages],
    }
    diagnostics.update(barycenter_residual=witness, tol=args.tol)
    return results, diagnostics, 0


_HANDLERS = {
    "validate": _cmd_validate,
    "barycenter": _cmd_barycenter,
    "ke-verdict": _cmd_ke_verdict,
    "soliton-check": _cmd_soliton_check,
    "soliton-solve": _cmd_soliton_solve,
    "df": _cmd_df,
    "lift": _cmd_lift,
    "ma-solve": _cmd_ma_solve,
}
COMMANDS = tuple(_HANDLERS)


def _parse_grid(text):
    fields = {}
    for token in text.split(","):
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in ("R", "h") or not value:
            raise UsageError(f"--grid expects R=<radius>,h=<spacing>, got {text!r}")
        if key in fields:
            raise UsageError(f"--grid gives {key} twice, got {text!r}")
        try:
            fields[key] = float(value)
        except ValueError:
            raise UsageError(f"--grid: {value!r} is not a number") from None
    if set(fields) != {"R", "h"}:
        raise UsageError(f"--grid expects both R and h, got {text!r}")
    return fields


def _parse_tol(text):
    try:
        tol = float(text)
    except ValueError:
        raise UsageError(f"--tol: {text!r} is not a number") from None
    if not 0 < tol < math.inf:
        raise UsageError(f"--tol must be finite and positive, got {text!r}")
    return tol


def _output_path(flag):
    """Parser type of an output file option, checked before any work."""
    def parse(path):
        if os.path.isdir(path):
            raise UsageError(f"{flag}: {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{flag}: the directory of {path!r} does not exist")
        return path
    return parse


def _write(flag, path, text):
    """Write an output file; failing to is a usage error, like a bad path."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot write {path!r}: {exc.strerror}") from None


def _parse_schedule(text):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"--t-schedule: {text!r} is not a comma-separated float list") from None


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(prog="torifano", description=__doc__)
    parser.add_argument("--version", action="version", version=f"torifano {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name, prog=f"torifano {name}")
        src = p.add_mutually_exclusive_group()
        src.add_argument("--input", help="problem document (JSON file)")
        src.add_argument("--example", help="built-in example name[:param]")
        p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL,
                       help="verdict / convergence tolerance, finite and positive (default 1e-10)")
        p.add_argument("--out", type=_output_path("--out"), help="also write the report to this file")
        if name in ("df", "lift"):
            p.add_argument("--vfield", help="comma-separated vector, rationals allowed")
        if name == "lift":
            p.add_argument("--cap", help="height cap for the lifted polytope (rational)")
        if name == "ma-solve":
            # A string default is parsed per call: no namespace shares a dict.
            p.add_argument("--grid", type=_parse_grid, default="R=8,h=0.004",
                           help="grid as R=8,h=0.004")
            p.add_argument("--t-schedule", dest="t_schedule", type=_parse_schedule,
                           help="comma-separated increasing path ending at 1 "
                                "(default: the solver's built-in schedule)")
            p.add_argument("--snapshots", type=_output_path("--snapshots"),
                           help="write one JSON object per path stage to this file")
    return parser


def _resolve_document(args):
    if args.input:
        return load_problem(args.input)
    if args.example:
        return builtin_example(args.example)
    raise UsageError("give exactly one of --input or --example")


def run(command, doc, args):
    start = time.perf_counter()
    results, diagnostics, code = _HANDLERS[command](doc, args)
    elapsed = time.perf_counter() - start
    options_used = {"tol": args.tol}
    if command == "ma-solve":
        options_used["grid"] = args.grid
        options_used["t_schedule"] = list(args.t_schedule)
    report = {
        "command": command,
        "document": document_to_dict(doc),
        "options_used": options_used,
        "results": results,
        "diagnostics": diagnostics,
        "version": f"torifano {__version__}",
        "wall_time_s": elapsed,
    }
    return report, code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing command; expected one of: " + ", ".join(COMMANDS))
        doc = _resolve_document(args)
        _parse_scalar_options(args)
        with _int_digits_unlimited():
            report, code = run(args.command, doc, args)
            payload = _dumps(report, "\n") + "\n"
        if args.out:
            _write("--out", args.out, payload)
    except (UsageError, UnknownExampleError) as exc:
        print(f"torifano: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"torifano: invalid input: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"torifano: numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(payload)
    return code


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's int-to-str digit limit (3.11 and later) for the block.

    Exact results and the messages that quote them can have more digits
    than any input, so a command runs and its report is written without
    the limit.  Documents and option scalars are parsed under it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entrypoint():
    sys.exit(main(sys.argv[1:]))
