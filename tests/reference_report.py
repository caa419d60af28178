"""Test-side reference for the report writer.

The CLI writes a report in one pass (``torifano.cli._dumps``).  This module
holds the two-pass route the writer is checked against, and no command
runs it:

- :func:`jsonable`, the report's JSON-ready copy: Fractions as "p/q"
  strings, finite floats as %.17g strings, dict keys through ``str``,
  tuples as lists, and ``OverflowError`` for a float that is not finite;
- :func:`reference_text`, what ``json.dumps`` writes of that copy with
  sorted keys, indented by two spaces or on one line.
"""

import json
import math
from fractions import Fraction


def jsonable(value):
    """Deterministic JSON-ready form: Fractions as "p/q", finite floats as %.17g."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError(f"a float result is {value}")
        return format(float(value), ".17g")
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_text(value, indent):
    """``json.dumps`` of ``jsonable(value)`` with sorted keys: indented by
    two spaces when ``indent`` is true, else on one line."""
    return json.dumps(jsonable(value), indent=2 if indent else None, sort_keys=True)
