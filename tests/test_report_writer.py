"""The one-pass report writer against its two-pass reference.

``cli._dumps`` must write, byte for byte, what ``json.dumps`` writes of
``reference_report.jsonable`` of the same value, indented (the report) and
on one line (the ``--snapshots`` lines), and fail where the reference
fails.  The standard library's encoder differs between interpreters (its C
encoder writes indented text from Python 3.13 on), so CI runs this module
on the oldest and the newest supported Python.  It imports no numpy.
"""

import collections
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torifano import cli

from reference_report import reference_text

WRITER = settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class Int(int):
    pass


class Float(float):
    pass


class Str(str):
    pass


# Past the default int-to-str limit of 4,300 digits.
big_ints = st.builds(lambda d, sign: sign * (10**4300 + d), st.integers(0, 10**9), st.sampled_from([1, -1]))
ints = st.integers() | big_ints
fractions = st.fractions() | st.builds(Fraction, big_ints, st.integers(1, 10**6)) | st.builds(Fraction, st.just(1), big_ints)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308,
                               sys.float_info.max, 0.1, 1e16, 1e-7])
floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
# Quotes, backslashes, control characters, non-ASCII and astral characters.
texts = st.text() | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "\xe9", "\u2028", "\U0001f600"])
scalars = (
    st.none() | st.booleans() | ints | fractions | floats | texts
    | st.builds(Int, st.integers()) | st.builds(Float, floats) | st.builds(Str, st.text())
)
keys = texts | st.integers() | st.booleans() | st.none() | st.floats() | st.fractions()
# Lists whose items share one type are written in one join.
same_typed = st.lists(ints) | st.lists(texts) | st.lists(fractions) | st.lists(floats) | st.lists(st.booleans())


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
        | st.dictionaries(texts, children, max_size=5).map(collections.OrderedDict)
        | same_typed
    )


values = st.recursive(scalars, _containers, max_leaves=40)


def _written(value, indent):
    with cli._int_digits_unlimited():
        return cli._dumps(value, "\n" if indent else None)


def _reference(value, indent):
    with cli._int_digits_unlimited():
        return reference_text(value, indent)


@WRITER
@given(values)
def test_writer_matches_the_reference(value):
    for indent in (True, False):
        assert _written(value, indent) == _reference(value, indent)


@pytest.mark.parametrize("indent", [True, False])
def test_writer_matches_the_reference_on_a_report_shape(indent):
    report = {
        "command": "barycenter",
        "document": {"name": "p2", "dimension": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "notes": []},
        "options_used": {"tol": 1e-10},
        "results": {"parts": [{"volume": Fraction(9, 2), "barycenter": (Fraction(0), Fraction(-1, 3))}],
                    "ok": True, "destabilizer": None},
        "diagnostics": {},
        "wall_time_s": 0.00123,
    }
    assert _written(report, indent) == _reference(report, indent)


@st.composite
def planted(draw, bad):
    """A nested value with the float ``bad`` somewhere inside it."""
    value = bad
    for _ in range(draw(st.integers(0, 6))):
        items = draw(st.lists(scalars | same_typed, max_size=3))
        items.insert(draw(st.integers(0, len(items))), value)
        kind = draw(st.sampled_from([list, tuple, dict]))
        value = {f"k{i}": item for i, item in enumerate(items)} if kind is dict else kind(items)
    return value


@WRITER
@given(st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(planted))
def test_a_non_finite_float_at_any_depth_fails_like_the_reference(value):
    for indent in (True, False):
        with pytest.raises(OverflowError):
            _reference(value, indent)
        with pytest.raises(OverflowError, match=r"^a float result is (-?inf|nan)$"):
            _written(value, indent)


@pytest.mark.parametrize("value", [{1, 2}, [object()], {"a": b"bytes"}, 1j])
def test_an_unknown_type_fails_like_the_reference(value):
    for indent in (True, False):
        with pytest.raises(TypeError):
            _reference(value, indent)
        with pytest.raises(TypeError, match="^cannot serialize "):
            _written(value, indent)
