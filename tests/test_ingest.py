"""Document ingest: each distinct string or int token is parsed once per
document, and the memo behind that changes no answer and no message.

It imports no numpy, so CI also runs it without numpy.
"""

import pytest

from torifano.errors import InputError
from torifano.problems import document_from_dict

P1 = {"name": "p1", "dimension": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}


def _interval(*rows):
    return {"name": "interval", "dimension": 1, "halfspaces": [[[[1], low], [[-1], high]] for low, high in rows]}


def test_a_boolean_after_equal_numbers_is_still_refused():
    # True == 1 and hash(True) == hash(1): no entry for "1" or 1 may answer it.
    rows = [[[1], "1"], [[1], 1], [[-1], True]]
    with pytest.raises(InputError, match=r"^halfspaces\[0\]\[2\]: expected a number, got a boolean$"):
        document_from_dict({"name": "interval", "dimension": 1, "halfspaces": [rows]})
    with pytest.raises(InputError, match=r"^decomposition\[1\]\[1\]: expected a number, got a boolean$"):
        document_from_dict(dict(P1, decomposition=[["1", 1], [1, True]]))


def test_a_repeated_malformed_token_is_reported_at_its_first_place():
    doc = dict(P1, decomposition=[["1", "x/2"], ["x/2", "1"]])
    with pytest.raises(InputError, match=r"^decomposition\[0\]\[1\]: invalid rational 'x/2' "):
        document_from_dict(doc)
    doc = _interval(("0", "1/0"), ("1/0", "1"))
    with pytest.raises(InputError, match=r"^halfspaces\[0\]\[1\]: invalid rational '1/0' \(zero denominator\)$"):
        document_from_dict(doc)


def test_floats_stay_floats_next_to_equal_exact_tokens():
    doc = document_from_dict(_interval((1, "1"), (1.0, -0.0), ("0", 0.0)))
    offsets = [[offset for _, offset in part] for part in doc.halfspaces]
    assert [[type(x).__name__ for x in part] for part in offsets] == [
        ["Fraction", "Fraction"], ["float", "float"], ["Fraction", "float"]]
    assert [str(x) for part in offsets for x in part] == ["1", "1", "1.0", "-0.0", "0", "0.0"]


def test_documents_loaded_one_after_the_other_share_no_parsed_value():
    first = document_from_dict(dict(P1, decomposition=[["1/3", "2/3"], ["2/3", "1/3"]]))
    second = document_from_dict(dict(P1, decomposition=[["1/3", "2/3"], ["2/3", "1/3"]]))
    assert first.decomposition == second.decomposition
    assert all(a is not b for a, b in zip(first.decomposition[0], second.decomposition[0]))
    # A token that failed in one document parses in the next, and one that
    # parsed does not leak into a document where the same place is malformed.
    assert document_from_dict(dict(P1, decomposition=[["1", "1"]])).decomposition == ((1, 1),)
    with pytest.raises(InputError, match=r"^decomposition\[0\]\[0\]: invalid rational"):
        document_from_dict(dict(P1, decomposition=[["1/3x", "1"]]))
