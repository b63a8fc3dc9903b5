"""`errors.json_text`, the CLI's one JSON writer, against `json.dumps(doc, indent=2)`:
the same text for every document of dicts (str keys), lists, tuples and
scalars, and for every kind of verification report."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrate import (
    verify_exchange_inequalities, verify_multi_burst_worst_case, verify_single_burst_worst_case,
)
from conftest import numpy_params
from streamrate.errors import json_text


def dumps(doc) -> str:
    return json.dumps(doc, indent=2)


# quote, backslash, control characters, DEL, non-ASCII, a lone surrogate, outside the BMP
_special = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\xe9", " ", "\ud800", "\U0001f600"])
texts = st.text(st.characters() | _special, max_size=8)
ints = st.integers(-(2**600), 2**600)
_extremes = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
floats = st.floats() | st.sampled_from(_extremes)
scalars = st.none() | st.booleans() | ints | floats | texts


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(texts, children, max_size=5)
        | st.lists(ints | st.booleans(), max_size=6)  # int lists with bools mixed in
    )


documents = st.recursive(scalars, _containers, max_leaves=20)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


@settings(max_examples=250, deadline=None)
@given(documents)
def test_same_text_as_indented_dumps(doc):
    assert json_text(doc) == dumps(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(ints | st.booleans() | floats, max_size=6) | st.lists(documents, max_size=3), documents)
def test_list_shared_at_one_and_two_depths(shared, other):
    # one object at one depth (an argmax that is the star) and at two depths
    doc = {"star": shared, "argmax": shared, "deeper": {"again": shared, "list": [shared, other, shared]}}
    assert json_text(doc) == dumps(doc)
    assert json_text([shared, [shared], shared]) == dumps([shared, [shared], shared])


EDGE = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empties": [[], {}, (), {"": []}, [[]]],
    "empty-string": "",
    "zero": 0,
    "minus-zero": -0.0,
    "2**600": 2**600,
    "-2**600": -(2**600),
    "bools-among-ints": [True, 1, False, 0],
    "float-among-ints": [1.0, 1],
    # subclasses are written by the type they are an instance of, not their own
    "subclasses": _Dict(a=_List([_Str("b"), _Int(2), _Float(0.5), _Float("nan"), _Tuple((1, _Int(3)))])),
    "int-subclasses-only": [_Int(1), _Int(-2)],
}


@pytest.mark.parametrize("doc", list(EDGE.values()), ids=list(EDGE))
def test_edge_documents(doc):
    assert json_text(doc) == dumps(doc)


@pytest.mark.parametrize("doc", [
    pytest.param({1: 2}, id="int-key"),
    *numpy_params(lambda np: [pytest.param([np.int64(1)], id="numpy-int"),
                              pytest.param([1, np.int64(1)], id="numpy-int-among-ints")]),
    pytest.param({"a": {1, 2}}, id="set"),
    pytest.param([object()], id="object"),
])
def test_unencodable_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        json_text(doc)


def _reports():
    for rho in (0.5, 0.9, 0.999):
        for s2 in (0.01, 0.1, 1.0):
            for B in (0, 1, 3):
                yield verify_single_burst_worst_case(rho, s2, B, B + 9)
                for L in (1, 3):
                    yield verify_multi_burst_worst_case(rho, s2, B, L, 12)
            yield verify_exchange_inequalities(rho, s2, t=20, samples=50, seed=7)
    yield verify_single_burst_worst_case(0.9, 0.1, 1, 500)


def test_reports_write_as_indented_dumps():
    for report in _reports():
        doc = report.to_dict()
        assert report.to_json() == json_text(doc) == dumps(doc), report.name
