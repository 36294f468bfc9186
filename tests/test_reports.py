import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from diskmaps.bounds import BoundReport
from diskmaps.reports import flatten_record, render_csv, render_json, to_jsonable


@dataclass
class _Sample:
    name: str
    score: float
    point: complex
    _hidden: int = 0


def test_dataclass_fields_serialize_in_declaration_order():
    doc = to_jsonable(_Sample("a", 1.5, 2 - 3j, 9))
    assert list(doc) == ["type", "name", "score", "point"]
    assert doc["type"] == "_Sample"
    assert doc["point"] == {"re": 2.0, "im": -3.0}
    assert "_hidden" not in doc


def test_nonfinite_floats_become_strings():
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    text = render_json({"x": float("nan")})
    json.loads(text)  # stays strict JSON


def test_numpy_scalars_and_arrays_coerce():
    assert to_jsonable(np.float64(0.5)) == 0.5
    assert to_jsonable(np.int32(3)) == 3
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert to_jsonable(np.complex128(1 + 2j)) == {"re": 1.0, "im": 2.0}


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_render_json_is_deterministic():
    payload = {"config": {"b": 1, "a": 2}, "reports": [], "summary": {}}
    assert render_json(payload) == render_json(payload)
    # insertion order is preserved, not sorted
    assert render_json(payload).index('"b"') < render_json(payload).index('"a"')


def test_floats_render_shortest_round_trip():
    text = render_json({"x": 0.1, "y": 729 / 2 ** (16 / 3)})
    assert '"x": 0.1' in text
    parsed = json.loads(text)
    assert parsed["y"] == 729 / 2 ** (16 / 3)


def test_csv_flattens_reports_with_union_columns():
    rows = [
        BoundReport.evaluated("chen-1.0", 1, 1.0, 1.0),
        {"type": "Extra", "note": "x", "flag": True, "w": complex(0.5, -0.25)},
    ]
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0].split(",")[:3] == ["type", "inequality_id", "index"]
    assert "note" in lines[0] and "flag" in lines[0]
    assert "true" in lines[2]
    assert "(0.5-0.25j)" in lines[2]
    assert text.endswith("\n")


def test_flatten_record_wraps_scalars():
    assert flatten_record(3.5) == {"value": 3.5}
    assert math.isclose(flatten_record({"a": 1.0})["a"], 1.0)


class _Ratio(float):
    pass


class _Pair(NamedTuple):
    a: float
    b: complex


def test_subclasses_serialize_as_their_base_types():
    # Exact types take one lookup and everything else the isinstance tests:
    # both give the same document.
    assert to_jsonable(True) is True and to_jsonable(np.bool_(False)) is False
    assert to_jsonable(_Ratio(float("inf"))) == to_jsonable(float("inf")) == "inf"
    assert to_jsonable(_Pair(0.5, 1j)) == to_jsonable((0.5, 1j)) == [0.5, {"re": 0.0, "im": 1.0}]
    doc = {"sample": _Sample("a", np.float64(1.5), np.complex128(2j)), "n": np.int64(4)}
    assert json.dumps(to_jsonable(doc)) == json.dumps(
        {"sample": to_jsonable(_Sample("a", 1.5, 2j)), "n": 4})
