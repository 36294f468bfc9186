"""Report serialization: dataclass trees to deterministic JSON and CSV.

Byte-identical output for identical inputs is a design requirement (golden
tests diff the files), so everything here is order-preserving: dataclass
fields serialize in declaration order, dicts in insertion order, and floats
in shortest round-trip form (Python repr).  Non-finite floats become the
strings "nan", "inf", "-inf" to keep the JSON strict.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from functools import lru_cache
from typing import Any, Dict, List

import numpy as np

__all__ = ["to_jsonable", "render_json", "flatten_record", "render_csv"]


def _float_value(x: float):
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _complex_value(c: complex):
    return {"re": _float_value(c.real), "im": _float_value(c.imag)}


def _same(x):
    return x


def _dict_value(d: dict):
    return {str(k): to_jsonable(v) for k, v in d.items()}


def _list_value(xs):
    return [to_jsonable(v) for v in xs]


# The converter of each exact type a report holds, found by one lookup.  A
# dataclass takes its cached field names; any other value (a subclass, a
# numpy scalar or array) the isinstance tests.
_EXACT = {
    float: _float_value,
    str: _same,
    type(None): _same,
    bool: _same,
    int: _same,
    dict: _dict_value,
    list: _list_value,
    tuple: _list_value,
    complex: _complex_value,
}


@lru_cache(maxsize=None)
def _public_fields(cls: type):
    """The names of a dataclass type's fields not starting with '_', in
    declaration order; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))


def to_jsonable(obj: Any):
    """Recursively convert reports, dataclasses, and numpy values to
    JSON-serializable structures with deterministic ordering."""
    convert = _EXACT.get(type(obj))
    if convert is not None:
        return convert(obj)
    names = _public_fields(type(obj))
    if names is not None:
        out: Dict[str, Any] = {"type": type(obj).__name__}
        for name in names:
            out[name] = to_jsonable(getattr(obj, name))
        return out
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _float_value(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _complex_value(complex(obj))
    if isinstance(obj, dict):
        return _dict_value(obj)
    if isinstance(obj, np.ndarray):
        return _list_value(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return _list_value(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(payload: Dict[str, Any]) -> str:
    """Top-level document: {config, reports, summary} with trailing newline."""
    return json.dumps(to_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        re, im = value["re"], value["im"]
        if isinstance(re, float) and isinstance(im, float):
            return repr(complex(re, im))
    return json.dumps(value, allow_nan=False)


def flatten_record(obj: Any) -> Dict[str, Any]:
    """One CSV row per report: nested values collapse to compact JSON."""
    data = to_jsonable(obj)
    if not isinstance(data, dict):
        return {"value": data}
    return data


def render_csv(reports: List[Any]) -> str:
    """Rows for all reports; columns are the union of keys in first-seen order."""
    rows = [flatten_record(r) for r in reports]
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in columns])
    return buf.getvalue()
