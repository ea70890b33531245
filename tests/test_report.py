import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hyperpoly.report import Report


@dataclass(frozen=True)
class Inner(Report):
    flag: np.bool_
    value: np.float64


@dataclass(frozen=True)
class Outer(Report):
    pair: tuple
    grid: np.ndarray
    count: np.int64
    inner: Inner
    missing: Optional[tuple] = None


def _types(value):
    if isinstance(value, dict):
        return {type(value)} | set().union(*(_types(v) for v in value.values()))
    if isinstance(value, list):
        return {list} | set().union(*(_types(v) for v in value))
    return {type(value)}


def test_fields_by_name_as_plain_python():
    report = Outer(
        pair=(1, (2.5, np.float64(3.0))),
        grid=np.arange(6, dtype=float).reshape(2, 3),
        count=np.int64(4),
        inner=Inner(flag=np.bool_(True), value=np.float64(0.5)),
    )
    doc = report.to_json()
    assert doc == {
        "pair": [1, [2.5, 3.0]],
        "grid": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]],
        "count": 4,
        "inner": {"flag": True, "value": 0.5},
        "missing": None,
    }
    assert _types(doc) <= {dict, list, bool, int, float, type(None)}
    assert doc["inner"]["flag"] is True
    text = json.dumps(doc, allow_nan=False)
    assert json.loads(text) == doc
