"""One JSON serializer for every report.

A report is a frozen, slotted dataclass whose wire format is its fields by
name.  Tuples, lists and arrays become lists, numpy scalars become Python
values, and nested reports are serialized the same way, so ``json.dumps``
needs no ``default=`` hook.  A class whose wire format is not its field list
overrides ``to_json`` and says why; the override calls
``Report.to_json(self)``, since zero-argument ``super()`` fails in a slotted
dataclass (which is a new class).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def _plain(value):
    """``value`` as JSON-ready Python data."""
    if isinstance(value, Report):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class Report:
    """Base class of the report dataclasses: ``to_json`` returns every field by name."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
