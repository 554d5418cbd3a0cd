"""JSON-ready report objects: one serializer for every report dataclass.

A report's JSON is its dataclass fields plus its read-only verdict
properties (``passed``, ``consistent``), so the dataclass is the only
statement of its schema.  Fields declared ``repr=False`` are left out.
Points serialize as their ``TreePoint.record()`` (node, or edge and offset),
a ``CoverProfile`` as ``{"kind", "values": [{"n", "value"}, ...]}``, tuples
as lists.  Everything returned is plain dicts/lists/scalars, so
``json.dumps(..., sort_keys=True)`` yields deterministic bytes.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import cache

from .core import TreePoint
from .covering import CoverProfile

__all__ = ["SCHEMA_VERSION", "report_obj"]

SCHEMA_VERSION = 1

_SCALARS = (str, int, float, type(None))


def report_obj(value):
    """Plain JSON data for a report, a point, or a list or dict of them."""
    return _obj(value)  # recursion stays inside, so a wrapper sees one call


def _obj(value):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, TreePoint):
        return value.record()
    if isinstance(value, CoverProfile):
        return {"kind": value.kind,
                "values": [{"n": k + 1, "value": v} for k, v in enumerate(value.values)]}
    if isinstance(value, (tuple, list)):
        return [_obj(v) for v in value]
    if isinstance(value, dict):
        return {k: _obj(v) for k, v in value.items()}
    if is_dataclass(value):
        return {name: _obj(getattr(value, name)) for name in _keys(type(value))}
    raise TypeError(f"no JSON form for {type(value).__name__}")


@cache
def _keys(cls: type) -> tuple[str, ...]:
    """The shown fields of a report dataclass, then its properties."""
    shown = [f.name for f in fields(cls) if f.repr]
    return (*shown, *(n for n in dir(cls) if isinstance(getattr(cls, n), property)))
