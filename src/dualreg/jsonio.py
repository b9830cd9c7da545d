"""The one reader of the program's JSON files: training configs, checkpoint
manifests and grid headers. A ``parse`` takes each field with ``take`` and ends
with ``done``, so one set of typing rules holds and every fault names the file."""

from __future__ import annotations

import json
import math

_REQUIRED = object()
_KINDS = {int: "an integer", float: "a finite number", str: "a string", dict: "a JSON object"}


def read_json(path, parse):
    """``parse`` of the top-level object of the JSON file at ``path``, which
    ``parse`` may consume; a fault in the contents is a ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
            if not isinstance(d, dict):
                raise ValueError(f"the top level must be a JSON object, got {type(d).__name__}")
            return parse(d)
        except (OverflowError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: {e}") from e


def take(d, key, kind, default=_REQUIRED):
    """Pop ``key`` from ``d`` as ``kind``: int, float, str, dict, object (any
    value), or ``[kind]`` for a list. An int is integral (2.0 reads as 2), a
    float is finite, and neither is a bool or a string. A missing key reads as
    ``default``, and so does a null where the default is None."""
    value = d.pop(key, default)
    if value is _REQUIRED:
        raise ValueError(f"missing field {key!r}")
    return value if value is default else _typed(key, kind, value)


def _typed(key, kind, value):
    if isinstance(kind, list) and isinstance(value, list):
        return [_typed(key, kind[0], v) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and math.isfinite(value):
        return float(value)
    if kind is int and number and float(value).is_integer():
        return int(value)
    if kind in (str, dict, object) and isinstance(value, kind):
        return value
    what = _KINDS[kind] if isinstance(kind, type) else "a list"
    raise ValueError(f"field {key!r} must be {what}, got {value!r}")


def done(d) -> None:
    """Reject the fields that no ``take`` consumed, by name."""
    if d:
        raise ValueError(f"unknown field(s): {sorted(d)}")
