"""One shape checker for every schema-stable document.

The metrics document, the check report, the load report, the trace
document, the bench document and the serve error body each declare their
schema as one nested *shape* literal next to their renderer, and
:func:`problems` walks a document against it.  Schemas are append-only
(a key may be added, never renamed, retyped or re-bucketed), so an object
shape lists the keys it requires and lets any others through.

Shapes: ``{"key": shape, ...}`` is an object with at least these keys
(``{}`` is any object); :class:`MapOf` an object from any key to one
shape; :class:`ListOf` a list of one shape, optionally non-empty; a
:class:`Leaf` one value test.  JSON ``true`` loads as a Python ``int``,
so no number leaf accepts a bool, and ``NaN`` / ``Infinity`` are not
:data:`REAL`.
"""

from __future__ import annotations

import reprlib
import sys
from typing import Callable, List, NamedTuple

__all__ = [
    "BOOL", "COUNT", "FRACTION", "INT", "REAL", "STR",
    "Leaf", "ListOf", "MapOf", "const", "nullable", "one_of", "problems",
]


class Leaf(NamedTuple):
    description: str
    test: Callable[[object], bool]


class ListOf(NamedTuple):
    item: object
    non_empty: bool = False


class MapOf(NamedTuple):
    value: object


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    # NaN compares false; so does an int too large to become a float
    return (_is_int(value) or isinstance(value, float)) and (
        abs(value) <= sys.float_info.max
    )


STR = Leaf("a string", lambda value: isinstance(value, str))
BOOL = Leaf("a boolean", lambda value: isinstance(value, bool))
INT = Leaf("an int", _is_int)
COUNT = Leaf("a non-negative int", lambda v: _is_int(v) and v >= 0)
REAL = Leaf("a finite number", _is_real)
FRACTION = Leaf("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)


def const(expected: object) -> Leaf:
    """Exactly ``expected`` (a ``schema_version``), of the same type."""
    return Leaf(repr(expected), lambda v: type(v) is type(expected) and v == expected)


def one_of(*allowed: str) -> Leaf:
    """One of a fixed set of strings (severities, error kinds)."""
    return Leaf(f"one of {list(allowed)}", lambda v: isinstance(v, str) and v in allowed)


def nullable(leaf: Leaf) -> Leaf:
    return Leaf(f"{leaf.description} or null", lambda v: v is None or leaf.test(v))


def problems(doc: object, shape: object) -> List[str]:
    """Every way ``doc`` departs from ``shape``, one line each, named by its
    dotted path (``scale.tiers[0].index_bytes``); empty when it conforms."""
    found: List[str] = []
    _walk(doc, shape, "", found)
    return found


def _walk(value: object, shape: object, path: str, found: List[str]) -> None:
    if isinstance(shape, Leaf):
        if not shape.test(value):
            found.append(_mismatch(path, shape.description, value))
    elif isinstance(shape, ListOf):
        if not isinstance(value, list) or (shape.non_empty and not value):
            wanted = "a non-empty list" if shape.non_empty else "a list"
            found.append(_mismatch(path, wanted, value))
            return
        for index, item in enumerate(value):
            _walk(item, shape.item, f"{path}[{index}]", found)
    elif not isinstance(value, dict):
        found.append(_mismatch(path, "an object", value))
    elif isinstance(shape, MapOf):
        for key, item in value.items():
            _walk(item, shape.value, _child(path, key), found)
    else:
        for key, inner in shape.items():
            if key in value:
                _walk(value[key], inner, _child(path, key), found)
            else:
                found.append(f"{_child(path, key)} missing")


def _child(path: str, key: object) -> str:
    return f"{path}.{key}" if path else str(key)


def _mismatch(path: str, wanted: str, value: object) -> str:
    return f"{path or 'document'} must be {wanted}, got {reprlib.repr(value)}"
