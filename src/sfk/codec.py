"""One JSON codec for the config dataclasses, driven by their fields.

``config_to_json`` writes every field of a (possibly nested) config
dataclass.  ``config_from_json`` reads a document back into a given
dataclass type (or a ``list[T]`` of one) using its annotations: nested
dataclass, ``Optional`` and ``list[T]`` fields recurse, absent keys take
the dataclass default, and an unknown key, a missing required key or a
value of the wrong JSON type raises InputError naming the dotted field
(``column_sets[2][0]`` inside a list).  A bool field accepts only
true/false; an int field accepts only a JSON integer (never a bool, a
float or a string).  Value checks stay in each class's __post_init__.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing

from .errors import InputError

_EXPECTED = {bool: "true or false", int: "an integer", str: "a string"}
_JSON_NAME = {dict: "an object", list: "an array", str: "a string", int: "an integer",
              float: "a number", bool: "a boolean", type(None): "null"}


def config_to_json(obj) -> str:
    """Serialize a config dataclass instance, nested configs included."""
    return json.dumps(dataclasses.asdict(obj), indent=1)


def config_from_json(cls, text: str | bytes):
    """Parse ``text`` into an instance of the dataclass ``cls`` (or a list
    of instances, for ``cls = list[T]``)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{_where(cls, '')} does not parse: {exc}") from exc
    return _decode(cls, doc, "")


def _where(tp, path: str) -> str:
    """Name the value at ``path`` for an error: a field, or the whole document."""
    if path:
        return f"field {path!r}"
    args = typing.get_args(tp)
    return f"{tp.__name__}[{args[0].__name__}] JSON" if args else f"{tp.__name__} JSON"


def _decode(tp, value, path: str):
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, value, path)
    if typing.get_origin(tp) is list:
        if type(value) is not list:
            raise InputError(
                f"{_where(tp, path)} must be an array, got {_JSON_NAME[type(value)]}"
            )
        (item,) = typing.get_args(tp)
        return [_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if tp not in _EXPECTED:
        raise TypeError(f"config_from_json cannot decode a field of type {tp!r}")
    if type(value) is not tp:
        raise InputError(
            f"{_where(tp, path)} must be {_EXPECTED[tp]}, got {_JSON_NAME[type(value)]}"
        )
    return value


def _decode_dataclass(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise InputError(f"{_where(cls, path)} must be an object, got {_JSON_NAME[type(doc)]}")
    prefix = path + "." if path else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise InputError(f"unknown field {prefix + key!r} in {cls.__name__} JSON")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in doc:
            kwargs[name] = _decode(hints[name], doc[name], prefix + name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise InputError(f"missing required field {prefix + name!r} in {cls.__name__} JSON")
    return cls(**kwargs)
