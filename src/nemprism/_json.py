"""The one JSON boundary: dataclasses to and from JSON objects, field by field.

A field's JSON key is its name, or ``metadata["json"]`` when that is given
(None leaves the field out of JSON).  ``check`` reads one JSON value as a
type annotation: str, int (not bool), float (an int or a float), complex
(an int, a float or a complex), bool, dict, Optional[X], Tuple[X, ...] and
fixed-length Tuple[X, Y, ...] of these, each from exactly that JSON type
(a tuple reads from a list, or from a tuple when the value comes from
Python), so an accepted input is never silently coerced; anything else
raises ValueError naming the field.  ``Record`` gives a dataclass its
``to_dict`` and ``from_dict`` through these rules.
"""
from __future__ import annotations

import typing
from dataclasses import MISSING, fields
from functools import cache

_KINDS = {
    str: "a string", int: "an integer", float: "a number", complex: "a complex number",
    bool: "a boolean", dict: "a JSON object",
}


@cache
def layout(cls) -> tuple:
    """(attribute, JSON key, annotation, required) of each JSON field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("json", f.name), hints[f.name], f.default is MISSING)
        for f in fields(cls)
        if f.metadata.get("json", f.name) is not None
    )


def check(value, hint, what: str):
    """``value`` read as the annotation ``hint``, or ValueError naming ``what``."""
    if hint is float or hint is complex:
        if isinstance(value, (int, float, hint)) and not isinstance(value, bool):
            try:
                return hint(value)
            except OverflowError:  # a JSON integer beyond the float range
                raise ValueError(f"{what} is too large for a float") from None
    elif isinstance(hint, type):  # str, int, bool or dict
        # bool is an int in Python, but true/false are not numbers in JSON
        if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
            return value
    # a generic annotation holds its get_origin and get_args as attributes
    elif hint.__origin__ is typing.Union:  # Optional[X]
        return None if value is None else check(value, hint.__args__[0], what)
    else:  # Tuple[X, ...] or Tuple[X, Y, ...]
        args = hint.__args__
        if isinstance(value, (list, tuple)):
            if args[-1] is Ellipsis:
                return tuple([check(v, args[0], what) for v in value])
            if len(value) == len(args):
                return tuple([check(v, h, what) for v, h in zip(value, args)])
        size = "" if args[-1] is Ellipsis else f" of {len(args)} items"
        raise ValueError(f"{what} must be a list{size}, got {value!r}")
    raise ValueError(f"{what} must be {_KINDS[hint]}, got {value!r}")


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


class Record:
    """Base of the dataclasses read and written as JSON objects, field by
    field; ``_json_name`` names the object in messages (the class name by
    default)."""

    _json_name = ""

    def to_dict(self) -> dict:
        """The JSON object of this instance; tuples become lists."""
        return {key: _plain(getattr(self, name)) for name, key, _, _ in layout(type(self))}

    @classmethod
    def from_dict(cls, data):
        """An instance read from its JSON object ``data``."""
        what = cls._json_name or cls.__name__
        check(data, dict, what)
        rows = layout(cls)
        unknown = set(data) - {key for _, key, _, _ in rows}
        if unknown:
            raise ValueError(f"unknown {what} field(s): {', '.join(sorted(unknown))}")
        kwargs = {}
        for name, key, hint, required in rows:
            if key in data:
                kwargs[name] = check(data[key], hint, f"{what} field {key!r}")
            elif required:
                raise ValueError(f"{what} field {key!r} is required")
        return cls(**kwargs)
