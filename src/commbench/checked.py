"""The one rule for what a field of a parameter object may hold, read from its type hint."""

from __future__ import annotations

import functools
import math
import typing

_KINDS = {bool: "a bool", int: "an int", float: "a finite float", str: "a string"}


@functools.cache
def field_kinds(cls):
    """name -> (kind, is a tuple, may be None) for each field of dataclass
    `cls`; `int | None` gives (int, False, True), `tuple[float, ...]` (float, True, False)."""
    kinds = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        many = typing.get_origin(hint) is tuple
        kinds[name] = (args[0] if args else hint, many, type(None) in args)
    return kinds


def _as(name, kind, value):
    """`value` as a `kind`. Only a bool field takes a bool, and a float
    field takes a finite int or float, stored as a float."""
    try:
        holds = isinstance(value, bool) == (kind is bool) and (
            isinstance(value, (int, float)) and math.isfinite(value)
            if kind is float else isinstance(value, kind)
        )
    except OverflowError:  # an int too large for a float
        holds = False
    if not holds:
        raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


class Checked:
    """Base of the frozen parameter dataclasses. Building one, by
    `dataclasses.replace` too, checks each field against its type hint (a
    tuple field takes a list or a tuple), then runs the class's `validate()`."""

    def __post_init__(self):
        for name, (kind, many, optional) in field_kinds(type(self)).items():
            value = getattr(self, name)
            if many:
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{name} must be a list, got {value!r}")
                value = tuple(_as(f"{name}[{i}]", kind, v) for i, v in enumerate(value))
            elif not (value is None and optional):
                value = _as(name, kind, value)
            object.__setattr__(self, name, value)
        self.validate()
