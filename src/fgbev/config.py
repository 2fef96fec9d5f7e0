"""The config schema: each field's type and bounds are declared once, on the
dataclass, and `check_fields` applies them all in one walk. A config's
`__post_init__` adds only the rules that involve more than one field."""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
import typing

# Largest number of elements one array of a run may hold (1 GiB of float64).
# Configs check their array sizes against it before any work starts.
MAX_ARRAY_ELEMENTS = 1 << 27

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<=")}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def bounded(default, *, ge=None, gt=None, le=None):
    """A dataclass field with a default whose value check_fields keeps within the bounds."""
    bounds = {key: b for key, b in (("ge", ge), ("gt", gt), ("le", le)) if b is not None}
    return dataclasses.field(default=default, metadata=bounds)


def check_budget(elements: int, what: str) -> None:
    """Reject the array described by `what` if it would exceed MAX_ARRAY_ELEMENTS."""
    if elements > MAX_ARRAY_ELEMENTS:
        raise ValueError(f"{what} exceed the limit of {MAX_ARRAY_ELEMENTS} array elements")


@functools.cache
def _schema(cls) -> tuple:
    """(name, resolved type, bounds) for each field of cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata) for f in dataclasses.fields(cls))


def _checked(name: str, kind, value):
    """value as a `kind` (int to float, list to tuple); raises ValueError naming the field."""
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ValueError(f"{name} must be a list of {len(items)} entries")
        return tuple(_checked(name, item, v) for item, v in zip(items, value))
    # bool is a subclass of int, but true/false is not a number.
    if not isinstance(value, (int, float) if kind is float else kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        expected = _KIND_NAMES.get(kind) or f"a {kind.__name__}"
        raise ValueError(f"{name} must be {expected}, got {type(value).__name__}")
    if kind in (int, float):
        # False for NaN, the infinities and ints too large to print or convert.
        if not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be a finite number within float range")
        return float(value) if kind is float else value
    return value


def check_fields(obj) -> None:
    """Check every field of dataclass obj against its type and bounds, normalising in place."""
    for name, kind, bounds in _schema(type(obj)):
        value = getattr(obj, name)
        checked = _checked(name, kind, value)
        if checked is not value:
            object.__setattr__(obj, name, checked)
        for key, bound in bounds.items():
            holds, sign = _BOUNDS[key]
            if not holds(checked, bound):
                raise ValueError(f"{name} must be {sign} {bound}, got {checked}")


def from_dict(cls, data, where: str):
    """Build config dataclass cls from untrusted JSON, rejecting unknown keys and reading
    each dataclass-typed field from a nested object; `where` names data in errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    kinds = {name: kind for name, kind, _ in _schema(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"unknown field {key!r} in {where}")
        if dataclasses.is_dataclass(kinds[key]):
            value = from_dict(kinds[key], value, f"config section {key!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
