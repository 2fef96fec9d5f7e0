"""The schema of every dataclass read from JSON (configs and scene files). Each field's
type and bounds are declared once, on the dataclass; `check_fields` applies them to a
config, whose `__post_init__` adds only the rules between fields. `from_dict` reads any
of them from JSON in one walk that names the path of a bad value; `to_dict` writes it."""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
import typing

import numpy as np

# Largest number of elements one array of a run may hold (1 GiB of float64).
# Configs check their array sizes against it before any work starts.
MAX_ARRAY_ELEMENTS = 1 << 27

_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<=")}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_KIND_NAMES |= {list: "a list", dict: "a JSON object"}


class ConfigError(ValueError):
    """A config whose fields pass their checks but that the run cannot carry out."""


def bounded(default, *, ge=None, gt=None, le=None):
    """A dataclass field with a default whose value check_fields keeps within the bounds."""
    bounds = {key: b for key, b in (("ge", ge), ("gt", gt), ("le", le)) if b is not None}
    return dataclasses.field(default=default, metadata=bounds)


def check_budget(elements: int, what: str) -> None:
    """Reject the array described by `what` if it would exceed MAX_ARRAY_ELEMENTS."""
    if elements > MAX_ARRAY_ELEMENTS:
        raise ValueError(f"{what} exceed the limit of {MAX_ARRAY_ELEMENTS} array elements")


@functools.cache
def _schema(cls) -> dict:
    """name -> (resolved type, bounds, whether it has no default) for each field of cls."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.metadata, f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


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
    for name, (kind, bounds, _) in _schema(type(obj)).items():
        value = getattr(obj, name)
        checked = _checked(name, kind, value)
        if checked is not value:
            object.__setattr__(obj, name, checked)
        for key, bound in bounds.items():
            holds, sign = _BOUNDS[key]
            if not holds(checked, bound):
                raise ValueError(f"{name} must be {sign} {bound}, got {checked}")


def _read(kind, value, path: str):
    """Untrusted JSON value read as a `kind`; errors name path, its place in the document."""
    if kind is np.ndarray:
        # Nested lists of finite numbers; the dataclass makes the array and checks its shape.
        # Floats are checked inline; any other entry goes through the walk, which names it.
        largest = sys.float_info.max
        for i, v in enumerate(_checked(path, list, value)):
            for x in v if type(v) is list else (v,):
                if type(x) is not float or not abs(x) <= largest:
                    _read(np.ndarray if isinstance(v, list) else float, v, f"{path}[{i}]")
                    break
        return value
    if dataclasses.is_dataclass(kind):
        schema, prefix = _schema(kind), f"{path}." if path else ""
        for key in _checked(path or "the top level", dict, value):
            if key not in schema:
                raise ValueError(f"unknown field {prefix}{key}")
        for name, (_, _, required) in schema.items():
            if required and name not in value:
                raise ValueError(f"missing field {prefix}{name}")
        kwargs = {key: _read(schema[key][0], v, prefix + key) for key, v in value.items()}
        try:
            return kind(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}" if path else str(exc)) from None
    if typing.get_origin(kind) is list:
        (item_kind,) = typing.get_args(kind)
        items = enumerate(_checked(path, list, value))
        return [_read(item_kind, v, f"{path}[{i}]") for i, v in items]
    return _checked(path, kind, value)


def from_dict(cls, data, where: str):
    """Build dataclass cls from untrusted JSON; `where` names data in errors. Every key
    must be a field, every field without a default must be given, and an np.ndarray
    field takes nested lists of finite numbers that the dataclass makes its array."""
    try:
        return _read(cls, data, "")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def to_dict(value):
    """Dataclass value as the JSON object that from_dict reads it back from."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_dict(item) for item in value]
    return value
