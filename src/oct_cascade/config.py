"""One check of every field of the frozen config and metrics records, on construction and on load."""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing

from .errors import ConfigError

#: A field type for file paths: a non-empty string.
Path = typing.NewType("Path", str)


class In(str):
    """A number field's interval, in the notation its messages quote:
    `Annotated[float, In("(0, 1]")]`. NaN lies in no interval."""

    def __contains__(self, x) -> bool:
        lo, hi = (float(end) for end in self[1:-1].split(","))
        above = lo < x if self.startswith("(") else lo <= x
        below = x < hi if self.endswith(")") else x <= hi
        return above and below


@functools.cache
def field_types(cls) -> dict:
    """A dataclass's field types, `Annotated` intervals kept, read once per class."""
    return typing.get_type_hints(cls, include_extras=True)


class Checked:
    """Mixin checking a dataclass's fields on construction: a value of the
    wrong JSON type, a NaN or an infinity for a float, or a number outside
    its `Annotated[..., In(...)]` interval raises ConfigError naming the
    field. Each field keeps its value widened to its type: a list to a
    tuple, an int to a float, an object to a nested config. Messages name
    the class, or its `section` if it has one."""

    def __post_init__(self):
        section = getattr(self, "section", type(self).__name__)
        for name, tp in field_types(type(self)).items():
            object.__setattr__(self, name, _checked(getattr(self, name), tp, f"{section} field {name!r}"))


class FromDict(Checked):
    """Mixin giving a checked config dataclass `from_dict` and its inverse
    `to_dict`. `from_dict` refuses a non-object and unknown fields, and
    construction checks the values. Subclasses name themselves in messages
    through `section`."""

    section = "config"

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} must be a JSON object, got {d!r}")
        unknown = set(d) - set(field_types(cls))
        if unknown:
            raise ConfigError(f"unknown {cls.section} fields {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        """The JSON object that `from_dict` reads back as an equal config."""
        return {f.name: to_json(getattr(self, f.name)) for f in dataclasses.fields(self)}


def to_json(value):
    """`value` as JSON data: tuples become lists and nested configs their `to_dict`."""
    if isinstance(value, FromDict):
        return value.to_dict()
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    return value


def _checked(value, tp, what: str):
    """`value` checked against the field type `tp` and widened to it."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        value = _checked(value, args[0], what)
        for bound in tp.__metadata__:
            if isinstance(bound, In) and value not in bound:
                raise ConfigError(f"{what} must be in {bound}, got {value!r}")
        return value
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if ... in args else args  # tuple[X, ...] takes any count
            if len(value) == len(items):
                return tuple(_checked(v, a, f"{what}[{i}]") for i, (v, a) in enumerate(zip(value, items)))
    elif origin is dict:
        if isinstance(value, dict) and all(isinstance(k, str) for k in value):
            return {k: _checked(v, args[1], f"{what}[{k!r}]") for k, v in value.items()}
    elif isinstance(tp, type) and issubclass(tp, FromDict):
        if isinstance(value, tp):
            return value
        if isinstance(value, dict):
            return tp.from_dict(value)
        raise ConfigError(f"{what} section must be a JSON object, got {value!r}")
    elif tp is Path:
        if type(value) is str and value:
            return value
    elif tp is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)  # an int widened; NaN and the infinities refused
    elif type(value) is tp:
        return value
    raise ConfigError(f"{what} must be {_describe(tp)}, got {value!r}")


def _describe(tp) -> str:
    if typing.get_origin(tp) is tuple:
        return "a list" if ... in typing.get_args(tp) else f"a list of {len(typing.get_args(tp))} values"
    if typing.get_origin(tp) is dict:
        return "a JSON object"
    return {bool: "true or false", int: "an integer", float: "a number", str: "a string",
            Path: "a path string"}[tp]
