"""The checked JSON-object loader and range check shared by the frozen config dataclasses."""

from __future__ import annotations

import dataclasses
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


class Checked:
    """Mixin checking a dataclass's fields on construction against the
    intervals their `Annotated[..., In(...)]` types declare: a value, a
    value of `X | None` that is not None, and each item of a fixed-length
    tuple or a dict. Messages name the class, or its `section` if it has one."""

    def __post_init__(self):
        section = getattr(self, "section", type(self).__name__)
        for name, tp in typing.get_type_hints(type(self), include_extras=True).items():
            _refuse_outside(getattr(self, name), tp, f"{section} field {name!r}")


def _refuse_outside(value, tp, what: str) -> None:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Annotated:
        for bound in tp.__metadata__:
            if isinstance(bound, In) and value not in bound:
                raise ConfigError(f"{what} must be in {bound}, got {value!r}")
    elif origin in (typing.Union, types.UnionType) and value is not None:
        (tp,) = [a for a in args if a is not type(None)]
        _refuse_outside(value, tp, what)
    elif origin is tuple:
        for i, (v, a) in enumerate(zip(value, args)):
            _refuse_outside(v, a, f"{what}[{i}]")
    elif origin is dict:
        for k, v in value.items():
            _refuse_outside(v, args[1], f"{what}[{k!r}]")


class FromDict(Checked):
    """Mixin giving a config dataclass a checked `from_dict` and its inverse `to_dict`.

    An unknown field, or a value whose JSON type does not match the
    field's annotation, raises ConfigError naming the field; so does a
    NaN or an infinity for a float field. A list for a tuple field becomes
    a tuple, an int for a float becomes a float, and an object for a
    nested config field goes through that config's `from_dict`.
    Subclasses name themselves in messages through `section`.
    """

    section = "config"

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.section} must be a JSON object, got {d!r}")
        hints = typing.get_type_hints(cls)  # the dataclass fields' types
        unknown = set(d) - set(hints)
        if unknown:
            raise ConfigError(f"unknown {cls.section} fields {sorted(unknown)}")
        return cls(**{
            name: _checked(value, hints[name], f"{cls.section} field {name!r}")
            for name, value in d.items()
        })

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
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if isinstance(value, (list, tuple)) and len(value) == len(args):
            return tuple(_checked(v, a, f"each value of {what}") for v, a in zip(value, args))
    elif origin is dict:
        if isinstance(value, dict) and all(isinstance(k, str) for k in value):
            return {k: _checked(v, args[1], f"each value of {what}") for k, v in value.items()}
    elif isinstance(tp, type) and issubclass(tp, FromDict):
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
        return f"a list of {len(typing.get_args(tp))} values"
    if typing.get_origin(tp) is dict:
        return "a JSON object"
    return {bool: "true or false", int: "an integer", float: "a number", str: "a string",
            Path: "a path string"}[tp]
