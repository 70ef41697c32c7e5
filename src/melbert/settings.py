"""One schema for the config dataclasses.

A setting's name, type and default are written once, as a field of a
frozen dataclass that mixes in ``Settings``. Everything else is read
off ``dataclasses.fields`` and ``typing.get_type_hints``:

- ``to_dict`` gives the JSON form a checkpoint stores (an enum as its
  value, a nested config as its own dict);
- ``from_dict`` reads that form back strictly: a missing key, an
  unknown key, a value of the wrong JSON type or a value outside an
  ``Optional``'s or an enum's domain is a ``ConfigError`` naming the
  dotted key (``model.encoder.hidden_dim``);
- ``parse_text`` reads one ``key = value`` string, as a config file or
  a command-line flag gives it.

The declared types are ``int``, ``float``, ``str``, an ``Enum``, a
nested ``Settings`` class, and ``Optional`` of any of these. ``bool`` is
never a number; an ``int`` is read as a ``float`` where one is declared.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing

from .errors import ConfigError


class Field(typing.NamedTuple):
    name: str
    hint: typing.Any
    default: typing.Any  # dataclasses.MISSING when the field has none


@functools.cache
def schema(cls) -> tuple[Field, ...]:
    """The fields of a config class with their resolved types, in order."""
    hints = typing.get_type_hints(cls)
    return tuple(Field(f.name, hints[f.name], f.default) for f in dataclasses.fields(cls))


class Settings:
    """Mixin for frozen config dataclasses: the shared to_dict/from_dict."""

    def to_dict(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in schema(type(self))}

    @classmethod
    def from_dict(cls, d, where: str = ""):
        """The config a ``to_dict`` form describes; ``where`` is its dotted key."""
        fields = schema(cls)
        check_keys(d, [f.name for f in fields], where)
        return cls(**{f.name: _read(f.hint, d[f.name], _join(where, f.name)) for f in fields})


def plain(value):
    """The JSON form of a setting's value."""
    if isinstance(value, Settings):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    return value


def check_keys(d, keys, where: str) -> None:
    """``d`` must be an object holding exactly ``keys``."""
    label = repr(where) if where else "the top level"
    if not isinstance(d, dict):
        raise ConfigError(f"{label} is not an object")
    for key in keys:
        if key not in d:
            raise ConfigError(f"{label} has no key {key!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ConfigError(f"{label} has unknown key {unknown[0]!r}")


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _optional(hint):
    """The X of ``Optional[X]``, or None when ``hint`` is not optional."""
    if typing.get_origin(hint) is typing.Union:
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return inner
    return None


def type_label(hint) -> str:
    """How a message names a declared type: ``int``, ``float or none``, ..."""
    inner = _optional(hint)
    if inner is not None:
        return f"{type_label(inner)} or none"
    if issubclass(hint, enum.Enum):
        return "one of " + ", ".join(m.value for m in hint)
    return hint.__name__


def _read(hint, value, key: str):
    """A JSON value checked against its declared type."""
    inner = _optional(hint)
    if inner is not None and value is None:
        return None
    base = inner or hint
    if issubclass(base, Settings):
        return base.from_dict(value, key)
    if issubclass(base, enum.Enum):
        try:
            return base(value)
        except ValueError:
            pass
    elif isinstance(value, bool):
        pass  # a bool is an int to Python, but never a number here
    elif base is float and isinstance(value, (int, float)):
        return float(value)
    elif isinstance(value, base):
        return value
    raise ConfigError(f"{key!r} must be {type_label(hint)}, got {value!r}")


def parse_text(hint, text: str):
    """A value from its text form; ``none`` (any case) is None where allowed."""
    inner = _optional(hint)
    try:
        if inner is None:
            return hint(text)
        return None if text.lower() == "none" else inner(text)
    except ValueError:
        raise ConfigError(f"must be {type_label(hint)}, got {text!r}") from None
