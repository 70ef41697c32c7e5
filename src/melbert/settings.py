"""One schema for the config dataclasses.

A setting's name, type, domain and default are written once, as a field
of a frozen dataclass that mixes in ``Settings``; the domain is part of
the type (``Annotated[int, Range(ge=1)]``, a ``Literal`` or an ``Enum`` of
strings, or a ``list[float]`` of items checked each). ``check`` tests a
value against it, and every config checks each of its fields when made.
``to_dict`` gives the JSON form a checkpoint stores; ``from_dict`` reads it
back strictly, naming the dotted key (``model.encoder.hidden_dim``) of a
missing, unknown or refused value. ``Spec.parse`` reads a value from a
config file line or a flag, and ``parse_text`` checks it too. A value of
the wrong type is reported against its type (``must be int``), one
outside its domain against the domain (``must be int >= 1``), as
``--help`` prints it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import typing
from typing import Optional

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Range:
    """The domain of a number, as its bounds: ``Range(ge=1)`` is at least 1,
    ``Range(gt=0, lt=1)`` strictly between 0 and 1, ``Range()`` any value."""
    ge: Optional[float] = None
    gt: Optional[float] = None
    lt: Optional[float] = None

    def __contains__(self, x) -> bool:
        return ((self.ge is None or x >= self.ge) and (self.gt is None or x > self.gt)
                and (self.lt is None or x < self.lt))

    def __str__(self) -> str:
        bounds = ((">=", self.ge), (">", self.gt), ("<", self.lt))
        return " and ".join(f"{op} {b:g}" for op, b in bounds if b is not None)


class Spec(typing.NamedTuple):
    """A declared type taken apart, as ``check`` and ``parse`` read it."""
    base: type          # int, float, str, list, an Enum or a Settings class
    optional: bool      # whether None is a value
    domain: typing.Any  # a Range, a Literal's strings, a list's item Spec, or None for every value of ``base``
    type_name: str      # the type alone: "int or none"
    label: str          # the type with its domain: "int >= 1 or none"

    def parse(self, text: str):
        """A value of this type from its text, its domain not yet checked;
        ``none`` (any case) is None where allowed."""
        try:
            return None if self.optional and text.lower() == "none" else self.base(text)
        except ValueError:
            raise ConfigError(f"must be {self.type_name}, got {text!r}") from None


@functools.cache
def spec(hint) -> Spec:
    """``hint`` taken apart; an ``Optional`` wraps the ``Annotated`` or ``Literal``."""
    optional = typing.get_origin(hint) is typing.Union
    if optional:
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    base, domain = hint, None
    if typing.get_origin(hint) is typing.Annotated:
        base, domain = typing.get_args(hint)
    elif typing.get_origin(hint) is typing.Literal:
        base, domain = str, typing.get_args(hint)
    elif typing.get_origin(hint) is list:
        base, domain = list, spec(typing.get_args(hint)[0])  # the items' spec
    if isinstance(domain, Spec):
        name, label = f"list of {domain.type_name}", f"list of {domain.label}"
    elif isinstance(domain, tuple) or issubclass(base, enum.Enum):
        name = label = "one of " + ", ".join(domain or [m.value for m in base])
    else:
        name, label = base.__name__, f"{base.__name__} {domain or ''}".rstrip()
    none = " or none" if optional else ""
    return Spec(base, optional, domain, name + none, label + none)


class Field(typing.NamedTuple):
    name: str
    hint: typing.Any     # as declared, with its domain
    default: typing.Any  # dataclasses.MISSING when the field has none
    spec: Spec


@functools.cache
def schema(cls) -> tuple[Field, ...]:
    """The fields of a config class with their resolved types, in order."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple(Field(f.name, hints[f.name], f.default, spec(hints[f.name]))
                 for f in dataclasses.fields(cls))


class Settings:
    """Mixin for frozen config dataclasses: the field checks and the shared
    to_dict/from_dict. A rule across fields goes in the subclass's own
    ``__post_init__``, after this one."""

    def __post_init__(self):
        for f in schema(type(self)):
            check(f.spec, getattr(self, f.name), f.name)

    def to_dict(self) -> dict:
        return {f.name: plain(getattr(self, f.name)) for f in schema(type(self))}

    @classmethod
    def from_dict(cls, d, where: str = ""):
        """The config a ``to_dict`` form describes; ``where`` is its dotted key."""
        fields = schema(cls)
        check_keys(d, [f.name for f in fields], where)
        return cls(**{f.name: _read(f.spec, d[f.name], _join(where, f.name)) for f in fields})


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


def check(s: Spec, value, key: str = ""):
    """``value``, if it is of the type ``s`` and in its domain. ``bool`` is
    never a number, an ``int`` is a ``float``, and a float must be finite."""
    if value is None and s.optional:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float) if s.base is float else s.base):
        label = s.type_name  # a bool is an int to Python, but never a number here
    elif s.base is list:
        return [check(s.domain, item, key) for item in value]
    elif (s.base is float and not math.isfinite(value)) or (s.domain is not None and value not in s.domain):
        label = s.label
    else:
        return value
    raise ConfigError(f"{key!r} must be {label}, got {value!r}" if key else f"must be {label}, got {value!r}")


def _read(s: Spec, value, key: str):
    """A JSON value made its declared type, and checked."""
    if issubclass(s.base, Settings):
        return s.base.from_dict(value, key)
    if issubclass(s.base, enum.Enum):
        try:
            value = s.base(value)
        except ValueError:
            pass
    elif s.base is float and type(value) is int:
        value = float(value)
    elif s.base is list and isinstance(value, list):
        value = [_read(s.domain, item, key) for item in value]
    return check(s, value, key)


def parse_text(hint, text: str):
    """A value from its text (``Spec.parse``), checked against its domain."""
    s = spec(hint)
    return check(s, s.parse(text))
