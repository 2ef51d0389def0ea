"""Rules declared on config fields (one alias per shared rule), the one
walker that checks them, and the one writer and the one reader of a
dataclass's JSON document: `to_doc` writes scenarios, run records and cache
metadata, and `from_doc`, its inverse, reads them back strictly (unknown
keys and wrong JSON types are a `ScenarioError`, and nothing is cast)."""

from __future__ import annotations

import json
import math
import numbers
import sys
import types
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from typing import (Annotated, Literal, NamedTuple, Union, get_args, get_origin,
                    get_type_hints)


class Range(NamedTuple):
    """The rule of ``Annotated[int | float, Range(...)]``: the value lies in
    this interval, whose sides are closed unless marked open."""

    low: float
    high: float | None = None  # None: no upper side
    low_open: bool = False
    high_open: bool = False

    def holds(self, value) -> bool:
        # numbers compare exactly, so an integer of any size is safe here
        above = value > self.low if self.low_open else value >= self.low
        below = self.high is None or (
            value < self.high if self.high_open else value <= self.high)
        return above and below

    def __str__(self):
        if self.high is None:
            return f"must be {'>' if self.low_open else '>='} {self.low}"
        return (f"must lie in {'(' if self.low_open else '['}{self.low}, "
                f"{self.high}{')' if self.high_open else ']'}")


Count = Annotated[int, Range(1)]
NonNegative = Annotated[int, Range(0)]
Positive = Annotated[float, Range(0, low_open=True)]
UnitInterval = Annotated[float, Range(0, 1)]
PosteriorThreshold = Annotated[float, Range(0, 1, low_open=True)]
# a share of each class that leaves rows on both sides of a split
QueryFraction = Annotated[float, Range(0, 1, low_open=True, high_open=True)]
# distillation raises probabilities to 1/T: far below 0.01 they underflow to 0
Temperature = Annotated[float, Range(0.01)]
# a log-normal jitter's sigma: far wider ones overflow a latency to inf
Jitter = Annotated[float, Range(0, 10)]
# Counts that only make a run longer (epochs, inversion iterations, traces,
# histograms, trials) share one ceiling, 100x the most that any workload,
# golden, test or CI document asks of one (500 iterations): a runaway count
# fails at parse time instead of running for days. Zero epochs train nothing.
MAX_REPEATS = 50_000
Repeats = Annotated[int, Range(1, MAX_REPEATS)]
Epochs = Annotated[int, Range(0, MAX_REPEATS)]


# each scalar type's name, and the class of what a field of it holds:
# numbers.Integral takes numpy ints; a bool, an int subclass, is no number
_TYPES = {int: ("an integer", numbers.Integral),
          float: ("a finite number", numbers.Real),
          bool: ("true or false", bool), str: ("a string", str)}


@cache
def field_hints(cls) -> dict:
    """A dataclass's resolved annotations, their `Annotated` rules kept."""
    return get_type_hints(cls, include_extras=True)


def check_value(name: str, value, hint) -> None:
    """Raise ValueError if `value` breaks a rule of the annotation `hint`:
    its type (a fixed-length tuple's length too), a `Literal`'s choices, a
    `Range`, a float's finiteness, or those of each tuple item or of an
    optional's value."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (types.UnionType, Union):  # X | None: None passes
        if value is not None:
            check_value(name, value, _present(args))
    elif origin is Literal:
        if value not in args:
            raise ValueError(f"unknown {name} {value!r}")
    elif origin is Annotated:
        check_value(name, value, args[0])
        if not args[1].holds(value):
            raise ValueError(f"{name} {args[1]}")
    elif origin is tuple:
        if args[-1] is Ellipsis:  # tuple[X, ...]: any number of X
            args = args[:1] * len(value)
        elif not isinstance(value, tuple) or len(value) != len(args):
            raise ValueError(
                f"{name} must be a tuple of {len(args)} items, got {value!r}")
        for item, item_hint in zip(value, args):
            check_value(name, item, item_hint)
    elif hint in _TYPES and not (isinstance(value, _TYPES[hint][1]) and (
            hint is bool or not isinstance(value, bool))):
        raise ValueError(f"{name} must be {_TYPES[hint][0]}, got {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def _present(args) -> object:
    """The annotation `X` of ``X | None``, from its union's arguments."""
    (inner,) = [a for a in args if a is not type(None)]
    return inner


def check_fields(config) -> None:
    """Check each field of a dataclass instance against its annotation."""
    for name, hint in field_hints(type(config)).items():
        check_value(name, getattr(config, name), hint)


class Checked:
    """A base for a config dataclass: its fields are checked when it is
    made. A subclass with rules of its own extends `__post_init__`."""

    def __post_init__(self):
        check_fields(self)


def to_doc(value):
    """A value as its JSON document: a dataclass as its fields in order, an
    enum as its value, a tuple or list as a list, a dict with each value
    written."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    return value


def is_doc_of(doc, value) -> bool:
    """Whether `doc`, read from JSON, is exactly ``to_doc(value)``: the same
    keys in the same order, and the same JSON types (``6.0`` is not ``6``)."""
    return json.dumps(doc) == json.dumps(to_doc(value))


class ScenarioError(ValueError):
    """A JSON document violates the schema its dataclass declares."""


_REQUIRED = object()


def _typed(value, hint, name: str):
    """Check a JSON value against a field annotation. Nothing is cast,
    except that an integer is accepted where a float is expected."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:  # its rules are the config's to check
        return _typed(value, args[0], name)
    if origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        raise ScenarioError(f"{name}: {value!r} is not one of {sorted(args)}")
    if origin in (types.UnionType, Union):  # X | None; from_doc handled None
        return _typed(value, _present(args), name)
    if origin in (tuple, list):
        if type(value) is not list:
            raise ScenarioError(f"{name}: expected a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ScenarioError(
                f"{name}: expected {len(args)} items, got {len(value)}")
        return origin(_typed(v, t, f"{name}[{i}]")
                      for i, (v, t) in enumerate(zip(value, args)))
    if dict in (hint, origin):  # JSON keys are strings; values as annotated
        if type(value) is not dict:
            raise ScenarioError(f"{name}: expected an object, got {value!r}")
        return {k: _typed(v, args[1], f"{name}.{k}")
                for k, v in value.items()} if args else value
    if hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:
        return value
    raise ScenarioError(f"{name}: expected {_TYPES[hint][0]}, got {value!r}")


def from_doc(cls, doc, path: str = "", seed: int | None = None, base=None):
    """Read a dataclass from its JSON document, one field per annotation:
    the inverse of :func:`to_doc`.

    An absent or null field takes its default: from `base` (the default
    instance of the enclosing field), or else from the field; a field with
    neither is required. Given a `seed`, every field named `seed` defaults
    to it instead (a scenario's training configs take the scenario seed). A
    dataclass field is read as a nested object with its default as base. A
    key that names no field is rejected, and the dataclass's own ValueError
    is reported at `path`.
    """
    _typed(doc, dict, path or "document")
    hints = field_hints(cls)
    values = {}
    for f in fields(cls):
        if seed is not None and f.name == "seed":
            default = seed
        elif base is not None:
            default = getattr(base, f.name)
        elif f.default_factory is not MISSING:
            default = f.default_factory()
        else:
            default = _REQUIRED if f.default is MISSING else f.default
        hint, value = hints[f.name], doc.get(f.name)
        name = f"{path}.{f.name}" if path else f.name
        if value is None and default is _REQUIRED:
            raise ScenarioError(f"{name} required")
        if is_dataclass(hint):
            values[f.name] = from_doc(hint, {} if value is None else value, name,
                                      seed, None if default is _REQUIRED else default)
        else:
            values[f.name] = default if value is None else _typed(value, hint, name)
    unknown = [f"{path}.{k}" if path else k for k in doc if k not in values]
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
