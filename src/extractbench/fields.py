"""Rules declared on config fields (one alias per shared rule), the one
walker that checks them, and the one writer and the one reader of a
dataclass's JSON document: `to_doc` writes scenarios, run records and cache
metadata, and `from_doc`, its inverse, reads them back. `from_doc` only
shapes JSON (defaults, required and unknown keys, objects, lists as tuples,
integers as floats); every rule, types included, is checked by the class
it builds, through `check_value`, and a broken one is a `ScenarioError`."""

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

import numpy as np


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
    `Range`, a float's finiteness, or those of each item of a tuple or list,
    each value of a dict, or an optional's value."""
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
    elif origin is tuple and args[-1] is not Ellipsis:
        if not isinstance(value, tuple) or len(value) != len(args):
            raise ValueError(
                f"{name} must be a tuple of {len(args)} items, got {value!r}")
        for item, item_hint in zip(value, args):
            check_value(name, item, item_hint)
    elif origin in (tuple, list):  # tuple[X, ...] or list[X]: any number of X
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list or tuple, got {value!r}")
        for item in value:
            check_value(name, item, args[0])
    elif dict in (hint, origin):  # dict[str, X]: each value an X
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, got {value!r}")
        for key, item in value.items() if args else ():
            check_value(f"{name}.{key}", item, args[1])
    elif hint in _TYPES and not (isinstance(value, _TYPES[hint][1]) and (
            hint is bool or not isinstance(value, bool))):
        raise ValueError(f"{name} must be {_TYPES[hint][0]}, got {value!r}")
    elif hint is float and not -math.inf < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite")


def _present(args) -> object:
    """The annotation `X` of ``X | None``, from its union's arguments."""
    (inner,) = [a for a in args if a is not type(None)]
    return inner


class Checked:
    """A base for a config dataclass: its fields are checked when it is
    made. A subclass with rules of its own extends `__post_init__`, calling
    this one first, so that its own rules see values of the declared types."""

    def __post_init__(self):
        for name, hint in field_hints(type(self)).items():
            check_value(name, getattr(self, name), hint)


def to_doc(value):
    """A value as its JSON document: a dataclass as its fields in order, an
    enum as its value, a tuple or list as a list, a dict with each value
    written, and a numpy scalar as its Python int, float or bool."""
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_doc(v) for v in value]
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def is_doc_of(doc, value) -> bool:
    """Whether `doc`, read from JSON, is exactly ``to_doc(value)``: the same
    keys in the same order, and the same JSON types (``6.0`` is not ``6``)."""
    return json.dumps(doc) == json.dumps(to_doc(value))


class ScenarioError(ValueError):
    """A JSON document violates the schema its dataclass declares."""


_REQUIRED = object()


def _shaped(value, hint):
    """A JSON value in the form its field holds, for the field's class to
    check: a list read for a tuple field becomes a tuple, and an integer
    read for a float field a float (infinite past the largest float, as
    JSON's `1e400` reads), in items and dict values too."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return _shaped(value, args[0])
    if origin in (types.UnionType, Union):
        return _shaped(value, _present(args))
    if type(value) is list and origin in (tuple, list):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            value = [_shaped(v, t) for v, t in zip(value, args)]
        return origin(value)
    if type(value) is dict and origin is dict:
        return {k: _shaped(v, args[1]) for k, v in value.items()}
    if hint is float and type(value) is int:
        return (float(value) if abs(value) <= sys.float_info.max
                else math.inf if value > 0 else -math.inf)
    return value


def from_doc(cls, doc, path: str = "", seed: int | None = None, base=None):
    """Read a dataclass from its JSON document, one field per annotation:
    the inverse of :func:`to_doc`.

    An absent or null field takes its default: from `base` (the default
    instance of the enclosing field), or else from the field; a field with
    neither is required. Given a `seed`, every field named `seed` defaults
    to it instead (a scenario's training configs take the scenario seed). A
    dataclass field is read as a nested object with its default as base,
    and any other value is shaped (see `_shaped`), not checked. A key that
    names no field is rejected, and the ValueError of the dataclass, which
    checks its fields, is reported at `path`.
    """
    if type(doc) is not dict:
        raise ScenarioError(
            f"{path or 'document'}: expected an object, got {doc!r}")
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
            values[f.name] = default if value is None else _shaped(value, hint)
    unknown = [f"{path}.{k}" if path else k for k in doc if k not in values]
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}" if path else str(exc)) from None
