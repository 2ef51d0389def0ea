"""Rules declared on config fields (one alias per shared rule), the one
walker that checks them, and the one writer of a dataclass's JSON document."""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Annotated, Literal, NamedTuple, get_args, get_origin, get_type_hints


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


@cache
def field_hints(cls) -> dict:
    """A dataclass's resolved annotations, their `Annotated` rules kept."""
    return get_type_hints(cls, include_extras=True)


def check_value(name: str, value, hint) -> None:
    """Raise ValueError if `value` breaks a rule of the annotation `hint`: a
    `Literal`'s choices, a `Range`, a float's finiteness, or those of tuple
    items."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal and value not in args:
        raise ValueError(f"unknown {name} {value!r}")
    if origin is Annotated:
        check_value(name, value, args[0])
        if not args[1].holds(value):
            raise ValueError(f"{name} {args[1]}")
    elif origin is tuple:  # every tuple field here holds items of one type
        for item in value:
            check_value(name, item, args[0])
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def check_fields(config) -> None:
    """Check each field of a dataclass instance against its annotation."""
    for name, hint in field_hints(type(config)).items():
        check_value(name, getattr(config, name), hint)


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
