"""Field rules declared on annotations, the walker that checks them, and
the one document writer."""

import json
from dataclasses import dataclass
from typing import Annotated, Literal

import pytest

from extractbench.fields import (Count, Range, UnitInterval, check_fields,
                                 check_value, field_hints, is_doc_of, to_doc)
from extractbench.zoo import builtin_spec


@dataclass
class Config:
    mode: Literal["a", "b"] = "a"
    count: Count = 1
    share: Annotated[float, Range(0, 1, low_open=True, high_open=True)] = 0.5
    weight: UnitInterval = 0.0
    scale: float = 1.0
    sizes: tuple[Count, ...] = (1,)
    pair: tuple[float, float] = (0.0, 1.0)
    choice: Literal["a", "b"] | None = None
    limit: Count | None = None

    def __post_init__(self):
        check_fields(self)


class TestRange:
    @pytest.mark.parametrize("rule,text", [
        (Range(1), "must be >= 1"),
        (Range(0, low_open=True), "must be > 0"),
        (Range(0, 1), "must lie in [0, 1]"),
        (Range(0, 1, low_open=True), "must lie in (0, 1]"),
        (Range(0, 1, low_open=True, high_open=True), "must lie in (0, 1)"),
        (Range(0.01), "must be >= 0.01")])
    def test_message_names_the_interval(self, rule, text):
        assert str(rule) == text

    @pytest.mark.parametrize("value,ok", [(1, True), (0, False), (0.5, False),
                                          (10 ** 400, True), (-10 ** 400, False)])
    def test_lower_bound(self, value, ok):
        hint = Annotated[int, Range(1)]
        if ok:
            check_value("n", value, hint)
        else:
            with pytest.raises(ValueError, match="^n must be >= 1$"):
                check_value("n", value, hint)

    def test_huge_integer_is_compared_not_converted(self):
        # a JSON integer has no size limit; converting 10**400 to a float
        # would overflow
        hint = Annotated[float, Range(0, 100, low_open=True)]
        with pytest.raises(ValueError, match=r"^lr must lie in \(0, 100\]$"):
            check_value("lr", 10 ** 400, hint)
        check_value("lr", 100, hint)


class TestCheckFields:
    def test_defaults_pass(self):
        Config()

    @pytest.mark.parametrize("field,value,message", [
        ("mode", "c", "^unknown mode 'c'$"),
        ("count", 0, "^count must be >= 1$"),
        ("share", 0.0, r"^share must lie in \(0, 1\)$"),
        ("share", 1.0, r"^share must lie in \(0, 1\)$"),
        ("weight", 1.5, r"^weight must lie in \[0, 1\]$"),
        ("weight", float("nan"), "^weight must be finite$"),
        ("scale", float("inf"), "^scale must be finite$"),
        ("sizes", (3, 0), "^sizes must be >= 1$"),
        ("pair", (0.0, float("-inf")), "^pair must be finite$"),
        ("choice", "c", "^unknown choice 'c'$"),
        ("limit", 0, "^limit must be >= 1$")])
    def test_each_rule_is_enforced(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            Config(**{field: value})

    def test_hints_keep_the_rules(self):
        hint = field_hints(Config)["count"]
        assert hint == Count
        assert field_hints(Config) is field_hints(Config)


class TestToDoc:
    SPEC = builtin_spec("mini-mlp-1", (2, 2, 1), 2)

    def test_spec_document_keeps_its_keys_and_types(self):
        # the spec echo of every checkpoint's metadata.json: fields in
        # order, the operator kind as its value, tuples as lists
        assert json.dumps(to_doc(self.SPEC)) == json.dumps({
            "id": "mini-mlp-1", "family": "mini-mlp",
            "nodes": [{"node_id": "head", "kind": "fc",
                       "params": {"out_features": 2}, "inputs": ["input"]},
                      {"node_id": "probs", "kind": "softmax", "params": {},
                       "inputs": ["head"]}],
            "input_shape": [2, 2, 1], "class_count": 2})

    def test_a_document_read_back_matches_only_exactly(self):
        doc = json.loads(json.dumps(to_doc(self.SPEC)))
        assert is_doc_of(doc, self.SPEC)
        assert not is_doc_of({**doc, "input_shape": [2.0, 2.0, 1]}, self.SPEC)
        assert not is_doc_of(dict(reversed(doc.items())), self.SPEC)
