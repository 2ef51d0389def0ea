"""Field rules declared on annotations, the walker that checks them, and
the one document writer."""

import json
from dataclasses import dataclass, field
from typing import Annotated, Literal

import numpy as np
import pytest

from extractbench.fields import (Checked, Count, Range, ScenarioError,
                                 UnitInterval, check_value, field_hints,
                                 from_doc, is_doc_of, to_doc)
from extractbench.network import TrainConfig
from extractbench.query_attacks import InversionConfig
from extractbench.zoo import builtin_spec


@dataclass
class Config(Checked):
    mode: Literal["a", "b"] = "a"
    count: Count = 1
    share: Annotated[float, Range(0, 1, low_open=True, high_open=True)] = 0.5
    weight: UnitInterval = 0.0
    scale: float = 1.0
    sizes: tuple[Count, ...] = (1,)
    pair: tuple[float, float] = (0.0, 1.0)
    choice: Literal["a", "b"] | None = None
    limit: Count | None = None
    flag: bool = False
    table: dict[str, float] = field(default_factory=dict)
    names: list[str] = field(default_factory=list)


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

    @pytest.mark.parametrize("value,ok", [(1, True), (0, False), (10 ** 400, True),
                                          (-10 ** 400, False)])
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


class TestTypes:
    """A config built in Python is checked like one read from JSON: an int
    field holds an integer that is not a bool, a float field a number that
    is not a bool, a bool field a bool, and a fixed-length tuple field a
    tuple of exactly its items, each checked by its own annotation."""

    @pytest.mark.parametrize("field,value,message", [
        ("count", 0.5, r"^count must be an integer, got 0\.5$"),
        ("count", 2.0, r"^count must be an integer, got 2\.0$"),
        ("count", True, "^count must be an integer, got True$"),
        ("count", "3", "^count must be an integer, got '3'$"),
        ("limit", 1.5, r"^limit must be an integer, got 1\.5$"),
        ("scale", "1", "^scale must be a finite number, got '1'$"),
        ("weight", False, "^weight must be a finite number, got False$"),
        ("flag", 1, "^flag must be true or false, got 1$"),
        ("pair", (0.0, 1.0, 2.0),
         r"^pair must be a tuple of 2 items, got \(0\.0, 1\.0, 2\.0\)$"),
        ("pair", (0.0,), r"^pair must be a tuple of 2 items, got \(0\.0,\)$"),
        ("pair", [0.0, 1.0], r"^pair must be a tuple of 2 items, got \[0\.0, 1\.0\]$"),
        ("pair", "ab", "^pair must be a tuple of 2 items, got 'ab'$"),
        ("pair", (0.0, "1"), "^pair must be a finite number, got '1'$"),
        ("sizes", "12", "^sizes must be a list or tuple, got '12'$"),
        ("sizes", (1, 2.5), r"^sizes must be an integer, got 2\.5$"),
        ("table", [1], r"^table must be an object, got \[1\]$"),
        ("table", {"a": "x"}, r"^table\.a must be a finite number, got 'x'$"),
        ("table", {"a": float("nan")}, r"^table\.a must be finite$"),
        ("names", "ab", "^names must be a list or tuple, got 'ab'$"),
        ("names", ["a", 1], "^names must be a string, got 1$")])
    def test_wrong_type_is_a_value_error(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            Config(**{field: value})

    def test_numbers_of_other_types_pass(self):
        Config(count=np.int64(2), limit=np.int32(3), scale=2, weight=np.float64(0.5),
               share=np.float32(0.5), sizes=[2, np.int64(3)], pair=(0, 1))

    @pytest.mark.parametrize("make,message", [
        (lambda: TrainConfig(batch_size=2.5), "^batch_size must be an integer"),
        (lambda: TrainConfig(batch_size="3"), "^batch_size must be an integer"),
        (lambda: InversionConfig(clamp_range=(0.0, 1.0, 2.0)),
         "^clamp_range must be a tuple of 2 items"),
        (lambda: InversionConfig(clamp_range="ab"),
         "^clamp_range must be a tuple of 2 items")])
    def test_library_configs_check_types(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestFromDoc:
    """`from_doc` shapes JSON and the class checks it: each rule has the
    one message `check_value` gives, after the block's path."""

    def test_lists_become_tuples_and_integers_floats(self):
        config = from_doc(Config, {"pair": [0, 1], "sizes": [2, 3], "scale": 2,
                                   "table": {"a": 1}, "names": ["x"]})
        assert config.pair == (0.0, 1.0) and type(config.pair[0]) is float
        assert config.sizes == (2, 3) and type(config.scale) is float
        assert type(config.table["a"]) is float and config.names == ["x"]
        assert json.dumps(to_doc(config)) == json.dumps(to_doc(from_doc(
            Config, json.loads(json.dumps(to_doc(config))))))

    @pytest.mark.parametrize("doc,path,message", [
        ({"count": "3"}, "", "^count must be an integer, got '3'$"),
        ({"count": 2.0}, "block", r"^block: count must be an integer, got 2\.0$"),
        ({"mode": "c"}, "a.b", r"^a\.b: unknown mode 'c'$"),
        ({"sizes": "12"}, "", "^sizes must be a list or tuple, got '12'$"),
        ({"pair": [0, 1, 2]}, "",
         r"^pair must be a tuple of 2 items, got \(0, 1, 2\)$"),
        ({"scale": 10 ** 400}, "", "^scale must be finite$"),
        ({"scale": -10 ** 400}, "", "^scale must be finite$"),
        ({"count": 0}, "", "^count must be >= 1$"),
        ({"table": {"a": True}}, "", "^table.a must be a finite number, got True$"),
        (5, "block", "^block: expected an object, got 5$"),
        ({"extra": 1}, "block", r"^unknown field\(s\) \['block\.extra'\]$")])
    def test_each_fault_is_a_scenario_error(self, doc, path, message):
        with pytest.raises(ScenarioError, match=message):
            from_doc(Config, doc, path)


class TestToDoc:
    SPEC = builtin_spec("mini-mlp-1", (2, 2, 1), 2)

    def test_spec_document_keeps_its_keys_and_types(self):
        # the spec echo of every checkpoint's metadata.json: fields in
        # order, the operator kind as its value, tuples as lists, each
        # node's params with every default written (null for a kind
        # without params)
        assert json.dumps(to_doc(self.SPEC)) == json.dumps({
            "id": "mini-mlp-1", "family": "mini-mlp",
            "nodes": [{"node_id": "head", "kind": "fc",
                       "params": {"out_features": 2, "bias": True},
                       "inputs": ["input"]},
                      {"node_id": "probs", "kind": "softmax", "params": None,
                       "inputs": ["head"]}],
            "input_shape": [2, 2, 1], "class_count": 2})

    def test_numpy_numbers_are_written_as_python_numbers(self):
        doc = to_doc({"i": np.int64(2), "f": np.float32(0.5), "b": np.bool_(True),
                      "items": (np.int32(1), np.float64(1.5), True)})
        assert json.dumps(doc) == ('{"i": 2, "f": 0.5, "b": true, '
                                   '"items": [1, 1.5, true]}')
        assert [type(v) for v in (doc["i"], doc["f"], doc["b"])] == [int, float, bool]

    def test_a_document_read_back_matches_only_exactly(self):
        doc = json.loads(json.dumps(to_doc(self.SPEC)))
        assert is_doc_of(doc, self.SPEC)
        assert not is_doc_of({**doc, "input_shape": [2.0, 2.0, 1]}, self.SPEC)
        assert not is_doc_of(dict(reversed(doc.items())), self.SPEC)
