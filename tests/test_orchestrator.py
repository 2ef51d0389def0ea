"""Scenario schema, threat gating, scheduling, execution, records, reports."""

import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import time
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extractbench
from extractbench import network, orchestrator
from extractbench.cli import main
from extractbench.fields import MAX_REPEATS, Range, field_hints, to_doc
from extractbench.orchestrator import (
    ATTACKS,
    BUILTIN_DATASETS,
    DeepReconParams,
    DeepSnifferParams,
    EnvironmentSpec,
    EquivalencyParams,
    ScenarioError,
    StagedInversionParams,
    Workbench,
    _derived_seed,
    default_workbench,
    execute,
    load_dataset,
    load_records,
    parse_scenario,
    persist_record,
    report,
    run_batch,
    schedule,
    simulated_makespan,
    validate_threat_model,
    zoo_resolve,
)
from extractbench.query_attacks import QueryHandle, knockoff_extract, KnockoffConfig
from extractbench.network import Network, TrainConfig
from extractbench.sidechannel import (read_histograms_csv,
                                      simulate_kernel_trace,
                                      simulate_symbol_stream)
from extractbench.similarity import default_probe_point, fidelity
from extractbench.datasets import generate, split
from extractbench.zoo import (BUILTIN_ARCHITECTURES, ModelRef, build_model,
                              builtin_spec)

from conftest import ARCH_CHOICES, DATASET_CHOICES, relabelling


def scenario_doc(attack_type="knockoff", **over):
    doc = {
        "schema_version": 1,
        "id": over.pop("id", "s1"),
        "seed": over.pop("seed", 3),
        "attack": {"type": attack_type,
                   "params": over.pop("params", {"query_budget": 120})},
        "target": over.pop("target", {"architecture_id": "mini-mlp-1",
                                      "dataset_id": "blobs-2c-easy"}),
        "grants": over.pop("grants", {"model_knowledge": "hidden",
                                      "system_knowledge": "none",
                                      "aux_dataset": "partial"}),
    }
    doc.update(over)
    return doc


def minimal_doc(attack_type, sid="s1"):
    """Smallest valid document of an attack type, with grants it passes."""
    if ATTACKS[attack_type].exclusive:
        grants = {"model_knowledge": "observed",
                  "system_knowledge": "partial", "aux_dataset": "none"}
        env = ({"environment_profile": "gpu-quiet"}
               if attack_type == "deepsniffer"
               else {"machine_profile": "i7-6850k-like"})
        params = {}
    else:
        grants = {"model_knowledge": "hidden", "system_knowledge": "none",
                  "aux_dataset": "partial"}
        env = {}
        params = ({"query_budget": 10} if attack_type != "miface"
                  else {"target_class": 0})
        if attack_type == "staged_inversion":
            params = {"budgets": [5, 10]}
    doc = scenario_doc(attack_type, id=sid, params=params, grants=grants)
    doc["environment"] = env
    return doc


def _params_fields(cls, path=()):
    """(path, annotation) of each field of a params dataclass, nested
    dataclasses walked into."""
    for name, hint in field_hints(cls).items():
        if is_dataclass(hint):
            yield from _params_fields(hint, path + (name,))
        else:
            yield path + (name,), hint


def _leaves(hint):
    """The types an annotation is built from; a Literal is one leaf."""
    if get_origin(hint) is Literal or not get_args(hint):
        return [hint]
    return [leaf for arg in get_args(hint) for leaf in _leaves(arg)]


FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300),
    st.floats(-2.0, 5.0), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["confidence_vector", "top1_label", "random",
                     "auxiliary_sample", "soft_target_kl", "mini-vgg-4",
                     "mini-mlp-1", "gpu-low", "i5-3470-like", "partial", "x"]),
    st.lists(st.integers(-1, 200), max_size=3),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
    st.lists(st.sampled_from(["mini-vgg-4", "mini-dense-3", "fidelity"]),
             max_size=3),
    st.dictionaries(st.sampled_from(["epochs", "seed", "x"]),
                    st.integers(0, 5), max_size=2))


@st.composite
def mutated_documents(draw):
    """The explicit form of a valid document with a few fields replaced,
    removed or added, anywhere in it."""
    doc = to_doc(parse_scenario(json.dumps(minimal_doc(
        draw(st.sampled_from(tuple(ATTACKS)))))))
    params = doc["attack"]["params"]
    sections = [doc, doc["attack"], params, doc["target"], doc["environment"],
                doc["grants"]]
    sections += [v for v in params.values() if isinstance(v, dict)]
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(sorted(section) + ["unknown"]))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(FIELD_VALUES)
    return json.dumps(doc)


GPU = {"environment": {"environment_profile": "gpu-quiet"}}
CPU = {"environment": {"machine_profile": "i7-6850k-like"}}
ARCHS = re.escape(ARCH_CHOICES)
EASY4 = {"target": {"architecture_id": "mini-mlp-1",
                    "dataset_id": "blobs-4c-easy"}}

# (attack type, params, top-level overrides, field path the error must name)
BAD_DOCUMENTS = [
    ("knockoff", {"query_budget": 120},
     {"environment": {"verbose_runtime": "false"}},
     r'^environment: verbose_runtime must be true or false, got "false"$'),
    ("knockoff", {"query_budget": "500"}, {},
     r'^attack\.params: query_budget must be an integer, got "500"$'),
    ("knockoff", {"query_budget": 120.0}, {},
     r"^attack\.params: query_budget must be an integer, got 120\.0$"),
    ("knockoff", {"query_budget": 120}, {"seed": True},
     r"^seed must be an integer, got true$"),
    ("knockoff", {"query_budget": 120}, {"seed": -1}, r"^seed: -1 must be >= 0"),
    ("knockoff", {"query_budget": 120}, {"id": 7}, r"^id must be a string, got 7$"),
    ("knockoff", {"query_budget": 0}, {},
     r"attack\.params: query_budget must be >= 1"),
    ("knockoff", {"query_budget": 120, "query_fraction": 2.0}, {},
     r"attack\.params: query_fraction must lie in \(0, 1\)"),
    ("knockoff", {"query_budget": 120, "query_fraction": 0}, {},
     r"attack\.params: query_fraction"),
    ("knockoff", {"query_budget": 120, "output_mode": "logits"}, {},
     r'^attack\.params: unknown output_mode "logits" '
     r'\(one of \["confidence_vector", "top1_label"\]\)$'),
    ("knockoff", {"query_budget": 120, "recreate": {"epochs": "5"}}, {},
     r'^attack\.params\.recreate: epochs must be an integer, got "5"$'),
    ("knockoff", {"query_budget": 120, "recreate": {"loss": "mse"}}, {},
     r"unknown field\(s\) \['attack\.params\.recreate\.loss'\]"),
    ("knockoff", {"query_budget": 120, "recreate": {"learning_rate": 0}}, {},
     r"attack\.params\.recreate: learning_rate must lie in \(0, 100\]"),
    ("knockoff", {"query_budget": 120}, {"evaluation": "fidelity"},
     r'^evaluation must be a list or tuple, got "fidelity"$'),
    ("knockoff", {"query_budget": 120},
     {"target": {"architecture_id": "mini-mlp-1",
                 "dataset_id": "blobs-2c-easy", "class_subset": [1, 1]}},
     r"^target: class_subset indices must be unique"),
    ("deepsniffer", {"corpus_architectures": "mini-vgg-4"}, GPU,
     r"^attack\.params: corpus_architectures must be a list or tuple, "
     r'got "mini-vgg-4"$'),
    ("deepsniffer", {"window": -3}, GPU,
     r"attack\.params: window must lie in \[0, 20\]"),
    ("deepsniffer", {"traces_per_architecture": 0}, GPU,
     r"attack\.params: traces_per_architecture must lie in \[1, 50000\]"),
    ("deepsniffer", {"classifier_epochs": 10 ** 9}, GPU,
     r"attack\.params: classifier_epochs must lie in \[0, 50000\]"),
    ("deeprecon", {"trials": 0}, CPU,
     r"attack\.params: trials must lie in \[1, 50000\]"),
    ("deeprecon", {"histograms_per_architecture": 0}, CPU,
     r"attack\.params: histograms_per_architecture must lie in \[1, 50000\]"),
    ("deeprecon", {"k_neighbors": 0}, CPU,
     r"attack\.params: k_neighbors must be >= 1"),
    ("miface", {"target_class": 0, "clamp_range": [1]}, {},
     r"^attack\.params: clamp_range must be a tuple of 2 items, got \[1\]$"),
    ("miface", {"target_class": 0, "clamp_range": [4, -4]}, {},
     r"attack\.params: clamp_range must be \(lo, hi\) with lo < hi"),
    ("miface", {"target_class": 0, "step_size": float("nan")}, {},
     r"^attack\.params: step_size must be finite$"),
    ("miface", {"target_class": -1}, {}, r"attack\.params: target_class must be >= 0"),
    ("miface", {"target_class": 0, "max_iterations": 2.5}, {},
     r"^attack\.params: max_iterations must be an integer, got 2\.5$"),
    ("miface", {"target_class": 0, "max_iterations": 10 ** 400}, {},
     r"attack\.params: max_iterations must lie in \[1, 50000\]"),
    ("miface", {}, {}, r"attack\.params\.target_class required"),
    ("staged_inversion", {"budgets": 30}, {},
     r"^attack\.params: budgets must be a list or tuple, got 30$"),
    ("staged_inversion", {"budgets": []}, {},
     r"attack\.params: budgets must be non-empty"),
    ("staged_inversion", {"budgets": [0, 10]}, {},
     r"attack\.params: budgets must be >= 1"),
    ("staged_inversion", {"budgets": [20, 10]}, {},
     r"attack\.params: budgets must be ascending"),
    ("staged_inversion", {"budgets": [5, 10], "inversion": {"clamp_range": [2, 2]}}, {},
     r"attack\.params\.inversion: clamp_range must be"),
    ("equivalency", {"query_budget": 120, "temperature": 0}, {},
     r"attack\.params: temperature must be >= 0\.01"),
    ("equivalency", {"query_budget": 120, "hard_label_weight": 1.5}, {},
     r"attack\.params: hard_label_weight must lie in \[0, 1\]"),
    ("knockoff", {"query_budget": 120},
     {"target": {"architecture_id": "mini-mlp-1",
                 "dataset_id": "blobs-2c-easy", "class_subset": [-1, 0]}},
     r"^target: class_subset index -1 must be >= 0"),
    ("knockoff", {"query_budget": 120, "recreate": {"seed": -5}}, {},
     r"attack\.params\.recreate: seed must be >= 0"),
    ("knockoff", {"query_budget": 120, "recreate": {"epochs": 50001}}, {},
     r"attack\.params\.recreate: epochs must lie in \[0, 50000\]"),
    ("knockoff", {"query_budget": 120}, GPU,
     r"^environment\.environment_profile: knockoff never reads it"),
    ("miface", {"target_class": 0}, CPU,
     r"^environment\.machine_profile: miface never reads it"),
    ("knockoff", {"query_budget": 120},
     {"environment": {"verbose_runtime": True}},
     r"^environment\.verbose_runtime: knockoff never reads it"),
    ("deeprecon", {}, {"environment": {"machine_profile": "tf2-like",
                                       "verbose_runtime": True}},
     r"^environment\.verbose_runtime: deeprecon never reads it"),
    ("deeprecon", {}, GPU,
     r"^environment\.environment_profile: deeprecon never reads it"),
    ("deepsniffer", {}, CPU,
     r"^environment\.machine_profile: deepsniffer never reads it"),
    ("knockoff", {"query_budget": 120},
     {"target": {"architecture_id": "mini-mlp-1",
                 "dataset_id": "blobs-2c-easy", "class_subset": [1]}},
     r"^target: class_subset \[1\] must name at least two classes"),
    # ids and tags become file names: none may leave its directory
    ("knockoff", {"query_budget": 120}, {"id": ".."},
     r"^id: '\.\.' must be one file-name component"),
    ("knockoff", {"query_budget": 120}, {"id": "/abs"},
     r"^id: '/abs' must be one file-name component"),
    ("knockoff", {"query_budget": 120}, {"id": "a/b"},
     r"^id: 'a/b' must be one file-name component"),
    ("knockoff", {"query_budget": 120}, {"id": ""},
     r"^id: '' must be one file-name component"),
    ("knockoff", {"query_budget": 120},
     {"target": {"architecture_id": "mini-mlp-1",
                 "dataset_id": "blobs-2c-easy",
                 "checkpoint_tag": "x/../../../tagesc"}},
     r"^target: checkpoint_tag 'x/\.\./\.\./\.\./tagesc' must be one "
     r"file-name component"),
    # the loss follows from what is fitted: no training block names one
    ("knockoff", {"query_budget": 120, "recreate": {"loss": "soft_target_kl"}},
     {}, r"unknown field\(s\) \['attack\.params\.recreate\.loss'\]"),
    ("equivalency", {"query_budget": 120,
                     "distill_train": {"loss": "cross_entropy"}},
     {}, r"unknown field\(s\) \['attack\.params\.distill_train\.loss'\]"),
    # the attack table's own messages: type, environment readers, metrics
    ("warp", {}, {},
     r'^attack: unknown type "warp" \(one of \["deeprecon", "deepsniffer", '
     r'"equivalency", "knockoff", "miface", "staged_inversion"\]\)$'),
    (7, {}, {}, r'^attack: unknown type 7 \(one of \["deeprecon", '
                r'"deepsniffer", "equivalency", "knockoff", "miface", '
                r'"staged_inversion"\]\)$'),
    ("deepsniffer", {}, {},
     r"^environment\.environment_profile required for deepsniffer$"),
    ("deeprecon", {}, {"environment": {"machine_profile": "z80-like"}},
     r'^environment: unknown machine_profile "z80-like" \(one of '
     r'\["i5-3470-like", "i7-4770-like", "i7-6850k-like", "tf2-like"\]\)$'),
    ("deepsniffer", {}, {"environment": {"environment_profile": "tpu"}},
     r'^environment: unknown environment_profile "tpu" \(one of '
     r'\["gpu-low", "gpu-noisy", "gpu-quiet", "gpu-verbose"\]\)$'),
    ("knockoff", {"query_budget": 120}, {"evaluation": ["sequence_fidelity"]},
     r"^evaluation: metric\(s\) \['sequence_fidelity'\] not produced by "
     r"knockoff \(available: \['accuracy_stolen', 'accuracy_target', "
     r"'fidelity', 'final_loss', 'queries_used'\]\)$"),
    ("knockoff", {"query_budget": 120}, GPU,
     r"^environment\.environment_profile: knockoff never reads it; only "
     r"deepsniffer does$"),
    ("staged_inversion", {"budgets": [5]}, CPU,
     r"^environment\.machine_profile: staged_inversion never reads it; only "
     r"deeprecon does$"),
    # JSON integers are unbounded: a huge one is compared, never converted
    ("knockoff", {"query_budget": 10 ** 400}, {},
     r"^attack\.params: budget 10{400} exceeds query-set size 300$"),
    # the target's limits: what its data holds, split by `split`'s own rule
    # (blobs-4c-easy: 4 classes of 700 rows, so 1400 query rows at 0.5)
    ("knockoff", {"query_budget": 100000}, EASY4,
     r"^attack\.params: budget 100000 exceeds query-set size 1400$"),
    ("knockoff", {"query_budget": 1401}, EASY4,
     r"^attack\.params: budget 1401 exceeds query-set size 1400$"),
    ("knockoff", {"query_budget": 5, "query_fraction": 0.001}, {},
     r"^attack\.params: budget 5 exceeds query-set size 2$"),
    ("staged_inversion", {"budgets": [10, 100000]}, EASY4,
     r"^attack\.params: budget 100000 exceeds query-set size 1400$"),
    ("equivalency", {"query_budget": 1401}, EASY4,
     r"^attack\.params: budget 1401 exceeds query-set size 1400$"),
    ("miface", {"target_class": 7}, EASY4,
     r"^attack\.params: target_class 7 outside output width 4$"),
    ("miface", {"target_class": 3},
     {"target": {"architecture_id": "mini-mlp-1",
                 "dataset_id": "blobs-4c-easy", "class_subset": [0, 2]}},
     r"^attack\.params: target_class 3 outside output width 2$"),
    # PWCCA compares output-width activations over the test rows, so it
    # needs more test rows than classes
    ("equivalency", {"query_budget": 10, "query_fraction": 0.999}, {},
     r"^attack\.params: query_fraction 0\.999 leaves 2 test rows, too few "
     r"for PWCCA over 2 classes$"),
    ("staged_inversion", {"budgets": [10], "query_fraction": 0.999}, {},
     r"^attack\.params: query_fraction 0\.999 leaves 2 test rows"),
    # bounds that keep the arithmetic finite
    ("equivalency", {"query_budget": 120, "temperature": 1e-300}, {},
     r"^attack\.params: temperature must be >= 0\.01$"),
    ("deepsniffer", {"train_jitter": 1e300}, GPU,
     r"^attack\.params: train_jitter must lie in \[0, 10\]$"),
    ("knockoff", {"query_budget": 120, "recreate": {"learning_rate": 1e300}},
     {}, r"^attack\.params\.recreate: learning_rate must lie in \(0, 100\]$"),
    # k_neighbors' upper bound is the corpus size, a second value
    ("deeprecon", {"k_neighbors": 105}, CPU,
     r"attack\.params: k_neighbors must lie in \[1, 104\]"),
    # counts that size an array: past what any built-in run can use
    ("deepsniffer", {"window": 10 ** 400}, GPU,
     r"^attack\.params: window must lie in \[0, 20\]$"),
    ("knockoff", {"query_budget": 120, "recreate": {"batch_size": 10 ** 400}},
     {}, r"^attack\.params\.recreate: batch_size must lie in \[1, 2800\]$"),
    # a string is no list of ids, and is not read one character at a time
    ("deeprecon", {"corpus_architectures": "mini-mlp-1"}, CPU,
     r"^attack\.params: corpus_architectures must be a list or tuple, "
     r'got "mini-mlp-1"$'),
    # a JSON integer too large for a float is no finite number
    ("knockoff", {"query_budget": 120, "query_fraction": 10 ** 400}, {},
     r"^attack\.params: query_fraction must be finite$"),
    # the top level is a declared block like every other
    ("knockoff", {"query_budget": 120}, {"note": "x"},
     r"^unknown field\(s\) \['note'\]$"),
]


# the echoed params of each `minimal_doc`, key order included (seed 3)
_TRAIN = {"learning_rate": 0.01, "batch_size": 10, "epochs": 20, "seed": 3}
_INVERSION = {"posterior_threshold": 0.95, "max_iterations": 400,
              "step_size": 0.2, "init_mode": "random",
              "clamp_range": [-4.0, 4.0]}
_STEAL = {"output_mode": "confidence_vector", "surrogate_architecture": None,
          "query_fraction": 0.5, "recreate": _TRAIN}
ECHOED_DEFAULTS = {
    "knockoff": {"query_budget": 10, **_STEAL},
    "deepsniffer": {
        "corpus_architectures": ["mini-vgg-4", "mini-vgg-6", "mini-resnet-4",
                                 "mini-resnet-6", "mini-dense-3",
                                 "mini-dense-4"],
        "traces_per_architecture": 6, "train_jitter": 0.05, "window": 1,
        "classifier_epochs": 200},
    "deeprecon": {
        "corpus_architectures": [
            "mini-mlp-1", "mini-mlp-2", "mini-mlp-3", "mini-vgg-4",
            "mini-vgg-6", "mini-gelu-4", "mini-gelu-6", "mini-resnet-4",
            "mini-resnet-6", "mini-dense-3", "mini-dense-4", "mini-pyramid-4",
            "mini-pyramid-5"],
        "histograms_per_architecture": 8, "trials": 6, "k_neighbors": 5},
    "miface": {**_INVERSION, "target_class": 0, "query_fraction": 0.5},
    "staged_inversion": {"budgets": [5, 10], **_STEAL, "inversion": _INVERSION},
    "equivalency": {"query_budget": 10, **_STEAL,
                    "student_architecture": "mini-student-cnn",
                    "temperature": 4.0, "hard_label_weight": 0.1,
                    "distill_train": _TRAIN},
}


@pytest.fixture()
def bench(tmp_path):
    return default_workbench(tmp_path / "repo")


class TestParseScenario:
    def test_minimal_knockoff_gets_explicit_defaults(self):
        sc = parse_scenario(json.dumps(scenario_doc()))
        echoed = to_doc(sc)
        params = echoed["attack"]["params"]
        assert params["output_mode"] == "confidence_vector"
        assert params["query_fraction"] == 0.5
        assert params["recreate"]["seed"] == 3  # scenario seed filled in
        assert echoed["environment"]["verbose_runtime"] is False
        assert tuple(echoed["evaluation"])  # default metric set made explicit

    @pytest.mark.parametrize("attack_type", list(ATTACKS))
    def test_every_attack_echoes_its_defaults(self, attack_type):
        """Each default is written out, in the schema's field order, whether
        the params class declares it or a library config it is or extends."""
        sc = parse_scenario(json.dumps(minimal_doc(attack_type)))
        assert json.dumps(to_doc(sc)["attack"]["params"]) == json.dumps(
            ECHOED_DEFAULTS[attack_type])

    def test_stealing_params_declare_each_knob_once(self):
        """The knockoff knobs have one declaration, the budget and the
        budgets one each; fields follow the reversed MRO, so every echo
        keeps its key order."""
        knobs = ["output_mode", "surrogate_architecture", "query_fraction",
                 "recreate"]
        classes = (KnockoffConfig, StagedInversionParams, EquivalencyParams)
        assert {cls: [f.name for f in fields(cls)] for cls in classes} == {
            KnockoffConfig: ["query_budget", *knobs],
            StagedInversionParams: ["budgets", *knobs, "inversion"],
            EquivalencyParams: ["query_budget", *knobs, "student_architecture",
                                "temperature", "hard_label_weight",
                                "distill_train"]}
        declared = fields(StagedInversionParams)[1:5]
        for cls in (KnockoffConfig, EquivalencyParams):
            assert all(a is b for a, b in zip(fields(cls)[1:5], declared))
        assert fields(KnockoffConfig)[0] is fields(EquivalencyParams)[0]

    def test_deepsniffer_with_machine_profile_names_mismatch(self):
        doc = scenario_doc("deepsniffer", params={},
                           grants={"model_knowledge": "observed",
                                   "system_knowledge": "partial",
                                   "aux_dataset": "none"})
        doc["environment"] = {"machine_profile": "i7-6850k-like"}
        with pytest.raises(ScenarioError, match="machine_profile"):
            parse_scenario(json.dumps(doc))

    def test_missing_attack_type(self):
        doc = scenario_doc()
        del doc["attack"]["type"]
        with pytest.raises(ScenarioError, match="attack.type required"):
            parse_scenario(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = scenario_doc()
        doc["attack"]["params"]["query_budgett"] = 5
        with pytest.raises(ScenarioError, match="query_budgett"):
            parse_scenario(json.dumps(doc))

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScenarioError, match="line 1 column"):
            parse_scenario("{not json")

    def test_unknown_metric_rejected(self):
        doc = scenario_doc(evaluation=["fidelity", "made_up"])
        with pytest.raises(ScenarioError, match="made_up"):
            parse_scenario(json.dumps(doc))

    def test_schema_version_required(self):
        doc = scenario_doc()
        del doc["schema_version"]
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(json.dumps(doc))

    def test_grants_required(self):
        doc = scenario_doc()
        del doc["grants"]
        with pytest.raises(ScenarioError, match="grants"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "attack_type,params,over,path", BAD_DOCUMENTS,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(BAD_DOCUMENTS)])
    def test_bad_document_names_field(self, attack_type, params, over, path):
        doc = scenario_doc(attack_type, params=params, **over)
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(json.dumps(doc))

    def test_empty_class_subset_means_all_classes(self):
        doc = scenario_doc(target={"architecture_id": "mini-mlp-1",
                                   "dataset_id": "blobs-2c-easy",
                                   "class_subset": []})
        assert parse_scenario(json.dumps(doc)).target.class_subset is None

    def test_integer_accepted_for_float(self):
        doc = scenario_doc(params={"query_budget": 120,
                                   "recreate": {"learning_rate": 1}})
        recreate = parse_scenario(json.dumps(doc)).attack.params.recreate
        assert type(recreate.learning_rate) is float

    @given(document=st.one_of(mutated_documents(), st.text(max_size=40)))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, document):
        try:
            sc = parse_scenario(document)
        except ScenarioError:
            return
        assert parse_scenario(json.dumps(to_doc(sc))) == sc


class TestCli:
    def test_validate_bad_clamp_range_is_invalid_not_traceback(
            self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario_doc(
            "miface", params={"target_class": 0, "clamp_range": [1]})))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid: attack.params: clamp_range must be a "
                              "tuple of 2 items")
        assert "Traceback" not in err

    @pytest.mark.parametrize("target,where,name,choices", [
        ({"architecture_id": "mini-ghost", "dataset_id": "blobs-2c-easy"},
         "target.architecture_id", "mini-ghost", ARCH_CHOICES),
        ({"architecture_id": "mini-mlp-1", "dataset_id": "blobs-9c-none"},
         "target.dataset_id", "blobs-9c-none", DATASET_CHOICES)])
    def test_validate_rejects_unknown_ids(self, tmp_path, capsys, target,
                                          where, name, choices):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(scenario_doc(target=target)))
        root = tmp_path / "repo"
        assert main(["--root", str(root), "validate", str(path)]) == 1
        err = capsys.readouterr().err
        block, _, field = where.rpartition(".")
        assert err == f'invalid: {block}: unknown {field} "{name}"{choices}\n'
        assert not root.exists()  # checking ids touches no repository
        # run and batch refuse it at parse time, as any schema error
        assert main(["--root", str(root), "run", str(path)]) == 2
        assert main(["--root", str(root), "batch", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {block}: unknown ")
        assert not root.exists()

    @pytest.mark.parametrize("subset,error", [
        ([0, 5], "target.class_subset: [5] outside dataset 'blobs-2c-easy' "
                 "with 2 classes"),
        ([5], "target: class_subset [5] must name at least two classes")])
    def test_validate_rejects_class_subset_a_run_would(self, tmp_path, capsys,
                                                       subset, error):
        path = tmp_path / "subset.json"
        path.write_text(json.dumps(scenario_doc(target={
            "architecture_id": "mini-mlp-1", "dataset_id": "blobs-2c-easy",
            "class_subset": subset})))
        root = tmp_path / "repo"
        assert main(["--root", str(root), "validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"invalid: {error}")
        assert not root.exists()

    @pytest.mark.parametrize("attack_type,params,where", [
        ("knockoff", {"query_budget": 10, "surrogate_architecture": "x-net"},
         "attack.params.surrogate_architecture"),
        ("equivalency", {"query_budget": 10, "student_architecture": "x-net"},
         "attack.params.student_architecture"),
        ("deepsniffer", {"corpus_architectures": ["mini-vgg-4", "x-net"]},
         "attack.params.corpus_architectures"),
        ("deeprecon", {"corpus_architectures": ["x-net", "mini-vgg-4"]},
         "attack.params.corpus_architectures")])
    def test_every_architecture_id_is_checked(self, attack_type, params,
                                             where):
        doc = minimal_doc(attack_type)
        doc["attack"]["params"] = params
        block, _, field = where.rpartition(".")
        with pytest.raises(ScenarioError,
                           match=rf'^{block}: unknown {field} "x-net"{ARCHS}$'):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("attack_type", list(ATTACKS))
    def test_validate_echo_validates_to_itself(self, tmp_path, capsys,
                                               attack_type):
        """`validate` prints the scenario's own document: validated again,
        it comes back byte for byte."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(minimal_doc(attack_type)))
        echoes = []
        for _ in range(2):
            assert main(["validate", str(path)]) == 0
            echoes.append(capsys.readouterr().out)
            path.write_text(echoes[-1])
        assert echoes[0] == echoes[1]

    @pytest.mark.parametrize("argv,named", [
        (["validate", "{dir}"], "{dir}"),
        (["run", "{dir}"], "{dir}"),
        (["zoo", "train", "--arch", "mini-mlp-2", "--dataset", "no-such-data"],
         'unknown dataset_id "no-such-data"')],
        ids=["validate-directory", "run-directory", "zoo-unknown-dataset"])
    def test_bad_input_is_an_error_not_traceback(self, tmp_path, capsys,
                                                 argv, named):
        """A scenario path that is no readable file, or a model reference
        naming no registry id, exits 2 with one `error:` line naming it."""
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert main(["--root", str(tmp_path / "repo"), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named.format(dir=tmp_path) in err
        assert "Traceback" not in err


class TestAttackTable:
    def test_init_mode_attacks_require_aux_dataset(self):
        """An attack that can start inversion from an auxiliary sample
        requires the auxiliary-dataset grant, so `dominates` alone gates
        `init_mode: auxiliary_sample`."""
        hints = field_hints
        with_init_mode = []
        for name, attack in ATTACKS.items():
            params = hints(attack.params)
            if "init_mode" in params | hints(params.get("inversion", object)):
                with_init_mode.append(name)
                assert attack.requires.aux_dataset == "partial", name
        assert with_init_mode == ["miface", "staged_inversion"]

    def test_no_params_field_is_a_plain_string(self):
        """A string field would take any name unchecked; one naming an
        architecture, say, must be typed with the registry's ids."""
        for name, attack in ATTACKS.items():
            for path, hint in _params_fields(attack.params):
                assert str not in _leaves(hint), (name, path, hint)

    def test_every_registry_field_rejects_unknown_id(self):
        registries = (orchestrator.ArchitectureId, orchestrator.DatasetId)
        checked = set()
        for name, attack in ATTACKS.items():
            for path, hint in _params_fields(attack.params):
                if not any(r in _leaves(hint) for r in registries):
                    continue
                doc = minimal_doc(name)
                section = doc["attack"]["params"]
                for key in path[:-1]:
                    section = section.setdefault(key, {})
                section[path[-1]] = ["x"] if get_origin(hint) is tuple else "x"
                block = ".".join(("attack", "params") + path[:-1])
                with pytest.raises(ScenarioError,
                                   match=rf'^{block}: unknown {path[-1]} "x"{ARCHS}$'):
                    parse_scenario(json.dumps(doc))
                checked.add((name, path[-1]))
        assert {("knockoff", "surrogate_architecture"),
                ("staged_inversion", "surrogate_architecture"),
                ("equivalency", "student_architecture"),
                ("deepsniffer", "corpus_architectures"),
                ("deeprecon", "corpus_architectures")} <= checked

    def test_each_environment_field_read_by_one_attack(self):
        readers = Counter(name for attack in ATTACKS.values()
                          for name in attack.environment)
        assert readers == Counter(f.name for f in fields(EnvironmentSpec))

    @pytest.mark.parametrize("make,message", [
        (lambda: EnvironmentSpec(environment_profile="nope"),
         r'^unknown environment_profile "nope" \(one of \["gpu-low", '
         r'"gpu-noisy", "gpu-quiet", "gpu-verbose"\]\)$'),
        (lambda: EnvironmentSpec(machine_profile="nope"),
         r'^unknown machine_profile "nope" \(one of \["i5-3470-like", '
         r'"i7-4770-like", "i7-6850k-like", "tf2-like"\]\)$'),
        (lambda: EquivalencyParams(query_budget=10,
                                   surrogate_architecture="x-net"),
         f'^unknown surrogate_architecture "x-net"{ARCHS}$'),
        (lambda: StagedInversionParams((10,), surrogate_architecture="x-net"),
         f'^unknown surrogate_architecture "x-net"{ARCHS}$')],
        ids=["environment", "machine", "equivalency", "staged"])
    def test_optional_ids_are_checked_when_made(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: DeepReconParams(corpus_architectures=5),
         "^corpus_architectures must be a list or tuple, got 5$"),
        (lambda: DeepSnifferParams(corpus_architectures=5),
         "^corpus_architectures must be a list or tuple, got 5$"),
        (lambda: DeepReconParams(corpus_architectures="mini-mlp-1"),
         '^corpus_architectures must be a list or tuple, got "mini-mlp-1"$'),
        (lambda: StagedInversionParams(budgets=5),
         "^budgets must be a list or tuple, got 5$"),
        (lambda: ModelRef("mini-mlp-1", "blobs-2c-easy", class_subset=5),
         "^class_subset must be a list or tuple, got 5$")],
        ids=["deeprecon", "deepsniffer", "deeprecon-string", "staged",
             "model-ref"])
    def test_field_types_are_checked_before_own_rules(self, make, message):
        """A field of the wrong type is a ValueError that names it, never a
        TypeError from a rule of the class that reads the field first."""
        with pytest.raises(ValueError, match=message):
            make()

    def test_every_number_field_carries_a_range(self):
        """A bare int or float field would take any value unchecked: each
        scalar number of the params, nested training blocks included, is
        declared with the range it must lie in."""
        numbers = 0
        for name, attack in ATTACKS.items():
            for path, hint in _params_fields(attack.params):
                if hint in (int, float):
                    pytest.fail(f"{name} {'.'.join(path)}: {hint.__name__} "
                                f"without a Range")
                if get_origin(hint) is Annotated:
                    numbers += 1
                    assert get_args(hint)[0] in (int, float), (name, path)
                    assert isinstance(get_args(hint)[1], Range), (name, path)
        assert numbers > 30


# ---------------------------------------------------------------------------
# the declared rules, swept: documents generated from every Range
# ---------------------------------------------------------------------------

def _rules(cls):
    """(path, number type, Range, in a list) of every rule reachable from a
    params dataclass: nested blocks and list items included."""
    for path, hint in _params_fields(cls):
        listed = get_origin(hint) is tuple
        if listed:
            hint = get_args(hint)[0]
        if get_origin(hint) is Annotated:
            kind, rule = get_args(hint)
            yield path, kind, rule, listed


def _edges(kind, rule):
    """(value, in range) at each bound of a rule, just inside and just
    outside it: the next integer, or the next float."""
    def past(bound, toward):
        if kind is int:
            return bound + (1 if toward > bound else -1)
        return math.nextafter(bound, toward)
    for bound, is_open, inward in ((rule.low, rule.low_open, math.inf),
                                   (rule.high, rule.high_open, -math.inf)):
        if bound is not None:
            bound = kind(bound)
            yield bound, not is_open
            yield past(bound, inward), True
            yield past(bound, -inward), False


# the smallest runnable params of each attack, on which no target limit
# bites: a budget of 2 fits any split of a 2-class target
SWEEP_BASE = {
    "knockoff": {"query_budget": 2, "recreate": {"epochs": 1}},
    "equivalency": {"query_budget": 2, "recreate": {"epochs": 1},
                    "distill_train": {"epochs": 1}},
    "miface": {"target_class": 0, "max_iterations": 2},
    "staged_inversion": {"budgets": [1, 2], "recreate": {"epochs": 1},
                         "inversion": {"max_iterations": 2}},
    "deepsniffer": {"corpus_architectures": ["mini-mlp-1", "mini-vgg-4"],
                    "traces_per_architecture": 1, "classifier_epochs": 1},
    "deeprecon": {"corpus_architectures": ["mini-mlp-1", "mini-vgg-4"],
                  "histograms_per_architecture": 1, "trials": 1,
                  "k_neighbors": 1},
}
SWEEP_ENV = {"deepsniffer": {"environment_profile": "gpu-noisy"},
             "deeprecon": {"machine_profile": "i7-4770-like"}}
# one architecture per family, on the 6x6 and (two classes of) the 8x8 shape
SWEEP_TARGETS = [
    {"architecture_id": arch, **data}
    for data in ({"dataset_id": "blobs-2c-easy"},
                 {"dataset_id": "blobs-10c-mid", "class_subset": [2, 7]})
    for arch in ("mini-mlp-1", "mini-vgg-4", "mini-gelu-4", "mini-resnet-4",
                 "mini-dense-3", "mini-pyramid-4", "mini-student-cnn")]
# attacks that compare output-width activations on the test rows by PWCCA,
# which needs more rows than columns
PWCCA_ATTACKS = ("staged_inversion", "equivalency")


def _sweep_doc(attack_type, params, target, n):
    doc = minimal_doc(attack_type, sid=f"sweep{n}")
    doc.update(attack={"type": attack_type, "params": params}, target=target,
               environment=SWEEP_ENV.get(attack_type, {}))
    return doc


def _target_holds(doc) -> bool:
    """Whether the target's data holds what the params ask of it, read
    from a real split of that data (whose sizes do not depend on the
    seed): the oracle for the target limits."""
    attack_type = doc["attack"]["type"]
    if ATTACKS[attack_type].exclusive:
        return True
    params = doc["attack"]["params"]
    ref = ModelRef(**doc["target"])
    data = load_dataset(ref)
    if attack_type == "miface":
        return params["target_class"] < data.class_count
    defaults = {f.name: f.default for f in fields(ATTACKS[attack_type].params)}
    queries, test = split(data, params.get("query_fraction",
                                           defaults["query_fraction"]), 0)
    budget = (params["budgets"][-1] if "budgets" in params
              else params["query_budget"])
    return budget <= len(queries) and (attack_type not in PWCCA_ATTACKS
                                       or len(test) > data.class_count)


def _limit_cases():
    """Params at each target limit and one past it, on each sweep dataset
    and on the blobs-4c-easy target whose limits `BAD_DOCUMENTS` names."""
    for target in SWEEP_TARGETS[::7] + [EASY4["target"]]:
        data = load_dataset(ModelRef(**target))
        size = len(split(data, 0.5, 0)[0])
        for over in (0, 1):
            for attack_type in ("knockoff", "equivalency"):
                yield attack_type, {**SWEEP_BASE[attack_type],
                                    "query_budget": size + over}, target
            yield "staged_inversion", {**SWEEP_BASE["staged_inversion"],
                                       "budgets": [1, size + over]}, target
            yield "miface", {**SWEEP_BASE["miface"],
                             "target_class": data.class_count - 1 + over}, target


@pytest.fixture(scope="module")
def sweep_bench(tmp_path_factory):
    """One root for the whole sweep, whose targets train for one epoch."""
    return Workbench(tmp_path_factory.mktemp("sweep"), recipes={
        d: TrainConfig(epochs=1, batch_size=50) for d in BUILTIN_DATASETS})


@pytest.fixture(scope="module")
def sweep():
    """(document, expected accepted, run) for each edge of each declared
    rule of each attack, and each target limit case. An accepted document
    is run unless a count sits at the shared ceiling of run lengths, where
    one run would take minutes: there only the parse is checked."""
    cases = []
    for attack_type, attack in ATTACKS.items():
        for path, kind, rule, listed in _rules(attack.params):
            for value, in_range in _edges(kind, rule):
                params = json.loads(json.dumps(SWEEP_BASE[attack_type]))
                section = params
                for key in path[:-1]:
                    section = section.setdefault(key, {})
                section[path[-1]] = [value] if listed else value
                doc = _sweep_doc(attack_type, params, SWEEP_TARGETS[
                    len(cases) % len(SWEEP_TARGETS)], len(cases))
                accepted = in_range and _target_holds(doc)
                cases.append((doc, accepted, accepted and (
                    rule.high != MAX_REPEATS or value <= rule.low + 1)))
    for attack_type, params, target in _limit_cases():
        doc = _sweep_doc(attack_type, params, target, len(cases))
        accepted = _target_holds(doc)
        cases.append((doc, accepted, accepted))
    return cases


class TestDeclaredRulesSweep:
    def test_rejected_exactly_outside_the_rules(self, sweep):
        wrong = []
        for doc, expected, _ in sweep:
            try:
                parse_scenario(json.dumps(doc))
                accepted = True
            except ScenarioError as exc:
                accepted, reason = False, str(exc)
            if accepted != expected:
                wrong.append((doc["attack"], doc["target"],
                              None if accepted else reason))
        assert not wrong
        assert sum(e for _, e, _ in sweep) > 60
        assert sum(not e for _, e, _ in sweep) > 60

    def test_run_lengths_share_one_ceiling(self):
        capped = {path[-1] for attack in ATTACKS.values()
                  for path, _, rule, _ in _rules(attack.params)
                  if rule.high == MAX_REPEATS}
        assert capped == {"epochs", "max_iterations", "traces_per_architecture",
                          "classifier_epochs", "histograms_per_architecture",
                          "trials"}

    def test_accepted_documents_run_with_finite_metrics(self, sweep,
                                                        sweep_bench):
        failed, targets = [], set()
        for doc, _, run in sweep:
            if not run:
                continue
            record = execute(parse_scenario(json.dumps(doc)), sweep_bench,
                             persist=False)
            if record.status != "ok" or not all(
                    math.isfinite(v) for v in record.metrics.values()):
                failed.append((doc["attack"], doc["target"],
                               record.failure_reason))
            targets.add(json.dumps(doc["target"]))
        assert not failed
        assert targets >= {json.dumps(t) for t in SWEEP_TARGETS}


class TestValidateThreatModel:
    def test_deepsniffer_needs_observed_and_partial(self):
        doc = scenario_doc("deepsniffer", params={},
                           grants={"model_knowledge": "hidden",
                                   "system_knowledge": "none",
                                   "aux_dataset": "none"})
        doc["environment"] = {"environment_profile": "gpu-quiet"}
        sc = parse_scenario(json.dumps(doc))
        violations = validate_threat_model(sc)
        joined = " ".join(violations)
        assert "observed model knowledge" in joined
        assert "partial system knowledge" in joined

    def test_knockoff_standard_grants_pass(self):
        sc = parse_scenario(json.dumps(scenario_doc()))
        assert validate_threat_model(sc) == []

    def test_miface_aux_init_without_aux_grant(self):
        doc = scenario_doc("miface",
                           params={"target_class": 0,
                                   "init_mode": "auxiliary_sample"},
                           grants={"model_knowledge": "hidden",
                                   "system_knowledge": "none",
                                   "aux_dataset": "none"})
        sc = parse_scenario(json.dumps(doc))
        violations = validate_threat_model(sc)
        assert any("auxiliary" in v for v in violations)

    def test_gated_scenario_never_executes(self, bench):
        doc = scenario_doc(grants={"model_knowledge": "hidden",
                                   "system_knowledge": "none",
                                   "aux_dataset": "none"})
        record = execute(parse_scenario(json.dumps(doc)), bench)
        assert record.status == "failed"
        assert "threat model violation" in record.failure_reason
        assert record.metrics == {}
        assert record.artifacts == []


class TestSchedule:
    def _mini(self, attack_type, sid):
        return parse_scenario(json.dumps(minimal_doc(attack_type, sid)))

    def test_mixed_batch_example(self):
        batch = [self._mini("knockoff", "k1"), self._mini("knockoff", "k2"),
                 self._mini("deepsniffer", "d1")]
        plan = schedule(batch, slots=2)
        windows = plan.windows()
        assert len(windows) == 2
        assert {a.scenario_id for a in windows[0]} == {"k1", "k2"}
        assert {a.slots for a in windows[0]} == {(0,), (1,)}
        assert windows[1][0].scenario_id == "d1"
        assert windows[1][0].exclusive
        assert windows[1][0].slots == (0, 1)

    def test_four_knockoffs_two_slots_two_windows(self):
        batch = [self._mini("knockoff", f"k{i}") for i in range(4)]
        plan = schedule(batch, slots=2)
        assert len(plan.windows()) == 2
        assert all(len(w) == 2 for w in plan.windows())

    def test_single_sidechannel_is_exclusive(self):
        plan = schedule([self._mini("deeprecon", "r1")], slots=4)
        (window,) = plan.windows()
        assert window[0].exclusive and window[0].slots == (0, 1, 2, 3)

    @given(kinds=st.lists(st.sampled_from(tuple(ATTACKS)), min_size=1,
                          max_size=12),
           slots=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_plan_safety_properties(self, kinds, slots):
        batch = [self._mini(k, f"s{i}") for i, k in enumerate(kinds)]
        plan = schedule(batch, slots)
        assert [a.scenario_id for a in plan.assignments] == \
            [s.id for s in batch]  # FIFO
        for window in plan.windows():
            exclusive = [a for a in window if a.exclusive]
            if exclusive:
                assert len(window) == 1  # exclusive windows are singletons
            else:
                assert len(window) <= slots  # capacity respected
                used = [s for a in window for s in a.slots]
                assert len(used) == len(set(used))  # no slot shared
        windows = [a.window for a in plan.assignments]
        assert windows == sorted(windows)


def _pre_dataclass_params(spec):
    """The spec echo of a root written before node params were dataclasses:
    dicts without their defaults (no FC `bias`), `{}` for a param-less
    node."""
    for node in spec["nodes"]:
        if node["kind"] == "fc":
            del node["params"]["bias"]
        elif node["params"] is None:
            node["params"] = {}


# each: a stored spec document rewritten into one the builder does not make
SPEC_MUTATIONS = {
    "family": lambda spec: spec.update(family="mini-other"),
    "pre-dataclass-params": _pre_dataclass_params,
}


class TestZooResolve:
    def test_train_on_miss_then_cache_hit(self, bench):
        ref = ModelRef("mini-mlp-1", "blobs-2c-easy", None, "default")
        model1, cached1, t1 = zoo_resolve(ref, bench)
        assert not cached1
        model2, cached2, t2 = zoo_resolve(ref, bench)
        assert cached2
        assert np.array_equal(model1.state_vector(), model2.state_vector())
        assert t2 < t1  # loading beats training, observably

    def test_class_subset_shrinks_head(self, bench):
        ref = ModelRef("mini-mlp-1", "blobs-4c-mid", (1, 3), "sub")
        model, _, _ = zoo_resolve(ref, bench)
        assert model.output_width == 2
        data = generate(BUILTIN_DATASETS["blobs-4c-mid"])
        mask = np.isin(data.labels, (1, 3))
        acc = np.mean(model.predict(data.inputs[mask]).argmax(1)
                      == (data.labels[mask] == 3))
        assert acc > 0.9  # trained on exactly those classes

    @pytest.mark.parametrize("attack_type",
                             ["knockoff", "staged_inversion", "equivalency"])
    def test_stealing_attacks_query_the_class_subset(self, bench, monkeypatch,
                                                     attack_type):
        # the split and the surrogate are over the target's two classes
        setups = []
        real = orchestrator._steal_setup

        def recording(*args):
            setups.append(real(*args))
            return setups[-1]

        monkeypatch.setattr(orchestrator, "_steal_setup", recording)
        doc = minimal_doc(attack_type)
        doc["target"] = {"architecture_id": "mini-mlp-1",
                         "dataset_id": "blobs-4c-easy", "class_subset": [0, 2]}
        record = execute(parse_scenario(json.dumps(doc)), bench, persist=False)
        assert record.status == "ok", record.failure_reason
        ((queries, test, spec),) = setups
        assert queries.class_count == test.class_count == 2
        assert set(np.unique(test.labels)) == {0, 1}
        assert build_model(spec, seed=0).output_width == 2
        if attack_type == "knockoff":  # its stolen checkpoint names the subset
            (path,) = record.artifacts
            assert Path(path).name == "mini-mlp-1__blobs-4c-easy__c0-2__stolen-s1"

    def test_miface_aux_sample_comes_from_the_class_subset(self, bench,
                                                            monkeypatch):
        seen = []
        real = orchestrator.miface_invert

        def recording(handle, config, target_class, aux, seed):
            seen.append(aux)
            return real(handle, config, target_class, aux=aux, seed=seed)

        monkeypatch.setattr(orchestrator, "miface_invert", recording)
        doc = minimal_doc("miface")
        doc["attack"]["params"] = {"target_class": 1,
                                   "init_mode": "auxiliary_sample",
                                   "max_iterations": 5}
        doc["target"] = {"architecture_id": "mini-mlp-1",
                         "dataset_id": "blobs-4c-easy", "class_subset": [0, 2]}
        record = execute(parse_scenario(json.dumps(doc)), bench, persist=False)
        assert record.status == "ok", record.failure_reason
        (aux,) = seen
        assert aux.class_count == 2
        data = generate(BUILTIN_DATASETS["blobs-4c-easy"])
        assert relabelling(data, aux) == {(0, 0), (2, 1)}  # 1 is the data's 2

    def test_builtin_spec_is_shared_per_key(self, bench, monkeypatch):
        spec = builtin_spec("mini-vgg-4", (6, 6, 1), 4)
        assert builtin_spec("mini-vgg-4", [6, 6, 1], 4) is spec
        assert builtin_spec("mini-vgg-4", (8, 8, 1), 4) is not spec
        assert builtin_spec("mini-vgg-4", (6, 6, 1), 5) is not spec
        with pytest.raises(KeyError, match="mini-nothing"):
            builtin_spec("mini-nothing", (6, 6, 1), 4)
        # two deeprecon runs on a cached target read the same corpus spec
        # objects
        doc = minimal_doc("deeprecon")
        doc["attack"]["params"] = {"histograms_per_architecture": 1,
                                   "trials": 1, "k_neighbors": 1}
        zoo_resolve(parse_scenario(json.dumps(doc)).target, bench)
        served = []
        real = orchestrator.builtin_spec

        def recording(*key):
            served.append(real(*key))
            return served[-1]

        monkeypatch.setattr(orchestrator, "builtin_spec", recording)
        runs = []
        for seed in (1, 2):
            doc["seed"] = seed
            assert execute(parse_scenario(json.dumps(doc)), bench,
                           persist=False).status == "ok"
            runs.append(served[:])
            served.clear()
        assert runs[0] and len(runs[0]) == len(runs[1])
        assert all(a is b for a, b in zip(*runs))

    def test_entry_is_named_and_checked_by_what_made_it(self, bench):
        ref = ModelRef("mini-mlp-1", "blobs-4c-mid", (1, 3), "sub")
        zoo_resolve(ref, bench)
        entry = _checkpoint_entry(bench, ref)
        meta = json.loads((entry / "metadata.json").read_text())
        made_from = meta["made_from"]
        assert list(meta) == ["format_version", "made_from", "bn_calibrated"]
        assert list(made_from) == ["spec", "data", "class_subset", "recipe"]
        assert made_from["spec"] == to_doc(
            builtin_spec("mini-mlp-1", (6, 6, 1), 2))
        assert made_from["data"] == to_doc(BUILTIN_DATASETS["blobs-4c-mid"])
        assert made_from["class_subset"] == [1, 3]
        assert made_from["recipe"] == to_doc(replace(
            orchestrator.DEFAULT_RECIPE,
            seed=zlib.crc32(ref.slug().encode()) & 0x7FFFFFFF))
        assert entry.name == f"{zlib.crc32(json.dumps(made_from).encode()):08x}"

    def test_a_recipe_is_served_only_the_model_it_makes(self, tmp_path):
        """Same scenario and seed, same metrics: a target trained first on
        a shared root by another recipe is not served, on that root, to a
        workbench with the default one."""
        scenario = parse_scenario(json.dumps(scenario_doc(
            seed=0, params={"query_budget": 100},
            target={"architecture_id": "mini-mlp-2",
                    "dataset_id": "blobs-4c-mid"})))
        fresh = execute(scenario, default_workbench(tmp_path / "fresh"),
                        persist=False)
        quick = Workbench(tmp_path / "shared",
                          recipes={"blobs-4c-mid": TrainConfig(epochs=1)})
        assert not zoo_resolve(scenario.target, quick)[1]
        shared = execute(scenario, default_workbench(tmp_path / "shared"),
                         persist=False)
        assert shared.status == fresh.status == "ok", shared.failure_reason
        assert shared.resolved_from_cache is False
        assert shared.metrics["accuracy_target"] == 0.9971428571428571
        assert shared.metrics == fresh.metrics
        # each recipe's model has its own entry, and is served from it
        assert zoo_resolve(scenario.target, quick)[1]
        assert len(list((quick.checkpoints_dir / scenario.target.slug())
                        .glob("*/params.bin"))) == 2

    def test_invalid_param_in_metadata_retrains(self, bench):
        ref = ModelRef("mini-student-cnn", "blobs-2c-easy", None, "default")
        first, _, _ = zoo_resolve(ref, bench)
        meta_file = _checkpoint_entry(bench, ref) / "metadata.json"
        meta = json.loads(meta_file.read_text())
        meta["made_from"]["spec"]["nodes"][0]["params"]["stride"] = 0
        meta_file.write_text(json.dumps(meta))
        again, cached, _ = zoo_resolve(ref, bench)
        assert not cached
        assert np.array_equal(again.state_vector(), first.state_vector())
        _, cached, _ = zoo_resolve(ref, bench)
        assert cached

    @pytest.mark.parametrize("mutate", SPEC_MUTATIONS)
    def test_checkpoint_of_another_spec_retrains(self, bench, mutate):
        """An entry is served only to a caller who would have made it: one
        whose stored spec is not the spec built here is retrained once,
        then served."""
        ref = ModelRef("mini-mlp-2", "blobs-2c-easy", None, "default")
        first, _, _ = zoo_resolve(ref, bench)
        meta_file = _checkpoint_entry(bench, ref) / "metadata.json"
        meta = json.loads(meta_file.read_text())
        SPEC_MUTATIONS[mutate](meta["made_from"]["spec"])
        meta_file.write_text(json.dumps(meta))
        again, cached, _ = zoo_resolve(ref, bench)
        assert not cached
        assert again.spec is builtin_spec("mini-mlp-2", (6, 6, 1), 2)
        assert np.array_equal(again.state_vector(), first.state_vector())
        _, cached, _ = zoo_resolve(ref, bench)
        assert cached

    def test_zoo_list_prints_each_entry(self, tmp_path, capsys):
        """`zoo list` prints one `<slug>/<crc>` line per entry: two recipes'
        models of one reference are two lines, and lock files, a writer's
        temp directory and old-layout files are not entries."""
        root = tmp_path / "repo"
        ref = ModelRef("mini-mlp-1", "blobs-2c-easy")
        zoo_resolve(ref, Workbench(root))
        zoo_resolve(ref, Workbench(root, recipes={
            "blobs-2c-easy": TrainConfig(epochs=1)}))
        slug = root / "checkpoints" / ref.slug()
        entries = sorted(p.name for p in slug.iterdir() if p.is_dir())
        (slug / "metadata.json").write_text("{}")  # the old layout's
        debris = slug / f"{entries[0]}.tmpabcd1234"
        debris.mkdir()
        (debris / "metadata.json").write_text("{}")
        assert main(["--root", str(root), "zoo", "list"]) == 0
        head, listed = capsys.readouterr().out.split("checkpoints:\n")
        assert head.split() == ["architectures:", *BUILTIN_ARCHITECTURES,
                                "datasets:", *BUILTIN_DATASETS]
        assert listed.split() == [f"{ref.slug()}/{e}" for e in entries]
        assert len(entries) == 2

    def test_root_of_the_old_layout_refills_once(self, bench):
        """A root written before entries were named by what made them holds
        the checkpoint files in the reference's directory itself: they are
        never read, the model trains once more, and is then served."""
        ref = ModelRef("mini-mlp-1", "blobs-2c-easy")
        first, _, _ = zoo_resolve(ref, bench)
        entry = _checkpoint_entry(bench, ref)
        for name in ("metadata.json", "params.bin"):
            (entry.parent / name).write_bytes((entry / name).read_bytes())
        shutil.rmtree(entry)
        again, cached, _ = zoo_resolve(ref, bench)
        assert not cached
        assert np.array_equal(again.state_vector(), first.state_vector())
        assert zoo_resolve(ref, bench)[1]


def _checkpoint_entry(bench, ref) -> Path:
    """The one checkpoint entry of `ref` on the bench's root."""
    (entry,) = [p for p in (bench.checkpoints_dir / ref.slug()).iterdir()
                if p.is_dir()]
    return entry


REF = ModelRef("mini-mlp-1", "blobs-2c-easy")


def _fill(bench):
    """Resolve REF, training it into its entry on a miss."""
    return zoo_resolve(REF, bench)[0]


def _as_directory(path):
    path.unlink()
    path.mkdir()


# each damage: (which file, what is done to it)
DAMAGES = {
    "truncated-data": ("params.bin", lambda p: p.write_bytes(p.read_bytes()[:-8])),
    "missing-data": ("params.bin", Path.unlink),
    "directory-data": ("params.bin", _as_directory),
    "truncated-meta": ("metadata.json", lambda p: p.write_text(p.read_text()[:40])),
    "missing-meta": ("metadata.json", Path.unlink),
    "directory-meta": ("metadata.json", _as_directory),
    "list-meta": ("metadata.json", lambda p: p.write_text("[]")),
    "extra-key-meta": ("metadata.json", lambda p: p.write_text(json.dumps(
        {**json.loads(p.read_text()), "note": "x"}))),
}


class TestCacheRefill:
    """A checkpoint entry follows the one fill rule: an entry that cannot
    be read (a file truncated, missing or a directory, metadata of the
    wrong shape) is discarded and filled again, with the same bits."""

    @pytest.mark.parametrize("damage", DAMAGES)
    def test_damaged_entry_is_refilled(self, bench, damage):
        which, harm = DAMAGES[damage]
        first = _fill(bench)
        entry = _checkpoint_entry(bench, REF)
        written = {p.name: p.read_bytes() for p in entry.iterdir()}
        harm(entry / which)
        again = _fill(bench)
        assert {p.name: p.read_bytes() for p in entry.iterdir()} == written
        assert np.array_equal(again.state_vector(), first.state_vector())
        # the damaged entry was renamed aside and removed: only the entry
        # and its lock file are left
        assert sorted(os.listdir(entry.parent)) == [entry.name,
                                                    entry.name + ".lock"]

    def test_a_hit_writes_nothing(self, bench):
        """A hit takes no lock, so a root its reader cannot write still
        serves it: no lock file, nor any other, is made."""
        _fill(bench)
        for lock in bench.root.rglob("*.lock"):
            lock.unlink()
        before = sorted(bench.root.rglob("*"))
        _fill(bench)
        assert sorted(bench.root.rglob("*")) == before


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_entry_takes_the_writers_umask(bench):
    """An entry directory gets the mode a plain mkdir gets, as its files
    do, so other users can read a shared root."""
    umask = os.umask(0o022)
    try:
        _fill(bench)
    finally:
        os.umask(umask)
    entry = _checkpoint_entry(bench, REF)
    assert stat.S_IMODE(entry.stat().st_mode) == 0o755
    assert {stat.S_IMODE(p.stat().st_mode) for p in entry.iterdir()} == {0o644}


class TestNoDatasetCache:
    """A dataset is generated from its spec where it is read: no run, batch
    or resolve writes one under the root."""

    def test_runs_write_no_datasets_directory(self, bench):
        sc = parse_scenario(json.dumps(scenario_doc()))
        _, from_cache, _ = zoo_resolve(sc.target, bench)
        assert not from_cache  # trained, so its data was read
        assert execute(sc, bench).status == "ok"
        result = run_batch([parse_scenario(json.dumps(scenario_doc(id=f"b{i}")))
                            for i in range(2)], bench)
        assert result.all_ok()
        assert sorted(p.name for p in bench.root.iterdir()) == [
            "artifacts", "checkpoints", "records"]

    def test_miface_artifact_labels_the_datasets_class(self, bench):
        """Under a class subset, output k is the subset's k-th class: the
        reconstruction is named and labelled in the dataset's own classes."""
        doc = minimal_doc("miface")
        doc["attack"]["params"] = {"target_class": 1, "max_iterations": 5}
        doc["target"] = {"architecture_id": "mini-mlp-1",
                         "dataset_id": "blobs-4c-easy", "class_subset": [0, 2]}
        record = execute(parse_scenario(json.dumps(doc)), bench, persist=False)
        assert record.status == "ok", record.failure_reason
        assert Path(record.artifacts[0]).name == "reconstruction_c2.pgm"
        sample_dir = Path(record.artifacts[1])
        assert sample_dir.name == "reconstruction_c2"
        labels = np.frombuffer((sample_dir / "labels.bin").read_bytes(), "<i4")
        assert labels.tolist() == [2]
        meta = json.loads((sample_dir / "meta.json").read_text())
        assert meta == {"spec": to_doc(BUILTIN_DATASETS["blobs-4c-easy"]),
                        "count": 1}

    def test_staged_artifacts_name_the_datasets_classes(self, bench):
        doc = minimal_doc("staged_inversion")
        doc["attack"]["params"] = {"budgets": [5, 10],
                                   "inversion": {"max_iterations": 3}}
        doc["target"] = {"architecture_id": "mini-mlp-1",
                         "dataset_id": "blobs-4c-easy",
                         "class_subset": [1, 3]}
        record = execute(parse_scenario(json.dumps(doc)), bench, persist=False)
        assert record.status == "ok", record.failure_reason
        assert [Path(a).name for a in record.artifacts] == [
            "reconstruction_b10_c1.pgm", "reconstruction_b10_c3.pgm"]


# Each process writes `ready-<i>` and waits for a `go` file, so that the two
# start together; any exception exits nonzero.
_START = r"""
import sys, time
from pathlib import Path
root = Path(sys.argv[1])
(root / f"ready-{sys.argv[2]}").touch()
deadline = time.monotonic() + 60
while not (root / "go").exists() and time.monotonic() < deadline:
    time.sleep(0.001)
"""

# Saves and loads one checkpoint entry, again and again.
_HAMMER = _START + r"""
import numpy as np
from extractbench.fields import doc_text
from extractbench.zoo import build_model, builtin_spec, load_checkpoint, save_checkpoint

model = build_model(builtin_spec("mini-mlp-1", (4, 4, 1), 2), seed=3)
made_from = {"race": 1}
for _ in range(200):
    save_checkpoint(model, root / "checkpoints" / "race", made_from)
    assert np.array_equal(
        load_checkpoint(root / "checkpoints" / "race", model.spec,
                        doc_text(made_from)).state_vector(),
        model.state_vector())
"""

# Resolves one missing model on a shared root, and prints whether it was
# served from the cache.
_RESOLVE = _START + r"""
from extractbench.orchestrator import Workbench, zoo_resolve
from extractbench.zoo import ModelRef

_, from_cache, _ = zoo_resolve(ModelRef("mini-mlp-1", "blobs-2c-easy"),
                               Workbench(root / "repo"))
print(from_cache)
"""


class TestCacheAcrossProcesses:
    @staticmethod
    def _run_two(tmp_path, script) -> list[str]:
        """Start two processes of `script` together; their outputs."""
        src = str(Path(extractbench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), str(i)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i in range(2)]
        try:
            deadline = time.monotonic() + 60
            while (len(list(tmp_path.glob("ready-*"))) < 2
                   and all(p.poll() is None for p in procs)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            (tmp_path / "go").touch()
            outputs = [p.communicate(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
                p.wait()
        assert [p.returncode for p in procs] == [0, 0], outputs
        return [out for out, _ in outputs]

    def test_two_processes_save_and_load_one_entry(self, tmp_path):
        """Two writers publish the same entry: whichever rename lands first
        wins, the other discards its copy, and no reader ever finds the
        entry half there."""
        self._run_two(tmp_path, _HAMMER)
        assert os.listdir(tmp_path / "checkpoints") == ["race"]

    def test_threads_of_one_process_fill_each_entry_once(self, bench,
                                                         monkeypatch):
        """The entry's lock holds between threads as between processes:
        four threads that miss one model train it once, and generate its
        dataset once."""
        generated = []
        real = orchestrator.generate
        monkeypatch.setattr(orchestrator, "generate",
                            lambda spec: generated.append(spec) or real(spec))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(zoo_resolve, REF, bench)
                           for _ in range(4)]
                flags = [f.result(timeout=120)[1] for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(flags) == [False, True, True, True]
        assert len(generated) == 1

    def test_one_missing_model_is_trained_once(self, tmp_path):
        """Two processes resolve one missing model at once: the entry's lock
        makes one wait while the other trains, then serves it the model."""
        outputs = self._run_two(tmp_path, _RESOLVE)
        assert sorted(outputs) == ["False\n", "True\n"]


class TestSideChannelRunnersSeedInBulk:
    """The runners draw each stream from a generator seeded in bulk. Each
    still goes through the orchestrator's module attribute, and each
    equals the simulator's own stream under the int seed, in order."""

    @staticmethod
    def _spied(monkeypatch, name):
        calls = []  # (spec, profile, what the simulator returned)
        real = getattr(orchestrator, name)

        def spy(spec, profile, seed):
            calls.append((spec, profile, real(spec, profile, seed=seed)))
            return calls[-1][2]

        monkeypatch.setattr(orchestrator, name, spy)
        return calls

    def test_deeprecon(self, bench, monkeypatch):
        doc = minimal_doc("deeprecon")
        doc["attack"]["params"] = {"histograms_per_architecture": 3,
                                   "trials": 4}
        sc = parse_scenario(json.dumps(doc))
        calls = self._spied(monkeypatch, "simulate_symbol_stream")
        record = execute(sc, bench)
        assert record.status == "ok", record.failure_reason
        corpus_tags = [f"{a}|{i}" for a in sc.attack.params.corpus_architectures
                       for i in range(3)]
        tags = corpus_tags + [f"victim|{t}" for t in range(4)]
        assert len(calls) == len(tags)
        archs = ([t.split("|")[0] for t in corpus_tags]
                 + [sc.target.architecture_id] * 4)
        for (spec, profile, got), tag, arch in zip(calls, tags, archs):
            assert spec.id == arch, tag
            assert got.counts == simulate_symbol_stream(
                spec, profile, seed=_derived_seed(sc, tag)).counts, tag
        written = read_histograms_csv(next(
            a for a in record.artifacts if a.endswith("corpus_histograms.csv")))
        assert [h.counts for h in written] == [
            got.counts for _, _, got in calls[:len(corpus_tags)]]

    def test_deepsniffer(self, bench, monkeypatch):
        corpus = ["mini-vgg-4", "mini-resnet-4"]
        doc = minimal_doc("deepsniffer")
        doc["attack"]["params"] = {"corpus_architectures": corpus,
                                   "traces_per_architecture": 2,
                                   "classifier_epochs": 2}
        sc = parse_scenario(json.dumps(doc))
        calls = self._spied(monkeypatch, "simulate_kernel_trace")
        assert execute(sc, bench).status == "ok"
        tags = [f"{a}|{i}" for a in corpus for i in range(2)] + ["victim"]
        assert len(calls) == len(tags)
        for (spec, profile, got), tag in zip(calls, tags):
            assert got == simulate_kernel_trace(
                spec, profile, seed=_derived_seed(sc, tag)), tag


class TestEachModelPredictsOncePerSet:
    """`execute` runs each model on a test split in one inference pass,
    which gives its output and, where a metric reads it, its probe; every
    metric reads those arrays (`distill` too: it softens the teacher rows
    the report already has). Passes (`Network._run` calls) are counted per
    (model, input array), with the positions each returns."""

    @staticmethod
    def _counted_execute(bench, monkeypatch, doc):
        counts = Counter()
        read = {}    # (model, array) -> the positions its pass returned
        arrays = {}  # id -> every counted model and array, kept alive
        real_run = Network._run

        def run(self, x, steps=None, keep=False, calibrate=False, hold=None,
                **mode):
            arrays[id(self)], arrays[id(x)] = self, x
            key = id(self), id(x)
            counts[key] += 1
            read[key] = {len(self._plan) if steps is None else steps, hold}
            return real_run(self, x, steps, keep, calibrate, hold, **mode)

        monkeypatch.setattr(Network, "_run", run)
        sc = parse_scenario(json.dumps(doc))
        record = execute(sc, bench)
        assert record.status == "ok", record.failure_reason
        from extractbench.orchestrator import _derived_seed
        _, test = split(generate(BUILTIN_DATASETS[sc.target.dataset_id]),
                        sc.attack.params.query_fraction,
                        _derived_seed(sc, "split"))
        on_test = {key: n for key, n in counts.items()
                   if np.array_equal(arrays[key[1]], test.inputs)}
        assert set(counts.values()) == {1}
        # per model on the test split: does its pass give the output, and
        # the probe?
        shapes = sorted(
            (len(m._plan) in read[key],
             m._position[default_probe_point(m)] in read[key])
            for key in on_test for m in [arrays[key[0]]])
        return on_test, shapes

    def test_knockoff(self, bench, monkeypatch):
        on_test, shapes = self._counted_execute(bench, monkeypatch,
                                                scenario_doc(seed=11))
        # the target and the stolen model, each one pass, to the output
        assert len(on_test) == 2
        assert shapes == [(True, False)] * 2

    def test_staged_inversion(self, bench, monkeypatch):
        on_test, shapes = self._counted_execute(
            bench, monkeypatch, minimal_doc("staged_inversion"))
        # the target and each budget's model: one pass, output and probe
        assert len({model for model, _ in on_test}) == 3
        assert shapes == [(True, True)] * 3

    def test_equivalency(self, bench, monkeypatch):
        on_test, shapes = self._counted_execute(bench, monkeypatch,
                                                minimal_doc("equivalency"))
        # target and stolen: output and probe in one pass; each student:
        # its probe alone
        assert shapes == [(False, True)] * 2 + [(True, True)] * 2


class TestInversionPassRows:
    """The row count of each `Network.forward` during `execute`, as the
    benchmark reads it (`network.miface_rows_per_forward` averages the rows
    of the forwards under `miface_invert`): a miface scenario sends 1-row
    passes, and a staged inversion steps its classes' ascents on each
    stolen model in passes of class-count rows."""

    @staticmethod
    def _forward_rows(bench, monkeypatch, doc):
        sc = parse_scenario(json.dumps(doc))
        zoo_resolve(sc.target, bench)  # the target's training is no pass here
        rows = []
        real = Network.forward

        def record(self, x, *args, **kwargs):
            rows.append((len(x), kwargs.get("single_rows", False)))
            return real(self, x, *args, **kwargs)

        monkeypatch.setattr(Network, "forward", record)
        record_ = execute(sc, bench, persist=False)
        assert record_.status == "ok", record_.failure_reason
        return Counter(rows)

    def test_miface_sends_one_row_passes(self, bench, monkeypatch):
        doc = minimal_doc("miface")
        doc["attack"]["params"] = {"target_class": 1, "max_iterations": 5,
                                   "posterior_threshold": 1.0}
        assert self._forward_rows(bench, monkeypatch, doc) == {(1, True): 6}

    def test_staged_inversion_stacks_its_classes(self, bench, monkeypatch):
        doc = minimal_doc("staged_inversion")
        doc["attack"]["params"] = {
            "budgets": [5, 10],
            "inversion": {"max_iterations": 3, "posterior_threshold": 1.0}}
        doc["target"] = {"architecture_id": "mini-mlp-1",
                         "dataset_id": "blobs-4c-easy"}
        rows = self._forward_rows(bench, monkeypatch, doc)
        # 4 passes of every class for each budget; the rest train the
        # stolen models
        assert {key: n for key, n in rows.items() if key[1]} == {(4, True): 8}
        assert 1 not in {n for n, _ in rows}


class TestOneBlasThreadPerRun:
    """`execute` and `zoo_resolve` run with BLAS on one thread, and the
    caller's count is back when they return, whether the run failed or
    not."""

    @staticmethod
    def _spy(monkeypatch, blas, fails=False):
        """The BLAS thread count at each `sgd_run`, which raises there
        with `fails`."""
        seen = []
        real = network.sgd_run

        def sgd_run(*args):
            seen.append(blas.get())
            if fails:
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(network, "sgd_run", sgd_run)
        return seen

    @pytest.mark.parametrize("fails", [False, True])
    def test_execute(self, bench, blas_threads, monkeypatch, fails):
        blas, many = blas_threads
        seen = self._spy(monkeypatch, blas, fails)
        record = execute(parse_scenario(json.dumps(scenario_doc(seed=11))),
                         bench)
        assert record.status == ("failed" if fails else "ok")
        # ok: the target's train-on-miss and the surrogate; failed: the
        # first of them raised
        assert seen == ([1] if fails else [1, 1])
        assert blas.get() == many

    def test_zoo_resolve(self, bench, blas_threads, monkeypatch):
        blas, many = blas_threads
        seen = self._spy(monkeypatch, blas)
        _, cached, _ = zoo_resolve(ModelRef("mini-mlp-1", "blobs-2c-easy"),
                                   bench)
        assert not cached and seen == [1]
        assert blas.get() == many


class TestExecute:
    def test_knockoff_end_to_end_matches_direct_call(self, bench):
        sc = parse_scenario(json.dumps(scenario_doc(seed=11)))
        record = execute(sc, bench)
        assert record.status == "ok"
        assert set(sc.evaluation) <= set(record.metrics)
        assert record.timings["wall_seconds"] > 0

        # independent recomputation through the module API
        target, _, _ = zoo_resolve(sc.target, bench)
        data = generate(BUILTIN_DATASETS["blobs-2c-easy"])
        from extractbench.orchestrator import _derived_seed
        queries, test = split(data, 0.5, _derived_seed(sc, "split"))
        spec = builtin_spec("mini-mlp-1", data.spec.input_shape,
                            data.class_count)
        stolen, _ = knockoff_extract(
            QueryHandle(target), queries, spec,
            KnockoffConfig(query_budget=120,
                           recreate=TrainConfig(epochs=20, seed=11)),
            seed=11)
        assert record.metrics["fidelity"] == fidelity(
            stolen.predict(test.inputs), target.predict(test.inputs))

    def test_nonexistent_architecture_fails_with_name(self):
        doc = scenario_doc(target={"architecture_id": "mini-ghost",
                                   "dataset_id": "blobs-2c-easy"})
        # parsing rejects it, so no run can start on it
        with pytest.raises(ScenarioError,
                           match=rf'^target: unknown architecture_id '
                                 rf'"mini-ghost"{ARCHS}$'):
            parse_scenario(json.dumps(doc))

    def test_equivalency_artifact_echoes_the_distill_config(self, bench):
        doc = minimal_doc("equivalency")
        doc["attack"]["params"].update(recreate={"epochs": 1},
                                       distill_train={"epochs": 1})
        record = execute(parse_scenario(json.dumps(doc)), bench)
        assert record.status == "ok", record.failure_reason
        (path,) = record.artifacts
        echo = json.loads(Path(path).read_text())["distill_config"]
        params = record.scenario["attack"]["params"]
        # the distillation knobs of the params, in their echo's key order
        keys = ["student_architecture", "temperature", "hard_label_weight",
                "distill_train"]
        assert list(echo) == keys
        assert echo == {k: params[k] for k in keys}

    def test_rerun_reproduces_metrics_exactly(self, bench):
        sc = parse_scenario(json.dumps(scenario_doc(seed=21)))
        first = execute(sc, bench)
        second = execute(sc, bench)
        assert first.status == second.status == "ok"
        assert first.metrics == second.metrics

    def test_artifacts_exist_for_ok_records(self, bench):
        from pathlib import Path
        sc = parse_scenario(json.dumps(scenario_doc(seed=31)))
        record = execute(sc, bench)
        assert record.status == "ok"
        for artifact in record.artifacts:
            assert Path(artifact).exists()

    def test_non_finite_metric_fails_the_record(self, bench, monkeypatch):
        """A metric that is NaN or infinite is no result: the record fails,
        naming the metrics, and is written as JSON (which has no NaN)."""
        def run(scenario, target, art_dir):
            return {"fidelity": float("nan"), "queries_used": 2.0,
                    "accuracy_target": 1.0, "accuracy_stolen": float("inf"),
                    "final_loss": 0.5}, []
        monkeypatch.setitem(ATTACKS, "knockoff",
                            ATTACKS["knockoff"]._replace(run=run))
        record = execute(parse_scenario(json.dumps(scenario_doc())), bench)
        assert record.status == "failed"
        assert record.failure_reason == ("ArithmeticError: metric(s) "
                                         "['accuracy_stolen', 'fidelity'] "
                                         "not finite")
        assert record.metrics == {}
        (stored,) = load_records(bench.records_dir)
        assert stored.failure_reason == record.failure_reason


class TestBatchAndRecords:
    def test_record_with_nan_is_not_written(self, bench):
        record = execute(parse_scenario(json.dumps(scenario_doc())), bench,
                         persist=False)
        record.metrics["fidelity"] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            persist_record(record, bench)

    def test_batch_runs_and_persists_in_order(self, bench):
        docs = [scenario_doc(id=f"b{i}", seed=i, params={"query_budget": 60})
                for i in range(3)]
        scenarios = [parse_scenario(json.dumps(d)) for d in docs]
        result = run_batch(scenarios, bench, slots=2)
        assert result.all_ok()
        assert [r.scenario["id"] for r in result.records] == ["b0", "b1", "b2"]
        stored = load_records(bench.records_dir)
        assert {r.scenario["id"] for r in stored} == {"b0", "b1", "b2"}

    def test_two_slot_window_matches_serial_metrics(self, bench):
        docs = [scenario_doc(id=f"c{i}", seed=5, params={"query_budget": 60})
                for i in range(2)]
        scenarios = [parse_scenario(json.dumps(d)) for d in docs]
        serial = [execute(s, bench, persist=False) for s in scenarios]
        parallel = run_batch(scenarios, bench, slots=2)
        for a, b in zip(serial, parallel.records):
            assert a.metrics == b.metrics

    def test_simulated_makespan_prefers_more_slots(self):
        durations = {"a": 1.0, "b": 1.2, "c": 0.9, "d": 1.1}
        batch_docs = [scenario_doc(id=i, params={"query_budget": 10})
                      for i in durations]
        batch = [parse_scenario(json.dumps(d)) for d in batch_docs]
        serial = simulated_makespan(schedule(batch, 1), durations)
        dual = simulated_makespan(schedule(batch, 2), durations)
        assert serial == pytest.approx(sum(durations.values()))
        assert dual == pytest.approx(1.2 + 1.1)

    def test_failed_scenario_does_not_stop_batch(self, bench):
        good = scenario_doc(id="ok1", params={"query_budget": 60})
        bad = scenario_doc(id="bad1", grants={"model_knowledge": "hidden",
                                              "system_knowledge": "none",
                                              "aux_dataset": "none"})
        records = run_batch([parse_scenario(json.dumps(bad)),
                             parse_scenario(json.dumps(good))],
                            bench, slots=1).records
        assert records[0].status == "failed"
        assert "threat model violation" in records[0].failure_reason
        assert records[1].status == "ok"


class TestReport:
    def _records(self, bench, n=3):
        records = []
        for i in range(n):
            sc = parse_scenario(json.dumps(
                scenario_doc(id=f"r{i}", seed=i, params={"query_budget": 60})))
            records.append(execute(sc, bench, persist=False))
        return records

    def test_csv_has_row_per_record_and_fidelity_column(self, bench, tmp_path):
        records = self._records(bench)
        wide, long = report(records, "csv", tmp_path / "out.csv")
        lines = wide.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:3] == ["scenario_id", "attack_type", "target"]
        assert "fidelity" in header
        assert header[-1] == "status"
        long_lines = long.read_text().splitlines()
        assert long_lines[0] == "scenario_id,attack_type,metric,value"

    def test_mixed_metrics_union_with_blanks(self, bench, tmp_path):
        records = self._records(bench, n=1)
        doc = scenario_doc("miface", id="mi", params={"target_class": 0})
        records.append(execute(parse_scenario(json.dumps(doc)), bench,
                               persist=False))
        wide, _ = report(records, "csv", tmp_path / "mixed.csv")
        lines = wide.read_text().splitlines()
        header = lines[0].split(",")
        assert "fidelity" in header and "final_posterior" in header
        fid_col = header.index("fidelity")
        assert lines[2].split(",")[fid_col] == ""  # miface has no fidelity

    def test_json_round_trip_is_identity(self, bench, tmp_path):
        records = self._records(bench, n=2)
        (path,) = report(records, "json", tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded == to_doc(records)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            report([], "csv", tmp_path / "x.csv")

    def test_report_skips_unreadable_record(self, bench, tmp_path, capsys):
        good = json.loads(persist_record(self._records(bench, n=1)[0],
                                         bench).read_text())
        (bench.records_dir / "broken.json").write_text("{")
        (bench.records_dir / "status-number.json").write_text(
            json.dumps({**good, "status": 3}))
        (bench.records_dir / "metric-string.json").write_text(json.dumps(
            {**good, "metrics": {**good["metrics"], "fidelity": "0.9"}}))
        out = tmp_path / "out.json"
        assert main(["report", str(bench.records_dir), "--format", "json",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        for name in ("broken.json", "status-number.json", "metric-string.json"):
            assert name in err
        assert [r["scenario"]["id"] for r in json.loads(out.read_text())] == ["r0"]

    def test_record_written_before_timings_loads_with_defaults(self, tmp_path):
        (tmp_path / "old.json").write_text("""{
          "schema_version": 1,
          "scenario": {"id": "old"},
          "status": "ok",
          "started": "2026-01-01T00:00:00+00:00",
          "ended": "2026-01-01T00:00:01+00:00",
          "metrics": {"fidelity": 0.5},
          "artifacts": [],
          "failure_reason": null
        }""")
        (record,) = load_records(tmp_path)
        assert record.timings == {} and record.resolved_from_cache is None
        assert record.metrics == {"fidelity": 0.5}
        assert record.scenario == {"id": "old"}

    def test_records_embed_schema_version(self, bench):
        record = self._records(bench, n=1)[0]
        assert to_doc(record)["schema_version"] == 1
        path = persist_record(record, bench)
        assert json.loads(path.read_text())["schema_version"] == 1
