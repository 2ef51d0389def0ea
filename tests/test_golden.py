"""Golden metrics: one small scenario per attack type, plus a knockoff on
top-1 labels, must reproduce the metrics map stored in
``tests/golden/metrics.json``.

The determinism contract says the same scenario and seed give the same
metrics; these stored maps pin what those metrics are, so an engine or
simulator change that alters a single bit fails here. On the platform an
entry was made on, the comparison is exact; elsewhere floats are held to a
tight relative tolerance (see ``conftest.golden``). Regenerate with
``python -m pytest tests/test_golden.py --write-golden``, and say so in
CHANGES.md.
"""

import json

import pytest

from extractbench.network import TrainConfig
from extractbench.orchestrator import (BUILTIN_DATASETS, Workbench, execute,
                                       parse_scenario)

HIDDEN = {"model_knowledge": "hidden", "system_knowledge": "none",
          "aux_dataset": "partial"}
OBSERVED = {"model_knowledge": "observed", "system_knowledge": "partial",
            "aux_dataset": "none"}
MLP = {"architecture_id": "mini-mlp-2", "dataset_id": "blobs-4c-mid"}

# entry name -> (params, target, environment, grants). An entry is named
# after its attack type, or `<attack type>-<variant>`. Each is small enough
# that all of them run in a few seconds, and together they reach every
# attack runner, both knockoff training targets (confidence rows and top-1
# labels), both simulators (with verbose-runtime noise and a MatMul-blind
# machine) and the tiny-FC classifier.
SCENARIOS = {
    "knockoff": ({"query_budget": 60, "recreate": {"epochs": 3}}, MLP, {},
                 HIDDEN),
    "knockoff-top1": ({"query_budget": 60, "output_mode": "top1_label",
                       "recreate": {"epochs": 3}}, MLP, {}, HIDDEN),
    "miface": ({"target_class": 1, "max_iterations": 40}, MLP, {}, HIDDEN),
    "staged_inversion": ({"budgets": [20, 40], "recreate": {"epochs": 2},
                          "inversion": {"max_iterations": 30}}, MLP, {}, HIDDEN),
    "equivalency": ({"query_budget": 60, "recreate": {"epochs": 2},
                     "distill_train": {"epochs": 1}}, MLP, {}, HIDDEN),
    "deepsniffer": ({"corpus_architectures": ["mini-vgg-4", "mini-resnet-4",
                                              "mini-dense-3"],
                     "traces_per_architecture": 2, "classifier_epochs": 20},
                    {"architecture_id": "mini-vgg-6", "dataset_id": "blobs-2c-easy"},
                    {"environment_profile": "gpu-verbose"}, OBSERVED),
    "deeprecon": ({"histograms_per_architecture": 4, "trials": 4},
                  {"architecture_id": "mini-dense-4", "dataset_id": "blobs-2c-easy"},
                  {"machine_profile": "tf2-like"}, OBSERVED),
}


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    # one training epoch per target keeps train-on-miss cheap; the targets
    # are still trained, so the query attacks see a real model
    return Workbench(tmp_path_factory.mktemp("golden") / "repo",
                     recipes={d: TrainConfig(epochs=1) for d in BUILTIN_DATASETS})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_match_golden(name, bench, golden):
    params, target, environment, grants = SCENARIOS[name]
    attack = name.partition("-")[0]
    scenario = parse_scenario(json.dumps({
        "schema_version": 1, "id": f"golden-{name}", "seed": 5,
        "attack": {"type": attack, "params": params}, "target": target,
        "environment": environment, "grants": grants}))
    record = execute(scenario, bench, persist=False)
    assert record.status == "ok", record.failure_reason
    golden("metrics", name, record.metrics)
