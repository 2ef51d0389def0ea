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

Golden bits: every built-in architecture, on a 6x6 and an 8x8 dataset,
must reproduce the initialization, one epoch of training, predictions,
a probe, an input gradient and BN statistics stored in
``tests/golden/architectures.json``.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from extractbench.datasets import generate
from extractbench.network import CrossEntropy, TrainConfig, sgd_run
from extractbench.orchestrator import (BUILTIN_DATASETS, Workbench, execute,
                                       parse_scenario)
from extractbench.query_attacks import GradientHandle
from extractbench.tensor import OperatorKind
from extractbench.zoo import BUILTIN_ARCHITECTURES, build_model, builtin_spec

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


# ---------------------------------------------------------------------------
# architecture bits
# ---------------------------------------------------------------------------

@functools.cache
def _golden_data(dataset_id):
    return generate(BUILTIN_DATASETS[dataset_id])


def _summary(values) -> list[float]:
    """Sum, sum of squares, first and last value: what is compared off the
    platform an entry was made on, where the bits may differ."""
    flat = np.ravel(values)
    return [float(np.add.reduce(flat)), float(np.add.reduce(flat * flat)),
            float(flat[0]), float(flat[-1])]


def _digest(values) -> str:
    raw = np.ascontiguousarray(values, "<f8").tobytes()
    return hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("dataset_id", ["blobs-4c-hard", "blobs-10c-mid"])
@pytest.mark.parametrize("arch_id", sorted(BUILTIN_ARCHITECTURES))
def test_architecture_bits_match_golden(arch_id, dataset_id, golden):
    """Initial state, one epoch of SGD on 200 rows at batch 10 (state, epoch
    and step losses), predictions and an inner probe on 20 held-out rows, a
    batch-1 input gradient and the BN running statistics. Off the entry's
    platform, float summaries stand in for the arrays' digests."""
    data = _golden_data(dataset_id)
    spec = builtin_spec(arch_id, data.spec.input_shape, data.class_count)
    model = build_model(spec, seed=3)
    arrays = {"initial_state": model.state_vector()}
    loss = CrossEntropy(data.labels[:200], model.output_width)
    epoch_losses = sgd_run(model, data.inputs[:200], loss,
                           TrainConfig(batch_size=10, epochs=1, seed=3))
    arrays["trained_state"] = model.state_vector()
    arrays["step_losses"] = loss.step_losses()
    held = data.inputs[200:220]
    arrays["predict"] = model.predict(held)
    probe = spec.execution_order[(len(spec.nodes) - 1) // 2].node_id
    _, arrays["probe"] = model.predict_and_probe(held, probe)
    posteriors, gradients = GradientHandle(model).posterior_and_gradient(
        held[:1], [int(data.labels[200])])
    posterior, arrays["input_gradient"] = float(posteriors[0]), gradients[0]
    bn = [model.buffers[n.node_id][name] for n in spec.execution_order
          if n.kind is OperatorKind.BN
          for name in ("running_mean", "running_var")]
    if bn:
        arrays["bn_running_stats"] = np.concatenate(bn)
    golden("architectures", f"{arch_id}@{dataset_id}",
           {"probe_node": probe, "epoch_losses": epoch_losses,
            "posterior": posterior,
            "summaries": {k: _summary(v) for k, v in arrays.items()}},
           platform_value={k: _digest(v) for k, v in arrays.items()})
