"""The three benchmark workloads, as scenario documents derived from a seed.

Each workload is a fixed list of scenario templates. The workload seed is
the only input that varies between runs: every scenario's own seed is
derived from it, so the same workload seed always yields byte-identical
scenario documents, while targets, attack parameters and batch order stay
fixed. Why each workload exists is written down in README.md beside this
file.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

HIDDEN = {"model_knowledge": "hidden", "system_knowledge": "none",
          "aux_dataset": "partial"}
OBSERVED = {"model_knowledge": "observed", "system_knowledge": "partial",
            "aux_dataset": "none"}

# Warm targets, trained during set-up with the workbench's default recipe.
VGG = ("mini-vgg-4", "blobs-2c-easy")
MLP = ("mini-mlp-2", "blobs-4c-mid")

# Cold targets: one conv family per built-in dataset, trained inside the batch.
COLD_TARGETS = (("mini-vgg-4", "blobs-4c-easy"),
                ("mini-resnet-4", "blobs-5c-easy"),
                ("mini-dense-3", "blobs-2c-easy"),
                ("mini-pyramid-4", "blobs-4c-mid"))
# Train-on-miss epochs for the cold targets. The default recipe (12 epochs)
# makes one cold batch take about 11 s of serialized training, too long to
# repeat within one run; 1 epoch keeps the same code path at a twelfth.
COLD_RECIPE_EPOCHS = 1

ENVIRONMENT_PROFILES = ("gpu-quiet", "gpu-low", "gpu-noisy", "gpu-verbose")
MACHINE_PROFILES = ("i7-6850k-like", "i7-4770-like", "i5-3470-like", "tf2-like")


@dataclass(frozen=True)
class Template:
    """One scenario of a workload, minus its seed."""

    id: str
    attack: str
    target: tuple[str, str]
    params: dict
    environment: dict = field(default_factory=dict)
    grants: dict = field(default_factory=lambda: dict(HIDDEN))

    def document(self, seed: int) -> str:
        return json.dumps({
            "schema_version": 1, "id": self.id, "seed": seed,
            "attack": {"type": self.attack, "params": self.params},
            "target": {"architecture_id": self.target[0],
                       "dataset_id": self.target[1]},
            "environment": self.environment, "grants": self.grants,
        }, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    templates: tuple[Template, ...]
    # Cold: every batch starts from an empty repository root and trains its
    # targets on miss. Warm: set-up trains the targets once, batches only read.
    cold: bool
    # Layers (package modules) the batch must exercise; a traced run that
    # sees none of their spans reports their metrics as missing, not zero.
    layers: frozenset[str]
    # Exact values some per-layer metrics must take in every traced batch:
    # the counts that show the workload does what it claims.
    claims: tuple[tuple[str, float], ...] = ()
    slots: int = 2

    def scenario_seed(self, seed: int, template: Template) -> int:
        return zlib.crc32(f"{self.name}|{seed}|{template.id}".encode()) % 1_000_000

    def documents(self, seed: int) -> list[str]:
        return [t.document(self.scenario_seed(seed, t)) for t in self.templates]

    def targets(self) -> list[tuple[str, str]]:
        return list(dict.fromkeys(t.target for t in self.templates))

    def recipes(self) -> dict:
        """Per-dataset train-on-miss epochs, or {} for the default recipe."""
        if not self.cold:
            return {}
        return {dataset: COLD_RECIPE_EPOCHS for _, dataset in self.targets()}


QUERY_LAYERS = frozenset({"tensor", "network", "zoo", "datasets",
                          "query_attacks", "similarity", "orchestrator"})

COLD_TRAIN = Workload(
    name="cold-train",
    templates=tuple(
        Template(f"cold-{i}-{arch}", "knockoff", (arch, dataset),
                 {"query_budget": 100, "recreate": {"epochs": 5}})
        for i, (arch, dataset) in enumerate(COLD_TARGETS)),
    cold=True,
    layers=QUERY_LAYERS,
    claims=(("orchestrator.cache_misses", len(COLD_TARGETS)),),
)

# Ordered so that each 2-slot window pairs scenarios of similar length:
# (staged_inversion, equivalency), (knockoff, knockoff), (miface, miface).
WARM_ATTACK_MIX = Workload(
    name="warm-attack-mix",
    templates=(
        Template("warm-0-staged", "staged_inversion", VGG,
                 {"budgets": [30, 60], "recreate": {"epochs": 3},
                  "inversion": {"max_iterations": 100}}),
        Template("warm-1-equivalency", "equivalency", MLP,
                 {"query_budget": 150, "recreate": {"epochs": 3},
                  "distill_train": {"epochs": 1}}),
        Template("warm-2-knockoff-conf", "knockoff", VGG,
                 {"query_budget": 100, "recreate": {"epochs": 6}}),
        Template("warm-3-knockoff-top1", "knockoff", VGG,
                 {"query_budget": 100, "output_mode": "top1_label",
                  "recreate": {"epochs": 6}}),
        Template("warm-4-miface-c0", "miface", VGG,
                 {"target_class": 0, "posterior_threshold": 0.999,
                  "max_iterations": 200}),
        Template("warm-5-miface-c1", "miface", VGG,
                 {"target_class": 1, "posterior_threshold": 0.999,
                  "max_iterations": 200}),
    ),
    cold=False,
    layers=QUERY_LAYERS,
    claims=(("orchestrator.cache_misses", 0),
            ("network.miface_rows_per_forward", 1.0)),
)

SIDECHANNEL_SWEEP = Workload(
    name="sidechannel-sweep",
    templates=tuple(
        Template(f"side-ds-{profile}", "deepsniffer", VGG,
                 {"classifier_epochs": 100},
                 {"environment_profile": profile}, dict(OBSERVED))
        for profile in ENVIRONMENT_PROFILES) + tuple(
        Template(f"side-dr-{profile}", "deeprecon", MLP,
                 {"histograms_per_architecture": 64, "trials": 200},
                 {"machine_profile": profile}, dict(OBSERVED))
        for profile in MACHINE_PROFILES),
    cold=False,
    layers=frozenset({"tensor", "network", "zoo", "sidechannel",
                      "orchestrator"}),
    claims=(("orchestrator.cache_misses", 0), ("tensor.fwd_calls.conv", 0)),
)

WORKLOADS = {w.name: w for w in (COLD_TRAIN, WARM_ATTACK_MIX, SIDECHANNEL_SWEEP)}
