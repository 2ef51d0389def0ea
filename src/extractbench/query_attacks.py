"""Query-surface attacks: extraction by prediction queries and model inversion.

The attacks only ever touch a target through narrow handles. A
:class:`QueryHandle` exposes prediction alone (the hidden-model-knowledge
setting: the adversary sees an inference API and nothing else); a
:class:`GradientHandle` additionally serves input gradients, which inversion
needs once the adversary owns a stolen copy. Keeping parameter access out of
the handle types is what enforces the threat model by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal

import numpy as np

from .datasets import Dataset
from .fields import (Checked, Count, NonNegative, Positive, PosteriorThreshold,
                     QueryFraction, Repeats, check_value)
from .network import Network, TrainConfig, train
from .similarity import collect_activations, default_probe_point, fidelity, pwcca_distance
from .zoo import ArchitectureId, ArchitectureSpec, build_model

OutputMode = Literal["confidence_vector", "top1_label"]
InitMode = Literal["random", "auxiliary_sample"]


@dataclass(frozen=True)
class ThreatModel(Checked):
    """Capability triple granted to (or required by) an attack."""

    model_knowledge: Literal["observed", "hidden"]
    system_knowledge: Literal["partial", "none"]
    aux_dataset: Literal["partial", "none"]

    def dominates(self, required: "ThreatModel") -> list[str]:
        """Violations left when these grants are checked against a requirement.

        The strong value of each axis (observed / partial / partial) is a
        capability; a requirement of the weak value is satisfied by anything.
        """
        out = []
        if required.model_knowledge == "observed" and self.model_knowledge != "observed":
            out.append("requires observed model knowledge")
        if required.system_knowledge == "partial" and self.system_knowledge != "partial":
            out.append("requires partial system knowledge")
        if required.aux_dataset == "partial" and self.aux_dataset != "partial":
            out.append("requires a partial auxiliary dataset")
        return out


class QueryHandle:
    """Inference-only view of a model: predictions, nothing else."""

    def __init__(self, model: Network):
        self._model = model
        self.output_width = model.output_width

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return self._model.predict(np.asarray(inputs, dtype=np.float64))


class GradientHandle(QueryHandle):
    """Query handle plus input gradients of the log class posterior."""

    def __init__(self, model: Network):
        super().__init__(model)
        self.input_shape = model.input_shape

    def posterior_and_gradient(self, x: np.ndarray, target_class: int):
        batch = np.asarray(x, dtype=np.float64)[None, ...]
        probs = self._model.forward(batch)
        p = max(float(probs[0, target_class]), 1e-300)
        seed = np.zeros(probs.shape)  # zeros_like, minus its wrapper
        seed[0, target_class] = 1.0 / p
        return p, self._model.backward(seed, weight_grads=False)[0]


# ---------------------------------------------------------------------------
# query-based extraction
# ---------------------------------------------------------------------------

@dataclass
class KnockoffConfig(Checked):
    """`knockoff_extract` reads the budget, the output mode and the training;
    the caller picks the query split and the surrogate (None: the target's),
    whose spec `knockoff_extract` is given."""

    query_budget: Count
    output_mode: OutputMode = "confidence_vector"
    surrogate_architecture: ArchitectureId | None = None
    query_fraction: QueryFraction = 0.5
    recreate: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20))


@dataclass
class StolenDataset:
    inputs: np.ndarray
    targets: np.ndarray        # probability rows (confidence) or one-hot (label)
    query_ids: np.ndarray      # provenance into the query set
    output_mode: str

    def __len__(self):
        return int(self.inputs.shape[0])

    def hard_labels(self) -> np.ndarray:
        return self.targets.argmax(axis=1).astype(np.int32)


@dataclass
class AttackRecord:
    loss_history: list[float]
    queries_used: int


def build_stolen_dataset(target: QueryHandle, queries: Dataset, budget: int,
                         output_mode: str = "confidence_vector",
                         seed: int = 0) -> StolenDataset:
    """Query `budget` inputs sampled without replacement and pair them with
    the target's outputs (full confidence rows, or their one-hot argmax)."""
    check_value("output_mode", output_mode, OutputMode)
    check_value("budget", budget, Count)
    if budget > len(queries):
        raise ValueError(
            f"budget {budget} exceeds query-set size {len(queries)}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(queries), size=budget, replace=False)
    inputs = queries.inputs[picked]
    probs = target.predict(inputs)
    if output_mode == "top1_label":
        targets = np.zeros_like(probs)
        targets[np.arange(budget), probs.argmax(axis=1)] = 1.0
    else:
        targets = probs
    return StolenDataset(inputs=inputs, targets=targets,
                         query_ids=queries.sample_ids[picked],
                         output_mode=output_mode)


def knockoff_extract(target: QueryHandle, queries: Dataset,
                     surrogate_spec: ArchitectureSpec, config: KnockoffConfig,
                     seed: int = 0):
    """Steal by querying: build the stolen dataset, then train a fresh
    surrogate on what the target leaked, its confidence rows or its top-1
    labels; `train` fits the first by KL and the second by cross-entropy.
    A config that names a surrogate must name `surrogate_spec`'s."""
    if config.surrogate_architecture not in (None, surrogate_spec.id):
        raise ValueError(f"surrogate_architecture "
                         f"{config.surrogate_architecture!r} is not the "
                         f"surrogate spec's {surrogate_spec.id!r}")
    stolen_data = build_stolen_dataset(target, queries, config.query_budget,
                                       config.output_mode, seed)
    surrogate = build_model(surrogate_spec, seed=seed)
    targets = (stolen_data.targets if config.output_mode == "confidence_vector"
               else stolen_data.hard_labels())
    history = train(surrogate, stolen_data.inputs, targets, config.recreate)
    record = AttackRecord(loss_history=history, queries_used=len(stolen_data))
    return surrogate, record


# ---------------------------------------------------------------------------
# model inversion
# ---------------------------------------------------------------------------

@dataclass
class InversionConfig(Checked):
    posterior_threshold: PosteriorThreshold = 0.95
    max_iterations: Repeats = 400
    step_size: Positive = 0.2
    init_mode: InitMode = "random"
    clamp_range: tuple[float, float] = (-4.0, 4.0)

    def __post_init__(self):
        super().__post_init__()
        if self.clamp_range[0] >= self.clamp_range[1]:
            raise ValueError("clamp_range must be (lo, hi) with lo < hi")


@dataclass
class InversionResult:
    reconstruction: np.ndarray
    posterior_trace: list[float]
    success: bool
    iterations: int


def miface_invert(handle: GradientHandle, config: InversionConfig,
                  target_class: int, aux: Dataset | None = None,
                  seed: int = 0) -> InversionResult:
    """Gradient-ascend the log posterior of the target class until it clears
    the threshold or the iteration cap; the trace is every posterior seen."""
    # a negative class would index the output from its end
    check_value("target_class", target_class, NonNegative)
    if target_class >= handle.output_width:
        raise ValueError(
            f"target_class {target_class} outside output width "
            f"{handle.output_width}")
    rng = np.random.default_rng(seed)
    lo, hi = config.clamp_range
    if config.init_mode == "auxiliary_sample":
        if aux is None:
            raise ValueError("auxiliary_sample init requires an aux dataset")
        members = np.flatnonzero(aux.labels == target_class)
        pool = members if members.size else np.arange(len(aux))
        x = aux.inputs[rng.choice(pool)].copy()
    else:
        # near-gray start: reconstructions are shaped by the ascent, not the init
        x = 0.05 * rng.standard_normal(handle.input_shape)
    x = np.clip(x, lo, hi)

    p, grad = handle.posterior_and_gradient(x, target_class)
    trace = [p]
    steps = 0
    while trace[-1] < config.posterior_threshold and steps < config.max_iterations:
        x = np.clip(x + config.step_size * grad, lo, hi)
        p, grad = handle.posterior_and_gradient(x, target_class)
        trace.append(p)
        steps += 1
    return InversionResult(reconstruction=x, posterior_trace=trace,
                           success=trace[-1] >= config.posterior_threshold,
                           iterations=steps)


# ---------------------------------------------------------------------------
# staging: invert models stolen at increasing budgets
# ---------------------------------------------------------------------------

@dataclass
class StagedBudgetResult:
    budget: int
    fidelity: float
    pwcca: float
    reconstructions: dict[int, np.ndarray]
    class_similarity: dict[int, float]
    inversion_success: dict[int, bool]

    @property
    def mean_class_similarity(self) -> float:
        return float(np.mean(list(self.class_similarity.values())))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    af, bf = a.reshape(-1), b.reshape(-1)
    denom = np.linalg.norm(af) * np.linalg.norm(bf)
    return float(af @ bf / denom) if denom > 0 else 0.0


def check_budgets(budgets) -> None:
    """A budget list's own rules; each budget's range is a query budget's."""
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if sorted(budgets) != list(budgets):
        raise ValueError("budgets must be ascending")


def staged_inversion_study(target: Network, queries: Dataset, test: Dataset,
                           budgets: list[int], surrogate_spec: ArchitectureSpec,
                           knockoff_config: KnockoffConfig,
                           inversion_config: InversionConfig,
                           seed: int = 0) -> list[StagedBudgetResult]:
    """For each budget: steal, invert every class of the stolen model, and
    score reconstructions against the true class-mean images."""
    check_budgets(budgets)
    # each budget is checked, before any work, as the query budget it becomes
    configs = [replace(knockoff_config, query_budget=b) for b in budgets]
    handle = QueryHandle(target)
    # the target is the same at every budget: run it on the test set once,
    # for its output and its probe, and each budget's model once likewise
    pt = default_probe_point(target)
    out_target, probe_target = target.predict_and_probe(test.inputs, pt)
    acts_target = collect_activations(probe_target, pt, test.inputs)
    results = []
    for budget, cfg in zip(budgets, configs):
        stolen, _ = knockoff_extract(handle, queries, surrogate_spec, cfg, seed)
        ps = default_probe_point(stolen)
        out_stolen, probe_stolen = stolen.predict_and_probe(test.inputs, ps)
        fid = fidelity(out_stolen, out_target, test)
        dist = pwcca_distance(
            acts_target, collect_activations(probe_stolen, ps, test.inputs))
        recons, sims, succ = {}, {}, {}
        grad_handle = GradientHandle(stolen)
        for cls in range(target.output_width):
            res = miface_invert(grad_handle, inversion_config, cls,
                                aux=queries,
                                seed=np.random.default_rng([seed, budget, cls])
                                .integers(2 ** 31))
            recons[cls] = res.reconstruction
            succ[cls] = res.success
            sims[cls] = cosine_similarity(res.reconstruction, test.class_mean(cls))
        results.append(StagedBudgetResult(
            budget=budget, fidelity=fid, pwcca=dist, reconstructions=recons,
            class_similarity=sims, inversion_success=succ))
    return results


def save_pgm(image: np.ndarray, path) -> Path:
    """8-bit binary PGM dump of a (H, W) or (H, W, C) array, min-max scaled."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.mean(axis=2)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    lo, hi = arr.min(), arr.max()
    scaled = np.zeros_like(arr) if hi == lo else (arr - lo) / (hi - lo)
    pixels = (scaled * 255).astype(np.uint8)
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(pixels.tobytes())
    return path
