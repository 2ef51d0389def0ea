"""Model-agreement measurements: fidelity, PWCCA, noise sensitivity, distillation.

Fidelity is plain top-1 agreement on a shared test set. PWCCA is a
projection-weighted canonical correlation distance between two activation
matrices and is invariant to invertible linear maps of either view, which is
exactly what makes it a sharper lens than fidelity: two models can agree on
every argmax yet organize their representations differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Checked, Temperature, UnitInterval
from .network import CrossEntropy, Loss, Network, TrainConfig, sgd_run
from .tensor import OperatorKind
from .zoo import ArchitectureId, build_model, builtin_spec


def _as_inputs(test_set) -> np.ndarray:
    return test_set.inputs if hasattr(test_set, "inputs") else np.asarray(test_set)


def _outputs(model, inputs: np.ndarray) -> np.ndarray:
    """A model's output rows on `inputs`. `model` is a Network, or those rows
    already computed by the caller from this very array: a prediction is a
    function of the whole batch, so rows of any other array (a chunk, a copy
    of another split) need not carry the same bits."""
    if not isinstance(model, np.ndarray):
        return model.predict(inputs)
    if model.shape[0] != inputs.shape[0]:
        raise ValueError(
            f"{model.shape[0]} output rows for {inputs.shape[0]} inputs")
    return model


def fidelity(model_a, model_b, test_set) -> float:
    """Fraction of inputs on which the two models' top-1 labels agree.

    Either model may be given as its output rows on the test set."""
    inputs = _as_inputs(test_set)
    if inputs.shape[0] == 0:
        raise ValueError("empty test set")
    pa = _outputs(model_a, inputs)
    pb = _outputs(model_b, inputs)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(
            f"output widths differ: {pa.shape[1]} vs {pb.shape[1]}")
    return float(np.mean(pa.argmax(axis=1) == pb.argmax(axis=1)))


def accuracy(model, dataset) -> float:
    """Top-1 accuracy on a labelled set; `model` may be given as its output
    rows on the set."""
    return float(np.mean(_outputs(model, dataset.inputs).argmax(axis=1)
                         == dataset.labels))


# ---------------------------------------------------------------------------
# PWCCA
# ---------------------------------------------------------------------------

def _inv_sqrt(cov: np.ndarray, ridge: float) -> np.ndarray:
    eig, vec = np.linalg.eigh(cov + ridge * np.eye(cov.shape[0]))
    if not np.all(np.isfinite(eig)) or eig.min() <= 0:
        raise np.linalg.LinAlgError(
            "covariance is singular beyond ridge rescue")
    return (vec / np.sqrt(eig)) @ vec.T


def pwcca_distance(acts_a: np.ndarray, acts_b: np.ndarray,
                   ridge: float = 1e-10) -> float:
    """Projection-weighted CCA distance between two (n, d) activation views.

    Canonical correlations come from the SVD of the whitened cross-covariance;
    each correlation is weighted by how much of view A's raw activation mass
    its canonical component explains. 0 means the views are related by an
    invertible linear map; values near 1 mean unrelated views.
    """
    a = np.asarray(acts_a, dtype=np.float64)
    b = np.asarray(acts_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("activation views must be (n, d) with matching n")
    n = a.shape[0]
    if n <= max(a.shape[1], b.shape[1]):
        raise ValueError(
            f"need more samples ({n}) than features "
            f"({max(a.shape[1], b.shape[1])})")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("activations must be finite")

    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    caa = a.T @ a / (n - 1)
    cbb = b.T @ b / (n - 1)
    cab = a.T @ b / (n - 1)
    ia = _inv_sqrt(caa, ridge)
    ib = _inv_sqrt(cbb, ridge)
    u, rho, _ = np.linalg.svd(ia @ cab @ ib)
    rho = np.clip(rho, 0.0, 1.0)
    comps = a @ (ia @ u)                      # canonical components of view A
    weights = np.abs(comps.T @ a).sum(axis=1)  # projection mass per component
    total = weights.sum()
    if total <= 0:
        raise np.linalg.LinAlgError("degenerate view: no projection mass")
    weights = weights / total
    k = min(len(rho), len(weights))
    return float(1.0 - np.sum(weights[:k] * rho[:k]))


def default_probe_point(model: Network) -> str:
    """The final pre-softmax representation (or the output node itself)."""
    out = next(n for n in model.order if n.node_id == model.output_id)
    if out.kind is OperatorKind.SOFTMAX:
        return out.inputs[0]
    return out.node_id


def collect_activations(model, probe_point: str, inputs) -> np.ndarray:
    """Row i is the flattened probe-layer activation on input i.

    `model` is a Network, or its activation rows at `probe_point` on
    `inputs` (see `_outputs`), such as :meth:`Network.predict_and_probe`
    gives with the output."""
    x = _as_inputs(inputs)
    if not isinstance(model, np.ndarray):
        model = model.predict(x, probe_point)
    return _outputs(model, x).reshape(x.shape[0], -1)


# ---------------------------------------------------------------------------
# layer noise sensitivity
# ---------------------------------------------------------------------------

@dataclass
class SensitivityCurves:
    layer_ids: list[str]
    magnitudes: list[float]
    accuracy: np.ndarray       # (layers, magnitudes) trial means
    trials: int

    def auc(self) -> dict[str, float]:
        return {lid: float(np.trapezoid(self.accuracy[i], self.magnitudes))
                for i, lid in enumerate(self.layer_ids)}


def layer_noise_sensitivity(model: Network, test_set, magnitudes,
                            trials: int = 3, seed: int = 0) -> SensitivityCurves:
    """Accuracy under per-layer weight noise, one layer perturbed at a time.

    Noise for layer l at magnitude m is Gaussian with std m * std(l's
    trainable weights), so curves are comparable across layers of different
    scales. Weights are restored bit-exactly after every trial.
    """
    magnitudes = [float(m) for m in magnitudes]
    if not magnitudes or magnitudes[0] != 0.0:
        raise ValueError("magnitudes must start at 0")
    if sorted(magnitudes) != magnitudes:
        raise ValueError("magnitudes must be ascending")
    layers = model.parameterized_nodes()
    baseline = accuracy(model, test_set)
    acc = np.empty((len(layers), len(magnitudes)))
    acc[:, 0] = baseline
    for i, lid in enumerate(layers):
        originals = {k: v.copy() for k, v in model.weights[lid].items()}
        scale = np.std(np.concatenate([v.reshape(-1) for v in originals.values()]))
        # written into the model's own arrays, the views of its state vector
        for j, mag in enumerate(magnitudes):
            if j == 0:
                continue
            vals = []
            for t in range(trials):
                rng = np.random.default_rng([seed, i, j, t])
                for name, orig in originals.items():
                    model.weights[lid][name][...] = orig + rng.normal(
                        0.0, mag * scale, size=orig.shape)
                vals.append(accuracy(model, test_set))
            acc[i, j] = float(np.mean(vals))
        for name, orig in originals.items():
            model.weights[lid][name][...] = orig
    return SensitivityCurves(layers, magnitudes, acc, trials)


# ---------------------------------------------------------------------------
# knowledge distillation
# ---------------------------------------------------------------------------

@dataclass
class DistillConfig(Checked):
    student_architecture: ArchitectureId = "mini-student-cnn"
    temperature: Temperature = 4.0
    hard_label_weight: UnitInterval = 0.1
    distill_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        epochs=20))


def _soften(probs: np.ndarray, temperature: float, out=None) -> np.ndarray:
    """softmax(logits / T) computed from the probability simplex."""
    p = np.maximum(probs, 1e-300) ** (1.0 / temperature)
    return np.divide(p, p.sum(axis=1, keepdims=True), out=out)


class DistillLoss(Loss):
    """`distill`'s blend: `alpha` times the cross-entropy of the hard
    labels (checked by :class:`CrossEntropy` when alpha is above 0) plus
    (1 - alpha) T^2 times KL(soft target || softened output), where
    `soft_targets` are the teacher's outputs softened at temperature `tau`
    (None when alpha is 1). Each step keeps its softened outputs; the
    target logs are taken once per training."""

    def __init__(self, labels, soft_targets, alpha: float, tau: float,
                 width: int):
        self.labels, self.soft_targets = labels, soft_targets
        self.alpha, self.tau = alpha, tau
        self._ce = CrossEntropy(labels, width) if alpha > 0.0 else None
        if alpha < 1.0:
            t = soft_targets
            self._t_logs = np.where(t > 0, np.log(np.maximum(t, 1e-300)), 0.0)

    def _prepare(self, n, size):
        if self.alpha < 1.0:
            self._s = np.empty(self.soft_targets.shape)

    def epoch(self, perm, size):
        if self._ce is not None:
            self._ce.epoch(perm, size)
        super().epoch(perm, size)

    def _shuffle(self, perm):
        if self.alpha < 1.0:
            self._perm = perm
            self._t = self.soft_targets.take(perm, axis=0)

    def step(self, probs, start, stop):
        alpha, tau = self.alpha, self.tau
        grad = None
        if alpha > 0.0:
            grad = alpha * self._ce.step(probs, start, stop)
        if alpha < 1.0:
            t = self._t[start:stop]
            s = _soften(probs, tau, out=self._s[start:stop])
            p = np.maximum(probs, 1e-12)
            kl_grad = tau * (s - t) / p / probs.shape[0]
            kl_term = (1.0 - alpha) * tau ** 2 * kl_grad
            grad = kl_term if grad is None else grad + kl_term
        return grad

    def step_losses(self):
        # per step: 0.0 + alpha * ce + (1 - alpha) T^2 kl, in that order
        alpha, tau = self.alpha, self.tau
        loss = 0.0
        if alpha > 0.0:
            loss = loss + alpha * self._ce.step_losses()
        if alpha < 1.0:
            t = self._t
            tl = self._t_logs.take(self._perm, axis=0)
            rows = np.sum(t * (tl - np.log(np.maximum(self._s, 1e-300))), axis=1)
            loss = loss + (1.0 - alpha) * tau ** 2 * self._step_means(rows)
        return loss


def distill(teacher, config: DistillConfig, transfer_set) -> Network:
    """Train a student on a blend of hard labels and the teacher's softened
    outputs; with hard_label_weight=1 this is exactly ordinary training.
    The student is the built-in `student_architecture` at the transfer
    set's input shape and the teacher's output width.

    `teacher` is a Network, or its output rows on ``transfer_set.inputs``
    (see `_outputs`)."""
    inputs = transfer_set.inputs
    width = (teacher.shape[1] if isinstance(teacher, np.ndarray)
             else teacher.output_width)
    alpha, tau = config.hard_label_weight, config.temperature
    soft_targets = None
    if alpha < 1.0:
        soft_targets = _soften(_outputs(teacher, inputs), tau)
    loss = DistillLoss(transfer_set.labels, soft_targets, alpha, tau, width)
    student = build_model(builtin_spec(config.student_architecture,
                                       inputs.shape[1:], width),
                          seed=config.distill_train.seed)
    sgd_run(student, inputs, loss, config.distill_train)
    return student


# ---------------------------------------------------------------------------
# equivalency reporting
# ---------------------------------------------------------------------------

@dataclass
class SimilarityReport:
    fidelity: float
    pwcca_distance: dict[str, float]
    probe_points: list[tuple[str, str]]
    accuracy_target: float
    accuracy_stolen: float


@dataclass
class EquivalencyReport:
    similarity: SimilarityReport
    distilled_pwcca: float
    distill_config: DistillConfig

    def metrics(self) -> dict[str, float]:
        out = {"fidelity": self.similarity.fidelity,
               "accuracy_target": self.similarity.accuracy_target,
               "accuracy_stolen": self.similarity.accuracy_stolen,
               "distilled_pwcca": self.distilled_pwcca}
        for pair, value in self.similarity.pwcca_distance.items():
            out[f"pwcca_{pair}"] = value
        return out


def equivalency_report(target: Network, stolen: Network, test_set,
                       distill_config: DistillConfig) -> EquivalencyReport:
    """Fidelity + PWCCA between a target and its stolen copy, then the same
    PWCCA after both are distilled into one student spec (matched probes)."""
    if target.output_width != stolen.output_width:
        raise ValueError("models are not comparable: output widths differ")
    pa, pb = default_probe_point(target), default_probe_point(stolen)
    inputs = test_set.inputs

    # each model runs once on the test set, for its output and its probe;
    # every metric below reads those arrays
    out_target, probe_target = target.predict_and_probe(inputs, pa)
    out_stolen, probe_stolen = stolen.predict_and_probe(inputs, pb)
    fid = fidelity(out_target, out_stolen, test_set)
    distances = {f"{pa}:{pb}": pwcca_distance(
        collect_activations(probe_target, pa, inputs),
        collect_activations(probe_stolen, pb, inputs))}

    st_target = distill(out_target, distill_config, test_set)
    st_stolen = distill(out_stolen, distill_config, test_set)
    probe = default_probe_point(st_target)
    distilled = pwcca_distance(
        collect_activations(st_target, probe, inputs),
        collect_activations(st_stolen, probe, inputs))

    report = SimilarityReport(
        fidelity=fid, pwcca_distance=distances, probe_points=[(pa, pb)],
        accuracy_target=accuracy(out_target, test_set),
        accuracy_stolen=accuracy(out_stolen, test_set))
    return EquivalencyReport(similarity=report, distilled_pwcca=distilled,
                             distill_config=distill_config)
