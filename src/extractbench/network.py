"""Operator-DAG models: compilation, forward/backward, and SGD training.

A model is a list of :class:`NodeSpec` entries wired by node id (the reserved
id ``"input"`` denotes the graph input). Execution order is topological with
ties broken by declaration order, so two builds of the same node list behave
identically. A training forward pass caches per-node activations and kernel
workspace; backward consumes the cache and returns the gradients its caller
asks for: those of every trainable tensor (what training reads), of the
graph input (what inversion attacks climb), or both. Inference goes through
``predict``, which caches nothing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .tensor import (
    OperatorKind,
    ShapeError,
    Tensor,
    infer_shape,
    init_weights,
    op_backward,
    op_forward,
)

INPUT_ID = "input"
_LOG_EPS = 1e-12


class GraphError(ValueError):
    """The node list does not describe a valid single-output DAG."""


@dataclass(frozen=True)
class NodeSpec:
    """One operator node: identity, kind, static params, and input wiring."""

    node_id: str
    kind: OperatorKind
    params: dict = field(default_factory=dict)
    inputs: tuple[str, ...] = (INPUT_ID,)

    def to_dict(self) -> dict:
        return {"node_id": self.node_id, "kind": self.kind.value,
                "params": dict(self.params), "inputs": list(self.inputs)}

    @staticmethod
    def from_dict(doc: dict) -> "NodeSpec":
        return NodeSpec(doc["node_id"], OperatorKind(doc["kind"]),
                        dict(doc["params"]), tuple(doc["inputs"]))


def topological_order(nodes: list[NodeSpec]) -> list[NodeSpec]:
    """Execution order: topological, ties resolved by declaration order."""
    by_id = {n.node_id: n for n in nodes}
    if len(by_id) != len(nodes):
        raise GraphError("duplicate node ids")
    done: set[str] = {INPUT_ID}
    order: list[NodeSpec] = []
    pending = list(nodes)
    while pending:
        for i, node in enumerate(pending):
            missing = [d for d in node.inputs if d not in by_id and d != INPUT_ID]
            if missing:
                raise GraphError(f"node {node.node_id}: unknown input(s) {missing}")
            if all(d in done for d in node.inputs):
                order.append(node)
                done.add(node.node_id)
                del pending[i]
                break
        else:
            raise GraphError(
                f"cycle involving node(s) {[n.node_id for n in pending]}")
    return order


def node_shapes(order: list[NodeSpec], input_shape) -> dict[str, tuple[int, ...]]:
    """Output shape of every node (batch axis excluded), plus the graph input
    under ``INPUT_ID``; `order` must be topological. An invalid node is a
    ValueError (a ShapeError for shape conflicts) that names the node."""
    shapes = {INPUT_ID: tuple(input_shape)}
    for node in order:
        try:
            shapes[node.node_id] = infer_shape(
                node.kind, node.params, [shapes[d] for d in node.inputs])
        except ValueError as exc:
            raise type(exc)(f"node {node.node_id}: {exc}") from exc
    return shapes


def sink_node(nodes: list[NodeSpec]) -> NodeSpec:
    consumed = {d for n in nodes for d in n.inputs}
    sinks = [n for n in nodes if n.node_id not in consumed]
    if len(sinks) != 1:
        raise GraphError(
            f"graph must have exactly one output node, found {len(sinks)}: "
            f"{[n.node_id for n in sinks]}")
    return sinks[0]


@dataclass
class Gradients:
    """Per-node trainable-tensor gradients plus the graph-input gradient;
    what :meth:`Network.backward` was not asked for is ``{}`` or ``None``."""

    by_node: dict[str, dict[str, np.ndarray]]
    input: np.ndarray | None


class Network:
    """A compiled operator DAG with parameters and activation caches.

    One instance belongs to one pipeline at a time: forward/backward share a
    cache and train mutates weights in place. Distinct instances are fully
    independent.
    """

    def __init__(self, nodes, input_shape, seed: int, spec=None):
        self.nodes = [NodeSpec(n.node_id, n.kind, dict(n.params), tuple(n.inputs))
                      for n in nodes]
        self.input_shape = tuple(int(s) for s in input_shape)
        self.order = topological_order(self.nodes)
        self.output_id = sink_node(self.nodes).node_id
        self.spec = spec
        self.meta: dict = {"seed": int(seed), "epochs_trained": 0}

        self.shapes = node_shapes(self.order, self.input_shape)

        rng = np.random.default_rng(seed)
        self.weights: dict[str, dict[str, np.ndarray]] = {}
        self.buffers: dict[str, dict[str, np.ndarray]] = {}
        for node in self.nodes:  # declaration order keeps init deterministic
            in_shapes = [self.shapes[d] for d in node.inputs]
            w, b = init_weights(node.kind, node.params, in_shapes, rng)
            self.weights[node.node_id] = w
            self.buffers[node.node_id] = b
        self.bn_calibrated = not any(n.kind is OperatorKind.BN for n in self.nodes)
        # per-step facts that backward would otherwise recompute each call
        self._weighted = [n.node_id for n in self.order if self.weights[n.node_id]]
        self._reads_inner = {n.node_id: any(d != INPUT_ID for d in n.inputs)
                             for n in self.order}
        # node id -> the activations whose last consumer it is
        last_consumer = {d: n.node_id for n in self.order for d in n.inputs}
        self._last_use: dict[str, list[str]] = {n.node_id: [] for n in self.order}
        for dep, node_id in last_consumer.items():
            self._last_use[node_id].append(dep)
        self._acts: dict[str, np.ndarray] | None = None
        self._ctxs: dict[str, dict] = {}

    # -- structure ----------------------------------------------------------

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.shapes[self.output_id]

    @property
    def output_width(self) -> int:
        return int(np.prod(self.output_shape))

    def parameterized_nodes(self) -> list[str]:
        return list(self._weighted)

    def parameter_count(self) -> int:
        return sum(t.size for w in self.weights.values() for t in w.values())

    def copy(self) -> "Network":
        return copy.deepcopy(self)

    # -- checkpoint support: flat parameter vector in declared order --------

    def _state_items(self):
        # the weights/buffers dicts hold each node's tensors in the order
        # init_weights made them, the operator table's checkpoint order
        for node in self.nodes:
            for name in self.weights[node.node_id]:
                yield node.node_id, name, False
            for name in self.buffers[node.node_id]:
                yield node.node_id, name, True

    def state_vector(self) -> np.ndarray:
        parts = []
        for node_id, name, is_buffer in self._state_items():
            store = self.buffers if is_buffer else self.weights
            parts.append(store[node_id][name].reshape(-1))
        return np.concatenate(parts) if parts else np.empty(0)

    def load_state_vector(self, flat: np.ndarray) -> None:
        expected = self.state_vector().size
        if flat.size != expected:
            raise ValueError(
                f"parameter vector holds {flat.size} values, model needs {expected}")
        pos = 0
        for node_id, name, is_buffer in self._state_items():
            store = self.buffers if is_buffer else self.weights
            t = store[node_id][name]
            store[node_id][name] = flat[pos:pos + t.size].reshape(t.shape).copy()
            pos += t.size

    # -- execution -----------------------------------------------------------

    def _run(self, x, target: str | None = None):
        """The one forward loop. Without `target` (training) every activation
        and each node's kernel workspace are kept for backward; with it
        (inference) no workspace is made, each activation other than
        `target`'s is dropped after its last consumer, and the loop stops
        once `target` is computed."""
        keep = target is None
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model input "
                f"{self.input_shape}")
        acts: dict[str, np.ndarray] = {INPUT_ID: x}
        ctxs: dict[str, dict] = {}
        for node in self.order:
            if target in acts:
                break
            ins = [acts[d] for d in node.inputs]
            ctx = ctxs[node.node_id] = {} if keep else None
            acts[node.node_id] = op_forward(
                node.kind, node.params, self.weights[node.node_id],
                self.buffers[node.node_id], ins, ctx)
            if not keep:
                for dep in self._last_use[node.node_id]:
                    if dep != target:
                        del acts[dep]
        return acts, ctxs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched training forward pass: keeps every activation and kernel
        workspace for :meth:`backward`."""
        self._acts, self._ctxs = self._run(x)
        return self._acts[self.output_id]

    def predict(self, x: np.ndarray, node_id: str | None = None) -> np.ndarray:
        """Inference-only forward pass: the output, or the activation at
        `node_id`. Keeps nothing, and leaves the cache of the last
        :meth:`forward` alone."""
        target = self.output_id if node_id is None else node_id
        if target not in self.shapes:
            raise KeyError(f"unknown probe point {target!r}")
        acts, _ = self._run(x, target)
        return acts[target]

    def backward(self, output_gradient: np.ndarray, *, weight_grads: bool = True,
                 input_grad: bool = True) -> Gradients:
        """Backpropagate from the output; requires a cached forward pass.

        `weight_grads=False` computes no trainable-tensor gradient
        (``by_node`` is ``{}``) and `input_grad=False` no graph-input
        gradient (``input`` is ``None``); what is computed has the same bits
        either way.
        """
        if self._acts is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(output_gradient, dtype=np.float64)
        out = self._acts[self.output_id]
        if grad.shape != out.shape:
            raise ShapeError(
                f"output gradient shape {grad.shape} does not match output "
                f"{out.shape}")
        grads_at: dict[str, np.ndarray] = {self.output_id: grad}
        by_node: dict[str, dict[str, np.ndarray]] = {}
        if input_grad:  # else INPUT_ID stays out and its gradients are dropped
            grads_at[INPUT_ID] = np.zeros_like(self._acts[INPUT_ID])
        for node in reversed(self.order):
            g = grads_at.get(node.node_id)
            if g is None:
                continue
            ins = [self._acts[d] for d in node.inputs]
            wgrads, igrads = op_backward(
                node.kind, node.params, self.weights[node.node_id],
                self.buffers[node.node_id], ins, self._acts[node.node_id], g,
                self._ctxs[node.node_id], weight_grads=weight_grads,
                input_grad=input_grad or self._reads_inner[node.node_id])
            if wgrads:
                by_node[node.node_id] = wgrads
            for dep, ig in zip(node.inputs, igrads):
                if dep in grads_at:
                    grads_at[dep] = grads_at[dep] + ig
                elif dep != INPUT_ID:
                    grads_at[dep] = ig
        if weight_grads:
            for node_id in self._weighted:  # zero grads off the gradient path
                if node_id not in by_node:
                    by_node[node_id] = {
                        k: np.zeros_like(v) for k, v in self.weights[node_id].items()}
        return Gradients(by_node=by_node, input=grads_at.get(INPUT_ID))

    def calibrate_bn(self, batch: np.ndarray) -> None:
        """Fix BN running statistics from one calibration batch (one-time)."""
        x = np.asarray(batch, dtype=np.float64)
        acts: dict[str, np.ndarray] = {INPUT_ID: x}
        for node in self.order:
            ins = [acts[d] for d in node.inputs]
            if node.kind is OperatorKind.BN:
                axes = tuple(range(ins[0].ndim - 1))
                self.buffers[node.node_id]["running_mean"] = ins[0].mean(axis=axes)
                self.buffers[node.node_id]["running_var"] = ins[0].var(axis=axes)
            acts[node.node_id] = op_forward(
                node.kind, node.params, self.weights[node.node_id],
                self.buffers[node.node_id], ins)
        self.bn_calibrated = True


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 10
    epochs: int = 10
    loss: Literal["cross_entropy", "soft_target_kl"] = "cross_entropy"
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.loss not in ("cross_entropy", "soft_target_kl"):
            raise ValueError(f"unknown loss {self.loss!r}")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "batch_size": self.batch_size,
                "epochs": self.epochs, "loss": self.loss, "seed": self.seed}


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood over probability outputs, and its gradient."""
    n = probs.shape[0]
    rows = np.arange(n)
    p = np.maximum(probs[rows, labels], _LOG_EPS)
    loss = -(np.add.reduce(np.log(p)) / n)  # np.mean's bits, minus its wrapper
    grad = np.zeros(probs.shape, probs.dtype)  # zeros_like, minus its wrapper
    grad[rows, labels] = -1.0 / (p * n)
    return loss, grad


def soft_kl_grad(probs: np.ndarray, targets: np.ndarray):
    """Mean KL(target || output) over probability outputs, and its gradient."""
    n = probs.shape[0]
    p = np.maximum(probs, _LOG_EPS)
    t = targets
    tl = np.where(t > 0, np.log(np.maximum(t, _LOG_EPS)), 0.0)
    loss = np.mean(np.sum(t * (tl - np.log(p)), axis=1))
    grad = -(t / p) / n
    return loss, grad


def sgd_run(model: Network, inputs: np.ndarray, grad_fn,
            config: TrainConfig) -> list[float]:
    """Shared minibatch SGD loop.

    `grad_fn(probs, batch_indices)` returns (loss, gradient wrt model output).
    Shuffling consumes exactly one permutation per epoch from a generator
    seeded with `config.seed`, so two runs with equal configs are bit-equal.
    """
    n = inputs.shape[0]
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        if not model.bn_calibrated:
            model.calibrate_bn(inputs[perm[:config.batch_size]])
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            probs = model.forward(inputs[idx])
            loss, gout = grad_fn(probs, idx)
            grads = model.backward(gout, input_grad=False)
            for node_id, wgrads in grads.by_node.items():
                store = model.weights[node_id]
                for name, g in wgrads.items():
                    store[name] -= config.learning_rate * g
            losses.append(loss)
        history.append(float(np.mean(losses)))
        model.meta["epochs_trained"] += 1
    return history


def train(model: Network, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> list[float]:
    """Mini-batch SGD on hard labels (cross_entropy) or probability targets
    (soft_target_kl). Updates the model in place; returns per-epoch mean loss.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[0] == 0:
        raise ValueError("training dataset is empty")
    width = model.output_width
    if config.loss == "cross_entropy":
        labels = np.asarray(targets)
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ValueError("cross_entropy expects one integer label per sample")
        if labels.min() < 0 or labels.max() >= width:
            raise ValueError(
                f"label range [{labels.min()}, {labels.max()}] incompatible with "
                f"model output width {width}")

        def grad_fn(probs, idx):
            return cross_entropy_grad(probs, labels[idx])
    else:
        soft = np.asarray(targets, dtype=np.float64)
        if soft.ndim != 2 or soft.shape != (inputs.shape[0], width):
            raise ValueError(
                f"soft_target_kl expects ({inputs.shape[0]}, {width}) probability "
                f"targets, got {soft.shape}")

        def grad_fn(probs, idx):
            return soft_kl_grad(probs, soft[idx])

    return sgd_run(model, inputs, grad_fn, config)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckResult:
    max_rel_error: float
    has_parameters: bool
    checked: int
    worst: tuple[str, str, int] | None = None

    def __float__(self):
        return self.max_rel_error


def finite_difference_check(model: Network, probe_input, step: float = 1e-5,
                            check_input: bool = False) -> GradCheckResult:
    """Compare analytic parameter gradients against central finite differences.

    The scalar objective is a fixed random projection of the model output, so
    every output component contributes. Returns the max relative error over
    all trainable parameter elements (and input elements when requested); a
    model with no parameters reports 0.0 with has_parameters=False.
    """
    x = probe_input.to_array() if isinstance(probe_input, Tensor) else np.asarray(probe_input)
    batch = np.asarray(x, dtype=np.float64)[None, ...]
    proj = np.random.default_rng(0).standard_normal((1,) + model.output_shape)

    def objective():
        return float((model.predict(batch) * proj).sum())

    model.forward(batch)
    analytic = model.backward(proj, input_grad=check_input)

    worst = None
    max_err = 0.0
    checked = 0

    def compare(tensor, a_grad, node_id, name):
        """Perturbs `tensor` in place: it must be an array the model reads."""
        nonlocal worst, max_err, checked
        flat = tensor.reshape(-1)
        aflat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = objective()
            flat[i] = orig - step
            down = objective()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-12)
            checked += 1
            if err > max_err:
                max_err = err
                worst = (node_id, name, i)

    has_params = False
    for node_id in model.parameterized_nodes():
        for name in model.weights[node_id]:
            has_params = True
            compare(model.weights[node_id][name], analytic.by_node[node_id][name],
                    node_id, name)

    if check_input:
        compare(batch, analytic.input, INPUT_ID, "input")

    model.forward(batch)  # leave caches consistent with unperturbed weights
    if not has_params and not check_input:
        return GradCheckResult(0.0, False, 0)
    return GradCheckResult(max_err, has_params, checked, worst)
