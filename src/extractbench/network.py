"""Operator-DAG models: compilation, forward/backward, and SGD training.

A :class:`Network` is built from an ArchitectureSpec: :class:`NodeSpec`
entries wired by node id (the reserved id ``"input"`` denotes the graph
input) and an input shape. Execution order is topological with ties broken
by declaration order, so two builds of one spec behave identically. A
training forward pass caches per-node activations and kernel workspace;
backward consumes the cache and computes the gradients its caller asks for:
those of every trainable tensor (what training reads), of the graph input
(what inversion attacks climb), or both. Inference goes through
``predict``, which caches nothing and runs a large batch in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Annotated, NamedTuple

import numpy as np

from .fields import Epochs, NonNegative, Range, check_fields
from .tensor import (
    OperatorKind,
    ShapeError,
    infer_shape,
    init_weights,
    kernel_geometry,
    op_backward,
    op_forward,
)

INPUT_ID = "input"
_FLOAT64 = np.dtype(np.float64)
# float64 elements of kernel workspace one block of an inference pass may
# fill (2 MiB): a larger pass runs in blocks of rows, so its memory is set
# by the network, not by the batch, and each block's im2col stays in cache
_BLOCK_ELEMENTS = 2 ** 18


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array. As a ufunc operand it rounds like the
    Python float, but spares the per-call conversion the float costs
    (about 0.3 us against sub-microsecond ufuncs on small arrays)."""
    out = np.array(value, dtype=np.float64)
    out.flags.writeable = False
    return out


_LOG_EPS = _constant(1e-12)
_MINUS_ONE = _constant(-1.0)
_ZERO = _constant(0.0)


class GraphError(ValueError):
    """The node list does not describe a valid single-output DAG."""


@dataclass(frozen=True)
class NodeSpec:
    """One operator node: identity, kind, static params, and input wiring."""

    node_id: str
    kind: OperatorKind
    params: dict = field(default_factory=dict)
    inputs: tuple[str, ...] = (INPUT_ID,)


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


class _Step(NamedTuple):
    """One node of a Network's execution plan."""

    node_id: str
    kind: OperatorKind
    params: dict
    weights: dict           # the Network's own dicts, updated in place
    buffers: dict
    grads: dict              # views of the gradient vector, one per weight
    inputs: tuple[int, ...]  # positions in the activation list
    gather: itemgetter       # activation list -> the inputs (see _gather)
    output: int              # position of this node's output
    geometry: tuple | None   # tensor.kernel_geometry, computed once
    frees: tuple[int, ...]   # positions whose last reader this step is
    reads_inner: bool        # an input is another node's output


def _gather(positions: tuple[int, ...]) -> itemgetter:
    """What reads a step's inputs off the activation list, as a sequence,
    in one C call (about 150 ns less than a list comprehension, which every
    node of every pass would pay). One input is read as a one-item slice,
    since an itemgetter of one position returns the bare item."""
    if len(positions) == 1:
        (k,) = positions
        return itemgetter(slice(k, k + 1))
    return itemgetter(*positions)


class Network:
    """A compiled operator DAG with parameters and activation caches.

    Construction compiles the DAG into a plan: one :class:`_Step` per node
    in execution order. Activations and gradients live in lists indexed by
    position: 0 is the graph input, ``k + 1`` the output of the k-th step.
    Every other node leads to the one output node, so it runs last and its
    output is the last activation. Every pass sends each node it runs
    through ``op_forward`` or ``op_backward`` once, with the kind first (an
    inference pass in row blocks: once per block).

    Every weight and buffer is a view of one float64 state vector, laid out
    in checkpoint order: nodes in declaration order, each node's weights
    and then its buffers, in the order of the operator table. A gradient
    vector of the same layout holds the weight gradients ``backward``
    writes (its buffer entries stay zero), so a training step updates
    every tensor with one operation; ``grads[node_id][name]`` is one
    weight's view of it, which the next ``backward`` overwrites. Whatever
    writes a weight or a buffer writes into its array (``a[...] = ...``):
    rebinding a dict entry would detach the tensor from both vectors.

    One instance belongs to one pipeline at a time: forward/backward share a
    cache and train mutates weights in place. Distinct instances are fully
    independent.
    """

    def __init__(self, spec, seed: int):
        """Fresh parameters for `spec` (an ArchitectureSpec), drawn from
        `seed`; the execution order and the shapes come from the spec's
        caches."""
        self.spec = spec
        self.nodes = list(spec.nodes)
        self.order = list(spec.execution_order)
        self.shapes = spec.derive_shapes()
        self.input_shape = self.shapes[INPUT_ID]
        self.output_id = sink_node(self.nodes).node_id
        self.meta: dict = {"seed": int(seed), "epochs_trained": 0}

        rng = np.random.default_rng(seed)
        self.weights: dict[str, dict[str, np.ndarray]] = {}
        self.buffers: dict[str, dict[str, np.ndarray]] = {}
        for node in self.nodes:  # declaration order keeps init deterministic
            in_shapes = [self.shapes[d] for d in node.inputs]
            w, b = init_weights(node.kind, node.params, in_shapes, rng)
            self.weights[node.node_id] = w
            self.buffers[node.node_id] = b
        self.bn_calibrated = not any(n.kind is OperatorKind.BN for n in self.nodes)
        self.grads: dict[str, dict[str, np.ndarray]] = {
            node_id: {} for node_id in self.weights}
        self._state = np.concatenate(
            [np.empty(0)] + [t.reshape(-1) for _, _, t, _ in self._tensors()])
        self._grad = np.zeros_like(self._state)
        self._bind()

        self._position = {INPUT_ID: 0}
        for k, node in enumerate(self.order, start=1):
            self._position[node.node_id] = k
        last_reader = {d: node.node_id for node in self.order for d in node.inputs}
        self._plan: list[_Step] = []
        for node in self.order:
            node_id = node.node_id
            inputs = tuple(self._position[d] for d in node.inputs)
            self._plan.append(_Step(
                node_id, node.kind, node.params, self.weights[node_id],
                self.buffers[node_id], self.grads[node_id], inputs,
                _gather(inputs),
                self._position[node_id],
                kernel_geometry(node.kind, node.params,
                                self.shapes[node.inputs[0]]),
                tuple(self._position[d] for d, reader in last_reader.items()
                      if reader == node_id),
                any(d != INPUT_ID for d in node.inputs)))
        self._reversed = self._plan[::-1]
        # a row's widest workspace: a CONV's im2col columns, else the output
        width = max(
            int(np.prod(step.geometry[:4])) * self.shapes[node.inputs[0]][-1]
            if step.kind is OperatorKind.CONV
            else int(np.prod(self.shapes[step.node_id]))
            for node, step in zip(self.order, self._plan))
        self._block_rows = max(1, _BLOCK_ELEMENTS // width)
        self._acts: list[np.ndarray] | None = None
        self._ctxs: list[dict] = []

    # -- structure ----------------------------------------------------------

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.shapes[self.output_id]

    @property
    def output_width(self) -> int:
        return int(np.prod(self.output_shape))

    def parameterized_nodes(self) -> list[str]:
        return [n.node_id for n in self.order if self.weights[n.node_id]]

    def parameter_count(self) -> int:
        return sum(t.size for w in self.weights.values() for t in w.values())

    # -- the state vector: every tensor, flat, in checkpoint order ----------

    def _tensors(self):
        """(store, name, tensor, node id or None) in checkpoint order, the
        node id given for a weight: the weights/buffers dicts hold each
        node's tensors in the order init_weights made them, the operator
        table's."""
        for node in self.nodes:
            node_id = node.node_id
            for name, t in self.weights[node_id].items():
                yield self.weights[node_id], name, t, node_id
            for name, t in self.buffers[node_id].items():
                yield self.buffers[node_id], name, t, None

    def _bind(self) -> None:
        """Make every tensor the view of its span of the state vector, and
        every weight gradient the view of the same span of the gradient
        vector; the vectors must already hold the values."""
        pos = 0
        for store, name, t, node_id in list(self._tensors()):
            end = pos + t.size
            store[name] = self._state[pos:end].reshape(t.shape)
            if node_id is not None:
                self.grads[node_id][name] = self._grad[pos:end].reshape(t.shape)
            pos = end

    def state_vector(self) -> np.ndarray:
        return self._state.copy()

    def load_state_vector(self, flat: np.ndarray) -> None:
        if flat.size != self._state.size:
            raise ValueError(f"parameter vector holds {flat.size} values, model "
                             f"needs {self._state.size}")
        self._state[...] = flat

    # -- execution -----------------------------------------------------------

    def _run(self, x, steps: int | None = None, keep: bool = False,
             calibrate: bool = False, hold: int | None = None):
        """The one forward pass: runs the first `steps` plan steps (all by
        default) and returns (activations, kernel workspaces).

        With `keep` (training) every activation and each step's workspace
        are kept for backward. Without it no workspace is made and each
        activation is dropped after its last reader, so only the last
        step's output survives, and the activation at position `hold`.
        `calibrate` first sets each BN's running statistics from the batch
        that reaches it. An inference pass (neither) over more rows than
        one block runs the plan on each block of rows in turn and joins
        what survives, so each row's output is its block's.
        """
        # asarray costs about 0.1 us even when it has nothing to do
        if x.__class__ is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model input "
                f"{self.input_shape}")
        plan = self._plan if steps is None else self._plan[:steps]
        rows = self._block_rows
        whole = keep or calibrate or x.shape[0] <= rows
        batches = (x,) if whole else [x[i:i + rows]
                                      for i in range(0, x.shape[0], rows)]
        passes = []
        for batch in batches:
            acts: list = [batch]  # step k appends position k + 1
            ctxs: list = []
            for _, kind, params, weights, buffers, _, _, gather, _, geometry, \
                    frees, _ in plan:
                inputs = gather(acts)
                if calibrate and kind is OperatorKind.BN:
                    axes = tuple(range(inputs[0].ndim - 1))
                    buffers["running_mean"][...] = inputs[0].mean(axis=axes)
                    buffers["running_var"][...] = inputs[0].var(axis=axes)
                if keep:
                    ctxs.append(ctx := {})
                    acts.append(op_forward(kind, params, weights, buffers,
                                           inputs, ctx, geometry))
                else:
                    acts.append(op_forward(kind, params, weights, buffers,
                                           inputs, None, geometry))
                    for k in frees:
                        if k != hold:
                            acts[k] = None
            passes.append(acts)
        if whole:
            return acts, ctxs
        joined: list = [None] * len(acts)
        for k in {len(plan), hold} - {None}:
            joined[k] = np.concatenate([block[k] for block in passes])
        return joined, ctxs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched training forward pass: keeps every activation and kernel
        workspace for :meth:`backward`."""
        self._acts, self._ctxs = self._run(x, keep=True)
        return self._acts[-1]

    def predict(self, x: np.ndarray, node_id: str | None = None) -> np.ndarray:
        """Inference-only forward pass: the output, or the activation at
        `node_id`. Runs no node after `node_id`, keeps nothing, and leaves
        the cache of the last :meth:`forward` alone."""
        steps = self._probe_position(
            self.output_id if node_id is None else node_id)
        return self._run(x, steps)[0][steps]

    def predict_and_probe(self, x: np.ndarray,
                          node_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The output and the activation at `node_id`, from one inference
        pass: each has the bits :meth:`predict` gives it, since the nodes
        up to `node_id` run once, on the same batch, for both."""
        position = self._probe_position(node_id)
        acts = self._run(x, hold=position)[0]
        return acts[-1], acts[position]

    def _probe_position(self, node_id: str) -> int:
        if node_id not in self._position:
            raise KeyError(f"unknown probe point {node_id!r}")
        return self._position[node_id]

    def backward(self, output_gradient: np.ndarray, *, weight_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate from the output; requires a cached forward pass.
        Returns the graph-input gradient, or ``None`` with
        `input_grad=False`.

        With `weight_grads` every trainable-tensor gradient is written into
        the gradient vector, where :attr:`grads` reads it; with
        `weight_grads=False` none is computed and the vector keeps what it
        held. What is computed has the same bits either way. Every node
        leads to the one output (``sink_node`` rejects any other graph), so
        each node's output gradient exists when its turn comes and every
        weighted node gets its gradients.
        """
        acts = self._acts
        if acts is None:
            raise RuntimeError("backward called before forward")
        grad = output_gradient
        if grad.__class__ is not np.ndarray or grad.dtype is not _FLOAT64:
            grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != acts[-1].shape:
            raise ShapeError(
                f"output gradient shape {grad.shape} does not match output "
                f"{acts[-1].shape}")
        grads: list = [None] * len(acts)
        grads[-1] = grad
        ctxs = self._ctxs
        for _, kind, params, weights, buffers, wgrads, ins, gather, out, \
                geometry, _, reads_inner in self._reversed:
            igrads = op_backward(
                kind, params, weights, buffers, gather(acts),
                acts[out], grads[out], ctxs[out - 1], geometry,
                weight_grads=weight_grads,
                input_grad=input_grad or reads_inner, out=wgrads)[1]
            if not (input_grad or reads_inner):
                continue  # it reads only the graph input, whose gradient drops
            for k, ig in zip(ins, igrads):
                if grads[k] is not None:
                    grads[k] = grads[k] + ig
                elif k:
                    grads[k] = ig
                elif input_grad:  # else the graph input's gradients drop
                    grads[0] = ig + _ZERO  # the bits of 0.0 + ig, in a copy
        return grads[0]

    def calibrate_bn(self, batch: np.ndarray) -> None:
        """Fix BN running statistics from one calibration batch (one-time)."""
        self._run(batch, calibrate=True)
        self.bn_calibrated = True


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """How SGD runs: step size, rows per step, passes and the shuffling
    seed. The loss is no part of it: it follows from what is fitted (see
    :func:`train`)."""

    # capped: a far larger step overflows the weights, and the loss reads NaN
    learning_rate: Annotated[float, Range(0, 100, low_open=True)] = 0.01
    # no built-in dataset holds more than 2,800 rows, so a larger batch is
    # a single batch
    batch_size: Annotated[int, Range(1, 2800)] = 10
    epochs: Epochs = 10
    seed: NonNegative = 0

    def __post_init__(self):
        check_fields(self)


def _batch_sums(values: np.ndarray, size: int) -> np.ndarray:
    """The sum of each batch of `size` consecutive entries of the 1-D
    `values` (the last batch may be short), with the bits of one
    np.add.reduce over that batch alone: the full batches are reduced as
    the rows of one C-ordered block, each row by the same pairwise sum."""
    full = values.shape[0] - values.shape[0] % size
    sums = np.add.reduce(values[:full].reshape(-1, size), axis=1)
    if full < values.shape[0]:
        sums = np.append(sums, np.add.reduce(values[full:]))
    return sums


class Loss:
    """A training loss, as :func:`sgd_run` drives it.

    Each epoch starts with ``epoch(perm, size)``, given the epoch's
    permutation of the training rows and the batch size; each step calls
    ``step(probs, start, stop)`` for the gradient of the loss with respect
    to the model's output on the shuffled rows [start, stop); each epoch
    ends with ``epoch_loss()``, the mean of its steps' losses. Work fixed
    for a whole training is done once (the first epoch knows the batch
    layout), work fixed for an epoch at its start, and a step keeps only
    what its loss needs, which ``step_losses`` reads at the epoch's end.
    Every value has the bits of the per-step form.
    """

    _layout: tuple[int, int] | None = None

    def epoch(self, perm: np.ndarray, size: int) -> None:
        n = perm.shape[0]
        if self._layout != (n, size):  # the first epoch of a training
            self._layout = (n, size)
            self._size = size
            # rows per step, as floats: the divisors of the step means
            self._counts = np.full(-(-n // size), size, dtype=np.float64)
            self._counts[-1] = n - size * (self._counts.shape[0] - 1)
            self._prepare(n, size)
        self._shuffle(perm)

    def _prepare(self, n: int, size: int) -> None:
        """Once per training: what the steps of every epoch write into."""

    def _shuffle(self, perm: np.ndarray) -> None:
        """Once per epoch: the per-row data in this epoch's order."""

    def step(self, probs: np.ndarray, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError

    def step_losses(self) -> np.ndarray:
        """Each step's loss in the epoch just ended."""
        raise NotImplementedError

    def _step_means(self, values: np.ndarray) -> np.ndarray:
        """Each step's np.mean of its entries of `values` (one per training
        row, in epoch order)."""
        return _batch_sums(values, self._size) / self._counts

    def epoch_loss(self) -> float:
        losses = self.step_losses()
        return float(np.add.reduce(losses) / losses.shape[0])  # np.mean's bits


class CrossEntropy(Loss):
    """Mean negative log-likelihood of hard labels over probability outputs.

    `labels` holds one integer label per training row, each in [0, width):
    one out of range would address another row, so construction checks
    them. Each step reads and writes its label entries through their flat
    positions, found for the whole epoch at its start by one integer add,
    and keeps their clamped probabilities for the epoch's losses.
    """

    def __init__(self, labels: np.ndarray, width: int):
        if labels.min() < 0 or labels.max() >= width:
            raise ValueError(
                f"label range [{labels.min()}, {labels.max()}] incompatible "
                f"with output width {width}")
        self.labels = labels
        self.width = width

    def _prepare(self, n, size):
        self._starts = np.arange(n) % size * self.width  # row starts in a batch
        self._p = np.empty(n)
        self._count = {int(c): _constant(c) for c in self._counts}

    def _shuffle(self, perm):
        self._flat = self._starts + self.labels.take(perm)

    def step(self, probs, start, stop):
        n, width = probs.shape
        flat = self._flat[start:stop]
        p = np.maximum(probs.take(flat), _LOG_EPS, out=self._p[start:stop])
        grad = np.zeros(n * width, probs.dtype)  # zeros_like, minus its wrapper
        grad[flat] = _MINUS_ONE / (p * self._count[n])
        return grad.reshape(n, width)

    def step_losses(self):
        # per step: -(float(np.add.reduce(np.log(p))) / n)
        return -self._step_means(np.log(self._p))


class SoftTargetKL(Loss):
    """Mean KL(target || output) over probability outputs; `targets` holds
    one probability row per training row. Their logs are taken once per
    training, and each step keeps its clamped outputs for the epoch's
    losses."""

    def __init__(self, targets: np.ndarray):
        self.targets = t = np.ascontiguousarray(targets, dtype=np.float64)
        self._t_logs = np.where(t > 0, np.log(np.maximum(t, _LOG_EPS)), 0.0)

    def _prepare(self, n, size):
        self._p = np.empty(self.targets.shape)

    def _shuffle(self, perm):
        self._perm = perm
        self._t = self.targets.take(perm, axis=0)

    def step(self, probs, start, stop):
        p = np.maximum(probs, _LOG_EPS, out=self._p[start:stop])
        return -(self._t[start:stop] / p) / probs.shape[0]

    def step_losses(self):
        # per step: np.mean(np.sum(t * (t_logs - np.log(p)), axis=1))
        tl = self._t_logs.take(self._perm, axis=0)
        rows = np.sum(self._t * (tl - np.log(self._p)), axis=1)
        return self._step_means(rows)


def sgd_run(model: Network, inputs: np.ndarray, loss,
            config: TrainConfig) -> list[float]:
    """Shared minibatch SGD loop; returns the per-epoch mean loss.

    `loss` is a loss object (:class:`CrossEntropy`, :class:`SoftTargetKL`
    or the distillation blend). Each epoch calls ``loss.epoch(perm,
    batch_size)`` with its permutation of the rows, then for each batch
    ``loss.step(probs, start, stop)`` for the output gradient of the
    shuffled rows [start, stop), and at its end ``loss.epoch_loss()``.

    Shuffling consumes exactly one permutation per epoch from a generator
    seeded with `config.seed`, so two runs with equal configs are bit-equal.
    Each epoch gathers its shuffled rows once, and each batch is a slice of
    them. ``backward`` writes every weight gradient into the model's
    gradient vector, so one in-place update over the state vector ends a
    step, with the bits of ``w - lr * g`` for every weight (the buffer
    entries of the gradient vector are zeros, which leave buffers alone).
    """
    n = inputs.shape[0]
    size = config.batch_size
    rate = _constant(config.learning_rate)
    state, grad = model._state, model._grad
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        shuffled = inputs.take(perm, axis=0)  # inputs[perm], in half the time
        if not model.bn_calibrated:
            model.calibrate_bn(shuffled[:size])
        loss.epoch(perm, size)
        for start in range(0, n, size):
            stop = start + size
            model.backward(loss.step(model.forward(shuffled[start:stop]),
                                     start, stop), input_grad=False)
            grad *= rate
            state -= grad
        history.append(loss.epoch_loss())
        model.meta["epochs_trained"] += 1
    return history


def train(model: Network, inputs: np.ndarray, targets: np.ndarray,
          config: TrainConfig) -> list[float]:
    """Mini-batch SGD of `model` on `targets`, whose form chooses the loss:
    one integer label per input row is hard labels (:class:`CrossEntropy`),
    one probability row of the output width per input row is soft targets
    (:class:`SoftTargetKL`), and anything else is a ValueError. Updates the
    model in place; returns the per-epoch mean loss.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    n = inputs.shape[0]
    if n == 0:
        raise ValueError("training dataset is empty")
    width = model.output_width
    targets = np.asarray(targets)
    if targets.shape == (n,) and targets.dtype.kind in "iu":
        loss = CrossEntropy(targets, width)
    elif targets.shape == (n, width):
        loss = SoftTargetKL(targets)
    else:
        raise ValueError(
            f"training targets must be {n} integer labels or ({n}, {width}) "
            f"probability rows, got a {targets.dtype} array of shape "
            f"{targets.shape}")
    return sgd_run(model, inputs, loss, config)


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
    batch = np.asarray(probe_input, dtype=np.float64)[None, ...]
    proj = np.random.default_rng(0).standard_normal((1,) + model.output_shape)

    def objective():
        return float((model.predict(batch) * proj).sum())

    model.forward(batch)
    input_grad = model.backward(proj, input_grad=check_input)

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
            compare(model.weights[node_id][name], model.grads[node_id][name],
                    node_id, name)

    if check_input:
        compare(batch, input_grad, INPUT_ID, "input")

    model.forward(batch)  # leave caches consistent with unperturbed weights
    if not has_params and not check_input:
        return GradCheckResult(0.0, False, 0)
    return GradCheckResult(max_err, has_params, checked, worst)
