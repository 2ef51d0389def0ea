"""Architecture catalog: specs, model building, MAdd accounting, checkpoints.

An :class:`ArchitectureSpec` is the declarative form of a model (a typed
operator DAG plus input shape and class count) and is what side-channel
attacks treat as ground truth. Builders below ship several miniature
families at two depths each; FC nodes flatten their input internally, so the
specs skip explicit FLATTEN nodes.

Checkpoint format (one directory, the entry):
  metadata.json  format_version; made_from, the document of everything that
                 set the model's bits (a cached model's: its spec, dataset
                 spec, class subset and recipe); BN calibrated
  params.bin     little-endian float64; nodes in spec order; per node its
                 weights, then its buffers, in the order the kind's entry of
                 the operator table (tensor._OPS) declares them (CONV/FC:
                 weight, bias; BN: gamma, beta, running_mean, running_var);
                 row-major

A cached model's entry is `<root>/<ref slug>/<crc>`, `<crc>` the CRC-32 of
its made_from's JSON text, served only to a caller who would have made it:
one made from another (an older spec, another recipe) is corrupt, refilled.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Literal

import numpy as np

from .datasets import DatasetId, write_entry
from .fields import Checked, Count, from_doc, is_doc_of, to_doc
from .network import Network, NodeSpec, node_shapes, topological_order
from .tensor import ConvParams, FCParams, OperatorKind, PoolParams, ShapeError, madd

CHECKPOINT_FORMAT_VERSION = 2
# one file-name component: scenario ids and checkpoint tags become parts of
# cache, record and artifact paths, so none may climb out of its directory
FILE_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


class CheckpointError(ValueError):
    """Missing or corrupt checkpoint data."""


@dataclass(frozen=True)
class ArchitectureSpec(Checked):
    """Declarative model description; immutable, hashable and freely
    shareable."""

    id: str
    family: str
    nodes: tuple[NodeSpec, ...]
    input_shape: tuple[int, ...]
    class_count: Count

    def __post_init__(self):
        super().__post_init__()
        if not self.family:
            raise ValueError("family must be non-empty")
        self._shapes  # rejects cycles and shape conflicts up front

    # the dataclass's hash, computed once: its own would hash every node
    # on every call, and a spec keys the fact caches of every simulated
    # trace and symbol stream
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.id, self.family, self.nodes, self.input_shape,
                     self.class_count))

    # Facts derived from the fields, computed once per spec: the spec is
    # frozen, so they cannot go stale. The dicts are private; callers get
    # copies (derive_shapes, compute_madd). Another module's facts of a spec
    # are functools.cache functions of it (the side-channel volumes, say).

    @cached_property
    def execution_order(self) -> tuple[NodeSpec, ...]:
        """Nodes in execution order (topological, declaration-order ties)."""
        return tuple(topological_order(list(self.nodes)))

    @cached_property
    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return node_shapes(self.execution_order, self.input_shape)

    @cached_property
    def _node_madd(self) -> dict[str, int]:
        return {node.node_id: madd(node.kind, node.params,
                                   [self._shapes[d] for d in node.inputs])
                for node in self.nodes}

    def derive_shapes(self) -> dict[str, tuple[int, ...]]:
        """Output shape of every node, plus the graph input under "input";
        a fresh dict each call."""
        return dict(self._shapes)


@dataclass(frozen=True)
class ModelRef(Checked):
    """Key under which a trained model is cached and served: registry ids,
    and a class subset (None or empty: all classes)."""

    architecture_id: ArchitectureId
    dataset_id: DatasetId
    class_subset: tuple[int, ...] | None = None
    checkpoint_tag: str = "default"

    def __post_init__(self):
        super().__post_init__()
        subset = tuple(sorted(self.class_subset or ()))
        if subset:
            if len(set(subset)) != len(subset):
                raise ValueError("class_subset indices must be unique")
            if len(subset) < 2:
                raise ValueError(f"class_subset {list(subset)} must name at "
                                 f"least two classes")
            if subset[0] < 0:
                raise ValueError(f"class_subset index {subset[0]} must be >= 0")
        object.__setattr__(self, "class_subset", subset or None)
        if not FILE_NAME.fullmatch(self.checkpoint_tag):
            raise ValueError(f"checkpoint_tag {self.checkpoint_tag!r} must be one "
                             f"file-name component ({FILE_NAME.pattern})")

    def slug(self) -> str:
        subset = "all" if self.class_subset is None else \
            "c" + "-".join(str(i) for i in self.class_subset)
        return f"{self.architecture_id}__{self.dataset_id}__{subset}__{self.checkpoint_tag}"


@dataclass(frozen=True)
class MAddReport:
    per_node: dict[str, int] = field(default_factory=dict)
    total: int = 0


def compute_madd(spec: ArchitectureSpec) -> MAddReport:
    """Multiply counts per node, by the convention of :func:`tensor.madd`."""
    per_node = dict(spec._node_madd)
    return MAddReport(per_node=per_node, total=sum(per_node.values()))


def build_model(spec: ArchitectureSpec, seed: int) -> Network:
    """Fresh parameters for a spec; bit-identical under equal seeds."""
    model = Network(spec, seed)
    if model.output_shape != (spec.class_count,):
        raise ShapeError(
            f"spec {spec.id}: output shape {model.output_shape} does not "
            f"produce {spec.class_count} classes")
    return model


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

# metadata.json, in the order it is written
@dataclass
class _Metadata(Checked):
    format_version: int
    made_from: dict  # compared with the caller's (see load_checkpoint)
    bn_calibrated: bool


def save_checkpoint(model: Network, entry, made_from: dict) -> Path:
    """Write `model` at `entry` atomically, with `made_from`, the document
    of what made it; a checkpoint already there is kept (see
    :func:`~extractbench.datasets.write_entry`)."""
    meta = _Metadata(CHECKPOINT_FORMAT_VERSION, made_from, model.bn_calibrated)
    return write_entry(entry, {
        "metadata.json": json.dumps(to_doc(meta), indent=2).encode(),
        "params.bin": model.state_vector().astype("<f8").tobytes()})


def load_checkpoint(entry: Path, spec: ArchitectureSpec, made_from: str) -> Network:
    """The model of `spec` at `entry`, which must have been made from the
    document whose `doc_text` is `made_from`: an entry whose metadata.json
    holds another, or is not exactly a metadata document, is corrupt
    (CheckpointError, a ValueError); a file missing is an OSError."""
    try:
        meta = from_doc(_Metadata, json.loads((entry / "metadata.json").read_text()))
        if meta.format_version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported format {meta.format_version}")
        if not is_doc_of(meta.made_from, made_from):
            raise ValueError("it was made from another spec, data or recipe")
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint {entry}: unreadable metadata.json "
            f"({type(exc).__name__}: {exc})") from exc
    model = build_model(spec, seed=0)  # every parameter is overwritten
    raw = np.frombuffer((entry / "params.bin").read_bytes(), dtype="<f8")
    expected = model.state_vector().size
    if raw.size != expected:
        raise CheckpointError(
            f"corrupt checkpoint {entry}: params.bin holds {raw.size} "
            f"values, architecture {spec.id} needs {expected}")
    model.load_state_vector(np.asarray(raw, dtype=np.float64))
    model.bn_calibrated = meta.bn_calibrated
    return model


# ---------------------------------------------------------------------------
# builtin miniature families
# ---------------------------------------------------------------------------

def _conv(nid, src, channels):
    return NodeSpec(nid, OperatorKind.CONV, ConvParams(channels, (3, 3)), (src,))


def _pool(nid, kind, src):
    return NodeSpec(nid, kind, PoolParams((2, 2), 2), (src,))


def _head(nodes, src, class_count):
    nodes.append(NodeSpec("head", OperatorKind.FC, FCParams(class_count), (src,)))
    nodes.append(NodeSpec("probs", OperatorKind.SOFTMAX, None, ("head",)))


def make_mini_mlp(weight_layers: int, input_shape, class_count, hidden=16) -> ArchitectureSpec:
    """FC/RELU stack: `weight_layers` counts FC nodes including the head."""
    nodes, src = [], "input"
    for i in range(weight_layers - 1):
        nodes.append(NodeSpec(f"fc{i + 1}", OperatorKind.FC, FCParams(hidden),
                              (src,)))
        nodes.append(NodeSpec(f"act{i + 1}", OperatorKind.RELU, None, (f"fc{i + 1}",)))
        src = f"act{i + 1}"
    _head(nodes, src, class_count)
    return ArchitectureSpec(f"mini-mlp-{weight_layers}", "mini-mlp", tuple(nodes),
                            tuple(input_shape), class_count)


def _vgg_like(arch_id, family, activation, conv_blocks, input_shape, class_count):
    nodes, src = [], "input"
    idx = 0
    for block, (channels, convs) in enumerate(conv_blocks, start=1):
        for _ in range(convs):
            idx += 1
            nodes.append(_conv(f"conv{idx}", src, channels))
            nodes.append(NodeSpec(f"act{idx}", activation, None, (f"conv{idx}",)))
            src = f"act{idx}"
        nodes.append(_pool(f"pool{block}", OperatorKind.MAXPOOL, src))
        src = f"pool{block}"
    nodes.append(NodeSpec("fc1", OperatorKind.FC, FCParams(24), (src,)))
    nodes.append(NodeSpec("factN", activation, None, ("fc1",)))
    _head(nodes, "factN", class_count)
    return ArchitectureSpec(arch_id, family, tuple(nodes), tuple(input_shape),
                            class_count)


def make_mini_vgg(weight_layers: int, input_shape, class_count) -> ArchitectureSpec:
    blocks = {4: [(6, 1), (8, 1)], 6: [(6, 2), (8, 2)]}[weight_layers]
    return _vgg_like(f"mini-vgg-{weight_layers}", "mini-vgg", OperatorKind.RELU,
                     blocks, input_shape, class_count)


def make_mini_gelu(weight_layers: int, input_shape, class_count) -> ArchitectureSpec:
    """The mini-vgg topology with every ReLU swapped for GELU."""
    blocks = {4: [(6, 1), (8, 1)], 6: [(6, 2), (8, 2)]}[weight_layers]
    return _vgg_like(f"mini-gelu-{weight_layers}", "mini-gelu", OperatorKind.GELU,
                     blocks, input_shape, class_count)


def make_mini_resnet(weight_layers: int, input_shape, class_count) -> ArchitectureSpec:
    """Stem conv + residual blocks (CONV/BN pairs joined by ADD) + pooled head."""
    blocks = {4: 1, 6: 2}[weight_layers]
    channels = 8
    nodes = [
        _conv("stem", "input", channels),
        NodeSpec("stem_bn", OperatorKind.BN, None, ("stem",)),
        NodeSpec("stem_act", OperatorKind.RELU, None, ("stem_bn",)),
    ]
    src = "stem_act"
    for b in range(1, blocks + 1):
        nodes.extend([
            _conv(f"b{b}_conv1", src, channels),
            NodeSpec(f"b{b}_bn1", OperatorKind.BN, None, (f"b{b}_conv1",)),
            NodeSpec(f"b{b}_act1", OperatorKind.RELU, None, (f"b{b}_bn1",)),
            _conv(f"b{b}_conv2", f"b{b}_act1", channels),
            NodeSpec(f"b{b}_bn2", OperatorKind.BN, None, (f"b{b}_conv2",)),
            NodeSpec(f"b{b}_add", OperatorKind.ADD, None, (src, f"b{b}_bn2")),
            NodeSpec(f"b{b}_act2", OperatorKind.RELU, None, (f"b{b}_add",)),
        ])
        src = f"b{b}_act2"
    nodes.append(_pool("gap", OperatorKind.AVGPOOL, src))
    _head(nodes, "gap", class_count)
    return ArchitectureSpec(f"mini-resnet-{weight_layers}", "mini-resnet",
                            tuple(nodes), tuple(input_shape), class_count)


def make_mini_dense(weight_layers: int, input_shape, class_count) -> ArchitectureSpec:
    """Stem + densely concatenated conv growth, max-pooled head."""
    growth_convs = {3: 2, 4: 3}[weight_layers]
    nodes = [
        _conv("stem", "input", 6),
        NodeSpec("stem_act", OperatorKind.RELU, None, ("stem",)),
        _pool("stem_pool", OperatorKind.MAXPOOL, "stem_act"),
    ]
    carried = ["stem_pool"]
    for g in range(1, growth_convs + 1):
        if len(carried) == 1:
            feed = carried[0]
        else:
            nodes.append(NodeSpec(f"cat{g}", OperatorKind.CONCAT, None, tuple(carried)))
            feed = f"cat{g}"
        nodes.append(_conv(f"grow{g}", feed, 4))
        nodes.append(NodeSpec(f"gact{g}", OperatorKind.RELU, None, (f"grow{g}",)))
        carried.append(f"gact{g}")
    nodes.append(NodeSpec("cat_out", OperatorKind.CONCAT, None, tuple(carried)))
    nodes.append(_pool("final_pool", OperatorKind.MAXPOOL, "cat_out"))
    _head(nodes, "final_pool", class_count)
    return ArchitectureSpec(f"mini-dense-{weight_layers}", "mini-dense",
                            tuple(nodes), tuple(input_shape), class_count)


def make_mini_pyramid(weight_layers: int, input_shape, class_count) -> ArchitectureSpec:
    """Bottleneck-first CNN: a narrow stem conv feeding progressively wider
    layers, the width profile of full-scale convnets."""
    nodes = [
        _conv("conv1", "input", 2),
        NodeSpec("act1", OperatorKind.RELU, None, ("conv1",)),
        _pool("pool1", OperatorKind.MAXPOOL, "act1"),
    ]
    if weight_layers == 4:
        nodes.append(_conv("conv2", "pool1", 12))
        nodes.append(NodeSpec("act2", OperatorKind.RELU, None, ("conv2",)))
        nodes.append(_pool("pool2", OperatorKind.AVGPOOL, "act2"))
    elif weight_layers == 5:
        nodes.append(_conv("conv2", "pool1", 8))
        nodes.append(NodeSpec("act2", OperatorKind.RELU, None, ("conv2",)))
        nodes.append(_conv("conv3", "act2", 16))
        nodes.append(NodeSpec("act3", OperatorKind.RELU, None, ("conv3",)))
        nodes.append(_pool("pool2", OperatorKind.MAXPOOL, "act3"))
    else:
        raise ValueError("mini-pyramid ships depths 4 and 5")
    nodes.append(NodeSpec("fc1", OperatorKind.FC, FCParams(24), ("pool2",)))
    nodes.append(NodeSpec("factN", OperatorKind.RELU, None, ("fc1",)))
    _head(nodes, "factN", class_count)
    return ArchitectureSpec(f"mini-pyramid-{weight_layers}", "mini-pyramid",
                            tuple(nodes), tuple(input_shape), class_count)


def make_student_cnn(input_shape, class_count) -> ArchitectureSpec:
    """Five-layer CNN used as the common distillation student."""
    nodes = [
        _conv("conv", "input", 4),
        NodeSpec("act", OperatorKind.RELU, None, ("conv",)),
        _pool("pool", OperatorKind.MAXPOOL, "act"),
    ]
    _head(nodes, "pool", class_count)
    return ArchitectureSpec("mini-student-cnn", "mini-student", tuple(nodes),
                            tuple(input_shape), class_count)


BUILTIN_ARCHITECTURES = {
    "mini-mlp-1": lambda shape, k: make_mini_mlp(1, shape, k),
    "mini-mlp-2": lambda shape, k: make_mini_mlp(2, shape, k),
    "mini-mlp-3": lambda shape, k: make_mini_mlp(3, shape, k),
    "mini-vgg-4": lambda shape, k: make_mini_vgg(4, shape, k),
    "mini-vgg-6": lambda shape, k: make_mini_vgg(6, shape, k),
    "mini-gelu-4": lambda shape, k: make_mini_gelu(4, shape, k),
    "mini-gelu-6": lambda shape, k: make_mini_gelu(6, shape, k),
    "mini-resnet-4": lambda shape, k: make_mini_resnet(4, shape, k),
    "mini-resnet-6": lambda shape, k: make_mini_resnet(6, shape, k),
    "mini-dense-3": lambda shape, k: make_mini_dense(3, shape, k),
    "mini-dense-4": lambda shape, k: make_mini_dense(4, shape, k),
    "mini-pyramid-4": lambda shape, k: make_mini_pyramid(4, shape, k),
    "mini-pyramid-5": lambda shape, k: make_mini_pyramid(5, shape, k),
    "mini-student-cnn": lambda shape, k: make_student_cnn(shape, k),
}
# a field annotated with the registry's ids is checked against it on parse
ArchitectureId = Literal[tuple(BUILTIN_ARCHITECTURES)]


def builtin_spec(arch_id: str, input_shape, class_count: int) -> ArchitectureSpec:
    """The spec of a built-in architecture for an input shape and class
    count. One spec is built per key and then shared, so the facts it
    caches (execution order, shapes, MAdds) are computed once per process."""
    return _builtin_spec(arch_id, tuple(int(s) for s in input_shape),
                         int(class_count))


@functools.cache
def _builtin_spec(arch_id: str, input_shape: tuple[int, ...],
                  class_count: int) -> ArchitectureSpec:
    if arch_id not in BUILTIN_ARCHITECTURES:
        raise KeyError(f"unknown architecture id {arch_id!r}")
    return BUILTIN_ARCHITECTURES[arch_id](input_shape, class_count)
