"""Simulated side channels and the two architecture-extraction pipelines.

Kernel traces: every operator node of a running model emits one event with
five metrics. The generative stand-in is fixed so results are reproducible:
  read_volume   = 8 * (elements of all inputs + elements of parameters) bytes
  write_volume  = 8 * elements of the output
  input_volume / output_volume = raw element counts
  exec_lat      = latency_scale * (node multiply count + output elements)
with every metric multiplied by an independent log-normal jitter of the
profile's relative std-dev. Verbose runtimes insert extra NOISE events.

Sequence inference works per event: windowed, log-scaled, standardized
metrics feed a softmax-regression labeler over the seven trace-recognizable
kinds {Conv, FC, ReLU, BN, Pool, Concat, Add}. MAXPOOL and AVGPOOL collapse
into Pool because their simulated metrics are identical; SOFTMAX, GELU and
FLATTEN are out of vocabulary and can only ever be mis-labeled, never
rejected.

Cache fingerprinting: each node increments mapped framework symbols
(CONV -> Conv+Bias, FC -> MatMul+Bias, RELU -> Relu, MAXPOOL -> MaxPool,
AVGPOOL -> AveragePool, ADD/CONCAT/BN -> Merge, SOFTMAX -> Softmax; GELU and
FLATTEN touch none of the eight watched symbols). True hits drop with the
machine's drop rate; spurious hits arrive Poisson per symbol and survive only
when their simulated reload time is under the profile threshold.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .fields import Checked, Count, Jitter, Positive, Range, UnitInterval
from .network import Network, NodeSpec, TrainConfig, train
from .tensor import FCParams, OperatorKind, buffer_shapes, weight_shapes
from .zoo import ArchitectureSpec, compute_madd

NOISE = "NOISE"

DS_VOCABULARY = ("Conv", "FC", "ReLU", "BN", "Pool", "Concat", "Add")

_DS_LABEL = {
    OperatorKind.CONV: "Conv",
    OperatorKind.FC: "FC",
    OperatorKind.RELU: "ReLU",
    OperatorKind.BN: "BN",
    OperatorKind.MAXPOOL: "Pool",
    OperatorKind.AVGPOOL: "Pool",
    OperatorKind.CONCAT: "Concat",
    OperatorKind.ADD: "Add",
    OperatorKind.GELU: "GELU",
    OperatorKind.SOFTMAX: "Softmax",
    OperatorKind.FLATTEN: "Flatten",
}

SYMBOLS = ("Conv", "MatMul", "Softmax", "Relu", "MaxPool", "AveragePool",
           "Merge", "Bias")

_SYMBOL_MAP: dict[OperatorKind, tuple[str, ...]] = {
    OperatorKind.CONV: ("Conv", "Bias"),
    OperatorKind.FC: ("MatMul", "Bias"),
    OperatorKind.RELU: ("Relu",),
    OperatorKind.MAXPOOL: ("MaxPool",),
    OperatorKind.AVGPOOL: ("AveragePool",),
    OperatorKind.ADD: ("Merge",),
    OperatorKind.CONCAT: ("Merge",),
    OperatorKind.BN: ("Merge",),
    OperatorKind.SOFTMAX: ("Softmax",),
    OperatorKind.GELU: (),
    OperatorKind.FLATTEN: (),
}


@dataclass(frozen=True)
class KernelTraceEvent:
    exec_lat: float
    read_volume: int
    write_volume: int
    input_volume: int
    output_volume: int
    true_kind: str  # OperatorKind value name, or NOISE

    def metrics(self) -> tuple[float, ...]:
        return (self.exec_lat, float(self.read_volume), float(self.write_volume),
                float(self.input_volume), float(self.output_volume))

    def to_dict(self) -> dict:
        return {"lat": self.exec_lat, "rv": self.read_volume,
                "wv": self.write_volume, "iv": self.input_volume,
                "ov": self.output_volume, "kind": self.true_kind}

    @staticmethod
    def from_dict(doc: dict) -> "KernelTraceEvent":
        return KernelTraceEvent(float(doc["lat"]), int(doc["rv"]), int(doc["wv"]),
                                int(doc["iv"]), int(doc["ov"]), doc["kind"])


@dataclass(frozen=True)
class EnvironmentProfile(Checked):
    """Accelerator-side observation conditions for trace capture."""

    id: str
    metric_jitter: Jitter = 0.0      # relative std-dev per metric
    verbose_runtime: bool = False    # extra kernel calls appear in the trace
    latency_scale: Positive = 1.0


@dataclass(frozen=True)
class MachineProfile(Checked):
    """Cache-probing conditions on the CPU side."""

    id: str
    drop_rate: UnitInterval = 0.0    # chance a true symbol hit is missed
    spurious_rate: Annotated[float, Range(0)] = 0.0  # expected per symbol
    reload_threshold: Count = 200    # cycles; spurious hits above are discarded
    matmul_visible: bool = True


@dataclass
class SymbolHistogram:
    counts: dict[str, int]
    machine_profile_id: str
    true_architecture_id: str
    true_family: str

    def vector(self) -> np.ndarray:
        return np.array([self.counts[s] for s in SYMBOLS], dtype=np.float64)


BUILTIN_ENVIRONMENT_PROFILES = {
    "gpu-quiet": EnvironmentProfile("gpu-quiet", metric_jitter=0.0),
    "gpu-low": EnvironmentProfile("gpu-low", metric_jitter=0.02),
    "gpu-noisy": EnvironmentProfile("gpu-noisy", metric_jitter=0.15),
    "gpu-verbose": EnvironmentProfile("gpu-verbose", metric_jitter=0.02,
                                      verbose_runtime=True),
}

BUILTIN_MACHINE_PROFILES = {
    "i7-6850k-like": MachineProfile("i7-6850k-like", drop_rate=0.02,
                                    spurious_rate=0.2),
    "i7-4770-like": MachineProfile("i7-4770-like", drop_rate=0.12,
                                   spurious_rate=1.0),
    "i5-3470-like": MachineProfile("i5-3470-like", drop_rate=0.35,
                                   spurious_rate=3.0),
    "tf2-like": MachineProfile("tf2-like", drop_rate=0.05, spurious_rate=0.3,
                               matmul_visible=False),
}


def ds_truth_sequence(spec: ArchitectureSpec) -> list[str]:
    """Trace-aligned ground-truth labels (one per node, execution order)."""
    return [_DS_LABEL[n.kind] for n in spec.execution_order]


# ---------------------------------------------------------------------------
# seeding in bulk
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hashmix(values: np.ndarray, const: int, mult: int):
    """One SeedSequence hash of uint32 `values` under the hash constant
    `const`: the hashed values and the constant it leaves. The constant
    does not depend on the values, so one call hashes every seed."""
    values = values ^ np.uint32(const)
    const = const * mult & _MASK32
    values *= np.uint32(const)
    values ^= values >> np.uint32(16)
    return values, const


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """The (n, 4) uint64 words ``SeedSequence(seed).generate_state(4,
    np.uint64)`` gives for each of the uint32 `seeds`: an entropy of one
    word, mixed into a pool of four, then eight 32-bit words drawn from the
    pool and read in little-endian pairs."""
    zeros = np.zeros_like(seeds)
    pool, const = [], _INIT_A
    for entropy in (seeds,) + (zeros,) * (_POOL_SIZE - 1):
        word, const = _hashmix(entropy, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                mixed = (pool[dst] * np.uint32(_MIX_MULT_L)
                         - word * np.uint32(_MIX_MULT_R))
                mixed ^= mixed >> np.uint32(16)
                pool[dst] = mixed
    state = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """One seed's precomputed PCG64 seed words. PCG64 asks its seed
    sequence once, for four uint64 words, and that is all this answers.
    A bit generator takes it once it is registered as an `ISeedSequence`
    (:func:`_register_seed_words`)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.cache
def _register_seed_words() -> None:
    # on first use, not at import: importing numpy.random with this module
    # would add about 13 ms (2-CPU Xeon, numpy 2.4) to every interpreter
    # start that imports the package
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)


def seeded_generators(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """A fresh generator per seed, in order, each equal to
    ``np.random.default_rng(seed)``: numpy's SeedSequence hash runs for all
    the seeds in one pass over uint32 arrays, and each PCG64 seeds itself
    from its seed's row. Every seed must be an integer in [0, 2**32).
    """
    seeds = list(seeds)
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= _MASK32:
            raise ValueError(
                f"seed must be an integer in [0, 2**32), got {seed!r}")
    words = _seed_words(np.array(seeds, dtype=np.uint32))
    _register_seed_words()
    return (np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in words)


# ---------------------------------------------------------------------------
# kernel-trace simulation
# ---------------------------------------------------------------------------

@functools.cache
def _node_volumes(spec: ArchitectureSpec) -> np.ndarray:
    """Noise-free (MAdd + output elements, read, write, input, output) of
    every node, one row each in execution order: the trace's base metrics
    before the latency scale. Computed once per spec."""
    shapes = spec.derive_shapes()
    madd = compute_madd(spec).per_node
    rows = []
    for node in spec.execution_order:
        in_shapes = [shapes[d] for d in node.inputs]
        in_elems = sum(math.prod(s) for s in in_shapes)
        out_elems = math.prod(shapes[node.node_id])
        param_elems = sum(
            math.prod(s) for tensors in (
                weight_shapes(node.kind, node.params, in_shapes),
                buffer_shapes(node.kind, node.params, in_shapes))
            for s in tensors.values())
        rows.append((madd[node.node_id] + out_elems,
                     8 * (in_elems + param_elems), 8 * out_elems,
                     in_elems, out_elems))
    volumes = np.array(rows, dtype=np.float64)
    volumes.flags.writeable = False  # shared by every trace of the spec
    return volumes


@functools.cache
def _symbol_hits(spec: ArchitectureSpec) -> tuple[int, ...]:
    """The position in SYMBOLS of every true symbol hit of one inference,
    node by node in execution order and in each kind's symbol order.
    Computed once per spec."""
    return tuple(SYMBOLS.index(symbol) for node in spec.execution_order
                 for symbol in _SYMBOL_MAP[node.kind])


def simulate_kernel_trace(spec: ArchitectureSpec, profile: EnvironmentProfile,
                          seed: int | np.random.Generator = 0
                          ) -> list[KernelTraceEvent]:
    """One event per operator node in execution order; deterministic under
    (spec, profile, seed) and stateless across calls. `seed` is an int or
    a fresh generator (see :func:`seeded_generators`), which it draws from.

    Draw order (the contract that keeps traces equal under a seed): with
    jitter, five log-normal factors per event, event by event in execution
    order and (lat, read, write, input, output) within one; then, for a
    verbose runtime, per NOISE event its five uniform metrics and then its
    insertion position.
    """
    rng = np.random.default_rng(seed)
    mats = _node_volumes(spec).copy()
    mats[:, 0] *= profile.latency_scale  # the integer column is exact
    if profile.metric_jitter > 0:
        mats *= rng.lognormal(0.0, profile.metric_jitter, size=mats.shape)
    # volumes are whole bytes and elements: rounded half to even, as round()
    mats[:, 1:] = np.rint(mats[:, 1:])
    events = [KernelTraceEvent(lat, int(rv), int(wv), int(iv), int(ov),
                               node.kind.name)
              for (lat, rv, wv, iv, ov), node in zip(mats.tolist(),
                                                     spec.execution_order)]

    if profile.verbose_runtime:
        extra = max(1, int(round(0.3 * len(events))))
        lo, hi = mats.min(axis=0), mats.max(axis=0)
        for _ in range(extra):
            vals = rng.uniform(lo, np.maximum(hi, lo + 1.0))
            noise = KernelTraceEvent(float(vals[0]), int(vals[1]), int(vals[2]),
                                     int(vals[3]), int(vals[4]), NOISE)
            events.insert(int(rng.integers(len(events) + 1)), noise)
    return events


def write_trace_jsonl(events: list[KernelTraceEvent], path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict()) + "\n")
    return path


def read_trace_jsonl(path) -> list[KernelTraceEvent]:
    return [KernelTraceEvent.from_dict(json.loads(line))
            for line in Path(path).read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# sequence inference (trace -> operator labels)
# ---------------------------------------------------------------------------

def _window_features(trace: list[KernelTraceEvent], window: int) -> np.ndarray:
    mats = np.log1p(np.array([e.metrics() for e in trace]))  # decades -> linear
    n, m = mats.shape
    feats = np.zeros((n, (2 * window + 1) * m))
    for off in range(-window, window + 1):
        col = (off + window) * m
        lo, hi = max(0, -off), min(n, n - off)
        if lo < hi:
            feats[lo:hi, col:col + m] = mats[lo + off:hi + off]
    return feats


@dataclass
class SequenceClassifier:
    """Per-event operator labeler: standardized windowed metrics into a
    softmax regression over the seven in-vocabulary kinds."""

    window: int
    mean: np.ndarray
    std: np.ndarray
    model: Network

    def features(self, trace: list[KernelTraceEvent]) -> np.ndarray:
        raw = _window_features(trace, self.window)
        return (raw - self.mean) / self.std

    def predict(self, trace: list[KernelTraceEvent]) -> list[str]:
        probs = self.model.predict(self.features(trace))
        return [DS_VOCABULARY[i] for i in probs.argmax(axis=1)]


# How the per-event labeler is fitted, unless a caller says otherwise
DS_CLASSIFIER_RECIPE = TrainConfig(learning_rate=0.5, batch_size=16,
                                   epochs=200, seed=0)


def train_ds_model(corpus: list[tuple[list[KernelTraceEvent], list[str]]],
                   window: int = 1,
                   config: TrainConfig | None = None) -> SequenceClassifier:
    """Fit the per-event labeler on (trace, truth) pairs.

    Only events with in-vocabulary truth contribute training rows; standardization
    statistics are stored for reuse at prediction time.
    """
    if not corpus:
        raise ValueError("empty training corpus")
    rows, labels = [], []
    for trace, truth in corpus:
        if len(trace) != len(truth):
            raise ValueError("trace and truth lengths differ; train on "
                             "noise-free profiles")
        feats = _window_features(trace, window)
        for i, t in enumerate(truth):
            if t in DS_VOCABULARY:
                rows.append(feats[i])
                labels.append(DS_VOCABULARY.index(t))
    x = np.array(rows)
    y = np.array(labels)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    xs = (x - mean) / std

    config = config or DS_CLASSIFIER_RECIPE
    dim = xs.shape[1]
    width = len(DS_VOCABULARY)
    spec = ArchitectureSpec(
        "ds-labeler", "ds-labeler",
        (NodeSpec("logits", OperatorKind.FC, FCParams(width), ("input",)),
         NodeSpec("probs", OperatorKind.SOFTMAX, None, ("logits",))),
        (dim,), width)
    model = Network(spec, config.seed)
    train(model, xs, y, config)
    return SequenceClassifier(window=window, mean=mean, std=std, model=model)


def ds_extract(trace: list[KernelTraceEvent],
               classifier: SequenceClassifier) -> list[str]:
    """One predicted kind per event; pure."""
    return classifier.predict(trace)


def levenshtein(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, xa in enumerate(a, start=1):
        cur = [i]
        for j, xb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (xa != xb)))
        prev = cur
    return prev[len(b)]


def sequence_fidelity(predicted, truth) -> float:
    """1 - normalized edit distance; 1.0 iff the sequences are equal."""
    truth = list(truth)
    if not truth:
        raise ValueError("truth sequence is empty")
    predicted = list(predicted)
    denom = max(len(predicted), len(truth))
    return 1.0 - levenshtein(predicted, truth) / denom


# ---------------------------------------------------------------------------
# cache-symbol simulation and fingerprinting
# ---------------------------------------------------------------------------

def simulate_symbol_stream(spec: ArchitectureSpec, profile: MachineProfile,
                           seed: int | np.random.Generator = 0
                           ) -> SymbolHistogram:
    """Symbol counts observed during one inference under a machine profile.
    `seed` is an int or a fresh generator (see :func:`seeded_generators`),
    which it draws from.

    Draw order (the contract that keeps histograms equal under a seed): one
    uniform keep-or-drop draw per true symbol hit, node by node in execution
    order and in each kind's symbol order; then, symbol by symbol in SYMBOLS
    order, a Poisson count of spurious hits followed by their reload times.
    """
    rng = np.random.default_rng(seed)
    hits = _symbol_hits(spec)
    counts = [0] * len(SYMBOLS)
    # a few dozen hits: a Python loop counts them faster than np.bincount
    for i, draw in zip(hits, rng.random(len(hits)).tolist()):
        if draw >= profile.drop_rate:
            counts[i] += 1
    # reload time gates spurious hits; almost all pass the default threshold
    threshold = float(profile.reload_threshold)  # compared as numpy would
    for i in range(len(SYMBOLS)):
        spurious = int(rng.poisson(profile.spurious_rate))
        if spurious:  # a draw of size 0 consumes nothing
            reloads = rng.exponential(50.0, size=spurious).tolist()
            counts[i] += sum(r <= threshold for r in reloads)
    counts = dict(zip(SYMBOLS, counts))
    if not profile.matmul_visible:
        counts["MatMul"] = 0
    return SymbolHistogram(counts=counts, machine_profile_id=profile.id,
                           true_architecture_id=spec.id, true_family=spec.family)


def write_histograms_csv(histograms: list[SymbolHistogram], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(SYMBOLS) + ["architecture", "family", "profile"])
        for h in histograms:
            writer.writerow([h.counts[s] for s in SYMBOLS]
                            + [h.true_architecture_id, h.true_family,
                               h.machine_profile_id])
    return path


def read_histograms_csv(path) -> list[SymbolHistogram]:
    out = []
    with Path(path).open() as fh:
        for row in csv.DictReader(fh):
            counts = {s: int(row[s]) for s in SYMBOLS}
            out.append(SymbolHistogram(counts, row["profile"],
                                       row["architecture"], row["family"]))
    return out


@dataclass
class FingerprintModel:
    mean: np.ndarray
    components: np.ndarray            # (2, 8) rows = principal directions
    eigenvalues: np.ndarray
    explained_variance: float
    points: np.ndarray                # (m, 2) projected training corpus
    architecture_labels: list[str]
    family_labels: list[str]
    k: int

    def project(self, histogram: SymbolHistogram) -> np.ndarray:
        return (histogram.vector() - self.mean) @ self.components.T


@dataclass
class DrPrediction:
    architecture_id: str
    family: str
    exact_votes: dict[str, int]
    family_votes: dict[str, int]


def fit_fingerprint_space(corpus: list[SymbolHistogram], k: int = 5) -> FingerprintModel:
    """Mean-centered two-component PCA over 8-dim symbol counts, keeping
    labeled projections as the k-NN reference set."""
    if len({h.true_architecture_id for h in corpus}) < 2:
        raise ValueError("corpus must span at least two architectures")
    if not 1 <= k <= len(corpus):
        raise ValueError(f"k must lie in [1, {len(corpus)}]")
    x = np.array([h.vector() for h in corpus])
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / max(len(corpus) - 1, 1)
    eig, vec = np.linalg.eigh(cov)
    order = np.argsort(eig)[::-1]
    eig = np.maximum(eig[order], 0.0)
    total = eig.sum()
    if total <= 0:
        raise ValueError("degenerate corpus: symbol counts have zero variance")
    comps = vec[:, order[:2]].T
    for i in range(2):  # sign convention: dominant loading positive
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return FingerprintModel(
        mean=mean, components=comps, eigenvalues=eig,
        explained_variance=float(eig[:2].sum() / total),
        points=xc @ comps.T,
        architecture_labels=[h.true_architecture_id for h in corpus],
        family_labels=[h.true_family for h in corpus], k=k)


def _vote(labels: list[str], order: np.ndarray) -> tuple[str, dict[str, int]]:
    votes: dict[str, int] = {}
    for i in order:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
    top = max(votes.values())
    tied = {lbl for lbl, v in votes.items() if v == top}
    for i in order:  # ties go to the nearest neighbor carrying a tied label
        if labels[i] in tied:
            return labels[i], votes
    raise AssertionError("unreachable")


def _nearest(points: np.ndarray, point: np.ndarray, k: int) -> np.ndarray:
    """Indices of the `k` rows of the (m, 2) `points` nearest to `point`,
    nearest first, ties to the lower index: what
    ``np.argsort(np.linalg.norm(points - point, axis=1), kind="stable")[:k]``
    returns, from the same distances, without sorting every row."""
    px, py = point
    # norm's bits, a column at a time: the squares summed in column order
    dist = points[:, 0] - px
    dist *= dist
    dy = points[:, 1] - py
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    # the rows no farther than the k-th distance, in index order, then
    # stably sorted by distance
    kth = np.partition(dist, k - 1)[k - 1]
    near = np.flatnonzero(dist <= kth)
    return near[np.argsort(dist[near], kind="stable")[:k]]


def dr_classify(histogram: SymbolHistogram, model: FingerprintModel) -> DrPrediction:
    """Majority vote over the k nearest projected neighbors, taken
    independently for the exact architecture and for the family."""
    order = _nearest(model.points, model.project(histogram), model.k)
    arch, arch_votes = _vote(model.architecture_labels, order)
    family, family_votes = _vote(model.family_labels, order)
    return DrPrediction(architecture_id=arch, family=family,
                        exact_votes=arch_votes, family_votes=family_votes)
