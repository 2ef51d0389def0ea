"""Synthetic labeled image datasets with a tunable class-overlap knob.

Each class c gets a Gaussian prototype image; samples are the prototype plus
pixel noise. The `overlap` knob slides every prototype toward the common
mean: 0 keeps prototypes fully apart (a nearest-prototype classifier is
near-perfect), 1 collapses all classes onto one distribution. That single
knob stands in for the difficulty spread between easy and hard corpora and
is what the CSG complexity score is exercised against.

Cache layout per dataset: meta.json (spec echo) + samples.bin (little-endian
float64, samples row-major in index order) + labels.bin (little-endian int32).
An entry is served only to a caller whose spec it echoes; one written for
another spec (an older generator's, say) is corrupt, and rebuilt like any
corrupt entry, so a root written by an older spec refills.
"""

from __future__ import annotations

import errno
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .fields import (Checked, Count, NonNegative, QueryFraction, Range,
                     UnitInterval, check_value, from_doc, is_doc_of, to_doc)


@dataclass(frozen=True)
class DatasetSpec(Checked):
    id: str
    class_count: Annotated[int, Range(2)]
    samples_per_class: Count
    input_shape: tuple[Count, ...]
    overlap: UnitInterval
    seed: NonNegative
    noise: Annotated[float, Range(0)] = 0.6  # per-pixel, around the prototype

    def __post_init__(self):
        super().__post_init__()
        if len(self.input_shape) != 3:
            raise ValueError("input_shape must be (H, W, C)")


BUILTIN_DATASETS = {
    "blobs-2c-easy": DatasetSpec("blobs-2c-easy", 2, 300, (6, 6, 1), 0.0, 101),
    "blobs-4c-easy": DatasetSpec("blobs-4c-easy", 4, 700, (6, 6, 1), 0.0, 102),
    "blobs-4c-mid": DatasetSpec("blobs-4c-mid", 4, 700, (6, 6, 1), 0.5, 103),
    "blobs-4c-hard": DatasetSpec("blobs-4c-hard", 4, 700, (6, 6, 1), 1.0, 104),
    "blobs-5c-easy": DatasetSpec("blobs-5c-easy", 5, 300, (6, 6, 1), 0.0, 105),
    "blobs-10c-mid": DatasetSpec("blobs-10c-mid", 10, 250, (8, 8, 1), 0.3, 106),
}
# a field annotated with the registry's ids is checked against it
DatasetId = Literal[tuple(BUILTIN_DATASETS)]


@dataclass
class Dataset:
    """Immutable-by-convention sample store; splits/subsets create views."""

    spec: DatasetSpec
    inputs: np.ndarray          # (n,) + input_shape, float64
    labels: np.ndarray          # (n,), int32
    role: str = "train"         # train | query | test
    sample_ids: np.ndarray = field(default=None)  # provenance into the source set
    class_map: dict[int, int] | None = None       # original label -> re-indexed

    def __post_init__(self):
        if self.sample_ids is None:
            self.sample_ids = np.arange(len(self.labels))

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def class_count(self) -> int:
        return self.spec.class_count

    def flat_inputs(self) -> np.ndarray:
        return self.inputs.reshape(len(self), -1)

    def class_mean(self, label: int) -> np.ndarray:
        mask = self.labels == label
        if not mask.any():
            raise ValueError(f"no samples with label {label}")
        return self.inputs[mask].mean(axis=0)


def _prototypes(spec: DatasetSpec, rng: np.random.Generator) -> np.ndarray:
    """Prototype image per class after applying the overlap knob: the first
    draws of a dataset's generator."""
    protos = rng.standard_normal((spec.class_count,) + tuple(spec.input_shape))
    common = protos.mean(axis=0)
    return (1.0 - spec.overlap) * protos + spec.overlap * common


def class_prototypes(spec: DatasetSpec) -> np.ndarray:
    """Prototype image per class after applying the overlap knob."""
    return _prototypes(spec, np.random.default_rng(spec.seed))


def generate(spec: DatasetSpec) -> Dataset:
    """Deterministic sampling: same spec, same bytes."""
    rng = np.random.default_rng(spec.seed)
    protos = _prototypes(spec, rng)
    n = spec.class_count * spec.samples_per_class
    labels = np.repeat(np.arange(spec.class_count), spec.samples_per_class)
    noise = rng.standard_normal((n,) + tuple(spec.input_shape))
    inputs = protos[labels] + spec.noise * noise
    perm = rng.permutation(n)
    return Dataset(spec=spec, inputs=inputs[perm],
                   labels=labels[perm].astype(np.int32), role="train")


def query_rows(n: int, query_fraction: float) -> int:
    """How many of a class's `n` rows :func:`split` puts in the query set:
    the rounded share, but at least one and at most n - 1 when n > 1."""
    n_q = int(round(query_fraction * n))
    return min(max(n_q, 1), n - 1) if n > 1 else n_q


def split(dataset: Dataset, query_fraction: float, seed: int):
    """Label-stratified disjoint partition into (query, test)."""
    check_value("query_fraction", query_fraction, QueryFraction)
    rng = np.random.default_rng(seed)
    query_idx, test_idx = [], []
    for label in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == label)
        idx = idx[rng.permutation(len(idx))]
        n_q = query_rows(len(idx), query_fraction)
        query_idx.append(idx[:n_q])
        test_idx.append(idx[n_q:])
    q = np.concatenate(query_idx)
    t = np.concatenate(test_idx)
    return (
        Dataset(dataset.spec, dataset.inputs[q], dataset.labels[q], "query",
                dataset.sample_ids[q], dataset.class_map),
        Dataset(dataset.spec, dataset.inputs[t], dataset.labels[t], "test",
                dataset.sample_ids[t], dataset.class_map),
    )


def subset_classes(dataset: Dataset, k: int, seed: int) -> Dataset:
    """Random k-class restriction; labels re-indexed 0..k-1 in selection order."""
    if not 2 <= k <= dataset.class_count:
        raise ValueError(
            f"k must lie in [2, {dataset.class_count}], got {k}")
    chosen = np.random.default_rng(seed).choice(dataset.class_count, size=k,
                                                replace=False)
    return restrict_to_classes(dataset, chosen.tolist())


def restrict_to_classes(dataset: Dataset, classes) -> Dataset:
    """Keep only the named classes, re-indexed by their position in `classes`."""
    classes = tuple(classes)
    bad = [c for c in classes if not 0 <= c < dataset.class_count]
    if bad or len(set(classes)) != len(classes):
        raise ValueError(
            f"invalid class selection {classes} of dataset {dataset.spec.id!r} "
            f"with {dataset.class_count} classes")
    class_map = {int(old): new for new, old in enumerate(classes)}
    mask = np.isin(dataset.labels, classes)
    labels = np.array([class_map[int(l)] for l in dataset.labels[mask]],
                      dtype=np.int32)
    spec = replace(dataset.spec, id=f"{dataset.spec.id}-sub{len(classes)}",
                   class_count=len(classes))
    return Dataset(spec, dataset.inputs[mask], labels, dataset.role,
                   dataset.sample_ids[mask], class_map)


# ---------------------------------------------------------------------------
# complexity scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    csg: float
    eigenvalues: tuple[float, ...]
    overlap_matrix: np.ndarray


def overlap_matrix(flat: np.ndarray, labels: np.ndarray, class_count: int,
                   monte_carlo_samples: int, k_neighbors: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo class-overlap estimate.

    Row i is the mean, over sampled points of class i, of the fraction of each
    point's k nearest pooled neighbors (self excluded) landing in class j.
    Rows are explicitly re-normalized to sum to one.
    """
    w = np.zeros((class_count, class_count))
    for c in range(class_count):
        members = np.flatnonzero(labels == c)
        take = min(monte_carlo_samples, len(members))
        picked = members[rng.choice(len(members), size=take, replace=False)]
        for p in picked:
            d2 = np.sum((flat - flat[p]) ** 2, axis=1)
            d2[p] = np.inf
            nearest = np.argpartition(d2, k_neighbors)[:k_neighbors]
            for lbl in labels[nearest]:
                w[c, lbl] += 1.0
        w[c] /= take * k_neighbors
    return w / w.sum(axis=1, keepdims=True)


def spectral_gradient(w: np.ndarray, class_count: int):
    """Eigen-spectrum of the symmetric normalized Laplacian of the overlap
    graph, and the class-count-scaled cumulative gap between neighbors."""
    s = 0.5 * (w + w.T)
    d = s.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(d, 1e-12))
    lap = np.eye(class_count) - inv_sqrt[:, None] * s * inv_sqrt[None, :]
    eig = np.linalg.eigvalsh(lap)
    csg = class_count * float(np.sum(np.maximum(0.0, np.diff(eig))))
    return eig, csg


def csg_complexity(dataset: Dataset, monte_carlo_samples: int = 100,
                   k_neighbors: int = 5, seed: int = 0) -> ComplexityReport:
    """Dataset separability score; higher means harder.

    Pipeline: flatten samples, Monte-Carlo estimate the class-overlap matrix
    from pooled k-NN memberships, form the symmetric normalized Laplacian,
    and accumulate the non-negative gaps of its sorted spectrum scaled by the
    class count. Deterministic under `seed`.
    """
    counts = np.bincount(dataset.labels, minlength=dataset.class_count)
    lacking = np.flatnonzero(counts < k_neighbors)
    if lacking.size:
        raise ValueError(
            f"class(es) {lacking.tolist()} have fewer than k_neighbors="
            f"{k_neighbors} samples")
    rng = np.random.default_rng(seed)
    w = overlap_matrix(dataset.flat_inputs(), dataset.labels,
                       dataset.class_count, monte_carlo_samples, k_neighbors, rng)
    eig, csg = spectral_gradient(w, dataset.class_count)
    return ComplexityReport(csg=csg, eigenvalues=tuple(float(e) for e in eig),
                            overlap_matrix=w)


# ---------------------------------------------------------------------------
# cache files
# ---------------------------------------------------------------------------

def write_entry(final, files: dict[str, bytes]) -> Path:
    """Publish a cache entry holding `files` (name -> bytes) at `final`.

    The files are written into a temp directory beside `final`, which is
    then renamed into place, so a crash mid-write leaves no half entry. A
    cache entry's content is a function of its name, so if `final` already
    exists another writer won: keep its entry and discard ours. No entry is
    ever removed here, so a reader never sees one half gone.
    """
    final = Path(final)
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=final.name + ".tmp", dir=final.parent))
    try:
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        try:
            os.rename(tmp, final)
        except OSError as exc:
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final


def discard_entry(entry: Path) -> None:
    """Remove a (corrupt) cache entry: rename it aside atomically, then
    delete it, so a writer that publishes at the same time is not touched.
    An entry that is already gone is fine."""
    aside = Path(tempfile.mkdtemp(prefix=entry.name + ".discard",
                                  dir=entry.parent))
    try:
        os.rename(entry, aside)  # onto the empty directory, atomically
    except FileNotFoundError:
        pass
    shutil.rmtree(aside, ignore_errors=True)


# meta.json, in the order it is written
@dataclass
class _Meta(Checked):
    spec: dict  # the dataset's spec document, compared with the caller's
    role: str
    count: int


def save_dataset(dataset: Dataset, directory) -> Path:
    """Write atomically; an entry already at `directory` is kept (see
    :func:`write_entry`)."""
    meta = _Meta(to_doc(dataset.spec), dataset.role, len(dataset))
    return write_entry(directory, {
        "meta.json": json.dumps(to_doc(meta), indent=2).encode(),
        "samples.bin": np.ascontiguousarray(dataset.inputs,
                                            dtype="<f8").tobytes(),
        "labels.bin": np.ascontiguousarray(dataset.labels,
                                           dtype="<i4").tobytes()})


def load_dataset(directory, spec: DatasetSpec) -> Dataset:
    """The entry at `directory`, which must hold `spec`'s samples: an entry
    whose meta.json echoes another spec, or is not exactly a meta document,
    is corrupt (ValueError)."""
    directory = Path(directory)
    try:
        meta = from_doc(_Meta, json.loads((directory / "meta.json").read_text()))
        if not is_doc_of(meta.spec, spec):
            raise ValueError(f"its spec is not the {spec.id!r} spec asked for")
    except ValueError as exc:
        raise ValueError(f"corrupt dataset cache at {directory}: unreadable "
                         f"meta.json ({type(exc).__name__}: {exc})") from exc
    shape = (meta.count, *spec.input_shape)
    inputs = np.frombuffer((directory / "samples.bin").read_bytes(),
                           dtype="<f8")
    if inputs.size != math.prod(shape):
        raise ValueError(f"corrupt dataset cache at {directory}: sample count "
                         f"mismatch")
    labels = np.frombuffer((directory / "labels.bin").read_bytes(), dtype="<i4")
    if labels.size != meta.count:
        raise ValueError(f"corrupt dataset cache at {directory}: label count "
                         f"mismatch")
    if np.any((labels < 0) | (labels >= spec.class_count)):
        raise ValueError(f"corrupt dataset cache at {directory}: label "
                         f"outside [0, {spec.class_count})")
    return Dataset(spec, np.asarray(inputs, dtype=np.float64).reshape(shape),
                   np.asarray(labels, dtype=np.int32), meta.role)
