"""Synthetic data generation, splits, and the CSG complexity score.

The CSG tests carry their own exhaustive (non-Monte-Carlo) class-overlap
oracle: every point of every class is scanned with a brute-force neighbor
search, and the spectral summary is recomputed along an independent path.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from extractbench.datasets import (
    DatasetSpec,
    class_prototypes,
    csg_complexity,
    discard_entry,
    generate,
    restrict_to_classes,
    save_dataset,
    split,
    subset_classes,
    write_entry,
)
from extractbench.fields import to_doc

from conftest import relabelling, rows


def spec_for(classes=4, per_class=60, shape=(4, 4, 1), overlap=0.0, seed=0):
    return DatasetSpec("t", classes, per_class, shape, overlap, seed)


def exhaustive_csg(dataset, k_neighbors):
    """Independent oracle: full neighbor scan, no sampling."""
    flat = dataset.flat_inputs()
    n = len(dataset)
    classes = dataset.class_count
    w = np.zeros((classes, classes))
    for c in range(classes):
        members = np.flatnonzero(dataset.labels == c)
        for p in members:
            d2 = ((flat - flat[p]) ** 2).sum(axis=1)
            d2[p] = np.inf
            nearest = np.argsort(d2)[:k_neighbors]
            for lbl in dataset.labels[nearest]:
                w[c, lbl] += 1
        w[c] /= len(members) * k_neighbors
    w = w / w.sum(axis=1, keepdims=True)
    s = 0.5 * (w + w.T)
    deg = s.sum(axis=1)
    lap = np.eye(classes) - s / np.sqrt(np.outer(deg, deg))
    eig = np.sort(np.linalg.eigvalsh(lap))
    return classes * float(np.sum(np.maximum(0.0, np.diff(eig)))), w


class TestGenerate:
    def test_full_overlap_collapses_prototypes(self):
        protos = class_prototypes(spec_for(overlap=1.0))
        assert np.abs(protos - protos[0]).max() < 1e-12

    def test_separated_classes_solved_by_nearest_prototype(self):
        spec = spec_for(classes=2, per_class=200, shape=(6, 6, 1), overlap=0.0,
                        seed=3)
        data = generate(spec)
        protos = class_prototypes(spec).reshape(2, -1)
        flat = data.flat_inputs()
        pred = np.argmin(((flat[:, None, :] - protos[None]) ** 2).sum(-1),
                         axis=1)
        assert np.mean(pred == data.labels) >= 0.99

    def test_same_spec_identical_datasets(self):
        a = generate(spec_for(seed=9))
        b = generate(spec_for(seed=9))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_within_range(self):
        data = generate(spec_for(classes=5))
        assert data.labels.min() >= 0 and data.labels.max() < 5


class TestSplit:
    def test_half_split_is_stratified(self):
        data = generate(spec_for(classes=10, per_class=10))
        q, t = split(data, 0.5, seed=1)
        assert len(q) == len(t) == 50
        for c in range(10):
            assert (q.labels == c).sum() == 5
            assert (t.labels == c).sum() == 5

    def test_disjoint_and_conserving(self):
        data = generate(spec_for(classes=3, per_class=21))
        q, t = split(data, 0.4, seed=2)
        assert len(set(rows(data))) == len(data)
        assert set(rows(q)).isdisjoint(rows(t))
        assert len(q) + len(t) == len(data)
        assert sorted(rows(q) + rows(t)) == sorted(rows(data))
        # each row keeps its label
        assert relabelling(data, q) | relabelling(data, t) == {
            (c, c) for c in range(3)}

    def test_different_seeds_differ(self):
        data = generate(spec_for(classes=4, per_class=40))
        q1, _ = split(data, 0.5, seed=1)
        q2, _ = split(data, 0.5, seed=2)
        assert len(q1) == len(q2)
        assert set(rows(q1)) != set(rows(q2))

    def test_fraction_bounds(self):
        data = generate(spec_for())
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="query_fraction"):
                split(data, bad, seed=0)


class TestSubsetClasses:
    def test_full_k_is_permutation_relabel(self):
        data = generate(spec_for(classes=6, per_class=15))
        sub = subset_classes(data, 6, seed=3)
        assert len(sub) == len(data)
        assert sorted(rows(sub)) == sorted(rows(data))
        pairs = relabelling(data, sub)
        assert len(pairs) == 6
        assert sorted(old for old, _ in pairs) == list(range(6))
        assert sorted(new for _, new in pairs) == list(range(6))

    def test_two_of_ten_size(self):
        data = generate(spec_for(classes=10, per_class=30))
        sub = subset_classes(data, 2, seed=4)
        assert len(sub) == 2 * 30
        assert set(sub.labels) == {0, 1}

    def test_reindex_map_is_bijection(self):
        data = generate(spec_for(classes=7, per_class=10))
        sub = subset_classes(data, 4, seed=5)
        pairs = relabelling(data, sub)
        assert len(pairs) == 4
        assert len({old for old, _ in pairs}) == 4
        assert sorted(new for _, new in pairs) == [0, 1, 2, 3]

    def test_k_out_of_range(self):
        data = generate(spec_for(classes=4))
        for bad in (1, 5):
            with pytest.raises(ValueError, match="k must"):
                subset_classes(data, bad, seed=0)

    def test_restrict_to_classes_follows_order(self):
        data = generate(spec_for(classes=5, per_class=12))
        sub = restrict_to_classes(data, (3, 0))
        assert relabelling(data, sub) == {(3, 0), (0, 1)}
        assert len(sub) == 24


class TestCsg:
    def test_matches_exhaustive_oracle_on_overlapping_data(self):
        data = generate(spec_for(classes=3, per_class=50, overlap=1.0, seed=6))
        oracle, _ = exhaustive_csg(data, 5)
        # sampling budget covers every point, so only tie-handling can differ
        report = csg_complexity(data, monte_carlo_samples=50, k_neighbors=5,
                                seed=0)
        assert report.csg == pytest.approx(oracle, rel=0.05)

    def test_separated_classes_have_zero_off_diagonal(self):
        data = generate(spec_for(classes=2, per_class=40, shape=(6, 6, 1),
                                 overlap=0.0, seed=7))
        report = csg_complexity(data, 40, 5, seed=1)
        assert report.overlap_matrix[0, 1] == 0.0
        assert report.overlap_matrix[1, 0] == 0.0
        _, oracle_w = exhaustive_csg(data, 5)
        assert oracle_w[0, 1] == 0.0

        hard = generate(spec_for(classes=2, per_class=40, shape=(6, 6, 1),
                                 overlap=1.0, seed=7))
        hard_report = csg_complexity(hard, 40, 5, seed=1)
        assert report.csg < hard_report.csg  # minimum over the knob pair

    def test_monotone_in_overlap_knob(self):
        medians = {}
        for overlap in (0.0, 0.5, 1.0):
            vals = []
            for seed in range(5):
                data = generate(spec_for(classes=4, per_class=60,
                                         overlap=overlap, seed=100 + seed))
                vals.append(csg_complexity(data, 100, 5, seed=seed).csg)
            medians[overlap] = np.median(vals)
        assert medians[0.0] < medians[0.5] < medians[1.0]

    def test_row_stochastic_overlap_matrix(self):
        data = generate(spec_for(classes=4, per_class=30, overlap=0.8, seed=8))
        report = csg_complexity(data, 20, 4, seed=2)
        assert np.allclose(report.overlap_matrix.sum(axis=1), 1.0, atol=1e-6)
        assert report.eigenvalues == tuple(sorted(report.eigenvalues))

    def test_deterministic_under_seed(self):
        data = generate(spec_for(classes=3, per_class=40, overlap=0.6, seed=9))
        a = csg_complexity(data, 20, 5, seed=3)
        b = csg_complexity(data, 20, 5, seed=3)
        assert a.csg == b.csg
        assert np.array_equal(a.overlap_matrix, b.overlap_matrix)

    def test_small_class_rejected(self):
        data = generate(spec_for(classes=3, per_class=4))
        with pytest.raises(ValueError, match="k_neighbors"):
            csg_complexity(data, 10, k_neighbors=5, seed=0)

    def test_monte_carlo_converges_toward_exhaustive(self):
        data = generate(spec_for(classes=4, per_class=100, overlap=0.7,
                                 seed=10))
        oracle, _ = exhaustive_csg(data, 5)
        deviations = {}
        for mc in (10, 40):
            devs = [abs(csg_complexity(data, mc, 5, seed=s).csg - oracle)
                    for s in range(9)]
            deviations[mc] = np.median(devs)
        # quadrupling the sampling budget should at least halve the deviation
        assert deviations[40] <= 0.6 * deviations[10] + 1e-9


class TestCacheFiles:
    def test_artifact_layout(self, tmp_path):
        data = generate(spec_for(classes=3, per_class=20, seed=11))
        save_dataset(data, tmp_path / "d")
        meta = (tmp_path / "d" / "meta.json").read_text()
        assert meta == json.dumps({"spec": to_doc(data.spec), "count": 60},
                                  indent=2)
        assert (tmp_path / "d" / "samples.bin").read_bytes() == \
            data.inputs.astype("<f8").tobytes()
        assert (tmp_path / "d" / "labels.bin").read_bytes() == \
            data.labels.astype("<i4").tobytes()

    def test_interrupted_save_leaves_old_entry_and_no_debris(self, tmp_path,
                                                             monkeypatch):
        write_entry(tmp_path / "d", {"a": b"old", "b": b"old"})
        real_write = Path.write_bytes

        def failing_write(path, data):
            if path.name == "b":
                raise OSError("disk full")
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing_write)
        with pytest.raises(OSError, match="disk full"):
            write_entry(tmp_path / "d", {"a": b"new", "b": b"new"})
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert (tmp_path / "d" / "a").read_bytes() == b"old"

    def test_save_keeps_an_existing_entry_and_leaves_no_debris(self, tmp_path):
        # an entry's content is a function of its name, so one already in
        # place was put there by another writer of the same content
        write_entry(tmp_path / "d", {"a": b"first"})
        write_entry(tmp_path / "d", {"a": b"second"})
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert (tmp_path / "d" / "a").read_bytes() == b"first"

    def test_discard_entry(self, tmp_path):
        write_entry(tmp_path / "d", {"a": b"x"})
        discard_entry(tmp_path / "d")
        assert list(tmp_path.iterdir()) == []
        discard_entry(tmp_path / "d")  # already gone: nothing to do
        assert list(tmp_path.iterdir()) == []
