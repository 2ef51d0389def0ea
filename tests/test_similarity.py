"""Fidelity, PWCCA (QR-SVD oracle-checked), noise curves, distillation."""

import json

import numpy as np
import pytest

from extractbench.datasets import split
from extractbench.fields import to_doc
from extractbench.network import TrainConfig, train
from extractbench.similarity import (
    DistillConfig,
    accuracy,
    collect_activations,
    default_probe_point,
    distill,
    equivalency_report,
    fidelity,
    layer_noise_sensitivity,
    pwcca_distance,
)
from extractbench.zoo import build_model, builtin_spec

from conftest import make_blobs, same_bits, trained_model


def canonical_correlations_oracle(a, b):
    """Independent CCA oracle: QR-orthonormalize both views, SVD the overlap."""
    qa, _ = np.linalg.qr(a - a.mean(axis=0))
    qb, _ = np.linalg.qr(b - b.mean(axis=0))
    return np.linalg.svd(qa.T @ qb, compute_uv=False)


class TestFidelity:
    def test_self_agreement(self, blobs4):
        out = trained_model("mini-mlp-2", blobs4, epochs=2).predict(blobs4.inputs)
        assert fidelity(out, out) == 1.0

    def test_definitional_ratio(self):
        n, k = 100, 3
        rng = np.random.default_rng(0)
        pa = rng.dirichlet(np.ones(k), size=n)
        pb = pa.copy()
        flip = rng.choice(n, size=17, replace=False)  # disagree on 17 of 100
        for i in flip:
            top = pa[i].argmax()
            other = (top + 1) % k
            pb[i] = 0.0
            pb[i, other] = 1.0
        got = fidelity(pa, pb)
        assert got == pytest.approx(0.83)

    def test_constant_model_frequency(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=4)
        probs = model.predict(blobs4.inputs)
        const = np.zeros_like(probs)
        const[:, 2] = 1.0
        expected = np.mean(probs.argmax(1) == 2)
        got = fidelity(const, probs)
        assert got == pytest.approx(expected)

    def test_symmetric(self, blobs4):
        a = trained_model("mini-mlp-2", blobs4, epochs=2, seed=1)
        b = trained_model("mini-mlp-2", blobs4, epochs=2, seed=2)
        oa, ob = a.predict(blobs4.inputs), b.predict(blobs4.inputs)
        assert fidelity(oa, ob) == pytest.approx(fidelity(ob, oa))

    def test_width_mismatch_rejected(self, blobs4):
        with pytest.raises(ValueError, match="shapes differ"):
            fidelity(np.ones((4, 3)) / 3, np.ones((4, 5)) / 5)

    def test_empty_set_rejected(self, blobs4):
        with pytest.raises(ValueError, match="empty"):
            fidelity(np.zeros((0, 4)), np.zeros((0, 4)))

    def test_output_rows_of_another_set_rejected(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        rows = model.predict(blobs4.inputs[:10])
        with pytest.raises(ValueError, match="shapes differ"):
            fidelity(rows, model.predict(blobs4.inputs))
        with pytest.raises(ValueError, match="10 output rows"):
            accuracy(rows, blobs4)


class TestPwcca:
    def test_self_distance_negligible(self):
        a = np.random.default_rng(0).standard_normal((300, 8))
        assert pwcca_distance(a, a) < 1e-6

    def test_invariant_under_invertible_map(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((400, 10))
        r = rng.standard_normal((10, 10))
        assert abs(np.linalg.det(r)) > 1e-6
        # oracle agrees the correlations are all 1
        rho = canonical_correlations_oracle(a, a @ r)
        assert np.min(rho) > 1 - 1e-9
        assert pwcca_distance(a, a @ r) < 1e-6

    def test_independent_views_near_one(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((500, 10))
        b = rng.standard_normal((500, 10))
        rho = canonical_correlations_oracle(a, b)
        got = pwcca_distance(a, b)
        assert got >= 1 - rho.max() - 1e-9  # lower bound from the oracle
        assert got > 0.8

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((60, 5))
            b = rng.standard_normal((60, 7))
            d = pwcca_distance(a, b)
            assert 0.0 <= d <= 1.0 + 1e-9

    def test_sample_count_precondition(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="samples"):
            pwcca_distance(rng.standard_normal((8, 10)),
                           rng.standard_normal((8, 10)))


class TestCollectActivations:
    def test_softmax_probe_rows_sum_to_one(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=2)
        acts = collect_activations(
            model.predict(blobs4.inputs[:12], model.output_id))
        assert np.allclose(acts.sum(axis=1), 1.0, atol=1e-9)

    def test_row_per_input_and_determinism(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=2)
        probe = default_probe_point(model)
        acts = collect_activations(model.predict(blobs4.inputs[:9], probe))
        assert acts.shape[0] == 9
        dup = np.repeat(blobs4.inputs[:1], 4, axis=0)
        rows = collect_activations(model.predict(dup, probe))
        assert np.array_equal(rows, np.repeat(rows[:1], 4, axis=0))

    def test_conv_activation_is_flattened_per_row(self, blobs4):
        model = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 4), seed=0)
        # a conv layer's (n, H, W, C) activation
        _, rows = model.predict_and_probe(blobs4.inputs[:20],
                                          model.order[0].node_id)
        assert rows.ndim == 4
        assert same_bits(collect_activations(rows), rows.reshape(20, -1))

    def test_unknown_probe_rejected(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        with pytest.raises(KeyError, match="probe"):
            model.predict(blobs4.inputs[:3], "nope")

    def test_default_probe_is_pre_softmax(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        assert default_probe_point(model) == "head"


class TestLayerNoiseSensitivity:
    def test_zero_magnitude_equals_baseline_exactly(self, blobs4_split):
        _, test = blobs4_split
        model = trained_model("mini-mlp-2", test, epochs=4)
        baseline = accuracy(model.predict(test.inputs), test)
        curves = layer_noise_sensitivity(model, test, [0.0, 1.0], trials=2,
                                         seed=0)
        assert np.all(curves.accuracy[:, 0] == baseline)

    def test_weights_restored_bit_exactly(self, blobs4_split):
        _, test = blobs4_split
        model = trained_model("mini-vgg-4", test, epochs=2)
        before = model.state_vector()
        layer_noise_sensitivity(model, test, [0.0, 0.5, 2.0], trials=2, seed=1)
        assert np.array_equal(model.state_vector(), before)

    def test_magnitudes_must_start_at_zero(self, blobs4_split):
        _, test = blobs4_split
        model = trained_model("mini-mlp-2", test, epochs=1)
        with pytest.raises(ValueError, match="start at 0"):
            layer_noise_sensitivity(model, test, [0.5, 1.0], trials=1, seed=0)

    def test_median_curve_non_increasing(self, blobs4_split):
        _, test = blobs4_split
        model = trained_model("mini-mlp-2", test, epochs=8)
        curves = layer_noise_sensitivity(model, test, [0.0, 0.5, 1.0, 2.0, 4.0],
                                         trials=5, seed=2)
        med = np.median(curves.accuracy, axis=0)
        assert all(med[i + 1] <= med[i] + 0.02 for i in range(len(med) - 1))


class TestDistill:
    def test_alpha_one_is_exactly_ordinary_training(self):
        data = make_blobs(classes=3, per_class=60, shape=(4, 4, 1), seed=80)
        teacher = trained_model("mini-mlp-2", data, epochs=6, seed=1)
        spec = builtin_spec("mini-mlp-2", data.spec.input_shape, 3)
        cfg = DistillConfig(student_architecture="mini-mlp-2", temperature=3.0,
                            hard_label_weight=1.0,
                            distill_train=TrainConfig(epochs=5, seed=9))
        student = distill(teacher.predict(data.inputs), cfg, data)

        reference = build_model(spec, seed=9)
        train(reference, data.inputs, data.labels,
              TrainConfig(epochs=5, seed=9))
        assert np.array_equal(student.state_vector(), reference.state_vector())

    def test_out_of_range_hard_label_rejected(self):
        data = make_blobs(classes=3, per_class=10, shape=(4, 4, 1), seed=84)
        teacher = trained_model("mini-mlp-2", data, epochs=1, seed=1)
        rows = teacher.predict(data.inputs)
        data.labels[4] = 3  # the teacher and the student have 3 classes
        for weight in (0.5, 1.0):
            cfg = DistillConfig("mini-mlp-2", hard_label_weight=weight,
                                distill_train=TrainConfig(epochs=1, seed=9))
            with pytest.raises(ValueError, match="label range"):
                distill(rows, cfg, data)
        cfg = DistillConfig("mini-mlp-2", hard_label_weight=0.0,
                            distill_train=TrainConfig(epochs=1, seed=9))
        distill(rows, cfg, data)  # soft targets alone read no label

    def test_self_distillation_reaches_high_fidelity(self):
        data = make_blobs(classes=3, per_class=150, shape=(4, 4, 1),
                          overlap=0.2, seed=81)
        teacher = trained_model("mini-mlp-2", data, epochs=15, seed=2)
        cfg = DistillConfig("mini-mlp-2", temperature=1.0,
                            hard_label_weight=0.0,
                            distill_train=TrainConfig(epochs=40, seed=4))
        out = teacher.predict(data.inputs)
        student = distill(out, cfg, data)
        assert fidelity(student.predict(data.inputs), out) >= 0.9

    def test_student_does_not_beat_teacher_by_much(self):
        data = make_blobs(classes=4, per_class=150, shape=(6, 6, 1),
                          overlap=0.4, seed=82)
        train_set, test = split(data, 0.7, seed=1)
        teacher = trained_model("mini-vgg-4", train_set, epochs=12, seed=3)
        cfg = DistillConfig("mini-student-cnn",
                            distill_train=TrainConfig(epochs=20, seed=5))
        student = distill(teacher.predict(train_set.inputs), cfg, train_set)
        assert (accuracy(student.predict(test.inputs), test)
                <= accuracy(teacher.predict(test.inputs), test) + 0.05)

    @pytest.mark.parametrize("weight", [0.0, 0.3])
    def test_teacher_rows_of_another_set_rejected(self, weight):
        data = make_blobs(classes=3, per_class=20, shape=(4, 4, 1), seed=86)
        teacher = trained_model("mini-mlp-2", data, epochs=2, seed=1)
        cfg = DistillConfig("mini-mlp-2", temperature=2.0,
                            hard_label_weight=weight,
                            distill_train=TrainConfig(epochs=2, seed=7))
        with pytest.raises(ValueError, match="59 teacher output rows for 60"):
            distill(teacher.predict(data.inputs[:-1]), cfg, data)


class TestEquivalencyReport:
    def test_target_vs_itself(self):
        data = make_blobs(classes=3, per_class=120, shape=(4, 4, 1), seed=84)
        target = trained_model("mini-mlp-2", data, epochs=6, seed=1)
        cfg = DistillConfig("mini-student-cnn",
                            distill_train=TrainConfig(epochs=8, seed=2))
        twin = build_model(target.spec, seed=0)
        twin.load_state_vector(target.state_vector())
        metrics, (pa, pb) = equivalency_report(target, twin, data, cfg)
        assert metrics["fidelity"] == 1.0
        assert metrics[f"pwcca_{pa}:{pb}"] < 1e-6
        assert metrics["distilled_pwcca"] < 1e-6

    def test_metrics_and_distill_config_document(self):
        data = make_blobs(classes=3, per_class=120, shape=(4, 4, 1), seed=85)
        target = trained_model("mini-mlp-2", data, epochs=4, seed=1)
        stolen = trained_model("mini-mlp-2", data, epochs=4, seed=2)
        cfg = DistillConfig("mini-student-cnn", temperature=2.5,
                            hard_label_weight=0.3,
                            distill_train=TrainConfig(epochs=6, seed=3))
        metrics, probes = equivalency_report(target, stolen, data, cfg)
        assert probes == ("head", "head")
        assert list(metrics) == ["fidelity", "accuracy_target",
                                 "accuracy_stolen", "distilled_pwcca",
                                 "pwcca_head:head"]
        # the artifact's echo is the config's document, keys in field order
        assert json.dumps(to_doc(cfg)) == json.dumps({
            "student_architecture": "mini-student-cnn", "temperature": 2.5,
            "hard_label_weight": 0.3,
            "distill_train": {"learning_rate": 0.01, "batch_size": 10,
                              "epochs": 6, "seed": 3}})
