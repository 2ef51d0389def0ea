"""Query extraction and inversion, with closed-form/grid-search oracles."""

import re

import numpy as np
import pytest

from extractbench.datasets import DatasetSpec, Dataset, generate, split, subset_classes
from extractbench.network import Network, TrainConfig, train
from extractbench.query_attacks import (
    GradientHandle,
    InversionConfig,
    KnockoffConfig,
    QueryHandle,
    ThreatModel,
    build_stolen_dataset,
    cosine_similarity,
    invert_classes,
    knockoff_extract,
    miface_invert,
    save_pgm,
    staged_inversion_study,
)
from extractbench.similarity import fidelity
from extractbench.zoo import builtin_spec, build_model

from conftest import ARCH_CHOICES, make_blobs, rows, same_bits, trained_model


def linear_softmax(data, seed=0, epochs=15):
    spec = builtin_spec("mini-mlp-1", data.spec.input_shape, data.class_count)
    model = build_model(spec, seed=seed)
    train(model, data.inputs, data.labels, TrainConfig(epochs=epochs, seed=seed))
    return model, spec


class TestThreatModel:
    def test_domination_semantics(self):
        need_aux = ThreatModel("hidden", "none", "partial")
        assert ThreatModel("hidden", "none", "partial").dominates(need_aux) == []
        assert ThreatModel("observed", "partial", "partial").dominates(need_aux) == []
        missing = ThreatModel("hidden", "none", "none").dominates(need_aux)
        assert len(missing) == 1 and "auxiliary" in missing[0]

        side = ThreatModel("observed", "partial", "none")
        violations = ThreatModel("hidden", "none", "none").dominates(side)
        assert len(violations) == 2

    def test_invalid_values_rejected(self):
        for grants, bad, choices in [
                (("full", "none", "none"), "model_knowledge", '"hidden", "observed"'),
                (("hidden", "full", "none"), "system_knowledge", '"none", "partial"'),
                (("hidden", "none", "full"), "aux_dataset", '"none", "partial"')]:
            with pytest.raises(ValueError, match=re.escape(
                    f'unknown {bad} "full" (one of [{choices}])') + "$"):
                ThreatModel(*grants)
        with pytest.raises(ValueError, match=r'^unknown output_mode "logits" '
                                             r'\(one of \["confidence_vector", '
                                             r'"top1_label"\]\)$'):
            KnockoffConfig(10, output_mode="logits")
        with pytest.raises(ValueError, match=r'^unknown init_mode "zeros" \(one '
                                             r'of \["auxiliary_sample", "random"\]\)$'):
            InversionConfig(init_mode="zeros")
        # an optional field's value is checked too
        with pytest.raises(ValueError,
                           match='^unknown surrogate_architecture "x-net"'
                                 + re.escape(ARCH_CHOICES) + "$"):
            KnockoffConfig(10, surrogate_architecture="x-net")
        # the spec is the surrogate: a config naming another is refused
        data = make_blobs(classes=2, per_class=5, shape=(4, 4, 1))
        spec = builtin_spec("mini-mlp-1", (4, 4, 1), 2)
        with pytest.raises(ValueError, match="^surrogate_architecture "
                           "'mini-mlp-2' is not the surrogate spec's "
                           "'mini-mlp-1'$"):
            knockoff_extract(QueryHandle(build_model(spec, seed=0)), data, spec,
                             KnockoffConfig(10, surrogate_architecture="mini-mlp-2"))


class TestQueryHandle:
    def test_handle_exposes_prediction_only(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        handle = QueryHandle(model)
        public = [a for a in dir(handle) if not a.startswith("_")]
        assert public == ["output_width", "predict"]

    def test_predictions_are_distributions(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        probs = QueryHandle(model).predict(blobs4.inputs[:8])
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestBuildStolenDataset:
    def test_full_budget_covers_every_query(self, blobs4_split):
        queries, _ = blobs4_split
        model = trained_model("mini-mlp-2", queries, epochs=1)
        stolen = build_stolen_dataset(QueryHandle(model), queries,
                                      len(queries), seed=1)
        assert sorted(rows(stolen)) == sorted(rows(queries))

    def test_confidence_rows_sum_to_one(self, blobs4_split):
        queries, _ = blobs4_split
        model = trained_model("mini-mlp-2", queries, epochs=1)
        stolen = build_stolen_dataset(QueryHandle(model), queries, 50, seed=2)
        assert np.allclose(stolen.targets.sum(axis=1), 1.0, atol=1e-9)

    def test_label_mode_is_argmax_of_confidence_mode(self, blobs4_split):
        queries, _ = blobs4_split
        model = trained_model("mini-mlp-2", queries, epochs=1)
        handle = QueryHandle(model)
        conf = build_stolen_dataset(handle, queries, 40, "confidence_vector", 3)
        hard = build_stolen_dataset(handle, queries, 40, "top1_label", 3)
        # the labels `train` fits by cross-entropy
        assert hard.targets.dtype == np.int32
        assert np.array_equal(hard.targets, conf.targets.argmax(1))

    def test_budget_exceeding_queries_rejected(self, blobs4_split):
        queries, _ = blobs4_split
        model = trained_model("mini-mlp-2", queries, epochs=1)
        with pytest.raises(ValueError, match="exceeds query-set size"):
            build_stolen_dataset(QueryHandle(model), queries,
                                 len(queries) + 1, seed=0)

    def test_inputs_are_subset_of_queries(self, blobs4_split):
        queries, _ = blobs4_split
        model = trained_model("mini-mlp-2", queries, epochs=1)
        stolen = build_stolen_dataset(QueryHandle(model), queries, 30, seed=4)
        assert set(rows(stolen)).issubset(rows(queries))
        assert len(set(rows(stolen))) == 30  # without replacement


class TestKnockoffExtract:
    def test_linear_target_high_fidelity_with_direct_training_oracle(self):
        data = make_blobs(classes=3, per_class=200, shape=(4, 4, 1),
                          overlap=0.0, seed=50)
        queries, test = split(data, 0.7, seed=1)
        target, spec = linear_softmax(data, seed=5)

        # oracle: training the same architecture on TRUE labels reaches the
        # bar, and confidence vectors carry strictly more information
        oracle = build_model(spec, seed=9)
        train(oracle, queries.inputs, queries.labels,
              TrainConfig(epochs=20, seed=9))
        out_target = target.predict(test.inputs)
        assert fidelity(oracle.predict(test.inputs), out_target) >= 0.95

        cfg = KnockoffConfig(query_budget=len(queries),
                             recreate=TrainConfig(epochs=20, seed=9))
        stolen, _ = knockoff_extract(QueryHandle(target), queries, spec, cfg,
                                     seed=9)
        assert fidelity(stolen.predict(test.inputs), out_target) >= 0.95

    def test_fidelity_monotone_in_budget(self):
        budgets = (100, 500, 2000)
        per_seed = []
        for seed in range(3):
            data = generate(DatasetSpec("m", 4, 700, (6, 6, 1), 0.5,
                                        200 + seed))
            queries, test = split(data, 0.8, seed)
            target, spec = linear_softmax(data, seed=seed, epochs=12)
            handle = QueryHandle(target)
            fids = []
            for budget in budgets:
                cfg = KnockoffConfig(
                    query_budget=budget,
                    recreate=TrainConfig(epochs=15, seed=seed + 1))
                stolen, _ = knockoff_extract(handle, queries, spec, cfg,
                                             seed=seed + 2)
                fids.append(fidelity(stolen.predict(test.inputs),
                                     target.predict(test.inputs)))
            per_seed.append(fids)
        medians = np.median(np.array(per_seed), axis=0)
        assert medians[0] <= medians[1] <= medians[2]

    def test_two_class_subset_beats_ten_class_task(self):
        wins = []
        for seed in range(3):
            data = generate(DatasetSpec("c", 10, 160, (6, 6, 1), 0.5,
                                        300 + seed))
            budget = 150  # must fit inside the 2-class query pool

            def run(dataset):
                queries, test = split(dataset, 0.7, seed)
                target, spec = linear_softmax(dataset, seed=seed, epochs=12)
                cfg = KnockoffConfig(
                    query_budget=budget,
                    recreate=TrainConfig(epochs=15, seed=seed))
                stolen, _ = knockoff_extract(QueryHandle(target), queries,
                                             spec, cfg, seed=seed)
                return fidelity(stolen.predict(test.inputs),
                                target.predict(test.inputs))

            fid10 = run(data)
            fid2 = run(subset_classes(data, 2, seed=seed))
            wins.append((fid2, fid10))
        med2 = np.median([w[0] for w in wins])
        med10 = np.median([w[1] for w in wins])
        assert med2 >= med10


class TestMifaceInvert:
    def test_gradient_handle_asks_for_the_input_gradient_only(self, monkeypatch):
        model = build_model(builtin_spec("mini-vgg-4", (6, 6, 1), 3), seed=0)
        x = np.random.default_rng(0).standard_normal((6, 6, 1))
        model.forward(x[None])
        seed = np.zeros((1, 3))
        p_full = float(model.predict(x[None])[0, 1])
        seed[0, 1] = 1.0 / p_full
        expected = model.backward(seed)[0]
        flags = []
        real = Network.backward

        def recording(self, grad, **kwargs):
            flags.append(kwargs)
            return real(self, grad, **kwargs)

        monkeypatch.setattr(Network, "backward", recording)
        p, grad = GradientHandle(model).posterior_and_gradient(x[None], [1])
        assert flags == [{"weight_grads": False}]
        assert p.tolist() == [p_full]
        assert np.array_equal(grad[0], expected)

    def test_satisfied_threshold_returns_init(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=8)
        handle = GradientHandle(model)
        probs = model.predict(blobs4.inputs[:64])
        idx = int(probs[:, 0].argmax())  # a confidently-class-0 sample
        aux = Dataset(blobs4.spec, blobs4.inputs[idx:idx + 1],
                      np.array([0], dtype=np.int32))
        cfg = InversionConfig(posterior_threshold=float(probs[idx, 0]) * 0.99,
                              init_mode="auxiliary_sample")
        result = miface_invert(handle, cfg, 0, aux=aux, seed=0)
        assert result.success
        assert len(result.posterior_trace) == 1
        assert np.array_equal(result.reconstruction, aux.inputs[0])

    def test_linear_model_ascent_matches_grid_search_direction(self):
        data = make_blobs(classes=2, per_class=200, shape=(4, 4, 1),
                          overlap=0.0, seed=60)
        target, _ = linear_softmax(data, seed=4, epochs=10)
        handle = GradientHandle(target)
        cfg = InversionConfig(posterior_threshold=0.9, max_iterations=500,
                              step_size=0.05)
        result = miface_invert(handle, cfg, 0, seed=1)
        assert result.success

        w = target.weights["head"]["weight"]  # (16, 2)
        class_w = w[:, 0] - w.mean(axis=1)

        # grid-search oracle: the best fixed-radius direction for the class
        # posterior coincides with the class weight direction
        rng = np.random.default_rng(2)
        dirs = rng.standard_normal((4000, w.shape[0]))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        posteriors = target.predict(
            (3.0 * dirs).reshape(-1, 4, 4, 1))[:, 0]
        best = dirs[int(posteriors.argmax())]
        assert cosine_similarity(best, class_w) > 0.55  # coarse grid, 16-D

        assert cosine_similarity(result.reconstruction.reshape(-1),
                                 class_w) > 0.9

    def test_iteration_cap_gives_failure_and_trace_of_two(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=4)
        handle = GradientHandle(model)
        cfg = InversionConfig(posterior_threshold=1.0, max_iterations=1,
                              step_size=1e-9)
        result = miface_invert(handle, cfg, 0, seed=3)
        assert not result.success
        assert len(result.posterior_trace) == 2

    def test_trace_is_exact_posterior_sequence(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=4)
        handle = GradientHandle(model)
        cfg = InversionConfig(posterior_threshold=0.97, max_iterations=40,
                              step_size=0.2)
        result = miface_invert(handle, cfg, 1, seed=4)
        assert len(result.posterior_trace) <= 41
        assert result.success == (result.posterior_trace[-1] >= 0.97)
        final_p = model.predict(result.reconstruction[None])[0, 1]
        assert final_p == pytest.approx(result.posterior_trace[-1])

    def test_aux_init_requires_aux(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        cfg = InversionConfig(init_mode="auxiliary_sample")
        with pytest.raises(ValueError, match="aux"):
            miface_invert(GradientHandle(model), cfg, 0, aux=None)

    def test_negative_class_rejected(self, blobs4):
        # a negative index would pick a class from the end of the output
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        with pytest.raises(ValueError, match="^target_class must be >= 0$"):
            miface_invert(GradientHandle(model), InversionConfig(), -1, seed=0)

    def test_class_outside_width_rejected(self, blobs4):
        model = trained_model("mini-mlp-2", blobs4, epochs=1)
        with pytest.raises(ValueError, match="target_class"):
            miface_invert(GradientHandle(model), InversionConfig(), 9, seed=0)


def ascent_alone(model, config, target_class, seed, aux):
    """One class's ascent as a loop of ordinary 1-row passes, each a
    `forward` and a `backward` of its own: the oracle of the stacked form.
    Returns (reconstruction, posterior trace)."""
    rng = np.random.default_rng(seed)
    lo, hi = config.clamp_range
    if config.init_mode == "auxiliary_sample":
        members = np.flatnonzero(aux.labels == target_class)
        pool = members if members.size else np.arange(len(aux))
        x = aux.inputs[rng.choice(pool)].copy()
    else:
        x = 0.05 * rng.standard_normal(model.input_shape)
    x = np.clip(x, lo, hi)
    trace = []
    while True:
        probs = model.forward(x[None])
        p = max(float(probs[0, target_class]), 1e-300)
        trace.append(p)
        if p >= config.posterior_threshold or len(trace) > config.max_iterations:
            return x, trace
        seed_grad = np.zeros(probs.shape)
        seed_grad[0, target_class] = 1.0 / p
        grad = model.backward(seed_grad, weight_grads=False)[0]
        x = np.clip(x + config.step_size * grad, lo, hi)


class TestInvertClasses:
    """`invert_classes` steps every unfinished ascent in one stacked pass,
    and each class's result equals its ascent alone, in 1-row passes."""

    @pytest.fixture(scope="class")
    def data(self):
        return make_blobs(classes=4, per_class=200, shape=(6, 6, 1), seed=0)

    # thresholds at which the four ascents stop at different iterations, so
    # rows leave the stack one by one (vgg: one at its start, with aux init)
    @pytest.mark.parametrize("init_mode", ["random", "auxiliary_sample"])
    @pytest.mark.parametrize("arch_id,threshold",
                             [("mini-vgg-4", 0.6), ("mini-mlp-2", 0.9)])
    def test_each_class_equals_its_ascent_alone(self, data, arch_id, threshold,
                                                init_mode):
        model = trained_model(arch_id, data, epochs=2)
        cfg = InversionConfig(posterior_threshold=threshold, max_iterations=40,
                              init_mode=init_mode)
        classes, seeds = [0, 1, 2, 3], [5, 6, 7, 8]
        stacked = invert_classes(GradientHandle(model), cfg, classes, seeds,
                                 aux=data)
        singles = [miface_invert(GradientHandle(model), cfg, c, aux=data, seed=s)
                   for c, s in zip(classes, seeds)]
        iterations = set()
        for c, s, res, single in zip(classes, seeds, stacked, singles):
            x, trace = ascent_alone(model, cfg, c, s, data)
            for got in (res, single):
                assert same_bits(got.reconstruction, x), c
                assert got.posterior_trace == trace, c
                assert got.iterations == len(trace) - 1, c
                assert got.success == (trace[-1] >= threshold), c
            iterations.add(res.iterations)
        assert len(iterations) > 1


@pytest.fixture(scope="module")
def study():
    data = generate(DatasetSpec("s", 5, 300, (6, 6, 1), 0.0, 70))
    queries, test = split(data, 0.7, seed=2)
    target, spec = linear_softmax(data, seed=7, epochs=12)
    cfg = KnockoffConfig(query_budget=1,
                         recreate=TrainConfig(epochs=15, seed=3))
    inv = InversionConfig(posterior_threshold=0.999, max_iterations=300,
                          step_size=0.2)
    rows = staged_inversion_study(target, queries, test, [50, 600], spec,
                                  cfg, inv, seed=5)
    return rows, target, test, queries, spec, data


class TestStagedInversion:
    def test_zero_budget_rejected_before_work(self):
        data = make_blobs(classes=2, per_class=20, shape=(4, 4, 1), seed=71)
        target, spec = linear_softmax(data, seed=1, epochs=1)
        # each budget is checked as the query budget it becomes
        with pytest.raises(ValueError, match="^query_budget must be >= 1$"):
            staged_inversion_study(target, data, data, [0, 10], spec,
                                   KnockoffConfig(query_budget=1),
                                   InversionConfig(), seed=0)

    def test_unsorted_budgets_rejected(self):
        data = make_blobs(classes=2, per_class=20, shape=(4, 4, 1), seed=72)
        target, spec = linear_softmax(data, seed=1, epochs=1)
        with pytest.raises(ValueError, match="ascending"):
            staged_inversion_study(target, data, data, [10, 5], spec,
                                   KnockoffConfig(query_budget=1),
                                   InversionConfig(), seed=0)

    def test_reconstruction_beats_random_baseline(self, study):
        rows, target, test, *_ = study
        row = rows[-1]
        rng = np.random.default_rng(0)
        for cls, sim in row.class_similarity.items():
            mean_image = test.class_mean(cls)
            random_sims = [cosine_similarity(
                rng.standard_normal(mean_image.shape), mean_image)
                for _ in range(100)]
            assert sim > np.median(random_sims)

    def test_fidelity_column_matches_independent_recomputation(self, study):
        rows, target, test, queries, spec, _ = study
        row = rows[0]
        cfg = KnockoffConfig(query_budget=row.budget,
                             recreate=TrainConfig(epochs=15, seed=3))
        stolen, _ = knockoff_extract(QueryHandle(target), queries, spec, cfg,
                                     seed=5)
        assert fidelity(stolen.predict(test.inputs),
                        target.predict(test.inputs)) == pytest.approx(row.fidelity)

    def test_every_class_inverted(self, study):
        rows, target, *_ = study
        for row in rows:
            assert sorted(row.reconstructions) == list(range(5))


class TestPgmDump:
    def test_header_and_size(self, tmp_path):
        img = np.random.default_rng(0).standard_normal((6, 5, 1))
        path = save_pgm(img, tmp_path / "x.pgm")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n5 6\n255\n")
        assert len(raw) == len(b"P5\n5 6\n255\n") + 30
