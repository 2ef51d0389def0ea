"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every directional claim is
evaluated at desk scale against the stated seeds, medians and tolerances;
nothing here depends on wall-clock except the two explicit time budgets.
"""

import json
import time
from dataclasses import replace

import numpy as np

from extractbench.datasets import DatasetSpec, generate, split, subset_classes, csg_complexity
from extractbench.network import NodeSpec, TrainConfig, finite_difference_check, train
from extractbench.orchestrator import (
    default_workbench,
    execute,
    parse_scenario,
    run_batch,
    schedule,
    simulated_makespan,
    zoo_resolve,
)
from extractbench.query_attacks import (
    GradientHandle,
    InversionConfig,
    KnockoffConfig,
    QueryHandle,
    cosine_similarity,
    knockoff_extract,
    miface_invert,
)
from extractbench.sidechannel import (
    BUILTIN_MACHINE_PROFILES,
    EnvironmentProfile,
    ds_extract,
    ds_truth_sequence,
    dr_classify,
    fit_fingerprint_space,
    sequence_fidelity,
    simulate_kernel_trace,
    simulate_symbol_stream,
    train_ds_model,
)
from extractbench.similarity import (
    DistillConfig,
    equivalency_report,
    fidelity,
    layer_noise_sensitivity,
    pwcca_distance,
)
from extractbench.tensor import ConvParams, FCParams, PoolParams
from extractbench.tensor import OperatorKind as K
from extractbench.zoo import build_model, builtin_spec

from conftest import network_of

SHAPE = (8, 8, 1)
CONVENTIONAL = ("mini-vgg-4", "mini-vgg-6", "mini-resnet-4", "mini-resnet-6",
                "mini-dense-3", "mini-dense-4")


def _report(number, name, ok, detail=""):
    print(f"\n[criterion {number:02d}] {name}: "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _linear_target(data, seed, epochs=12):
    spec = builtin_spec("mini-mlp-1", data.spec.input_shape, data.class_count)
    model = build_model(spec, seed=seed)
    train(model, data.inputs, data.labels, TrainConfig(epochs=epochs, seed=seed))
    return model, spec


def _knockoff_fidelity(data, budget, seed, epochs_target=12, epochs_steal=15):
    queries, test = split(data, 0.8, seed)
    target, spec = _linear_target(data, seed, epochs_target)
    cfg = KnockoffConfig(query_budget=budget,
                         recreate=TrainConfig(epochs=epochs_steal,
                                              seed=seed + 1))
    stolen, _ = knockoff_extract(QueryHandle(target), queries, spec, cfg,
                                 seed=seed + 2)
    return fidelity(stolen.predict(test.inputs), target.predict(test.inputs))


def test_criterion_01_gradient_integrity():
    started = time.perf_counter()
    conv = ConvParams(2, (3, 3))
    per_kind = {
        K.RELU: ([NodeSpec("fc", K.FC, FCParams(6), ("input",)),
                  NodeSpec("op", K.RELU, None, ("fc",))], (5,)),
        K.GELU: ([NodeSpec("fc", K.FC, FCParams(6), ("input",)),
                  NodeSpec("op", K.GELU, None, ("fc",))], (5,)),
        K.SOFTMAX: ([NodeSpec("fc", K.FC, FCParams(6), ("input",)),
                     NodeSpec("op", K.SOFTMAX, None, ("fc",))], (5,)),
        K.FLATTEN: ([NodeSpec("c", K.CONV, conv, ("input",)),
                     NodeSpec("op", K.FLATTEN, None, ("c",))], (4, 4, 1)),
        K.FC: ([NodeSpec("op", K.FC, FCParams(4), ("input",))], (8,)),
        K.CONV: ([NodeSpec("op", K.CONV, replace(conv, out_channels=3),
                           ("input",))], (6, 6, 2)),
        K.MAXPOOL: ([NodeSpec("c", K.CONV, conv, ("input",)),
                     NodeSpec("op", K.MAXPOOL, PoolParams((2, 2), 2),
                              ("c",))], (6, 6, 1)),
        K.AVGPOOL: ([NodeSpec("c", K.CONV, conv, ("input",)),
                     NodeSpec("op", K.AVGPOOL, PoolParams((2, 2), 2),
                              ("c",))], (6, 6, 1)),
        K.BN: ([NodeSpec("c", K.CONV, conv, ("input",)),
                NodeSpec("op", K.BN, None, ("c",))], (6, 6, 1)),
        K.ADD: ([NodeSpec("a", K.FC, FCParams(6), ("input",)),
                 NodeSpec("b", K.FC, FCParams(6), ("input",)),
                 NodeSpec("op", K.ADD, None, ("a", "b"))], (5,)),
        K.CONCAT: ([NodeSpec("a", K.FC, FCParams(3), ("input",)),
                    NodeSpec("b", K.FC, FCParams(5), ("input",)),
                    NodeSpec("op", K.CONCAT, None, ("a", "b"))], (5,)),
    }
    rng = np.random.default_rng(0)
    worst = {}
    for kind, (nodes, shape) in per_kind.items():
        net = network_of(nodes, shape, seed=17)
        if any(n.kind is K.BN for n in nodes):
            net.calibrate_bn(rng.standard_normal((16,) + tuple(shape)))
        result = finite_difference_check(net, rng.standard_normal(shape),
                                         check_input=True)
        worst[kind.name] = result.max_rel_error
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) < 1e-4 and elapsed < 60
    _report(1, "gradient integrity", ok,
            f"max_rel_err={max(worst.values()):.2e} over {len(worst)} kinds, "
            f"{elapsed:.1f}s")


def test_criterion_02_query_budget_monotonicity():
    started = time.perf_counter()
    budgets = (100, 500, 2000)
    per_seed = []
    for seed in range(3):
        data = generate(DatasetSpec("c2", 4, 700, (6, 6, 1), 0.5, 900 + seed))
        per_seed.append([_knockoff_fidelity(data, b, seed) for b in budgets])
    medians = np.median(np.array(per_seed), axis=0)
    elapsed = time.perf_counter() - started
    ok = bool(medians[0] <= medians[1] <= medians[2]) and elapsed < 300
    _report(2, "query-budget monotonicity", ok,
            f"median fidelity {np.round(medians, 3).tolist()} "
            f"for budgets {list(budgets)}, {elapsed:.1f}s")


def test_criterion_03_class_size_effect():
    two, ten = [], []
    for seed in range(3):
        data = generate(DatasetSpec("c3", 10, 160, (6, 6, 1), 0.5, 910 + seed))
        ten.append(_knockoff_fidelity(data, 150, seed))
        two.append(_knockoff_fidelity(subset_classes(data, 2, seed), 150, seed))
    ok = np.median(two) >= np.median(ten)
    _report(3, "class-size effect", ok,
            f"2-class median {np.median(two):.3f} vs 10-class "
            f"{np.median(ten):.3f} at budget 150")


def test_criterion_04_complexity_ordering():
    knobs = (0.0, 0.5, 1.0)
    csg_medians = {}
    for knob in knobs:
        vals = [csg_complexity(
            generate(DatasetSpec("c4", 4, 60, (4, 4, 1), knob, 920 + s)),
            100, 5, seed=s).csg for s in range(5)]
        csg_medians[knob] = np.median(vals)
    csg_ok = csg_medians[0.0] < csg_medians[0.5] < csg_medians[1.0]

    fid_medians = {}
    for knob in knobs:
        vals = [_knockoff_fidelity(
            generate(DatasetSpec("c4f", 4, 700, (6, 6, 1), knob, 930 + s)),
            500, s) for s in range(3)]
        fid_medians[knob] = np.median(vals)
    fid_ok = fid_medians[0.0] > fid_medians[0.5] > fid_medians[1.0]

    _report(4, "complexity ordering", csg_ok and fid_ok,
            f"csg medians {[round(float(csg_medians[k]), 3) for k in knobs]} "
            f"fidelity medians {[round(float(fid_medians[k]), 3) for k in knobs]}")


def _ds_corpus(jitter=0.05, seeds=6):
    profile = EnvironmentProfile("corpus", metric_jitter=jitter)
    corpus = []
    for arch_id in CONVENTIONAL:
        spec = builtin_spec(arch_id, SHAPE, 4)
        truth = ds_truth_sequence(spec)
        for s in range(seeds):
            corpus.append((simulate_kernel_trace(spec, profile, seed=s), truth))
    return corpus


def test_criterion_05_ds_in_vocabulary_success():
    eval_profile = EnvironmentProfile("eval", metric_jitter=0.02)
    conventional, gelu_deficit = [], []
    for seed in range(5):
        clf = train_ds_model(_ds_corpus(),
                             config=TrainConfig(learning_rate=0.5,
                                                batch_size=16, epochs=200,
                                                seed=seed))

        def fid(arch_id):
            spec = builtin_spec(arch_id, SHAPE, 4)
            trace = simulate_kernel_trace(spec, eval_profile, seed=500 + seed)
            return sequence_fidelity(ds_extract(trace, clf),
                                     ds_truth_sequence(spec))

        conventional.append(np.median([fid(a) for a in CONVENTIONAL]))
        gelu_deficit.append([(fid("mini-gelu-4"), fid("mini-vgg-4")),
                             (fid("mini-gelu-6"), fid("mini-vgg-6"))])
    med_conv = np.median(conventional)
    pair_ok = all(
        np.median([seed_pairs[i][0] for seed_pairs in gelu_deficit])
        < np.median([seed_pairs[i][1] for seed_pairs in gelu_deficit])
        for i in range(2))
    ok = med_conv >= 0.8 and pair_ok
    _report(5, "sequence inference in-vocabulary success", ok,
            f"median conventional fidelity {med_conv:.3f}, GELU strictly "
            f"lower on both depth pairs: {pair_ok}")


def test_criterion_06_verbose_runtime_inflation():
    profile = EnvironmentProfile("verbose", metric_jitter=0.02,
                                 verbose_runtime=True)
    clf = train_ds_model(_ds_corpus())
    total = inflated = 0
    for arch_id in CONVENTIONAL:
        spec = builtin_spec(arch_id, SHAPE, 4)
        for seed in range(5):
            trace = simulate_kernel_trace(spec, profile, seed=600 + seed)
            predicted = ds_extract(trace, clf)
            total += 1
            inflated += len(predicted) > len(ds_truth_sequence(spec))
    _report(6, "verbose-runtime length inflation", inflated == total,
            f"{inflated}/{total} verbose traces predicted longer than truth")


def _dr_accuracy(profile, seed0, archs):
    corpus = [simulate_symbol_stream(builtin_spec(a, SHAPE, 4), profile,
                                     seed=seed0 + 13 * i + j)
              for i, a in enumerate(archs) for j in range(8)]
    model = fit_fingerprint_space(corpus, k=5)
    exact = family = total = 0
    for i, arch_id in enumerate(archs):
        spec = builtin_spec(arch_id, SHAPE, 4)
        for j in range(5):
            pred = dr_classify(simulate_symbol_stream(
                spec, profile, seed=seed0 + 9000 + 11 * i + j), model)
            exact += pred.architecture_id == arch_id
            family += pred.family == spec.family
            total += 1
    return exact / total, family / total


def test_criterion_07_family_beats_exact():
    archs = ("mini-mlp-2", "mini-mlp-3") + CONVENTIONAL
    profiles = ("i7-6850k-like", "i7-4770-like", "i5-3470-like")
    means = {}
    for name in profiles:
        pairs = [_dr_accuracy(BUILTIN_MACHINE_PROFILES[name], 1000 * s, archs)
                 for s in range(5)]
        means[name] = (np.mean([p[0] for p in pairs]),
                       np.mean([p[1] for p in pairs]),
                       np.median([p[1] for p in pairs]))
    family_ok = all(means[n][1] >= means[n][0] for n in profiles)
    order_ok = means["i7-6850k-like"][2] > means["i5-3470-like"][2]
    _report(7, "family classification beats exact", family_ok and order_ok,
            "; ".join(f"{n}: exact {means[n][0]:.2f} family {means[n][1]:.2f}"
                      for n in profiles))


def test_criterion_08_staged_inversion():
    data = generate(DatasetSpec("c8", 5, 300, (6, 6, 1), 0.0, 940))
    queries, test = split(data, 0.7, seed=1)
    target, spec = _linear_target(data, seed=8)
    cfg = KnockoffConfig(query_budget=600,
                         recreate=TrainConfig(epochs=15, seed=2))
    stolen, _ = knockoff_extract(QueryHandle(target), queries, spec, cfg,
                                 seed=3)
    stolen_fidelity = fidelity(stolen.predict(test.inputs),
                               target.predict(test.inputs))

    rng = np.random.default_rng(0)
    handle = GradientHandle(stolen)
    beating = 0
    for cls in range(5):
        inv = InversionConfig(posterior_threshold=0.999, max_iterations=300,
                              step_size=0.2)
        result = miface_invert(handle, inv, cls, seed=100 + cls)
        mean_image = test.class_mean(cls)
        random_sims = [cosine_similarity(rng.standard_normal(mean_image.shape),
                                         mean_image) for _ in range(100)]
        threshold = np.percentile(random_sims, 95)
        sim = cosine_similarity(result.reconstruction, mean_image)
        beating += sim > threshold
    ok = stolen_fidelity >= 0.8 and beating >= 0.8 * 5
    _report(8, "staged inversion", ok,
            f"stolen fidelity {stolen_fidelity:.3f}, {beating}/5 classes beat "
            f"the 95th-percentile random baseline")


def test_criterion_09_pwcca_sanity():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((500, 10))
    r = rng.standard_normal((10, 10))
    b = rng.standard_normal((500, 10))
    self_d = pwcca_distance(a, a)
    inv_d = pwcca_distance(a, a @ r)
    indep_d = pwcca_distance(a, b)
    ok = self_d < 1e-6 and inv_d < 1e-6 and indep_d > 0.8
    _report(9, "pwcca sanity", ok,
            f"self {self_d:.2e}, invertible-map {inv_d:.2e}, "
            f"independent {indep_d:.3f}")


def test_criterion_10_distillation_equivalency():
    pairs = ("mini-mlp-2", "mini-vgg-4", "mini-dense-3")
    improved = 0
    details = []
    for arch_id in pairs:
        originals, distilled = [], []
        for seed in range(3):
            data = generate(DatasetSpec("c10", 4, 500, (6, 6, 1), 0.5,
                                        950 + seed))
            queries, test = split(data, 0.7, seed)
            spec = builtin_spec(arch_id, data.spec.input_shape, 4)
            target = build_model(spec, seed=seed)
            train(target, data.inputs, data.labels,
                  TrainConfig(epochs=12, seed=seed))
            cfg = KnockoffConfig(query_budget=400,
                                 recreate=TrainConfig(epochs=12, seed=seed + 1))
            stolen, _ = knockoff_extract(QueryHandle(target), queries, spec,
                                         cfg, seed=seed + 2)
            dcfg = DistillConfig(
                "mini-student-cnn",
                distill_train=TrainConfig(epochs=15, seed=seed + 3))
            metrics, (pa, pb) = equivalency_report(target, stolen, test, dcfg)
            originals.append(metrics[f"pwcca_{pa}:{pb}"])
            distilled.append(metrics["distilled_pwcca"])
        if np.median(distilled) < np.median(originals):
            improved += 1
        details.append(f"{arch_id}: {np.median(originals):.3f}->"
                       f"{np.median(distilled):.3f}")
    _report(10, "distillation equivalency", improved >= 2,
            f"distilled < original on {improved}/3 pairs ({'; '.join(details)})")


def test_criterion_11_expressive_power():
    magnitudes = [0.0, 0.25, 0.5, 1.0]
    aucs = []
    for seed in range(3):
        data = generate(DatasetSpec("c11", 4, 300, SHAPE, 0.6, 700 + seed))
        _, test = split(data, 0.7, seed)
        spec = builtin_spec("mini-pyramid-5", SHAPE, 4)
        model = build_model(spec, seed=seed)
        train(model, data.inputs, data.labels,
              TrainConfig(epochs=40, seed=seed))
        curves = layer_noise_sensitivity(model, test, magnitudes, trials=5,
                                         seed=seed)
        aucs.append(curves.auc())
    layers = list(aucs[0])
    medians = {l: np.median([a[l] for a in aucs]) for l in layers}
    first = layers[0]
    ok = min(medians, key=medians.get) == first
    _report(11, "expressive power (first layer most sensitive)", ok,
            f"median AUC by layer: "
            f"{ {l: round(float(v), 3) for l, v in medians.items()} }")


def _knockoff_scenario(sid, seed):
    return parse_scenario(json.dumps({
        "schema_version": 1, "id": sid, "seed": seed,
        "attack": {"type": "knockoff",
                   "params": {"query_budget": 1200,
                              "recreate": {"epochs": 60}}},
        "target": {"architecture_id": "mini-mlp-2",
                   "dataset_id": "blobs-4c-mid"},
        "grants": {"model_knowledge": "hidden", "system_knowledge": "none",
                   "aux_dataset": "partial"},
    }))


def test_criterion_12_scheduler_contract(tmp_path):
    bench = default_workbench(tmp_path / "repo")
    batch = [_knockoff_scenario(f"k{i}", 40 + i) for i in range(4)]

    # plan safety: exclusive windows singleton, capacity respected
    plans_ok = True
    for slots in (1, 2, 3):
        plan = schedule(batch, slots)
        for window in plan.windows():
            if any(a.exclusive for a in window):
                plans_ok &= len(window) == 1
            plans_ok &= len(window) <= slots

    zoo_resolve(batch[0].target, bench)  # warm the target cache
    serial = run_batch(batch, bench, slots=1)
    durations = serial.durations()
    one_slot = simulated_makespan(schedule(batch, 1), durations)
    two_slot = simulated_makespan(schedule(batch, 2), durations)
    ratio = two_slot / one_slot

    parallel = run_batch(batch, bench, slots=2)
    metrics_ok = all(a.metrics == b.metrics for a, b in
                     zip(serial.records, parallel.records))
    ok = plans_ok and ratio < 0.65 and metrics_ok and serial.all_ok()
    _report(12, "scheduler contract", ok,
            f"2-slot/1-slot makespan ratio {ratio:.3f} "
            f"(durations {[round(durations[f'k{i}'], 2) for i in range(4)]}s), "
            f"plan safety {plans_ok}, concurrent metrics identical {metrics_ok}")


def test_criterion_13_end_to_end_determinism(tmp_path):
    bench = default_workbench(tmp_path / "repo")
    for attack, params, target, env, grants in [
        ("knockoff", {"query_budget": 200},
         {"architecture_id": "mini-mlp-1", "dataset_id": "blobs-4c-mid"}, {},
         {"model_knowledge": "hidden", "system_knowledge": "none",
          "aux_dataset": "partial"}),
        ("deepsniffer", {},
         {"architecture_id": "mini-vgg-4", "dataset_id": "blobs-4c-mid"},
         {"environment_profile": "gpu-low"},
         {"model_knowledge": "observed", "system_knowledge": "partial",
          "aux_dataset": "none"}),
        ("miface", {"target_class": 1},
         {"architecture_id": "mini-mlp-1", "dataset_id": "blobs-4c-mid"}, {},
         {"model_knowledge": "hidden", "system_knowledge": "none",
          "aux_dataset": "partial"}),
    ]:
        doc = {"schema_version": 1, "id": f"det-{attack}", "seed": 77,
               "attack": {"type": attack, "params": params},
               "target": target, "environment": env, "grants": grants}
        sc = parse_scenario(json.dumps(doc))
        first = execute(sc, bench)
        second = execute(sc, bench)
        assert first.status == "ok", first.failure_reason
        if first.metrics != second.metrics:
            _report(13, "end-to-end determinism", False,
                    f"{attack} metrics diverged")
    _report(13, "end-to-end determinism", True,
            "knockoff, deepsniffer and miface re-runs reproduce metrics exactly")
